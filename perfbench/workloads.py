"""The benchmark's workloads: `stability` and `spectral`.

`spectral` runs the calls of the `evans` and `linear` subcommands back to
back as one pass (the `Evans` and `Linear` parts below); README.md says why
the benchmark has two workloads and not three.

Each workload makes its inputs from a seed (`inputs`), runs one pass through
the same public entry points its CLI subcommands call (`run`), names the
checks of a pass (`checks`) and computes its accuracy metrics (`accuracy`).
Every pass uses an explicit Grid, so a change to `default_grid` changes what
the program outputs but not the workload's inputs.

The seed changes an input only where the result transforms exactly, so
one recorded reference serves every seed and the accuracy metrics do not
move with it:
  * evans  - odd seeds walk the scan from the top of the segment down; each
    D(lam) is a pure function of lam, so only the order changes;
  * linear - the seed picks the initial amplitude from +-delta * {1/2, 1, 2};
    the flow is linear and the factors are powers of two, so every series
    scales exactly;
  * stability - none: the flow is nonlinear and the entry point exposes no
    symmetry, so its inputs are pinned.
(Scanning -i tau instead of +i tau was tried: D(conj lam) = conj D(lam)
holds only to the march tolerance, which moved evans_spread 2x by seed.)
"""

import json
from pathlib import Path

import numpy as np

from epsoliton import diagnostics, dynamics, evans, linearized
from epsoliton import profile as profile_mod
from epsoliton.grid import Grid, default_weights

from spans import Patches

REF_DIR = Path(__file__).resolve().parent / "ref"

# Accuracy probes shared by the workloads, all outside the timed region.
SPREAD_TAUS = (0.02, 0.51, 1.0)   # evans_spread: a fixed subset of the scan
DRIFT_T = 2.0                     # probe evolution for workloads with no flow
PROBE_DELTA = 1e-3


def load_reference(name):
    """The recorded results of one part (see reference.py)."""
    return json.loads((REF_DIR / f"{name}.json").read_text())


def _rel(a, b):
    """Largest deviation of a from b relative to the largest |b|."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _cplx(pairs):
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _drift(s0, s1, K, g):
    i0 = dynamics.invariants_of(s0, K, g)
    i1 = dynamics.invariants_of(s1, K, g)
    return {f"drift_{k}": abs(i1[k] - i0[k]) / abs(i0[k]) for k in ("E", "M")}


def drift_probe(p):
    """Invariant drift of a short evolution of the bumped profile."""
    g = p.grid
    dn, du = diagnostics.perturbation("even", PROBE_DELTA, g)
    s0 = dynamics.State(0.0, p.n + dn, p.u + du)
    traj = dynamics.evolve(s0, DRIFT_T, p.K, g, n_saves=2)
    return _drift(traj.states[0], traj.states[-1], p.K, g)


def spread_probe(p, cache=None):
    """Largest Evans pairing spread over i * SPREAD_TAUS."""
    cache = cache or evans.CoefficientCache(p)
    return max(evans.evans(1j * t, p, cache, rtol=1e-9,
                           return_spread=True)[1] for t in SPREAD_TAUS)


class Stability:
    """diagnostics.stability_experiment at K=1, eps=0.1, delta=1e-3, even bump.

    The horizon is half the paper's T = 200/sqrt(eps): the full horizon takes
    about 75 s a pass, more than the benchmark's run budget allows.
    virial_constants_ok fits its constants over trailing windows that
    converge only at the full horizon, so at this horizon it reads False.
    """

    name = "stability"
    eps, K = 0.1, 1.0
    verdicts = ("decompose_ok", "local_decay", "running_integral_saturates",
                "c_converges", "virial_constants_ok")
    check_names = verdicts + ("every_snapshot", "no_blowup", "ref_err_within_tol")
    known_failures = {"virial_constants_ok":
                      "converges only over the full horizon 200/sqrt(eps)"}
    # c(t) and the final state against a half-step reference; ten times the
    # deviation measured at seed
    ref_tol = 2e-3

    def inputs(self, seed):
        eps = self.eps
        g = Grid(80.0 / np.sqrt(eps), 1024)
        return {"config": diagnostics.StabilityConfig(
            K=self.K, eps=eps, delta=1e-3, shape="even", n_saves=81,
            T=100.0 / np.sqrt(eps), grid=g)}

    def run(self, inp):
        """One experiment; keeps the trajectory and the base profile."""
        kept = {}
        patches = Patches()

        def keep(key, fn):
            def passthrough(*args, **kwargs):
                out = fn(*args, **kwargs)
                kept.setdefault(key, out)
                return out
            return passthrough

        patches.set(dynamics, "evolve", keep("traj", dynamics.evolve))
        patches.set(profile_mod, "profile_from_eps",
                    keep("profile", profile_mod.profile_from_eps))
        try:
            rep = diagnostics.stability_experiment(inp["config"])
        finally:
            patches.undo()
        return {"report": rep, **kept}

    def reference(self):
        return load_reference(self.name)

    def ref_err(self, inp, res, ref):
        final = res["traj"].states[-1]
        return max(_rel(res["report"].track.c, ref["c"]),
                   _rel(final.n, ref["n_final"]), _rel(final.u, ref["u_final"]))

    def checks(self, inp, res, ref):
        rep = res["report"]
        out = {k: (lambda k=k: rep.verdicts[k] is True) for k in self.verdicts}
        out["every_snapshot"] = lambda: len(rep.track.t) == len(res["traj"].states)
        out["no_blowup"] = lambda: not rep.blown_up and rep.error is None
        out["ref_err_within_tol"] = \
            lambda: self.ref_err(inp, res, ref) <= self.ref_tol
        return out

    def accuracy(self, inp, res):
        traj, p = res["traj"], res["profile"]
        return {**_drift(traj.states[0], traj.states[-1], self.K, p.grid),
                "profile_residual": p.poisson_residual,
                "evans_spread": spread_probe(p)}


class Evans:
    """The calls cmd_evans makes: profile, CoefficientCache, a 25-point scan
    of the imaginary axis at rtol 1e-9 and D, D', D'' at the origin."""

    name = "evans"
    eps, K = 0.1, 1.0
    check_names = ("min_abs_D_positive", "double_zero_at_origin",
                   "ref_err_within_tol")
    known_failures = {}
    # D against an rtol 1e-12 reference; ten times the deviation at seed
    ref_tol = 1e-3

    def inputs(self, seed):
        taus = np.linspace(0.02, 1.0, 25)
        return {"grid": Grid(40.0 / np.sqrt(self.eps), 512),
                "points": 1j * (taus[::-1] if seed % 2 else taus)}

    def run(self, inp):
        p = profile_mod.profile_from_eps(self.eps, self.K, inp["grid"])
        cache = evans.CoefficientCache(p)
        scan = evans.evans_scan(inp["points"], p, cache, closed=False, rtol=1e-9)
        D0, D1, D2 = evans.evans_derivs_at0(p, cache)
        return {"profile": p, "cache": cache, "scan": scan, "derivs": (D0, D1, D2)}

    def ref_err(self, inp, res, ref):
        scan = res["scan"]
        mask = np.isin(scan.lam, inp["points"])
        at_points = scan.D[mask][np.argsort(scan.lam[mask].imag)]
        D_ref = _cplx(ref["D"])
        if at_points.shape != D_ref.shape:
            return float("inf")
        scan_err = float(np.max(np.abs(at_points - D_ref) / np.abs(D_ref)))
        derivs_ref = _cplx(ref["derivs"])
        # D(0) and D'(0) vanish; all three are measured against |D''(0)|
        derivs_err = float(np.max(np.abs(np.asarray(res["derivs"]) - derivs_ref))
                           / abs(derivs_ref[2]))
        return max(scan_err, derivs_err)

    def checks(self, inp, res, ref):
        D0, D1, D2 = res["derivs"]
        return {"min_abs_D_positive": lambda: res["scan"].min_modulus > 0,
                "double_zero_at_origin":
                    lambda: abs(D0) < 1e-6 * abs(D2) and abs(D1) < 1e-6 * abs(D2),
                "ref_err_within_tol":
                    lambda: self.ref_err(inp, res, ref) <= self.ref_tol}


class Linear:
    """The calls cmd_linear makes at the CLI defaults (eps=0.05, K=1,
    delta=1e-3, A=100, B=10, kappa=0.1, rho=0.3), run up to wrap_time."""

    name = "linear"
    eps, K = 0.05, 1.0
    check_names = ("decay_positive", "kato_plateau", "ref_err_within_tol")
    known_failures = {"kato_plateau":
                      "kato_excess is 0.43 at seed against a bound of 0.1"}
    # both series against a half-step reference; ten times the deviation
    # at seed
    ref_tol = 2e-2
    scales = (1.0, -1.0, 2.0, -2.0, 0.5, -0.5)

    def inputs(self, seed):
        g = Grid(40.0 / np.sqrt(self.eps), 512)
        scale = self.scales[seed % len(self.scales)]
        V0 = np.array([scale * 1e-3 * np.exp(-(g.x / 4.0) ** 2) * np.cos(g.x),
                       np.zeros(g.N)])
        return {"grid": g, "scale": scale, "V0": V0}

    def run(self, inp):
        g = inp["grid"]
        p = profile_mod.profile_from_eps(self.eps, self.K, g)
        ctx = linearized.LinearContext.build(p)
        w = default_weights(self.eps, g, A=100.0, B=10.0, kappa=0.1, rho=0.3)
        T = linearized.wrap_time(ctx)
        _, nd, rate = linearized.dispersive_decay_experiment(
            inp["V0"], ctx, w.a_rate, T)
        _, run = linearized.kato_smoothing_experiment(inp["V0"], ctx, w, T)
        excess = (run[-1] - run[len(run) // 2]) / max(run[-1], 1e-300)
        return {"profile": p, "weighted_norm": nd, "decay_rate": rate,
                "running_integral": run, "kato_excess": float(excess)}

    def ref_err(self, inp, res, ref):
        s = inp["scale"]
        return max(_rel(res["weighted_norm"], abs(s) * np.asarray(ref["weighted_norm"])),
                   _rel(res["running_integral"],
                        s * s * np.asarray(ref["running_integral"])))

    def checks(self, inp, res, ref):
        return {"decay_positive": lambda: res["decay_rate"] > 0,
                "kato_plateau": lambda: res["kato_excess"] < 0.1,
                "ref_err_within_tol":
                    lambda: self.ref_err(inp, res, ref) <= self.ref_tol}


class Spectral:
    """The Evans part, then the Linear part, as one pass.

    Checks are the parts' checks, prefixed with the part's name.  ref_err
    is the larger of the parts' (the Linear part's at seed; the Evans part
    keeps its own tolerance check), profile_residual the larger of the two
    base profiles'; drift comes from a probe on the Evans part's profile and
    evans_spread from the Evans part's coefficient cache.
    """

    name = "spectral"

    def __init__(self):
        self.parts = {"evans": Evans(), "linear": Linear()}
        self.check_names = tuple(f"{p}.{c}" for p, wl in self.parts.items()
                                 for c in wl.check_names)
        self.known_failures = {f"{p}.{c}": why for p, wl in self.parts.items()
                               for c, why in wl.known_failures.items()}

    def reference(self):
        return {p: load_reference(p) for p in self.parts}

    def inputs(self, seed):
        return {p: wl.inputs(seed) for p, wl in self.parts.items()}

    def run(self, inp):
        return {p: wl.run(inp[p]) for p, wl in self.parts.items()}

    def ref_err(self, inp, res, ref):
        return max(wl.ref_err(inp[p], res[p], ref[p])
                   for p, wl in self.parts.items())

    def checks(self, inp, res, ref):
        return {f"{p}.{c}": check for p, wl in self.parts.items()
                for c, check in wl.checks(inp[p], res[p], ref[p]).items()}

    def accuracy(self, inp, res):
        ev, lin = res["evans"], res["linear"]
        return {**drift_probe(ev["profile"]),
                "profile_residual": max(ev["profile"].poisson_residual,
                                        lin["profile"].poisson_residual),
                "evans_spread": spread_probe(ev["profile"], ev["cache"])}


# reference.py records each part on its own
PARTS = {w.name: w for w in (Stability(), Evans(), Linear())}
WORKLOADS = {w.name: w for w in (Spectral(), Stability())}
