"""Virial functionals, local-decay monitors, and the full conditional
asymptotic-stability experiment.

The three virial inequalities monitored here have the schematic form

  ||V||_{Sigma_1}^2  <= C eps^{-1} ( -dI1/dt + d/dt<phi_1 grad e(S_c), V>
                                     + B^{-1} ||V||_{Sigma_2}^2 + eps ||V||_{Sigma~}^2 )
  ||V||_{Sigma_2}^2  <= C eps^{-1} ( -dI2/dt + d/dt<phi_2 grad e(S_c), V>
                                     + A_1^{-2} ||V||_{Sigma_1}^2 )
  ||(Vn,Vu,Vphi')||_{Sigma~}^2
                     <= C ( -dJ/dt + d/dt<psi grad e(S_c), V>
                            + B^{-1}(||V||_{Sigma_1}^2 + ||V||_{Sigma_2}^2)
                            + ||Vphi||_{Sigma~}^2 )

with I_i = <phi_i, e(S_c+V) - e(S_c)>, J the same with the psi weight
(psi' = sech^2(eps kappa x)).  The monitors integrate both sides over time
windows and report the fitted constants C; the stability experiment runs the
full pipeline (profile -> perturb -> evolve -> modulation track -> verdicts).
"""

from dataclasses import dataclass, field

import numpy as np

from . import dynamics, modulation, profile as profile_mod
from .grid import (Grid, default_weights, derivative, integrate, norms, running_integral,
                   sigma_tilde_sq)


# ----------------------------------------------------------------- virials

def virial_series(V, p, w):
    """Series (I1, I2, J) of the virial functionals (weights phi_1, phi_2,
    psi) over the stack V (S, 3, N) of perturbations (V_n, V_u, V_phi):
    integrals of the weights times e(S_c + V) - e(S_c)."""
    g = p.grid
    de = (dynamics.energy_density(p.n + V[:, 0], p.u + V[:, 1], p.phi + V[:, 2], p.K, g)
          - dynamics.energy_density(p.n, p.u, p.phi, p.K, g))
    return tuple(integrate(weight * de, g) for weight in (w.phi1, w.phi2, w.psi_weight))


# -------------------------------------------------- modulation-frame series

def norm_bundle_series(V, w):
    """Series {name: array over snapshots} of the norm bundle of the stack V
    (S, 3, N): grid.norms itself, kept under this name because
    perfbench/spans.py times the bundle through it."""
    return norms(V, w)


# --------------------------------------------------------- virial monitors

@dataclass
class VirialMonitor:
    name: str
    C_fits: list
    C: float
    stable: bool
    inconclusive: bool


def virial_ratio_monitor(t, V, p, w, virials, bundle):
    """Fitted constants for the three virial inequalities over trailing time
    windows.  C = max over windows of (integrated LHS)/(integrated RHS);
    'stable' requires two valid windows agreeing within 2x; below five
    snapshots the windows coincide and the monitor is inconclusive.

    V is the (S, 3, N) stack of perturbations, virials is
    virial_series(V, p, w) and bundle its norm_bundle_series, of which the
    monitor reads Sigma1 and Sigma2; its three Sigma-tilde series are
    grid.sigma_tilde_sq over a stack.  Each side of an inequality is held as
    its antiderivative in t (a -dI/dt term contributes -I, a norm term its
    running integral), so a window's integral is an endpoint difference.
    """
    g = p.grid
    eps = p.eps
    n = len(t)
    I1, I2, J = virials
    ge = np.array(dynamics.gradient_E(p.n, p.u, p.phi, p.K))
    # the cross terms <weight grad e(S_c), V>
    X1, X2, XJ = (integrate((weight * ge * V[:, :2]).sum(axis=1), g)
                  for weight in (w.phi1, w.phi2, w.psi_weight))

    S1 = bundle["Sigma1"] ** 2
    S2 = bundle["Sigma2"] ** 2
    # ||V||^2, ||V_phi||^2 and ||(V_n, V_u, V_phi')||^2 with the sech weight
    St_rows = sigma_tilde_sq(V, w)
    St_V, St_phi = St_rows.sum(axis=1), St_rows[:, 2]
    dV = np.concatenate([V[:, :2], derivative(V[:, 2:], g)], axis=1)
    St_full = sigma_tilde_sq(dV, w).sum(axis=1)

    defs = [
        ("Sigma1", S1, (X1 - I1) / eps + running_integral(S2 / (w.B * eps) + St_V, t)),
        ("Sigma2", S2, (X2 - I2) / eps + running_integral(S1 / (w.A1 ** 2 * eps), t)),
        ("Sigma_tilde", St_full,
         XJ - J + running_integral(S1 / w.B + S2 / w.B + St_phi, t)),
    ]
    monitors = []
    # trailing windows: the initial transient carries sign-indefinite
    # endpoint terms at desk scale, so the ratios are read off late windows
    # where they converge; windows with nonpositive integrated RHS are skipped
    q = (n - 1) // 4
    starts = sorted({q, 2 * q, 3 * q})  # each window ends at the last snapshot
    for name, lhs_sq, rhs_run in defs:
        lhs_run = running_integral(lhs_sq, t)
        sides = [(lhs_run[-1] - lhs_run[i0], rhs_run[-1] - rhs_run[i0]) for i0 in starts]
        fits = [lhs / rhs for lhs, rhs in sides if rhs > 0 and np.isfinite(rhs)]
        stable = len(fits) >= 2 and max(fits) <= 2.0 * max(min(fits), 1e-300)
        monitors.append(VirialMonitor(name, fits, float(max(fits, default=0.0)), bool(stable),
                                      not fits or len(starts) < 2))
    return monitors


# ------------------------------------------------------------ perturbations

SHAPES = ("even", "odd", "shift", "kick")


def perturbation(shape, delta, grid):
    """Initial perturbation (dn, du): even/odd/shifted bumps, velocity kick."""
    if shape not in SHAPES:
        raise ValueError(f"unknown perturbation shape {shape!r}")
    x = grid.x
    z = np.zeros_like(x)
    bump = np.exp(-(x / 6.0) ** 2)
    if shape == "even":
        return delta * bump, z
    if shape == "odd":
        oddb = x / 6.0 * np.exp(-(x / 6.0) ** 2)
        return delta * oddb / np.max(np.abs(oddb)), z
    if shape == "shift":
        return delta * np.exp(-((x - 10.0) / 6.0) ** 2), z
    return z, delta * bump  # kick


# ------------------------------------------------------ stability experiment

# default box doubled vs. default_grid: radiation wraps the periodic domain
# many times over T = 200/sqrt(eps); the larger box keeps the re-entrant
# floor well below the local-decay threshold
L_FACTOR = 80.0
C_TAIL_TOL = 1e-2  # c_converges: spread of c over the last quarter, relative


@dataclass
class StabilityConfig:
    grid: Grid                  # the CLI sizes it: default_grid, L = L_FACTOR / sqrt(eps)
    K: float
    eps: float
    delta: float
    shape: str
    n_saves: int
    T: float = None             # default 200 / sqrt(eps)
    A: float = 100.0
    B: float = 10.0
    kappa: float = 0.1
    rho: float = 0.3            # a_rate = rho sqrt(eps)

    def __post_init__(self):
        if self.K <= 0 or self.eps <= 0 or self.delta < 0:
            raise ValueError("K, eps must be positive and delta nonnegative")
        if self.T is None:
            self.T = 200.0 / np.sqrt(self.eps)


@dataclass
class StabilityReport:
    config: StabilityConfig
    track: object = None
    I1: np.ndarray = None
    I2: np.ndarray = None
    J: np.ndarray = None
    local_running: np.ndarray = None
    bundle: dict = None
    monitors: list = None
    c_tail_spread: float = None
    flow: dict = None           # the flow's telemetry (Trajectory.meta)
    verdicts: dict = field(default_factory=dict)
    blown_up: bool = False
    blowup_time: float = None
    error: str = None

    def to_json_dict(self):
        d = {
            "config": {k: v for k, v in vars(self.config).items() if k != "grid"},
            "verdicts": self.verdicts,
            "blown_up": self.blown_up,
            "blowup_time": self.blowup_time,
            "c_tail_spread": self.c_tail_spread,
            "error": self.error,
        }
        if self.monitors:
            d["virial_constants"] = {m.name: {"C": m.C, "stable": m.stable,
                                              "inconclusive": m.inconclusive}
                                     for m in self.monitors}
        return d


def stability_experiment(config: StabilityConfig, profile=None) -> StabilityReport:
    """The stability experiment on config's grid.  profile, when given, is
    the base wave at config's (eps, K) on that grid, built already;
    otherwise it is built here (profile_from_eps)."""
    rep = StabilityReport(config=config)
    g = config.grid
    p = profile if profile is not None else profile_mod.profile_from_eps(config.eps, config.K, g)
    w = default_weights(config.eps, g, A=config.A, B=config.B,
                        kappa=config.kappa, rho=config.rho)
    dn, du = perturbation(config.shape, config.delta, g)
    s0 = dynamics.State(0.0, p.n + dn, p.u + du)

    traj = dynamics.evolve(s0, config.T, config.K, g, n_saves=config.n_saves,
                           frame_speed=p.c)
    rep.blown_up = traj.blown_up
    rep.blowup_time = traj.blowup_time
    rep.flow = dict(traj.meta)
    if traj.failure:
        rep.error = f"time stepping failed at {traj.failure}"

    ctx = modulation.ModulationContext(p)
    track = modulation.track(traj, ctx, w)
    rep.track = track
    rep.verdicts["decompose_ok"] = not (track.error or traj.blown_up
                                        or traj.failure)
    if track.error:
        stop = f"modulation tracking failed at t = {track.failed_t:g}: {track.error}"
        rep.error = f"{rep.error}; {stop}" if rep.error else stop
    if len(track.t) == 0:
        return rep

    t = track.t

    rep.I1, rep.I2, rep.J = virial_series(track.V, p, w)
    rep.bundle = norm_bundle_series(track.V, w)
    # int e^{-2a<x>} |V|^2 dx per snapshot, and its running time integral
    local = rep.bundle["weighted_local"]
    rep.local_running = running_integral(local, t)

    if config.delta > 0:
        # means over the first and the last tenth of the snapshots
        m = max(1, int(len(local) * 0.1))
        head, tail = np.mean(local[:m]), np.mean(local[-m:])
        rep.verdicts["local_decay"] = bool(tail < 0.1 * head) if head > 0 else True
        # saturation = the integral's growth rate collapses: on a periodic box
        # the wrapped radiation leaves a small linear-in-t floor, so compare
        # quarter increments instead of absolute tail share (below four
        # snapshots there are none, and no saturation)
        ru = rep.local_running
        nq = len(ru) // 4
        inc_first = ru[nq] - ru[0]
        inc_last = ru[-1] - ru[len(ru) - 1 - nq]
        rep.verdicts["running_integral_saturates"] = bool(
            inc_last <= 0.25 * inc_first) if inc_first > 0 else nq > 0
    else:
        rep.verdicts["local_decay"] = True
        rep.verdicts["running_integral_saturates"] = True

    q = track.c[3 * len(t) // 4:]
    rep.c_tail_spread = float((np.max(q) - np.min(q)) / np.mean(q))
    rep.verdicts["c_converges"] = bool(rep.c_tail_spread < C_TAIL_TOL)

    rep.monitors = virial_ratio_monitor(t, track.V, p, w, (rep.I1, rep.I2, rep.J),
                                        rep.bundle)
    rep.verdicts["virial_constants_ok"] = all(
        np.isfinite(m.C) and m.stable and not m.inconclusive
        for m in rep.monitors) if config.delta > 0 else True
    return rep
