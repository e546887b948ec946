"""Command-line orchestration: run experiments, persist CSV/JSON artifacts.

Subcommands: profile | evans | evolve | linear | stability | report.
Each subcommand reads the settings of its row in _READS, from an optional
key=value file plus flags (flags win); any other setting is an error.
_prepare checks and builds a run's inputs before --out is touched.  A
command returns its Record and run writes it: the tables as CSV, then
manifest.json, with the inputs, the outputs, wall time, scalars, verdicts
and the error that stopped the run (null on success).  Exit codes: 0
success, 1 validation error (no --out made), 2 numerical failure (with a
manifest naming it once --out is made).
"""

import argparse
import csv
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import __version__, diagnostics, dynamics, evans, linearized, modulation
from . import profile as profile_mod
from .grid import A_RATE_L_MAX, WINDOW, default_weights


class ValidationError(Exception):
    pass


# ------------------------------------------------------------------ config

# type and default of each setting (the weight settings' are the experiment's)
_SC = diagnostics.StabilityConfig
_SETTINGS = {"K": (float, 1.0), "eps": (float, 0.05), "L": (float, None),
             "N": (int, None), "A": (float, _SC.A), "B": (float, _SC.B),
             "kappa": (float, _SC.kappa), "rho": (float, _SC.rho), "delta": (float, 1e-3),
             "shape": (str, "even"), "T": (float, None), "n_saves": (int, 41),
             "segment": (str, "0.02:1:25")}

# the settings each subcommand reads; a flag or config-file key outside its
# row is an error, and the manifest's inputs are exactly its row
_GRID_KEYS = ("K", "eps", "L", "N")
_READS = {
    "profile": _GRID_KEYS,
    "evans": _GRID_KEYS + ("segment",),
    "evolve": _GRID_KEYS + ("delta", "shape", "T", "n_saves"),
    "linear": _GRID_KEYS + ("kappa", "rho", "delta", "T"),
    "stability": _GRID_KEYS + ("A", "B", "kappa", "rho", "delta", "shape", "T",
                               "n_saves"),
    "report": (),
}


def _defaults(subcommand):
    return {key: _SETTINGS[key][1] for key in _READS[subcommand]}


def _unread(subcommand, key):
    reads = ", ".join(_READS[subcommand]) or "no settings"
    return f"{subcommand} does not read {key} (it reads {reads})"


def load_config(path, subcommand):
    """key=value text file over the subcommand's defaults; keys the
    subcommand does not read are rejected, '#' comments allowed."""
    values = _defaults(subcommand)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read --config {path}: {e}")
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in _SETTINGS:
            raise ValidationError(f"{path}:{ln}: unknown key {key!r}")
        if key not in _READS[subcommand]:
            raise ValidationError(f"{path}:{ln}: {_unread(subcommand, key)}")
        try:
            values[key] = _SETTINGS[key][0](raw)
        except ValueError:
            raise ValidationError(f"{path}:{ln}: bad value for {key}: {raw!r}")
    return values


def validate(values):
    """Range checks on the settings present in `values` (a subcommand's row)."""
    # NaN fails no comparison below, so non-finite values are rejected first
    bad = [k for k, v in values.items() if isinstance(v, float) and not np.isfinite(v)]
    if bad:
        raise ValidationError("; ".join(f"{k} must be finite" for k in bad))
    problems = []
    for key in ("K", "eps", "kappa", "T", "L", "rho"):
        if values.get(key) is not None and not values[key] > 0:
            problems.append(f"{key} must be positive")
    if "B" in values and values["B"] <= 1:
        problems.append("B must exceed 1")
    if "A" in values and values["A"] < values["B"] ** 2:
        problems.append("A must be at least B^2 (weight-scale ordering A >> B^2)")
    if "delta" in values and values["delta"] < 0:
        problems.append("delta must be nonnegative")
    if "n_saves" in values and values["n_saves"] < 2:
        problems.append("n_saves must be at least 2")
    if "shape" in values and values["shape"] not in diagnostics.SHAPES:
        problems.append(f"unknown perturbation shape {values['shape']!r}")
    if "segment" in values:
        try:
            _segment_taus(values["segment"])
        except ValidationError as e:
            problems.append(str(e))
    if problems:
        raise ValidationError("; ".join(problems))


def _segment_taus(segment):
    """The imaginary parts tau of the evans scan's points i tau from
    'lo:hi:n': n >= 1 points from lo to hi, both finite."""
    try:
        lo, hi, n = segment.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ValidationError(f"bad --segment {segment!r}, expected lo:hi:n")
    if not (np.isfinite(lo) and np.isfinite(hi)) or n < 1:
        raise ValidationError(f"bad --segment {segment!r}: lo and hi must be "
                              "finite and n at least 1")
    return np.linspace(lo, hi, n)


# ------------------------------------------------------------------ output

def _outdir(cfg):
    out = Path(cfg.out)
    if out.is_dir() and any(out.iterdir()):
        if not cfg.force:
            raise ValidationError(
                f"output directory {out} is not empty (use --force to overwrite)")
        _remove_previous_run(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ValidationError(f"cannot create output directory {out}: {e}")
    return out


def _remove_previous_run(out):
    """Delete out/manifest.json and the files of out named as its outputs, so
    a failed rerun leaves no stale artifacts beside its own; nothing else
    in out is touched.  Only the names count: the listed paths are relative
    to the directory the earlier run was started from."""
    path = out / "manifest.json"
    if path.exists():
        outputs = _read_manifest(path).get("outputs")
        if not (isinstance(outputs, list) and all(isinstance(f, str) for f in outputs)):
            raise ValidationError(f"{path}: outputs is not a list of paths")
        for f in (out / Path(name).name for name in outputs):
            if f.is_file():
                f.unlink()
        path.unlink()


def _read_manifest(path):
    try:
        man = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, ValueError) as e:
        raise ValidationError(f"{path}: {e}")
    if not isinstance(man, dict):
        raise ValidationError(f"{path}: not a JSON object")
    return man


class Record(NamedTuple):
    """What a run found: its tables {file name: (header, rows)}, its scalars
    and verdicts, and the error that stopped it early (None on success)."""
    tables: dict
    scalars: dict
    verdicts: dict
    error: str = None


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(header)
        for row in rows:
            wr.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                         for v in row])


def long_table(t, series):
    """Long-format time series: columns t,name,value."""
    return ("t", "name", "value"), [(repr(float(ti)), name, repr(float(vi)))
                                    for name, vals in series.items()
                                    for ti, vi in zip(t, vals)]


def _write_record(out, cfg, t_wall, rec):
    """The run's tables, then manifest.json naming them."""
    files = [out / name for name in rec.tables]
    for f, (header, rows) in zip(files, rec.tables.values()):
        write_csv(f, header, rows)
    man = {"version": __version__, "subcommand": cfg.subcommand,
           "inputs": {key: getattr(cfg, key) for key in _READS[cfg.subcommand]},
           "wall_time_s": t_wall, "outputs": [str(f) for f in files],
           "scalars": rec.scalars, "verdicts": rec.verdicts, "error": rec.error}
    (out / "manifest.json").write_text(json.dumps(man, indent=2, default=float) + "\n")


_RESIDUAL_MAX = 1e-6  # nodal Poisson residual of a profile on the default grid


def _prepare(cfg):
    """Check and build a run's inputs, the cheap checks first: under
    stability the waves at c -+ DC, the grid (default_grid derives a missing
    --L or --N), the weight set w if the subcommand reads rho, the
    perturbation if it reads delta (linear's initial state V0), the profile
    p, the perturbed state s0 if it reads shape.  On the default grid a nodal
    Poisson residual above _RESIDUAL_MAX, a wave unresolved near the
    existence edge, is a RuntimeError; an explicit grid may be coarse."""
    stability = cfg.subcommand == "stability"
    if stability:  # the modulation context builds the waves at c -+ DC
        if not cfg.eps > modulation.DC:
            raise ValidationError(f"stability needs eps > {modulation.DC:g}")
        try:
            profile_mod.peak_state(np.sqrt(1.0 + cfg.K) + cfg.eps + modulation.DC, cfg.K)
        except ValueError as e:
            raise ValidationError(f"stability needs a wave at eps + {modulation.DC:g}: {e}")
    try:
        g = profile_mod.default_grid(cfg.eps, cfg.K, L=cfg.L, N=cfg.N,
                                     L_factor=diagnostics.L_FACTOR if stability else 40.0)
    except ValueError as e:
        raise ValidationError(str(e))
    w = V0 = s0 = None
    if "rho" in _READS[cfg.subcommand]:
        try:  # linear reads no weight scale and takes the defaults
            w = default_weights(cfg.eps, g, A=getattr(cfg, "A", _SC.A),
                                B=getattr(cfg, "B", _SC.B), kappa=cfg.kappa, rho=cfg.rho)
        except ValueError as e:
            bound = A_RATE_L_MAX / (np.sqrt(cfg.eps) * g.L)
            raise ValidationError(f"--rho {cfg.rho:g} must be below {bound:.4g} on this box: {e}")
    if cfg.subcommand == "linear":
        V0 = np.array([cfg.delta * np.exp(-(g.x / 4.0) ** 2) * np.cos(g.x), np.zeros(g.N)])
        dn, du = V0
    elif "delta" in _READS[cfg.subcommand]:
        dn, du = diagnostics.perturbation(cfg.shape, cfg.delta, g)
    if "delta" in _READS[cfg.subcommand] and cfg.delta > 0:
        # the squares a run forms stay finite while delta^2 times this does:
        # the sum of (dn, du)^2 at delta = 1, and h times it, on states grown
        # to linear's spurious-growth cap and weighed by l2a's largest weight
        unit_sq = max(g.h, 1.0) * np.sum((np.array([dn, du]) / cfg.delta) ** 2)
        weight = np.exp(w.a_rate * WINDOW * g.L) if w else 1.0
        bound = np.sqrt(np.finfo(float).max / unit_sq) / (linearized.GROWTH_MAX * weight)
        if not cfg.delta < bound:
            raise ValidationError(f"--delta {cfg.delta:g} must be below {bound:.4g} on this "
                                  "box: a squared norm of the run could overflow float64")
    p = profile_mod.profile_from_eps(cfg.eps, cfg.K, g)
    if cfg.L is None and cfg.N is None and p.poisson_residual > _RESIDUAL_MAX:
        raise RuntimeError(
            f"profile at eps = {cfg.eps:g} unresolved on the default grid "
            f"(N = {g.N}): nodal Poisson residual {p.poisson_residual:.2e} "
            f"> {_RESIDUAL_MAX:g}")
    if "shape" in _READS[cfg.subcommand]:
        floor = np.min(1.0 + p.n + dn)
        if not floor > 0.0:
            raise ValidationError(f"--delta {cfg.delta:g} with --shape {cfg.shape} empties "
                                  f"the density: min(1 + n) = {floor:.3g}")
        s0 = dynamics.State(0.0, p.n + dn, p.u + du)
    return SimpleNamespace(p=p, w=w, V0=V0, s0=s0)


# ------------------------------------------------------------- subcommands

def cmd_profile(cfg, built):
    p = built.p
    g = p.grid
    rate = profile_mod.tail_rate_check(p)
    # a NaN rate (the box holds too little of the tail) is written as JSON null
    return Record({"profile.csv": (("x", "n", "u", "phi", "psi", "dn", "du"),
                                   zip(g.x, p.n, p.u, p.phi, p.psi, p.dn, p.du))},
                  {"c": p.c, "eps": cfg.eps, "L": g.L, "N": g.N,
                   "mu4_at_zero": profile_mod.mu4_at_zero(p.c, cfg.K),
                   "fitted_tail_rate": rate if np.isfinite(rate) else None,
                   "poisson_residual": p.poisson_residual}, {})


_SCAN_RTOL = 1e-9  # the evans scan's march tolerance, and D's relative accuracy on it


def cmd_evans(cfg, built):
    p = built.p
    g = p.grid
    cache = evans.CoefficientCache(p)
    scan = evans.evans_scan(1j * _segment_taus(cfg.segment), p, cache,
                            closed=False, rtol=_SCAN_RTOL)
    D0, D1, D2 = evans.evans_derivs_at0(p, cache)
    scal = {"min_abs_D": scan.min_modulus, "abs_D0": abs(D0), "abs_D1_at0": abs(D1),
            "D2_at0_real": D2.real, "evans_evaluations": cache.evaluations,
            "jost_steps": scan.jost_steps, "L": g.L, "N": g.N}
    # |D| is known to about _SCAN_RTOL of its largest value on the scan; a
    # minimum below that cannot be told from a zero of D
    verd = {"min_abs_D_positive": bool(
                scan.min_modulus > _SCAN_RTOL * np.max(np.abs(scan.D))),
            "double_zero_at_origin": bool(
                abs(D0) < 1e-6 * abs(D2) and abs(D1) < 1e-6 * abs(D2))}
    return Record({"evans.csv": (("re_lambda", "im_lambda", "re_D", "im_D", "abs_D"),
                                 ((z.real, z.imag, d.real, d.imag, abs(d))
                                  for z, d in zip(scan.lam, scan.D)))}, scal, verd)


def cmd_evolve(cfg, built):
    p = built.p
    g = p.grid
    T = cfg.T if cfg.T is not None else 50.0 / np.sqrt(cfg.eps)
    traj = dynamics.evolve(built.s0, T, cfg.K, g, n_saves=cfg.n_saves, frame_speed=p.c)
    if traj.failure:  # the record keeps the flow's counters up to the stop
        return Record({}, {"L": g.L, "N": g.N, "T": T, "blowup_time": traj.blowup_time,
                           **traj.meta}, {}, traj.failure)
    invs = [dynamics.invariants_of(s, cfg.K, g) for s in traj.states]
    series = {k: [inv[k] for inv in invs] for k in ("E", "M")}
    sT = traj.states[-1]
    dE = abs(series["E"][-1] - series["E"][0]) / max(abs(series["E"][0]), 1e-300)
    dM = abs(series["M"][-1] - series["M"][0]) / max(abs(series["M"][0]), 1e-300)
    return Record({"invariants.csv": long_table(traj.times, series),
                   "final_state.csv": (("x", "n", "u"), zip(g.x, sT.n, sT.u))},
                  {"rel_dE": dE, "rel_dM": dM, "L": g.L, "N": g.N, "T": T, **traj.meta},
                  {"conserved": bool(dE < 1e-6 and dM < 1e-8)})


def cmd_linear(cfg, built):
    p, w, V0 = built.p, built.w, built.V0
    g = p.grid
    ctx = linearized.LinearContext.build(p)
    T = min(cfg.T or np.inf, linearized.wrap_time(ctx))  # both experiments stop there
    td, nd, rate = linearized.dispersive_decay_experiment(V0, ctx, w.a_rate, T)
    tk, run = linearized.kato_smoothing_experiment(V0, ctx, w, T)
    excess = (run[-1] - run[len(run) // 2]) / max(run[-1], 1e-300)
    # a NaN rate (no decaying segment to fit) is written as JSON null
    return Record({"linear.csv": long_table(td, {"weighted_norm": nd}),
                   "kato.csv": long_table(tk, {"running_integral": run})},
                  {"decay_rate": rate if np.isfinite(rate) else None,
                   "kato_excess": float(excess), "propagator_rho": ctx.rho,
                   "L_applications": ctx.L_applications,
                   "xi2_iterations": ctx.xi2.iterations, "xi2_residual": ctx.xi2.residual,
                   "L": g.L, "N": g.N, "T": T},
                  {"decay_positive": bool(rate > 0), "kato_plateau": bool(excess < 0.1)})


def cmd_stability(cfg, built):
    # the experiment takes the checked profile as its base wave and forms the
    # weights and the initial state that _prepare checked the same way
    sc = diagnostics.StabilityConfig(
        K=cfg.K, eps=cfg.eps, delta=cfg.delta, shape=cfg.shape,
        T=cfg.T, n_saves=cfg.n_saves, A=cfg.A, B=cfg.B, kappa=cfg.kappa,
        rho=cfg.rho, grid=built.p.grid)
    rep = diagnostics.stability_experiment(sc, built.p)
    # a run that stops early keeps what it found: the series up to the last
    # snapshot tracked (none when tracking stopped at the first)
    tables = {} if rep.series is None else {"stability_series.csv": long_table(
        rep.track.t, {"c": rep.track.c, "D": rep.track.D, **rep.series})}
    virial = None if rep.monitors is None else {
        m.name: {k: v for k, v in vars(m).items() if k != "name"} for m in rep.monitors}
    return Record(tables, {"c_tail_spread": rep.c_tail_spread, "blowup_time": rep.blowup_time,
                           "virial_constants": virial, "L": sc.grid.L, "N": sc.grid.N,
                           "T": sc.T, **rep.flow}, rep.verdicts, rep.error)


def cmd_report(cfg):
    """Roll the manifests below --out up into --out/report.json."""
    root = Path(cfg.out)
    if (root / "manifest.json").exists():
        raise ValidationError(f"{root} is a run directory; report its parent")
    found = sorted(root.glob("**/manifest.json"))
    if not found:
        raise ValidationError(f"no manifest.json found under {root}")
    summary = []
    for m in found:
        man = _read_manifest(m)
        summary.append({"path": str(m.parent), **{key: man.get(key) for key in (
            "subcommand", "scalars", "verdicts", "error")}})
    (root / "report.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary, indent=2))


_COMMANDS = {"profile": cmd_profile, "evans": cmd_evans, "evolve": cmd_evolve,
             "linear": cmd_linear, "stability": cmd_stability,
             "report": cmd_report}


# -------------------------------------------------------------------- main

def _build_parser():
    ap = argparse.ArgumentParser(prog="epsoliton",
                                 description="Euler-Poisson solitary-wave laboratory")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--out", default=f"runs/{name}")
        if not _READS[name]:
            continue
        sp.add_argument("--config")
        sp.add_argument("--force", action="store_true")
        for key in _READS[name]:
            sp.add_argument(f"--{key}", dest=key, default=None,
                            help=f"default {_SETTINGS[key][1]}")
    return ap


def _resolve_settings(cfg, extra):
    """Set the subcommand's settings on the parsed flags `cfg`: its defaults,
    then --config, then its flags; `extra` (unparsed arguments) is an error."""
    for arg in extra:
        key = arg[2:].split("=", 1)[0] if arg.startswith("--") else None
        if key in _SETTINGS:
            raise ValidationError(_unread(cfg.subcommand, f"--{key}"))
    if extra:
        raise ValidationError(f"unrecognized arguments: {' '.join(extra)}")
    reads = _READS[cfg.subcommand]
    values = load_config(cfg.config, cfg.subcommand) if reads and cfg.config \
        else _defaults(cfg.subcommand)
    for key in reads:
        raw = getattr(cfg, key)
        if raw is not None:
            try:
                values[key] = _SETTINGS[key][0](raw)
            except ValueError:
                raise ValidationError(f"bad value for --{key}: {raw!r}")
    validate(values)
    vars(cfg).update(values)


def run(argv=None):
    try:
        cfg, extra = _build_parser().parse_known_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        _resolve_settings(cfg, extra)
        if cfg.subcommand == "report":
            cmd_report(cfg)
            return 0
        t0 = time.time()
        built = _prepare(cfg)
        out = _outdir(cfg)
        try:
            rec = _COMMANDS[cfg.subcommand](cfg, built)
        except RuntimeError as e:  # the run stopped with nothing written
            rec = Record({}, {}, {}, str(e))
        _write_record(out, cfg, time.time() - t0, rec)
        if rec.error is not None:
            raise RuntimeError(rec.error)
        return 0
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
