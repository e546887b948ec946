"""Command-line orchestration: run experiments, persist CSV/JSON artifacts.

Subcommands: profile | evans | evolve | linear | stability | report.
Each subcommand reads the settings of its row in _READS, from an optional
key=value file plus flags (flags win); any other setting is an error.
Every run writes a manifest.json listing inputs, outputs, wall time, and
verdicts.  Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, diagnostics, dynamics, evans, linearized, modulation
from . import profile as profile_mod
from .grid import default_weights


class ValidationError(Exception):
    pass


class NumericalFailure(Exception):
    pass


# ------------------------------------------------------------------ config

# type and default of each setting
_SETTINGS = {"K": (float, 1.0), "eps": (float, 0.05), "L": (float, None),
             "N": (int, None), "A": (float, 100.0), "B": (float, 10.0),
             "kappa": (float, 0.1), "rho": (float, 0.3), "delta": (float, 1e-3),
             "shape": (str, "even"), "T": (float, None), "n_saves": (int, 41),
             "segment": (str, "0.02:1:25")}

# the settings each subcommand reads; a flag or config-file key outside its
# row is an error, and the manifest's inputs are exactly its row
_GRID_KEYS = ("K", "eps", "L", "N")
_READS = {
    "profile": _GRID_KEYS,
    "evans": _GRID_KEYS + ("segment",),
    "evolve": _GRID_KEYS + ("delta", "shape", "T", "n_saves"),
    "linear": _GRID_KEYS + ("A", "B", "kappa", "rho", "delta", "T"),
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


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(header)
        for row in rows:
            wr.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                         for v in row])


def write_long_csv(path, t, series):
    """Long-format time series: columns t,name,value."""
    rows = []
    for name, vals in series.items():
        for ti, vi in zip(t, vals):
            rows.append((repr(float(ti)), name, repr(float(vi))))
    write_csv(path, ("t", "name", "value"), rows)


def _manifest(out, cfg, t_wall, files, scalars, verdicts):
    man = {
        "version": __version__,
        "subcommand": cfg.subcommand,
        "inputs": {key: getattr(cfg, key) for key in _READS[cfg.subcommand]},
        "wall_time_s": t_wall,
        "outputs": [str(f) for f in files],
        "scalars": scalars,
        "verdicts": verdicts,
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(man, indent=2, default=float) + "\n")


def _grid_of(cfg, L_factor=40.0):
    """The grid from --L/--N; default_grid's rule derives whichever is missing.

    Rejects (eps, K) for which peak_state finds no solitary-wave peak, also
    when --L and --N are both given.
    """
    try:
        return profile_mod.default_grid(cfg.eps, cfg.K, L=cfg.L, N=cfg.N,
                                        L_factor=L_factor)
    except ValueError as e:
        raise ValidationError(str(e))


_RESIDUAL_MAX = 1e-6  # nodal Poisson residual of a profile on the default grid


def _profile_of(cfg, L_factor=40.0):
    """The profile on _grid_of's grid.  On the default grid (neither --L nor
    --N given) a nodal Poisson residual above _RESIDUAL_MAX is a numerical
    failure, the wave unresolved near the existence edge; an explicit grid
    may be coarse on purpose."""
    p = profile_mod.profile_from_eps(cfg.eps, cfg.K, _grid_of(cfg, L_factor))
    if cfg.L is None and cfg.N is None and p.poisson_residual > _RESIDUAL_MAX:
        raise NumericalFailure(
            f"profile at eps = {cfg.eps:g} unresolved on the default grid "
            f"(N = {p.grid.N}): nodal Poisson residual {p.poisson_residual:.2e} "
            f"> {_RESIDUAL_MAX:g}")
    return p


# ------------------------------------------------------------- subcommands

def cmd_profile(cfg, out):
    p = _profile_of(cfg)
    g = p.grid
    f = out / "profile.csv"
    write_csv(f, ("x", "n", "u", "phi", "psi", "dn", "du"),
              zip(g.x, p.n, p.u, p.phi, p.psi, p.dn, p.du))
    rate = profile_mod.tail_rate_check(p)
    # a NaN rate (the box holds too little of the tail) is written as JSON null
    scal = {"c": p.c, "eps": cfg.eps, "L": g.L, "N": g.N,
            "mu4_at_zero": profile_mod.mu4_at_zero(p.c, cfg.K),
            "fitted_tail_rate": rate if np.isfinite(rate) else None,
            "poisson_residual": p.poisson_residual}
    side = out / "profile.json"
    side.write_text(json.dumps(scal, indent=2, default=float) + "\n")
    return [f, side], scal, {}


_SCAN_RTOL = 1e-9  # the evans scan's march tolerance, and D's relative accuracy on it


def cmd_evans(cfg, out):
    p = _profile_of(cfg)
    g = p.grid
    cache = evans.CoefficientCache(p)
    scan = evans.evans_scan(1j * _segment_taus(cfg.segment), p, cache,
                            closed=False, rtol=_SCAN_RTOL)
    f = out / "evans.csv"
    write_csv(f, ("re_lambda", "im_lambda", "re_D", "im_D", "abs_D"),
              ((z.real, z.imag, d.real, d.imag, abs(d))
               for z, d in zip(scan.lam, scan.D)))
    D0, D1, D2 = evans.evans_derivs_at0(p, cache)
    scal = {"min_abs_D": scan.min_modulus, "abs_D0": abs(D0),
            "abs_D1_at0": abs(D1), "D2_at0_real": D2.real,
            "evans_evaluations": cache.evaluations, "jost_steps": scan.jost_steps,
            "L": g.L, "N": g.N}
    # |D| is known to about _SCAN_RTOL of its largest value on the scan; a
    # minimum below that cannot be told from a zero of D
    verd = {"min_abs_D_positive": bool(
                scan.min_modulus > _SCAN_RTOL * np.max(np.abs(scan.D))),
            "double_zero_at_origin": bool(
                abs(D0) < 1e-6 * abs(D2) and abs(D1) < 1e-6 * abs(D2))}
    return [f], scal, verd


def cmd_evolve(cfg, out):
    p = _profile_of(cfg)
    g = p.grid
    dn, du = diagnostics.perturbation(cfg.shape, cfg.delta, g)
    s0 = dynamics.State(0.0, p.n + dn, p.u + du)
    T = cfg.T if cfg.T is not None else 50.0 / np.sqrt(cfg.eps)
    traj = dynamics.evolve(s0, T, cfg.K, g, n_saves=cfg.n_saves, frame_speed=p.c)
    if traj.blown_up:
        raise NumericalFailure(f"blow-up at t = {traj.blowup_time}")
    if traj.failure:
        raise NumericalFailure(f"time stepping failed at {traj.failure}")
    invs = [dynamics.invariants_of(s, cfg.K, g) for s in traj.states]
    series = {k: [inv[k] for inv in invs] for k in ("E", "M")}
    f = out / "invariants.csv"
    write_long_csv(f, traj.times, series)
    f2 = out / "final_state.csv"
    sT = traj.states[-1]
    write_csv(f2, ("x", "n", "u"), zip(g.x, sT.n, sT.u))
    dE = abs(series["E"][-1] - series["E"][0]) / max(abs(series["E"][0]), 1e-300)
    dM = abs(series["M"][-1] - series["M"][0]) / max(abs(series["M"][0]), 1e-300)
    return [f, f2], {"rel_dE": dE, "rel_dM": dM, "L": g.L, "N": g.N, "T": T, **traj.meta}, \
        {"conserved": bool(dE < 1e-6 and dM < 1e-8)}


def cmd_linear(cfg, out):
    p = _profile_of(cfg)
    g = p.grid
    ctx = linearized.LinearContext.build(p)
    w = default_weights(cfg.eps, g, A=cfg.A, B=cfg.B, kappa=cfg.kappa,
                        rho=cfg.rho)
    V0 = np.array([cfg.delta * np.exp(-(g.x / 4.0) ** 2) * np.cos(g.x),
                   np.zeros(g.N)])
    T = min(cfg.T or np.inf, linearized.wrap_time(ctx))  # both experiments stop there
    td, nd, rate = linearized.dispersive_decay_experiment(V0, ctx, w.a_rate, T)
    tk, run = linearized.kato_smoothing_experiment(V0, ctx, w, T)
    f = out / "linear.csv"
    write_long_csv(f, td, {"weighted_norm": nd})
    f2 = out / "kato.csv"
    write_long_csv(f2, tk, {"running_integral": run})
    excess = (run[-1] - run[len(run) // 2]) / max(run[-1], 1e-300)
    # a NaN rate (no decaying segment to fit) is written as JSON null
    return [f, f2], {"decay_rate": rate if np.isfinite(rate) else None,
                     "kato_excess": float(excess),
                     "propagator_rho": ctx.rho,
                     "L_applications": ctx.L_applications,
                     "xi2_iterations": ctx.xi2_iterations, "xi2_residual": ctx.xi2_residual,
                     "L": g.L, "N": g.N, "T": T}, \
        {"decay_positive": bool(rate > 0),
         "kato_plateau": bool(excess < 0.1)}


def cmd_stability(cfg, out):
    # the profile is checked before the flow starts, so that an unresolved
    # wave fails first, and the experiment takes it as its base wave
    p = _profile_of(cfg, L_factor=diagnostics.L_FACTOR)
    sc = diagnostics.StabilityConfig(
        K=cfg.K, eps=cfg.eps, delta=cfg.delta, shape=cfg.shape,
        T=cfg.T, n_saves=cfg.n_saves, A=cfg.A, B=cfg.B, kappa=cfg.kappa,
        rho=cfg.rho, grid=p.grid)
    rep = diagnostics.stability_experiment(sc, p)
    f = out / "report.json"
    f.write_text(json.dumps(rep.to_json_dict(), indent=2, default=float) + "\n")
    files = [f]
    if rep.bundle is not None:  # tracking kept at least one snapshot
        series = {"c": rep.track.c, "D": rep.track.D,
                  "I1": rep.I1, "I2": rep.I2, "J": rep.J,
                  "local_running": rep.local_running, **rep.bundle}
        f2 = out / "stability_series.csv"
        write_long_csv(f2, rep.track.t, series)
        files.append(f2)
    if rep.error or rep.blown_up:
        raise NumericalFailure(rep.error or f"blow-up at t={rep.blowup_time}")
    return files, {"c_tail_spread": rep.c_tail_spread, "L": sc.grid.L,
                   "N": sc.grid.N, "T": sc.T, **rep.flow}, rep.verdicts


def cmd_report(cfg, out):
    """Aggregate manifests/report.json files below --out into a summary."""
    root = Path(cfg.out)
    if (root / "manifest.json").exists():
        raise ValidationError(f"{root} is a run directory; report its parent")
    found = sorted(root.glob("**/manifest.json"))
    if not found:
        raise ValidationError(f"no manifest.json found under {root}")
    summary = []
    for m in found:
        man = _read_manifest(m)
        summary.append({"path": str(m.parent), "subcommand": man.get("subcommand"),
                        "scalars": man.get("scalars"), "verdicts": man.get("verdicts")})
    f = root / "report.json"
    f.write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary, indent=2))
    return [f], {"n_runs": len(summary)}, {}


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
    if cfg.subcommand == "stability" and not values["eps"] > modulation.DC:
        # the modulation context builds the wave at c - DC
        raise ValidationError(f"stability needs eps > {modulation.DC:g}")
    vars(cfg).update(values)


def run(argv=None):
    try:
        cfg, extra = _build_parser().parse_known_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        _resolve_settings(cfg, extra)
        t0 = time.time()
        if cfg.subcommand == "report":
            files, scalars, verdicts = cmd_report(cfg, Path(cfg.out))
        else:
            out = _outdir(cfg)
            files, scalars, verdicts = _COMMANDS[cfg.subcommand](cfg, out)
            _manifest(out, cfg, time.time() - t0, files, scalars, verdicts)
        return 0
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (NumericalFailure, RuntimeError, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
