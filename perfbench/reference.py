"""Record the reference results that `ref_err` compares against.

    python3 perfbench/reference.py [stability|evans|linear ...]

Each workload's pass runs through the same code as the benchmark, at seed 0,
with its dominant discretisation refined, so `ref_err` measures the
workload's own error rather than reading zero against itself:
  * stability - RK4 at CFL 0.2 instead of 0.4 (half the step);
  * evans     - every Jost march at rtol 1e-12 instead of 1e-9 / 1e-11;
  * linear    - the linearized RK4 at half the step, sampled at the same
                times as the workload.
The results go to perfbench/ref/<workload>.json.
"""

import json
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from epsoliton import dynamics, evans, linearized  # noqa: E402

import workloads  # noqa: E402
from spans import Patches  # noqa: E402


def _pairs(z):
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1).tolist()


def _half_step_evolve_linear(orig):
    """evolve_linear at half the step, keeping the workload's save times."""
    def evolve(V0, ctx, T, dt=None, cfl=0.4, n_saves=41):
        p, g = ctx.profile, ctx.grid
        speed = float(np.max(np.abs(p.u - p.c))) + np.sqrt(p.K) + 1.0
        nsteps = max(int(np.ceil(T / (cfl * g.h / speed))), 1)
        stride = max(nsteps // max(n_saves - 1, 1), 1)
        # slightly under T/(2 nsteps) so that ceil() gives exactly 2 nsteps
        fine = orig(V0, ctx, T, dt=T / (2 * nsteps) * (1 - 1e-12),
                    n_saves=2 * nsteps + 1)
        keep = [0] + [2 * i for i in range(1, nsteps + 1)
                      if i % stride == 0 or i == nsteps]
        return linearized.LinearTrajectory(
            fine.t[keep], [fine.states[k] for k in keep], fine.flagged)
    return evolve


def _force_rtol(fn, rtol):
    return lambda *a, **k: fn(*a, **{**k, "rtol": rtol})


def refine(name, patches):
    if name == "stability":
        patches.set(dynamics, "evolve", partial(dynamics.evolve, cfl=0.2))
    elif name == "evans":
        patches.set(evans, "evans_scan", _force_rtol(evans.evans_scan, 1e-12))
        patches.set(evans, "evans_derivs_at0",
                    _force_rtol(evans.evans_derivs_at0, 1e-12))
    else:
        patches.set(linearized, "evolve_linear",
                    _half_step_evolve_linear(linearized.evolve_linear))


def record(name):
    wl = workloads.PARTS[name]
    inp = wl.inputs(0)
    patches = Patches()
    refine(name, patches)
    try:
        res = wl.run(inp)
    finally:
        patches.undo()
    if name == "stability":
        rep, final = res["report"], res["traj"].states[-1]
        return {"t": rep.track.t.tolist(), "c": rep.track.c.tolist(),
                "n_final": final.n.tolist(), "u_final": final.u.tolist(),
                "verdicts": rep.verdicts, "c_tail_spread": rep.c_tail_spread}
    if name == "evans":
        scan = res["scan"]
        return {"tau": inp["points"].imag.tolist(),
                "D": _pairs(scan.D[np.isin(scan.lam, inp["points"])]),
                "derivs": _pairs(res["derivs"])}
    return {"weighted_norm": res["weighted_norm"].tolist(),
            "running_integral": res["running_integral"].tolist(),
            "decay_rate": res["decay_rate"], "kato_excess": res["kato_excess"]}


def main(names):
    os.makedirs(workloads.REF_DIR, exist_ok=True)
    for name in names or list(workloads.PARTS):
        data = record(name)
        path = workloads.REF_DIR / f"{name}.json"
        path.write_text(json.dumps(data, separators=(",", ":")) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main(sys.argv[1:])
