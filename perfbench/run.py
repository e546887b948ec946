"""Benchmark entry point.

    python3 perfbench/run.py --workload spectral|stability \
        --seed N --seconds S --trace 0|1

Runs whole passes of the workload until S seconds have passed (at least
one), checks every pass, and prints each metric as `name value unit`, then
one JSON object as the last line of standard output.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 a traced pass follows the
untraced ones and the metrics are the per-layer ones, including the tracing
overhead.  The program is imported from src/ of the checkout this file sits
in; without it the benchmark exits with code 2 and prints no result.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
             "pass_frac": "1", "drift_E": "1", "drift_M": "1",
             "profile_residual": "1", "evans_spread": "1", "ref_err": "1"}


def cap_blas_threads():
    """Cap BLAS/OpenMP pools at nproc; must run before NumPy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= nproc:
            os.environ[var] = str(nproc)


def setup_only(workload, seed):
    """Child process: time imports plus building the pinned inputs."""
    t0 = time.perf_counter()
    import epsoliton.cli  # noqa: F401  (what the subcommand's user imports)
    import workloads
    workloads.WORKLOADS[workload].inputs(seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(workload, seed):
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Tally:
    """Checks attempted and failed; known failures count as failed checks
    in pass_frac but not as failed operations of the run."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0        # every failed check
        self.unexpected = 0    # failed checks not listed as known failures
        self.outcomes = {}

    def record(self, name, ok):
        self.attempted += 1
        self.outcomes[name] = ok
        if not ok:
            self.failed += 1
            if name not in self.wl.known_failures:
                self.unexpected += 1

    def run_checks(self, checks):
        for name, check in checks.items():
            try:
                ok = bool(check())
            except Exception:  # a check that raises counts as failed
                ok = False
            self.record(name, ok)

    def fail_all(self):
        """A pass that raised: every check of the pass counts as failed."""
        for name in self.wl.check_names:
            self.record(name, False)

    @property
    def fail_frac(self):
        return self.failed / self.attempted


def one_pass(wl, inp, ref, tally):
    """Time one pass from its first library call to its checked result."""
    t0 = time.perf_counter()
    try:
        res = wl.run(inp)
    except Exception:
        tally.fail_all()
        raise
    tally.run_checks(wl.checks(inp, res, ref))
    return time.perf_counter() - t0, res


def emit(metrics, units, tally):
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.unexpected == 0, "attempted": tally.attempted,
        "failed": tally.unexpected,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("spectral", "stability"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "epsoliton" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0

    setup = None if args.trace else measure_setup(args.workload, args.seed)
    import workloads
    import spans
    wl = workloads.WORKLOADS[args.workload]
    inp = wl.inputs(args.seed)
    ref = wl.reference()
    tally = Tally(wl)

    walls = []
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        wall, res = one_pass(wl, inp, ref, tally)
        walls.append(wall)
    wall_s = statistics.median(walls)
    print(f"# {wl.name} seed {args.seed}: set-up {setup}, {len(walls)} "
          f"untraced pass(es), checks {tally.outcomes}", file=sys.stderr)

    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            root = tracer.open(f"bench.{wl.name}")
            one_pass(wl, inp, ref, tally)
            tracer.close(root)
        finally:
            tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.npz")
        metrics = spans.layer_metrics(tracer)
        traced = tracer.end[root] - tracer.start[root]
        metrics.update({"trace.wall_s": traced, "trace.untraced_wall_s": wall_s,
                        "trace.overhead_s": traced - wall_s})
        units = {k: spans.unit_of(k) for k in metrics}
    else:
        accuracy = wl.accuracy(inp, res)
        metrics = {"setup_s": statistics.median(setup), "wall_s": wall_s,
                   "peak_rss_mb":
                       resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   "pass_frac": 1.0 - tally.fail_frac, **accuracy,
                   "ref_err": wl.ref_err(inp, res, ref)}
        units = E2E_UNITS
    emit(metrics, units, tally)
    return 0


if __name__ == "__main__":
    sys.exit(main())
