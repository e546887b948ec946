"""Run the benchmark over several seeds per workload and write a results file.

    python3 perfbench/baseline.py perfbench/results/<name>.json [--seeds 10]

For each workload in BENCHMARK.json it makes one untraced run per seed and
one traced run, and records every run's result, the median and quartiles of
each end-to-end metric, and the machine and library versions.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def machine():
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_thread_cap": nproc}


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {"machine": machine(), "run_seconds": spec["run_seconds"],
               "workloads": {}}
    for wl in spec["workloads"]:
        name = wl["name"]
        runs = [run_once(name, s, spec["run_seconds"], 0)
                for s in range(args.seeds)]
        per_metric = {m["name"]: summary([r["metrics"][m["name"]]["value"]
                                          for r in runs])
                      for m in spec["end_to_end"]}
        traced = run_once(name, 0, spec["run_seconds"], 1)
        results["workloads"][name] = {"end_to_end": per_metric,
                                      "runs": runs, "traced": traced}
        print(f"{name}: " + ", ".join(
            f"{k} {v['median']:.4g} (iqr {v['iqr_share']:.3f})"
            for k, v in per_metric.items()), flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1) + "\n")


if __name__ == "__main__":
    main()
