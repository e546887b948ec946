"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The determinism test runs two traced passes of every workload, about three
minutes on a 2-core machine.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
ACCURACY = ("pass_frac", "drift_E", "drift_M", "profile_residual",
            "evans_spread", "ref_err")
TRACE_EXTRAS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s")


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


# ------------------------------------------------------------------ names

def test_metric_and_workload_names_are_valid_and_unique():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m


def test_emitted_names_match_the_spec():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.E2E_UNITS == e2e
    emitted = set(spans.layer_metrics(spans.Tracer())) | set(TRACE_EXTRAS)
    assert emitted == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert spans.unit_of(m["name"]) == m["unit"], m["name"]
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


# -------------------------------------------------------------- self time

def test_self_time_subtracts_direct_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 6]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    own = spans.self_times(start, end, parent)
    np.testing.assert_allclose(own, [6.0, 2.0, 1.0, 1.0])
    assert own.sum() == pytest.approx(10.0)


def test_tracer_records_nesting_and_self_times_sum_to_the_root():
    tracer = spans.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0]))
    root = tracer.open("bench.x")
    a = tracer.open("grid.a")
    a1 = tracer.open("elliptic.a1")
    tracer.close(a1)
    tracer.close(a)
    b = tracer.open("grid.b")
    tracer.close(b)
    tracer.close(root)
    arr = tracer.arrays()
    assert arr["parent"].tolist() == [-1, 0, 1, 0]
    assert set(arr["pass_id"].tolist()) == {1}
    m = spans.layer_metrics(tracer)
    assert m["grid.self_s"] == pytest.approx(3.0)
    assert m["elliptic.self_s"] == pytest.approx(1.0)
    assert m["bench.self_s"] == pytest.approx(6.0)
    assert m["trace.self_sum_s"] == pytest.approx(10.0)


def test_tail_is_the_eleventh_largest_sample():
    assert spans._tail(np.arange(10.0)) == 0.0
    assert spans._tail(np.arange(64.0)) == 53.0


def test_patches_restore_every_binding():
    from epsoliton import dynamics, elliptic, modulation
    orig = elliptic.solve_poisson
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert dynamics.solve_poisson is not orig
        assert modulation.solve_poisson is dynamics.solve_poisson
    finally:
        tracer.uninstall()
    assert elliptic.solve_poisson is orig
    assert dynamics.solve_poisson is orig and modulation.solve_poisson is orig


# -------------------------------------------------------------- fail_frac

class _Fake:
    check_names = ("ok", "known", "raises", "false")
    known_failures = {"known": "listed"}


def _boom():
    raise RuntimeError("check failed to run")


def test_tally_counts_raising_and_false_checks():
    tally = run.Tally(_Fake())
    tally.run_checks({"ok": lambda: True, "known": lambda: False,
                      "raises": _boom, "false": lambda: False})
    assert (tally.attempted, tally.failed, tally.unexpected) == (4, 3, 2)
    assert tally.fail_frac == pytest.approx(0.75)


def test_a_pass_that_raises_fails_every_check():
    tally = run.Tally(_Fake())

    class Broken(_Fake):
        def run(self, inp):
            raise ValueError("pass failed")

    with pytest.raises(ValueError):
        run.one_pass(Broken(), {}, {}, tally)
    assert tally.attempted == tally.failed == 4
    assert tally.unexpected == 3


# ------------------------------------------------------------ determinism

def _counts(metrics):
    return {k: v for k, v in metrics.items()
            if k.endswith((".calls", "_nfev", ".steps", ".iters", "newton_iters",
                           "residual_max", "refine_frac", "trace.spans"))}


def _traced_pass(wl, inp, ref):
    tally = run.Tally(wl)
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, res = run.one_pass(wl, inp, ref, tally)
    finally:
        tracer.uninstall()
    accuracy = {"pass_frac": 1.0 - tally.fail_frac, **wl.accuracy(inp, res),
                "ref_err": wl.ref_err(inp, res, ref)}
    return _counts(spans.layer_metrics(tracer)), accuracy, tally


@pytest.mark.parametrize("name", ["spectral", "stability"])
def test_two_traced_passes_repeat_counts_and_accuracy(name):
    wl = workloads.WORKLOADS[name]
    inp = wl.inputs(3)
    ref = wl.reference()
    counts1, acc1, tally = _traced_pass(wl, inp, ref)
    counts2, acc2, _ = _traced_pass(wl, inp, ref)
    assert counts1 == counts2
    assert acc1 == acc2
    assert set(acc1) == set(ACCURACY)
    assert counts1["profile.build_profile.calls"] > 0
    # at seed the only failing checks are the listed known failures
    failed = {k for k, ok in tally.outcomes.items() if not ok}
    assert failed == set(wl.known_failures)
    if name == "spectral":
        assert failed == {"linear.kato_plateau"}
        assert tally.fail_frac == pytest.approx(1 / 6)
