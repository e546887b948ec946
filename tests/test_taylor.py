"""The Taylor check: the nonlinear flow and the linear propagator vouch for
each other.  The central quotient (U(S + delta V0) - U(S - delta V0)) / (2 delta)
of two flows about the wave S, taken into the wave's frame, is e^{tL} V0 up
to O(delta^2) and the flow's time error, and on a fine grid its gap is seen
to be second order in delta.  Across the family, the quotient
(U(S_{c+dc}) - U(S_{c-dc})) / (2 dc) of two waves' flows is e^{tL} xi2 = xi2 - t xi1."""

import dataclasses

import numpy as np
import pytest

from epsoliton import dynamics as dyn
from epsoliton import profile as prof
from epsoliton.diagnostics import SHAPES, perturbation
from epsoliton.grid import Grid, translate
from epsoliton.linearized import LinearContext, evolve_linear, wrap_time

_DELTA = 1e-3
# 1.9 times the largest error measured: 1.84e-4 (even), 2.09e-4 (odd),
# 1.10e-4 (shift) and 2.06e-4 (kick)
_BOUND = 4e-4


@pytest.fixture(scope="module")
def wave():
    p = prof.profile_from_eps(0.1, 1.0, Grid(40.0, 256))
    return p, LinearContext.build(p)


def _flow(U0, p, ctx):
    """The flow from U0 = (n, u), 9 saves up to half the wrap time."""
    return dyn.evolve(dyn.State(0.0, *U0), wrap_time(ctx) / 2, p.K, p.grid, n_saves=9,
                      frame_speed=p.c)


def _gap(a, b, step, p, ref):
    """max |(a - b) / step - ref| / max |ref| over the saves of the flows a and
    b, their difference taken into the wave's frame."""
    quotient = np.array([translate([x.n - y.n, x.u - y.u], -p.c * tk, p.grid) / step
                         for x, y, tk in zip(a.states, b.states, a.times)])
    return np.max(np.abs(quotient - ref)) / np.max(np.abs(ref))


def _taylor_error(shape, p, ctx):
    """max |quotient - e^{tL} V0| / max |e^{tL} V0| over 9 saves up to
    half the wrap time."""
    V0 = np.array(perturbation(shape, 1.0, p.grid))
    S = np.array([p.n, p.u])
    plus, minus = (_flow(S + sign * _DELTA * V0, p, ctx) for sign in (1.0, -1.0))
    return _gap(plus, minus, 2 * _DELTA, p, evolve_linear(V0, ctx, plus.times).states)


@pytest.mark.parametrize("shape", SHAPES)
def test_flow_derivative_is_the_linear_propagator(shape, wave):
    assert _taylor_error(shape, *wave) <= _BOUND


def test_taylor_check_negative_control(wave):
    # H^{-1} scaled by 1.01 in L: the even bump reads 4.69e-3, 12 times the bound
    p, ctx = wave
    off = dataclasses.replace(ctx, solve=lambda f: 1.01 * ctx.solve(f))
    assert _taylor_error("even", p, off) > _BOUND


def test_central_gap_is_second_order_in_delta():
    # the even bump at eps = 0.1: the central gap reads 3.64e-5 at delta = 2e-3
    # and 9.11e-6 at 1e-3, a factor of 4.00 (4.5e-6 at 5e-4, where its floor
    # starts).  The grid is finer than the fixture's: on Grid(40, 512), and
    # up to a quarter of the wrap time on every grid tried, the gap sits on
    # its floor and does not scale with delta; on Grid(126.5, 1024) it fell
    # 2.72 times and then stopped
    p = prof.profile_from_eps(0.1, 1.0, Grid(60.0, 1024))
    ctx = LinearContext.build(p)
    V0 = np.array(perturbation("even", 1.0, p.grid))
    S = np.array([p.n, p.u])
    base = _flow(S, p, ctx)
    ref = evolve_linear(V0, ctx, base.times).states
    central, one_sided = [], []
    for delta in (2e-3, 1e-3):
        plus, minus = _flow(S + delta * V0, p, ctx), _flow(S - delta * V0, p, ctx)
        central.append(_gap(plus, minus, 2 * delta, p, ref))
        one_sided.append(_gap(plus, base, delta, p, ref))
    assert central[0] >= 3.0 * central[1] and central[1] <= 2e-5
    # negative control: the one-sided quotient's gap is its O(delta) term,
    # 5.63e-3 and 2.81e-3, a factor of 2.00
    assert one_sided[0] < 3.0 * one_sided[1]


# 2 times the largest gap measured (5.9e-4); the gap is 3.0e-5 at t = 0 and
# 3.8e-4 to 5.9e-4 at t = 5 to 20
_KERNEL_BOUND = 1.2e-3


def _kernel_gaps(p, kv, dc, scale=1.0):
    """max |quotient - (scale xi2 - t xi1)| / max |scale xi2 - t xi1| at each
    of 5 saves up to t = 20.  The quotient (U(S_{c+dc}) - U(S_{c-dc})) / (2 dc)
    of the two flows, taken into the frame of S_c, is d/dc of
    S_{c'}(x - (c' - c) t) at c' = c up to O(dc^2)."""
    g = p.grid
    runs = [dyn.evolve(dyn.State(0.0, q.n, q.u), 20.0, p.K, g, n_saves=5, frame_speed=p.c)
            for q in (prof.build_profile(p.c + dc, p.K, g), prof.build_profile(p.c - dc, p.K, g))]
    gaps = []
    for a, b, tk in zip(runs[0].states, runs[1].states, runs[0].times):
        quotient = translate([a.n - b.n, a.u - b.u], -p.c * tk, g) / (2 * dc)
        ref = scale * kv.xi2 - tk * kv.xi1
        gaps.append(np.max(np.abs(quotient - ref)) / np.max(np.abs(ref)))
    return np.array(gaps)


def test_flow_carries_the_generalized_kernel(wave):
    # e^{tL} xi2 = xi2 - t xi1 (L xi2 = -xi1) through the nonlinear flow.  The
    # gap at t = 0 is O(dc^2): it quarters when dc halves.  The later floor
    # does not move with dc; it is likely d/dc of the flow's slow drift of
    # the wave (ROADMAP D9)
    p, ctx = wave
    gaps = _kernel_gaps(p, ctx.kv, 1e-3)
    assert np.max(gaps) <= _KERNEL_BOUND
    assert gaps[0] >= 3.0 * _kernel_gaps(p, ctx.kv, 5e-4)[0]
    # negative control: xi2 scaled by 1.01 reads 1.02e-2
    assert np.max(_kernel_gaps(p, ctx.kv, 1e-3, scale=1.01)) > _KERNEL_BOUND
