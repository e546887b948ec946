"""The Taylor check: the nonlinear flow and the linear propagator vouch for
each other.  The central quotient (U(S + delta V0) - U(S - delta V0)) / (2 delta)
of two flows about the wave S, taken into the wave's frame, is e^{tL} V0 up
to O(delta^2) and the flow's time error."""

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


def _taylor_error(shape, p, ctx):
    """max |quotient - e^{tL} V0| / max |e^{tL} V0| over 9 saves up to
    half the wrap time."""
    g = p.grid
    V0 = np.array(perturbation(shape, 1.0, g))
    S = np.array([p.n, p.u])
    runs = [dyn.evolve(dyn.State(0.0, *(S + sign * _DELTA * V0)), wrap_time(ctx) / 2,
                       p.K, g, n_saves=9, frame_speed=p.c) for sign in (1.0, -1.0)]
    t = runs[0].times
    quotient = np.array([translate([a.n - b.n, a.u - b.u], -p.c * tk, g) / (2 * _DELTA)
                         for a, b, tk in zip(runs[0].states, runs[1].states, t)])
    ref = evolve_linear(V0, ctx, t).states
    return np.max(np.abs(quotient - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("shape", SHAPES)
def test_flow_derivative_is_the_linear_propagator(shape, wave):
    assert _taylor_error(shape, *wave) <= _BOUND


def test_taylor_check_negative_control(wave):
    # H^{-1} scaled by 1.01 in L: the even bump reads 4.69e-3, 12 times the bound
    p, ctx = wave
    off = dataclasses.replace(ctx, solve=lambda f: 1.01 * ctx.solve(f))
    assert _taylor_error("even", p, off) > _BOUND
