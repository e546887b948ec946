"""The NumPy ports of DOP853, brentq and the not-a-knot spline, against SciPy.

SciPy is an oracle here only.  On an older SciPy the step sequence of its
DOP853 may differ, so the comparisons carry tolerances; on the SciPy the
ports follow (1.17) they agree bit for bit.
"""
import functools

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients as dop853
from scipy.interpolate import CubicSpline as ScipyCubicSpline
from scipy.optimize import brentq as scipy_brentq

from epsoliton import evans as ev
from epsoliton import ode
from epsoliton import profile as prof
from epsoliton.grid import Grid


def test_tableau_is_scipys():
    assert np.array_equal(ode._A, dop853.A)
    assert np.array_equal(ode._B, dop853.B)
    assert np.array_equal(ode._C, dop853.C)
    assert np.array_equal(ode._E3, dop853.E3)
    assert np.array_equal(ode._E5, dop853.E5)
    assert np.array_equal(ode._D, dop853.D)


def _build_with_scipy(monkeypatch, eps, K, grid):
    with monkeypatch.context() as m:
        m.setattr(prof, "solve_ivp", functools.partial(scipy_solve_ivp, method="DOP853"))
        m.setattr(prof, "brentq", scipy_brentq)
        return prof.profile_from_eps(eps, K, grid)


@pytest.mark.parametrize("eps, K, N", [(0.1, 1.0, 1024), (0.05, 0.5, 512), (0.005, 1.0, 512)])
def test_build_profile_matches_scipys_marches(monkeypatch, eps, K, N):
    grid = Grid(L=40.0 / np.sqrt(eps), N=N)
    port = prof.profile_from_eps(eps, K, grid)
    ref = _build_with_scipy(monkeypatch, eps, K, grid)
    for got, want in zip(port.fine, ref.fine):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    assert port.n_star == pytest.approx(ref.n_star, rel=1e-15)
    assert port.poisson_residual == pytest.approx(ref.poisson_residual, rel=1e-6, abs=1e-15)


def test_solve_ivp_matches_scipys_dop853():
    # y' = -y + sin t from 1 until y falls through 0.3, read at t_eval
    def rhs(t, y):
        return [-y[0] + np.sin(t)]

    def hit(t, y):
        return y[0] - 0.3
    hit.terminal, hit.direction = True, -1
    t_eval = np.linspace(0.0, 20.0, 41)[2:]
    kw = dict(rtol=1e-12, atol=1e-15, max_step=0.7, events=hit, t_eval=t_eval)
    port = ode.solve_ivp(rhs, (1.0, 20.0), [1.0], **kw)
    ref = scipy_solve_ivp(rhs, (1.0, 20.0), [1.0], method="DOP853", **kw)
    assert port.success and ref.success
    assert port.t_events[0] == pytest.approx(ref.t_events[0], rel=1e-12)
    assert port.y.shape == ref.y.shape and port.y.shape[1] < len(t_eval)
    assert np.max(np.abs(port.y - ref.y)) <= 1e-12


def _peak_bracket(c, K):
    """The bracket and tolerances peak_state hands brentq, and its root."""
    calls = []

    def record(f, a, b, xtol, rtol):
        root = ode.brentq(f, a, b, xtol=xtol, rtol=rtol)
        calls.append((f, a, b, xtol, rtol, root))
        return root

    orig, prof.brentq = prof.brentq, record
    try:
        prof.peak_state(c, K)
    finally:
        prof.brentq = orig
    (call,) = calls
    return call


@pytest.mark.parametrize("eps, K", [(0.1, 1.0), (0.01, 1.0), (0.05, 0.5), (0.155, 1.0)])
def test_brentq_lands_within_xtol_of_scipys(eps, K):
    f, a, b, xtol, rtol, root = _peak_bracket(np.sqrt(1.0 + K) + eps, K)
    assert abs(root - scipy_brentq(f, a, b, xtol=xtol, rtol=rtol)) <= xtol


def test_brentq_refuses_a_bracket_without_a_sign_change_and_stops_at_maxiter():
    with pytest.raises(ValueError, match="different signs"):
        ode.brentq(lambda x: x * x + 1.0, -1.0, 2.0, xtol=1e-12, rtol=1e-15)
    with pytest.raises(RuntimeError, match="no convergence after 3 iterations"):
        ode.brentq(lambda x: x ** 3 - 2.0, 0.0, 2.0, xtol=1e-15, rtol=1e-15, maxiter=3)


def _coefficient_rows(p):
    """The knots and rows CoefficientCache fits, and the cache itself."""
    seen = {}

    def record(x, rows):
        seen["x"], seen["rows"] = x, rows
        return ode.CubicSpline(x, rows)

    orig, ev.CubicSpline = ev.CubicSpline, record
    try:
        cache = ev.CoefficientCache(p)
    finally:
        ev.CubicSpline = orig
    return seen["x"], seen["rows"], cache


@pytest.mark.parametrize("eps, N", [(0.1, 512), (0.05, 512), (0.1, 1024)])
def test_coefficient_spline_matches_scipys(eps, N):
    p = prof.profile_from_eps(eps, 1.0, Grid(L=40.0 / np.sqrt(eps), N=N))
    x, rows, cache = _coefficient_rows(p)
    ref = ScipyCubicSpline(x, rows, axis=1)
    assert np.array_equal(cache._spl.x, ref.x) and cache._spl.c.shape == ref.c.shape
    scale = np.max(np.abs(ref.c), axis=(0, 1))
    assert np.all(np.abs(cache._spl.c - ref.c) <= 1e-13 * scale)
    # at the Gauss points of the march, and at the knots themselves
    mesh, _ = ev._march_mesh(p, 1e-9)
    gauss = mesh[:-1, None] + np.diff(mesh)[:, None] * ev._GAUSS3
    for t in (gauss, x):
        want = np.moveaxis(ref(t), 0, -1)
        assert np.all(np.abs(cache._spl(t) - want) <= 1e-13 * np.max(np.abs(rows), axis=1))


def test_spline_matches_scipys_on_curved_rows():
    # the profile's rows are flat near both ends; these curve everywhere,
    # on jittered knots, with a repeated row, read inside and past the ends
    rng = np.random.default_rng(5)
    x = np.sort(np.linspace(-3.0, 4.0, 41) + rng.uniform(-0.03, 0.03, 41))
    rows = np.array([np.sin(2 * x), np.exp(x / 2), x ** 3 - x, np.sin(2 * x)])
    port, ref = ode.CubicSpline(x, rows), ScipyCubicSpline(x, rows, axis=1)
    scale = np.max(np.abs(ref.c), axis=(0, 1))
    assert np.all(np.abs(port.c - ref.c) <= 1e-13 * scale)
    t = np.concatenate([rng.uniform(-3.5, 4.5, 200), x])
    assert np.all(np.abs(port(t) - np.moveaxis(ref(t), 0, -1)) <= 1e-12 * scale)


def test_spline_refuses_knots_that_need_pivoting():
    # the second elimination step meets |d| = 2 < |dl| = 8
    x = np.array([0.0, 1.0, 2.0, 10.0, 11.0])
    with pytest.raises(ValueError, match="pivoting"):
        ode.CubicSpline(x, np.array([np.sin(x)]))
