import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epsoliton.grid import default_grid, derivative
from epsoliton import profile as prof


V2 = np.sqrt(2.0)  # sonic speed at K = 1


# ------------------------------------------------------------ peak_state

def test_peak_state_kdv_leading_order():
    # remainder is O(eps^2): bounded at eps = 0.01 and quartering under eps/2
    d = {}
    for eps in (0.01, 0.005):
        n_star, _, _ = prof.peak_state(V2 + eps, 1.0)
        d[eps] = abs(n_star - 3 * eps / V2)
    assert d[0.01] < 5e-4
    assert 3.0 < d[0.01] / d[0.005] < 5.0


def test_peak_state_defining_residual():
    c = V2 + 0.05
    n_star, phi_star, u_star = prof.peak_state(c, 1.0)
    res = prof.g_existence(n_star, c, 1.0) - (c ** 2 + 1.0 + 1.0)
    assert abs(res) < 1e-12
    assert phi_star == pytest.approx(prof.H(n_star, c, 1.0), rel=1e-12)
    assert u_star == pytest.approx(c * n_star / (1 + n_star), rel=1e-12)


def test_peak_state_sonic_rejected():
    with pytest.raises(ValueError):
        prof.peak_state(V2, 1.0)


def test_peak_state_last_genuine_peak_near_edge():
    n_star, phi_star, _ = prof.peak_state(V2 + 0.155, 1.0)
    assert n_star == pytest.approx(0.5529, abs=1e-4)
    assert 1.0 + n_star - np.exp(phi_star) > 0.0


@pytest.mark.parametrize("eps", [0.1553, 0.3, 50.0])
def test_peak_state_rejects_past_existence_edge(eps):
    # the scan's last sign change used to sit in its first interval, and
    # brentq returned the trivial root n* = 1e-12 (a flat "profile")
    with pytest.raises(ValueError, match="existence edge"):
        prof.peak_state(V2 + eps, 1.0)


# ------------------------------------------------------------ build_profile

def test_profile_poisson_residual(p10, p05):
    # both spectrally resolved on their default grids
    assert p05.poisson_residual < 1e-8
    assert p10.poisson_residual < 1e-8


def test_build_profile_quadrature_is_cheap(monkeypatch):
    # the turning-point patch takes the offset -t^2 itself: forming
    # phi* - t^2 and subtracting phi* again made DOP853 fight 1e-4 relative
    # noise near the seed (295k right-hand-side calls at eps = 0.1)
    nfev = []
    orig = prof.solve_ivp

    def counted(*args, **kwargs):
        sol = orig(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(prof, "solve_ivp", counted)
    p = prof.profile_from_eps(0.1, 1.0)
    assert len(nfev) >= 2 and sum(nfev) < 5000
    assert p.poisson_residual < 1e-8


@pytest.mark.parametrize("eps", [0.02, 0.05, 0.1])
def test_default_grid_resolves_profile(eps, request):
    # default_grid's N follows the sonic branch point, not the eps^{-1/2}
    # width: at eps = 0.1, N = 512 left a residual of 2.7e-6
    built = {0.05: "p05", 0.1: "p10"}
    if eps in built:
        p = request.getfixturevalue(built[eps])
    else:
        p = prof.profile_from_eps(eps, 1.0, default_grid(eps))
    assert p.poisson_residual < 1e-8


def test_sonic_branch_distance_shrinks_toward_edge():
    d = [prof.sonic_branch_distance(V2 + eps, 1.0) for eps in (0.02, 0.05, 0.1, 0.15)]
    assert all(a > b > 0 for a, b in zip(d, d[1:]))
    # KdV limit: the sech^2 poles sit at i pi / (2 kappa), kappa = sqrt(V eps / 2)
    kdv = np.pi / (2 * np.sqrt(V2 * 0.02 / 2))
    assert abs(d[0] - kdv) / kdv < 0.1


def test_profile_peak_and_evenness(p10):
    g = p10.grid
    i0 = int(np.argmin(np.abs(g.x)))
    assert p10.phi[i0] == pytest.approx(p10.phi_star, abs=1e-13)
    for f in (p10.n, p10.u, p10.phi):
        assert np.max(np.abs(f[1:] - f[1:][::-1])) < 1e-13


def test_profile_reduction_identities(p10):
    c, K = p10.c, p10.K
    mass = c * p10.n - (1 + p10.n) * p10.u
    mom = -c * p10.u + p10.u ** 2 / 2 + K * np.log1p(p10.n) + p10.phi
    assert np.max(np.abs(mass)) < 1e-10
    assert np.max(np.abs(mom)) < 1e-10


def test_profile_monotone_decrease(p10):
    g = p10.grid
    right = g.x > 0
    for f in (p10.n, p10.u, p10.phi):
        d = np.diff(f[right])
        assert np.all(d <= 1e-12)


def test_profile_positive_and_decayed(p10):
    assert np.all(1 + p10.n > 0)
    assert np.min(p10.n) >= 0.0
    assert abs(p10.n[0]) < 1e-10  # tail at the boundary


def test_profile_derivatives_consistent(p10):
    g = p10.grid
    # ODE-exact nodal derivative vs spectral derivative of the node values
    assert np.max(np.abs(derivative(p10.n, g) - p10.dn)) < 1e-4
    assert np.max(np.abs(derivative(p10.phi, g) - p10.psi)) < 1e-4


# ------------------------------------------------------------ KdV reference

def test_kdv_reference_peak():
    assert prof.psi_kdv(0.0, 1.0) == pytest.approx(3.0 / V2, rel=1e-12)


def test_kdv_profile_equation():
    from epsoliton.grid import Grid
    g = Grid(L=20.0, N=1024)  # psi_kdv is O(1)-wide; needs a fine grid
    psi = prof.psi_kdv(g.x, 1.0)
    res = -1 / (2 * V2) * derivative(psi, g, 2) + psi - V2 * psi ** 2 / 2
    assert np.max(np.abs(res)) < 1e-8


def test_kdv_reference_tail():
    g = default_grid(0.05)
    x = 30.0 / np.sqrt(V2)
    assert abs(prof.psi_kdv(x, 1.0)) < 1e-10


def test_kdv_residual_self_zero():
    g = default_grid(0.05)
    ref = prof.kdv_reference(0.05, 1.0, g)

    class Fake:
        pass

    f = Fake()
    f.grid, f.K, f.eps = g, 1.0, 0.05
    f.n, f.u, f.phi = ref
    assert prof.kdv_residual(f) == 0.0


# ------------------------------------------------------------ c-derivative

def test_profile_c_derivative_even_and_peak(p10):
    g = p10.grid
    dc = 1e-4
    out = prof.profile_c_derivative(p10.c, 1.0, g, dc=dc)
    xi2 = out["xi2"]
    for row in xi2:
        assert np.max(np.abs(row[1:] - row[1:][::-1])) < 1e-9
    np1, _, _ = prof.peak_state(p10.c + dc, 1.0)
    nm1, _, _ = prof.peak_state(p10.c - dc, 1.0)
    fd = (np1 - nm1) / (2 * dc)
    i0 = int(np.argmin(np.abs(g.x)))
    assert xi2[0][i0] == pytest.approx(fd, rel=1e-6)


# ------------------------------------------------------------ tail rate

def test_tail_rate_matches_mu4(p10):
    rate = prof.tail_rate_check(p10)
    mu4 = prof.mu4_at_zero(p10.c, 1.0)
    assert abs(rate - mu4) / mu4 < 0.02


def test_mu4_closed_form_value():
    c = V2 + 0.1
    assert prof.mu4_at_zero(c, 1.0) == pytest.approx(0.4759312, abs=1e-6)


def test_mu4_kdv_limit():
    for eps in (1e-3, 1e-4):
        mu = prof.mu4_at_zero(V2 + eps, 1.0)
        assert abs(mu - np.sqrt(2 * V2 * eps)) / mu < 10 * eps


# ------------------------------------------------------------ properties

@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-4, max_value=0.99))
def test_invert_H_round_trip(frac):
    c = V2 + 0.08
    n_star, phi_star, _ = prof.peak_state(c, 1.0)
    n = frac * n_star
    phi = prof.H(n, c, 1.0)
    back = prof.invert_H(np.array([phi]), c, 1.0, n_star)[0]
    assert abs(back - n) < 1e-10 * max(1.0, n_star)
