import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epsoliton.grid import Grid, derivative
from epsoliton import profile as prof
from epsoliton.profile import default_grid


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

def test_build_profile_refuses_a_pseudopotential_read_as_not_positive():
    # at K = 3 and eps = 1e-4 phi* < 1e-3, so sagdeev_G takes its Taylor patch
    # at 0 up to the peak, where it reads about -1e-15 (max G is 5.6e-13):
    # the march stops at the first G <= 0 it reads, with the sign named
    with pytest.raises(RuntimeError, match=r"^pseudopotential not single-signed on \(0, phi\*\)$"):
        prof.profile_from_eps(1e-4, 3.0, Grid(20.0, 64))


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
    p = prof.profile_from_eps(0.1, 1.0, default_grid(0.1))
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


def test_default_grid_resolution_rule():
    for eps, N in ((0.02, 512), (0.05, 512), (0.1, 1024), (0.12, 2048)):
        g = default_grid(eps)
        assert g.N == N
        assert g.L == pytest.approx(40.0 / np.sqrt(eps))
        assert g.h <= 0.25 / np.sqrt(eps)   # never coarser than the width rule


def test_default_grid_rejects_unresolvable_eps():
    with pytest.raises(ValueError, match=r"eps=0\.15525.*N=131072"):
        default_grid(0.15525)
    with pytest.raises(ValueError):
        default_grid(0.16)   # past the existence edge
    with pytest.raises(ValueError, match="no root of the peak equation"):
        default_grid(0.172, L=60.0, N=256)   # looked at with L and N given too


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


def test_profile_nodes_are_the_fine_lines_every_FINE_th_point(p10, p05):
    for p in (p10, p05):
        nodes = np.array([p.n, p.u, p.phi, p.psi, p.dn, p.du])
        assert p.fine.shape == (6, prof.FINE * p.grid.N + 1)
        assert np.array_equal(nodes, p.fine[:, :-1:prof.FINE])


def test_profile_fine_line_exactly_even_and_odd(p10, p05):
    # rows n, u, phi even and psi, dn, du odd about the middle column x = 0
    for p in (p10, p05):
        assert np.array_equal(p.fine[:3, ::-1], p.fine[:3])
        assert np.array_equal(p.fine[3:, ::-1], -p.fine[3:])


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


def test_kdv_residual_scaling():
    # S_c - eps (1, V, 1) psi_KdV(sqrt(eps) x) is O(eps^2): halving eps
    # quarters it (2.0e-3 at eps = 0.02, 5.0e-4 at 0.01)
    r = {eps: prof.kdv_residual(prof.profile_from_eps(eps, 1.0, default_grid(eps)))
         for eps in (0.02, 0.01)}
    assert 3.5 < r[0.02] / r[0.01] < 4.5


# ------------------------------------------------------------ c-derivative

def test_profile_c_derivative_even_and_peak(p10):
    g = p10.grid
    dc = 1e-4
    xi2, _ = prof.profile_c_derivative(p10)
    for row in xi2:
        assert np.max(np.abs(row[1:] - row[1:][::-1])) < 1e-9
    np1, _, _ = prof.peak_state(p10.c + dc, 1.0)
    nm1, _, _ = prof.peak_state(p10.c - dc, 1.0)
    fd = (np1 - nm1) / (2 * dc)
    i0 = int(np.argmin(np.abs(g.x)))
    assert xi2[0][i0] == pytest.approx(fd, rel=1e-6)


def _central_difference_xi2(p, dc=1e-5):
    """Oracle: d/dc (n_c, u_c) by a central difference over two builds."""
    pp, pm = prof.build_profile(p.c + dc, p.K, p.grid), prof.build_profile(p.c - dc, p.K, p.grid)
    return np.array([pp.n - pm.n, pp.u - pm.u]) / (2 * dc)


@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_profile_c_derivative_matches_central_difference(eps, p05, p10):
    # default grids: N = 512 at eps = 0.05 and 1024 at 0.1; the difference
    # carries its own error of about 1e-8
    p = p05 if eps == 0.05 else p10
    xi2, rep = prof.profile_c_derivative(p)
    ref = _central_difference_xi2(p)
    assert np.max(np.abs(xi2 - ref)) <= 1e-7 * np.max(np.abs(ref))
    assert 0 < rep.iterations <= 20 and rep.residual < 1e-11


def test_profile_c_derivative_iterations_do_not_grow_with_N():
    # the preconditioner inverts the operator far from the wave exactly, so
    # refining the grid adds no iterations
    for N in (1024, 4096):
        p = prof.profile_from_eps(0.1, 1.0, Grid(40.0 / np.sqrt(0.1), N))
        _, rep = prof.profile_c_derivative(p)
        assert rep.iterations <= 20, (N, rep.iterations)


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


@pytest.mark.parametrize("eps", [0.01, 0.05, 0.1, 0.14])
def test_sagdeev_G_patches_meet_the_closed_form(eps):
    # at each switch sagdeev_G takes the closed form; the Taylor patch it
    # leaves must meet it (jumps 3.6e-10 to 6.7e-7, largest at the peak, 0.14)
    c = V2 + eps
    n_star, phi_star, _ = prof.peak_state(c, 1.0)
    G = lambda phi, t2: prof.sagdeev_G(phi, t2, c, 1.0, n_star, phi_star)
    closed = G(1e-3, phi_star - 1e-3)
    assert prof._G_taylor(1e-3, 0.0, 0.0, c, 1.0) == pytest.approx(closed, rel=2e-6)
    t2 = 3e-3 * phi_star
    closed = G(phi_star - t2, t2)
    assert prof._G_taylor(-t2, phi_star, n_star, c, 1.0) == pytest.approx(closed, rel=2e-6)
    # below the switch the peak patch reads the offset passed, not phi - phi*
    for t2 in phi_star * np.array([1e-12, 1e-6, 1e-4, 2.9e-3]):
        assert G(phi_star - t2, t2) == prof._G_taylor(-t2, phi_star, n_star, c, 1.0)



@pytest.mark.parametrize("eps, L, N", [(0.1, 40.0 / np.sqrt(0.1), 512),
                                     (0.05, 40.0 / np.sqrt(0.05), 512),
                                     (0.1, 80.0 / np.sqrt(0.1), 1024),
                                     (3e-4, 150.0, 18)])  # phi* < 1e-3: no closed form
def test_fine_line_is_bit_for_bit_the_scalar_pseudopotential(eps, L, N):
    # the psi column takes sagdeev_G's Taylor patch at 0 as one array call of
    # _G_taylor; its rows psi, dn, du on x > 0 are, bit for bit, those of a
    # sagdeev_G call per point (dn and du feed the Evans coefficients)
    p = prof.profile_from_eps(eps, 1.0, Grid(L, N))
    c, K = p.c, p.K
    n, _, phi, *odd = p.fine[:, prof.FINE * N // 2 + 1:]
    G = [prof.sagdeev_G(q, p.phi_star - q, c, K, p.n_star, p.phi_star) for q in phi]
    psi = -np.sqrt(np.maximum(2.0 * np.array(G), 0.0))
    psi[phi == 0.0] = 0.0
    dn = psi / prof.dH_dn(n, c, K)
    assert np.array_equal(np.array(odd), [psi, dn, c * dn / (1.0 + n) ** 2])


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
