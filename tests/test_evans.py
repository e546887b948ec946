"""Evans-function machinery: coefficients, dispersion, frames, Jost, Evans."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epsoliton import evans as ev
from epsoliton import profile as prof
from epsoliton.grid import Grid, derivative
from epsoliton.profile import default_grid


# -------------------------------------------------------- coefficient matrix

def test_coefficient_matrix_matches_A_infinity_in_tails(p10, cache10):
    lam = 0.3 + 0.2j
    Ainf = ev.A_infinity(lam, p10.c, p10.K)
    for xa in (-0.9 * p10.grid.L, 0.9 * p10.grid.L):
        A1, A2 = cache10.A1_A2(xa)
        A = A1 + lam * A2
        assert np.max(np.abs(A - Ainf)) < 1e-8


def test_A_infinity_entry_03(p10):
    Ainf = ev.A_infinity(0.1j, p10.c, p10.K)
    assert abs(Ainf[0, 3] - 0.7734895) < 1e-6
    assert abs(Ainf[0, 3] - 1.0 / (p10.c ** 2 - p10.K)) < 1e-14


def test_coefficient_matrix_at_lambda_zero_is_A1(p10, cache10):
    x = np.array([-3.0, 0.0, 2.5])
    A1, A2 = cache10.A1_A2(x)
    assert np.max(np.abs(A1 + 0.0 * A2 - A1)) == 0.0


def test_coefficient_matrix_subsonic_rejected(grid10):
    from epsoliton import profile as prof

    class Fake:
        pass

    p = prof.profile_from_eps(0.1, 1.0, grid10)
    f = Fake()
    f.c, f.K, f.grid = p.c, p.K, p.grid
    # u so large that (c-u)^2 - K <= 0 somewhere
    xf = np.linspace(-p.grid.L, p.grid.L, p.fine.shape[1])
    f.fine = p.fine.copy()
    f.fine[1] = (p.c - 0.5 * np.sqrt(p.K)) * np.exp(-xf ** 2)
    with pytest.raises(ValueError):
        ev.CoefficientCache(f)


def test_coefficient_spline_data_are_the_fine_line(p10, cache10):
    # the cache's knots are the profile's fine line and its data the rows
    # formed from p.fine, not values interpolated between profile samples
    n, u, phi, _, dn, du = p10.fine
    c, K = p10.c, p10.K
    J = (c - u) ** 2 - K
    g = p10.grid
    assert np.array_equal(cache10._spl.x, np.linspace(-g.L, g.L, prof.FINE * g.N + 1))
    const = cache10._spl.c[3]   # the value at each knot but the last
    assert np.array_equal(const[:, 2], ((1.0 + n) / J)[:-1])
    assert np.array_equal(const[:, 6], np.exp(phi)[:-1])
    assert np.array_equal(const[:, 0], ((c - u) * du / J - K * dn / (J * (1.0 + n)))[:-1])


# --------------------------------------------------------------- dispersion

def test_mu4_closed_value(p10):
    assert abs(ev.mu4_at_zero(p10.c, p10.K) - 0.4759312) < 1e-6


def test_dispersion_roots_at_zero(p10):
    mu = ev.dispersion_roots(0.0, p10.c, p10.K)
    assert mu == -ev.mu4_at_zero(p10.c, p10.K)
    assert isinstance(mu, np.complex128)


def test_dispersion_small_lambda_asymptotics(p10):
    # the two near-zero roots of the quartic are lam/(c + V) and lam/(c - V)
    c, K = p10.c, p10.K
    V = np.sqrt(1.0 + K)
    lam = 1e-3 * np.exp(0.4j)
    roots = ev._quartic_roots(lam, c, K)
    for ref in (lam / (c + V), lam / (c - V)):
        assert np.min(np.abs(roots - ref)) < 0.01 * abs(ref)


def test_dispersion_left_half_plane_rejected(p10):
    with pytest.raises(ValueError, match=r"lambda = -0\.1\+0j is not in"):
        ev.dispersion_roots(-0.1, p10.c, p10.K)


def test_dispersion_sum_rule_violation_names_lambda(p10, monkeypatch):
    quartic = ev._quartic_roots
    monkeypatch.setattr(ev, "_quartic_roots", lambda *a: quartic(*a) + 1e-3)
    with pytest.raises(RuntimeError, match=r"^dispersion_roots: sum rule violated by "
                                           r"4\.00e-03 at lambda = 0\.3\+0\.2j$"):
        ev.dispersion_roots(0.3 + 0.2j, p10.c, p10.K)


def test_dispersion_two_decaying_roots_name_lambda(p10, monkeypatch):
    # move the second root into the left half-plane and the last one right by
    # as much, which keeps the sum rule
    quartic = ev._quartic_roots

    def two_decaying(*a):
        roots = quartic(*a)
        roots = roots[np.argsort(roots.real)]
        shift = roots[1].real + 1.0
        return roots + np.array([0.0, -shift, 0.0, shift])

    monkeypatch.setattr(ev, "_quartic_roots", two_decaying)
    with pytest.raises(RuntimeError, match=r"^dispersion_roots: no unique decaying root "
                                           r"at lambda = 0\.3\+0\.2j$"):
        ev.dispersion_roots(0.3 + 0.2j, p10.c, p10.K)


def test_jost_overflow_names_lambda():
    # of a batch of marches, the error names the lambdas whose march overflowed
    E = np.stack([np.eye(4), 1e3 * np.eye(4)])[:, None].repeat(8, axis=1)
    with pytest.raises(RuntimeError, match=r"overflow at lambda = 0\+2j$"):
        ev._sweep(E, np.ones((2, 4)), 8, np.array([1j, 2j]))


@settings(max_examples=30, deadline=None)
@given(re=st.floats(0.0, 2.0), im=st.floats(-2.0, 2.0))
def test_dispersion_sum_rule(re, im):
    c, K = np.sqrt(2.0) + 0.1, 1.0
    lam = complex(re, im)
    if abs(lam) < 1e-6:
        return
    roots = ev._quartic_roots(lam, c, K)
    # each is a quartic root
    dd = c * c - K
    for mu in roots:
        r = dd * mu ** 4 - 2 * c * lam * mu ** 3 + (lam * lam - dd + 1) * mu ** 2 \
            + 2 * c * lam * mu - lam * lam
        assert abs(r) < 1e-8 * max(1.0, abs(lam) ** 2)
    assert abs(np.sum(roots) - 2 * c * lam / dd) < 1e-9 * max(1.0, abs(lam))
    # mu_1 is one of them, and the only one in the open left half-plane
    mu1 = ev.dispersion_roots(lam, c, K)
    j = np.argmin(np.abs(roots - mu1))
    assert abs(roots[j] - mu1) < 1e-12 * max(1.0, abs(lam))
    assert mu1.real < 0
    assert np.all(np.delete(roots, j).real >= -1e-9)


def test_eigen_frames_eigen_relation(p10):
    lam = 0.3 + 0.2j
    mu, v, w = ev.asymptotic_data(lam, p10.c, p10.K)
    A = ev.A_infinity(lam, p10.c, p10.K)
    assert np.max(np.abs(A @ v - mu * v)) < 1e-10
    assert np.max(np.abs(w @ A - mu * w)) < 1e-10


def test_eigen_frames_biorthogonal(p10):
    _, v, w = ev.asymptotic_data(0.25 + 0.15j, p10.c, p10.K)
    assert abs(np.sum(w * v) - 1.0) < 1e-14     # bilinear pairing, no conjugation


def test_eigen_frames_closed_form_at_zero(p10):
    mu, v, _ = ev.asymptotic_data(0.0, p10.c, p10.K)
    mu4 = ev.mu4_at_zero(p10.c, p10.K)
    ref = np.array([1.0, p10.c, 1.0 / (1 - mu4 ** 2), -mu4 / (1 - mu4 ** 2)])
    assert mu == -mu4
    assert np.max(np.abs(v - ref)) < 1e-12


# --------------------------------------------------------------------- Jost

class _FreeCache:
    """Constant coefficients A(x, lam) = A_infinity: zero potential."""

    def __init__(self, c, K):
        self.evaluations = 0
        self._A1 = ev.A_infinity(0.0, c, K).real
        self._A2 = (ev.A_infinity(1.0, c, K) - ev.A_infinity(0.0, c, K)).real

    def A1_A2(self, x):
        shp = np.shape(np.asarray(x, dtype=float))
        A1 = np.broadcast_to(self._A1, shp + (4, 4)).copy()
        A2 = np.broadcast_to(self._A2, shp + (4, 4)).copy()
        return A1, A2


def test_march_constant_for_zero_potential(p10):
    # constant coefficients: each Magnus step is exp(-(A_inf - mu_1) h), m_1
    # stays v_1 and n_1 stays w_1, so D = <v_1, w_1> = 1
    cache = _FreeCache(p10.c, p10.K)
    for lam in _PROBE_LAMS:
        assert abs(ev.evans(lam, p10, cache) - 1.0) <= 1e-12, lam


def test_xi_big_solves_lambda_zero_system(p05):
    cache = ev.CoefficientCache(p05)
    X = ev.xi_big(p05)
    A1, _ = cache.A1_A2(p05.grid.x)
    lhs = np.array([derivative(X[k], p05.grid) for k in range(4)])
    rhs = np.einsum("kij,jk->ik", A1, X)
    scale = np.max(np.abs(X))
    assert np.max(np.abs(lhs - rhs)) < 1e-4 * scale


# -------------------------------------------------------------------- Evans

def test_evans_conjugation_symmetry(p10, cache10):
    # the march mesh does not depend on lambda and the roots at conj(lambda)
    # are taken as conjugates, so the symmetry holds to roundoff
    for lam in (0.3 + 0.2j, 0.51j):
        D = ev.evans(lam, p10, cache10)
        Dc = ev.evans(np.conj(lam), p10, cache10)
        assert abs(Dc - np.conj(D)) <= 1e-13 * abs(D)


def test_evans_on_an_array_is_a_loop_of_scalar_calls(p10, cache10):
    # the mesh and coefficients are shared and the marches batched, but each
    # lambda's D (and spread) is bit for bit that of a call at it alone, also
    # where the marches stop at the middle station
    lams = np.array([0.0, 0.51j, -0.51j, 1e-3j, 0.3 + 0.2j, 1.5])
    for rtol in (1e-9, 1e-11):
        D = ev.evans(lams, p10, cache10, rtol=rtol)
        assert D.shape == lams.shape
        assert np.array_equal(D, [ev.evans(z, p10, cache10, rtol=rtol) for z in lams])
        Ds, spread = ev.evans(lams, p10, cache10, rtol=rtol, return_spread=True)
        loop = [ev.evans(z, p10, cache10, rtol=rtol, return_spread=True) for z in lams]
        assert np.array_equal(Ds, [d for d, _ in loop])
        assert np.array_equal(spread, [s for _, s in loop])
        # stopping at the middle station changes no bit of D
        assert np.array_equal(Ds, D)


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_evans_conjugate_is_exact_at_stencil_points(eps, p10, cache10):
    # evans_derivs_at0 takes D(-i tau) = conj D(i tau) without marching it
    if eps == 0.1:
        p, cache = p10, cache10
    else:
        p = prof.profile_from_eps(eps, 1.0, default_grid(eps, 1.0))
        cache = ev.CoefficientCache(p)
    d = ev._DLAM * min(1, (p.eps / 0.1) ** 1.5)
    for tau in (d / 2, d, 2 * d):
        D = ev.evans(1j * tau, p, cache, rtol=1e-11)
        assert ev.evans(-1j * tau, p, cache, rtol=1e-11) == np.conj(D), tau


def test_evans_pairing_x_independent(p10, cache10):
    D, spread = ev.evans(0.3 + 0.2j, p10, cache10, rtol=1e-12,
                         return_spread=True)
    assert abs(D) > 0
    assert spread < 1e-8


_PROBE_LAMS = [0.02j, 0.51j, 1.0j, 0.3 + 0.2j]


def _perturbed_cache(p, rel, seed=3):
    """A coefficient cache whose spline coefficients carry relative noise."""
    cache = ev.CoefficientCache(p)
    spl = cache._spl
    noise = np.random.default_rng(seed).standard_normal(spl.c.shape)
    spl.c[...] = spl.c * (1.0 + rel * noise)
    return cache


def test_evans_spread_at_roundoff(p10, cache10):
    # f_1 and g_1 are marched over one mesh with exp(-Omega_k) and its
    # transpose, so the pairing is conserved to roundoff; the adaptive march
    # it replaced left a spread between 4e-7 and 1.5e-6 that 1e-12 noise in
    # the spline coefficients reshuffled
    noisy = _perturbed_cache(p10, 1e-12)
    for cache in (cache10, noisy):
        for lam in _PROBE_LAMS:
            _, spread = ev.evans(lam, p10, cache, rtol=1e-9, return_spread=True)
            assert spread <= 1e-12, (lam, spread)


def _dop853_evans(lam, p, cache, rtol=1e-12):
    """Oracle: f_1 and g_1 by adaptive DOP853 marches, paired at x = 0."""
    from scipy.integrate import solve_ivp
    mu, v, w = ev.asymptotic_data(lam, p.c, p.K)
    xa = 0.9 * p.grid.L

    def march(rhs, x_from, y0):
        sol = solve_ivp(rhs, (x_from, 0.0), np.asarray(y0, dtype=complex),
                        rtol=rtol, atol=1e-14, method="DOP853")
        assert sol.success
        return sol.y[:, -1]

    def A(x):
        A1, A2 = cache.A1_A2(x)
        return A1 + lam * A2

    m1 = march(lambda x, y: A(x) @ y - mu * y, xa, v)
    n1 = march(lambda x, y: mu * y - A(x).T @ y, -xa, w)
    return np.sum(m1 * n1)


def test_evans_matches_adaptive_oracle(p10, cache10):
    for lam in _PROBE_LAMS:
        D = ev.evans(lam, p10, cache10, rtol=1e-9)   # the scans' setting
        ref = _dop853_evans(lam, p10, cache10)
        assert abs(D - ref) <= 1e-7 * abs(ref), (lam, abs(D - ref) / abs(ref))


def test_magnus_march_is_sixth_order(p10, cache10):
    # rtol sets the step as rtol^(1/6): each factor 100 in rtol should cut
    # the error by about 100
    lam = 0.3 + 0.2j
    ref = ev.evans(lam, p10, cache10, rtol=1e-14)
    errs = [abs(ev.evans(lam, p10, cache10, rtol=r) - ref) for r in (1e-7, 1e-9)]
    assert 30.0 < errs[0] / errs[1] < 300.0
    assert errs[1] < 1e-8 * abs(ref)


@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_batched_expm_matches_scipy(eps, p05, p10, cache10):
    from scipy.linalg import expm
    p = p10 if eps == 0.1 else p05
    cache = cache10 if eps == 0.1 else ev.CoefficientCache(p05)
    mesh, _ = ev._march_mesh(p, 1e-9)
    h, A1, A2 = ev._step_coefficients(cache, mesh)
    for lam in (0.5j, 1e-3j, -0.8j, 0.3 + 0.7j, 1.5):
        mu = ev.dispersion_roots(lam, p.c, p.K)
        omega = -ev._magnus_exponents(h, A1, A2, lam, mu)
        # the graded tail steps exceed the Pade-13 bound and are scaled
        assert np.max(np.abs(omega).sum(axis=1).max(axis=1)) > 4 * ev._THETA13
        E = ev._expm(omega)
        ref = np.array([expm(w) for w in omega])
        err = np.max(np.abs(E - ref), axis=(1, 2)) / np.max(np.abs(ref), axis=(1, 2))
        assert np.max(err) <= 1e-13, (lam, np.max(err))


def test_dispersion_roots_match_np_roots(p05, p10):
    # mu_1 is the root of least real part of np.roots' companion solve; on
    # the imaginary axis mu_2 and mu_3 come back with real parts of either
    # sign, up to 2e-14 in size, while Re mu_1 stays well below zero
    taus = np.linspace(-20.0, 20.0, 40)      # skips tau = 0
    lams = [1e-3j, 0.02j, 0.5j, 0.3 + 0.7j, 1.5, 1e-5 + 2j, 12.0 - 9.0j,
            *(1j * taus)]
    for p in (p05, p10):
        c, K = p.c, p.K
        d = c * c - K
        for lam in lams:
            roots = np.roots([d, -2 * c * lam, lam * lam - d + 1.0, 2 * c * lam,
                              -lam * lam])
            ref = roots[np.argmin(roots.real)]
            got = ev.dispersion_roots(lam, c, K)
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(lam)), lam


def test_jost_mesh_holds_stations_and_grades_tails(p10):
    xa = 0.9 * p10.grid.L
    mesh, at = ev._march_mesh(p10, 1e-9)
    assert np.array_equal(mesh[at], np.linspace(-xa, xa, 7))
    h = np.diff(mesh)
    assert np.all(h > 0)
    core = np.abs(mesh[:-1]) < 2.0
    assert np.max(h[core]) <= 0.1 + 1e-12
    assert np.max(h) > 10 * np.max(h[core])     # graded tails


def test_evans_scan_segment_and_rectangle(p10, cache10):
    taus = np.linspace(0.1, 0.3, 5)
    scan = ev.evans_scan(1j * taus, p10, cache10, closed=False)
    assert scan.min_modulus > 0
    assert scan.winding is None
    pts = ev.rectangle_contour(0.1, 0.5, -0.3, 0.3, n_per_side=8)
    assert len(pts) == 32
    # corners present
    assert np.min(np.abs(pts - (0.1 - 0.3j))) < 1e-14
    # D has no zero off the origin in the closed right half-plane
    ring = ev.evans_scan(pts, p10, cache10, closed=True)
    assert ring.winding == 0
    assert ring.min_modulus > 0.1


def test_evans_scan_refines_between_samples_in_place():
    # at eps = 0.1 the phase of D turns by more than pi/2 across each gap of
    # 0.02i, 2i, 4i, 6i, and across the way back from 6i to 0.02i; each
    # midpoint goes in after the first point of its pair, so on the closed
    # contour the back pair's midpoints come last
    p = prof.profile_from_eps(0.1, 1.0, Grid(40 / np.sqrt(0.1), 512))
    cache = ev.CoefficientCache(p)
    pts = 1j * np.array([0.02, 2.0, 4.0, 6.0])
    seg = ev.evans_scan(pts, p, cache, closed=False)
    ring = ev.evans_scan(pts, p, cache, closed=True)
    assert len(seg.lam) == 7 and len(ring.lam) == 11
    assert np.allclose(ring.lam[-4:], 1j * np.array([3.01, 1.515, 0.7675, 0.39375]),
                       rtol=1e-15, atol=0.0)
    for scan, closed in ((seg, False), (ring, True)):
        assert np.array_equal(scan.lam[np.isin(scan.lam, pts)], pts)
        assert np.array_equal(scan.D, ev.evans(scan.lam, p, cache, rtol=1e-9))
        ends = np.append(scan.D, scan.D[:1]) if closed else scan.D
        assert np.all(np.abs(np.angle(ends[1:] / ends[:-1])) <= np.pi / 2)


def test_double_zero_at_origin_near_kdv_limit():
    # D varies in lambda on the scale eps^{3/2}, and so does the stencil step
    # below eps = 0.1; a fixed step read |D'(0)| = 2.5 against
    # |D''(0)| = 4.6e4 at eps = 0.01, and its two stencils disagreed
    p = prof.profile_from_eps(0.01, 1.0, default_grid(0.01, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        D0, D1, D2 = ev.evans_derivs_at0(p, ev.CoefficientCache(p))
    assert abs(D0) < 1e-6 * abs(D2) and abs(D1) < 1e-6 * abs(D2)
