"""Evans-function machinery: coefficients, dispersion, frames, Jost, resolvent."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epsoliton import evans as ev
from epsoliton.grid import derivative


# -------------------------------------------------------- coefficient matrix

def test_coefficient_matrix_matches_A_infinity_in_tails(p10, cache10):
    lam = 0.3 + 0.2j
    Ainf = ev.A_infinity(lam, p10.c, p10.K)
    for xa in (-0.9 * p10.grid.L, 0.9 * p10.grid.L):
        A = ev.coefficient_matrix(xa, lam, p10, cache10)
        assert np.max(np.abs(A - Ainf)) < 1e-8


def test_A_infinity_entry_03(p10):
    Ainf = ev.A_infinity(0.1j, p10.c, p10.K)
    assert abs(Ainf[0, 3] - 0.7734895) < 1e-6
    assert abs(Ainf[0, 3] - 1.0 / (p10.c ** 2 - p10.K)) < 1e-14


def test_coefficient_matrix_at_lambda_zero_is_A1(p10, cache10):
    x = np.array([-3.0, 0.0, 2.5])
    A1, _ = cache10.A1_A2(x)
    assert np.max(np.abs(cache10.A(x, 0.0) - A1)) == 0.0


def test_coefficient_matrix_subsonic_rejected(grid10):
    from epsoliton import profile as prof

    class Fake:
        pass

    p = prof.profile_from_eps(0.1, 1.0, grid10)
    f = Fake()
    f.c, f.K, f.grid = p.c, p.K, p.grid
    # u so large that (c-u)^2 - K <= 0 somewhere
    f.at = lambda x, name: (p.c - 0.5 * np.sqrt(p.K)) * np.exp(-np.asarray(x) ** 2) \
        if name == "u" else p.at(x, name)
    with pytest.raises(ValueError):
        ev.CoefficientCache(f)


def test_lc_inv_apply_inverts(p10, cache10):
    x = p10.grid.x
    F1 = np.exp(-x ** 2 / 9)
    F2 = np.tanh(x) * np.exp(-x ** 2 / 16)
    G1, G2 = cache10.Lc_inv_apply(x, F1, F2)
    u, n = p10.u, p10.n
    r1 = (u - p10.c) * G1 + (1.0 + n) * G2 - F1
    r2 = p10.K / (1.0 + n) * G1 + (u - p10.c) * G2 - F2
    assert max(np.max(np.abs(r1)), np.max(np.abs(r2))) < 1e-12


# --------------------------------------------------------------- dispersion

def test_mu4_closed_value(p10):
    assert abs(ev.mu4_closed(p10.c, p10.K) - 0.4759312) < 1e-6


def test_dispersion_roots_at_zero(p10):
    d = ev.dispersion_roots(0.0, p10.c, p10.K)
    mu4 = ev.mu4_closed(p10.c, p10.K)
    assert np.allclose(d.mus, [-mu4, 0.0, 0.0, mu4])


def test_dispersion_small_lambda_asymptotics(p10):
    c, K = p10.c, p10.K
    V = np.sqrt(1.0 + K)
    lam = 1e-3 * np.exp(0.4j)
    d = ev.dispersion_roots(lam, c, K)
    assert abs(d.mus[1] - lam / (c + V)) < 0.01 * abs(lam / (c + V))
    assert abs(d.mus[2] - lam / (c - V)) < 0.01 * abs(lam / (c - V))


def test_dispersion_left_half_plane_rejected(p10):
    with pytest.raises(ValueError):
        ev.dispersion_roots(-0.1, p10.c, p10.K)


@settings(max_examples=30, deadline=None)
@given(re=st.floats(0.0, 2.0), im=st.floats(-2.0, 2.0))
def test_dispersion_sum_rule(re, im):
    c, K = np.sqrt(2.0) + 0.1, 1.0
    lam = complex(re, im)
    if abs(lam) < 1e-6:
        return
    d = ev.dispersion_roots(lam, c, K)
    # each mu is a quartic root
    dd = c * c - K
    for mu in d.mus:
        r = dd * mu ** 4 - 2 * c * lam * mu ** 3 + (lam * lam - dd + 1) * mu ** 2 \
            + 2 * c * lam * mu - lam * lam
        assert abs(r) < 1e-8 * max(1.0, abs(lam) ** 2)
    assert abs(np.sum(d.mus) - 2 * c * lam / dd) < 1e-9 * max(1.0, abs(lam))


def test_eigen_frames_eigen_relation(p10):
    lam = 0.3 + 0.2j
    d = ev.asymptotic_data(lam, p10.c, p10.K)
    A = ev.A_infinity(lam, p10.c, p10.K)
    for j in range(4):
        v = d.vs[:, j]
        assert np.max(np.abs(A @ v - d.mus[j] * v)) < 1e-10


def test_eigen_frames_biorthogonal(p10):
    d = ev.asymptotic_data(0.25 + 0.15j, p10.c, p10.K)
    G = d.ws.T @ d.vs          # bilinear pairing, no conjugation
    assert np.max(np.abs(G - np.eye(4))) < 1e-10


def test_eigen_frames_degenerate_at_zero(p10):
    d = ev.eigen_frames(ev.dispersion_roots(0.0, p10.c, p10.K))
    assert list(d.degenerate) == [False, True, True, False]
    v4 = d.vs[:, 3]
    mu = d.mus[3].real
    ref = np.array([1.0, p10.c, 1.0 / (1 - mu ** 2), mu / (1 - mu ** 2)])
    assert np.max(np.abs(v4 - ref)) < 1e-12


# --------------------------------------------------------------------- Jost

class _FreeCache:
    """Constant coefficients A(x, lam) = A_infinity: zero potential."""

    def __init__(self, c, K):
        self.c, self.K = c, K
        self._A1 = ev.A_infinity(0.0, c, K).real
        self._A2 = (ev.A_infinity(1.0, c, K) - ev.A_infinity(0.0, c, K)).real

    def A1_A2(self, x):
        shp = np.shape(np.asarray(x, dtype=float))
        A1 = np.broadcast_to(self._A1, shp + (4, 4)).copy()
        A2 = np.broadcast_to(self._A2, shp + (4, 4)).copy()
        return A1, A2

    def A(self, x, lam):
        A1, A2 = self.A1_A2(x)
        return A1 + lam * A2


def test_march_constant_for_zero_potential(p10):
    lam = 0.3 + 0.2j
    cache = _FreeCache(p10.c, p10.K)
    d = ev.asymptotic_data(lam, p10.c, p10.K)
    xe = np.linspace(-20.0, 20.0, 9)
    m = ev._march(cache, lam, d.mus[3], d.vs[:, 3], -25.0, 25.0, xe)
    assert np.max(np.abs(m - d.vs[:, 3][:, None])) < 1e-8


def test_jost_f_matches_frame_in_tail(p05):
    lam = 0.3 + 0.2j
    cache = ev.CoefficientCache(p05)
    d = ev.asymptotic_data(lam, p05.c, p05.K)
    xa = 0.9 * p05.grid.L
    f4 = ev.jost_f(4, lam, p05, cache, x_eval=np.array([-xa, 0.0]))
    assert np.max(np.abs(f4.m[:, 0] - d.vs[:, 3])) < 1e-10   # anchor value
    f1 = ev.jost_f(1, lam, p05, cache, x_eval=np.array([0.0, xa]))
    assert np.max(np.abs(f1.m[:, 1] - d.vs[:, 0])) < 1e-10


def test_jost_f_invalid_branch(p10, cache10):
    with pytest.raises(ValueError):
        ev.jost_f(2, 0.1j, p10, cache10)


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
    data = ev.asymptotic_data(lam, p.c, p.K)
    mu = data.mus[0]
    xa = 0.9 * p.grid.L

    def march(rhs, x_from, y0):
        sol = solve_ivp(rhs, (x_from, 0.0), np.asarray(y0, dtype=complex),
                        rtol=rtol, atol=1e-14, method="DOP853")
        assert sol.success
        return sol.y[:, -1]

    m1 = march(lambda x, y: cache.A(x, lam) @ y - mu * y, xa, data.vs[:, 0])
    n1 = march(lambda x, y: mu * y - cache.A(x, lam).T @ y, -xa, data.ws[:, 0])
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


def test_jost_mesh_holds_stations_and_grades_tails(p10):
    xa = 0.9 * p10.grid.L
    st = np.linspace(-xa, xa, 7)
    mesh = ev._jost_mesh(p10.c, p10.K, -xa, xa, st, 1e-9)
    assert np.all(np.isin(st, mesh))
    h = np.diff(mesh)
    assert np.all(h > 0)
    core = np.abs(mesh[:-1]) < 2.0
    assert np.max(h[core]) <= 0.1 + 1e-12
    assert np.max(h) > 10 * np.max(h[core])     # graded tails
    with pytest.raises(ValueError):
        ev._jost_mesh(p10.c, p10.K, -xa, xa, [xa + 1.0], 1e-9)


def test_evans_scan_segment_and_rectangle(p10, cache10):
    taus = np.linspace(0.1, 0.3, 5)
    scan = ev.evans_scan(1j * taus, p10, cache10, closed=False)
    assert scan.min_modulus > 0
    assert scan.winding is None
    pts = ev.rectangle_contour(0.1, 0.5, -0.3, 0.3, n_per_side=8)
    assert len(pts) == 32
    # corners present
    assert np.min(np.abs(pts - (0.1 - 0.3j))) < 1e-14


# ---------------------------------------------------------------- resolvent

def test_resolvent_rejects_small_lambda(p10, cache10):
    x = p10.grid.x
    F = np.exp(-x ** 2 / 25)
    with pytest.raises(ValueError):
        ev.resolvent_apply(1e-4, F, F, p10, cache10)


def test_resolvent_zero_data(p10, cache10):
    z = np.zeros(p10.grid.N)
    U, xs = ev.resolvent_apply(0.3 + 0.2j, z, z, p10, cache10, refine=2)
    assert np.max(np.abs(U)) == 0.0
    assert xs[0] < 0 < xs[-1]


def test_resolvent_linear(p10, cache10):
    x = p10.grid.x
    F1 = np.exp(-(x - 30.0) ** 2 / 25)
    F2 = np.exp(-(x - 35.0) ** 2 / 16)
    U1, _ = ev.resolvent_apply(0.3 + 0.2j, F1, F2, p10, cache10, refine=2)
    U2, _ = ev.resolvent_apply(0.3 + 0.2j, 2 * F1, 2 * F2, p10, cache10,
                               refine=2)
    assert np.max(np.abs(U2 - 2 * U1)) < 1e-9 * np.max(np.abs(U1))


def test_resolvent_periodic_embedding(p10, cache10):
    x = p10.grid.x
    F = np.exp(-(x - 30.0) ** 2 / 25)
    out = ev.resolvent_apply_periodic(0.3 + 0.2j, F, 0 * F, p10, cache10,
                                      refine=2)
    assert out.shape == (4, p10.grid.N)
    # zero tails outside the BVP window
    tail = np.abs(x) > 0.95 * p10.grid.L
    assert np.max(np.abs(out[:, tail])) == 0.0
