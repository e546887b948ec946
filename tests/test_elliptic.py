import warnings
from unittest import mock

import numpy as np
import pytest

from epsoliton.grid import Grid, derivative
from epsoliton import elliptic as ell


@pytest.fixture(scope="module")
def g():
    return Grid(L=20.0, N=512)


# ------------------------------------------------------------ solve_poisson

def test_poisson_zero(g):
    phi, rep = ell.solve_poisson(np.zeros(g.N), g)
    assert np.max(np.abs(phi)) < 1e-13


def test_poisson_profile_consistency(p10):
    phi, rep = ell.solve_poisson(p10.n, p10.grid)
    assert np.max(np.abs(phi - p10.phi)) < 1e-4  # profile-construction tolerance


def test_poisson_small_n_linearization(g):
    n = 1e-6 * np.exp(-g.x ** 2)
    phi, rep = ell.solve_poisson(n, g)
    lin = np.fft.ifft(np.fft.fft(n) / (g.k ** 2 + 1.0)).real
    assert np.max(np.abs(phi - lin)) < 1e-6 * np.max(np.abs(n)) * 10


def test_poisson_uniqueness_two_guesses(g):
    n = 0.3 * np.exp(-(g.x / 3) ** 2)
    phi_a, _ = ell.solve_poisson(n, g, phi0=np.fft.rfft(np.zeros(g.N)))
    phi_b, _ = ell.solve_poisson(n, g, phi0=np.fft.rfft(n))
    assert np.max(np.abs(phi_a - phi_b)) < 1e-10


def test_poisson_residual_reported(g):
    n = 0.1 * np.exp(-(g.x / 4) ** 2)
    phi, rep = ell.solve_poisson(n, g)
    res = -derivative(phi, g, 2) + np.exp(phi) - 1.0 - n
    assert np.max(np.abs(res)) < 1e-10
    assert rep.residual < 1e-10


def test_poisson_report_bounds_true_residual(g, p10):
    # report.residual is the l1 norm of the residual's Fourier coefficients,
    # which bounds the nodal max-norm residual.  Computing -phi'' both ways
    # rounds differently, by about 1e-14 at N = 1024 (1% of tol is allowed)
    tol = 1e-11
    cases = [(g, 0.3 * np.exp(-(g.x / 3) ** 2)), (p10.grid, p10.n)]
    for grid, n in cases:
        phi, rep = ell.solve_poisson(n, grid)
        n_warm = n + 1e-3 * np.exp(-grid.x ** 2)
        phi_w, rep_w = ell.solve_poisson(n_warm, grid, phi0=np.fft.rfft(phi))
        for p, dens, r in ((phi, n, rep), (phi_w, n_warm, rep_w)):
            true = np.max(np.abs(-derivative(p, grid, 2) + np.exp(p) - 1.0 - dens))
            assert true <= r.residual + 1e-13
            assert r.residual <= tol


@pytest.mark.parametrize("guess", ["cos", "gauss"])
def test_poisson_far_guess_restarts_cold(guess):
    # from these guesses the warm pass stalls and the solve restarts cold,
    # so it returns the cold solve's answer
    from epsoliton.diagnostics import perturbation
    from epsoliton.profile import profile_from_eps
    grid = Grid(80.0 / np.sqrt(0.1), 1024)
    p = profile_from_eps(0.1, 1.0, grid)
    n = p.n + perturbation("even", 1e-3, grid)[0]
    phi0 = {"cos": p.phi + 10.0 * np.cos(0.05 * grid.x),
            "gauss": p.phi - 10.0 * np.exp(-(grid.x / 30.0) ** 2)}[guess]
    phi, rep = ell.solve_poisson(n, grid, phi0=np.fft.rfft(phi0))
    cold, _ = ell.solve_poisson(n, grid)
    true = np.max(np.abs(-derivative(phi, grid, 2) + np.exp(phi) - 1.0 - n))
    assert true <= 1e-11 and rep.residual <= 1e-11
    assert np.max(np.abs(phi - cold)) < 1e-12


def test_poisson_newton_fallback(g):
    # e^phi spans about [1, 20]: the fixed-point contraction is ~0.9, and
    # the cold pass, which re-forms its preconditioner at every iterate,
    # runs 226 iterations to the tolerance
    n = 20.0 * np.exp(-(g.x / 2) ** 2)
    phi, rep = ell.solve_poisson(n, g)
    assert np.exp(phi).max() > 10.0
    res = -derivative(phi, g, 2) + np.exp(phi) - 1.0 - n
    assert np.max(np.abs(res)) <= rep.residual <= 1e-11


def test_poisson_fallback_counts_every_iteration(g):
    # a far warm start stalls, and the solve restarts cold: it returns the
    # cold solve exactly, and counts the warm pass's iterations with the
    # cold pass's; a cold solve, which runs to the tolerance, never falls back
    n = 20.0 * np.exp(-(g.x / 2) ** 2)
    phi, rep = ell.solve_poisson(n, g)  # contracts by about 0.9 an iteration
    assert not rep.fallback
    far_phi, far = ell.solve_poisson(n, g, phi0=np.fft.rfft(10.0 * np.cos(0.5 * g.x)))
    assert far.fallback
    assert np.array_equal(far.phi_hat, rep.phi_hat) and np.array_equal(far_phi, phi)
    assert far.residual == rep.residual
    assert far.iterations > rep.iterations
    _, rep = ell.solve_poisson(0.1 * n, g)
    assert not rep.fallback


def test_poisson_tall_bump_converges(g):
    # e^phi reaches about 300, so the cold pass contracts by about 0.993 an
    # iteration and takes some 3,500 of them
    n = 300.0 * np.exp(-(g.x / 2) ** 2)
    phi, rep = ell.solve_poisson(n, g)
    assert np.exp(phi).max() > 100.0
    assert rep.residual <= 1e-11 and not rep.fallback
    res = -derivative(phi, g, 2) + np.exp(phi) - 1.0 - n
    assert np.max(np.abs(res)) <= 1e-11


def test_poisson_overflowing_warm_start_restarts_cold(g):
    # e^800 overflows, so the warm start stalls before taking the
    # exponential, and NumPy warns of nothing: the cold pass's answer is
    # returned as it is
    n = 0.3 * np.exp(-(g.x / 3) ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi, rep = ell.solve_poisson(n, g, phi0=np.fft.rfft(800.0 * np.ones(g.N)))
    cold, cold_rep = ell.solve_poisson(n, g)
    assert rep.fallback and not cold_rep.fallback
    assert np.array_equal(phi, cold) and np.array_equal(rep.phi_hat, cold_rep.phi_hat)
    assert rep.residual == cold_rep.residual <= 1e-11


def test_poisson_rejects_nonfinite_density(g):
    n = np.zeros(g.N)
    n[7] = np.nan
    with pytest.raises(ValueError, match="^solve_poisson: non-finite density"):
        ell.solve_poisson(n, g)


def test_poisson_cold_failure_raises(g):
    # e^phi reaches about 1e3 at the root, so the cold pass contracts by about
    # 0.998 an iteration and stops at _MAXITER above the tolerance: the solve
    # names its residual and iteration count instead of returning
    n = 900.0 * np.exp(-(g.x / 2) ** 2)
    with pytest.raises(RuntimeError, match=r"fixed point failed, residual \S+ "
                                           r"after 10000 iterations"):
        ell.solve_poisson(n, g)


def test_poisson_overflowing_cold_start_raises(g):
    # the root exists (max phi about 7), but the cold linearisation of this
    # density reaches max phi = 757.9, where e^phi overflows: the solve names
    # it before taking the exponential, so NumPy warns of nothing
    n = 1e3 * np.exp(-(g.x / 2) ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"cold start reaches max phi = 757\.9, "
                                               r"past 709\.8, where e\^phi overflows"):
            ell.solve_poisson(n, g)


def test_poisson_overflowing_warm_and_cold_starts_raise(g):
    # both starts pass 709.8: the warm one restarts cold, and the cold one
    # raises, with no NumPy warning on the way
    n = 1e3 * np.exp(-(g.x / 2) ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"cold start reaches max phi = 757\.9, "):
            ell.solve_poisson(n, g, phi0=np.fft.rfft(800.0 * np.ones(g.N)))


# --------------------------------------------------- apply_inv_schrodinger

# schrodinger_solver inverts densely up to DENSE_N_MAX points and falls back
# to apply_inv_schrodinger's fixed-point solve above it (the "krylov" id
# predates it)
SOLVER_GRIDS = pytest.mark.parametrize("N", [512, 2048], ids=["dense", "krylov"])


def _solver(phi_c, grid):
    solve = ell.schrodinger_solver(phi_c, grid)
    with mock.patch.object(ell, "apply_inv_schrodinger",
                           wraps=ell.apply_inv_schrodinger) as fixed_point:
        solve(np.cos(grid.x))
    assert fixed_point.called == (grid.N > ell.DENSE_N_MAX)
    return solve


@SOLVER_GRIDS
def test_inv_schrodinger_symbol(N):
    g = Grid(L=20.0, N=N)
    k = 2 * np.pi * 3 / (2 * g.L)
    f = np.cos(k * g.x)
    out = _solver(np.zeros(g.N), g)(f)
    assert np.max(np.abs(out - f / (k ** 2 + 1.0))) < 1e-11


@SOLVER_GRIDS
def test_inv_schrodinger_round_trip(N, p10):
    g = Grid(L=20.0, N=N)
    f = np.exp(-g.x ** 2) * np.cos(g.x)
    phi_c = np.exp(-(g.x / 5) ** 2)
    out = _solver(phi_c, g)(f)
    back = -derivative(out, g, 2) + np.exp(phi_c) * out
    assert np.max(np.abs(back - f)) < 1e-10


@pytest.mark.parametrize("name", ["p05", "p10"])
def test_schrodinger_solver_matches_krylov(name, request):
    p = request.getfixturevalue(name)
    g = p.grid
    f = derivative(p.n, g, 1) + np.exp(-(g.x / 3) ** 2) * np.cos(g.x)
    f_in = f.copy()
    solve = _solver(p.phi, g)
    ref = ell.apply_inv_schrodinger(f, p.phi, g)
    out = solve(f)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
    # the map is fixed: f is left as it was, and a second application
    # returns the same bits
    assert np.array_equal(f, f_in) and np.array_equal(solve(f), out)
    # and symmetric, as H is: <e, H^-1 f> = <H^-1 e, f>
    e = np.exp(-((g.x - 2.0) / 4) ** 2)
    assert abs(e @ out - solve(e) @ f) <= 1e-13 * np.max(np.abs(e)) * np.sum(np.abs(out))


def _assembled_inverse(phi_c, g):
    D2 = np.array([np.fft.irfft(-g.k2 * np.fft.rfft(e), n=g.N) for e in np.eye(g.N)]).T
    return np.linalg.inv(-D2 + np.diag(np.exp(phi_c)))


@pytest.mark.parametrize("name", ["p05", "p10"])
def test_parity_inverse_matches_the_assembled_inverse(name, request):
    # the even and odd blocks together are the whole inverse of H, on data
    # of either parity and of none
    p = request.getfixturevalue(name)
    g = p.grid
    assert g.N <= ell.DENSE_N_MAX
    inv = _assembled_inverse(p.phi, g)
    solve = ell.schrodinger_solver(p.phi, g)
    rng = np.random.default_rng(0)
    for f in (rng.standard_normal(g.N), np.cos(g.x) * np.exp(-(g.x / 3) ** 2),
              np.sin(g.x) * np.exp(-(g.x / 3) ** 2)):
        ref = inv @ f
        assert np.max(np.abs(solve(f) - ref)) <= 1e-13 * np.max(np.abs(ref))


@SOLVER_GRIDS
def test_schrodinger_solver_rejects_an_uneven_phi(N):
    # the parity split needs e^{phi_c} even about x = 0
    g = Grid(L=20.0, N=N)
    with pytest.raises(ValueError, match="not even"):
        ell.schrodinger_solver(np.exp(-(g.x - 1.0) ** 2), g)


def test_inv_schrodinger_kernel_decay(g):
    f = np.zeros(g.N)
    f[g.N // 2] = 1.0 / g.h  # point-like bump
    out = ell.apply_inv_schrodinger(f, np.zeros(g.N), g)
    sel = (g.x > 2) & (g.x < 12)
    rate = -np.polyfit(g.x[sel], np.log(out[sel]), 1)[0]
    assert abs(rate - 1.0) < 0.02


def test_inv_schrodinger_free_kernel(g):
    # zero potential: (-d^2/dx^2 + 1)^{-1} has the kernel e^{-|x-y|}/2
    j = g.N // 2 + 40
    f = np.zeros(g.N)
    f[j] = 1.0 / g.h
    out = ell.apply_inv_schrodinger(f, np.zeros(g.N), g)
    # away from the kink node (the discrete delta differs there at O(h^2))
    interior = (np.abs(g.x - g.x[j]) < 10) & (np.abs(g.x - g.x[j]) > 0.5)
    exact = 0.5 * np.exp(-np.abs(g.x - g.x[j]))
    assert np.max(np.abs(out[interior] - exact[interior])) < 1e-3


def test_inv_schrodinger_failure_raises(g, monkeypatch):
    # e^800 overflows the coefficient: the solve names it before taking the
    # exponential, so NumPy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"^apply_inv_schrodinger: max phi_c = 800 "
                                               r"is past 709\.8, where e\^phi_c overflows$"):
            ell.apply_inv_schrodinger(np.cos(g.x), np.full(g.N, 800.0), g)
    # an iteration that does not reach the tolerance raises too
    monkeypatch.setattr(ell, "_MAXITER", 2)
    with pytest.raises(RuntimeError, match=r"^apply_inv_schrodinger: fixed point failed, "
                                           r"relative residual \S+ after 2 iterations$"):
        ell.apply_inv_schrodinger(np.cos(g.x), 0.2 * np.exp(-(g.x / 4) ** 2), g)


def test_resolvent_kernel_symmetry(g):
    phi_c = 0.2 * np.exp(-(g.x / 4) ** 2)
    i1, i2 = g.N // 2 - 30, g.N // 2 + 50
    cols = {}
    for j in (i1, i2):
        f = np.zeros(g.N)
        f[j] = 1.0 / g.h
        cols[j] = ell.apply_inv_schrodinger(f, phi_c, g)
    assert abs(cols[i1][i2] - cols[i2][i1]) < 1e-10



# ------------------------------------------------------- solve_schrodinger

def _indefinite_problem():
    # -d^2 - 2 sech^2 x has the bound state sech x at -1: with 0.3 added the
    # operator is indefinite, its spectrum -0.7 and [0.3, inf)
    g = Grid(L=20.0, N=256)
    q = 0.3 - 2.0 / np.cosh(g.x) ** 2
    f = np.exp(-(g.x - 1.0) ** 2) * (1.0 + 0.5 * np.sin(g.x))  # neither even nor odd
    return g, q, f


def test_solve_schrodinger_matches_dense_solve():
    g, q, f = _indefinite_problem()
    D2 = np.array([np.fft.irfft(-g.k2 * np.fft.rfft(e), n=g.N) for e in np.eye(g.N)]).T
    A = -D2 + np.diag(q)
    assert np.min(np.linalg.eigvalsh(A)) < 0 < np.max(np.linalg.eigvalsh(A))
    ref = np.linalg.solve(A, f)
    w, rep = ell.solve_schrodinger(q, f, g)
    assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert 0 < rep.iterations < 100 and rep.residual < 1e-12
    assert np.array_equal(rep.phi_hat, np.fft.rfft(w))


def test_solve_schrodinger_cap_raises(monkeypatch):
    g, q, f = _indefinite_problem()
    monkeypatch.setattr(ell, "_MAXITER", 2)
    with pytest.raises(RuntimeError, match=r"MINRES failed, relative residual .* after 2 iterations"):
        ell.solve_schrodinger(q, f, g)


def test_solve_schrodinger_infinite_coefficient_raises():
    # an infinite q(-L) zeroes the preconditioner: MINRES takes no step and
    # the residual of the returned w is NaN
    g, _, f = _indefinite_problem()
    with (pytest.raises(RuntimeError, match=r"MINRES failed, relative residual nan after 0 iterations"),
          np.errstate(invalid="ignore")):
        ell.solve_schrodinger(np.full(g.N, np.inf), f, g)
