import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import jv

from epsoliton.grid import Grid, default_weights, inner, integrate, l2a, sigma_tilde_sq
from epsoliton import dynamics as dyn
from epsoliton import elliptic as ell
from epsoliton import linearized as lin
from epsoliton import profile as prof


def _smooth(g, rng, width=6.0):
    a = rng.normal(size=4)
    e = np.exp(-(g.x / width) ** 2)
    return np.array([a[0] * e + a[1] * e * np.cos(0.4 * g.x),
                     a[2] * e + a[3] * e * np.sin(0.3 * g.x)])


def _l2norm(v, g):
    return np.sqrt(integrate(v ** 2, g).sum())


def _fresh_context(p, kv):
    """A LinearContext with its own counters and memo, reusing kv."""
    return lin.LinearContext(p, kv, p.grid, ell.schrodinger_solver(p.phi, p.grid))


# ------------------------------------------------------------ kernel action

def test_Lc_kernel_vectors(p05, kv05, lin05):
    g = p05.grid
    r1 = lin.apply_Lc(kv05.xi1, lin05)
    r2 = lin.apply_Lc(kv05.xi2, lin05) + kv05.xi1
    scale = _l2norm(kv05.xi1, g)
    assert _l2norm(r1, g) < 1e-6 * scale
    assert _l2norm(r2, g) < 1e-5 * scale


def test_Lc_adjoint_kernel(p05, kv05, lin05):
    g = p05.grid
    r = lin.apply_Lc_adjoint(kv05.eta2, lin05)
    assert _l2norm(r, g) < 1e-6 * _l2norm(kv05.eta2, g)
    # eta1 is non-periodic: its closed-form derivative must be supplied
    r1 = lin.apply_Lc_adjoint(kv05.eta1, lin05, dW=kv05.eta1_deriv) + kv05.eta2
    assert _l2norm(r1, g) < 1e-4 * _l2norm(kv05.eta2, g)


@pytest.fixture(scope="module")
def lin_short():
    # on [-20, 20) the eps = 0.1 tail is cut at 1e-4 of its peak
    return lin.LinearContext.build(prof.profile_from_eps(0.1, 1.0, Grid(20.0, 128)))


@pytest.mark.parametrize("ctx, bound2, bound1", [
    ("lin05", 1e-6, 1e-7), ("lin10", 1e-6, 1e-7), ("lin_short", 1e-3, 1e-3)])
def test_Lc_adjoint_jordan_relations(ctx, bound2, bound1, request):
    # the closed-form etas on the spectral antiderivative of xi2 keep
    # L* eta2 = 0 and L* eta1 = -eta2: max misses relative to max |eta2| of
    # (4e-8, 2e-8), (5e-8, 6e-10) and (5e-5, 3e-4) in the order above; any
    # mixing of eta1 and eta2 breaks them
    ctx = request.getfixturevalue(ctx)
    kv = ctx.kv
    scale = np.max(np.abs(kv.eta2))
    r2 = lin.apply_Lc_adjoint(kv.eta2, ctx)
    r1 = lin.apply_Lc_adjoint(kv.eta1, ctx, dW=kv.eta1_deriv) + kv.eta2
    assert np.max(np.abs(r2)) < bound2 * scale
    assert np.max(np.abs(r1)) < bound1 * scale


def test_Lc_adjoint_constants(p10, lin10):
    g = p10.grid
    W = np.array([np.full(g.N, 0.7), np.full(g.N, -1.3)])
    r = lin.apply_Lc_adjoint(W, lin10)
    assert _l2norm(r, g) < 1e-8


def test_adjointness(p10, lin10, rng):
    g = p10.grid
    V, W = _smooth(g, rng), _smooth(g, rng)
    a = inner(lin.apply_Lc(V, lin10), W, g)
    b = inner(V, lin.apply_Lc_adjoint(W, lin10), g)
    assert abs(a - b) < 1e-10 * max(abs(a), 1.0)


def test_frechet_consistency(p10, lin10):
    # apply_Lc is the Frechet derivative of the co-moving nonlinear RHS,
    # up to the 2/3-rule dealiasing that rhs applies
    g = p10.grid
    e = np.exp(-(g.x / 5.0) ** 2)
    V = np.array([e, -0.4 * e * np.cos(0.3 * g.x)])
    base = np.array([p10.n, p10.u])
    r0 = np.fft.irfft(dyn.rhs(base, p10.K, g, frame_speed=p10.c)[0], n=g.N)
    out = {h: (np.fft.irfft(dyn.rhs(base + h * V, p10.K, g, frame_speed=p10.c)[0],
                            n=g.N) - r0) / h
           for h in (1e-4, 5e-5)}
    rich = 2 * out[5e-5] - out[1e-4]
    LV_hat = np.fft.rfft(lin.apply_Lc(V, lin10))
    LV_hat[:, dyn._band_cut(g):] = 0.0
    LV = np.fft.irfft(LV_hat, n=g.N)
    assert np.max(np.abs(rich - LV)) < 1e-5 * max(1.0, np.max(np.abs(LV)))


# ------------------------------------------------------------- projections

def test_project_Q_annihilates_kernel(kv10, lin10, p10):
    g = p10.grid
    for xi in (kv10.xi1, kv10.xi2):
        assert _l2norm(lin.project_Q(xi, lin10), g) < 1e-8 * max(_l2norm(xi, g), 1.0)


def test_project_Q_idempotent(lin10, p10, rng):
    g = p10.grid
    V = _smooth(g, rng)
    q1 = lin.project_Q(V, lin10)
    q2 = lin.project_Q(q1, lin10)
    assert np.max(np.abs(q2 - q1)) < 1e-10


def test_project_Q_kernel_of_P_star(kv10, lin10, p10, rng):
    g = p10.grid
    QV = lin.project_Q(_smooth(g, rng), lin10)
    assert abs(inner(kv10.eta1, QV, g)) < 1e-10
    assert abs(inner(kv10.eta2, QV, g)) < 1e-10


# ---------------------------------------------------------- linear evolution

def test_evolve_linear_xi1_stationary(p05, kv05, lin05):
    g = p05.grid
    tr = lin.evolve_linear(kv05.xi1, lin05, np.linspace(0.0, 5.0, 3))
    err = _l2norm(tr.states[-1] - kv05.xi1, g) / _l2norm(kv05.xi1, g)
    assert err < 1e-7


def test_evolve_linear_jordan_block(p05, kv05, lin05):
    g = p05.grid
    T = 5.0
    tr = lin.evolve_linear(kv05.xi2, lin05, np.linspace(0.0, T, 3))
    expect = kv05.xi2 - T * kv05.xi1
    err = _l2norm(tr.states[-1] - expect, g) / _l2norm(expect, g)
    assert err < 1e-6


def test_evolve_linear_eta2_pairing_conserved(p05, kv05, lin05, rng):
    g = p05.grid
    V0 = lin.project_Q(_smooth(g, rng), lin05)
    tr = lin.evolve_linear(V0, lin05, np.linspace(0.0, 20.0, 5))
    vals = [inner(kv05.eta2, V, g) for V in tr.states]
    assert max(abs(v - vals[0]) for v in vals) < 1e-8


def test_evolve_linear_makes_no_krylov_solve(p05, kv05, lin05, rng, monkeypatch):
    # LinearContext inverts -d^2/dx^2 + e^{phi_c} once (two dense parity
    # blocks at N = 512); a Krylov solve per application of L took 4.4 of
    # the 5.1 s that the benchmark's linear run spent in evolve_linear
    def krylov(*args, **kwargs):
        raise AssertionError("iterative Schrodinger solve in the linearized flow")

    monkeypatch.setattr(ell, "apply_inv_schrodinger", krylov)
    _fresh_context(p05, kv05)
    traj = lin.evolve_linear(_smooth(p05.grid, rng), lin05, np.linspace(0.0, 1.0, 41))
    assert not traj.flagged and np.all(np.isfinite(traj.states[-1]))


def test_evolve_linear_real_and_bounded(p10, lin10, rng):
    g = p10.grid
    V0 = lin.project_Q(_smooth(g, rng), lin10)
    tr = lin.evolve_linear(V0, lin10, np.linspace(0.0, 50.0, 6))
    assert all(np.isrealobj(V) for V in tr.states)
    n0 = _l2norm(V0, g)
    norms_t = [_l2norm(V, g) for V in tr.states]
    assert 0.05 * n0 < min(norms_t) and max(norms_t) < 20 * n0


# ------------------------------------------------ Chebyshev-Bessel propagator

@pytest.fixture(scope="module")
def dense05(p05, lin05):
    """L assembled column by column from apply_Lc (2N = 1024)."""
    n = p05.grid.N
    cols = np.eye(2 * n).reshape(2 * n, 2, n)
    return np.array([lin.apply_Lc(e, lin05).ravel() for e in cols]).T


def test_evolve_linear_matches_dense_expm(p05, lin05, dense05, rng):
    g = p05.grid
    V0 = _smooth(g, rng)
    T = lin.wrap_time(lin05)
    for t in (lin.save_times(lin05, T, 3), np.array([0.0, 0.37, T / 3, T])):
        tr = lin.evolve_linear(V0, lin05, t)
        assert np.array_equal(tr.t, t) and not tr.flagged
        assert np.array_equal(tr.states[0], V0)
        for s, V in zip(tr.t[1:], tr.states[1:]):
            ref = (expm(s * dense05) @ V0.ravel()).reshape(V.shape)
            assert np.linalg.norm(V - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("t", [[0.0, -1.0, 2.0], [0.0, 2.0, 1.0], [[0.0, 1.0]], 1.0],
                         ids=["negative", "decreasing", "2d", "scalar"])
def test_evolve_linear_rejects_bad_times(p05, kv05, lin05, t):
    with pytest.raises(ValueError):
        lin.evolve_linear(kv05.xi1, lin05, t)


def test_evolve_linear_flags_growth_when_rho_is_below_the_norm(p05, kv05, lin05):
    # with rho at half the bound on ||L|| the expansion's premise fails: the
    # states grow past e^10 times the initial norm, and the trajectory is
    # flagged and ends at the first save that does (the 4th of 11 here)
    ctx = _fresh_context(p05, kv05)
    ctx.rho = 0.5 * lin05.rho
    g = p05.grid
    V0 = np.array([1e-3 * np.exp(-(g.x / 4.0) ** 2) * np.cos(g.x), np.zeros(g.N)])
    t = np.linspace(0.0, 20.0, 11)
    tr = lin.evolve_linear(V0, ctx, t)
    assert tr.flagged and 1 < len(tr.t) < len(t)
    assert np.array_equal(tr.t, t[:len(tr.t)])
    norms = np.array([np.sqrt(inner(S, S, g)) for S in tr.states])
    bound = np.exp(10.0) * norms[0]
    assert norms[-1] > bound and np.all(norms[:-1] <= bound)


def test_save_times_on_the_benchmark_lattice(lin05):
    # the benchmark's linear input (eps = 0.05 on Grid(40/sqrt(0.05), 512),
    # T = wrap_time), whose times perfbench/ref/linear.json records
    T = lin.wrap_time(lin05)
    kato = lin.save_times(lin05, T, lin.KATO_SAVES)
    decay = lin.save_times(lin05, T, lin.DECAY_SAVES)
    assert np.array_equal(kato, np.r_[np.arange(0, 831, 5), 832] * (T / 832))
    assert np.array_equal(decay, np.r_[np.arange(0, 831, 10), 832] * (T / 832))
    assert len(kato) == 168 and len(decay) == 85
    assert np.isin(decay, kato).all() and decay[-1] == kato[-1] == T


def test_propagator_radius_bounds_L(lin05, dense05):
    # the expansion needs rho >= ||L||_2 and the spectrum on the imaginary axis
    assert lin05.rho >= np.linalg.norm(dense05, 2)
    assert np.max(np.abs(np.linalg.eigvals(dense05).real)) <= 1e-6 * lin05.rho


def test_bessel_table_matches_scipy():
    z = np.array([0.0, 1e-3, 0.3, 5.0, 67.1, 774.0, 999.7, 1000.0])
    kmax = int(lin._kapteyn_cutoff(z.max(), 1e-17)[0])
    J = lin._bessel_table(z, kmax)
    ref = jv(np.arange(kmax + 1)[:, None], z[None, :])
    assert np.max(np.abs(J - ref)) <= 1e-13
    # the cut-off term is below the tolerance its index was chosen for
    assert np.max(np.abs(ref[-1])) <= 1e-17


def test_linear_run_applies_L_fewer_than_1000_times(p05, kv05, monkeypatch):
    # the benchmark's linear part (eps = 0.05, N = 512, T = wrap_time): RK4
    # at the CFL step took 832 steps, 3,328 applications of L
    g = p05.grid
    ctx = _fresh_context(p05, kv05)
    calls = []
    apply = lin.apply_Lc

    def counted(*args, **kwargs):
        calls.append(1)
        return apply(*args, **kwargs)

    monkeypatch.setattr(lin, "apply_Lc", counted)
    w = default_weights(0.05, g, A=100.0, B=10.0, kappa=0.1, rho=0.3)
    V0 = np.array([1e-3 * np.exp(-(g.x / 4.0) ** 2) * np.cos(g.x), np.zeros(g.N)])
    T = lin.wrap_time(ctx)
    lin.dispersive_decay_experiment(V0, ctx, w.a_rate, T)
    lin.kato_smoothing_experiment(V0, ctx, w, T)
    assert 0 < len(calls) <= 1000
    assert ctx.L_applications == len(calls)


# ------------------------------------------------------- decay experiments

def test_kato_zero_data(p10, lin10, w10):
    g = p10.grid
    V0 = np.zeros((2, g.N))
    t, running = lin.kato_smoothing_experiment(V0, lin10, w10, T=5.0)
    assert np.max(np.abs(running)) == 0.0


def test_kato_integrand_is_the_sigma_tilde_form(p10, lin10, w10, monkeypatch):
    # the running integral's integrand is grid.sigma_tilde_sq summed over
    # each state's rows, formed in one call over the stack of the states
    g = p10.grid
    V0 = np.array([np.exp(-(g.x / 4.0) ** 2) * np.cos(g.x), np.zeros(g.N)])
    stacks = []
    form = lin.sigma_tilde_sq
    monkeypatch.setattr(lin, "sigma_tilde_sq", lambda V, w: stacks.append(V) or form(V, w))
    t, running = lin.kato_smoothing_experiment(V0, lin10, w10, T=4.0)
    assert len(stacks) == 1
    assert np.array_equal(stacks[0], lin10.q_trajectory(V0, 4.0, lin.KATO_SAVES).states)
    vals = form(stacks[0], w10).sum(axis=1)
    assert np.array_equal(running, lin.running_integral(vals, t))
    direct = [integrate(w10.sech_weight ** 2 * (V ** 2).sum(axis=0), g) for V in stacks[0]]
    assert np.allclose(vals, direct, rtol=1e-14, atol=0.0)


def test_kato_homogeneity(p10, lin10, w10):
    g = p10.grid
    e = np.exp(-(g.x / 4.0) ** 2) * np.cos(g.x)
    V0 = np.array([e, -0.3 * e])
    _, r1 = lin.kato_smoothing_experiment(V0, lin10, w10, T=4.0)
    _, r2 = lin.kato_smoothing_experiment(2 * V0, lin10, w10, T=4.0)
    assert r2[-1] == pytest.approx(4.0 * r1[-1], rel=1e-6)


@pytest.mark.parametrize("falls_last", [False, True], ids=["peak_last", "two_points"])
def test_decay_rate_needs_two_decaying_samples(p05, lin05, w05, monkeypatch, falls_last):
    # a weighted norm that peaks at the last save leaves a one-sample
    # decaying segment: no rate (a one-point polyfit warned and read 0.07
    # at the README's eps = 0.1); two samples fit a line
    g = p05.grid
    V0 = np.array([np.exp(-(g.x / 4.0) ** 2), np.zeros(g.N)])
    n = len(lin05.q_trajectory(V0, 2.0, lin.DECAY_SAVES).states)
    series = np.arange(1.0, n + 1)
    if falls_last:
        series[-1] = series[-2] - 0.5
    # l2a takes the whole stack of states and returns the whole series
    monkeypatch.setattr(lin, "l2a", lambda V, a, g: series[:len(V)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, vals, rate = lin.dispersive_decay_experiment(V0, lin05, w05.a_rate, 2.0)
    assert np.array_equal(vals, series)
    if falls_last:
        assert rate > 0
    else:
        assert np.isnan(rate)


def test_xi1_weighted_norm_constant(p05, kv05, lin05, w05):
    # kernel direction is stationary: its weighted norm does not decay
    tr = lin.evolve_linear(kv05.xi1, lin05, np.linspace(0.0, 10.0, 5))
    vals = l2a(tr.states, w05.a_rate, p05.grid)
    assert max(vals) - min(vals) < 1e-8 * vals[0]


# --------------------------------------------------- one shared trajectory

def _decay_series(V0, ctx, a_rate, T, n_saves):
    """dispersive_decay_experiment's series from its own evolve_linear run."""
    traj = lin.evolve_linear(lin.project_Q(V0, ctx), ctx, lin.save_times(ctx, T, n_saves))
    return traj.t, np.array([l2a(V, a_rate, ctx.grid) for V in traj.states])


def _kato_series(V0, ctx, w, T, n_saves):
    """kato_smoothing_experiment's running integral from its own run."""
    traj = lin.evolve_linear(lin.project_Q(V0, ctx), ctx, lin.save_times(ctx, T, n_saves))
    vals = np.array([integrate((w.sech_weight * V) ** 2, ctx.grid).sum()
                     for V in traj.states])
    return traj.t, np.concatenate([[0.0], np.cumsum(
        (vals[1:] + vals[:-1]) / 2 * np.diff(traj.t))])


def _nested(ctx, T):
    """Whether the decay experiment's times are among the Kato experiment's."""
    return np.isin(lin.save_times(ctx, T, lin.DECAY_SAVES),
                   lin.save_times(ctx, T, lin.KATO_SAVES)).all()


def _non_nesting_T(ctx):
    """A horizon below the wrap time whose 81- and 161-save times do not nest."""
    for T in np.linspace(20.0, 0.9 * lin.wrap_time(ctx), 200):
        if not _nested(ctx, T):
            return T
    raise AssertionError("no non-nesting horizon found")


def _count_evolve_linear(monkeypatch):
    """A list that grows by one with each evolve_linear call."""
    calls = []
    evolve = lin.evolve_linear

    def counted(*args, **kwargs):
        calls.append(1)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(lin, "evolve_linear", counted)
    return calls


@pytest.mark.parametrize("horizon", ["wrap", "non_nesting"])
def test_experiments_share_one_linear_run(p05, kv05, w05, monkeypatch, horizon):
    g = p05.grid
    # a fresh context: the session's lin05 may hold a trajectory already
    ctx = _fresh_context(p05, kv05)
    T = lin.wrap_time(ctx) if horizon == "wrap" else _non_nesting_T(ctx)
    assert _nested(ctx, T) == (horizon == "wrap")
    V0 = np.array([1e-3 * np.exp(-(g.x / 4.0) ** 2) * np.cos(g.x), np.zeros(g.N)])
    calls = _count_evolve_linear(monkeypatch)
    td, nd, _ = lin.dispersive_decay_experiment(V0, ctx, w05.a_rate, T)
    tk, run = lin.kato_smoothing_experiment(V0, ctx, w05, T)
    assert len(calls) == 1
    t_ref, nd_ref = _decay_series(V0, ctx, w05.a_rate, T, lin.DECAY_SAVES)
    tk_ref, run_ref = _kato_series(V0, ctx, w05, T, lin.KATO_SAVES)
    assert np.array_equal(td, t_ref) and np.array_equal(nd, nd_ref)
    assert np.array_equal(tk, tk_ref) and np.array_equal(run, run_ref)

