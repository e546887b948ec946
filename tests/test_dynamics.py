import numpy as np
import pytest

from epsoliton.grid import Grid, derivative, translate
from epsoliton import dynamics as dyn
from epsoliton import elliptic as ell


@pytest.fixture(scope="module")
def g():
    return Grid(L=20.0, N=256)


def _zero(g):
    return dyn.State(0.0, np.zeros(g.N), np.zeros(g.N))


def _fixed_steps(s, T, K, g, dt, **kw):
    """evolve in steps of dt: with cfl = inf the save lattice, of spacing
    dt, sets every step."""
    n = round(T / dt) + 1
    traj = dyn.evolve(s, T, K, g, cfl=np.inf, n_saves=n, **kw)
    assert traj.meta["rk4_steps"] == n - 1
    return traj


def _low_band(f, g):
    """f with the top third of its Fourier modes, which rhs's 2/3 rule
    zeroes, removed."""
    f_hat = np.fft.rfft(f)
    f_hat[..., dyn._band_cut(g):] = 0.0
    return np.fft.irfft(f_hat, n=g.N)


# ------------------------------------------------------------ gradient / rhs

def test_gradient_E_zero(g):
    gn, gu = dyn.gradient_E(np.zeros(g.N), np.zeros(g.N), np.zeros(g.N), 1.0)
    assert np.max(np.abs(gn)) == 0.0 and np.max(np.abs(gu)) == 0.0


def test_gradient_E_velocity_only(g):
    u0 = 0.3 * np.exp(-g.x ** 2)
    gn, gu = dyn.gradient_E(np.zeros(g.N), u0, np.zeros(g.N), 1.0)
    assert np.max(np.abs(gn - u0 ** 2 / 2)) < 1e-14
    assert np.max(np.abs(gu - u0)) < 1e-14


def test_gradient_E_rejects_vacuum(g):
    with pytest.raises(ValueError):
        dyn.gradient_E(np.full(g.N, -1.0), np.zeros(g.N), np.zeros(g.N), 1.0)


def test_rhs_zero_state(g):
    dU = np.fft.irfft(dyn.rhs(np.zeros((2, g.N)), 1.0, g)[0], n=g.N)
    assert np.max(np.abs(dU)) < 1e-12


def test_rhs_traveling_wave_identity(p05):
    # rhs(S_c) = -c S_c' for the traveling wave, S_c' dealiased as rhs is
    g = p05.grid
    S = np.array([p05.n, p05.u])
    dU = np.fft.irfft(dyn.rhs(S, p05.K, g)[0], n=g.N)
    assert np.max(np.abs(dU + p05.c * _low_band(derivative(S, g, 1), g))) < 1e-7


def test_rhs_gradient_form(p05):
    # rhs = -d/dx sigma1 grad E, dealiased: cross-check the two assemblies
    g = p05.grid
    phi, _ = ell.solve_poisson(p05.n, g)
    gn, gu = dyn.gradient_E(p05.n, p05.u, phi, p05.K)
    dU = np.fft.irfft(dyn.rhs(np.array([p05.n, p05.u]), p05.K, g)[0], n=g.N)
    assert np.max(np.abs(dU + _low_band(derivative(np.array([gu, gn]), g, 1), g))) < 1e-11


# ------------------------------------------------------------ invariants

def test_invariants_zero_state(g):
    inv = dyn.invariants_of(_zero(g), 1.0, g)
    assert inv["E"] == 0.0 and inv["M"] == 0.0


# ------------------------------------------------------------ evolve

def test_evolve_zero_data(g):
    # phi = 0 at every stage: no step may divide by zero
    with np.errstate(all="raise"):
        traj = dyn.evolve(_zero(g), 10.0, 1.0, g, n_saves=3)
    assert traj.failure is None and traj.blowup_time is None
    assert np.max(np.abs(traj.states[-1].n)) < 1e-12


def test_evolve_rejects_nonpositive_K(g):
    with pytest.raises(ValueError):
        dyn.evolve(_zero(g), 1.0, 0.0, g)


@pytest.mark.parametrize("n0, T, message", [
    (np.nan, 1.0, "State: non-finite fields"),
    (-1.0, 1.0, "State: vacuum reached"),
    (0.0, 0.0, "evolve: K > 0 and T > 0 required"),
], ids=["nan", "vacuum", "T0"])
def test_evolve_guards(g, n0, T, message):
    s0 = dyn.State(0.0, np.full(g.N, n0), np.zeros(g.N))
    with pytest.raises(ValueError, match=f"^{message}"):
        dyn.evolve(s0, T, 1.0, g)


@pytest.mark.parametrize("T, n", [(200.0 / np.sqrt(0.002), 1001), (1e5 / 3, 41),
                                  (12345.678, 11)])
def test_evolve_saves_on_the_exact_lattice(T, n):
    # steps set by the lattice alone: each step lands on its save, with no
    # roundoff-sized step after it and no extra snapshot at T, and the save
    # times are T k/(n - 1) bit for bit, not an accumulated clock
    g = Grid(10.0, 16)
    traj = dyn.evolve(_zero(g), T, 1.0, g, cfl=np.inf, n_saves=n)
    assert traj.failure is None and traj.meta["rk4_steps"] == n - 1
    assert np.array_equal(traj.times, T * np.arange(n) / (n - 1))


def test_evolve_blowup_detected(g):
    # deep density trough drives 1+n toward 0
    n0 = -0.98 * np.exp(-(g.x / 2) ** 2)
    u0 = -3.0 * np.tanh(g.x / 2) * np.exp(-(g.x / 4) ** 2)
    traj = dyn.evolve(dyn.State(0.0, n0, u0), 20.0, 1.0, g, n_saves=5)
    assert traj.blowup_time is not None
    assert traj.failure == f"blow-up at t = {traj.blowup_time}"


def test_time_reversal(p05):
    g = p05.grid
    s = dyn.State(0.0, p05.n.copy(), p05.u.copy())
    dt = 0.05
    fwd = _fixed_steps(s, dt, p05.K, g, dt).states[-1]
    back = _fixed_steps(dyn.State(0.0, fwd.n, -fwd.u), dt, p05.K, g, dt).states[-1]
    assert np.max(np.abs(back.n - s.n)) < 1e-9
    assert np.max(np.abs(back.u + s.u)) < 1e-9


def test_translation_equivariance(p05):
    g = p05.grid
    s = dyn.State(0.0, p05.n.copy(), p05.u.copy())
    d = 16 * g.h
    shifted = dyn.State(0.0, *translate([s.n, s.u], d, g))
    for c in (0.0, p05.c):
        a = _fixed_steps(shifted, 1.0, p05.K, g, 0.05, frame_speed=c).states[-1]
        b = _fixed_steps(s, 1.0, p05.K, g, 0.05, frame_speed=c).states[-1]
        b_shift = translate(b.n, d, g)[0]
        assert np.max(np.abs(a.n - b_shift)) < 1e-10


def test_conservation_drift_order(p05):
    # invariant drift scales at least like dt^4 under dt-halving
    g = p05.grid
    s = dyn.State(0.0, p05.n.copy(), p05.u.copy())
    E0 = dyn.invariants_of(s, p05.K, g)["E"]
    drift = {}
    for dt in (0.2, 0.1):
        end = _fixed_steps(s, 2.0, p05.K, g, dt).states[-1]
        drift[dt] = abs(dyn.invariants_of(end, p05.K, g)["E"] - E0)
    order = np.log2(drift[0.2] / drift[0.1])
    assert order >= 3.5


def test_evolve_records_steps_and_frame_speed(g):
    traj = dyn.evolve(_zero(g), 1.0, 1.0, g, cfl=np.inf, n_saves=5, frame_speed=0.5)
    assert traj.meta["rk4_steps"] == 4 and traj.meta["poisson_solves"] == 16
    assert traj.meta["frame_speed"] == 0.5


# ------------------------------------------------------------ the wave's frame

@pytest.fixture(scope="module")
def bumped05(p05):
    # a 1e-2 even bump on the eps = 0.05 wave, whose top third of the modes
    # holds only 6.5e-7 of n_c on its N = 512 grid
    from epsoliton.diagnostics import perturbation
    dn, du = perturbation("even", 1e-2, p05.grid)
    return dyn.State(0.0, p05.n + dn, p05.u + du)


def test_comoving_and_lab_frames_share_the_semi_discretisation(p05, bumped05):
    # at one fixed step the frames differ by their time errors only, which
    # fall at fourth order (5.4e-9 at dt = 0.05, 3.3e-10 at 0.025); a
    # different semi-discretisation would leave a gap that does not shrink
    gap = {}
    for dt in (0.05, 0.025):
        lab = _fixed_steps(bumped05, 2.0, p05.K, p05.grid, dt)
        com = _fixed_steps(bumped05, 2.0, p05.K, p05.grid, dt, frame_speed=p05.c)
        a, b = lab.states[-1], com.states[-1]
        assert a.t == b.t
        gap[dt] = max(np.max(np.abs(a.n - b.n)), np.max(np.abs(a.u - b.u)))
    assert gap[0.025] <= 1e-9
    assert gap[0.05] >= 8.0 * gap[0.025]


def test_comoving_time_reversal(p05, bumped05):
    # (n, u, c) -> (n, -u, -c) runs the flow in the moving frame backwards
    g, s = p05.grid, bumped05
    fwd = _fixed_steps(s, 1.0, p05.K, g, 0.05, frame_speed=p05.c).states[-1]
    back = _fixed_steps(dyn.State(0.0, fwd.n, -fwd.u), 1.0, p05.K, g, 0.05,
                        frame_speed=-p05.c).states[-1]
    assert np.max(np.abs(back.n - s.n)) < 1e-9
    assert np.max(np.abs(back.u + s.u)) < 1e-9


def test_comoving_conservation_drift_order(p05, bumped05):
    # the wave alone is nearly still in its frame and its drift of E sits at
    # roundoff (1e-15); with the bump it is 6.1e-10 at dt = 0.2, 2.0e-11 at 0.1
    g = p05.grid
    E0 = dyn.invariants_of(bumped05, p05.K, g)["E"]
    drift = {}
    for dt in (0.2, 0.1):
        end = _fixed_steps(bumped05, 4.0, p05.K, g, dt, frame_speed=p05.c).states[-1]
        drift[dt] = abs(dyn.invariants_of(end, p05.K, g)["E"] - E0)
    assert drift[0.1] > 1e-13
    assert np.log2(drift[0.2] / drift[0.1]) >= 3.5


def test_evolve_reports_poisson_failure_not_blowup(g, fail_poisson_at):
    # the 7th solve is stage 3 of the second step, which starts at t = 0.25
    fail_poisson_at(7)
    traj = dyn.evolve(_zero(g), 1.0, 1.0, g, cfl=np.inf, n_saves=5)
    assert traj.blowup_time is None
    assert traj.failure.startswith("time stepping failed at RK4 stage 3 ")
    assert "t = 0.25" in traj.failure
    assert "fixed point failed" in traj.failure
    assert traj.times[-1] == 0.25


def test_evolve_reports_overflowing_density_as_failure():
    # a finite density whose cold Poisson guess overflows e^phi: the solve
    # fails at the first stage, which is no blow-up of the flow
    g = Grid(20.0, 512)
    n = 1e3 * np.exp(-(g.x / 2) ** 2)
    traj = dyn.evolve(dyn.State(0.0, n, np.zeros(g.N)), 0.1, 1.0, g)
    assert traj.blowup_time is None
    assert "RK4 stage 1 of the step from t = 0:" in traj.failure
    assert "solve_poisson" in traj.failure


# ------------------------------------------------------------ warm starts

@pytest.fixture(scope="module")
def bumped10():
    # the stability experiment's eps = 0.1 box and its even bump
    from epsoliton.diagnostics import perturbation
    from epsoliton.profile import profile_from_eps
    g = Grid(80.0 / np.sqrt(0.1), 1024)
    p = profile_from_eps(0.1, 1.0, g)
    dn, du = perturbation("even", 1e-3, g)
    return dyn.State(0.0, p.n + dn, p.u + du), p


def _cold_stages(monkeypatch):
    """Solve every stage's potential cold, through rhs."""
    monkeypatch.setattr(dyn, "_frozen_rhs", lambda s, phi0, K, grid, jac, c:
                        dyn.rhs(s[:2], K, grid, frame_speed=c))


def test_warm_start_changes_cost_not_answer(bumped10, monkeypatch):
    # the wave's frame solves its first stage cold and the rest through the
    # frozen Jacobian's pass, so the counts are read off meta, and checked
    # against what the two solvers report; the cold run takes rhs at every
    # stage
    s0, p = bumped10
    iterations = []

    def counting(solve):
        def counted(*args, **kwargs):
            out = solve(*args, **kwargs)
            iterations.append(out[1].iterations)
            return out
        return counted

    monkeypatch.setattr(dyn, "solve_poisson", counting(dyn.solve_poisson))
    monkeypatch.setattr(ell.FrozenJacobian, "solve", counting(ell.FrozenJacobian.solve))
    warm = dyn.evolve(s0, 10.0, p.K, p.grid, n_saves=2, frame_speed=p.c)
    meta = warm.meta
    # 1.07 measured; 2.64 with the far-field preconditioner alone, 4.38
    # without the linear response to the stage densities' mismatch too, 4.71
    # without the add-back of the prediction error too, 5.26 chaining each
    # stage from the one before, 8.0 from a cold start
    assert meta["poisson_iterations"] / meta["poisson_solves"] <= 4.5
    assert meta["poisson_solves"] == len(iterations) == 4 * meta["rk4_steps"]
    assert meta["poisson_iterations"] == sum(iterations)
    assert 0.0 < meta["poisson_residual_max"] <= 1e-11

    _cold_stages(monkeypatch)
    cold = dyn.evolve(s0, 10.0, p.K, p.grid, n_saves=2, frame_speed=p.c)
    assert cold.meta["poisson_iterations"] > meta["poisson_iterations"]
    a, b = warm.states[-1], cold.states[-1]
    assert a.t == b.t
    assert np.max(np.abs(a.n - b.n)) <= 1e-9
    assert np.max(np.abs(a.u - b.u)) <= 1e-9


def test_comoving_warm_start_iterations(bumped10):
    # the wave's frame, with the Jacobian frozen on its m = 91 nodes, takes
    # 1.036 iterations a solve (2.32 with the far-field preconditioner alone,
    # 4.45 without the linear response either)
    s0, p = bumped10
    com = dyn.evolve(s0, 20.0, p.K, p.grid, n_saves=2, frame_speed=p.c).meta
    assert com["poisson_iterations"] / com["poisson_solves"] <= 1.2
    assert com["poisson_fallbacks"] == com["poisson_refreezes"] == 0
    assert com["poisson_jacobian_nodes"] == 91


def test_lab_frame_solves_cold_once(bumped10, monkeypatch):
    # the lab frame, where the wave crosses the grid, freezes no block: its
    # warm stages take the scalar inverse frozen at the first stage's
    # potential, 4.26 iterations a solve (5.02 without the linear response),
    # bounded here below that with a margin of 0.34 for roundoff in the
    # iterates; only the first stage calls rhs
    s0, p = bumped10
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return rhs(*args, **kwargs)

    rhs = dyn.rhs
    monkeypatch.setattr(dyn, "rhs", counted)
    lab = dyn.evolve(s0, 20.0, p.K, p.grid, n_saves=2).meta
    assert len(calls) == 1
    assert lab["poisson_iterations"] / lab["poisson_solves"] <= 4.6
    assert lab["poisson_fallbacks"] == 0
    assert lab["poisson_jacobian_nodes"] == lab["poisson_refreezes"] == 0


def test_frozen_jacobian_changes_cost_not_answer(bumped10, monkeypatch):
    # with no block the wave's frame runs the scalar iteration, and the cold
    # run takes rhs at every stage: the final states differ by 8e-13 and
    # 1.1e-12 at T = 20
    s0, p = bumped10
    on = dyn.evolve(s0, 10.0, p.K, p.grid, n_saves=2, frame_speed=p.c)
    monkeypatch.setattr(dyn, "freeze_jacobian", lambda phi, grid, block:
                        ell.freeze_jacobian(phi, grid, block=False))
    off = dyn.evolve(s0, 10.0, p.K, p.grid, n_saves=2, frame_speed=p.c)
    assert on.meta["poisson_jacobian_nodes"] > 0 == off.meta["poisson_jacobian_nodes"]
    assert on.meta["poisson_iterations"] < off.meta["poisson_iterations"]
    _cold_stages(monkeypatch)
    cold = dyn.evolve(s0, 10.0, p.K, p.grid, n_saves=2, frame_speed=p.c)
    b = cold.states[-1]
    for a in (on.states[-1], off.states[-1]):
        assert a.t == b.t
        assert np.max(np.abs(a.n - b.n)) <= 1e-10
        assert np.max(np.abs(a.u - b.u)) <= 1e-10


def test_stalled_frozen_pass_refreezes(p05, bumped05, monkeypatch):
    # every stage after the first, which starts cold and freezes the
    # Jacobian, predicts a far start at which the frozen pass stalls: each
    # restarts cold, a fallback, and freezes the Jacobian again at the cold
    # solution, so the run ends where one that takes rhs at every stage does
    g = p05.grid
    far = np.fft.rfft(10.0 * np.cos(0.5 * g.x))
    runs = {}
    with monkeypatch.context() as m:
        m.setattr(dyn, "_stage_prediction", lambda i, cur, prev, r: far)
        runs["far"] = _fixed_steps(bumped05, 0.25, p05.K, g, 0.25, frame_speed=p05.c)
    _cold_stages(monkeypatch)
    runs["cold"] = _fixed_steps(bumped05, 0.25, p05.K, g, 0.25, frame_speed=p05.c)
    far_run, cold_run = runs["far"].meta, runs["cold"].meta
    assert far_run["poisson_fallbacks"] == far_run["poisson_refreezes"] == 3
    assert cold_run["poisson_fallbacks"] == cold_run["poisson_refreezes"] == 0
    assert far_run["poisson_jacobian_nodes"] == cold_run["poisson_jacobian_nodes"] > 0
    a, b = runs["far"].states[-1], runs["cold"].states[-1]
    assert np.max(np.abs(a.n - b.n)) <= 1e-13 and np.max(np.abs(a.u - b.u)) <= 1e-13


def test_density_response_changes_cost_not_answer(bumped10, monkeypatch):
    # the final states differ by 3e-12 and 4e-12 of max |n| and max |u|
    s0, p = bumped10
    a = dyn.evolve(s0, 2.0, p.K, p.grid, n_saves=2, frame_speed=p.c)
    monkeypatch.setattr(dyn, "_density_response", lambda d_hat, grid: 0.0 * d_hat)
    b = dyn.evolve(s0, 2.0, p.K, p.grid, n_saves=2, frame_speed=p.c)
    assert b.meta["poisson_iterations"] > a.meta["poisson_iterations"]
    x, y = a.states[-1], b.states[-1]
    assert x.t == y.t
    assert np.max(np.abs(x.n - y.n)) <= 1e-10 * np.max(np.abs(y.n))
    assert np.max(np.abs(x.u - y.u)) <= 1e-10 * np.max(np.abs(y.u))


def test_poisson_fallbacks_counted(g, monkeypatch):
    # in the lab frame every stage after the first, which starts cold,
    # predicts the far start that stalls the warm pass (see test_elliptic),
    # so every solve but the first is restarted cold: a fallback, which
    # returns the cold solve exactly, having spent the warm pass's
    # iterations too, and freezes the scalar inverse again.  The cold run's
    # pass solves cold at once, so both runs transform the same fluxes.  One
    # step only: a second would add back this one's prediction error,
    # psi - far, and so start from this step's potentials, which converge
    n0 = 0.5 * np.exp(-(g.x / 2) ** 2)
    far = np.fft.rfft(10.0 * np.cos(0.5 * g.x))
    runs = {}
    with monkeypatch.context() as m:
        m.setattr(dyn, "_stage_prediction", lambda i, cur, prev, r: far)
        runs["far"] = _fixed_steps(dyn.State(0.0, n0, np.zeros(g.N)), 0.25, 1.0, g, 0.25)
    monkeypatch.setattr(ell.FrozenJacobian, "solve", lambda jac, n, phi_hat, phi, rows:
                        (*ell.solve_poisson(n, jac.grid), np.fft.rfft(rows)))
    runs["cold"] = _fixed_steps(dyn.State(0.0, n0, np.zeros(g.N)), 0.25, 1.0, g, 0.25)
    far_run, cold_run = runs["far"], runs["cold"]
    assert far_run.meta["poisson_fallbacks"] == far_run.meta["poisson_solves"] - 1 == 3
    assert far_run.meta["poisson_refreezes"] == 3
    assert far_run.meta["poisson_jacobian_nodes"] == 0
    assert cold_run.meta["poisson_fallbacks"] == 0
    assert far_run.meta["poisson_iterations"] >= cold_run.meta["poisson_iterations"] + 3
    a, b = far_run.states[-1], cold_run.states[-1]
    assert np.array_equal(a.n, b.n) and np.array_equal(a.u, b.u)
