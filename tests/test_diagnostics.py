"""Virial functionals, local-decay series, and the stability experiment."""
import numpy as np
import pytest

from epsoliton import diagnostics as dg, dynamics, elliptic
from epsoliton.grid import Grid, integrate, norms, running_integral


def _test_V(p, scale=1e-3):
    x = p.grid.x
    Vn = scale * np.exp(-x ** 2 / 20)
    Vu = scale * np.tanh(x / 4) * np.exp(-x ** 2 / 30)
    Vphi, _ = elliptic.solve_poisson(p.n + Vn, p.grid)
    return np.array([Vn, Vu, Vphi - p.phi])


# ------------------------------------------------------------------ virials

def _energy_difference(V, p):
    # pointwise e(S_c + V) - e(S_c) of one perturbation V = (V_n, V_u, V_phi)
    return (dynamics.energy_density(p.n + V[0], p.u + V[1], p.phi + V[2], p.K, p.grid)
            - dynamics.energy_density(p.n, p.u, p.phi, p.K, p.grid))


def test_energy_difference_zero(p10):
    V = np.zeros((3, p10.grid.N))
    assert np.max(np.abs(_energy_difference(V, p10))) == 0.0


def test_virial_I_zero_and_invalid(p10, w10):
    V = np.zeros((2, 3, p10.grid.N))
    assert [list(f) for f in dg.virial_series(V, p10, w10)] == [[0.0, 0.0]] * 3


def test_virial_I_parity(p10, w10):
    # even V against the odd weights phi_i: the integral vanishes
    x = p10.grid.x
    Vn = 1e-3 * np.exp(-x ** 2 / 20)
    V = np.array([Vn, 0.5 * Vn, 0.2 * Vn])
    ref = float(integrate(np.abs(w10.phi1 * _energy_difference(V, p10)),
                          p10.grid))
    I1, I2, _ = dg.virial_series(V[None], p10, w10)
    assert abs(I1[0]) < 1e-10 * ref
    assert abs(I2[0]) < 1e-10 * ref


def test_virial_J_bound(p10, w10):
    V = _test_V(p10)
    bound = np.max(np.abs(w10.psi_weight)) * float(
        integrate(np.abs(_energy_difference(V, p10)), p10.grid))
    _, _, J = dg.virial_series(V[None], p10, w10)
    assert abs(J[0]) <= bound + 1e-16


def test_virial_series_over_the_stack_is_each_snapshots_integral(p10, w10):
    # one energy density over the whole stack gives, bit for bit, each
    # snapshot's own integral of the weight times e(S_c + V) - e(S_c)
    V = _test_V(p10)
    stack = np.array([V, 0.5 * V, -2.0 * V])
    series = dg.virial_series(stack, p10, w10)
    for weight, got in zip((w10.phi1, w10.phi2, w10.psi_weight), series):
        want = [integrate(weight * _energy_difference(v, p10), p10.grid) for v in stack]
        assert np.array_equal(got, want)


# -------------------------------------------------------------- local decay

def _local(V, w):
    return norms(V, w)["weighted_local"]


def test_local_decay_zero_and_homogeneous(p10, w10):
    g = p10.grid
    ts = np.linspace(0.0, 4.0, 5)
    assert _local(np.zeros((3, g.N)), w10) == 0.0
    assert np.max(running_integral(np.zeros(5), ts)) == 0.0
    V = _test_V(p10)
    s1 = np.full(5, _local(V, w10))
    s2 = np.full(5, _local(2.0 * V, w10))
    assert np.allclose(s2, 4.0 * s1, rtol=1e-12)
    r1 = running_integral(s1, ts)
    assert np.all(np.diff(r1) >= 0)
    assert r1[-1] == pytest.approx(4.0 * s1[0], rel=1e-14)
    # the trapezoid rule on t^2 over unit steps: 0, 1/2, 3, 19/2, 22
    assert list(running_integral(ts ** 2, ts)) == [0.0, 0.5, 3.0, 9.5, 22.0]


def test_local_series_match_direct_formula(grid10):
    # the stability experiment reads the local series off the norm bundles;
    # it must equal, bit for bit, the direct sum it used to recompute
    cfg = dg.StabilityConfig(K=1.0, eps=0.1, delta=1e-3, shape="even", T=2.0, n_saves=5,
                             grid=grid10)
    rep = dg.stability_experiment(cfg)
    g, a = grid10, cfg.rho * np.sqrt(cfg.eps)    # default_weights' a_rate
    wloc = np.exp(-2.0 * a * np.sqrt(1.0 + g.x ** 2))
    series = np.array([float(integrate(wloc * (np.abs(V) ** 2).sum(axis=0), g))
                       for V in rep.track.V])
    running = np.concatenate([[0.0], np.cumsum(
        (series[1:] + series[:-1]) / 2 * np.diff(rep.track.t))])
    assert len(series) == 5
    assert np.array_equal(rep.series["weighted_local"], series)
    assert np.array_equal(rep.series["local_running"], running)


# ------------------------------------------------------------- window ratio

def test_virial_monitor_sign_convention(p10, w10):
    # V = 0 and I1 = -eps t: -dI1/dt / eps = 1 against a constant
    # ||V||_Sigma1 = 1, so every window of the Sigma1 inequality reads C = 1
    t = np.linspace(0.0, 8.0, 9)
    zero = np.zeros(len(t))
    V = np.zeros((len(t), 3, p10.grid.N))
    series = {"I1": -p10.eps * t, "I2": zero, "J": zero, "Sigma1": np.ones(len(t)),
              "Sigma2": zero, "Sigma_tilde": zero}
    monitors = dg.virial_ratio_monitor(t, V, p10, w10, series)
    s1 = monitors[0]
    assert s1.name == "Sigma1"
    assert s1.C == pytest.approx(1.0, rel=1e-12)
    assert s1.stable and not s1.inconclusive
    assert s1.fits == pytest.approx([1.0, 1.0, 1.0], rel=1e-12) and s1.reason is None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_virial_monitor_below_five_snapshots_is_inconclusive(p10, w10, n):
    # below five snapshots the quarter index (n - 1) // 4 is 0: the three
    # trailing windows were one window [t_0, T] counted three times, so
    # "two windows agree within 2x" always held
    t = np.linspace(0.0, 8.0, n)
    zero = np.zeros(n)
    V = np.zeros((n, 3, p10.grid.N))
    series = {"I1": -p10.eps * t, "I2": zero, "J": zero, "Sigma1": np.ones(n),
              "Sigma2": zero, "Sigma_tilde": zero}
    monitors = dg.virial_ratio_monitor(t, V, p10, w10, series)
    for m in monitors:
        assert not m.stable and m.inconclusive
        assert len(m.fits) <= 1 and m.reason == "fewer than five snapshots: one window"
    assert monitors[0].fits == pytest.approx([1.0], rel=1e-12)


@pytest.mark.parametrize("I1_over_eps, fits, reason", [
    # -dI1/dt / eps = -1: every window's right side is negative
    (lambda t: t, [], "no window has a positive right side"),
    # -I1/eps = -(t - 5.5)^2 rises over [2, 8] only: one window of three
    (lambda t: (t - 5.5) ** 2, [6.0 / 6.0], "1 of 3 windows have a positive right side"),
    # -I1/eps = e^t: the windows [2, 8], [4, 8], [6, 8] read fits 2.6x apart
    (lambda t: -np.exp(t), [k / (np.exp(8.0) - np.exp(8.0 - k)) for k in (6.0, 4.0, 2.0)],
     "window fits spread 2.6×, above 2×"),
])
def test_virial_monitor_names_why_it_is_not_stable(p10, w10, I1_over_eps, fits, reason):
    # V = 0 and ||V||_Sigma1 = 1: each window's left side is its length, and
    # its right side the rise of -I1/eps over it
    t = np.linspace(0.0, 8.0, 9)
    zero = np.zeros(len(t))
    V = np.zeros((len(t), 3, p10.grid.N))
    series = {"I1": p10.eps * I1_over_eps(t), "I2": zero, "J": zero,
              "Sigma1": np.ones(len(t)), "Sigma2": zero, "Sigma_tilde": zero}
    s1 = dg.virial_ratio_monitor(t, V, p10, w10, series)[0]
    assert s1.fits == pytest.approx(fits, rel=1e-12) and s1.reason == reason
    assert not s1.stable and s1.C == max(s1.fits, default=0.0)
    assert s1.inconclusive == (not fits)


def test_window_ratio_trapezoid_order():
    # sin on [0, pi] over the monitor's trailing windows [t_i0, pi], as
    # endpoint differences of the running integral: the exact integral is
    # 1 + cos(t_i0), and doubling the sampling quarters the error
    errs = {}
    for n in (41, 81):
        t = np.linspace(0.0, np.pi, n)
        run = running_integral(np.sin(t), t)
        q = (n - 1) // 4
        errs[n] = []
        for i0 in (q, 2 * q, 3 * q):
            window = run[n - 1] - run[i0]
            exact = 1.0 + np.cos(t[i0])
            assert abs(window - exact) < (t[1] - t[0]) ** 2
            errs[n].append(abs(window - exact))
    for coarse, fine in zip(errs[41], errs[81]):
        assert 3.9 < coarse / fine < 4.1


def test_virial_ratio_monitor_shapes(p10, w10):
    t = np.linspace(0.0, 8.0, 9)
    V = _test_V(p10)
    Vs = np.exp(-0.3 * t)[:, None, None] * V
    series = dict(zip(("I1", "I2", "J"), dg.virial_series(Vs, p10, w10)),
                  **dg.norm_bundle_series(Vs, w10))
    monitors = dg.virial_ratio_monitor(t, Vs, p10, w10, series)
    assert [m.name for m in monitors] == ["Sigma1", "Sigma2", "Sigma_tilde"]
    for m in monitors:
        assert np.isfinite(m.C) and m.C >= 0.0  # a ratio of nonnegative window integrals
        assert isinstance(m.stable, bool) and isinstance(m.inconclusive, bool)


# ------------------------------------------------------------ perturbations

def test_perturbation_shapes(grid10):
    x = grid10.x
    assert dg.SHAPES == ("even", "odd", "shift", "kick")   # what the CLI accepts
    for shape in dg.SHAPES:
        dn, du = dg.perturbation(shape, 1e-3, grid10)
        assert dn.shape == x.shape and du.shape == x.shape
        assert max(np.max(np.abs(dn)), np.max(np.abs(du))) <= 1e-3 + 1e-15
    dn, _ = dg.perturbation("even", 1e-3, grid10)
    assert abs(dn[grid10.N // 2] - 1e-3) < 1e-15          # peak at x = 0
    assert np.allclose(dn[1:], dn[1:][::-1])              # even
    dn, _ = dg.perturbation("odd", 1e-3, grid10)
    assert np.allclose(dn[1:], -dn[1:][::-1])             # odd
    dn, _ = dg.perturbation("shift", 1e-3, grid10)
    assert abs(grid10.x[np.argmax(dn)] - 10.0) < grid10.h
    dn, du = dg.perturbation("kick", 1e-3, grid10)
    assert np.max(np.abs(dn)) == 0.0 and np.max(du) > 0
    with pytest.raises(ValueError):
        dg.perturbation("banana", 1e-3, grid10)


# --------------------------------------------------------------- experiment

def test_stability_config_validation():
    g = Grid(10.0, 16)
    given = dict(grid=g, K=1.0, eps=0.1, delta=1e-3, shape="even", n_saves=5)
    for bad in ({"K": -1.0}, {"eps": 0.0}, {"delta": -1e-3}):
        with pytest.raises(ValueError):
            dg.StabilityConfig(**{**given, **bad})
    cfg = dg.StabilityConfig(**{**given, "eps": 0.04})
    assert abs(cfg.T - 1000.0) < 1e-12
    # the settings every caller passes have no defaults to disagree with the CLI's
    for key in ("K", "eps", "delta", "shape", "n_saves"):
        with pytest.raises(TypeError):
            dg.StabilityConfig(**{k: v for k, v in given.items() if k != key})


def test_stability_experiment_unperturbed_trivial(grid10, monkeypatch):
    from epsoliton import modulation
    from epsoliton import profile as prof
    builds, seen = [], {}
    build = prof.build_profile

    def counted_build(*args, **kwargs):
        builds.append(args[0])
        return build(*args, **kwargs)

    def keep(key, fn):
        def wrapped(*args, **kwargs):
            seen[key] = (args, fn(*args, **kwargs))
            return seen[key][1]
        return wrapped

    monkeypatch.setattr(prof, "build_profile", counted_build)
    monkeypatch.setattr(modulation, "build_profile", counted_build)
    monkeypatch.setattr(prof, "profile_from_eps", keep("profile", prof.profile_from_eps))
    monkeypatch.setattr(modulation, "track", keep("track", modulation.track))
    cfg = dg.StabilityConfig(K=1.0, eps=0.1, delta=0.0, shape="even", T=2.0, n_saves=3,
                             grid=grid10)
    rep = dg.stability_experiment(cfg)
    # the base profile, then c0 -+ dc for the modulation context, which
    # reuses the base profile instead of building it again
    assert len(builds) == 3
    p = seen["profile"][1]
    ctx = seen["track"][0][1]
    assert ctx.p0 is p
    assert rep.verdicts["decompose_ok"]
    assert rep.verdicts["local_decay"]
    assert rep.verdicts["running_integral_saturates"]
    assert rep.verdicts["c_converges"]
    assert rep.verdicts["virial_constants_ok"]
    assert not rep.blown_up and rep.error is None


def test_stability_experiment_computes_each_series_once(grid10, monkeypatch):
    # one norm bundle over the whole stack of snapshots (shared by the
    # bundle series and the virial monitor), and two energy densities for all
    # the virial functionals: e(S_c + V) over the stack, and e(S_c)
    from epsoliton import dynamics, grid
    norm_calls, energy_calls = [], []
    bundle, energy = grid.norms, dynamics.energy_density

    def counted_norms(*args, **kwargs):
        norm_calls.append(1)
        return bundle(*args, **kwargs)

    def counted_energy(*args, **kwargs):
        energy_calls.append(1)
        return energy(*args, **kwargs)

    for mod in (grid, dg):
        monkeypatch.setattr(mod, "norms", counted_norms)
    monkeypatch.setattr(dynamics, "energy_density", counted_energy)
    cfg = dg.StabilityConfig(K=1.0, eps=0.1, delta=1e-3, shape="even", T=2.0, n_saves=5,
                             grid=grid10)
    rep = dg.stability_experiment(cfg)
    n = len(rep.track.t)
    assert n == 5 and rep.verdicts["decompose_ok"]
    assert len(norm_calls) == 1
    assert len(energy_calls) == 2
    assert len(rep.series["Sigma1"]) == n and len(rep.series["I1"]) == n


@pytest.mark.parametrize("n_saves", [3, 4])
def test_stability_verdicts_below_five_saves(n_saves):
    # one virial window is no evidence, and with fewer than four snapshots
    # the running integral has no quarter increments to compare
    cfg = dg.StabilityConfig(K=1.0, eps=0.1, delta=1e-3, shape="even", T=5.0, n_saves=n_saves,
                             grid=Grid(40.0 / np.sqrt(0.1), 512))
    rep = dg.stability_experiment(cfg)
    assert rep.verdicts["decompose_ok"]
    assert all(m.inconclusive for m in rep.monitors)
    assert rep.verdicts["virial_constants_ok"] is False
    if n_saves == 3:
        assert rep.verdicts["running_integral_saturates"] is False


def test_local_decay_negative_control():
    # at T = 2 the bump has not left the window: the local norm at T keeps
    # 87 % of its value at t = 0 (measured; with three saves the first and
    # the last tenth are one snapshot each), far above the 10 % the verdict
    # asks for
    cfg = dg.StabilityConfig(K=1.0, eps=0.1, delta=1e-3, shape="even", T=2.0, n_saves=3,
                             grid=Grid(60.0, 512))
    rep = dg.stability_experiment(cfg)
    local = rep.series["weighted_local"]
    assert rep.verdicts["decompose_ok"] and local[-1] > 0.5 * local[0]
    assert rep.verdicts["local_decay"] is False


def test_stability_experiment_far_data_degrades(grid10):
    cfg = dg.StabilityConfig(K=1.0, eps=0.1, delta=0.5, shape="even", T=1.0, n_saves=2,
                             grid=grid10)
    rep = dg.stability_experiment(cfg)
    assert rep.verdicts["decompose_ok"] is False
    assert rep.error is not None
    # tracking stopped at the first snapshot: an empty stack of perturbations
    assert rep.track.V.shape == (0, 3, grid10.N)


def test_stability_experiment_names_a_tracking_stop_midway(grid10, monkeypatch):
    # a stop after the first snapshot is an error too, naming the snapshot's
    # t and decompose's message; the snapshots before it are kept
    from epsoliton import modulation
    decompose, seen = modulation.decompose, []

    def failing_third(state, *args, **kwargs):
        seen.append(state.t)
        if len(seen) == 3:
            raise RuntimeError("decompose: Newton stagnated")
        return decompose(state, *args, **kwargs)

    monkeypatch.setattr(modulation, "decompose", failing_third)
    cfg = dg.StabilityConfig(K=1.0, eps=0.1, delta=1e-3, shape="even", T=2.0, n_saves=5,
                             grid=grid10)
    rep = dg.stability_experiment(cfg)
    stop = f"modulation tracking failed at t = {seen[2]:g}: decompose: Newton stagnated"
    assert len(rep.track.t) == 2 and seen[2] > 0 and rep.track.failure == stop
    assert rep.verdicts["decompose_ok"] is False
    assert rep.error == stop

def test_stability_experiment_fails_before_the_flow_without_a_wave_at_c0_plus_dc(
        p10, monkeypatch):
    # the modulation context is built before the flow, so a wave missing at
    # c0 + DC stops the experiment before its first step
    from epsoliton import modulation
    build = modulation.build_profile

    def no_wave_above(c, *args):
        if c > p10.c:
            raise ValueError("no solitary wave above c0")
        return build(c, *args)

    def no_flow(*args, **kwargs):
        raise AssertionError("the nonlinear flow started")

    monkeypatch.setattr(modulation, "build_profile", no_wave_above)
    monkeypatch.setattr(dynamics, "evolve", no_flow)
    cfg = dg.StabilityConfig(K=1.0, eps=0.1, delta=1e-3, shape="even", T=2.0, n_saves=3,
                             grid=p10.grid)
    with pytest.raises(ValueError, match="no solitary wave above c0"):
        dg.stability_experiment(cfg, p10)


def test_stability_experiment_reports_solver_failure(grid10, fail_poisson_at):
    # the 10th solve is stage 2 of the third step
    fail_poisson_at(10)
    cfg = dg.StabilityConfig(K=1.0, eps=0.1, delta=1e-3, shape="even", T=2.0, n_saves=3,
                             grid=grid10)
    rep = dg.stability_experiment(cfg)
    assert not rep.blown_up and rep.blowup_time is None
    assert "RK4 stage 2" in rep.error and "t = " in rep.error
    assert rep.verdicts["decompose_ok"] is False
