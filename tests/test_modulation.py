import ast

import numpy as np
import pytest

from epsoliton.grid import inner, translate
from epsoliton import dynamics as dyn
from epsoliton import modulation as mod
from epsoliton import profile as prof


@pytest.fixture(scope="module")
def ctx10(p10):
    return mod.ModulationContext(p10)


# --------------------------------------------------------- kernel vectors

def test_biorthogonality(p10, kv10):
    g = p10.grid
    xi = [kv10.xi1, kv10.xi2]
    eta = [kv10.eta1, kv10.eta2]
    for i in range(2):
        for j in range(2):
            v = inner(xi[i], eta[j], g)
            assert abs(v - (1.0 if i == j else 0.0)) < 1e-8


def test_eta2_structure(p10, kv10):
    exact = kv10.theta3 * np.array([p10.u, p10.n])
    assert np.max(np.abs(kv10.eta2 - exact)) < 1e-12


def test_xi1_is_profile_derivative(p10, kv10):
    assert np.max(np.abs(kv10.xi1[0] - p10.dn)) < 1e-12
    assert np.max(np.abs(kv10.xi1[1] - p10.du)) < 1e-12


def test_theta_signs(kv10):
    assert kv10.theta1 == pytest.approx(-kv10.theta3, rel=1e-10)


def test_theta_kdv_scaling():
    # at leading KdV order n_c, u_c ~ eps psi(sqrt(eps) x), so M = int n_c u_c
    # ~ eps^{3/2} and theta3 = 1/M'(c) ~ eps^{-1/2}; int d/dc n_c and
    # int d/dc u_c ~ eps^{-1/2}, so theta2 = theta3^2 (int d/dc n_c)(int d/dc u_c)
    # ~ eps^{-2}.  With log theta = a log eps + b + c1 eps + c2 eps^2, the
    # exponent measured from eps to eps/2 misses a by (c1 eps/2 + 3 c2 eps^2/4)
    # / log 2, so halving eps halves the gap up to a relative
    # 3 (c2/c1) eps/4: at eps = 0.04 the band (0.375, 0.625) admits
    # |c2/c1| up to 8.  A wrong limit exponent leaves the gaps equal.
    eps = (0.04, 0.02, 0.01)
    kvs = [mod.kernel_vectors(prof.profile_from_eps(e, 1.0, prof.default_grid(e)))[0]
           for e in eps]
    for name, limit in (("theta3", -0.5), ("theta2", -2.0)):
        theta = np.array([getattr(kv, name) for kv in kvs])
        assert np.all(theta > 0)
        gap = -np.diff(np.log(theta)) / np.log(2.0) - limit
        assert 0.375 < gap[1] / gap[0] < 0.625, (name, gap)


# ------------------------------------------------------------ family eta

def test_family_eta_at_base_speed_is_the_profiles_own(p10, ctx10):
    # the quadratic weights at c0 are (0, 1, 0): the family returns the base
    # profile's exact eta
    kv, _ = mod.kernel_vectors(p10)
    wave = ctx10.wave(p10.c)
    assert np.array_equal(wave[3:5], kv.eta1) and np.array_equal(wave[5:], kv.eta2)


@pytest.mark.parametrize("s", [-1.0, -0.5, 0.5, 1.0])
def test_family_eta_against_fresh_builds(p10, ctx10, s):
    # at the family's nodes c0 +- DC its eta is a fresh build's to roundoff;
    # halfway between, the quadratic misses by 8.1e-7 of max|eta| at eps = 0.1
    c = p10.c + s * mod.DC
    kv, _ = mod.kernel_vectors(prof.build_profile(c, p10.K, p10.grid))
    wave = ctx10.wave(c)
    for got, want in zip((wave[3:5], wave[5:]), (kv.eta1, kv.eta2)):
        tol = 1e-12 if abs(s) == 1.0 else 5e-6 * np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= tol


# -------------------------------------------------------------- decompose

def test_decompose_shifted_soliton(p10, ctx10, w10):
    g = p10.grid
    x0 = 8 * g.h
    s = dyn.State(0.0, *translate([p10.n, p10.u], x0, g))
    c, D, V, V_phi, rep = mod.decompose(s, ctx10, w10)
    assert abs(c - p10.c) < 1e-9
    assert abs(D - x0) < 1e-9
    assert np.max(np.abs(V)) < 1e-8
    assert rep.residual < 1e-12


def test_decompose_orthogonality_residuals(p10, ctx10, w10, rng):
    g = p10.grid
    pert = 1e-4 * np.exp(-(g.x / 7.0) ** 2) * np.cos(0.3 * g.x)
    s = dyn.State(0.0, p10.n + pert, p10.u - 0.5 * pert)
    c, D, V, V_phi, rep = mod.decompose(s, ctx10, w10)
    wave = ctx10.wave(c)
    r1 = inner(V, w10.zeta_B * wave[3:5], g)
    r2 = inner(V, wave[5:], g)
    assert abs(r1) < 1e-10 and abs(r2) < 1e-10


def test_decompose_equivariance(p10, ctx10, w10):
    g = p10.grid
    pert = 5e-4 * np.exp(-(g.x / 5.0) ** 2)
    s = dyn.State(0.0, p10.n + pert, p10.u)
    c0, D0, _, _, _ = mod.decompose(s, ctx10, w10)
    d = 12 * g.h
    c1, D1, _, _, _ = mod.decompose(dyn.State(0.0, *translate([s.n, s.u], d, g)),
                                    ctx10, w10)
    assert abs(D1 - D0 - d) < 1e-9
    assert abs(c1 - c0) < 1e-9


def test_decompose_vphi_consistency(p10, ctx10, w10):
    # V_phi solves the linearized-compatible constraint:
    # phi[S + V] - phi_c, checked through the nonlinear Poisson residual
    from epsoliton.grid import derivative
    g = p10.grid
    pert = 1e-4 * np.exp(-(g.x / 6.0) ** 2)
    s = dyn.State(0.0, p10.n + pert, p10.u)
    c, D, V, V_phi, _ = mod.decompose(s, ctx10, w10)
    n_c, _, phi_c = ctx10.wave(c)[:3]
    phi_full = phi_c + V_phi
    res = -derivative(phi_full, g, 2) + np.exp(phi_full) - 1.0 - (n_c + V[0])
    assert np.max(np.abs(res)) < 1e-4


def test_newton_jacobian_near_identity(p10, ctx10, w10):
    # the 2x2 Newton Jacobian at the exact soliton, scaled by its diagonal,
    # is identity plus a correction of spectral radius < 0.5
    g = p10.grid
    s = dyn.State(0.0, p10.n.copy(), p10.u.copy())
    U = np.array([s.n, s.u])
    h = 1e-7

    def F(D, c):
        wave = ctx10.wave(c)
        V = translate(U, -D, g) - wave[:2]
        return np.array([inner(V, w10.zeta_B * wave[3:5], g), inner(V, wave[5:], g)])

    r0 = F(0.0, p10.c)
    J = np.column_stack([(F(h, p10.c) - r0) / h, (F(0.0, p10.c + h) - r0) / h])
    M = J / np.diag(J)[:, None]
    corr = M - np.eye(2)
    assert np.max(np.abs(np.linalg.eigvals(corr))) < 0.5


def test_decompose_far_state_fails(p10, ctx10, w10):
    g = p10.grid
    s = dyn.State(0.0, p10.n + 0.5 * np.exp(-(g.x / 4.0) ** 2), p10.u)
    # Newton either stagnates or runs c out of the family window; both are
    # explicit failures
    with pytest.raises(RuntimeError, match="^decompose: "):
        mod.decompose(s, ctx10, w10)


def test_decompose_without_convergence_names_the_residual_history(
        p10, ctx10, w10, monkeypatch):
    # one Newton iteration cannot reach the tolerance from a perturbed state
    g = p10.grid
    pert = 1e-4 * np.exp(-(g.x / 6.0) ** 2)
    s = dyn.State(0.0, p10.n + pert, p10.u)
    monkeypatch.setattr(mod, "_MAXITER", 1)
    with pytest.raises(RuntimeError, match=r"^decompose: no convergence in 1 Newton "
                                           r"iterations, residual history \[\S+\]$"):
        mod.decompose(s, ctx10, w10)


def _history(message):
    """The residual history a decompose failure names, as a Python list."""
    return ast.literal_eval(message.split("residual history ")[1])


def test_decompose_stagnation_names_the_residual_history(p10, ctx10, w10, monkeypatch):
    # no residual reaches a zero tolerance: Newton goes on at roundoff until
    # it stops halving
    g = p10.grid
    s = dyn.State(0.0, *translate([p10.n, p10.u], 8 * g.h, g))
    monkeypatch.setattr(mod, "_TOL", 0.0)
    with pytest.raises(RuntimeError, match="^decompose: Newton stagnated") as e:
        mod.decompose(s, ctx10, w10)
    history = _history(str(e.value))
    assert len(history) > 4 and all(type(r) is float for r in history)


def test_decompose_singular_jacobian_names_the_residual_history(
        p10, ctx10, w10, monkeypatch):
    # a translate that ignores D leaves the residuals blind to D: the
    # Jacobian's D column is zero
    g = p10.grid
    s = dyn.State(0.0, *translate([p10.n, p10.u], 8 * g.h, g))
    monkeypatch.setattr(mod, "translate", lambda U, D, grid: U)
    with pytest.raises(RuntimeError, match="^decompose: singular Newton Jacobian") as e:
        mod.decompose(s, ctx10, w10)
    history = _history(str(e.value))
    assert len(history) == 1 and type(history[0]) is float


def test_wave_rejects_c_outside_the_window(p10, ctx10):
    with pytest.raises(ValueError, match="outside the interpolation window"):
        ctx10.wave(p10.c + 1.6 * mod.DC)


# ------------------------------------------------------------------ track

def test_track_exact_soliton(p05, w05):
    # eps = 0.05: the profile is spectrally resolved at default resolution,
    # so the evolved soliton is exact to solver tolerance
    g = p05.grid
    ctx = mod.ModulationContext(p05)
    traj = dyn.evolve(dyn.State(0.0, p05.n.copy(), p05.u.copy()), 6.0, p05.K, g, n_saves=7)
    tr = mod.track(traj, ctx, w05)
    assert tr.failure is None
    assert np.max(np.abs(np.gradient(tr.D, tr.t) - tr.c)) < 1e-6
    assert np.max(np.abs(np.gradient(tr.c, tr.t))) < 1e-6
    assert tr.V.shape == (len(tr.t), 3, g.N)
