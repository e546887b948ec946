import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epsoliton.grid import (Grid, antiderivative, derivative, integrate, inner, l2a,
                            translate, zeta, WeightSet, default_weights, norms,
                            sigma_tilde_sq)


@pytest.fixture(scope="module")
def g():
    return Grid(L=20.0, N=512)


@pytest.fixture(scope="module")
def w(g, weight_settings):
    return default_weights(0.1, g, **weight_settings)


def _l2norm(v, g):
    return np.sqrt(integrate(v ** 2, g).sum())


# ------------------------------------------------------------ derivative

def test_derivative_trig_exact(g):
    f = np.sin(np.pi * g.x / g.L)
    df = derivative(f, g, 1)
    assert np.max(np.abs(df - np.pi / g.L * np.cos(np.pi * g.x / g.L))) < 1e-12


def test_derivative_constant(g):
    assert np.max(np.abs(derivative(np.ones(g.N), g, 1))) < 1e-13


def test_derivative_gaussian_second(g):
    f = np.exp(-g.x ** 2)
    d2 = derivative(f, g, 2)
    exact = (4 * g.x ** 2 - 2) * np.exp(-g.x ** 2)
    assert np.max(np.abs(d2 - exact)) < 1e-8


def test_derivative_real_path_matches_complex_fft(g):
    f = np.exp(-(g.x / 2) ** 2) * np.sin(3 * g.x)
    h = np.cos(g.x) / np.cosh(g.x / 3)
    k = 2.0 * np.pi * np.fft.fftfreq(g.N, d=g.h)
    for order in (1, 2):
        sym = (1j * k) ** order
        if order % 2:
            sym[g.N // 2] = 0.0
        ref_f = np.fft.ifft(sym * np.fft.fft(f)).real
        ref_h = np.fft.ifft(sym * np.fft.fft(h)).real
        scale = np.max(np.abs(ref_f))
        assert np.max(np.abs(derivative(f, g, order) - ref_f)) < 1e-12 * scale
        # rows of a 2-D array are differentiated independently
        both = derivative(np.array([f, h]), g, order)
        assert np.max(np.abs(both - np.array([ref_f, ref_h]))) < 1e-12 * scale


def test_grid_arrays_cached_and_read_only(g):
    assert g.x is g.x and g.k is g.k and g.symbol(1) is g.symbol(1)
    assert g.k2 is g.k2 and g.dealiased_d1 is g.dealiased_d1
    for arr in (g.x, g.k, g.symbol(2), g.k2, g.dealiased_d1,
                g.l1_weights):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    with pytest.raises(ValueError):
        g.x += 1.0
    assert g.x[0] == -g.L
    assert g == Grid(L=20.0, N=512)   # cached attributes are not fields


def test_derivative_rejects_nonfinite(g):
    f = np.ones(g.N)
    f[3] = np.nan
    with pytest.raises(ValueError):
        derivative(f, g, 1)


@pytest.mark.parametrize("call, message", [
    (lambda g: Grid(0.0, 16), "L must be positive"),
    (lambda g: derivative(np.ones(g.N), g, order=3), "order must be 1 or 2"),
    (lambda g: integrate(np.full(g.N, np.inf), g), "non-finite input to integrate"),
], ids=["L0", "order3", "integrate_inf"])
def test_grid_guards(g, call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call(g)


def test_derivative_rejects_complex(g):
    with pytest.raises(ValueError, match="complex input"):
        derivative(np.exp(1j * g.x), g, 1)


def test_leibniz_rule_spectral(g):
    k1, k2 = 2 * np.pi / g.L, 3 * np.pi / g.L
    f, h = np.sin(k1 * g.x), np.cos(k2 * g.x)
    lhs = derivative(f * h, g, 1)
    rhs = derivative(f, g, 1) * h + f * derivative(h, g, 1)
    assert np.max(np.abs(lhs - rhs)) < 1e-11


# ------------------------------------------------------------ antiderivative

def test_antiderivative_inverts_derivative(g):
    f = np.exp(np.sin(np.pi * g.x / g.L)) * np.cos(3 * np.pi * g.x / g.L)
    F = antiderivative(derivative(f, g, 1), g)
    assert np.max(np.abs(F - (f - f[0]))) < 1e-12


def test_antiderivative_sech2():
    # a non-periodic antiderivative: the mean carries the ramp (x + L)
    g = Grid(L=20.0, N=256)
    F = antiderivative(1.0 / np.cosh(g.x) ** 2, g)
    assert np.max(np.abs(F - (np.tanh(g.x) + np.tanh(20.0)))) < 1e-12


def test_antiderivative_constant_rows(g):
    F = antiderivative(np.array([np.full(g.N, 2.5), np.full(g.N, -1.0)]), g)
    assert np.max(np.abs(F - np.array([2.5, -1.0])[:, None] * (g.x + g.L))) < 1e-12


# ------------------------------------------------------------ quadrature

def test_integrate_constant(g):
    assert integrate(np.ones(g.N), g) == pytest.approx(2 * g.L, rel=1e-14)


def test_integrate_sech2(g):
    val = integrate(1.0 / np.cosh(g.x) ** 2, g)
    assert val == pytest.approx(2 * np.tanh(20.0), rel=1e-12)


def test_inner_orthogonality(g):
    k = 2 * np.pi / (2 * g.L)
    assert abs(inner(np.sin(k * g.x), np.cos(k * g.x), g)) < 1e-14


def test_inner_is_bilinear_no_conjugation(g):
    f = 1j * np.exp(-g.x ** 2)
    # bilinear pairing: <if, if> = -<f, f>, not +|f|^2
    assert inner(f, f, g).real < 0
    # linear in each argument, also on rows (the virial cross terms)
    F = np.array([np.cos(g.x), np.exp(-g.x ** 2)])
    V = np.array([np.exp(-(g.x - 1.0) ** 2), np.cos(g.x)])
    assert inner(F, 3.0 * V, g) == pytest.approx(3.0 * inner(F, V, g), rel=1e-12)


# ------------------------------------------------------------ weights

def test_zeta_far_value():
    assert zeta(np.array([20.0]), 10.0)[0] == pytest.approx(np.exp(-2.0), rel=1e-12)


def test_zeta_plateau_even_monotone(g):
    z = zeta(g.x, 10.0)
    assert np.all(z[np.abs(g.x) <= 1.0] == 1.0)
    assert np.max(np.abs(z[1:] - z[1:][::-1])) < 1e-14  # even (node 0 = -L unpaired)
    right = z[g.x >= 0]
    assert np.all(np.diff(right) <= 1e-15)


def test_weightset_basics(g):
    w = WeightSet(A=100.0, B=10.0, A1=10 ** 0.6, kappa=0.1, a_rate=0.1,
                  eps=0.1, grid=g)
    i0 = int(np.argmin(np.abs(g.x)))
    assert w.phi1[i0] == 0.0 and w.phi2[i0] == 0.0
    assert np.max(np.abs(w.theta1 + w.theta2 - 1.0)) < 1e-15


def test_psi_weight_derivative_analytic(g, w):
    # psi is not periodic on the box: verify psi' = sech^2(eps*kappa*x) by
    # centered differences at interior nodes, never spectrally.
    ek = 0.1 * w.kappa
    dpsi = (w.psi_weight[2:] - w.psi_weight[:-2]) / (2 * g.h)
    exact = 1.0 / np.cosh(ek * g.x[1:-1]) ** 2
    assert np.max(np.abs(dpsi - exact)) < 1e-6


def test_weights_deterministic(g, weight_settings):
    w1 = default_weights(0.1, g, **weight_settings)
    w2 = default_weights(0.1, g, **weight_settings)
    for name in ("zeta_A", "zeta_B", "phi1", "phi2", "psi_weight",
                 "sech_weight"):
        assert np.array_equal(getattr(w1, name), getattr(w2, name))


def test_weights_positivity_validation(g):
    with pytest.raises(ValueError):
        WeightSet(A=-1.0, B=10.0, A1=4.0, kappa=0.1, a_rate=0.1,
                  eps=0.1, grid=g)


def test_weights_reject_a_rate_that_overflows(weight_settings):
    # l2a squares e^{a_rate x} on |x| <= WINDOW L: on linear's default box
    # (eps = 0.05, L = 40/sqrt(eps)) rho must stay below
    # ln(float max) / (2 WINDOW 40) = 11.09, to roundoff at the bound
    from epsoliton.grid import A_RATE_L_MAX
    from epsoliton.profile import default_grid
    g = default_grid(0.05)
    bound = A_RATE_L_MAX / (np.sqrt(0.05) * g.L)
    assert bound == pytest.approx(11.0904, abs=1e-4)
    settings = dict(weight_settings, rho=bound * (1 + 1e-12))
    with pytest.raises(ValueError, match="overflows the weight on"):
        default_weights(0.05, g, **settings)
    w = default_weights(0.05, g, **dict(settings, rho=bound * (1 - 1e-12)))
    V = np.ones((3, g.N)) * 1e-3
    assert np.isfinite(l2a(V, w.a_rate, g)).all()


# ------------------------------------------------------------ norms

def test_norms_zero(g, w):
    out = norms(np.zeros((3, g.N)), w)
    assert all(v == 0.0 for v in out.values())


def test_norms_derivative_term_acts_on_vphi_only(g, w):
    sech = 1.0 / np.cosh(g.x)
    V = np.array([sech, sech, np.zeros(g.N)])
    out = norms(V, w)
    manual = _l2norm(w.theta1 * w.zeta_A * V, g)
    assert out["Sigma1"] == pytest.approx(manual, rel=1e-12)


def test_norms_l2a_closed_form(g):
    w = WeightSet(A=100.0, B=10.0, A1=10 ** 0.6, kappa=0.1, a_rate=0.1,
                  eps=0.1, grid=g)
    V = np.zeros((3, g.N))
    V[0] = 1.0
    out = norms(V, w)
    Lw = 0.8 * g.L  # interior window
    exact = np.sqrt((np.exp(2 * 0.1 * Lw) - np.exp(-2 * 0.1 * Lw)) / 0.2)
    assert out["L2a"] == pytest.approx(exact, rel=2e-2)


def test_norms_component_count_rejected(g, w):
    for shape in ((5, g.N), (2, g.N), (g.N,), (3, 2, g.N)):
        with pytest.raises(ValueError):
            norms(np.zeros(shape), w)


def _three_snapshots(g):
    x = g.x
    V = np.array([np.exp(-x ** 2 / 20), np.tanh(x / 4) * np.exp(-x ** 2 / 30),
                  np.cos(x) / np.cosh(x / 3)])
    return np.array([V, -0.5 * V + 0.1 * V[::-1], 2.0 * np.roll(V, 7, axis=-1)])


def test_norms_over_a_stack_are_each_snapshots_formulas(g, w):
    # the bundle of a stack (S, 3, N) is, bit for bit, each snapshot's own
    # bundle by the direct formulas: one call serves the whole track
    Vs = _three_snapshots(g)
    out = norms(Vs, w)
    assert all(v.shape == (3,) for v in out.values())
    local = np.exp(-2.0 * w.a_rate * np.sqrt(1.0 + g.x ** 2))
    window = np.exp(w.a_rate * g.x) * (np.abs(g.x) <= 0.8 * g.L)
    for i, V in enumerate(Vs):
        for k, theta in ((1, w.theta1), (2, w.theta2)):
            wz = theta * w.zeta_A
            direct = _l2norm(wz * V, g) + _l2norm(derivative(wz * V[2], g), g)
            assert out[f"Sigma{k}"][i] == direct
        assert out["Sigma_tilde"][i] == _l2norm(w.sech_weight * V, g)
        assert out["L2a"][i] == np.sqrt(integrate(((window * V) ** 2).sum(axis=0), g))
        assert out["weighted_local"][i] == integrate(local * (V ** 2).sum(axis=0), g)
    assert np.array_equal(out["L2a"], l2a(Vs, w.a_rate, g))


def test_sigma_tilde_is_one_form(g, w):
    # Sigma-tilde squared is the row sum of sigma_tilde_sq, which is the
    # integral of sech^2(eps kappa x) V_j^2 for each row of any stack
    Vs = _three_snapshots(g)
    rows = sigma_tilde_sq(Vs, w)
    assert rows.shape == (3, 3)
    sech2 = 1.0 / np.cosh(w.eps * w.kappa * g.x) ** 2
    assert np.allclose(rows, integrate(sech2 * Vs ** 2, g), rtol=1e-14, atol=0.0)
    assert np.allclose(norms(Vs, w)["Sigma_tilde"] ** 2, rows.sum(axis=1),
                       rtol=1e-15, atol=0.0)
    assert np.array_equal(sigma_tilde_sq(Vs[:, 2], w), rows[:, 2])


# ------------------------------------------------------------ properties

@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
def test_derivative_resolved_modes_property(m1, m2):
    g = Grid(L=10.0, N=256)
    k1, k2 = m1 * np.pi / g.L, m2 * np.pi / g.L
    f = np.sin(k1 * g.x) * np.cos(k2 * g.x)
    # spectral derivative of a resolved trigonometric product is exact
    exact = (k1 * np.cos(k1 * g.x) * np.cos(k2 * g.x)
             - k2 * np.sin(k1 * g.x) * np.sin(k2 * g.x))
    assert np.max(np.abs(derivative(f, g, 1) - exact)) < 1e-10


def test_translate_rows_exactly(g):
    f = np.exp(-(g.x / 2) ** 2) * np.sin(3 * g.x)
    h = np.cos(np.pi * g.x / g.L)
    # a whole number of cells is a cyclic roll of the nodes
    out = translate(np.array([f, h]), 5 * g.h, g)
    assert out.shape == (2, g.N)
    assert np.max(np.abs(out - np.roll([f, h], 5, axis=1))) < 1e-13
    # a fraction of a cell moves a resolved mode exactly; one row comes back 2-D
    d = 0.3 * g.h
    out = translate(h, d, g)
    assert out.shape == (1, g.N)
    assert np.max(np.abs(out[0] - np.cos(np.pi * (g.x - d) / g.L))) < 1e-13
