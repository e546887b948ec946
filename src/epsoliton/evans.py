"""Evans-function machinery for the 4x4 first-order spectral system.

The eigenvalue problem (lambda - L) U = 0 in the co-moving frame is recast as

    (d/dx - A(x, lambda)) U = 0,     U = (n, u, phi, phi')

with A = A1(x) + lambda A2(x) built from the profile; at the tail A tends to
a constant matrix A_inf whose eigenvalues mu_1..mu_4 are the roots of the
dispersion quartic

    d(mu) = (c^2-K)^{-1} [ (mu^2-1)((lambda - c mu)^2 - K mu^2) + mu^2 ].

Branch ordering: Re mu_1 < 0 <= Re mu_2 <= Re mu_3 (equality only on the
imaginary axis) and Re mu_4 > 0; labels are carried by continuity along the
ray from a small reference lambda where closed-form asymptotics identify
them.  The Evans function is the bilinear pairing

    D(lambda) = < f_1(x), g_1(x) >_{C^4}

of the Jost solution f_1 (decaying as x -> +inf) and the adjoint Jost
solution g_1 (the dual mode at x -> -inf); the pairing is x-independent.
Both are marched by the 6th-order Magnus method on one mesh, f_1 with the
step exponentials exp(-Omega_k) and g_1 with their transposes, so the
discrete pairing is conserved to roundoff as well.
D vanishes at lambda = 0 together with its first derivative, and nowhere
else in the closed right half-plane.

`resolvent_apply` solves (lambda - L)U = F by a 4th-order Hermite-Simpson
collocation two-point BVP with decay boundary conditions; `vop_apply` is an
independent variation-of-parameters assembly using stable subspace
continuation.  All C^4 pairings here are bilinear (no conjugation).
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
# unused here; kept importable because perfbench/spans.py wraps evans.solve_ivp by name
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.interpolate import CubicSpline
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from .profile import sonic_branch_distance


# ---------------------------------------------------------------- matrices

class CoefficientCache:
    """Coefficient functions of A(x, lambda) = A1(x) + lambda A2(x).

    One vector-valued cubic spline evaluates all x-dependent entries; the
    assembled matrices satisfy A(+-L) -> A_inf at tail tolerance.
    """

    def __init__(self, p, n_fine=8):
        self.p = p
        self.c, self.K = p.c, p.K
        g = p.grid
        xf = np.linspace(-g.L, g.L, n_fine * g.N + 1)
        n = p.at(xf, "n"); u = p.at(xf, "u"); phi = p.at(xf, "phi")
        dn = p.at(xf, "dn"); du = p.at(xf, "du")
        c, K = self.c, self.K
        J = (c - u) ** 2 - K
        if np.min(J) <= 0:
            raise ValueError("coefficient_matrix: J = (c-u)^2 - K <= 0 (not supersonic)")
        one_n = 1.0 + n
        rows = np.array([
            (c - u) * du / J - K * dn / (J * one_n),          # A1[0,0]
            (c - u) * dn / J + one_n * du / J,                # A1[0,1]
            one_n / J,                                        # A1[0,3]
            K * du / (J * one_n) - K * (c - u) * dn / (J * one_n ** 2),  # A1[1,0]
            K * dn / (J * one_n) + (c - u) * du / J,          # A1[1,1]
            (c - u) / J,                                      # A1[1,3]
            np.exp(phi),                                      # A1[3,2]
            (c - u) / J,                                      # A2[0,0]
            one_n / J,                                        # A2[0,1]
            K / (J * one_n),                                  # A2[1,0]
        ])
        self._spl = CubicSpline(xf, rows, axis=1)
        self._xmax = xf[-1]

    def _entries(self, x):
        x = np.clip(x, -self._xmax, self._xmax)
        return self._spl(x)

    def A1_A2(self, x):
        """A1(x), A2(x) stacked over the last axis of x (shape (...,4,4))."""
        e = self._entries(np.asarray(x, dtype=float))
        shp = np.shape(x)
        A1 = np.zeros(shp + (4, 4))
        A2 = np.zeros(shp + (4, 4))
        r = np.moveaxis(e, 0, -1)
        A1[..., 0, 0] = r[..., 0]; A1[..., 0, 1] = r[..., 1]; A1[..., 0, 3] = r[..., 2]
        A1[..., 1, 0] = r[..., 3]; A1[..., 1, 1] = r[..., 4]; A1[..., 1, 3] = r[..., 5]
        A1[..., 2, 3] = 1.0
        A1[..., 3, 0] = -1.0; A1[..., 3, 2] = r[..., 6]
        A2[..., 0, 0] = r[..., 7]; A2[..., 0, 1] = r[..., 8]
        A2[..., 1, 0] = r[..., 9]; A2[..., 1, 1] = r[..., 7]
        return A1, A2

    def A(self, x, lam):
        A1, A2 = self.A1_A2(x)
        return A1 + lam * A2

    def Lc_inv_apply(self, x, F1, F2):
        """(L_c)^{-1} (F1,F2) pointwise: L_c = ((u-c,1+n),(K/(1+n),u-c))."""
        p = self.p
        u = p.at(x, "u"); n = p.at(x, "n")
        c, K = self.c, self.K
        J = (c - u) ** 2 - K
        return ((u - c) * F1 - (1.0 + n) * F2) / J, \
               (-K / (1.0 + n) * F1 + (u - c) * F2) / J


def A_infinity(lam, c, K):
    d = c * c - K
    return np.array([
        [c * lam / d, lam / d, 0.0, 1.0 / d],
        [K * lam / d, c * lam / d, 0.0, c / d],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 1.0, 0.0]], dtype=complex)


def coefficient_matrix(x, lam, p, cache=None):
    """A(x, lambda) for scalar or array x; see CoefficientCache."""
    if cache is None:
        cache = CoefficientCache(p)
    return cache.A(x, lam)


# ------------------------------------------------------------- dispersion

def mu4_closed(c, K):
    return np.sqrt(1.0 - 1.0 / (c * c - K))


def _quartic_roots(lam, c, K):
    d = c * c - K
    coeffs = [d, -2 * c * lam, lam * lam - d + 1.0, 2 * c * lam, -lam * lam]
    return np.roots(coeffs)


@dataclass
class AsymptoticData:
    lam: complex
    c: float
    K: float
    mus: np.ndarray                  # labeled mu_1..mu_4
    vs: np.ndarray = None            # columns v_j (4,4), NaN where degenerate
    ws: np.ndarray = None
    pairings: np.ndarray = None
    degenerate: np.ndarray = None    # branches with mu ~ 0 (no frame)

    @property
    def eps(self):
        return self.c - np.sqrt(1.0 + self.K)


def dispersion_roots(lam, c, K, n_steps=60):
    """Labeled roots mu_1..mu_4 of the dispersion quartic at lambda.

    Labels are fixed by closed-form small-lambda asymptotics and carried to
    the requested lambda by continuity along the ray t -> t*lambda, with
    minimal-distance assignment at each step.  The sum rule
    mu1+mu2+mu3+mu4 = 2 c lambda/(c^2-K) is asserted.
    """
    lam = complex(lam)
    if lam.real < -1e-12:
        raise ValueError("dispersion_roots: lambda in the closed right half-plane only")
    if lam.imag < 0.0:
        # the quartic's coefficients are real polynomials in lambda, so the
        # labeled roots at conj(lambda) are the conjugates: exactly, not to
        # the root finder's roundoff
        data = dispersion_roots(lam.conjugate(), c, K, n_steps)
        return AsymptoticData(lam, c, K, data.mus.conj())
    V = np.sqrt(1.0 + K)
    eps = c - V
    mu40 = mu4_closed(c, K)
    if lam == 0:
        mus = np.array([-mu40, 0.0, 0.0, mu40], dtype=complex)
        return AsymptoticData(lam, c, K, mus)

    t0 = min(1e-4 / abs(lam), 1.0)
    lam0 = lam * t0
    pred = np.array([-mu40, lam0 / (c + V), lam0 / eps, mu40], dtype=complex)
    mus = _assign(_quartic_roots(lam0, c, K), pred)
    for t in np.geomspace(t0, 1.0, n_steps)[1:]:
        roots = _quartic_roots(lam * t, c, K)
        mus = _assign(roots, mus)
    s = np.sum(mus) - 2 * c * lam / (c * c - K)
    if abs(s) > 1e-9 * max(1.0, abs(lam)):
        raise RuntimeError(f"dispersion_roots: sum rule violated by {abs(s):.2e}")
    if not (mus[0].real < 0 < mus[3].real):
        raise RuntimeError("dispersion_roots: branch ordering lost")
    return AsymptoticData(lam, c, K, mus)


def _assign(roots, reference):
    cost = np.abs(roots[None, :] - reference[:, None])
    rows, cols = linear_sum_assignment(cost)
    out = np.empty(4, dtype=complex)
    out[rows] = roots[cols]
    return out


def eigen_frames(data):
    """Fill eigenvector frames v_j, dual frames w_j on an AsymptoticData.

    v_j = (1, (c mu - lam)/mu, 1/(1-mu^2), mu/(1-mu^2));
    pi_j = ((c lam/mu - (c^2-K))(1-mu^2), -lam (1-mu^2)/mu, 1, mu);
    w_j = pi_j / <pi_j, v_j> (bilinear pairing).  Branches with mu = 0 are
    marked degenerate (the formulas have 1/mu poles there).
    """
    lam, c, K = data.lam, data.c, data.K
    d = c * c - K
    vs = np.full((4, 4), np.nan, dtype=complex)
    ws = np.full((4, 4), np.nan, dtype=complex)
    pairings = np.full(4, np.nan, dtype=complex)
    degenerate = np.zeros(4, dtype=bool)
    for j, mu in enumerate(data.mus):
        if abs(mu) < 1e-13:
            degenerate[j] = True
            continue
        om = 1.0 - mu * mu
        v = np.array([1.0, (c * mu - lam) / mu, 1.0 / om, mu / om])
        pi = np.array([(c * lam / mu - d) * om, -lam * om / mu, 1.0, mu])
        pv = np.sum(pi * v)
        vs[:, j] = v
        ws[:, j] = pi / pv
        pairings[j] = pv
    data.vs, data.ws, data.pairings, data.degenerate = vs, ws, pairings, degenerate
    return data


def asymptotic_data(lam, c, K):
    return eigen_frames(dispersion_roots(lam, c, K))


# ------------------------------------------------------------------- Jost

@dataclass
class JostSolution:
    lam: complex
    j: int
    x: np.ndarray
    m: np.ndarray        # (4, M) rescaled profile e^{-mu_j x} f_j
    mu: complex
    anchor: np.ndarray


# Gauss-Legendre nodes on [0, 1]: the three stages of the Magnus step
_GAUSS3 = 0.5 + np.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
# core step at rtol = 1e-9; the step scales as rtol^(1/6)
_H_CORE = 0.1
# the tail step grows as exp(mu4 |x| / _GRADE): the coefficients' variation
# decays like exp(-mu4 |x|) and the local error is O(h^7)
_GRADE = 7.0


@lru_cache(maxsize=64)
def _core_step(c, K):
    """_H_CORE, shortened by sqrt(d) once the profile's sonic branch point
    comes within d < 1 of the real axis (eps > 0.11 for K = 1), where the
    coefficients vary on the scale d."""
    return _H_CORE * min(1.0, np.sqrt(sonic_branch_distance(c, K)))


def _jost_mesh(c, K, x_lo, x_hi, x_eval, rtol):
    """Step nodes of the Magnus march on [x_lo, x_hi], containing x_eval.

    The step is h0 = _core_step(c, K) (rtol/1e-9)^(1/6) for |x| <= x_c =
    2/mu4 and h0 exp(mu4 (|x| - x_c)/_GRADE) beyond; each gap between
    consecutive points of x_eval gets a whole number of steps.  The
    calibration: at eps = 0.1 (K = 1), |dD|/|D| against a converged march
    is about rtol for |lambda| ~ 1 (382 steps at rtol 1e-9 on [-0.9L, 0.9L],
    L = 40/sqrt(eps)).
    The mesh is a function of (c, K, the interval, x_eval, rtol) alone,
    never of lambda or of the march direction: D is then a smooth function
    of lambda, and D(conj lambda) = conj D(lambda) holds to roundoff.
    """
    x_eval = np.asarray(x_eval, dtype=float)
    if np.any(x_eval < x_lo) or np.any(x_eval > x_hi):
        raise ValueError("jost marching: x_eval outside the march interval")
    h0 = _core_step(c, K) * (rtol / 1e-9) ** (1.0 / 6.0)
    r = mu4_closed(c, K) / _GRADE
    xc = 2.0 / mu4_closed(c, K)
    s_core = xc / h0

    def s_of(x):  # mesh coordinate: s' = 1/h(x), one unit per step
        ax = np.abs(x)
        tail = -np.expm1(-r * np.maximum(ax - xc, 0.0)) / (r * h0)
        return np.sign(x) * (np.minimum(ax, xc) / h0 + tail)

    def x_of(s):
        a = np.abs(s)
        tail = xc - np.log1p(-np.maximum(a - s_core, 0.0) * r * h0) / r
        return np.sign(s) * np.where(a <= s_core, a * h0, tail)

    b = np.unique(np.concatenate([[x_lo, x_hi], x_eval]))
    sb = s_of(b)
    n = np.maximum(np.ceil(np.diff(sb) - 1e-9), 1).astype(int)
    seg = np.repeat(np.arange(len(n)), n)
    j = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    x = x_of(sb[seg] + j * (np.diff(sb) / n)[seg])
    x[j == 0] = b[:-1]
    return np.append(x, b[-1])


def _commutator(X, Y):
    return X @ Y - Y @ X


def _magnus_exponents(cache, lam, mu, mesh):
    """Omega_k of the 6th-order Magnus method for m' = (A - mu I) m on each
    step [x_k, x_{k+1}]: three Gauss points and the commutator form of
    Blanes, Casas and Ros (Blanes-Casas-Oteo-Ros, Phys. Rep. 470, 2009).
    exp(Omega_k) maps m(x_k) to m(x_{k+1}).  Shape (M-1, 4, 4)."""
    h = np.diff(mesh)[:, None, None]
    A1, A2 = cache.A1_A2(mesh[:-1, None] + h[:, :, 0] * _GAUSS3)
    A = A1 + complex(lam) * A2
    a1 = h * A[:, 1]
    a2 = np.sqrt(15.0) / 3.0 * h * (A[:, 2] - A[:, 0])
    a3 = 10.0 / 3.0 * h * (A[:, 2] - 2.0 * A[:, 1] + A[:, 0])
    C1 = _commutator(a1, a2)
    C2 = -_commutator(a1, 2.0 * a3 + C1) / 60.0
    omega = a1 + a3 / 12.0 + _commutator(-20.0 * a1 - a3 + C1, a2 + C2) / 240.0
    return omega - mu * h * np.eye(4)


def _sweep(E, anchor, backward, transpose=False):
    """Values at every mesh node of y_{k+1} = E_k y_k (forward from the
    first node) or y_k = E_k y_{k+1} (backward from the last); E_k^T in
    place of E_k if transpose.  Returns (4, M)."""
    if transpose:
        E = np.swapaxes(E, 1, 2)
    if backward:
        E = E[::-1]
    y = np.empty((len(E) + 1, 4), dtype=complex)
    y[0] = anchor
    for k, Ek in enumerate(E):
        y[k + 1] = Ek @ y[k]
    if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > 1e12:
        raise RuntimeError("jost marching overflow")
    return (y[::-1] if backward else y).T


def _march(cache, lam, mu, anchor, x_from, x_to, x_eval, rtol=1e-11):
    """March m' = (A - mu I) m from x_from to x_to by the 6th-order Magnus
    method; values at x_eval, in its order, shape (4, len(x_eval))."""
    backward = x_to < x_from
    mesh = _jost_mesh(cache.c, cache.K, min(x_from, x_to), max(x_from, x_to),
                      x_eval, rtol)
    omega = _magnus_exponents(cache, lam, mu, mesh)
    E = expm(-omega if backward else omega)
    y = _sweep(E, anchor, backward)
    return y[:, np.searchsorted(mesh, x_eval)]


def _stations(p, xa_frac=0.9, n_stations=7):
    xa = xa_frac * p.grid.L
    return xa, np.linspace(-xa, xa, n_stations)


def jost_f(j, lam, p, cache=None, xa_frac=0.9, x_eval=None, rtol=1e-11):
    """Jost solution branch j in {1, 4}: rescaled m_j with m_j(anchor) = v_j.

    j=1 is anchored at +xa (decaying mode as x -> +inf) and marched left;
    j=4 at -xa marched right.  Both directions are dominance-stable.
    """
    if j not in (1, 4):
        raise ValueError("jost_f: only the extreme branches j=1,4 march stably")
    if cache is None:
        cache = CoefficientCache(p)
    data = asymptotic_data(lam, p.c, p.K)
    mu = data.mus[j - 1]
    v = data.vs[:, j - 1]
    xa, st = _stations(p, xa_frac)
    if x_eval is None:
        x_eval = st
    ends = (xa, -xa) if j == 1 else (-xa, xa)
    y = _march(cache, lam, mu, v, *ends, x_eval, rtol=rtol)
    return JostSolution(lam, j, np.asarray(x_eval, dtype=float), y, mu, v)


def evans(lam, p, cache=None, rtol=1e-11, return_spread=False):
    """Evans function D(lambda) = <m_1(x0), n_1(x0)> (bilinear, x-independent).

    m_1 (the Jost solution f_1, anchored at v_1 at +xa) is marched left with
    the steps exp(-Omega_k) and n_1 (the adjoint Jost solution g_1, anchored
    at w_1 at -xa) right with exp(-Omega_k)^T, on one mesh: the pairing is
    then conserved step by step to roundoff, and the spread over the
    stations measures that roundoff.  rtol sets the step (see _jost_mesh).
    """
    if cache is None:
        cache = CoefficientCache(p)
    data = asymptotic_data(lam, p.c, p.K)
    xa, st = _stations(p)
    mesh = _jost_mesh(p.c, p.K, -xa, xa, st, rtol)
    E = expm(-_magnus_exponents(cache, lam, data.mus[0], mesh))
    at = np.searchsorted(mesh, st)
    m1 = _sweep(E, data.vs[:, 0], backward=True)[:, at]
    n1 = _sweep(E, data.ws[:, 0], backward=False, transpose=True)[:, at]
    vals = np.sum(m1 * n1, axis=0)
    D = vals[len(vals) // 2]
    if return_spread:
        spread = float(np.max(np.abs(vals - D)) / max(abs(D), 1e-300))
        return D, spread
    return D


def evans_derivs_at0(p, cache=None, dlam=1e-3, rtol=1e-11):
    """(D(0), D'(0), D''(0)) by 5-point stencils along the imaginary axis,
    Richardson-extrapolated across dlam and dlam/2."""
    if cache is None:
        cache = CoefficientCache(p)

    Dmemo = {}

    def Dval(tau):
        if tau not in Dmemo:
            Dmemo[tau] = evans(1j * tau if tau else 0.0, p, cache, rtol=rtol)
        return Dmemo[tau]

    def stencil(d):
        Dm2, Dm1, D0, Dp1, Dp2 = (Dval(k * d) for k in (-2, -1, 0, 1, 2))
        D1 = (-Dp2 + 8 * Dp1 - 8 * Dm1 + Dm2) / (12j * d)
        D2 = -(-Dp2 + 16 * Dp1 - 30 * D0 + 16 * Dm1 - Dm2) / (12 * d * d)
        return D0, D1, D2

    D0a, D1a, D2a = stencil(dlam)
    D0b, D1b, D2b = stencil(dlam / 2)
    # both stencils are 4th order; Richardson across the halving
    D1 = (16 * D1b - D1a) / 15
    D2 = (16 * D2b - D2a) / 15
    if abs(D2a - D2b) > 0.2 * abs(D2b):
        import warnings
        warnings.warn("evans_derivs_at0: D'' stencil disagreement > 20%")
    return Dval(0.0), D1, D2


@dataclass
class EvansScan:
    lam: np.ndarray
    D: np.ndarray
    min_modulus: float
    winding: int = None


def evans_scan(points, p, cache=None, closed=False, rtol=1e-9, max_refine=8):
    """Sample D along a contour; winding number for closed contours.

    Refines between adjacent samples whenever the phase jump exceeds pi/2.
    """
    if cache is None:
        cache = CoefficientCache(p)
    pts = list(np.asarray(points, dtype=complex))
    vals = [evans(z, p, cache, rtol=rtol) for z in pts]
    for _ in range(max_refine):
        new_pts, new_vals, refined = [], [], False
        seq = list(zip(pts, vals))
        if closed:
            seq.append(seq[0])
        for (z0, d0), (z1, d1) in zip(seq[:-1], seq[1:]):
            new_pts.append(z0); new_vals.append(d0)
            if abs(np.angle(d1 / d0)) > np.pi / 2:
                zm = (z0 + z1) / 2
                new_pts.append(zm); new_vals.append(evans(zm, p, cache, rtol=rtol))
                refined = True
        if not closed:
            new_pts.append(pts[-1]); new_vals.append(vals[-1])
        pts, vals = new_pts, new_vals
        if not refined:
            break
    vals = np.array(vals)
    scan = EvansScan(np.array(pts), vals, float(np.min(np.abs(vals))))
    if closed:
        ring = np.concatenate([vals, vals[:1]])
        dphi = np.angle(ring[1:] / ring[:-1])
        scan.winding = int(np.round(np.sum(dphi) / (2 * np.pi)))
    return scan


def rectangle_contour(re_min, re_max, im_min, im_max, n_per_side=30):
    tops = np.linspace(0, 1, n_per_side, endpoint=False)
    return np.concatenate([
        re_min + tops * (re_max - re_min) + 1j * im_min,
        re_max + 1j * (im_min + tops * (im_max - im_min)),
        re_max - tops * (re_max - re_min) + 1j * im_max,
        re_min + 1j * (im_max - tops * (im_max - im_min))])


def xi_big(p, x=None):
    """Profile-derivative solution Xi_1 = (n', u', phi', phi'') of the
    lambda = 0 system; f_1(., 0) is proportional to it."""
    if x is None:
        x = p.grid.x
    return np.array([p.at(x, "dn"), p.at(x, "du"),
                     p.at(x, "psi"), p.at(x, "d2phi")])


# ------------------------------------------------------- resolvent (BVP)

def _upsample_window(F, p, xa_frac, refine):
    """Band-limited (FFT zero-padding) values of grid data F at the BVP
    nodes and interval midpoints; matches the trigonometric interpolant that
    the spectral application of the operator sees."""
    g = p.grid
    factor = 2 * refine
    spec = np.fft.fft(np.asarray(F, dtype=complex))
    ext = np.zeros(factor * g.N, dtype=complex)
    half = g.N // 2
    ext[:half] = spec[:half]
    ext[-half:] = spec[-half:]
    ext[half] = spec[half] / 2
    ext[-half] = ext[-half] + spec[half] / 2
    fine = np.fft.ifft(ext) * factor
    if np.isrealobj(np.asarray(F)):
        fine = fine.real
    mask = np.abs(g.x) <= xa_frac * g.L
    idx = np.where(mask)[0]
    lo, hi = idx[0] * factor, idx[-1] * factor
    nodes = fine[lo:hi + 1:2]
    mids = fine[lo + 1:hi:2]
    return nodes, mids


def _bvp_nodes(p, xa_frac=0.9, refine=1):
    """Collocation nodes on [-xa, xa]: the periodic-grid nodes inside the
    window, each interval subdivided `refine` times.  Returns (nodes, index
    of the grid nodes within the refined set, mask of grid nodes used)."""
    g = p.grid
    mask = np.abs(g.x) <= xa_frac * g.L
    base = g.x[mask]
    if refine == 1:
        return base, np.arange(len(base)), mask
    xs = np.linspace(base[0], base[-1], (len(base) - 1) * refine + 1)
    return xs, np.arange(0, len(xs), refine), mask


def resolvent_apply(lam, F1, F2, p, cache=None, xa_frac=0.9, refine=8):
    """Solve (lambda - L) U = (F1, F2) by Hermite-Simpson collocation.

    Returns (U (4, M) on the BVP nodes, nodes).  Boundary conditions remove
    the growing mode content: <w_j, U(+xa)> = 0 for j = 2,3,4 and
    <w_1, U(-xa)> = 0 (bilinear pairings with the dual frame).
    """
    lam = complex(lam)
    if abs(lam) < 1e-3:
        raise ValueError("resolvent_apply: lambda too close to the Evans zero")
    if cache is None:
        cache = CoefficientCache(p)
    g = p.grid
    xs, _, _ = _bvp_nodes(p, xa_frac, refine)
    M = len(xs)
    xm = (xs[:-1] + xs[1:]) / 2
    h = np.diff(xs)

    A1n, A2n = cache.A1_A2(xs)
    A1m, A2m = cache.A1_A2(xm)
    An = (A1n + lam * A2n).astype(complex)
    Am = (A1m + lam * A2m).astype(complex)

    # band-limited data at nodes and midpoints; F = (L_c^{-1} (F1,F2), 0, 0)
    f1n, f1m = _upsample_window(F1, p, xa_frac, refine)
    f2n, f2m = _upsample_window(F2, p, xa_frac, refine)

    def Fvec(x, d1, d2):
        G1, G2 = cache.Lc_inv_apply(x, d1, d2)
        return np.stack([G1, G2, np.zeros_like(G1), np.zeros_like(G1)], axis=-1)

    Fn = Fvec(xs, f1n, f2n).astype(complex)
    Fm = Fvec(xm, f1m, f2m).astype(complex)

    I4 = np.eye(4)
    hh = h[:, None, None]
    Ak, Ak1 = An[:-1], An[1:]
    S = I4 - hh / 6 * Ak1 - hh / 3 * Am + hh ** 2 / 12 * np.einsum("kij,kjl->kil", Am, Ak1)
    R = -I4 - hh / 6 * Ak - hh / 3 * Am - hh ** 2 / 12 * np.einsum("kij,kjl->kil", Am, Ak)
    b = (h[:, None] / 6 * (Fn[:-1] + 4 * Fm + Fn[1:])
         + h[:, None] ** 2 / 12 * np.einsum("kij,kj->ki", Am, Fn[:-1] - Fn[1:]))

    data_ = asymptotic_data(lam, p.c, p.K)
    ws = data_.ws

    rows, cols, vals = [], [], []
    rhs = np.zeros(4 * M, dtype=complex)
    for k in range(M - 1):
        r0 = 4 * k
        for i in range(4):
            for jj in range(4):
                rows.append(r0 + i); cols.append(4 * k + jj); vals.append(R[k, i, jj])
                rows.append(r0 + i); cols.append(4 * (k + 1) + jj); vals.append(S[k, i, jj])
        rhs[r0:r0 + 4] = b[k]
    r0 = 4 * (M - 1)
    # <w_1, U(-xa)> = 0
    for jj in range(4):
        rows.append(r0); cols.append(jj); vals.append(ws[jj, 0])
    # <w_j, U(+xa)> = 0, j = 2,3,4
    for i, j in enumerate((1, 2, 3)):
        for jj in range(4):
            rows.append(r0 + 1 + i); cols.append(4 * (M - 1) + jj); vals.append(ws[jj, j])
    Asp = coo_matrix((vals, (rows, cols)), shape=(4 * M, 4 * M), dtype=complex).tocsc()
    U = spsolve(Asp, rhs).reshape(M, 4).T
    return U, xs


def resolvent_apply_periodic(lam, F1, F2, p, cache=None, xa_frac=0.9, refine=8):
    """resolvent_apply embedded back on the full periodic grid (zero tails)."""
    U, xs = resolvent_apply(lam, F1, F2, p, cache, xa_frac, refine)
    g = p.grid
    _, idx, mask = _bvp_nodes(p, xa_frac, refine)
    out = np.zeros((4, g.N), dtype=complex)
    out[:, mask] = U[:, idx]
    return out


# ------------------------------------------- variation-of-parameters oracle

def vop_apply(lam, F1, F2, p, cache=None, xa_frac=0.9, refine=4):
    """Independent variation-of-parameters assembly of (lambda - L)^{-1} F.

    U(x) = f_1(x) int_{-xa}^x a_1(y) dy + w(x), where a_1 is the
    f_1-coefficient of F in the fundamental frame, computed stably as a
    determinant ratio against an orthonormalized basis Q(y) of the marched
    subspace span{f_2, f_3, f_4} (the ratio is invariant under basis changes
    within the span, including column scalings, so QR renormalization is
    legal), and w is the backward sweep of the complementary part with the
    unstable f_1 component projected out at every node.
    """
    lam = complex(lam)
    if cache is None:
        cache = CoefficientCache(p)
    g = p.grid
    xs, _, _ = _bvp_nodes(p, xa_frac, refine)
    M = len(xs)
    h = np.diff(xs)
    xm = (xs[:-1] + xs[1:]) / 2

    data = asymptotic_data(lam, p.c, p.K)
    mus, vs = data.mus, data.vs

    # f_1 direction: rescaled Jost solution m_1 at all nodes
    m1 = jost_f(1, lam, p, cache, xa_frac=xa_frac, x_eval=xs).m  # (4, M)

    # subspace span{f_2, f_3, f_4} marched from -xa; mean growth is removed
    # before each step and QR renormalization applied after
    A1n, A2n = cache.A1_A2(xs)
    An = (A1n + lam * A2n).astype(complex)
    A1m, A2m = cache.A1_A2(xm)
    Am = (A1m + lam * A2m).astype(complex)
    Y = np.linalg.qr(vs[:, 1:4])[0]
    Qs = np.empty((M, 4, 3), dtype=complex)
    Qs[0] = Y
    mu_mid = np.mean(mus[1:4])
    n_sub = 4
    for k in range(M - 1):
        hs = h[k] / n_sub
        for s in range(n_sub):
            x0 = xs[k] + s * hs

            def rhs(x, Yv):
                return cache.A(x, lam) @ Yv - mu_mid * Yv

            k1 = rhs(x0, Y)
            k2 = rhs(x0 + hs / 2, Y + hs / 2 * k1)
            k3 = rhs(x0 + hs / 2, Y + hs / 2 * k2)
            k4 = rhs(x0 + hs, Y + hs * k3)
            Y = Y + hs / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        Y = np.linalg.qr(Y)[0]
        Qs[k + 1] = Y

    # data vector F = (L_c^{-1}(F1,F2), 0, 0) at the nodes (band-limited)
    f1n, _ = _upsample_window(F1, p, xa_frac, refine)
    f2n, _ = _upsample_window(F2, p, xa_frac, refine)
    G1, G2 = cache.Lc_inv_apply(xs, f1n, f2n)
    Fv = np.stack([G1, G2, np.zeros_like(G1), np.zeros_like(G1)]).astype(complex)

    # a_1(y) f_1(y) = m_1(y) det([F, Q]) / det([m_1, Q]) (exponentials cancel)
    detF = np.linalg.det(np.concatenate([Fv.T[:, :, None], Qs], axis=2))
    detm = np.linalg.det(np.concatenate([m1.T[:, :, None], Qs], axis=2))
    a1_tilde = detF / detm          # = a_1(y) e^{mu_1 y} x scaling of m_1

    # R1(x) = m_1(x) int_{-xa}^x e^{mu_1 (x - y)} a1_tilde(y) dy, accumulated
    # interval by interval with Simpson (spline value at the midpoint)
    mu1 = mus[0]
    a_spl = CubicSpline(xs, a1_tilde)
    acc = np.zeros(M, dtype=complex)
    amid = a_spl(xm)
    for k in range(1, M):
        hk = h[k - 1]
        e1 = np.exp(mu1 * hk)
        em = np.exp(mu1 * hk / 2)
        acc[k] = e1 * acc[k - 1] + hk / 6 * (
            e1 * a1_tilde[k - 1] + 4 * em * amid[k - 1] + a1_tilde[k])
    R1 = m1 * acc[None, :]

    # complementary part: backward sweep of (d/dx - A) w = F_perp with the
    # f_1 content projected out against the marched subspace
    Fperp = Fv - m1 * a1_tilde[None, :]
    fp_spl = CubicSpline(xs, Fperp, axis=1)
    Fpm = fp_spl(xm)
    I4 = np.eye(4)
    w = np.zeros((4, M), dtype=complex)
    for k in range(M - 2, -1, -1):
        hk = h[k]
        Sk = I4 - hk / 6 * An[k + 1] - hk / 3 * Am[k] \
            + hk ** 2 / 12 * (Am[k] @ An[k + 1])
        Rk = -I4 - hk / 6 * An[k] - hk / 3 * Am[k] \
            - hk ** 2 / 12 * (Am[k] @ An[k])
        bk = hk / 6 * (Fperp[:, k] + 4 * Fpm[:, k] + Fperp[:, k + 1]) \
            + hk ** 2 / 12 * (Am[k] @ (Fperp[:, k] - Fperp[:, k + 1]))
        wk = np.linalg.solve(Rk, bk - Sk @ w[:, k + 1])
        q = _orthocomplement(Qs[k])
        wk = wk - m1[:, k] * (np.vdot(q, wk) / np.vdot(q, m1[:, k]))
        w[:, k] = wk
    return R1 + w, xs


def _orthocomplement(Q):
    """Unit vector orthogonal (hermitian sense) to the 3 columns of Q."""
    full = np.linalg.qr(np.column_stack([Q, np.ones(4, dtype=complex)]),
                        mode="complete")[0]
    return full[:, 3]
