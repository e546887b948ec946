"""Evans-function machinery for the 4x4 first-order spectral system.

The eigenvalue problem (lambda - L) U = 0 in the co-moving frame is recast as

    (d/dx - A(x, lambda)) U = 0,     U = (n, u, phi, phi')

with A = A1(x) + lambda A2(x) built from the profile; at the tail A tends to
a constant matrix A_inf whose eigenvalues mu_1..mu_4 are the roots of the
dispersion quartic

    d(mu) = (c^2-K)^{-1} [ (mu^2-1)((lambda - c mu)^2 - K mu^2) + mu^2 ].

For Re lambda >= 0 exactly one root, mu_1, has Re mu_1 < 0 (the other
three have Re mu >= 0, with equality only on the imaginary axis), and only
mu_1 and its eigenvector pair (v_1, w_1) enter the Evans function, the
bilinear pairing

    D(lambda) = < f_1(x), g_1(x) >_{C^4}

of the Jost solution f_1 (decaying as x -> +inf) and the adjoint Jost
solution g_1 (the dual mode at x -> -inf); the pairing is x-independent.
Both are marched by the 6th-order Magnus method on one mesh, f_1 with the
step exponentials exp(-Omega_k) and g_1 with their transposes, so the
discrete pairing is conserved to roundoff as well.
D vanishes at lambda = 0 together with its first derivative, and nowhere
else in the closed right half-plane.  All C^4 pairings here are bilinear
(no conjugation).
"""

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ode import CubicSpline
# unused here; kept importable because perfbench/spans.py wraps evans.solve_ivp by name
from .ode import solve_ivp  # noqa: F401
from .profile import FINE, mu4_at_zero, sonic_branch_distance

_DLAM = 1e-3      # stencil spacing of evans_derivs_at0
_MAX_REFINE = 8   # bisection rounds of evans_scan


# ---------------------------------------------------------------- matrices

class CoefficientCache:
    """Coefficient functions of A(x, lambda) = A1(x) + lambda A2(x).

    One vector-valued cubic spline evaluates all x-dependent entries, with
    its knots on the profile's fine line and its data formed from p.fine;
    the assembled matrices satisfy A(+-L) -> A_inf at tail tolerance.
    `evaluations` counts the lambda values `evans` has marched with it.
    """

    def __init__(self, p):
        self.evaluations = 0
        g = p.grid
        xf = np.linspace(-g.L, g.L, FINE * g.N + 1)
        n, u, phi, _, dn, du = p.fine
        c, K = p.c, p.K
        J = (c - u) ** 2 - K
        if np.min(J) <= 0:
            raise ValueError("CoefficientCache: J = (c-u)^2 - K <= 0 (not supersonic)")
        one_n = 1.0 + n
        rows = np.array([
            (c - u) * du / J - K * dn / (J * one_n),          # A1[0,0]
            (c - u) * dn / J + one_n * du / J,                # A1[0,1]
            one_n / J,                                        # A1[0,3], A2[0,1]
            K * du / (J * one_n) - K * (c - u) * dn / (J * one_n ** 2),  # A1[1,0]
            K * dn / (J * one_n) + (c - u) * du / J,          # A1[1,1]
            (c - u) / J,                                      # A1[1,3], A2[0,0], A2[1,1]
            np.exp(phi),                                      # A1[3,2]
            K / (J * one_n),                                  # A2[1,0]
        ])
        self._spl = CubicSpline(xf, rows)
        self._xmax = xf[-1]

    def A1_A2(self, x):
        """A1(x), A2(x) stacked over the last axis of x (shape (...,4,4))."""
        r = self._spl(np.clip(np.asarray(x, dtype=float), -self._xmax, self._xmax))
        shp = np.shape(x)
        A1 = np.zeros(shp + (4, 4))
        A2 = np.zeros(shp + (4, 4))
        A1[..., 0, 0] = r[..., 0]; A1[..., 0, 1] = r[..., 1]; A1[..., 0, 3] = r[..., 2]
        A1[..., 1, 0] = r[..., 3]; A1[..., 1, 1] = r[..., 4]; A1[..., 1, 3] = r[..., 5]
        A1[..., 2, 3] = 1.0
        A1[..., 3, 0] = -1.0; A1[..., 3, 2] = r[..., 6]
        A2[..., 0, 0] = r[..., 5]; A2[..., 0, 1] = r[..., 2]
        A2[..., 1, 0] = r[..., 7]; A2[..., 1, 1] = r[..., 5]
        return A1, A2


def A_infinity(lam, c, K):
    d = c * c - K
    return np.array([
        [c * lam / d, lam / d, 0.0, 1.0 / d],
        [K * lam / d, c * lam / d, 0.0, c / d],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 1.0, 0.0]], dtype=complex)


# ------------------------------------------------------------- dispersion

def _quartic_roots(lam, c, K):
    """The four roots of the dispersion quartic at lambda."""
    # the coefficients are formed on a one-element array: complex128 scalars
    # round some of them apart in the last bit
    z = np.array([lam], dtype=complex)
    d = c * c - K
    return np.roots(np.concatenate([np.full_like(z, d), -2 * c * z, z * z - d + 1.0,
                                    2 * c * z, -z * z]))


def dispersion_roots(lam, c, K):
    """The decaying root mu_1 of the dispersion quartic at lambda.

    For Re lambda >= 0, lambda != 0, exactly one root has Re mu < 0, so
    mu_1 is the root of least real part.  The sum rule
    mu1+mu2+mu3+mu4 = 2 c lambda/(c^2-K) is asserted on the four roots.
    """
    lam = complex(lam)
    if lam.real < -1e-12:
        raise ValueError(f"dispersion_roots: lambda = {lam:.6g} is not in the closed "
                         "right half-plane")
    if lam.imag < 0.0:
        # the quartic's coefficients are real polynomials in lambda, so the
        # root at conj(lambda) is the conjugate: exactly, not to the root
        # finder's roundoff
        return dispersion_roots(lam.conjugate(), c, K).conjugate()
    if lam == 0:
        return np.complex128(-mu4_at_zero(c, K))
    roots = _quartic_roots(lam, c, K)
    tol = 1e-9 * max(1.0, abs(lam))
    s = np.sum(roots) - 2 * c * lam / (c * c - K)
    if abs(s) > tol:
        raise RuntimeError(f"dispersion_roots: sum rule violated by {abs(s):.2e} "
                           f"at lambda = {lam:.6g}")
    first, second = np.argsort(roots.real)[:2]
    if not (roots[first].real < 0 and roots[second].real >= -tol):
        raise RuntimeError(f"dispersion_roots: no unique decaying root at lambda = {lam:.6g}")
    return roots[first]


def asymptotic_data(lam, c, K):
    """(mu_1, v_1, w_1): the decaying root, its eigenvector of A_inf

        v_1 = (1, (c mu - lam)/mu, 1/(1-mu^2), mu/(1-mu^2)),

    and the dual vector w_1 = pi / <pi, v_1> (bilinear pairing), with
    pi = ((c lam/mu - (c^2-K))(1-mu^2), -lam (1-mu^2)/mu, 1, mu) the left
    eigenvector, w_1^T A_inf = mu_1 w_1^T.
    """
    lam = complex(lam)
    mu = dispersion_roots(lam, c, K)
    om = 1.0 - mu * mu
    v = np.array([1.0, (c * mu - lam) / mu, 1.0 / om, mu / om])
    pi = np.array([(c * lam / mu - (c * c - K)) * om, -lam * om / mu, 1.0, mu])
    return mu, v, pi / np.sum(pi * v)


# ------------------------------------------------------------------- Jost

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


def _commutator(X, Y):
    return X @ Y - Y @ X


# Pade-13 coefficients and the 1-norm up to which the degree-13 approximant
# is accurate to unit roundoff (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(A):
    """exp of each matrix of a stack (M, n, n) by Pade-13 scaling and
    squaring, with a scaling exponent per matrix; only the matrices that
    still need it are squared in each round."""
    norm = np.abs(A).sum(axis=1).max(axis=1)
    s = np.ceil(np.log2(np.maximum(norm / _THETA13, 1.0))).astype(int)
    A = A / (2.0 ** s)[:, None, None]
    b, eye = _PADE13, np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    E = np.linalg.solve(V - U, V + U)
    for k in range(int(s.max(initial=0))):
        sq = s > k
        E[sq] = E[sq] @ E[sq]
    return E


def _step_coefficients(cache, mesh):
    """The step lengths h (M-1, 1, 1) of the mesh and A1, A2 at the three
    Gauss points of each step (M-1, 3, 4, 4): what every lambda shares."""
    h = np.diff(mesh)[:, None, None]
    A1, A2 = cache.A1_A2(mesh[:-1, None] + h[:, :, 0] * _GAUSS3)
    return h, A1, A2


def _magnus_exponents(h, A1, A2, lam, mu):
    """Omega_k of the 6th-order Magnus method for m' = (A - mu I) m on each
    step [x_k, x_{k+1}], from `_step_coefficients`: three Gauss points and
    the commutator form of Blanes, Casas and Ros (Blanes-Casas-Oteo-Ros,
    Phys. Rep. 470, 2009).  exp(Omega_k) maps m(x_k) to m(x_{k+1}).
    Shape (M-1, 4, 4)."""
    A = A1 + complex(lam) * A2
    a1 = h * A[:, 1]
    a2 = np.sqrt(15.0) / 3.0 * h * (A[:, 2] - A[:, 0])
    a3 = 10.0 / 3.0 * h * (A[:, 2] - 2.0 * A[:, 1] + A[:, 0])
    C1 = _commutator(a1, a2)
    C2 = -_commutator(a1, 2.0 * a3 + C1) / 60.0
    omega = a1 + a3 / 12.0 + _commutator(-20.0 * a1 - a3 + C1, a2 + C2) / 240.0
    return omega - mu * h * np.eye(4)


def _sweep(E, anchor, steps, lams, backward=False, transpose=False):
    """`steps` steps of y_{k+1} = E_k y_k forward from the first node, or of
    y_k = E_k y_{k+1} backward from the last; E_k^T in place of E_k if
    transpose.  Batched over lambda: E is (B, M-1, 4, 4) and anchor (B, 4),
    and each lambda's step is the matrix-vector product of its own march;
    lams, the B lambdas, name those whose march overflows.
    Returns the values at the nodes reached, in mesh order, (B, steps+1, 4)."""
    if transpose:
        E = np.swapaxes(E, 2, 3)
    if backward:
        E = E[:, ::-1]
    y = np.empty((steps + 1, len(E), 4, 1), dtype=complex)
    y[0, :, :, 0] = anchor
    for k in range(steps):
        np.matmul(E[:, k], y[k], out=y[k + 1])
    bad = ~np.all(np.abs(y) <= 1e12, axis=(0, 2, 3))  # NaN counts
    if np.any(bad):
        raise RuntimeError("jost marching overflow at lambda = "
                           + ", ".join(f"{z:.6g}" for z in lams[bad]))
    return np.swapaxes((y[::-1] if backward else y)[..., 0], 0, 1)


def _march_mesh(p, rtol):
    """The mesh of the Magnus march on [-xa, xa], xa = 0.9 L, and the indices
    of its 7 stations, spread evenly over [-xa, xa], at which the pairing is
    read.

    The step is h0 = _core_step(c, K) (rtol/1e-9)^(1/6) for |x| <= x_c =
    2/mu4 and h0 exp(mu4 (|x| - x_c)/_GRADE) beyond; each gap between
    consecutive stations gets a whole number of steps.  The calibration: at
    eps = 0.1 (K = 1), |dD|/|D| against a converged march is about rtol for
    |lambda| ~ 1 (382 steps at rtol 1e-9, L = 40/sqrt(eps)).
    The mesh is a function of (c, K, L, rtol) alone, never of lambda or of
    the march direction: D is then a smooth function of lambda, and
    D(conj lambda) = conj D(lambda) holds to roundoff.
    """
    xa = 0.9 * p.grid.L
    b = np.linspace(-xa, xa, 7)
    h0 = _core_step(p.c, p.K) * (rtol / 1e-9) ** (1.0 / 6.0)
    r = mu4_at_zero(p.c, p.K) / _GRADE
    xc = 2.0 / mu4_at_zero(p.c, p.K)
    s_core = xc / h0

    def s_of(x):  # mesh coordinate: s' = 1/h(x), one unit per step
        ax = np.abs(x)
        tail = -np.expm1(-r * np.maximum(ax - xc, 0.0)) / (r * h0)
        return np.sign(x) * (np.minimum(ax, xc) / h0 + tail)

    def x_of(s):
        a = np.abs(s)
        tail = xc - np.log1p(-np.maximum(a - s_core, 0.0) * r * h0) / r
        return np.sign(s) * np.where(a <= s_core, a * h0, tail)

    sb = s_of(b)
    n = np.maximum(np.ceil(np.diff(sb) - 1e-9), 1).astype(int)
    seg = np.repeat(np.arange(len(n)), n)
    j = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    x = x_of(sb[seg] + j * (np.diff(sb) / n)[seg])
    x[j == 0] = b[:-1]
    mesh = np.append(x, b[-1])
    return mesh, np.searchsorted(mesh, b)


def evans(lam, p, cache, rtol=1e-11, return_spread=False):
    """Evans function D(lambda) = <m_1(x0), n_1(x0)> (bilinear, x-independent),
    at a scalar lambda or at each of a 1-D array of them.

    m_1 (the Jost solution f_1, anchored at v_1 at +xa) is marched left with
    the steps exp(-Omega_k) and n_1 (the adjoint Jost solution g_1, anchored
    at w_1 at -xa) right with exp(-Omega_k)^T, on one mesh: the pairing is
    then conserved step by step to roundoff.  D is read at the middle
    station, x0 = 0, so each march stops there; with return_spread both run
    across the box, and the spread of the pairing over the stations, which
    measures that roundoff, is returned too.  rtol sets the step (see
    _march_mesh, which gives its calibration); cache is p's CoefficientCache.
    The mesh and the coefficients at its Gauss points are formed once a
    call, the step exponentials once a lambda, and the marches run batched
    over lambda: each lambda's D is that of a call at it alone, bit for bit.
    """
    lams = np.asarray(lam, dtype=complex)
    mesh, at = _march_mesh(p, rtol)
    h, A1, A2 = _step_coefficients(cache, mesh)
    E, v, w = [], [], []
    for z in lams.ravel():
        mu, vz, wz = asymptotic_data(z, p.c, p.K)
        E.append(_expm(-_magnus_exponents(h, A1, A2, z, mu)))
        v.append(vz)
        w.append(wz)
    E, v, w = np.array(E), np.array(v), np.array(w)
    cache.evaluations += len(E)
    M, mid = len(mesh) - 1, at[len(at) // 2]
    if return_spread:  # both marches cross the box
        m1 = _sweep(E, v, M, lams.ravel(), backward=True)[:, at]
        n1 = _sweep(E, w, M, lams.ravel(), transpose=True)[:, at]
    else:              # each stops at the middle station
        m1 = _sweep(E, v, M - mid, lams.ravel(), backward=True)[:, :1]
        n1 = _sweep(E, w, mid, lams.ravel(), transpose=True)[:, -1:]
    # summed along the contiguous component axis: the order of the additions
    # is then that of a single lambda's
    vals = np.sum(m1 * n1, axis=-1)  # (B, stations read)
    D = vals[:, vals.shape[1] // 2].reshape(lams.shape)
    if not return_spread:
        return D[()]
    # one lambda at a time: abs of a complex scalar and of an array round apart
    spread = np.array([float(np.max(np.abs(row - d)) / max(abs(d), 1e-300))
                       for row, d in zip(vals, D.ravel())]).reshape(lams.shape)
    return D[()], spread[()]


def evans_derivs_at0(p, cache, rtol=1e-11):
    """(D(0), D'(0), D''(0)) by 5-point stencils along the imaginary axis,
    Richardson-extrapolated across d and d/2, d = _DLAM min(1, (eps/0.1)^1.5).

    One evans call marches tau = 0, d/2, d and 2d; D(-i tau) = conj D(i tau),
    which the march also returns at -i tau, bit for bit."""
    # near the KdV limit D varies in lambda on the scale eps^{3/2}; a fixed
    # step's truncation error in D' swamps the double zero at eps <= 0.01
    d = _DLAM * min(1, (p.eps / 0.1) ** 1.5)
    D0, Dh, Dd, D2d = evans(1j * np.array([0.0, d / 2, d, 2 * d]), p, cache, rtol=rtol)

    def stencil(s, Dp1, Dp2):
        """D'(0), D''(0) from D(+-is), D(+-2is) and D0."""
        Dm1, Dm2 = np.conj(Dp1), np.conj(Dp2)
        D1 = (-Dp2 + 8 * Dp1 - 8 * Dm1 + Dm2) / (12j * s)
        D2 = -(-Dp2 + 16 * Dp1 - 30 * D0 + 16 * Dm1 - Dm2) / (12 * s * s)
        return D1, D2

    D1a, D2a = stencil(d, Dd, D2d)
    D1b, D2b = stencil(d / 2, Dh, Dd)
    # both stencils are 4th order; Richardson across the halving
    D1 = (16 * D1b - D1a) / 15
    D2 = (16 * D2b - D2a) / 15
    if abs(D2a - D2b) > 0.2 * abs(D2b):
        warnings.warn("evans_derivs_at0: D'' stencil disagreement > 20%")
    return D0, D1, D2


@dataclass
class EvansScan:
    lam: np.ndarray
    D: np.ndarray
    min_modulus: float
    jost_steps: int      # steps of the mesh every lambda of the scan is marched on
    winding: int = None


def evans_scan(points, p, cache, closed=False, rtol=1e-9):
    """Sample D along a contour; winding number for closed contours.

    Refines between adjacent samples whenever the phase jump exceeds pi/2,
    for at most _MAX_REFINE rounds.  One evans call takes the points, and
    one more each round's midpoints.
    """
    lam = np.array(points, dtype=complex)
    D = evans(lam, p, cache, rtol=rtol)
    for _ in range(_MAX_REFINE):
        # the pairs (k, k+1), and (last, first) on a closed contour
        k = np.arange(len(lam) - 1 + closed)
        nxt = (k + 1) % len(lam)
        i = k[np.abs(np.angle(D[nxt] / D[k])) > np.pi / 2]
        if not len(i):
            break
        mids = (lam[i] + lam[nxt[i]]) / 2
        lam = np.insert(lam, i + 1, mids)
        D = np.insert(D, i + 1, evans(mids, p, cache, rtol=rtol))
    scan = EvansScan(lam, D, float(np.min(np.abs(D))), len(_march_mesh(p, rtol)[0]) - 1)
    if closed:
        dphi = np.angle(np.roll(D, -1) / D)
        scan.winding = int(np.round(np.sum(dphi) / (2 * np.pi)))
    return scan


def rectangle_contour(re_min, re_max, im_min, im_max, n_per_side=30):
    tops = np.linspace(0, 1, n_per_side, endpoint=False)
    return np.concatenate([
        re_min + tops * (re_max - re_min) + 1j * im_min,
        re_max + 1j * (im_min + tops * (im_max - im_min)),
        re_max - tops * (re_max - re_min) + 1j * im_max,
        re_min + 1j * (im_max - tops * (im_max - im_min))])


def xi_big(p):
    """Profile-derivative solution Xi_1 = (n', u', phi', phi'') of the
    lambda = 0 system at the grid nodes, phi'' = e^phi - 1 - n; f_1(., 0) is
    proportional to it."""
    return np.array([p.dn, p.du, p.psi, np.exp(p.phi) - 1.0 - p.n])

