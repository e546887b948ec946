"""Uniform 1D grid, fields, differentiation, quadrature, and weight functions.

A `Grid` is immutable, so everything derived from (L, N) is computed once per
grid and cached: the nodes `x`, the wavenumbers `k` and the Fourier symbols
of d/dx, d^2/dx^2 and d^3/dx^3 (returned read-only).  Periodic derivatives of
real data take one `rfft`/`irfft` pair; complex data keeps the full FFT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import cumulative_trapezoid


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [-L, L) with spacing h = 2L/N.

    boundary_mode 'periodic' wraps derivatives (FFT collocation);
    'line' uses 4th-order finite differences with one-sided closures.
    """

    L: float
    N: int
    boundary_mode: str = "periodic"

    def __post_init__(self):
        if self.N < 16 or self.N % 2 != 0:
            raise ValueError("N must be an even integer >= 16")
        if self.L <= 0:
            raise ValueError("L must be positive")
        if self.boundary_mode not in ("periodic", "line"):
            raise ValueError(f"unknown boundary_mode {self.boundary_mode!r}")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @cached_property
    def x(self) -> np.ndarray:
        return _frozen(-self.L + self.h * np.arange(self.N))

    @cached_property
    def k(self) -> np.ndarray:
        """Fourier wavenumbers for the periodic mode."""
        return _frozen(2.0 * np.pi * np.fft.fftfreq(self.N, d=self.h))

    @cached_property
    def _symbols(self) -> dict:
        """{(order, real): symbol of d^order/dx^order} on the fft (real=False)
        or rfft (real=True) wavenumbers, orders 1-3."""
        out = {}
        for real in (False, True):
            k = self.k[: self.N // 2 + 1] if real else self.k
            d1, d3 = 1j * k, -1j * k ** 3
            d1[self.N // 2] = d3[self.N // 2] = 0.0  # kill the asymmetric Nyquist mode for odd orders
            out[1, real], out[2, real], out[3, real] = _frozen(d1), _frozen(-k ** 2), _frozen(d3)
        return out

    def symbol(self, order: int, real: bool = True) -> np.ndarray:
        """Fourier symbol of d^order/dx^order (orders 1-3), read-only: on the
        rfft wavenumbers when real, else on the full fft wavenumbers."""
        return self._symbols[order, real]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


N_MAX = 2 ** 16       # largest N default_grid will choose
_NYQUIST_TAIL = 1e-7  # profile's Fourier tail exp(-pi d / h) left at the Nyquist wavenumber


def default_grid(eps: float, K: float = 1.0, L: float | None = None,
                 N: int | None = None, L_factor: float = 40.0,
                 h_factor: float = 0.25, boundary_mode: str = "periodic") -> Grid:
    """Grid resolving the solitary wave of speed c = sqrt(1+K) + eps.

    L = L_factor/sqrt(eps) holds the exponential tail (width ~ eps^{-1/2}).
    N is the smallest power of two (at least 16) with h <= h_factor/sqrt(eps)
    and exp(-pi d / h) <= 1e-7, where d = profile.sonic_branch_distance(c, K):
    the profile's Fourier coefficients decay like exp(-d |k|), and pi/h is the
    Nyquist wavenumber.  d shrinks much faster than eps^{-1/2} as eps leaves the
    KdV limit (d = 4.4 at eps = 0.05, 1.3 at 0.1, 0.17 at 0.15 for K = 1), so
    N grows with eps.  The tail bound is calibrated so that the built profile's
    Poisson residual stays below 1e-8 even where the rule is tightest (2L/h just
    under a power of two: 5e-9 at eps = 0.062, K = 1).  A given L or N is kept
    and only the missing one is derived.

    Raises ValueError when the rule needs more than N_MAX points, which happens
    as eps nears the existence edge and the branch point reaches the real axis.
    """
    if L is None:
        L = L_factor / np.sqrt(eps)
    if N is None:
        from .profile import sonic_branch_distance
        d = sonic_branch_distance(np.sqrt(1.0 + K) + eps, K)
        if d <= 0.0:
            raise ValueError(f"no solitary-wave peak below the sonic point at eps={eps:g}, "
                             f"K={K:g}: no grid resolves the profile")
        h_max = min(h_factor / np.sqrt(eps), np.pi * d / np.log(1.0 / _NYQUIST_TAIL))
        N = max(int(2 ** np.ceil(np.log2(2 * L / h_max))), 16)
        if N > N_MAX:
            raise ValueError(f"resolving the profile at eps={eps:g}, K={K:g} needs "
                             f"N={N} > {N_MAX} grid points")
    return Grid(L=L, N=N, boundary_mode=boundary_mode)


@dataclass
class Field:
    """Per-node values with 1..4 interleaved components, shape (ncomp, N) or (N,)."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim == 1:
            self.values = self.values[None, :]
        if self.values.shape[1] != self.grid.N:
            raise ValueError("values length does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite field values")

    @property
    def ncomp(self) -> int:
        return self.values.shape[0]


# ---------------------------------------------------------------------------
# differentiation / quadrature

_FD1_INTERIOR = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_FD2_INTERIOR = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
# 4th-order one-sided first derivative (forward), 5-point
_FD1_EDGE = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
# 4th-order one-sided second derivative (forward), 6-point
_FD2_EDGE = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / 12.0


def _fd_apply(v: np.ndarray, h: float, order: int) -> np.ndarray:
    n = v.shape[-1]
    out = np.empty_like(v, dtype=float)
    if order == 1:
        stencil, edge, p = _FD1_INTERIOR, _FD1_EDGE, 1
    else:
        stencil, edge, p = _FD2_INTERIOR, _FD2_EDGE, 2
    core = np.apply_along_axis(lambda r: np.convolve(r, stencil[::-1], mode="valid"), -1, v)
    out[..., 2:n - 2] = core
    m = len(edge)
    for i in (0, 1):
        out[..., i] = v[..., i:i + m] @ edge
        out[..., n - 1 - i] = ((-1) ** p) * (v[..., n - 1 - i - m + 1:n - i][..., ::-1] @ edge)
    return out / h ** p


def derivative(v: np.ndarray, grid: Grid, order: int = 1) -> np.ndarray:
    """Differentiate node values; spectral in periodic mode, FD4 on the line."""
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2, or 3")
    v = np.asarray(v)
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite input to derivative")
    if grid.boundary_mode == "periodic":
        if np.isrealobj(v):
            return np.fft.irfft(grid.symbol(order) * np.fft.rfft(v, axis=-1),
                                n=grid.N, axis=-1)
        return np.fft.ifft(grid.symbol(order, real=False) * np.fft.fft(v, axis=-1), axis=-1)
    if order == 3:
        return _fd_apply(_fd_apply(v, grid.h, 2), grid.h, 1)
    return _fd_apply(v, grid.h, order)


def integrate(v: np.ndarray, grid: Grid) -> float | complex:
    """Quadrature consistent with boundary_mode (rectangle/trapezoid)."""
    v = np.asarray(v)
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite input to integrate")
    if grid.boundary_mode == "periodic":
        return grid.h * v.sum(axis=-1)
    s = v.sum(axis=-1) - 0.5 * (v[..., 0] + v[..., -1])
    return grid.h * s


def inner(f: np.ndarray, g: np.ndarray, grid: Grid):
    """Bilinear pairing <f, g> = integral of sum_j f_j g_j, no conjugation."""
    f, g = np.asarray(f), np.asarray(g)
    prod = f * g
    if prod.ndim == 2:
        prod = prod.sum(axis=0)
    return integrate(prod, grid)


def l2norm(v: np.ndarray, grid: Grid) -> float:
    v = np.asarray(v)
    return float(np.sqrt(integrate(np.abs(v) ** 2, grid).sum()))


# ---------------------------------------------------------------------------
# weights

def smooth_bump(x: np.ndarray) -> np.ndarray:
    """Even C^1-smoothstep bump: 1 on |x|<=1, 0 on |x|>=2, quintic transition."""
    s = np.clip(np.abs(x) - 1.0, 0.0, 1.0)
    return 1.0 - s ** 3 * (10.0 - 15.0 * s + 6.0 * s ** 2)


def zeta(x: np.ndarray, C: float) -> np.ndarray:
    """zeta_C(x) = exp(-(|x|/C)(1 - chi(x))): 1 near 0, e^{-|x|/C} for |x| >= 2."""
    return np.exp(-(np.abs(x) / C) * (1.0 - smooth_bump(x)))


@dataclass
class WeightSet:
    A: float
    B: float
    A1: float
    kappa: float
    a_rate: float
    eps: float
    grid: Grid
    zeta_A: np.ndarray = field(init=False)
    zeta_B: np.ndarray = field(init=False)
    theta1: np.ndarray = field(init=False)
    theta2: np.ndarray = field(init=False)
    phi1: np.ndarray = field(init=False)
    phi2: np.ndarray = field(init=False)
    psi_weight: np.ndarray = field(init=False)
    sech_weight: np.ndarray = field(init=False)
    exp_weight: np.ndarray = field(init=False)
    degenerate_partition: bool = field(init=False, default=False)

    def __post_init__(self):
        for name in ("A", "B", "A1", "kappa", "a_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        g, x = self.grid, self.grid.x
        self.degenerate_partition = self.A1 >= g.L
        self.zeta_A = zeta(x, self.A)
        self.zeta_B = zeta(x, self.B)
        self.theta1 = smooth_bump(x / self.A1)
        self.theta2 = 1.0 - self.theta1
        self.phi1 = self._phi_i(self.theta1)
        self.phi2 = self._phi_i(self.theta2)
        ek = self.eps * self.kappa
        self.psi_weight = np.tanh(ek * x) / ek
        self.sech_weight = 1.0 / np.cosh(ek * x)
        self.exp_weight = np.exp(self.a_rate * x)

    def _phi_i(self, theta: np.ndarray) -> np.ndarray:
        """phi_{iAA1}(x) = int_0^x zeta_A^2 theta_i^2, cumulative quadrature anchored at 0."""
        g = self.grid
        integ = self.zeta_A ** 2 * theta ** 2
        F = np.concatenate([[0.0], cumulative_trapezoid(integ, g.x)])
        # anchor at x = 0 (node since N even and grid starts at -L)
        i0 = int(np.argmin(np.abs(g.x)))
        return F - F[i0]


def make_weights(A: float, B: float, A1: float, kappa: float, a_rate: float,
                 eps: float, grid: Grid) -> WeightSet:
    return WeightSet(A=A, B=B, A1=A1, kappa=kappa, a_rate=a_rate, eps=eps, grid=grid)


def default_weights(eps: float, grid: Grid, A: float = 100.0, B: float = 10.0,
                    kappa: float = 0.1, rho: float = 0.3) -> WeightSet:
    return make_weights(A, B, B ** 0.6, kappa, rho * np.sqrt(eps), eps, grid)


def norms(V: np.ndarray, w: WeightSet) -> dict:
    """Norm bundle {Sigma1, Sigma2, Sigma_tilde, L2a, weighted_local} of a perturbation.

    For the Sigma norms V must have 3 components (V_n, V_u, V_phi); the derivative
    term acts on V_phi only.  2-component input is accepted for the others.
    """
    V = np.asarray(V)
    if V.ndim == 1:
        V = V[None, :]
    g = w.grid
    out = {}
    if V.shape[0] == 3:
        for i, theta in ((1, w.theta1), (2, w.theta2)):
            wz = theta * w.zeta_A
            main = l2norm(wz * V, g)
            dterm = l2norm(derivative(wz * V[2], g, 1), g)
            out[f"Sigma{i}"] = main + dterm
    elif V.shape[0] == 2:
        out["Sigma1"] = out["Sigma2"] = float("nan")
    else:
        raise ValueError("norms expects 2 or 3 components")
    out["Sigma_tilde"] = l2norm(w.sech_weight * V, g)
    win = np.abs(g.x) <= 0.8 * g.L
    out["L2a"] = l2norm(np.where(win, w.exp_weight * V, 0.0), g)
    bracket = np.sqrt(1.0 + g.x ** 2)
    out["weighted_local"] = float(integrate(
        np.exp(-2.0 * w.a_rate * bracket) * (np.abs(V) ** 2).sum(axis=0), g))
    return out
