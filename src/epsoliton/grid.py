"""Uniform periodic 1D grid, spectral calculus, quadrature, and weight functions.

A `Grid` is immutable, so everything derived from (L, N) is computed once per
grid and cached: the nodes `x`, the wavenumbers `k`, the Fourier symbols
of d/dx and d^2/dx^2 on the rfft wavenumbers, k^2, the
2/3-dealiased symbol of d/dx and the l1 weights that bound a function's
maximum by its rfft coefficients (all read-only).
Derivatives act on real data only, by one `rfft`/`irfft` pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L) with spacing h = 2L/N."""

    L: float
    N: int

    def __post_init__(self):
        if self.N < 16 or self.N % 2 != 0:
            raise ValueError("N must be an even integer >= 16")
        if self.L <= 0:
            raise ValueError("L must be positive")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @cached_property
    def x(self) -> np.ndarray:
        return _frozen(-self.L + self.h * np.arange(self.N))

    @cached_property
    def k(self) -> np.ndarray:
        """Fourier wavenumbers."""
        return _frozen(2.0 * np.pi * np.fft.fftfreq(self.N, d=self.h))

    @cached_property
    def _symbols(self) -> dict:
        """{order: symbol of d^order/dx^order} on the rfft wavenumbers, orders 1-2."""
        d1 = 1j * self.k[: self.N // 2 + 1]
        d1[self.N // 2] = 0.0  # kill the asymmetric Nyquist mode for the odd order
        return {1: _frozen(d1), 2: _frozen(-self.k2)}

    def symbol(self, order: int) -> np.ndarray:
        """Fourier symbol of d^order/dx^order (orders 1-2) on the rfft
        wavenumbers, read-only."""
        return self._symbols[order]

    @cached_property
    def k2(self) -> np.ndarray:
        """k^2 on the rfft wavenumbers, the symbol of -d^2/dx^2."""
        return _frozen(self.k[: self.N // 2 + 1] ** 2)

    @cached_property
    def dealiased_d1(self) -> np.ndarray:
        """Symbol of d/dx with the top third of the rfft modes zeroed (the
        2/3 rule)."""
        d1 = self.symbol(1).copy()
        d1[_band_cut(self):] = 0.0
        return _frozen(d1)

    @cached_property
    def l1_weights(self) -> np.ndarray:
        """Weights w with max |f| <= sum_k w_k |rfft(f)_k| on the nodes."""
        w = np.full(self.N // 2 + 1, 2.0 / self.N)
        w[0] = w[-1] = 1.0 / self.N
        return _frozen(w)


def _band_cut(grid: Grid) -> int:
    """First rfft index of the top third of the modes, which the 2/3 rule
    zeroes."""
    return int((grid.N // 2 + 1) * 2 / 3)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# differentiation / quadrature / translation

def derivative(v: np.ndarray, grid: Grid, order: int = 1) -> np.ndarray:
    """Differentiate real node values spectrally (Fourier collocation)."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    v = np.asarray(v)
    if not np.isrealobj(v):
        raise ValueError("complex input to derivative")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite input to derivative")
    return np.fft.irfft(grid.symbol(order) * np.fft.rfft(v, axis=-1),
                        n=grid.N, axis=-1)


def antiderivative(rows: np.ndarray, grid: Grid) -> np.ndarray:
    """Cumulative integral of each real row from -L: the mean-free part's
    rfft coefficients over ik (Nyquist dropped), anchored at -L, plus the
    mean times (x + L).  Spectrally accurate for smooth data whose mean-free
    part is periodic; continued to x = L it gives `integrate`."""
    f_hat = np.fft.rfft(rows, axis=-1)
    inv = np.zeros_like(grid.symbol(1))
    inv[1:-1] = 1.0 / grid.symbol(1)[1:-1]
    F = np.fft.irfft(inv * f_hat, n=grid.N, axis=-1)
    return F - F[..., :1] + f_hat[..., :1].real / grid.N * (grid.x + grid.L)


def integrate(v: np.ndarray, grid: Grid) -> float | complex:
    """Rectangle rule, spectrally accurate for periodic data."""
    v = np.asarray(v)
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite input to integrate")
    return grid.h * v.sum(axis=-1)


def running_integral(series: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Trapezoid-rule integral of a time series from t[0] to each t[i]."""
    return np.concatenate([[0.0], np.cumsum((series[1:] + series[:-1]) / 2
                                            * np.diff(t))])


def translate(fields, shift, grid):
    """Translate each row of real `fields` by `shift` via the Fourier phase
    e^{-ik shift}: exact for band-limited data; returns shape (rows, N)."""
    ph = np.exp(-1j * grid.k[: grid.N // 2 + 1] * shift)
    return np.fft.irfft(np.fft.rfft(np.atleast_2d(fields), axis=-1) * ph, n=grid.N, axis=-1)


def inner(f: np.ndarray, g: np.ndarray, grid: Grid):
    """Bilinear pairing <f, g> = integral of sum_j f_j g_j, no conjugation;
    over a stack (..., rows, N) it is an array over the leading axes."""
    f, g = np.asarray(f), np.asarray(g)
    prod = f * g
    if prod.ndim >= 2:
        prod = prod.sum(axis=-2)
    return integrate(prod, grid)


# ---------------------------------------------------------------------------
# weights

# the exponentially weighted norms read only |x| <= WINDOW L, where radiation
# that left the periodic box arrives last
WINDOW = 0.8
# l2a squares e^{a_rate x} on the window: finite while a_rate L < 443.6
A_RATE_L_MAX = np.log(np.finfo(float).max) / (2.0 * WINDOW)


def l2a(V: np.ndarray, a_rate: float, grid: Grid) -> np.ndarray:
    """L^2 norm of the rows of V with weight e^{a_rate x}, on |x| <= WINDOW L;
    over a stack (..., rows, N), an array over the leading axes."""
    w = np.exp(a_rate * grid.x) * (np.abs(grid.x) <= WINDOW * grid.L)
    return np.sqrt(integrate(((w * V) ** 2).sum(axis=-2), grid))


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

    def __post_init__(self):
        for name in ("A", "B", "A1", "kappa", "a_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not self.a_rate * self.grid.L < A_RATE_L_MAX:
            raise ValueError(f"a_rate {self.a_rate:g} overflows the weight on |x| <= {WINDOW:g} L")
        x = self.grid.x
        self.zeta_A = zeta(x, self.A)
        self.zeta_B = zeta(x, self.B)
        self.theta1 = smooth_bump(x / self.A1)
        self.theta2 = 1.0 - self.theta1
        self.phi1 = self._phi_i(self.theta1)
        self.phi2 = self._phi_i(self.theta2)
        ek = self.eps * self.kappa
        self.psi_weight = np.tanh(ek * x) / ek
        self.sech_weight = 1.0 / np.cosh(ek * x)

    def _phi_i(self, theta: np.ndarray) -> np.ndarray:
        """phi_{iAA1}(x) = int_0^x zeta_A^2 theta_i^2, cumulative quadrature anchored at 0."""
        g = self.grid
        integ = self.zeta_A ** 2 * theta ** 2
        F = running_integral(integ, g.x)
        # anchor at x = 0 (node since N even and grid starts at -L)
        i0 = int(np.argmin(np.abs(g.x)))
        return F - F[i0]


def default_weights(eps: float, grid: Grid, A: float, B: float, kappa: float,
                    rho: float) -> WeightSet:
    return WeightSet(A=A, B=B, A1=B ** 0.6, kappa=kappa, a_rate=rho * np.sqrt(eps),
                     eps=eps, grid=grid)


def sigma_tilde_sq(V: np.ndarray, w: WeightSet) -> np.ndarray:
    """The local norm Sigma-tilde squared of each row of a stack V (..., N):
    integral of sech^2(eps kappa x) V_j^2 dx, an array over the leading axes."""
    return integrate((w.sech_weight * V) ** 2, w.grid)


def norms(V: np.ndarray, w: WeightSet) -> dict:
    """Norm bundle {Sigma1, Sigma2, Sigma_tilde, L2a, weighted_local} of a
    stack V (..., 3, N) of perturbations (V_n, V_u, V_phi), each an array over
    the leading axes; the Sigma norms' derivative term acts on V_phi only."""
    V = np.asarray(V)
    if V.ndim < 2 or V.shape[-2] != 3:
        raise ValueError("norms expects 3 components (V_n, V_u, V_phi)")
    g = w.grid
    out = {}
    for i, theta in ((1, w.theta1), (2, w.theta2)):
        wz = theta * w.zeta_A
        out[f"Sigma{i}"] = (np.sqrt(integrate((wz * V) ** 2, g).sum(axis=-1))
                            + np.sqrt(integrate(derivative(wz * V[..., 2, :], g) ** 2, g)))
    out["Sigma_tilde"] = np.sqrt(sigma_tilde_sq(V, w).sum(axis=-1))
    out["L2a"] = l2a(V, w.a_rate, g)
    bracket = np.sqrt(1.0 + g.x ** 2)
    out["weighted_local"] = integrate(
        np.exp(-2.0 * w.a_rate * bracket) * (V ** 2).sum(axis=-2), g)
    return out
