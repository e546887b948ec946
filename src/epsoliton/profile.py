"""Solitary-wave profile construction for the 1D Euler-Poisson system.

The wave S_c = (n_c, u_c, phi_c) with supersonic speed c > V = sqrt(1+K) solves

    c n' = ((1+n) u)',   c u' = (u^2/2 + K log(1+n) + phi)',   -phi'' = 1 + n - e^phi,

which reduces (with decay at infinity) to u = c n/(1+n), phi = H(n, c) and the
planar Hamiltonian system phi'' = e^phi - 1 - N(phi, c) whose homoclinic orbit is
computed by quadrature of the first integral (phi')^2/2 = G(phi) (Sagdeev
pseudopotential), regularized at the turning point by phi = phi* - t^2.  Its one
evaluator sagdeev_G takes phi with the offset phi* - phi each caller already
holds, so near the peak G comes from its Taylor series in t^2 itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .elliptic import solve_schrodinger
from .grid import Grid, derivative
from .ode import brentq, solve_ivp


def H(n, c, K):
    """First integral of the momentum equation: phi = H(n, c)."""
    return 0.5 * c ** 2 * (1.0 - 1.0 / (1.0 + n) ** 2) - K * np.log1p(n)


def dH_dn(n, c, K):
    return c ** 2 / (1.0 + n) ** 3 - K / (1.0 + n)


def g_existence(n, c, K):
    """g(n,c) = c^2/(1+n) + K(1+n) + e^{H(n,c)}; the peak density solves g = c^2+K+1."""
    return c ** 2 / (1.0 + n) + K * (1.0 + n) + np.exp(H(n, c, K))


def peak_state(c: float, K: float) -> tuple[float, float, float]:
    """Peak values (n*, phi*, u*) of the solitary wave at x = 0.

    Raises ValueError outside the existence window: when the peak equation
    has no root, when its last root lies in the first scan interval (the
    trivial root n = 0, not a peak), or when the peak curvature
    -phi''(0) = 1 + n* - e^{phi*} is not positive (no homoclinic orbit).
    """
    V = np.sqrt(1.0 + K)
    if c <= V:
        raise ValueError("no solitary wave: speed must exceed the sonic speed sqrt(1+K)")
    target = c ** 2 + K + 1.0
    n_hi = c / np.sqrt(K) - 1.0  # upper end of the monotonicity window of H
    # g(0) = target exactly; the wave peak is the second crossing. Bracket it by
    # scanning from just above the leading-order amplitude 3*eps/V downward/upward.
    ns = np.linspace(1e-12, n_hi * (1 - 1e-9), 4001)
    with np.errstate(over="ignore"):  # e^H overflows far past the edge; inf keeps its sign
        vals = g_existence(ns, c, K) - target
    sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if len(sign_change) == 0:
        raise ValueError("no solitary wave at this (c, K): no root of the peak equation")
    i = sign_change[-1]
    if i == 0:
        raise ValueError(f"no solitary wave at c={c:g}, K={K:g}: the peak equation has "
                         "only the trivial root n = 0 (past the existence edge)")
    n_star = brentq(lambda n: g_existence(n, c, K) - target, ns[i], ns[i + 1],
                    xtol=1e-15, rtol=8.9e-16)
    phi_star = H(n_star, c, K)
    if 1.0 + n_star - np.exp(phi_star) <= 0.0:
        raise ValueError(f"no solitary wave at c={c:g}, K={K:g}: the peak curvature "
                         "1 + n* - e^phi* is not positive (past the existence edge)")
    u_star = c * n_star / (1.0 + n_star)
    return float(n_star), float(phi_star), float(u_star)


def sonic_branch_distance(c: float, K: float) -> float:
    """Distance from the real x-axis to the profile's nearest complex singularity.

    N(phi, c) has a square-root branch point where dH/dn = 0, at the sonic
    density n_s = c/sqrt(K) - 1.  Near the peak phi ~ phi* - b x^2 with
    b = -phi''(0)/2 = (1 + n* - e^{phi*})/2, so phi reaches H(n_s) at x = i d,
    d = sqrt((H(n_s) - phi*) / b), and the Fourier coefficients of the profile
    decay like exp(-d |k|) (Boyd, Chebyshev and Fourier Spectral Methods, 2001).
    Returns 0 when the peak sits at the sonic point (no gap); raises
    ValueError outside the existence window (see peak_state).
    """
    n_star, phi_star, _ = peak_state(c, K)
    b = 0.5 * (1.0 + n_star - np.exp(phi_star))
    gap = H(c / np.sqrt(K) - 1.0, c, K) - phi_star
    if gap <= 0.0:
        return 0.0
    return float(np.sqrt(gap / b))


N_MAX = 2 ** 16       # largest N default_grid will choose
_H_FACTOR = 0.25      # h <= _H_FACTOR / sqrt(eps): four nodes per KdV width at least
_NYQUIST_TAIL = 1e-7  # profile's Fourier tail exp(-pi d / h) left at the Nyquist wavenumber


def default_grid(eps: float, K: float = 1.0, L: float | None = None,
                 N: int | None = None, L_factor: float = 40.0) -> Grid:
    """Grid resolving the solitary wave of speed c = sqrt(1+K) + eps.

    L = L_factor/sqrt(eps) holds the exponential tail (width ~ eps^{-1/2}).
    N is the smallest power of two (at least 16) with h <= 0.25/sqrt(eps)
    and exp(-pi d / h) <= 1e-7, where d = sonic_branch_distance(c, K):
    the profile's Fourier coefficients decay like exp(-d |k|), and pi/h is the
    Nyquist wavenumber.  d shrinks much faster than eps^{-1/2} as eps leaves the
    KdV limit (d = 4.4 at eps = 0.05, 1.3 at 0.1, 0.17 at 0.15 for K = 1), so
    N grows with eps.  At K = 1 the built profile's nodal Poisson residual stays
    below 1e-8 up to eps = 0.138 (4.7e-10 at 0.1, 8.1e-9 at 0.138); nearer the
    existence edge it grows although the rule is met: 1.6e-8 at eps = 0.14,
    7.3e-6 at 0.15 and 1.9e-4 at 0.153.  A given L or N is kept and only the
    missing one is derived.

    Raises ValueError outside the existence window (peak_state), given L and
    N or not, and when the rule needs more than N_MAX points, as eps nears
    the existence edge and the branch point reaches the real axis.
    """
    d = sonic_branch_distance(np.sqrt(1.0 + K) + eps, K)
    if L is None:
        L = L_factor / np.sqrt(eps)
    if N is None:
        if d <= 0.0:
            raise ValueError(f"no solitary-wave peak below the sonic point at eps={eps:g}, "
                             f"K={K:g}: no grid resolves the profile")
        h_max = min(_H_FACTOR / np.sqrt(eps), np.pi * d / np.log(1.0 / _NYQUIST_TAIL))
        N = max(int(2 ** np.ceil(np.log2(2 * L / h_max))), 16)
        if N > N_MAX:
            raise ValueError(f"resolving the profile at eps={eps:g}, K={K:g} needs "
                             f"N={N} > {N_MAX} grid points")
    return Grid(L=L, N=N)


def invert_H(phi, c, K, n_star):
    """N(phi, c): inverse of n -> H(n,c) on [0, n*], always 60 vectorized Newton steps."""
    phi = np.asarray(phi, dtype=float)
    n = np.clip(phi / (c ** 2 - K), 0.0, n_star)  # linearized guess
    for _ in range(60):
        n = np.clip(n - (H(n, c, K) - phi) / dH_dn(n, c, K), 0.0, n_star * (1 + 1e-12))
    res = H(n, c, K) - phi
    bad = np.abs(res) > 1e-12 * (1.0 + np.abs(phi))
    for idx in np.nonzero(bad)[0]:
        n[idx] = brentq(lambda m: H(m, c, K) - phi[idx], 0.0, n_star * (1 + 1e-9),
                        xtol=1e-16, rtol=8.9e-16)
    return n


def _invert_H_scalar(phi: float, c: float, K: float, n_star: float) -> float:
    """Fast plain-float Newton for N(phi, c) used inside quadrature loops."""
    c2 = c * c
    n = min(max(phi / (c2 - K), 0.0), n_star)
    for _ in range(40):
        e = 1.0 + n
        f = 0.5 * c2 * (1.0 - 1.0 / (e * e)) - K * math.log(e) - phi
        df = c2 / (e * e * e) - K / e
        step = f / df
        n = min(max(n - step, 0.0), n_star * (1.0 + 1e-12))
        if abs(step) < 1e-16 * (1.0 + n):
            break
    return n


def _G_taylor(d, phi0, m0, c, K):
    """Taylor expansion of G at phi0 + d about a zero phi0 of G (0 or phi*),
    m0 = N(phi0): cancellation-free, with derivatives via N' = 1/h, h = dH/dn."""
    e = 1.0 + m0
    h = c ** 2 / e ** 3 - K / e
    hp = -3 * c ** 2 / e ** 4 + K / e ** 2
    hpp = 12 * c ** 2 / e ** 5 - 2 * K / e ** 3
    e0 = np.exp(phi0)
    G1 = e0 - 1.0 - m0
    G2 = e0 - 1.0 / h
    G3 = e0 + hp / h ** 3
    G4 = e0 + (hpp * h - 3.0 * hp ** 2) / h ** 5
    return d * (G1 + d * (G2 / 2.0 + d * (G3 / 6.0 + d * G4 / 24.0)))


def sagdeev_G(phi, t2, c, K, n_star, phi_star):
    """Sagdeev potential G(phi) = int_0^phi (e^s - 1 - N(s,c)) ds at a scalar phi
    whose offset from the peak, t2 = phi* - phi, the caller passes as well.

    Near G's zeros it takes the Taylor patch: at 0 for phi < 1e-3, at phi* in
    the offset -t2 for t2 < 3e-3 phi* (the turning-point march knows t2 exactly,
    where phi - phi* would lose about log10(phi*/t2) digits).  Elsewhere the
    closed form via m = N(phi,c):

    G = (e^phi - 1 - phi) - c^2 m^2 / (2 (1+m)^2) + K (m - log(1+m)).
    """
    if phi < 1e-3:
        return _G_taylor(phi, 0.0, 0.0, c, K)
    if t2 < 3e-3 * phi_star:
        return _G_taylor(-t2, phi_star, n_star, c, K)
    m = _invert_H_scalar(float(phi), c, K, n_star)
    return (math.expm1(phi) - phi) - 0.5 * c ** 2 * m * m / (1.0 + m) ** 2 \
        + K * (m - math.log1p(m))


def mu4_at_zero(c: float, K: float) -> float:
    """Spatial tail decay rate: mu4(0,eps)^2 = 1 - 1/(c^2 - K)."""
    return float(np.sqrt(1.0 - 1.0 / (c ** 2 - K)))


FINE = 8  # points of the fine line per grid spacing


@dataclass
class ProfileSolution:
    """The solitary wave sampled on a grid, with exact nodal derivatives.

    `fine` holds the rows (n, u, phi, psi, dn, du) on the fine line
    x = linspace(-L, L, FINE*N + 1), exactly even (n, u, phi) and odd
    (psi = phi', dn, du) about its middle column; the node arrays are its
    every FINE-th column, and Evans's coefficient spline takes its knots there.
    """

    c: float
    K: float
    grid: Grid
    n: np.ndarray
    u: np.ndarray
    phi: np.ndarray
    psi: np.ndarray          # phi'
    dn: np.ndarray           # n'
    du: np.ndarray           # u'
    n_star: float
    phi_star: float
    poisson_residual: float
    fine: np.ndarray = field(repr=False)   # (6, FINE*N + 1)

    @property
    def eps(self) -> float:
        return self.c - float(np.sqrt(1.0 + self.K))


def _half_line_values(c, K, xq, n_star, phi_star):
    """phi, n, u and exact derivatives at the points xq >= 0 (sorted ascending)."""
    mu = mu4_at_zero(c, K)
    phi_floor = 1e-9 * phi_star
    phi_mid = 0.5 * phi_star

    def G_march(phi, t2):  # G where the march reads it: positive on (0, phi*)
        G = sagdeev_G(phi, t2, c, K, n_star, phi_star)
        if G <= 0.0:  # peak_state found the wave, so sagdeev_G's error is at fault
            raise RuntimeError("pseudopotential not single-signed on (0, phi*)")
        return G

    # segment 1 (turning point): integrate t(x) with phi = phi* - t^2, which
    # regularizes the sqrt singularity at the peak.  G(phi*) = 0 analytically;
    # start at x0 > 0 where roundoff cannot flip the sign of G, seeding t(x0)
    # from the local expansion G ~ |G'(phi*)| t^2.
    t_mid = np.sqrt(phi_star - phi_mid)
    gp_star = abs(np.exp(phi_star) - 1.0 - n_star)  # |G'(phi*)| = |phi''(0)|
    t0 = 1e-6 * np.sqrt(phi_star)
    x0 = np.sqrt(2.0 / gp_star) * t0

    def rhs_core(x, t):
        t2 = t[0] * t[0]
        return [np.sqrt(2.0 * G_march(phi_star - t2, t2)) / (2.0 * t[0])]

    hit_mid = lambda x, t: t[0] - t_mid
    hit_mid.terminal, hit_mid.direction = True, 1
    x_span_max = max(100.0 / mu, float(xq[-1]) + 1.0)
    ev1 = xq[(xq > x0)]
    eps_loc = c - np.sqrt(1.0 + K)
    sol1 = solve_ivp(rhs_core, (x0, x_span_max), [t0], t_eval=ev1,
                     rtol=1e-12, atol=1e-15, events=hit_mid,
                     max_step=0.2 / np.sqrt(eps_loc))  # keep dense output accurate
    if not sol1.success or len(sol1.t_events[0]) == 0:
        raise RuntimeError("profile quadrature (core) failed")
    x_mid = float(sol1.t_events[0][0])

    # segment 2 (tail): integrate s(x) = log phi(x); ds/dx = -sqrt(2G)/phi ~ -mu
    def rhs_tail(x, s):
        p = np.exp(s[0])
        return [-np.sqrt(2.0 * G_march(p, phi_star - p)) / p]

    s_floor = np.log(phi_floor)
    hit_floor = lambda x, s: s[0] - s_floor
    hit_floor.terminal, hit_floor.direction = True, -1
    ev2 = xq[(xq > x_mid)]
    sol2 = solve_ivp(rhs_tail, (x_mid, x_mid + x_span_max), [np.log(phi_mid)],
                     t_eval=ev2, rtol=1e-12, atol=1e-14, events=hit_floor,
                     max_step=0.5 / mu)
    if not sol2.success or len(sol2.t_events[0]) == 0:
        raise RuntimeError("profile quadrature (tail) failed")
    x_end = float(sol2.t_events[0][0])

    phis = np.empty_like(xq)
    near = xq <= x0
    phis[near] = phi_star - gp_star / 2.0 * xq[near] ** 2
    # each segment's points are the first t_eval points of its solve (a
    # terminal event keeps the t_eval points up to the event)
    seg1 = (xq > x0) & (xq <= x_mid)
    phis[seg1] = phi_star - np.ravel(sol1.y)[:np.count_nonzero(seg1)] ** 2
    seg2 = (xq > x_mid) & (xq < x_end)
    phis[seg2] = np.exp(np.ravel(sol2.y)[:np.count_nonzero(seg2)])
    tail = xq >= x_end
    # exponential tail with the exact asymptotic rate, matched at x_end
    phis[tail] = phi_floor * np.exp(-mu * (xq[tail] - x_end))
    phis[phis < 1e-14 * phi_star] = 0.0

    ns = invert_H(phis, c, K, n_star)
    us = c * ns / (1.0 + ns)
    # sagdeev_G at each phi: its Taylor patch at 0 (most points) as one array
    # call, bit for bit the scalar one; the scalar closed form elsewhere
    G = _G_taylor(phis, 0.0, 0.0, c, K)
    closed = phis >= 1e-3
    G[closed] = [sagdeev_G(p, phi_star - p, c, K, n_star, phi_star) for p in phis[closed]]
    psis = -np.sqrt(np.maximum(2.0 * G, 0.0))  # phi' < 0, x>0
    psis[phis == 0.0] = 0.0
    h_n = dH_dn(ns, c, K)
    dns = psis / h_n
    dus = c * dns / (1.0 + ns) ** 2
    return phis, ns, us, psis, dns, dus


def build_profile(c: float, K: float, grid: Grid) -> ProfileSolution:
    """Construct the solitary wave on the grid by pseudopotential quadrature.

    H(., c) is monotone on [0, n*]: dH/dn = (c^2 - K(1+n)^2)/(1+n)^3 decreases in n
    and is positive at n*, below peak_state's bracket end n_hi = c/sqrt(K) - 1."""
    n_star, phi_star, _ = peak_state(c, K)

    # fine half-line (node-exact values), mirrored once onto the fine line,
    # whose column i sits at |x| = |i - FINE*N/2| h/FINE
    xq = np.arange(0.0, grid.L + 4 * grid.h, grid.h / FINE)
    phis, ns, us, psis, dns, dus = _half_line_values(c, K, xq, n_star, phi_star)
    mirror = np.abs(np.arange(FINE * grid.N + 1) - FINE * grid.N // 2)
    fine = np.array([ns, us, phis, psis, dns, dus])[:, mirror]
    fine[3:] *= np.sign(np.linspace(-grid.L, grid.L, FINE * grid.N + 1))
    n_g, u_g, phi_g, psi_g, dn_g, du_g = np.ascontiguousarray(fine[:, :-1:FINE])

    resid = float(np.max(np.abs(-derivative(phi_g, grid, 2) + np.exp(phi_g) - 1.0 - n_g)))

    return ProfileSolution(c=c, K=K, grid=grid, n=n_g, u=u_g, phi=phi_g, psi=psi_g,
                           dn=dn_g, du=du_g, n_star=n_star, phi_star=phi_star,
                           poisson_residual=resid, fine=fine)


def profile_from_eps(eps: float, K: float, grid: Grid) -> ProfileSolution:
    return build_profile(np.sqrt(1.0 + K) + eps, K, grid)


# ---------------------------------------------------------------------------
# KdV reference and diagnostics

def psi_kdv(x, K):
    """KdV profile: psi(x) = (3/V) sech^2(sqrt(V/2) x), V = sqrt(1+K)."""
    V = np.sqrt(1.0 + K)
    return (3.0 / V) / np.cosh(np.sqrt(V / 2.0) * x) ** 2


def kdv_residual(p: ProfileSolution) -> float:
    """sup-norm of S_c minus its leading KdV approximation
    eps (1, V, 1)^T psi_KdV(sqrt(eps) x), V = sqrt(1+K)."""
    V = np.sqrt(1.0 + p.K)
    base = psi_kdv(np.sqrt(p.eps) * p.grid.x, p.K)
    ref = p.eps * np.array([base, V * base, base])
    S = np.array([p.n, p.u, p.phi])
    return float(np.max(np.abs(S - ref)))


def profile_c_derivative(p: ProfileSolution):
    """xi2 = d/dc (n_c, u_c) of the built profile p, shape (2, N), and the
    report of the one linear solve it takes.

    With H_n, H_c the n- and c-derivatives of H at n_c, w = d/dc phi_c
    solves the profile equation differentiated in c,

        (-d^2/dx^2 + q) w = -H_c / H_n,     q = e^{phi_c} - 1/H_n,

    and d/dc n_c = (w - H_c)/H_n, d/dc u_c = n_c/(1+n_c) + c d/dc n_c/(1+n_c)^2.
    q is negative on the wave, so the operator is indefinite on even
    functions: elliptic.solve_schrodinger.  Its kernel is spanned by the odd
    phi_c', so w is made exactly even, as the data are.
    """
    c, K, n = p.c, p.K, p.n
    H_n = dH_dn(n, c, K)
    H_c = c * (1.0 - 1.0 / (1.0 + n) ** 2)
    w, rep = solve_schrodinger(np.exp(p.phi) - 1.0 / H_n, -H_c / H_n, p.grid)
    w = 0.5 * (w + np.roll(w[::-1], 1))  # w[j] and w[N - j] sit at -x and x
    dn_dc = (w - H_c) / H_n
    return np.array([dn_dc, n / (1.0 + n) + c * dn_dc / (1.0 + n) ** 2]), rep


_TAIL_DECADES = 2.0  # decades of n_c below n*/100 that tail_rate_check fits


def tail_rate_check(p: ProfileSolution) -> float:
    """Least-squares exponential fit of log n_c on the tail window; compare to mu4(0,eps).

    NaN when fewer than two nodes on x > 0 fall in the window (a box too
    short for the tail to drop below n*/100)."""
    x, n = p.grid.x, p.n
    mask = x > 0
    xm, nm = x[mask], n[mask]
    top = p.n_star * 1e-2
    floor = max(p.n_star * 1e-2 * 10.0 ** (-_TAIL_DECADES), 1e-13)
    sel = (nm < top) & (nm > floor)
    while sel.sum() < 8 and floor > 1e-300:
        floor *= 0.1
        sel = (nm < top) & (nm > floor)
    if sel.sum() < 2:
        return float("nan")
    coeffs = np.polyfit(xm[sel], np.log(nm[sel]), 1)
    return float(-coeffs[0])
