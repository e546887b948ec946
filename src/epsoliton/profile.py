"""Solitary-wave profile construction for the 1D Euler-Poisson system.

The wave S_c = (n_c, u_c, phi_c) with supersonic speed c > V = sqrt(1+K) solves

    c n' = ((1+n) u)',   c u' = (u^2/2 + K log(1+n) + phi)',   -phi'' = 1 + n - e^phi,

which reduces (with decay at infinity) to u = c n/(1+n), phi = H(n, c) and the
planar Hamiltonian system phi'' = e^phi - 1 - N(phi, c) whose homoclinic orbit is
computed by quadrature of the first integral (phi')^2/2 = G(phi) (Sagdeev
pseudopotential), regularized at the turning point by phi = phi* - t^2.  Near
the peak, G is taken from its Taylor series in the offset -t^2 itself
(_G_turning), never from phi* - t^2 minus phi*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .grid import Grid, default_grid


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
    # Newton polish
    for _ in range(6):
        f = g_existence(n_star, c, K) - target
        df = -dH_dn(n_star, c, K) * (1.0 + n_star - np.exp(H(n_star, c, K)))
        step = f / df
        if abs(step) < 1e-17 * max(1.0, n_star):
            break
        n_star -= step
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


def invert_H(phi, c, K, n_star):
    """N(phi, c): inverse of n -> H(n,c) on [0, n*], vectorized Newton with bisection guard."""
    phi = np.asarray(phi, dtype=float)
    scalar = phi.ndim == 0
    phi = np.atleast_1d(phi)
    n = np.clip(phi / (c ** 2 - K), 0.0, n_star)  # linearized guess
    for _ in range(60):
        f = H(n, c, K) - phi
        n_new = np.clip(n - f / dH_dn(n, c, K), 0.0, n_star * (1 + 1e-12))
        if np.max(np.abs(n_new - n)) < 1e-16 * (1.0 + np.max(n)):
            n = n_new
            break
        n = n_new
    res = H(n, c, K) - phi
    bad = np.abs(res) > 1e-12 * (1.0 + np.abs(phi))
    for idx in np.nonzero(bad)[0]:
        n[idx] = brentq(lambda m: H(m, c, K) - phi[idx], 0.0, n_star * (1 + 1e-9),
                        xtol=1e-16, rtol=8.9e-16)
    return float(n[0]) if scalar else n


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


def sagdeev_G(phi, c, K, n_star):
    """G(phi) = int_0^phi (e^s - 1 - N(s,c)) ds, in closed form via m = N(phi,c):

    G = (e^phi - 1 - phi) - c^2 m^2 / (2 (1+m)^2) + K (m - log(1+m)).
    """
    if np.ndim(phi) == 0:
        m = _invert_H_scalar(float(phi), c, K, n_star)
        return (math.expm1(phi) - phi) - 0.5 * c ** 2 * m * m / (1.0 + m) ** 2 \
            + K * (m - math.log1p(m))
    m = invert_H(phi, c, K, n_star)
    return (np.expm1(phi) - phi) - 0.5 * c ** 2 * m ** 2 / (1.0 + m) ** 2 \
        + K * (m - np.log1p(m))


def _h_derivs(n, c, K):
    """h = dH/dn and its first two n-derivatives."""
    e = 1.0 + n
    h = c ** 2 / e ** 3 - K / e
    hp = -3 * c ** 2 / e ** 4 + K / e ** 2
    hpp = 12 * c ** 2 / e ** 5 - 2 * K / e ** 3
    return h, hp, hpp


def _G_taylor(d, phi0, m0, G0, c, K):
    """Taylor expansion of the Sagdeev potential G at phi0 + d (m0 = N(phi0)).

    Cancellation-free near G's double/simple zeros: derivatives via N' = 1/h.
    Takes the offset d itself, so a caller that knows d exactly (the turning
    point's d = -t^2) never forms phi0 + d only to subtract phi0 again.
    """
    h, hp, hpp = _h_derivs(m0, c, K)
    e0 = np.exp(phi0)
    G1 = e0 - 1.0 - m0
    G2 = e0 - 1.0 / h
    G3 = e0 + hp / h ** 3
    G4 = e0 + (hpp * h - 3.0 * hp ** 2) / h ** 5
    return G0 + d * (G1 + d * (G2 / 2.0 + d * (G3 / 6.0 + d * G4 / 24.0)))


def sagdeev_G_smooth(phi, c, K, n_star, phi_star):
    """Sagdeev potential evaluated without cancellation noise near its zeros."""
    if phi < 1e-3:
        return _G_taylor(phi, 0.0, 0.0, 0.0, c, K)
    if phi_star - phi < 3e-3 * phi_star:
        return _G_taylor(phi - phi_star, phi_star, n_star, 0.0, c, K)
    return sagdeev_G(phi, c, K, n_star)


def _G_turning(t2, c, K, n_star, phi_star):
    """G(phi* - t2) with the peak patch fed the exact offset -t2.

    Same branches as sagdeev_G_smooth; only the peak patch differs, where
    forming phi = phi* - t2 and subtracting phi* again would lose about
    log10(phi*/t2) digits of the offset (1e-4 relative at the x0 seed).
    """
    phi = phi_star - t2
    if phi >= 1e-3 and t2 < 3e-3 * phi_star:
        return _G_taylor(-t2, phi_star, n_star, 0.0, c, K)
    return sagdeev_G_smooth(phi, c, K, n_star, phi_star)


def mu4_at_zero(c: float, K: float) -> float:
    """Spatial tail decay rate: mu4(0,eps)^2 = 1 - 1/(c^2 - K)."""
    return float(np.sqrt(1.0 - 1.0 / (c ** 2 - K)))


@dataclass
class ProfileSolution:
    """The solitary wave sampled on a grid, with exact nodal derivatives.

    Carries exactly-even spline evaluators for off-grid use (Jost marching,
    Evans coefficient matrices); component parity: n,u,phi even; derivatives odd.
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
    d2phi: np.ndarray        # phi''
    d2n: np.ndarray
    d2u: np.ndarray
    n_star: float
    phi_star: float
    u_star: float
    poisson_residual: float
    _splines: dict = field(default_factory=dict, repr=False)

    @property
    def V(self) -> float:
        return float(np.sqrt(1.0 + self.K))

    @property
    def eps(self) -> float:
        return self.c - self.V

    @property
    def mu4_0(self) -> float:
        return mu4_at_zero(self.c, self.K)

    def at(self, x, name: str):
        """Evaluate a profile quantity at arbitrary x (exactly even/odd extension)."""
        sp, parity = self._splines[name]
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        out = sp(np.minimum(ax, self._splines["__xmax__"]))
        tail = ax > self._splines["__xmax__"]
        if np.any(tail):
            rate = mu4_at_zero(self.c, self.K)
            ref = sp(self._splines["__xmax__"])
            out = np.where(tail, ref * np.exp(-rate * (ax - self._splines["__xmax__"])), out)
        if parity == "odd":
            out = out * np.sign(x)
        return out if out.ndim else float(out)


def _half_line_values(c, K, xq, n_star, phi_star):
    """phi, n, u and exact derivatives at the points xq >= 0 (sorted ascending)."""
    Gf = lambda p: sagdeev_G_smooth(p, c, K, n_star, phi_star)
    mu = mu4_at_zero(c, K)
    phi_floor = 1e-9 * phi_star
    phi_mid = 0.5 * phi_star

    # guard: G must be positive on (phi_floor, phi*)
    probe = phi_star * np.linspace(1e-8, 1.0 - 1e-8, 257)
    Gp = np.array([Gf(p) for p in probe])
    if np.any(Gp <= 0):
        raise ValueError("pseudopotential not single-signed on (0, phi*)")

    # segment 1 (turning point): integrate t(x) with phi = phi* - t^2, which
    # regularizes the sqrt singularity at the peak.  G(phi*) = 0 analytically;
    # start at x0 > 0 where roundoff cannot flip the sign of G, seeding t(x0)
    # from the local expansion G ~ |G'(phi*)| t^2.
    t_mid = np.sqrt(phi_star - phi_mid)
    gp_star = abs(np.exp(phi_star) - 1.0 - n_star)  # |G'(phi*)| = |phi''(0)|
    t0 = 1e-6 * np.sqrt(phi_star)
    x0 = np.sqrt(2.0 / gp_star) * t0

    def rhs_core(x, t):
        G = _G_turning(t[0] * t[0], c, K, n_star, phi_star)
        return [np.sqrt(2.0 * max(G, 0.0)) / (2.0 * t[0])]

    hit_mid = lambda x, t: t[0] - t_mid
    hit_mid.terminal, hit_mid.direction = True, 1
    x_span_max = max(100.0 / mu, float(xq[-1]) + 1.0)
    ev1 = xq[(xq > x0)]
    eps_loc = c - np.sqrt(1.0 + K)
    sol1 = solve_ivp(rhs_core, (x0, x_span_max), [t0], method="DOP853",
                     rtol=1e-12, atol=1e-15, events=hit_mid,
                     max_step=0.2 / np.sqrt(eps_loc),  # keep dense output accurate
                     t_eval=ev1 if len(ev1) else None)
    if not sol1.success or len(sol1.t_events[0]) == 0:
        raise RuntimeError("profile quadrature (core) failed")
    x_mid = float(sol1.t_events[0][0])

    # segment 2 (tail): integrate s(x) = log phi(x); ds/dx = -sqrt(2G)/phi ~ -mu
    def rhs_tail(x, s):
        p = np.exp(s[0])
        return [-np.sqrt(2.0 * max(Gf(p), 0.0)) / p]

    s_floor = np.log(phi_floor)
    hit_floor = lambda x, s: s[0] - s_floor
    hit_floor.terminal, hit_floor.direction = True, -1
    ev2 = xq[(xq > x_mid)]
    sol2 = solve_ivp(rhs_tail, (x_mid, x_mid + x_span_max), [np.log(phi_mid)],
                     method="DOP853", rtol=1e-12, atol=1e-14, events=hit_floor,
                     max_step=0.5 / mu,
                     t_eval=ev2 if len(ev2) else None)
    if not sol2.success or len(sol2.t_events[0]) == 0:
        raise RuntimeError("profile quadrature (tail) failed")
    x_end = float(sol2.t_events[0][0])

    phis = np.empty_like(xq)
    near = xq <= x0
    phis[near] = phi_star - gp_star / 2.0 * xq[near] ** 2
    seg1 = (xq > x0) & (xq <= x_mid)
    lut1 = dict(zip(sol1.t, sol1.y[0]))
    phis[seg1] = phi_star - np.array([lut1[xv] for xv in xq[seg1]]) ** 2
    seg2 = (xq > x_mid) & (xq < x_end)
    lut2 = dict(zip(sol2.t, sol2.y[0]))
    phis[seg2] = np.exp([lut2[xv] for xv in xq[seg2]])
    tail = xq >= x_end
    # exponential tail with the exact asymptotic rate, matched at x_end
    phis[tail] = phi_floor * np.exp(-mu * (xq[tail] - x_end))
    phis[phis < 1e-14 * phi_star] = 0.0

    ns = invert_H(phis, c, K, n_star)
    us = c * ns / (1.0 + ns)
    psis = -np.sqrt(np.maximum(2.0 * np.array([Gf(p) for p in phis]), 0.0))  # phi' < 0, x>0
    psis[phis == 0.0] = 0.0
    d2phi = np.exp(phis) - 1.0 - ns
    h_n = dH_dn(ns, c, K)
    dns = psis / h_n
    dus = c * dns / (1.0 + ns) ** 2
    return phis, ns, us, psis, dns, dus, d2phi


def build_profile(c: float, K: float, grid: Grid | None = None) -> ProfileSolution:
    """Construct the solitary wave on the grid by pseudopotential quadrature."""
    n_star, phi_star, u_star = peak_state(c, K)
    # monotonicity of H on [0, n*] asserted, not assumed
    ns_chk = np.linspace(0.0, n_star, 257)
    if np.any(dH_dn(ns_chk, c, K) <= 0):
        raise ValueError("H(., c) not monotone on [0, n*]")
    eps = c - np.sqrt(1.0 + K)
    if grid is None:
        grid = default_grid(eps, K)

    # fine auxiliary half-grid (node-exact values) for even spline evaluators
    h_fine = grid.h / 8.0
    xq = np.arange(0.0, grid.L + 4 * grid.h, h_fine)
    vals = _half_line_values(c, K, xq, n_star, phi_star)
    phis, ns, us, psis, dns, dus, d2phi = vals

    splines = {"__xmax__": xq[-1]}
    for name, arr, parity in (("phi", phis, "even"), ("n", ns, "even"),
                              ("u", us, "even"), ("psi", psis, "odd"),
                              ("dn", dns, "odd"), ("du", dus, "odd"),
                              ("d2phi", d2phi, "even")):
        # even: f'(0)=0; odd (stored as f(|x|)*sign): f''(0)=0
        bc0 = (1, 0.0) if parity == "even" else (2, 0.0)
        splines[name] = (CubicSpline(xq, arr, bc_type=(bc0, "not-a-knot")), parity)

    x = grid.x
    ax = np.abs(x)
    idx = np.rint(ax / h_fine).astype(int)
    if np.max(np.abs(ax - xq[np.minimum(idx, len(xq) - 1)])) < 1e-9 * grid.h:
        pick = lambda arr: arr[np.minimum(idx, len(xq) - 1)]
        n_g, u_g, phi_g = pick(ns), pick(us), pick(phis)
        psi_g, dn_g, du_g = pick(psis), pick(dns), pick(dus)
        d2phi_g = pick(d2phi)
    else:  # grid nodes not on the fine mesh: evaluate directly
        sub = _half_line_values(c, K, np.sort(ax), n_star, phi_star)
        order = np.argsort(ax)
        inv = np.argsort(order)
        phi_g, n_g, u_g, psi_g, dn_g, du_g, d2phi_g = (a[inv] for a in sub)
    sgn = np.sign(x)
    psi_g, dn_g, du_g = psi_g * sgn, dn_g * sgn, du_g * sgn

    h_n = dH_dn(n_g, c, K)
    hp = -3 * c ** 2 / (1.0 + n_g) ** 4 + K / (1.0 + n_g) ** 2
    d2n = d2phi_g / h_n - psi_g ** 2 * hp / h_n ** 3
    d2u = c * (d2n * (1.0 + n_g) - 2.0 * dn_g ** 2) / (1.0 + n_g) ** 3

    from .grid import derivative
    resid = float(np.max(np.abs(-derivative(phi_g, grid, 2) + np.exp(phi_g) - 1.0 - n_g)))

    return ProfileSolution(c=c, K=K, grid=grid, n=n_g, u=u_g, phi=phi_g, psi=psi_g,
                           dn=dn_g, du=du_g, d2phi=d2phi_g, d2n=d2n, d2u=d2u,
                           n_star=n_star, phi_star=phi_star, u_star=u_star,
                           poisson_residual=resid, _splines=splines)


def profile_from_eps(eps: float, K: float, grid: Grid | None = None) -> ProfileSolution:
    return build_profile(np.sqrt(1.0 + K) + eps, K, grid)


# ---------------------------------------------------------------------------
# KdV reference and diagnostics

def psi_kdv(x, K):
    """KdV profile: psi(x) = (3/V) sech^2(sqrt(V/2) x), V = sqrt(1+K)."""
    V = np.sqrt(1.0 + K)
    return (3.0 / V) / np.cosh(np.sqrt(V / 2.0) * x) ** 2


def kdv_reference(eps: float, K: float, grid: Grid) -> np.ndarray:
    """Leading-order soliton eps (1, V, 1)^T psi_KdV(sqrt(eps) x) on the grid."""
    V = np.sqrt(1.0 + K)
    base = psi_kdv(np.sqrt(eps) * grid.x, K)
    return eps * np.array([base, V * base, base])


def kdv_residual(p: ProfileSolution) -> float:
    """sup-norm of S_c - leading KdV approximation."""
    ref = kdv_reference(p.eps, p.K, p.grid)
    S = np.array([p.n, p.u, p.phi])
    return float(np.max(np.abs(S - ref)))


def kdv_scaling_exponent(eps_list, K, grid_factory=None) -> tuple[float, list[float]]:
    """log2-slope of the KdV remainder over an eps-sweep (expected ~ 2)."""
    sups = []
    for eps in eps_list:
        grid = grid_factory(eps) if grid_factory else default_grid(eps, K)
        sups.append(kdv_residual(profile_from_eps(eps, K, grid)))
    le, ls = np.log2(np.asarray(eps_list, dtype=float)), np.log2(sups)
    slope = np.polyfit(le, ls, 1)[0]
    return float(slope), sups


def profile_c_derivative(c: float, K: float, grid: Grid, dc: float = 1e-5,
                         richardson: bool = False) -> dict:
    """Central finite-difference c-derivatives of the profile family."""
    def fd(d):
        pp, pm = build_profile(c + d, K, grid), build_profile(c - d, K, grid)
        return {
            "xi2": np.array([(pp.n - pm.n), (pp.u - pm.u)]) / (2 * d),
            "dphi_dc": (pp.phi - pm.phi) / (2 * d),
            "dpsi_dc": (pp.psi - pm.psi) / (2 * d),
        }
    out = fd(dc)
    if richardson:
        half = fd(dc / 2)
        for key in out:
            out[key] = (4 * half[key] - out[key]) / 3.0
    return out


def tail_rate_check(p: ProfileSolution, decades: float = 2.0) -> float:
    """Least-squares exponential fit of log n_c on the tail window; compare to mu4(0,eps)."""
    x, n = p.grid.x, p.n
    mask = x > 0
    xm, nm = x[mask], n[mask]
    top = p.n_star * 1e-2
    floor = max(p.n_star * 1e-2 * 10.0 ** (-decades), 1e-13)
    sel = (nm < top) & (nm > floor)
    while sel.sum() < 8 and floor > 1e-300:
        floor *= 0.1
        sel = (nm < top) & (nm > floor)
    coeffs = np.polyfit(xm[sel], np.log(nm[sel]), 1)
    return float(-coeffs[0])
