"""Linearized operator about the solitary wave: application, adjoint,
spectral projections, the semigroup e^{tL}, decay and smoothing experiments.

In the frame moving with the wave the linearised flow is V' = L V with

    L V = -d/dx [ M V + (-d^2/dx^2 + e^{phi_c})^{-1} (0, V_n) ],
    M   = ((u_c - c, 1 + n_c), (K/(1+n_c), u_c - c)),

whose generalized kernel is spanned by xi1, xi2 (L xi1 = 0, L xi2 = -xi1);
the adjoint satisfies L* eta2 = 0, L* eta1 = eta2.  The spectrum is purely
imaginary; decay shows up only in exponentially weighted norms (dispersive
decay) and in time-integrated local norms (Kato smoothing), which the two
experiment drivers below measure.  `evolve_linear` evaluates e^{tL} V0
exactly in time, by the Chebyshev-Bessel expansion that a spectrum on the
imaginary interval [-i rho, i rho] admits (Tal-Ezer & Kosloff, J. Chem.
Phys. 81, 3967 (1984)).
"""

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import WINDOW, Grid, derivative, inner, l2a, running_integral, sigma_tilde_sq
from .elliptic import EllipticSolveReport, schrodinger_solver
from .modulation import KernelVectors, kernel_vectors


@dataclass
class LinearContext:
    profile: object
    kv: KernelVectors
    grid: Grid
    solve: Callable  # f -> (-d^2/dx^2 + e^{phi_c})^{-1} f, see schrodinger_solver
    xi2: EllipticSolveReport = field(default=None, compare=False)  # build's xi2 solve
    # apply_Lc calls made by evolve_linear runs on this context
    L_applications: int = field(default=0, init=False, compare=False)
    # the last q_trajectory run: ((V0 shape, V0 bytes, T), LinearTrajectory)
    _memo: tuple = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, profile):
        """The context of a built profile; its kernel vectors cost one linear
        solve (kernel_vectors)."""
        kv, rep = kernel_vectors(profile)
        return cls(profile, kv, profile.grid, schrodinger_solver(profile.phi, profile.grid), rep)

    @cached_property
    def rho(self):
        """An upper bound on ||L||_2, the radius of evolve_linear's expansion.

        L V = -d/dx (M V) - d/dx (0, H^{-1} V_n) with H = -d^2/dx^2 + e^{phi_c}.
        The first term is at most k_max max_x ||M(x)||_2 ||V||.  For the
        second, -(d/dx)^2 <= H - m with m = min e^{phi_c}, so
        ||d/dx H^{-1} f||^2 <= <H^{-1} f, f> - m ||H^{-1} f||^2 <= ||f||^2 / (4m).
        """
        a, b, c = self.M_rows
        # largest singular value of M = ((a, b), (c, a)) at each node; b, c > 0
        sigma = 0.5 * (np.sqrt(4.0 * a ** 2 + (b - c) ** 2) + b + c)
        k_max = float(np.max(np.abs(self.grid.symbol(1))))
        return k_max * float(np.max(sigma)) + 0.5 / np.sqrt(float(np.min(np.exp(self.profile.phi))))

    @cached_property
    def M_rows(self):
        """The rows (u_c - c, 1 + n_c, K/(1 + n_c)) of M = ((a, b), (c, a))."""
        p = self.profile
        return p.u - p.c, 1.0 + p.n, p.K / (1.0 + p.n)

    def q_trajectory(self, V0, T, n_saves):
        """e^{tL} Q V0 at save_times(self, T, n_saves), for n_saves
        DECAY_SAVES or KATO_SAVES.

        One evolve_linear run, at the union of both experiments' times,
        serves both on the same (V0, T).
        """
        V0 = np.array(V0, dtype=float)
        key = (V0.shape, V0.tobytes(), float(T))
        if self._memo is None or self._memo[0] != key:
            t = np.union1d(save_times(self, T, DECAY_SAVES), save_times(self, T, KATO_SAVES))
            self._memo = (key, evolve_linear(project_Q(V0, self), self, t))
        traj = self._memo[1]
        keep = np.isin(traj.t, save_times(self, T, n_saves))
        return LinearTrajectory(traj.t[keep], traj.states[keep])


def apply_Lc(V, ctx):
    """Apply the linearized operator, L V = -d/dx (M V + (0, H^{-1} V_n)), with
    M's rows taken from ctx and -d/dx as one rfft/irfft pair, times the
    negated symbol of d/dx; one application of ctx.solve per call."""
    a, b, c = ctx.M_rows
    Vn, Vu = V
    w = np.array([a * Vn + b * Vu, c * Vn + a * Vu + ctx.solve(Vn)])
    return np.fft.irfft(-ctx.grid.symbol(1) * np.fft.rfft(w), n=ctx.grid.N)


def apply_Lc_adjoint(W, ctx, dW=None):
    """Adjoint of apply_Lc w.r.t. the quadrature pairing.

    L* W = M^T dW/dx + ((-d^2/dx^2 + e^{phi_c})^{-1} dW_2/dx, 0).

    dW overrides the numerical derivative of W; use it when W is known only
    up to a non-periodic component (e.g. eta1, whose x-derivative is known
    in closed form) that spectral differentiation would corrupt.
    """
    a, b, c = ctx.M_rows
    dW1, dW2 = derivative(W, ctx.grid, order=1) if dW is None else dW
    return np.array([a * dW1 + c * dW2 + ctx.solve(dW2), b * dW1 + a * dW2])


def project_Q(V, ctx):
    """Spectral projection off the generalized kernel: Q = 1 - P,
    P V = xi1 <eta1, V> + xi2 <eta2, V>."""
    kv = ctx.kv
    return V - (kv.xi1 * inner(kv.eta1, V, ctx.grid) + kv.xi2 * inner(kv.eta2, V, ctx.grid))


@dataclass
class LinearTrajectory:
    t: np.ndarray
    states: np.ndarray  # (len(t), 2, N): the state at each time


_CFL = 0.4         # Courant number of save_times' lattice
_TERM_TOL = 1e-17  # Kapteyn bound on the last Bessel coefficient kept
_BLOCK = 128       # Chebyshev vectors per accumulation product
GROWTH_MAX = np.exp(10.0)  # a state's norm over the initial one past which growth is spurious


def save_times(ctx, T, n_saves):
    """The experiments' sample times on [0, T]: every stride-th point of the
    lattice of CFL steps T/nsteps, stride = nsteps // (n_saves - 1), and T."""
    p = ctx.profile
    speed = float(np.max(np.abs(p.u - p.c))) + np.sqrt(p.K) + 1.0
    nsteps = max(int(np.ceil(T / (_CFL * ctx.grid.h / speed))), 1)
    stride = max(nsteps // max(n_saves - 1, 1), 1)
    return np.array(sorted(set(range(0, nsteps + 1, stride)) | {nsteps})) * (T / nsteps)


def _kapteyn_cutoff(z, tol):
    """For each z >= 0, the least integer k >= max(z, 1) at which Kapteyn's
    bound |J_k(z)| <= (x e^s / (1 + s))^k, x = z/k, s = sqrt(1 - x^2),
    falls to tol (1e-30 or more).  The bound decreases in k and increases
    in z; it is below 1e-30 at k = 2z + 200, where the bisection starts."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    lo, hi = np.maximum(np.ceil(z), 1.0), np.ceil(2.0 * z) + 200.0
    while np.any(lo < hi):
        k = np.floor(0.5 * (lo + hi))
        x = z / k
        s = np.sqrt(1.0 - x * x)
        with np.errstate(divide="ignore"):
            ok = k * (np.log(x) + s - np.log1p(s)) <= np.log(tol)
        lo, hi = np.where(ok, lo, k + 1.0), np.where(ok, k, hi)
    return lo.astype(int)


def _bessel_table(z, kmax):
    """J_k(z) for k = 0..kmax (rows) and z >= 0 (columns).

    Miller's backward recurrence J_{k-1} = (2k/z) J_k - J_{k+1}, started
    for each z where Kapteyn's bound puts J below 1e-30 (J_{k+1} = 0 and a
    small J_k above it), then normalised by J_0 + 2 sum_k J_{2k} = 1.
    """
    z = np.asarray(z, dtype=float)
    start = _kapteyn_cutoff(z, 1e-30)
    zs = np.where(z > 0.0, z, 1.0)
    J = np.zeros((kmax + 1, z.size))
    nxt, cur, norm = np.zeros(z.size), np.zeros(z.size), np.zeros(z.size)
    for k in range(int(start.max()), 0, -1):
        cur = np.where(start == k, 1e-30, cur)
        nxt, cur = cur, (2.0 * k / zs) * cur - nxt
        if k <= kmax + 1:
            J[k - 1] = cur
        if k % 2 == 1:
            norm += cur if k == 1 else 2.0 * cur
    J /= norm
    J[:, z == 0.0] = 0.0
    J[0, z == 0.0] = 1.0
    return J


def evolve_linear(V0, ctx, t):
    """e^{tL} V0 at each time of t, a nondecreasing 1-D array of times >= 0;
    returns a LinearTrajectory.

    Every state is exact in time: with rho = ctx.rho >= ||L||_2 and L's
    spectrum on the imaginary axis,

        e^{tL} V0 = J_0(rho t) U_0 + 2 sum_{k >= 1} J_k(rho t) U_k,
        U_0 = V0,  U_1 = L V0 / rho,  U_{k+1} = (2/rho) L U_k + U_{k-1},

    (U_k = i^k T_k(-iL/rho) V0, T_k the Chebyshev polynomials), cut where
    Kapteyn's bound on |J_k(rho t[-1])| falls below 1e-17: one apply_Lc per
    term, about rho t[-1] of them, whatever the number of times.  The U_k
    are summed in blocks of _BLOCK, all times by one (times x _BLOCK) by
    (_BLOCK x 2N) matrix product a block.  q_trajectory's shared run relies
    on a row of that product not depending on the number of rows, so that a
    state does not depend on which other times the run takes;
    test_experiments_share_one_linear_run checks this bit for bit.  A state
    whose norm exceeds e^10 times the initial one is spurious growth (the
    premise rho >= ||L||_2 has failed): RuntimeError, naming the first such
    time and rho.
    """
    g = ctx.grid
    t = np.array(t, dtype=float)
    if t.ndim != 1 or t.size == 0 or not (
            np.all(np.isfinite(t)) and t[0] >= 0.0 and np.all(np.diff(t) >= 0.0)):
        raise ValueError("evolve_linear needs a nonempty, nondecreasing 1-D "
                         "array of finite times >= 0")
    rho = ctx.rho
    n_terms = int(_kapteyn_cutoff(rho * t[-1], _TERM_TOL)[0])
    coef = _bessel_table(rho * t, n_terms).T  # (time, term)
    coef[:, 1:] *= 2.0
    V = np.array(V0, dtype=float)
    out = np.zeros((len(t), V.size))
    block = np.empty((_BLOCK, V.size))
    U_prev, U = None, V
    for k in range(n_terms + 1):
        block[k % _BLOCK] = U.ravel()
        if k % _BLOCK == _BLOCK - 1 or k == n_terms:
            k0 = k - k % _BLOCK
            out += coef[:, k0:k + 1] @ block[:k - k0 + 1]
        if k < n_terms:
            LU = apply_Lc(U, ctx)
            U_prev, U = U, LU / rho if k == 0 else (2.0 / rho) * LU + U_prev
    ctx.L_applications += n_terms
    states = out.reshape(len(t), *V.shape)
    norm0 = max(np.sqrt(inner(V, V, g)), 1e-300)
    grew = ~(np.sqrt(inner(states, states, g)) <= norm0 * GROWTH_MAX)
    if grew.any():
        raise RuntimeError(f"evolve_linear: spurious growth at t = {t[np.argmax(grew)]:g}: "
                           f"the norm passed e^10 ||V0||, so rho = {rho:g} is below ||L||_2")
    return LinearTrajectory(t, states)


def wrap_time(ctx):
    """Time for the fastest wave to exit at -L and re-enter the weighted window.

    In the co-moving frame all group velocities are <= c + sqrt(1+K) in
    magnitude and leftward-directed; data supported near the center exits at
    -L after ~L/speed and pollutes the window [-wL, wL] (w = grid.WINDOW)
    another (1-w)L/speed later.  Returns 0.9 of that time.
    """
    p = ctx.profile
    speed = p.c + np.sqrt(1.0 + p.K)
    return 0.9 * (2.0 - WINDOW) * ctx.grid.L / speed


# save counts of the two experiments; LinearContext.q_trajectory runs at the
# union of their save_times, so one run serves the pair
DECAY_SAVES, KATO_SAVES = 81, 161


def dispersive_decay_experiment(V0, ctx, a_rate, T):
    """Weighted-norm decay of e^{tL} Q V0; returns (t, norms, fitted rate).

    The experiment stops at the wrap time (periodic re-entry of radiation
    into the weighted window); the fitted exponential rate over the decaying
    segment is the acceptance signal (positive under dispersive decay).  The
    rate is NaN when that segment has fewer than two samples (the norm peaks
    at the last save): there is no decay to fit.
    """
    traj = ctx.q_trajectory(V0, min(T, wrap_time(ctx)), DECAY_SAVES)
    vals = l2a(traj.states, a_rate, ctx.grid)
    # fit on the decaying segment: global max to global min (late-time rise,
    # if any, is wrapped radiation entering the window and is excluded)
    i0 = int(np.argmax(vals))
    i1 = int(np.argmin(vals[i0:])) + i0
    tt, vv = traj.t[i0:i1 + 1], vals[i0:i1 + 1]
    good = vv > 0
    if np.count_nonzero(good) < 2:
        return traj.t, vals, float("nan")
    rate = -np.polyfit(tt[good], np.log(vv[good]), 1)[0]
    return traj.t, vals, float(rate)


def kato_smoothing_experiment(V0, ctx, weights, T):
    """Running integral of the local smoothing norm along e^{tL} Q V0.

    Returns (t, running integral of ||sech(eps kappa x) V(s)||^2 ds, the
    Sigma-tilde norm squared, grid.sigma_tilde_sq, summed over V's rows); a
    plateau before the wrap time is the smoothing signal.
    """
    traj = ctx.q_trajectory(V0, min(T, wrap_time(ctx)), KATO_SAVES)
    return traj.t, running_integral(sigma_tilde_sq(traj.states, weights).sum(axis=-1), traj.t)
