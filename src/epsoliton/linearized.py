"""Linearized operator about the solitary wave: application, adjoint,
spectral projections, semigroup evolution, decay and smoothing experiments.

In the frame moving with the wave the linearised flow is V' = L V with

    L V = -d/dx [ M V + (-d^2/dx^2 + e^{phi_c})^{-1} (0, V_n) ],
    M   = ((u_c - c, 1 + n_c), (K/(1+n_c), u_c - c)),

whose generalized kernel is spanned by xi1, xi2 (L xi1 = 0, L xi2 = -xi1);
the adjoint satisfies L* eta2 = 0, L* eta1 = eta2.  The spectrum is purely
imaginary; decay shows up only in exponentially weighted norms (dispersive
decay) and in time-integrated local norms (Kato smoothing), which the two
experiment drivers below measure.
"""

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, derivative, inner, integrate, running_integral
from .elliptic import schrodinger_solver
from .modulation import kernel_vectors, KernelVectors


@dataclass
class LinearContext:
    profile: object
    kv: KernelVectors
    grid: Grid
    solve: Callable  # f -> (-d^2/dx^2 + e^{phi_c})^{-1} f, see schrodinger_solver
    # the last q_trajectory run: ((V0 shape, V0 bytes, T), LinearTrajectory)
    _memo: tuple = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, profile, kv=None):
        if kv is None:
            kv = kernel_vectors(profile)
        return cls(profile, kv, profile.grid, schrodinger_solver(profile.phi, profile.grid))

    def q_trajectory(self, V0, T, n_saves):
        """e^{tL} Q V0 on [0, T], sampled as evolve_linear(Q V0, ctx, T,
        n_saves=n_saves) saves it, bit for bit.

        One evolve_linear run serves every request on the same (V0, T): it
        saves at the union of n_saves and the experiments' default counts,
        and each request takes the samples at its own save steps.  A request
        whose save steps the kept run lacks evolves afresh and replaces it.
        """
        V0 = np.array(V0, dtype=float)
        key = (V0.shape, V0.tobytes(), float(T))
        want = _save_steps(_step_count(self, T)[0], n_saves)
        if self._memo is None or self._memo[0] != key \
                or not self._memo[1].covers(want):
            counts = tuple(sorted({n_saves, DECAY_SAVES, KATO_SAVES}))
            self._memo = (key, evolve_linear(project_Q(V0, self), self, T,
                                             n_saves=counts))
        return self._memo[1].sampled(want)


def apply_Lc(V, ctx):
    """Apply the linearized operator; one application of ctx.solve per call."""
    p = ctx.profile
    Vn, Vu = V[0], V[1]
    uc = p.u - p.c
    w = np.array([uc * Vn + (1.0 + p.n) * Vu,
                  p.K / (1.0 + p.n) * Vn + uc * Vu + ctx.solve(Vn)])
    return -derivative(w, ctx.grid, order=1)


def apply_Lc_adjoint(W, ctx, dW=None):
    """Adjoint of apply_Lc w.r.t. the quadrature pairing.

    L* W = M^T dW/dx + ((-d^2/dx^2 + e^{phi_c})^{-1} dW_2/dx, 0).

    dW overrides the numerical derivative of W; use it when W is known only
    up to a non-periodic component (e.g. eta1, whose x-derivative is known
    in closed form) that spectral differentiation would corrupt.
    """
    p = ctx.profile
    dW1, dW2 = derivative(W, ctx.grid, order=1) if dW is None else dW
    uc = p.u - p.c
    o1 = uc * dW1 + p.K / (1.0 + p.n) * dW2 + ctx.solve(dW2)
    o2 = (1.0 + p.n) * dW1 + uc * dW2
    return np.array([o1, o2])


def project_P(V, ctx):
    kv = ctx.kv
    return (kv.xi1 * inner(kv.eta1, V, ctx.grid)
            + kv.xi2 * inner(kv.eta2, V, ctx.grid))


def project_Q(V, ctx):
    """Spectral projection off the generalized kernel: Q = 1 - P."""
    return V - project_P(V, ctx)


@dataclass
class LinearTrajectory:
    t: np.ndarray
    states: list
    flagged: bool = False
    steps: np.ndarray = None  # RK4 step index of each save

    def covers(self, want):
        """Whether this run saved every step of `want` that it reached."""
        return {s for s in want if s < self.steps[-1]} <= set(self.steps.tolist())

    def sampled(self, want):
        """The saves at the steps of `want`, and the last save (the final
        step, or the step that flagged spurious growth)."""
        keep = [i for i, s in enumerate(self.steps.tolist())
                if s in want or i == len(self.steps) - 1]
        return LinearTrajectory(self.t[keep], [self.states[i] for i in keep],
                                self.flagged, self.steps[keep])


def _step_count(ctx, T, dt=None, cfl=0.4):
    """(number of RK4 steps, step) of evolve_linear over [0, T]."""
    if dt is None:
        p = ctx.profile
        speed = float(np.max(np.abs(p.u - p.c))) + np.sqrt(p.K) + 1.0
        dt = cfl * ctx.grid.h / speed
    nsteps = max(int(np.ceil(T / dt)), 1)
    return nsteps, T / nsteps


def _save_steps(nsteps, n_saves):
    """Step indices evolve_linear saves at for one save count."""
    stride = max(nsteps // max(n_saves - 1, 1), 1)
    return set(range(0, nsteps + 1, stride)) | {nsteps}


def evolve_linear(V0, ctx, T, dt=None, cfl=0.4, n_saves=41):
    """RK4 evolution of V' = L V; returns a LinearTrajectory.

    n_saves is a save count or a tuple of them; a tuple saves at the union
    of the steps each count saves at.
    """
    g = ctx.grid
    nsteps, dt = _step_count(ctx, T, dt, cfl)
    counts = n_saves if isinstance(n_saves, tuple) else (n_saves,)
    save = set().union(*(_save_steps(nsteps, k) for k in counts))
    V = np.array(V0, dtype=float)
    norm0 = max(np.sqrt(inner(V, V, g)), 1e-300)
    ts, snaps, steps = [0.0], [V.copy()], [0]
    flagged = False
    for i in range(1, nsteps + 1):
        k1 = apply_Lc(V, ctx)
        k2 = apply_Lc(V + dt / 2 * k1, ctx)
        k3 = apply_Lc(V + dt / 2 * k2, ctx)
        k4 = apply_Lc(V + dt * k3, ctx)
        V = V + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if np.sqrt(inner(V, V, g)) > norm0 * np.exp(10.0):
            flagged = True  # spurious growth: spectrum is purely imaginary
            ts.append(i * dt); snaps.append(V.copy()); steps.append(i)
            break
        if i in save:
            ts.append(i * dt); snaps.append(V.copy()); steps.append(i)
    return LinearTrajectory(np.array(ts), snaps, flagged, np.array(steps))


def _windowed_weighted_norm(V, ctx, a_rate, window=0.8):
    g = ctx.grid
    mask = np.abs(g.x) <= window * g.L
    w = np.exp(a_rate * g.x) * mask
    dens = (w * V[0]) ** 2 + (w * V[1]) ** 2
    return float(np.sqrt(integrate(dens, g)))


def wrap_time(ctx, safety=0.9, window=0.8):
    """Time for the fastest wave to exit at -L and re-enter the weighted window.

    In the co-moving frame all group velocities are <= c + sqrt(1+K) in
    magnitude and leftward-directed; data supported near the center exits at
    -L after ~L/speed and pollutes the window [-wL, wL] another (1-w)L/speed
    later.
    """
    p = ctx.profile
    speed = p.c + np.sqrt(1.0 + p.K)
    return safety * (2.0 - window) * ctx.grid.L / speed


# default save counts of the two experiments; LinearContext.q_trajectory
# saves at both, so one run serves the pair
DECAY_SAVES, KATO_SAVES = 81, 161


def dispersive_decay_experiment(V0, ctx, a_rate, T, n_saves=DECAY_SAVES):
    """Weighted-norm decay of e^{tL} Q V0; returns (t, norms, fitted rate).

    The experiment stops at the wrap time (periodic re-entry of radiation
    into the weighted window); the fitted exponential rate over the decaying
    segment is the acceptance signal (positive under dispersive decay).  The
    rate is NaN when that segment has fewer than two samples (the norm peaks
    at the last save): there is no decay to fit.
    """
    traj = ctx.q_trajectory(V0, min(T, wrap_time(ctx)), n_saves)
    vals = np.array([_windowed_weighted_norm(V, ctx, a_rate) for V in traj.states])
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


def sigma_tilde_norm(V, ctx, weights):
    """||sech(eps kappa x) V||_{L^2} for a two-component field."""
    g = ctx.grid
    w = weights.sech_weight
    return float(np.sqrt(integrate((w * V[0]) ** 2 + (w * V[1]) ** 2, g)))


def kato_smoothing_experiment(V0, ctx, weights, T, n_saves=KATO_SAVES):
    """Running integral of the local smoothing norm along e^{tL} Q V0.

    Returns (t, running integral of ||V(s)||^2_Sigma-tilde ds); a plateau
    before the wrap time is the smoothing signal.
    """
    traj = ctx.q_trajectory(V0, min(T, wrap_time(ctx)), n_saves)
    vals = np.array([sigma_tilde_norm(V, ctx, weights) ** 2 for V in traj.states])
    return traj.t, running_integral(vals, traj.t)
