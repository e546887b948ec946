"""Nonlinear time evolution of the density/velocity pair with the Poisson constraint.

The evolved system is

    dn/dt + d/dx((1+n) u) = 0
    du/dt + d/dx(u^2/2 + K log(1+n)) = -dphi/dx,   -phi'' = 1 + n - e^phi,

a Hamiltonian flow U' = -d/dx sigma1 grad E(U) for the energy functional with
density e(U) = (1+n)u^2/2 + K((1+n)log(1+n) - n) - (phi')^2/2 + n phi
- (e^phi - 1 - phi).  The electric potential phi is a constraint, resolved by
a Poisson solve at every Runge-Kutta stage, warm-started from a potential
extrapolated from the stages already solved (`_stage_warm_start`).  On periodic grids `rhs` applies -d/dx to both fluxes with one
rfft/irfft pair, dealiased by the 2/3 rule inside the same symbol.
Conserved quantities: total energy E and momentum M = int n u.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, derivative, integrate
from .elliptic import solve_poisson


@dataclass
class State:
    t: float
    n: np.ndarray
    u: np.ndarray

    def validate(self):
        if not (np.all(np.isfinite(self.n)) and np.all(np.isfinite(self.u))):
            raise ValueError("State: non-finite fields")
        if np.min(1.0 + self.n) <= 0.0:
            raise ValueError("State: vacuum reached, 1 + n <= 0")


@dataclass
class Trajectory:
    states: list
    meta: dict = field(default_factory=dict)
    blown_up: bool = False
    blowup_time: float = None

    @property
    def times(self):
        return np.array([s.t for s in self.states])


def gradient_E(state, phi, K, grid):
    """Variational gradient of the energy: (dE/dn, dE/du)."""
    one_n = 1.0 + state.n
    if np.min(one_n) <= 0.0:
        raise ValueError("gradient_E: 1 + n <= 0 (blow-up)")
    return state.u ** 2 / 2.0 + K * np.log(one_n) + phi, one_n * state.u


def rhs(state, K, grid, phi0=None, dealias=False):
    """Tendency (dn/dt, du/dt); returns (ndot, udot, phi).

    On periodic grids both fluxes go through one rfft/irfft pair, with the
    2/3-rule dealiasing mask folded into the symbol of -d/dx.
    """
    phi, _ = solve_poisson(state.n, grid, phi0=phi0)
    gn, gu = gradient_E(state, phi, K, grid)
    # -d/dx sigma1 (gn, gu) = (-(gu)', -(gn)')
    if grid.boundary_mode != "periodic":
        return -derivative(gu, grid, order=1), -derivative(gn, grid, order=1), phi
    sym = -grid.symbol(1)
    if dealias:
        sym[int(len(sym) * 2 / 3):] = 0.0
    ndot, udot = np.fft.irfft(sym * np.fft.rfft(np.array([gu, gn])), n=grid.N)
    return ndot, udot, phi


def invariants_of(state, K, grid, phi=None):
    """Conserved-quantity record {E, E_K, E_P, M} from the exact densities."""
    if phi is None:
        phi, _ = solve_poisson(state.n, grid)
    n, u = state.n, state.u
    one_n = 1.0 + n
    dphi = derivative(phi, grid, order=1)
    e_full = (one_n * u ** 2 / 2.0 + K * (one_n * np.log(one_n) - n)
              - dphi ** 2 / 2.0 + n * phi - (np.exp(phi) - 1.0 - phi))
    e_kin = (u ** 2 / 2.0 + K * n ** 2 / 2.0 - dphi ** 2 / 2.0
             - phi ** 2 / 2.0 + n * phi)
    E = float(integrate(e_full, grid))
    E_K = float(integrate(e_kin, grid))
    M = float(integrate(n * u, grid))
    return {"E": E, "E_K": E_K, "E_P": E - E_K, "M": M}


def energy_density(n, u, phi, K, grid):
    """Pointwise energy density e(U)."""
    one_n = 1.0 + n
    dphi = derivative(phi, grid, order=1)
    return (one_n * u ** 2 / 2.0 + K * (one_n * np.log(one_n) - n)
            - dphi ** 2 / 2.0 + n * phi - (np.exp(phi) - 1.0 - phi))


def cfl_dt(state, K, grid, cfl=0.4):
    speed = float(np.max(np.abs(state.u))) + np.sqrt(K) + 1.0
    return cfl * grid.h / speed


def evolve(state0, T, K, grid, dt=None, cfl=0.4, dealias=None,
           save_every=None, n_saves=41):
    """Classical RK4 evolution up to time T; returns a Trajectory.

    dt defaults to the CFL-limited step, recomputed each step; a fixed dt is
    honoured exactly.  Blow-up (min(1+n) < 1e-6, sup|u| > 1e3, or NaN)
    truncates the trajectory and flags it.
    """
    if K <= 0.0:
        raise ValueError("evolve: K > 0 required")
    state0.validate()
    if dealias is None:
        dealias = grid.boundary_mode == "periodic"
    if save_every is None:
        save_every = T / max(n_saves - 1, 1)

    t = float(state0.t)
    n, u = state0.n.copy(), state0.u.copy()
    traj = Trajectory(states=[State(t, n.copy(), u.copy())],
                      meta={"scheme": "rk4", "dt": dt, "cfl": cfl,
                            "grid": (grid.L, grid.N), "K": K, "T": T})
    next_save = t + save_every
    phis = preds = None   # the previous step's stage potentials and their predictions
    t_end = t + T
    while t < t_end - 1e-14 * max(1.0, t_end):
        s = State(t, n, u)
        step = dt if dt is not None else cfl_dt(s, K, grid, cfl)
        step = min(step, t_end - t)
        if next_save < t_end:
            step = min(step, next_save - t)  # land exactly on save times
        ks, cur, cur_preds = [], [], []
        try:
            for a in (0.0, 0.5, 0.5, 1.0):
                if ks:
                    s = State(t, n + a * step * ks[-1][0], u + a * step * ks[-1][1])
                pred, warm = _stage_warm_start(len(cur), cur, phis, preds)
                kn, ku, phi = rhs(s, K, grid, warm, dealias)
                ks.append((kn, ku))
                cur.append(phi)
                cur_preds.append(pred)
        except (ValueError, RuntimeError):
            traj.blown_up = True
            traj.blowup_time = t
            return traj
        phis, preds = cur, cur_preds
        (k1n, k1u), (k2n, k2u), (k3n, k3u), (k4n, k4u) = ks
        n = n + step / 6 * (k1n + 2 * k2n + 2 * k3n + k4n)
        u = u + step / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        t += step
        if (not np.all(np.isfinite(n)) or not np.all(np.isfinite(u))
                or np.min(1.0 + n) < 1e-6 or np.max(np.abs(u)) > 1e3):
            traj.blown_up = True
            traj.blowup_time = t
            return traj
        if t >= next_save - 1e-12:
            traj.states.append(State(t, n.copy(), u.copy()))
            next_save += save_every
    if traj.states[-1].t < t - 1e-12:
        traj.states.append(State(t, n.copy(), u.copy()))
    return traj


def _stage_warm_start(i, cur, prev, prev_preds):
    """(prediction, warm start) for the Poisson solve of RK4 stage i.

    cur holds this step's solved stage potentials, prev and prev_preds the
    previous step's potentials and predictions (None on the first step;
    the first step chains each stage from the one before, with no prediction).
    The stage densities are n, n + dt/2 k1, n + dt/2 k2 and n + dt k3, and
    phi depends on n almost affinely, so stages 2 and 4 are extrapolated
    along that path and stages 1 and 3 start from the nearest solved density.
    The previous step's prediction error at the same stage is then added
    back: it changes slowly from step to step.
    """
    if prev is None:
        return None, (cur[-1] if cur else None)
    if i == 0:
        pred = prev[3]
    elif i == 1:
        pred = 2.0 * cur[0] - prev[2]
    elif i == 2:
        pred = cur[1]
    else:
        pred = 2.0 * cur[2] - cur[0]
    if prev_preds[i] is None:
        return pred, pred
    return pred, pred + (prev[i] - prev_preds[i])


def soliton_state(profile):
    """Initial State from a built profile."""
    return State(0.0, profile.n.copy(), profile.u.copy())


def shift_state(state, shift, grid):
    """Translate fields by `shift` (periodic grids: exact Fourier phase shift)."""
    if grid.boundary_mode != "periodic":
        raise ValueError("shift_state: periodic grids only")
    kh = grid.k[: grid.N // 2 + 1]
    ph = np.exp(-1j * kh * shift)
    n = np.fft.irfft(np.fft.rfft(state.n) * ph, n=grid.N)
    u = np.fft.irfft(np.fft.rfft(state.u) * ph, n=grid.N)
    return State(state.t, n, u)
