"""Nonlinear time evolution of the density/velocity pair with the Poisson constraint.

The evolved system is

    dn/dt + d/dx((1+n) u) = 0
    du/dt + d/dx(u^2/2 + K log(1+n)) = -dphi/dx,   -phi'' = 1 + n - e^phi,

a Hamiltonian flow U' = -d/dx sigma1 grad E(U) for the energy functional with
density e(U) = (1+n)u^2/2 + K((1+n)log(1+n) - n) - (phi')^2/2 + n phi
- (e^phi - 1 - phi).  The electric potential phi is a constraint, resolved by
a Poisson solve at every Runge-Kutta stage.  `rhs` applies -d/dx to both
fluxes with one rfft, dealiased by the 2/3 rule inside the same symbol, and
returns the tendency as rfft coefficients, so the top third of the Fourier
modes never moves in the lab frame.

`evolve` advances the flow in a frame moving at a given speed c, usually the
wave's: V(xi, t) = U(xi + ct, t), whose fluxes are those of U less c (n, u).
Only the dealiased low band of V goes through RK4; the top band is split off
the initial state once and carried exactly, as a Fourier phase, so the
semi-discretisation stays the lab frame's and the time error shrinks: near
the wave it is set by the slow perturbation, not by the wave's translation
across the grid.  The RK4 stages are held as rfft coefficients (V, the
carried top band and the tendencies), with one irfft per stage for the
pointwise fluxes, and so are the stage potentials, the form the Poisson
solve hands its solution back in.

The run's first stage solves its potential cold (`rhs`); each later stage's
warm start is extrapolated from the stages already solved
(`_stage_prediction`), plus the linear response of the potential to what the
same extrapolation of the stage densities misses, plus the previous step's
prediction error at the same stage.  The response is the inverse of the
Poisson map's Jacobian -d^2/dx^2 + e^phi frozen at its far-field value
e^phi = 1, a Fourier multiplier that costs no FFT.  It holds in the wave's
frame: the solution stays close to the wave there, so the stage densities
change slowly, and the error the frozen Jacobian leaves, where e^phi - 1 is
localised on the wave, changes little from one step to the next, so the
add-back of the previous step's prediction error cancels most of it.

The Poisson solve itself takes the same view: the first stage's potential
phi_ref freezes the Jacobian -d^2/dx^2 + e^{phi_ref}
(`elliptic.freeze_jacobian`), whose inverse preconditions every later
stage's warm pass (`elliptic.FrozenJacobian.solve`, through `_frozen_rhs`),
and each stage's irfft carries its warm start to the nodes with the stage
state.  In a moving frame the inverse keeps a dense block on the nodes
where e^{phi_ref} is off 1, and the error contracts by about
max |e^phi - e^{phi_ref}| an iteration, so the eps = 0.1 run takes about
1.04-1.09 iterations a solve (2.3 with the scalar preconditioner, and 4.5
without the response either), and a stage four FFT calls: the stage
state's irfft, the first residual's rfft, which transforms the fluxes less
their -phi term too, and the iteration's irfft and rfft.  The lab frame,
where the wave crosses the grid (a block took 5.5 iterations a solve there,
the scalar inverse 4.3), and a potential off 1 on more than N/4 nodes keep
no block: the inverse is the scalar (k^2 + sigma)^{-1}, sigma frozen at
e^{phi_ref}.  The Jacobian is frozen again only when a warm pass stalls.
The run's telemetry counts the solves whose warm start stalled and
restarted cold (`poisson_fallbacks`), the nodes of the frozen block
(`poisson_jacobian_nodes`, 0 where no block was taken) and the times the
Jacobian was frozen again (`poisson_refreezes`).
Conserved quantities: total energy E and momentum M = int n u.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import _band_cut, derivative, integrate
from .elliptic import freeze_jacobian, solve_poisson


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
    meta: dict = field(default_factory=dict)  # evolve's counters and frame speed
    blowup_time: float = None
    failure: str = None  # what stopped the run early, blow-up or solver failure, and its t

    @property
    def times(self):
        return np.array([s.t for s in self.states])


def gradient_E(n, u, phi, K):
    """Variational gradient of the energy: (dE/dn, dE/du)."""
    one_n = 1.0 + n
    if one_n.min() <= 0.0:
        raise ValueError("gradient_E: 1 + n <= 0 (blow-up)")
    return u ** 2 / 2.0 + K * np.log(one_n) + phi, one_n * u


def rhs(U, K, grid, frame_speed=0.0):
    """Tendency dU/dt of U = (n, u) in the frame moving at frame_speed c, as
    rfft coefficients, with a cold Poisson solve; returns (dU_hat, report).

    report is the Poisson solve's EllipticSolveReport, whose phi_hat holds
    the solved potential.  Both fluxes, less c (n, u), go through one rfft,
    times the 2/3-dealiased symbol of d/dx (`Grid.dealiased_d1`).
    """
    n, u = U
    phi, rep = solve_poisson(n, grid)
    gn, gu = gradient_E(n, u, phi, K)
    c = frame_speed
    # -d/dx sigma1 (gn - c u, gu - c n) = d/dx (c n - gu, c u - gn)
    return grid.dealiased_d1 * np.fft.rfft(np.array([c * n - gu, c * u - gn])), rep


def invariants_of(state, K, grid):
    """Conserved-quantity record {E, M}: E from energy_density, M = int n u."""
    phi, _ = solve_poisson(state.n, grid)
    return {"E": float(integrate(energy_density(state.n, state.u, phi, K, grid), grid)),
            "M": float(integrate(state.n * state.u, grid))}


def energy_density(n, u, phi, K, grid):
    """Pointwise energy density e(U)."""
    one_n = 1.0 + n
    dphi = derivative(phi, grid, order=1)
    return (one_n * u ** 2 / 2.0 + K * (one_n * np.log(one_n) - n)
            - dphi ** 2 / 2.0 + n * phi - (np.exp(phi) - 1.0 - phi))


LAB_CFL = 0.4  # default cfl in the lab frame (frame_speed = 0)
# default cfl in a moving frame: on the eps = 0.1, N = 1024 bumped wave run
# to T = 316 in its own frame, the final state deviates from a half-step run
# by 1.7e-5 at cfl 1.2 and by 2-3e-5 at 0.4, 0.8 and 1.6; at 2.0 it blows up
# (RK4's limit on the top of the dealiased band is near 1.9)
COMOVING_CFL = 1.2


def evolve(state0, T, K, grid, cfl=None, n_saves=41, frame_speed=0.0):
    """Classical RK4 evolution up to time T, dealiased; returns a Trajectory
    of the states at t0 + T k/(n_saves - 1), k = 0 ... n_saves - 1 (t0 and
    t0 + T when n_saves < 2).  Each step is cut at the next save, a step that
    would stop short of it by at most 1e-12 of its length is stretched onto
    it, and t is then set to the save exactly, so a run that does not stop
    early holds exactly those n_saves states, at exactly those times.

    The flow is advanced in the frame moving at frame_speed c,
    V(xi, t) = U(xi + c (t - t0), t), whose tendency is rhs(V) + c dV/dxi.
    The top third of the Fourier modes, G, never changes in the lab frame
    (the 2/3 rule zeroes its tendency), so it is split off the initial state
    once and carried exactly: each stage evaluates `rhs` at V + G(xi + c tau),
    tau the stage time, and each save is V translated back by c (t - t0),
    plus G.  Only the low band goes through RK4, so the semi-discretisation
    is the lab frame's at every c, up to how the pointwise fluxes alias under
    a translation by a fraction of a node spacing (1e-7 of the bumped
    eps = 0.1 wave on N = 1024 points), and mainly the time error depends
    on c: near a wave of speed c it is set by the slow perturbation, not by
    the wave's translation across the grid.  States are saved in the lab
    frame.

    The step is cfl h / (max|u - c| + sqrt(K) + 1), recomputed each step and
    cut at the next save, with cfl LAB_CFL at c = 0 and COMOVING_CFL
    otherwise; with cfl = inf the save lattice sets every step.  An early
    stop truncates the trajectory and traj.failure names it: "blow-up at
    t = ..." for a blow-up (min(1+n) < 1e-6, sup|u| > 1e3, NaN, or a vacuum
    or non-finite stage state), which also sets blowup_time,
    and "time stepping failed at RK4 stage k of the step from t = ...: ..."
    for a failed Poisson solve.  The first stage solves its potential cold
    (`rhs`), every later one through the one warm pass (`_frozen_rhs`).
    traj.meta counts the Poisson solves, their iterations, the solves whose
    warm start stalled and restarted cold (poisson_fallbacks) and their
    largest residual, the nodes of the last frozen block
    (poisson_jacobian_nodes, 0 where no block was taken: at c = 0, or where
    the potential is off 1 on more than N/4 nodes) and the times a stalled
    warm pass froze the Jacobian again (poisson_refreezes), and the RK4
    steps, and records frame_speed.
    """
    if K <= 0.0 or T <= 0.0:
        raise ValueError("evolve: K > 0 and T > 0 required")
    state0.validate()
    c = float(frame_speed)
    if cfl is None:
        cfl = COMOVING_CFL if c else LAB_CFL
    t0 = t = float(state0.t)
    m = max(n_saves - 1, 1)
    lattice = (t0 + T * np.arange(m + 1) / m).tolist()  # the save times, t0 first
    cut = _band_cut(grid)
    U_hat = np.fft.rfft([state0.n, state0.u])
    V, G = U_hat[:, :cut], U_hat[:, cut:]  # V is the low band in the moving frame
    ik = grid.symbol(1)

    def top(tau):
        """G(xi + c (tau - t0)), the top band in the moving frame at tau."""
        return G * np.exp(ik[cut:] * (c * (tau - t0)))

    def whole(low, high):
        """rfft coefficients with the given low and top bands."""
        return np.concatenate((low, high), axis=1)

    def lab(tau):
        """The lab-frame state at tau."""
        n, u = np.fft.irfft(whole(V * np.exp(-ik[:cut] * (c * (tau - t0))), G), n=grid.N)
        return State(tau, n, u)

    traj = Trajectory(states=[State(t, state0.n.copy(), state0.u.copy())],
                      meta={"poisson_solves": 0, "poisson_iterations": 0,
                            "poisson_fallbacks": 0, "poisson_residual_max": 0.0,
                            "poisson_jacobian_nodes": 0, "poisson_refreezes": 0,
                            "rk4_steps": 0, "frame_speed": c})
    meta = traj.meta
    jac = None  # the frozen Poisson Jacobian, set by the first stage
    W_hat = whole(V, top(t))  # the whole state in the moving frame
    W = np.fft.irfft(W_hat, n=grid.N)
    start = (None, _density_response(W_hat[0], grid), None)  # the first stage starts cold
    # the previous step's stage potentials less their density responses,
    # their prediction errors (None where a stage started cold), and its length
    prev, prev_err, prev_step = None, [None] * 4, None
    while len(traj.states) < len(lattice):
        t_save = lattice[len(traj.states)]
        step = cfl * grid.h / (float(np.abs(W[1] - c).max()) + np.sqrt(K) + 1.0)
        lands = t_save - t <= step * (1.0 + 1e-12)
        if lands:
            step = t_save - t  # cut at the save, or stretched onto it over roundoff
        mid, end = top(t + step / 2), top(t + step)
        ks, cur, cur_err = [], [], []
        try:
            for i, (a, G_tau) in enumerate(((0.0, None), (0.5, mid), (0.5, mid), (1.0, end))):
                if ks:
                    s_hat = whole(V + a * step * ks[-1], G_tau)
                    start = _warm_start(i, s_hat, cur, prev, prev_err,
                                        step / (prev_step or step), grid)
                    s = np.fft.irfft(np.concatenate((s_hat, start[2][None])), n=grid.N)
                else:
                    s = W
                pred, resp, phi0 = start
                if jac is None:  # the run's first stage
                    k, rep = rhs(s, K, grid, frame_speed=c)
                else:
                    k, rep = _frozen_rhs(s, phi0, K, grid, jac, c)
                meta["poisson_solves"] += 1
                meta["poisson_iterations"] += rep.iterations
                meta["poisson_fallbacks"] += int(rep.fallback)
                meta["poisson_residual_max"] = max(meta["poisson_residual_max"],
                                                   rep.residual)
                if jac is None or rep.fallback:
                    # freeze at the first solved potential, again after a stall
                    meta["poisson_refreezes"] += int(rep.fallback)
                    jac = freeze_jacobian(np.fft.irfft(rep.phi_hat, n=grid.N), grid,
                                          block=bool(c))
                    meta["poisson_jacobian_nodes"] = len(jac.nodes)
                ks.append(k[:, :cut])  # its top band is zero
                cur.append(rep.phi_hat - resp)
                cur_err.append(None if pred is None else cur[i] - pred)
            k1, k2, k3, k4 = ks
            V = V + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t = t_save if lands else t + step
            meta["rk4_steps"] += 1
            W_hat = whole(V, end)
            start = _warm_start(0, W_hat, [], cur, cur_err, 1.0, grid)
            W = np.fft.irfft(np.concatenate((W_hat, start[2][None])), n=grid.N)
            if (not np.isfinite(W).all() or (1.0 + W[0]).min() < 1e-6
                    or np.abs(W[1]).max() > 1e3):
                raise ValueError("blow-up at the step's end")
        except ValueError:
            # vacuum or a non-finite density at a stage (t the step's start),
            # or a blow-up at the step's end (t advanced)
            traj.blowup_time = t
            traj.failure = f"blow-up at t = {t}"
            return traj
        except RuntimeError as e:
            traj.failure = (f"time stepping failed at RK4 stage {len(ks) + 1} of the "
                            f"step from t = {t:.6g}: {e}")
            return traj
        prev, prev_err, prev_step = cur, cur_err, step
        if lands:
            traj.states.append(lab(t))
    return traj


def _frozen_rhs(s, phi0, K, grid, jac, c):
    """`rhs` at the stage state (n, u) = s[:2] through the frozen Jacobian's
    pass, warm-started from phi0, as rfft coefficients, and s[2], its values
    on the nodes.  The fluxes less their -phi term go through the pass's
    first rfft, and the flux of u takes -phi_hat from the solved potential."""
    n, u, phi = s
    gn, gu = gradient_E(n, u, 0.0, K)
    _, rep, f_hat = jac.solve(n, phi0, phi, (c * n - gu, c * u - gn))
    f_hat[1] -= rep.phi_hat
    return grid.dealiased_d1 * f_hat, rep


def _warm_start(i, s_hat, cur, prev, prev_err, r, grid):
    """(pred, resp, phi0) for stage i + 1 (i = 0-3) at the stage state s_hat:
    the prediction of `_stage_prediction`, the density response
    `_density_response(s_hat[0])` and the warm start phi0 they make with the
    previous step's prediction error at the same stage, as rfft
    coefficients."""
    resp = _density_response(s_hat[0], grid)
    pred = _stage_prediction(i, cur, prev, r)
    return pred, resp, (pred if prev_err[i] is None else pred + prev_err[i]) + resp


def _stage_prediction(i, cur, prev, r):
    """The prediction of psi = phi - _density_response(n), the part of a stage
    potential that the linear response to its density leaves, for stage
    i + 1 of an RK4 step (i = 0-3), as rfft coefficients.

    cur holds this step's solved stages' psi and prev the previous step's,
    and r is the ratio of this step to the previous one.  The stages sit at
    t, t + dt/2, t + dt/2 and t + dt, and psi depends on n almost affinely:
    stages 1 and 3 take the stage solved at the same time, and stages 2 and
    4 extrapolate linearly in time, stage 2 from t - dt_prev/2 and t.  So
    the potentials are extrapolated, plus the response to what the same
    extrapolation of the densities misses.  Stage 1 takes the previous
    step's stage 4 (the run's first stage starts cold, so prev is never
    None there), and the first step takes every stage of the step before it
    to be its first.
    """
    if i == 0:
        return prev[3]
    if i == 1:
        return (1 + r) * cur[0] - r * (cur[0] if prev is None else prev[2])
    if i == 2:
        return cur[1]
    return 2 * cur[2] - cur[0]


def _density_response(d_hat, grid):
    """(k^2 + 1)^{-1} d_hat: the linear response of the Poisson solution to a
    density change d, through the Jacobian -d^2/dx^2 + e^phi with e^phi
    taken at its far-field value 1.

    Near a wave e^phi - 1 is localised (at most 0.21 for the eps = 0.1 wave),
    and a stage's density mismatch spreads over most of the dealiased band,
    so no low-mode block of the wave's own Jacobian improves on this: its
    Galerkin inverse on the lowest 32 rfft modes, with (k^2 + 1)^{-1} above,
    predicted the eps = 0.1 run's mismatches worse and raised its iterations
    from 2.005 to 2.060 a solve.  The first Neumann term of the wave's
    Jacobian, -(k^2 + 1)^{-1} (e^phi - 1) (k^2 + 1)^{-1}, takes them to 1.22,
    but its two FFTs a stage cost what the saved iterations do.
    """
    return d_hat / (grid.k2 + 1.0)

