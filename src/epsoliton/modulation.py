"""Generalized kernel vectors and modulation tracking (c(t), D(t), V(t)).

The linearisation about a solitary wave has a 2-dimensional generalized
kernel spanned by xi1 = d/dx(n_c, u_c) and xi2 = d/dc(n_c, u_c); the adjoint
kernel vectors are

    eta2 = theta3 (u_c, n_c),            theta3 = 1 / (d/dc int n_c u_c dx),
    eta1(x) = theta1 int_{-inf}^x d/dc(u_c, n_c) dx' + theta2 (u_c, n_c),
    theta1 = -theta3,  theta2 = theta3^2 (int d/dc n_c)(int d/dc u_c),

normalised so <xi_i, eta_j> = delta_ij.  `decompose` extracts (c, D) from a
state by Newton iteration on the two orthogonality conditions

    <shift(U, -D) - S_c, zeta_B eta1[c]> = 0,
    <shift(U, -D) - S_c, eta2[c]> = 0,

and `track` runs this along a trajectory, recording c, D and the
perturbation V at each snapshot.
"""

from dataclasses import dataclass

import numpy as np

from .grid import antiderivative, integrate, inner, translate
from .profile import build_profile, profile_c_derivative
from .elliptic import solve_poisson

DC = 1e-3            # half-width of ModulationContext's stencil in c; eps must exceed it
_TOL, _MAXITER = 1e-12, 40  # decompose's Newton tolerance and iteration cap


@dataclass
class KernelVectors:
    xi1: np.ndarray   # (2, N): d/dx (n_c, u_c)
    xi2: np.ndarray   # (2, N): d/dc (n_c, u_c)
    eta1: np.ndarray
    eta2: np.ndarray
    theta1: float
    theta2: float
    theta3: float
    eta1_deriv: np.ndarray  # closed-form x-derivative of eta1


def kernel_vectors(p):
    """(xi1, xi2, eta1, eta2) and the theta scalars of the built profile p,
    and the report of the one linear solve that gives xi2 = d/dc (n_c, u_c)
    (profile_c_derivative).  eta1 takes the cumulative integral of xi2 from
    the left grid edge (`grid.antiderivative`).  The etas are the closed
    forms, biorthogonal to the xis up to the tail beyond the box (decay rate
    mu4).
    """
    g, n, u, dn, du = p.grid, p.n, p.u, p.dn, p.du
    xi2, rep = profile_c_derivative(p)
    dMdc = integrate(xi2[0] * u + xi2[1] * n, g)
    if abs(dMdc) < 1e-14:
        raise ValueError("kernel_vectors: degenerate normalization d/dc M = 0")
    theta3 = 1.0 / dMdc
    theta1 = -theta3
    theta2 = theta3 ** 2 * integrate(xi2[0], g) * integrate(xi2[1], g)
    cum_n, cum_u = antiderivative(xi2, g)
    kv = KernelVectors(np.array([dn, du]), xi2,
                       theta1 * np.array([cum_u, cum_n]) + theta2 * np.array([u, n]),
                       theta3 * np.array([u, n]), theta1, theta2, theta3,
                       theta1 * np.array([xi2[1], xi2[0]]) + theta2 * np.array([du, dn]))
    return kv, rep


class ModulationContext:
    """Profiles and adjoint kernel vectors as smooth functions of c near a
    base speed.

    Takes the base profile p (speed c0 = p.c) and builds the profiles at
    c0 +- DC on its grid.  Each wave's (n, u, phi) and exact (eta1, eta2)
    (kernel_vectors) are held as seven rows of one (3, 7, N) stack, which
    `wave` interpolates quadratically in c, so Newton iterations in
    `decompose` cost only quadratures.
    """

    def __init__(self, p):
        self.c0, self.K, self.grid = float(p.c), float(p.K), p.grid
        self.p0 = p
        family = (build_profile(self.c0 - DC, self.K, self.grid), p,
                  build_profile(self.c0 + DC, self.K, self.grid))
        kvs = [kernel_vectors(q)[0] for q in family]
        self._waves = np.array([np.vstack([q.n, q.u, q.phi, kv.eta1, kv.eta2])
                                for q, kv in zip(family, kvs)])

    def wave(self, c):
        """The rows (n_c, u_c, phi_c, eta1_n, eta1_u, eta2_n, eta2_u) at
        speed c, a (7, N) array, by quadratic interpolation in c."""
        s = (c - self.c0) / DC
        if abs(s) > 1.5:
            raise ValueError(f"ModulationContext: c = {c:.9g} outside the interpolation "
                             f"window [{self.c0 - 1.5 * DC:.9g}, {self.c0 + 1.5 * DC:.9g}]")
        return np.tensordot([s * (s - 1) / 2, 1 - s * s, s * (s + 1) / 2], self._waves, 1)


@dataclass
class DecomposeReport:
    iterations: int
    residual: float  # at most _TOL: decompose raises otherwise


def decompose(state, ctx, weights, c_guess=None, D_guess=None):
    """Extract (c, D, V, V_phi) from a state near the soliton family.

    Newton iteration on the two orthogonality conditions with a
    finite-difference 2x2 Jacobian.  Returns (c, D, V, V_phi, report);
    raises RuntimeError when Newton stagnates, meets a singular Jacobian,
    runs out of iterations (each naming the residual history) or leaves
    ctx's window.
    """
    grid = ctx.grid
    U = np.array([state.n, state.u])
    if D_guess is None:
        # cross-correlation peak against the base profile
        corr = np.fft.irfft(np.fft.rfft(state.n) * np.conj(np.fft.rfft(ctx.p0.n)), n=grid.N)
        D_guess = _wrap(np.argmax(corr) * grid.h, grid)
    if c_guess is None:
        c_guess = ctx.c0

    def F(D, c):
        """(residuals, the state translated by -D, V, ctx.wave(c))."""
        W = translate(U, -D, grid)
        wave = ctx.wave(c)
        V = W - wave[:2]
        return (np.array([inner(V, weights.zeta_B * wave[3:5], grid), inner(V, wave[5:], grid)]),
                W, V, wave)

    D, c = float(D_guess), float(c_guess)
    hD, hc = 1e-7, 1e-7
    history = []
    scale = max(np.sqrt(inner(U, U, grid)), 1e-30)
    try:
        for _ in range(_MAXITER):
            r, W, V, wave = F(D, c)
            history.append(float(np.max(np.abs(r))) / scale)
            if history[-1] < _TOL:
                break
            if len(history) > 4 and history[-1] > 0.5 * history[-4]:
                raise RuntimeError(f"decompose: Newton stagnated, residual history {history}")
            J = np.column_stack([(F(D + hD, c)[0] - r) / hD, (F(D, c + hc)[0] - r) / hc])
            try:
                step = np.linalg.solve(J, r)
            except np.linalg.LinAlgError:
                raise RuntimeError(f"decompose: singular Newton Jacobian, residual "
                                   f"history {history}") from None
            D, c = D - step[0], c - step[1]
        else:
            raise RuntimeError(f"decompose: no convergence in {_MAXITER} Newton "
                               f"iterations, residual history {history}")
    except ValueError as e:
        # Newton left the context's interpolation window: a tracking failure
        raise RuntimeError(f"decompose: {e}") from e
    # electric-potential component of the perturbation
    phi_full, _ = solve_poisson(W[0], grid)
    return c, D, V, phi_full - wave[2], DecomposeReport(len(history), history[-1])


def _wrap(D, grid):
    """The shift D moved into [-L, L) by a multiple of the period 2L."""
    return float(((D + grid.L) % (2 * grid.L)) - grid.L)


@dataclass
class ModulationTrack:
    t: np.ndarray
    c: np.ndarray
    D: np.ndarray
    V: np.ndarray           # (S, 3, N): (V_n, V_u, V_phi) per snapshot, profile frame
    failed_t: float = None  # the time of the snapshot decompose failed at
    error: str = None       # and decompose's message


def track(traj, ctx, weights):
    """Run decompose along a trajectory; c, D (unwrapped) and V.

    Tracking stops at the first snapshot decompose fails at; the track keeps
    its time and decompose's message."""
    states = traj.states
    V = np.empty((len(states), 3, ctx.grid.N))
    cs, Ds = [], []
    c_g, D_g = None, None
    failed_t, error = None, None
    for i, s in enumerate(states):
        try:
            c, D, Vnu, V_phi, _ = decompose(s, ctx, weights, c_guess=c_g, D_guess=D_g)
        except RuntimeError as e:
            failed_t, error = s.t, str(e)
            break
        cs.append(c); Ds.append(D)
        V[i, :2], V[i, 2] = Vnu, V_phi
        c_g = c
        if i + 1 < len(states):
            # advect the shift guess to the next snapshot time
            D_g = _wrap(D + c * (states[i + 1].t - s.t), ctx.grid)
    S = len(cs)
    Dw = np.unwrap(np.array(Ds), period=2 * ctx.grid.L)
    return ModulationTrack(np.array([s.t for s in states[:S]]), np.array(cs), Dw,
                           V[:S], failed_t=failed_t, error=error)
