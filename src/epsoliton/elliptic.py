"""Elliptic solves: nonlinear Poisson and Schrodinger-type linear solves.

Two families of problems share one discretisation:

* the nonlinear Poisson constraint  -phi'' + e^phi - 1 - n = 0 (the
  functional F(phi) = 1/2 ||phi'||^2 + int(e^phi - phi - 1 - n phi) is
  strictly convex, so the root is unique).  It iterates on the rfft
  coefficients of phi with the preconditioner 1/(k^2 + sigma), sigma the
  midpoint of the range of e^phi (fixed for the solve at a warm start's
  guess): two real FFTs per iteration and a linear contraction factor of about
  (max e^phi - min e^phi)/(max e^phi + min e^phi), about 0.1 for the
  eps = 0.1 wave.  A warm start comes in, and the solution goes out (on the
  report), as those rfft coefficients, so a caller that chains solves spends
  no FFT on either.  Newton steps, damped on F when the residual keeps
  growing, take over when that iteration stalls;
* linear solves with  -d^2/dx^2 + e^{phi_c}  (e^phi in the Newton steps).

Linear solves are conjugate-gradient iterations preconditioned by the
constant-coefficient Fourier symbol.  A fixed operator -d^2/dx^2 + e^{phi_c}
applied many times (the linearized flow) is inverted once instead, as a dense
Cholesky inverse on grids of up to DENSE_N_MAX points.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri
from scipy.sparse.linalg import LinearOperator, cg

from .grid import derivative, integrate

_POISSON_TOL = 1e-11     # bound on the Poisson residual max |-phi'' + e^phi - 1 - n|
_CG_TOL = 1e-13          # relative residual of the Helmholtz CG solves
_NEWTON_MAXITER = 30     # Newton steps after the fixed point stalls
_FIXED_POINT_MAXITER = 40  # iteration cap of _poisson_fixed_point


def _helmholtz_solve(f, w, grid):
    """Solve (-d^2/dx^2 + w(x)) g = f for real f and real positive w
    (typically e^{phi_c}) by conjugate gradients preconditioned with the
    Fourier symbol 1/(k^2 + mean(w))."""
    f = np.asarray(f)
    w = np.asarray(w, dtype=float)
    k2 = grid.k2
    shift = np.mean(w)

    def apply_A(v):
        return -derivative(v, grid, order=2) + w * v

    def apply_M(v):
        return np.fft.irfft(np.fft.rfft(v) / (k2 + shift), n=grid.N)

    A = LinearOperator((grid.N, grid.N), matvec=apply_A, dtype=float)
    M = LinearOperator((grid.N, grid.N), matvec=apply_M, dtype=float)
    g, info = cg(A, f, M=M, rtol=_CG_TOL, atol=0.0, maxiter=300)
    if info != 0:
        raise RuntimeError(f"Helmholtz Krylov solve failed to converge (info={info})")
    return g


@dataclass
class EllipticSolveReport:
    iterations: int      # every iteration the solve spent, fallbacks included
    residual: float
    phi_hat: np.ndarray  # rfft coefficients of the returned phi
    fallback: bool = False  # the first fixed-point pass stalled


def _poisson_F(phi, n, grid):
    """Convex functional whose gradient is the Poisson residual."""
    dphi = derivative(phi, grid, order=1)
    dens = 0.5 * dphi ** 2 + np.exp(phi) - phi - 1.0 - n * phi
    return integrate(dens, grid)


def solve_poisson(n, grid, phi0=None):
    """Solve -phi'' + e^phi - 1 - n = 0; returns (phi, report).

    phi0, when given, is the initial guess as rfft coefficients (it is not
    modified); otherwise the guess is the linearisation
    (-d^2/dx^2 + 1)^{-1} n.  The preconditioned fixed-point iteration on the
    rfft coefficients of phi runs first (see `_poisson_fixed_point`); when it
    stalls from phi0, it runs again from the linearisation.  When that stalls
    too, Newton steps follow from the lower residual, damped by a line search
    on the convex functional F once the residual keeps growing.
    report.residual bounds max |-phi'' + e^phi - 1 - n| and is at most
    _POISSON_TOL on return; report.phi_hat holds rfft(phi);
    report.iterations sums the fixed-point iterations of both passes and the
    Newton steps, and report.fallback is set when the first pass stalled.
    """
    n = np.asarray(n, dtype=float)
    if not np.all(np.isfinite(n)):
        raise ValueError("solve_poisson: non-finite density")
    phi, rep = _poisson_fixed_point(n, grid, phi0)
    if rep.residual <= _POISSON_TOL:
        return phi, rep
    rep.fallback = True
    if phi0 is not None:
        # a far guess can stall the iteration and leave Newton's CG too
        # ill-conditioned to converge; restart from the linearisation
        cold, cold_rep = _poisson_fixed_point(n, grid, None)
        rep.iterations += cold_rep.iterations
        if cold_rep.residual < rep.residual:
            phi, rep.residual, rep.phi_hat = cold, cold_rep.residual, cold_rep.phi_hat
        if rep.residual <= _POISSON_TOL:
            return phi, rep

    def residual(p):
        return -derivative(p, grid, order=2) + np.exp(p) - 1.0 - n

    r = residual(phi)
    res = float(np.max(np.abs(r)))
    grow = 0
    it = 0
    while res > _POISSON_TOL and it < _NEWTON_MAXITER:
        delta = _helmholtz_solve(r, np.exp(phi), grid)
        step = 1.0
        if grow >= 3:
            # damped Newton: backtrack on F (descent direction by convexity)
            F_prev = _poisson_F(phi, n, grid)
            while step > 1e-8:
                if _poisson_F(phi - step * delta, n, grid) < F_prev:
                    break
                step *= 0.5
        phi = phi - step * delta
        r = residual(phi)
        new_res = float(np.max(np.abs(r)))
        grow = grow + 1 if new_res > res else 0
        res = new_res
        it += 1
    if res > _POISSON_TOL:
        raise RuntimeError(f"solve_poisson: Newton failed, residual {res:.3e} after {it} iterations")
    return phi, EllipticSolveReport(rep.iterations + it, res, np.fft.rfft(phi),
                                    fallback=True)


def _poisson_fixed_point(n, grid, phi0):
    """Preconditioned fixed-point iteration on phi_hat = rfft(phi).

    phi_hat starts from phi0 (rfft coefficients, copied) or from the
    linearisation rfft(n) / (k^2 + 1).  Each iteration takes two real FFTs:
    phi = irfft(phi_hat), then r_hat = k^2 phi_hat + rfft(e^phi - (1 + n)),
    and updates phi_hat -= r_hat / (k^2 + sigma), sigma the midpoint of
    [min e^phi, max e^phi].  From a warm start sigma is taken at phi0, and
    it and the preconditioner 1/(k^2 + sigma) are formed once per solve, as
    1 + n always is.  The cold linearisation can overshoot e^phi by orders
    of magnitude (about 4e6 against 23 at the root for n = 20 e^{-x^2/4}),
    and a sigma fixed there stalls the iteration far from the root, so a
    cold start re-forms sigma at every iterate.  Near the solution the error
    contracts by about (max e^phi - min e^phi) / (max e^phi + min e^phi)
    per iteration.  Convergence is judged on sum_k w_k |r_hat_k|, the l1
    norm of the residual's Fourier coefficients, which bounds max |r| on the
    nodes.  Returns (phi, report) at the last residual evaluated, with
    report.phi_hat the coefficients phi came from; the caller falls back to
    Newton above _POISSON_TOL (a stall, or the iteration cap reached).
    """
    N = grid.N
    k2, w = grid.k2, grid.l1_weights
    one_n = 1.0 + n
    if phi0 is None:
        phi_hat = np.fft.rfft(n) / (k2 + 1.0)
    else:
        phi_hat = np.array(phi0, dtype=complex)
    precond = None
    it, res = 0, np.inf
    while True:
        phi = np.fft.irfft(phi_hat, n=N)
        e = np.exp(phi)
        r_hat = k2 * phi_hat + np.fft.rfft(e - one_n)
        new_res = float(w @ np.abs(r_hat))
        if new_res <= _POISSON_TOL or it == _FIXED_POINT_MAXITER or new_res > 0.9 * res:
            return phi, EllipticSolveReport(iterations=it, residual=new_res,
                                            phi_hat=phi_hat)
        if precond is None or phi0 is None:
            precond = 1.0 / (k2 + 0.5 * (e.min() + e.max()))
        res = new_res
        phi_hat -= precond * r_hat
        it += 1


def apply_inv_schrodinger(f, phi_c, grid):
    """Solve (-d^2/dx^2 + e^{phi_c}) g = f."""
    return _helmholtz_solve(f, np.exp(np.asarray(phi_c, dtype=float)), grid)


DENSE_N_MAX = 1024  # largest N given a dense inverse (8 MB at 1024)


def schrodinger_solver(phi_c, grid):
    """Return the map f -> (-d^2/dx^2 + e^{phi_c})^{-1} f for a fixed phi_c.

    For N <= DENSE_N_MAX the operator is a symmetric positive definite
    matrix: the circulant of the spectral -d^2/dx^2 plus diag(e^{phi_c}).
    It is inverted once, in place, by a Cholesky factorisation (LAPACK
    potrf, then potri), and the map is the bound `H.__matmul__` of the
    read-only inverse H, so each application is one matrix-vector
    product.  For larger N, where H would take 8 N^2 bytes,
    the map is `apply_inv_schrodinger`, a Krylov solve per call.
    """
    phi_c = np.asarray(phi_c, dtype=float)
    N = grid.N
    if N > DENSE_N_MAX:
        return lambda f: apply_inv_schrodinger(f, phi_c, grid)
    c = np.fft.irfft(grid.k2, n=N)  # column 0 of -D2; even, so H is symmetric
    H = np.empty((N, N), order="F")
    for j in range(N):
        H[:, j] = np.roll(c, j)
    H.flat[:: N + 1] += np.exp(phi_c)
    H, info = dpotrf(H, clean=0, overwrite_a=1)
    if info == 0:
        H, info = dpotri(H, overwrite_c=1)
    if info != 0:
        raise RuntimeError(f"schrodinger_solver: LAPACK Cholesky inverse failed (info={info})")
    for j in range(N - 1):  # potri fills the upper triangle; mirror it
        H[j + 1:, j] = H[j, j + 1:]
    H.flags.writeable = False
    return H.__matmul__

