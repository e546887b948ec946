"""Elliptic solves: nonlinear Poisson and Schrodinger-type linear solves.

Both iterate on rfft coefficients with one preconditioner, 1/(k^2 + sigma),
sigma the midpoint of the range of the zeroth-order coefficient, at two real
FFTs an iteration:

* the nonlinear Poisson constraint  -phi'' + e^phi - 1 - n = 0, whose root
  is unique (it minimises a strictly convex functional).  The iterate
  phi_hat -= r_hat / (k^2 + sigma), sigma taken from e^phi, contracts by
  about (max e^phi - min e^phi)/(max e^phi + min e^phi) an iteration near
  the root, about 0.1 for the eps = 0.1 wave.  A warm start comes in, and
  the solution goes out (on the report), as those rfft coefficients, so a
  caller that chains solves spends no FFT on either.  A warm start that
  stalls the iteration, or at which e^phi would overflow, is dropped for a
  cold start, which runs to the tolerance or raises RuntimeError, at once
  when e^phi would overflow there;
* linear solves with  -d^2/dx^2 + e^{phi_c}, the same iteration with
  e^{phi_c} for e^phi.  A fixed operator with an even phi_c applied many
  times (the linearized flow) is inverted once instead, on grids of up to
  DENSE_N_MAX points: it commutes with the reflection x -> -x, so its
  inverse is two dense blocks of about half the size, one on even and one
  on odd functions (schrodinger_solver).

`solve_schrodinger` takes  -d^2/dx^2 + q  with a q that may be negative,
where neither iteration contracts: preconditioned MINRES, on every grid.
"""

from dataclasses import dataclass

import numpy as np

_POISSON_TOL = 1e-11     # bound on the Poisson residual max |-phi'' + e^phi - 1 - n|
_LINEAR_RTOL = 1e-13     # residual of a linear solve relative to its right side
_WARM_MAXITER = 40       # iteration cap of a warm-started Poisson pass
_MAXITER = 10000         # iteration cap of a cold Poisson pass and of a linear solve
_EXP_MAX = float(np.log(np.finfo(float).max))  # 709.78: e^phi overflows above it


@dataclass
class EllipticSolveReport:
    iterations: int      # every iteration the solve spent, both passes included
    # Poisson: the l1 norm of the residual's Fourier coefficients, formed from
    # phi_hat, so a bound for the potential band-limited to phi_hat, not for
    # the returned phi re-transformed (see solve_poisson)
    residual: float
    phi_hat: np.ndarray  # rfft coefficients of the returned solution
    fallback: bool = False  # the warm start stalled and the solve restarted cold


def solve_poisson(n, grid, phi0=None):
    """Solve -phi'' + e^phi - 1 - n = 0; returns (phi, report).

    A preconditioned fixed-point iteration on phi_hat = rfft(phi), two real
    FFTs an iteration: phi = irfft(phi_hat), r_hat = k^2 phi_hat +
    rfft(e^phi - (1 + n)), then phi_hat -= r_hat / (k^2 + sigma), sigma the
    midpoint of [min e^phi, max e^phi].  Near the solution the error
    contracts by about (max e^phi - min e^phi) / (max e^phi + min e^phi).

    phi0, when given, is a warm start as rfft coefficients (not modified).
    The warm pass forms sigma once, at phi0, and stops at _WARM_MAXITER,
    when the residual does not shrink by 0.9 in an iteration (a NaN counts),
    or at once when phi0 passes _EXP_MAX, where e^phi overflows; the solve
    then restarts once, cold, from the linearisation
    (-d^2/dx^2 + 1)^{-1} n, where a solve without phi0 starts.  That start
    can overshoot e^phi by orders of magnitude (about 4e6 against 23 at the
    root for n = 20 e^{-x^2/4}), and a sigma fixed there stalls the
    iteration, so the cold pass re-forms sigma at every iterate.  It raises
    RuntimeError when its residual turns non-finite or it reaches _MAXITER
    iterations, and at once when its start passes _EXP_MAX.

    Convergence is judged on report.residual = sum_k w_k |r_hat_k|, at most
    _POISSON_TOL on return: it bounds max |-phi'' + e^phi - 1 - n| on the
    nodes for the band-limited potential whose rfft coefficients are
    report.phi_hat, phi'' taken from them.  The returned phi =
    irfft(report.phi_hat) re-transformed does not carry the bound: with phi''
    from rfft(phi) its nodal residual read 1.0e-11 to 1.8e-11 at N = 2048
    and max phi 3 to 5.  report.iterations sums both passes' iterations, and
    report.fallback is set when the warm start stalled.
    """
    n = np.asarray(n, dtype=float)
    if not np.all(np.isfinite(n)):
        raise ValueError("solve_poisson: non-finite density")
    N, k2, w = grid.N, grid.k2, grid.l1_weights
    one_n = 1.0 + n
    warm = phi0 is not None
    phi_hat = np.array(phi0, dtype=complex) if warm else None
    it = cold_from = 0  # the iterations spent, and those spent before the cold start
    res = np.inf
    while True:
        cold_start = phi_hat is None
        if cold_start:
            phi_hat, cold_from = np.fft.rfft(n) / (k2 + 1.0), it
        phi = np.fft.irfft(phi_hat, n=N)
        if (cold_start or it == 0) and phi.max() > _EXP_MAX:  # e^phi would overflow
            if warm:
                warm, phi_hat = False, None  # the warm start stalls at once
                continue
            raise RuntimeError(f"solve_poisson: the cold start reaches max phi = "
                               f"{phi.max():.4g}, past {_EXP_MAX:.4g}, where e^phi "
                               f"overflows")
        e = np.exp(phi)
        r_hat = k2 * phi_hat + np.fft.rfft(e - one_n)
        new_res = float(w @ np.abs(r_hat))
        if new_res <= _POISSON_TOL:
            return phi, EllipticSolveReport(iterations=it, residual=new_res,
                                            phi_hat=phi_hat,
                                            fallback=phi0 is not None and not warm)
        if warm and (it == _WARM_MAXITER or not new_res <= 0.9 * res):
            warm, phi_hat = False, None  # the warm start stalled: restart cold
            continue
        if not warm and (it - cold_from == _MAXITER or not np.isfinite(new_res)):
            raise RuntimeError(f"solve_poisson: fixed point failed, residual "
                               f"{new_res:.3e} after {it} iterations")
        if not warm or it == 0:
            precond = 1.0 / (k2 + 0.5 * (e.min() + e.max()))
        res = new_res
        phi_hat -= precond * r_hat
        it += 1


def apply_inv_schrodinger(f, phi_c, grid):
    """Solve (-d^2/dx^2 + e^{phi_c}) g = f for real f.

    The linear form of `solve_poisson`'s iteration: g_hat -= r_hat / (k^2 + sigma)
    with r_hat = k^2 g_hat + rfft(e^{phi_c} g) - rfft(f) and sigma the
    midpoint of [min e^{phi_c}, max e^{phi_c}], which contracts the error by
    (max - min) / (max + min) of e^{phi_c} an iteration.  It stops once the
    2-norm of r_hat is at most _LINEAR_RTOL times that of rfft(f), and
    raises RuntimeError when the residual turns non-finite or the iteration
    reaches _MAXITER, and at once, naming max phi_c, when e^{phi_c} would
    overflow.
    """
    phi_c = np.asarray(phi_c, dtype=float)
    if phi_c.max() > _EXP_MAX:
        raise RuntimeError(f"apply_inv_schrodinger: max phi_c = {phi_c.max():.4g} is "
                           f"past {_EXP_MAX:.4g}, where e^phi_c overflows")
    wgt = np.exp(phi_c)
    k2, N = grid.k2, grid.N
    f_hat = np.fft.rfft(f)
    precond = 1.0 / (k2 + 0.5 * (wgt.min() + wgt.max()))
    g_hat = precond * f_hat
    f_norm = np.linalg.norm(f_hat)
    it = 0
    while True:
        g = np.fft.irfft(g_hat, n=N)
        r_hat = k2 * g_hat + np.fft.rfft(wgt * g) - f_hat
        res = np.linalg.norm(r_hat)
        if res <= _LINEAR_RTOL * f_norm:
            return g
        if it == _MAXITER or not np.isfinite(res):
            raise RuntimeError(f"apply_inv_schrodinger: fixed point failed, relative "
                               f"residual {res / f_norm:.3e} after {it} iterations")
        g_hat -= precond * r_hat
        it += 1


def solve_schrodinger(q, f, grid):
    """Solve (-d^2/dx^2 + q) w = f for real f and q by preconditioned MINRES
    (Paige & Saunders, SIAM J. Numer. Anal. 12, 1975); returns (w, report).

    The operator is symmetric but may be indefinite (q < 0 on the wave).
    MINRES runs on the rfft coefficients, in the inner product of the nodal
    values (Parseval: the weights grid.l1_weights), preconditioned by
    (k^2 + q(-L))^{-1}: the exact inverse of the operator far from the wave,
    so the iteration count does not grow with N.  (On a box too short for
    the wave to decay, where q(-L) <= 0, it takes (k^2 + 1)^{-1} instead.)
    It stops once the preconditioned residual norm is at most _LINEAR_RTOL
    times that of f, and raises RuntimeError, naming the iterations and the
    residual, when the residual turns non-finite or the iteration reaches
    _MAXITER.  report.residual is max |-w'' + q w - f| / max |f| of the
    returned w on the nodes, report.phi_hat its rfft coefficients.
    """
    q = np.asarray(q, dtype=float)
    k2, wts, N = grid.k2, grid.l1_weights, grid.N
    f_hat = np.fft.rfft(f)
    precond = 1.0 / (k2 + (q[0] if q[0] > 0.0 else 1.0))

    def apply(v):
        return k2 * v + np.fft.rfft(q * np.fft.irfft(v, n=N))

    def dot(a, b):
        return float(wts @ (a.real * b.real + a.imag * b.imag))

    x = np.zeros_like(f_hat)
    r1, r2 = f_hat, f_hat
    y = precond * f_hat
    beta1 = np.sqrt(dot(f_hat, y))
    oldb, beta, dbar, epsln, phibar = 0.0, beta1, 0.0, 0.0, beta1
    cs, sn = -1.0, 0.0
    d, d1 = np.zeros_like(f_hat), np.zeros_like(f_hat)  # the last two directions
    it = 0
    while not phibar <= _LINEAR_RTOL * beta1:
        if it == _MAXITER or not np.isfinite(phibar):
            raise RuntimeError(f"solve_schrodinger: MINRES failed, relative residual "
                               f"{phibar / beta1:.3e} after {it} iterations")
        it += 1
        # Lanczos step: v_k = y / beta_k, then y = A v_k - ..., beta_{k+1}
        v = y / beta
        y = apply(v)
        if it >= 2:
            y = y - (beta / oldb) * r1
        alfa = dot(v, y)
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = precond * r2
        oldb, beta = beta, np.sqrt(dot(r2, y))
        # the previous plane rotation, then the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), np.finfo(float).eps)
        cs, sn = gbar / gamma, beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        d1, d = d, (v - oldeps * d1 - delta * d) / gamma
        x = x + phi * d
    w = np.fft.irfft(x, n=N)
    w_hat = np.fft.rfft(w)
    r = np.fft.irfft(apply(w_hat) - f_hat, n=N)
    res = float(np.max(np.abs(r)) / max(np.max(np.abs(f)), 1e-300))
    if not np.isfinite(res):  # e.g. an infinite q(-L) zeroes the preconditioner
        raise RuntimeError(f"solve_schrodinger: MINRES failed, relative residual "
                           f"{res:.3e} after {it} iterations")
    return w, EllipticSolveReport(iterations=it, residual=res, phi_hat=w_hat)


DENSE_N_MAX = 1024  # largest N given a dense inverse (two parity blocks, 4 MB at 1024)
_EVEN_TOL = 1e-12   # max |phi_c(x) - phi_c(-x)| / max(1, max |phi_c|) schrodinger_solver accepts


def schrodinger_solver(phi_c, grid):
    """Return the map f -> (-d^2/dx^2 + e^{phi_c})^{-1} f for a fixed, even phi_c.

    phi_c must be even on the nodes to roundoff, phi_c[j] = phi_c[(N - j) % N]
    within _EVEN_TOL (the profile is exactly even); ValueError otherwise.  Then
    H = -d^2/dx^2 + e^{phi_c} commutes with the reflection j -> (N - j) mod N
    and its inverse splits into two blocks: an even one on the values at
    j = 0..N/2, of size (N/2 + 1)^2, and an odd one on j = 1..N/2 - 1, of size
    (N/2 - 1)^2.  For N <= DENSE_N_MAX both blocks, assembled from column 0 of
    the circulant -d^2/dx^2 and diag(e^{phi_c}), are inverted once
    (np.linalg.inv), about 4 N^2 bytes (4 MB at N = 1024) against 8 N^2 for the
    full inverse, and each application folds f into its even and odd halves
    and takes two half-size matrix-vector products.  For larger N the map is
    `apply_inv_schrodinger`, a fixed-point solve per call.
    """
    phi_c = np.asarray(phi_c, dtype=float)
    N, m = grid.N, grid.N // 2
    mirror = -np.arange(N) % N
    mirrored = phi_c[mirror]
    if not np.max(np.abs(phi_c - mirrored)) <= _EVEN_TOL * max(1.0, np.max(np.abs(phi_c))):
        raise ValueError("schrodinger_solver: phi_c is not even about x = 0")
    if N > DENSE_N_MAX:
        return lambda f: apply_inv_schrodinger(f, phi_c, grid)
    c = np.fft.irfft(grid.k2, n=N)  # column 0 of -D2, even: H[i, j] = c[(i - j) % N]
    wgt = np.exp(0.5 * (phi_c + mirrored))
    i = np.arange(m + 1)[:, None]
    # H on even g, in g's values at 0..m: columns j and N - j fold onto j
    even = c[(i - i.T) % N] + c[(i + i.T) % N]
    even[:, [0, m]] *= 0.5  # j = 0 and j = m are their own mirror images
    even.flat[:: m + 2] += wgt[: m + 1]
    # H on odd g (g_0 = g_m = 0), in g's values at 1..m-1
    i = i[1:m]
    odd = c[(i - i.T) % N] - c[(i + i.T) % N]
    odd.flat[:: m] += wgt[1:m]
    # the halves of f are (f +- f reflected) / 2: the 1/2 is taken into the blocks
    even_inv, odd_inv = 0.5 * np.linalg.inv(even), 0.5 * np.linalg.inv(odd)
    fold = mirror[: m + 1]  # 0, N - 1, ..., m

    def solve(f):
        g = np.empty(N)
        g[: m + 1] = even_inv @ (f[: m + 1] + f[fold])
        g[m + 1:] = g[m - 1: 0: -1]
        g_odd = odd_inv @ (f[1:m] - f[: m: -1])
        g[1:m] += g_odd
        g[m + 1:] -= g_odd[::-1]
        return g

    return solve
