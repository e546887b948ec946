"""Elliptic solves: nonlinear Poisson and Schrodinger-type linear solves.

Both iterate on rfft coefficients with one preconditioner, 1/(k^2 + sigma),
sigma the midpoint of the range of the zeroth-order coefficient, at two real
FFTs an iteration:

* the nonlinear Poisson constraint  -phi'' + e^phi - 1 - n = 0, whose root
  is unique (it minimises a strictly convex functional), from a cold start
  (`solve_poisson`).  The iterate phi_hat -= r_hat / (k^2 + sigma), sigma
  taken from e^phi, contracts by about (max e^phi - min e^phi)/(max e^phi +
  min e^phi) an iteration near the root, about 0.1 for the eps = 0.1 wave.
  It runs to the tolerance or raises RuntimeError, at once when e^phi
  would overflow; the solution goes out (on the report) as those rfft
  coefficients too;
* linear solves with  -d^2/dx^2 + e^{phi_c}, the same iteration with
  e^{phi_c} for e^phi.  A fixed operator with an even phi_c applied many
  times (the linearized flow) is inverted once instead, on grids of up to
  DENSE_N_MAX points: it commutes with the reflection x -> -x, so its
  inverse is two dense blocks of about half the size, one on even and one
  on odd functions (schrodinger_solver).

A caller that chains Poisson solves with potentials close to one phi_ref,
as the flow does, freezes the Poisson map's Jacobian -d^2/dx^2 + e^{phi_ref}
there (`freeze_jacobian`) and takes the one warm pass,
`FrozenJacobian.solve`, which starts from a potential on the nodes and
stops, stalls and restarts cold by solve_poisson's rules.  Where phi_ref is
localised the inverse is applied by Woodbury's identity at one FFT, and the
error contracts by about max |e^phi - e^{phi_ref}| an iteration; elsewhere
it is the scalar 1/(k^2 + sigma), sigma frozen at e^{phi_ref}.

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
_FROZEN_CUT = 1e-5       # what FrozenJacobian drops: |e^phi_ref - 1| and the Green's
                         # function of -d^2/dx^2 + 1 relative to its diagonal below it


@dataclass
class EllipticSolveReport:
    iterations: int      # every iteration the solve spent, both passes included
    # Poisson: the l1 norm of the residual's Fourier coefficients, formed from
    # phi_hat, so a bound for the potential band-limited to phi_hat, not for
    # the returned phi re-transformed (see solve_poisson)
    residual: float
    phi_hat: np.ndarray  # rfft coefficients of the returned solution
    fallback: bool = False  # the warm start stalled and the solve restarted cold


def solve_poisson(n, grid):
    """Solve -phi'' + e^phi - 1 - n = 0 from a cold start; returns (phi, report).

    A preconditioned fixed-point iteration on phi_hat = rfft(phi), two real
    FFTs an iteration: phi = irfft(phi_hat), r_hat = k^2 phi_hat +
    rfft(e^phi - (1 + n)), then phi_hat -= r_hat / (k^2 + sigma), sigma the
    midpoint of [min e^phi, max e^phi].  Near the solution the error
    contracts by about (max e^phi - min e^phi) / (max e^phi + min e^phi).

    It starts from the linearisation (-d^2/dx^2 + 1)^{-1} n.  That start can
    overshoot e^phi by orders of magnitude (about 4e6 against 23 at the root
    for n = 20 e^{-x^2/4}), and a sigma fixed there stalls the iteration, so
    sigma is re-formed at every iterate.  It raises RuntimeError when the
    residual turns non-finite or it reaches _MAXITER iterations, and at once
    when its start or an iterate passes _EXP_MAX, where e^phi overflows.  A
    caller with a potential near the answer takes the warm pass instead
    (`FrozenJacobian.solve`).

    Convergence is judged on report.residual = sum_k w_k |r_hat_k|, at most
    _POISSON_TOL on return: it bounds max |-phi'' + e^phi - 1 - n| on the
    nodes for the band-limited potential whose rfft coefficients are
    report.phi_hat, phi'' taken from them.  The returned phi =
    irfft(report.phi_hat) re-transformed does not carry the bound: with phi''
    from rfft(phi) its nodal residual read 1.0e-11 to 1.8e-11 at N = 2048
    and max phi 3 to 5.
    """
    n = np.asarray(n, dtype=float)
    if not np.all(np.isfinite(n)):
        raise ValueError("solve_poisson: non-finite density")
    N, k2, w = grid.N, grid.k2, grid.l1_weights
    one_n = 1.0 + n
    phi_hat = np.fft.rfft(n) / (k2 + 1.0)
    it = 0
    while True:
        phi = np.fft.irfft(phi_hat, n=N)
        if phi.max() > _EXP_MAX:  # e^phi would overflow
            where = "start" if it == 0 else f"pass's iterate {it}"
            raise RuntimeError(f"solve_poisson: the cold {where} reaches max phi = "
                               f"{phi.max():.4g}, past {_EXP_MAX:.4g}, where e^phi "
                               f"overflows")
        e = np.exp(phi)
        r_hat = k2 * phi_hat + np.fft.rfft(e - one_n)
        res = float(w @ np.abs(r_hat))
        if res <= _POISSON_TOL:
            return phi, EllipticSolveReport(iterations=it, residual=res, phi_hat=phi_hat)
        if it == _MAXITER or not np.isfinite(res):
            raise RuntimeError(f"solve_poisson: fixed point failed, residual "
                               f"{res:.3e} after {it} iterations")
        precond = 1.0 / (k2 + 0.5 * (e.min() + e.max()))
        phi_hat -= precond * r_hat
        it += 1


def freeze_jacobian(phi_ref, grid, block):
    """The FrozenJacobian at phi_ref.  With block, and |e^{phi_ref} - 1|
    past _FROZEN_CUT on at most N/4 nodes, it keeps those nodes in a dense
    block over the far field (k^2 + 1)^{-1}; otherwise, where the block
    would cost more than the iterations it saves, it keeps none, and the far
    field is (k^2 + sigma)^{-1}, sigma the midpoint of [min e^{phi_ref},
    max e^{phi_ref}]: solve_poisson's scalar iteration, in nodal form."""
    d = np.expm1(phi_ref)
    nodes = np.flatnonzero(np.abs(d) > _FROZEN_CUT)
    if block and len(nodes) <= grid.N // 4:
        return FrozenJacobian(d, nodes, 1.0, grid)
    sigma = 0.5 * (np.exp(phi_ref.min()) + np.exp(phi_ref.max()))
    return FrozenJacobian(d, nodes[:0], sigma, grid)


class FrozenJacobian:
    """(-d^2/dx^2 + e^{phi_ref})^{-1}, the inverse of the Poisson map's
    Jacobian frozen at phi_ref, and the warm pass it preconditions.

    With A = -d^2/dx^2 + sigma and D = e^{phi_ref} - sigma kept on the m
    nodes U selects, Woodbury's identity (Hager, SIAM Rev. 31, 1989) reads

        (A + U D U^T)^{-1} = A^{-1} - A^{-1} U (D^{-1} + U^T A^{-1} U)^{-1} U^T A^{-1}.

    A^{-1} is the multiplier (k^2 + sigma)^{-1}, one irfft from r_hat to the
    nodes, and with m = 0 it is the whole inverse.  With a block, sigma = 1,
    U selects the nodes where |D| > _FROZEN_CUT, and the columns of A^{-1} U
    are its Green's function g centred on them.  g decays like e^{-|x|} down
    to an algebraic tail, which the grid's band limit leaves (2e-7 of g_0
    half a box away, for the eps = 0.1 wave on 1024 nodes of [-253, 253)),
    so the columns are cut where |g| < _FROZEN_CUT g_0: the correction acts
    on a band of nodes about the m, as one dense product with the m values
    of A^{-1} r, and updates the nodal potential directly.  Both cuts leave
    the inverse exact to about _FROZEN_CUT relative, which only slows the
    iteration by as much.  Built in about 1.3 ms for m = 91 (that wave and
    box) and 2.9 ms for m = 181 (on 2048 nodes).
    """

    def __init__(self, d, nodes, sigma, grid):
        N = grid.N
        self.far = 1.0 / (grid.k2 + sigma)
        g = np.fft.irfft(self.far, n=N)  # column 0 of A^{-1}
        reach = int(np.flatnonzero(np.abs(g[: N // 2 + 1]) >= _FROZEN_CUT * g[0]).max())
        self.grid, self.nodes = grid, nodes
        band = np.unique((nodes[:, None] + np.arange(-reach, reach + 1)) % N)
        self._nodes, self._band = _run(nodes), _run(band)
        dm = d[nodes]
        # the band rows of A^{-1} U (D^{-1} + U^T A^{-1} U)^{-1}, transposed:
        # D (I + U^T A^{-1} U D)^{-1} (A^{-1} U)^T, A^{-1} being symmetric (a
        # solve with many right sides, where a matrix product here took 8 ms
        # on two BLAS threads)
        block = np.eye(len(nodes)) + g[(nodes[:, None] - nodes) % N] * dm
        self.correction = (dm[:, None] * np.linalg.solve(
            block, g[(nodes[:, None] - band) % N])).T

    def apply(self, r_hat):
        """The frozen inverse of r on the nodes, r given by its rfft
        coefficients r_hat: one irfft and one band product."""
        a = np.fft.irfft(self.far * r_hat, n=self.grid.N)
        if len(self.nodes):  # with no block the far field is the whole inverse
            # einsum, not BLAS: OpenBLAS runs a product this size on two
            # threads, whose wake-ups cost more than the product on a loaded
            # 2-core box
            a[self._band] -= np.einsum("ij,j->i", self.correction, a[self._nodes])
        return a

    def solve(self, n, phi_hat, phi, rows):
        """The warm Poisson pass from phi_hat, with phi = irfft(phi_hat) on
        the nodes, preconditioned by this inverse; returns (phi, report,
        rows_hat), rows_hat the rfft coefficients of the nodal rows `rows`.

        An iteration is phi -= apply(r_hat), then one rfft of e^phi - 1 - n
        and phi, whose coefficients become phi_hat; `rows` go through the
        rfft of the first residual, so a caller that needs them transformed
        spends no FFT call of its own.  Near phi_ref the error contracts by
        about max |e^phi - e^{phi_ref}| an iteration, and with a block one
        iteration nearly always meets _POISSON_TOL.  The stop test and the
        report are solve_poisson's.  The pass stalls at _WARM_MAXITER
        iterations, when the residual does not shrink by 0.9 in an iteration
        (a NaN counts), or at an iterate, phi included, whose max passes
        _EXP_MAX, where e^phi would overflow; it then restarts cold through
        solve_poisson, report.iterations counts both passes and
        report.fallback is set.  ValueError for a non-finite density.
        """
        if not np.isfinite(n).all():
            raise ValueError("solve_poisson: non-finite density")
        k2, w = self.grid.k2, self.grid.l1_weights
        one_n = 1.0 + n
        nrow = 1 + len(rows)
        buf = np.empty((max(nrow, 2), self.grid.N))  # e^phi - 1 - n, then the rows or phi
        buf[1:nrow] = rows
        rows_hat, it, res = None, 0, np.inf
        while phi.max() <= _EXP_MAX:  # else e^phi would overflow: a stall
            np.exp(phi, out=buf[0])
            buf[0] -= one_n
            if rows_hat is None:
                F = np.fft.rfft(buf[:nrow])
                rows_hat = F[1:]
            else:  # buf[1] holds phi
                F = np.fft.rfft(buf[:2])
                phi_hat = F[1]
            r_hat = k2 * phi_hat + F[0]
            new_res = float(w @ np.abs(r_hat))
            if new_res <= _POISSON_TOL:
                return phi, EllipticSolveReport(iterations=it, residual=new_res,
                                                phi_hat=phi_hat), rows_hat
            if it == _WARM_MAXITER or not new_res <= 0.9 * res:
                break
            res = new_res
            phi = np.subtract(phi, self.apply(r_hat), out=buf[1])
            it += 1
        if rows_hat is None:
            rows_hat = np.fft.rfft(buf[1:nrow])
        phi, cold = solve_poisson(n, self.grid)
        return phi, EllipticSolveReport(iterations=it + cold.iterations,
                                        residual=cold.residual, phi_hat=cold.phi_hat,
                                        fallback=True), rows_hat


def _run(idx):
    """Sorted node indices idx as a slice when they are consecutive, so that
    indexing with them takes a view."""
    if len(idx) and idx[-1] - idx[0] + 1 == len(idx):
        return slice(idx[0], idx[-1] + 1)
    return idx


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
