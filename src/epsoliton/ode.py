"""NumPy ports of the three numerical routines the package once took from
SciPy: the DOP853 march of the profile quadrature, Brent's root finder and
the not-a-knot cubic spline of the Evans coefficients.

Each does SciPy 1.17.1's arithmetic in SciPy's order, with NumPy calls of the
same shapes, so every profile and Evans value is the one SciPy gives, bit for
bit; the tests check them against SciPy.  Only what the package uses is
ported: one direction of integration, scalar tolerances, one terminal event,
and solution values read at t_eval through the dense output.
"""

from dataclasses import dataclass

import math

import numpy as np

EPS = np.finfo(float).eps


def brentq(f, a, b, xtol, rtol, maxiter=100):
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by Brent's
    method: SciPy's C brentq line for line.  Raises ValueError on a bracket
    without a sign change, RuntimeError after maxiter iterations."""
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("brentq: f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:             # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry   # good short step
            else:
                spre = scur = sbis        # bisect
        else:
            spre = scur = sbis            # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise RuntimeError(f"brentq: no convergence after {maxiter} iterations, at x = {xcur:g}")


# ------------------------------------------------------------------ DOP853

# The Dormand-Prince 8(5,3) tableau with its dense-output stages (Hairer,
# Norsett & Wanner, Solving ODEs I, sec. II.5), as SciPy's
# dop853_coefficients holds it: rows 1-11 of A give the stages, row 12 the
# weights B, rows 13-15 the extra stages of the interpolant.
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
               0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
               0.7777777777777778])
_A = np.zeros((16, 16))
for _s, _row in enumerate((
        (0.05260015195876773,),
        (0.0197250569845379, 0.0591751709536137),
        (0.02958758547680685, 0.0, 0.08876275643042054),
        (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
        (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
        (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
        (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
         -0.015319437748624402, 0.008273789163814023),
        (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
         27.59209969944671, 20.154067550477894, -43.48988418106996),
        (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
         21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
        (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
         -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
         -3.0467644718982196),
        (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
         -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
         12.360567175794303, 0.6433927460157636),
        (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
         -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
         0.04471061572777259),
        (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
         -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
         0.007567897660545699, -0.008298),
        (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
         -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
         -0.00034046500868740456, 0.1413124436746325),
        (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
         4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
         2.9475147891527724, -9.15095847217987)), start=1):
    _A[_s, :_s] = _row
_B = _A[12, :12]
# the 5th- and 3rd-order error estimators, over the 12 stages and f_new
_E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0])
_E3 = np.array([-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
                1.8915178993145003, -5.801203960010585, -0.4226823213237919,
                -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0])
# the interpolant's coefficients 4-7 over all 16 stages
_D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564]])


@dataclass
class OdeResult:
    """y: the solution at the t_eval points reached, shape (n, points);
    t_events: [the time of the terminal event, if it happened]."""
    y: np.ndarray
    t_events: list
    nfev: int
    success: bool


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _dense(t_old, h, y_old, F, t):
    """The DOP853 interpolant of the step [t_old, t_old + h] at the points t,
    shape (n, len(t))."""
    x = ((np.asarray(t) - t_old) / h)[:, None]
    y = np.zeros((len(x), len(y_old)))
    for i, f in enumerate(F[::-1]):
        y += f
        y *= x if i % 2 == 0 else 1 - x
    return (y + y_old).T


def solve_ivp(fun, t_span, y0, t_eval, rtol, atol, max_step, events):
    """March y' = fun(t, y) from t_span[0] towards t_span[1] > t_span[0] by
    DOP853 with step control at rtol, atol and steps up to max_step, until
    events(t, y), with events.terminal set and events.direction > 0 or < 0,
    crosses zero in that direction, or t_span[1] is reached.  t_eval:
    ascending points inside t_span, possibly none."""
    t, t_bound = map(float, t_span)
    if not t_bound > t:
        raise ValueError("solve_ivp: integrates forward only")
    if not events.terminal or events.direction == 0:
        raise ValueError("solve_ivp: one terminal event with a direction")
    nfev = 0

    def f(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=float)

    y = np.asarray(y0).astype(float, copy=False)
    t_eval = np.asarray(t_eval, dtype=float)
    fy = f(t, y)
    # initial step (Hairer, Norsett & Wanner, sec. II.4), for error order 7
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(fy / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound - t)
    d2 = _rms((f(t + h0, y + h0 * fy) - fy) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, t_bound - t, max_step)

    K_ext = np.empty((16, y.size))
    K = K_ext[:13]
    A = _A[:12, :12]
    g = events(t, y)
    t_events, ys, i_eval, status = [], [], 0, None
    while status is None:
        # one accepted step [t_old, t]: SciPy's RungeKutta._step_impl
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return OdeResult(np.empty((y.size, 0)), [np.asarray(t_events)], nfev, False)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = fy
            for s, (a, c) in enumerate(zip(A[1:], _C[1:12]), start=1):
                K[s] = f(t + c * h, y + np.dot(K[:s].T, a[:s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _B)
            f_new = K[-1] = f(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.linalg.norm(np.dot(K.T, _E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(K.T, _E3) / scale) ** 2
            err = 0.0 if err5 == 0 and err3 == 0 else \
                np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * len(scale))
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
        t_old, y_old, t, y, fy = t, y, t_new, y_new, f_new
        if t >= t_bound:
            status = 0
        F = None

        def dense(tq):
            nonlocal F
            if F is None:  # the three extra stages and the interpolant, once a step
                for s in range(13, 16):
                    K_ext[s] = f(t_old + _C[s] * h, y_old + np.dot(K_ext[:s].T, _A[s, :s]) * h)
                dy = y - y_old
                F = np.empty((7, y.size))
                F[0] = dy
                F[1] = h * K_ext[0] - dy
                F[2] = 2 * dy - h * (fy + K_ext[0])
                F[3:] = h * np.dot(_D, K_ext)
            return _dense(t_old, h, y_old, F, tq)

        g_new = events(t, y)
        if (g <= 0 <= g_new) if events.direction > 0 else (g >= 0 >= g_new):
            t = brentq(lambda tq: events(tq, dense([tq])[:, 0]), t_old, t,
                       xtol=4 * EPS, rtol=4 * EPS)
            t_events.append(t)
            status = 1
        g = g_new
        i_new = np.searchsorted(t_eval, t, side="right")
        if i_new > i_eval:
            ys.append(dense(t_eval[i_eval:i_new]))
            i_eval = i_new
    return OdeResult(np.hstack(ys) if ys else np.empty((y.size, 0)),
                     [np.asarray(t_events)], nfev, True)


# ------------------------------------------------------------------ spline

class CubicSpline:
    """The not-a-knot cubic spline through each row of y (m, n) at the knots
    x (n,), n >= 4: SciPy's CubicSpline(x, y, axis=1), with c in its PPoly
    layout (4, n-1, m), highest power first.  spline(t) has shape
    t.shape + (m,).
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).T
        dx = np.diff(x)
        dxr = dx[:, None]
        slope = np.diff(y, axis=0) / dxr
        # the slopes at the knots solve a tridiagonal system: sub-diagonal dl,
        # diagonal d, super-diagonal du, right-hand sides b
        # (not-a-knot: the end rows span the first and the last two intervals)
        w0, w1 = x[2] - x[0], x[-1] - x[-3]
        # in plain floats, for the speed of the loops below
        dl = [*dx[1:].tolist(), float(w1)]
        d = [float(dx[1]), *(2 * (dx[:-1] + dx[1:])).tolist(), float(dx[-2])]
        du = [float(w0), *dx[:-1].tolist()]
        b = np.empty_like(y)
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        b[0] = ((dxr[0] + 2 * w0) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / w0
        b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * w1 + dxr[-1]) * dxr[-2] * slope[-1]) / w1
        # LAPACK dgtsv's elimination without row interchanges, which raises
        # where dgtsv would pivot
        fact = []
        for i in range(len(x) - 1):
            if not abs(d[i]) >= abs(dl[i]) or d[i] == 0:
                raise ValueError("CubicSpline: the knot system needs pivoting")
            fact.append(dl[i] / d[i])
            d[i + 1] = d[i + 1] - fact[i] * du[i]
        if d[-1] == 0:
            raise ValueError("CubicSpline: singular knot system")
        s = np.empty_like(b)  # one right-hand side at a time, in plain floats
        for j in range(b.shape[1]):
            s[:, j] = _eliminate_and_solve(b[:, j].tolist(), fact, d, du)
        t = (s[:-1] + s[1:] - 2 * slope) / dxr
        self.x = x
        self.c = c = np.empty((4,) + slope.shape)
        c[0] = t / dxr
        c[1] = (slope - s[:-1]) / dxr - t
        c[2], c[3] = s[:-1], y[:-1]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, len(self.x) - 2)
        s = (t - self.x[i])[..., None]
        c = self.c[:, i]
        # SciPy's evaluation order: a running sum from 0.0 over s^0, ..., s^3
        return 0.0 + c[3] + c[2] * s + c[1] * (s * s) + c[0] * (s * s * s)


def _eliminate_and_solve(b, fact, d, du):
    """dgtsv's forward elimination of one right-hand side b (a list) with the
    multipliers fact, then its back substitution with the eliminated
    diagonal d and the super-diagonal du.  The zeroed sub-diagonal's term
    dgtsv still subtracts is left out: it changes at most the sign of an
    exact zero."""
    acc = b[0]
    fwd = [acc] + [acc := bi - f * acc for f, bi in zip(fact, b[1:])]
    acc = fwd[-1] / d[-1]
    out = [acc] + [acc := (bi - ui * acc) / di
                   for bi, ui, di in zip(fwd[-2::-1], du[::-1], d[-2::-1])]
    return out[::-1]
