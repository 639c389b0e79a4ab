"""Saddle-point approximation of the jump coefficient for alpha > 0.

The Planck-weight average in the dispersion function is dominated by one
frequency w0, the nontrivial root of

    e^w = (alpha + 4 + w) / (alpha + 4 - w),      0 < w0 < alpha + 4,

with the closed-form approximation w0 ~ (alpha+4)(1 - 2 e^-(alpha+4)) good to
better than 1%. Freezing the weight at w0 replaces lam(z) by the surrogate
lam_C(w0^alpha z), whose slit shrinks to (0, w0^-alpha); pushing the surrogate
through the same theta/V1 machinery collapses, after rescaling the
integration variable, to

    V1_tilde(alpha) = w0^-alpha * V1(0).

`v1_saddle` evaluates it for all alpha, including alpha >= 3/2 where the
exact V1 integral diverges; the tests check the identity by pushing
`surrogate_theta_table`, the surrogate's slit table, through that machinery.

The root comes from `_brentq`, a line-for-line port of scipy's brentq.c
(Brent, Algorithms for Minimization without Derivatives, 1973): the same
iterates and tolerances, so omega0 has the same bits as
scipy.optimize.brentq, without importing scipy.optimize, which was most of
the `v1` command's start-up time.
"""

from __future__ import annotations

import math

import numpy as np

from .dispersion import DispersionTable, _slit_grid, _slit_table
from .errors import ConvergenceError, DomainError

__all__ = [
    "saddle_root",
    "saddle_root_approx",
    "v1_saddle",
    "surrogate_theta_table",
]


def _saddle_fn(w: float, a4: float) -> float:
    # e^w (a4 - w) - (a4 + w): same root, no pole at w = a4
    return math.exp(w) * (a4 - w) - (a4 + w)


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int = 100) -> float:
    """Root of f in the bracket [xa, xb] by Brent's method.

    A port of scipy's brentq.c, step for step, so its iterates and its
    result are those of scipy.optimize.brentq for the same arguments.
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ConvergenceError(f"no sign change in bracket ({xa}, {xb})")
    xblk = fblk = spre = scur = 0.0
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
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise ConvergenceError(f"Brent's method did not converge in {maxiter} iterations")


def saddle_root(alpha: float) -> float:
    """Nontrivial root w0 of e^w = (alpha+4+w)/(alpha+4-w) in (0, alpha+4).

    w = 0 always solves the equation and the right side blows up at
    w = alpha+4, so the bracket leaves a relative margin at both ends. The
    root's residual must be within max(1e-12, 64 eps (alpha+4) e^w0).
    """
    if alpha < 0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    a4 = alpha + 4.0
    eps = 1e-9 * a4
    lo, hi = eps, a4 - eps
    root = _brentq(lambda w: _saddle_fn(w, a4), lo, hi, xtol=1e-15, rtol=8.9e-16)
    if abs(_saddle_fn(root, a4)) > max(1e-12, 64 * np.finfo(float).eps * a4 * math.exp(root)):
        raise ConvergenceError(f"root residual too large at alpha={alpha}")
    return float(root)


def saddle_root_approx(alpha: float) -> float:
    """Closed-form approximation (alpha+4)(1 - 2 e^-(alpha+4)) of the saddle root."""
    if alpha + 4.0 <= 1.0:
        raise DomainError("approximation requires alpha + 4 > 1")
    a4 = alpha + 4.0
    return a4 * (1.0 - 2.0 * math.exp(-a4))


def v1_saddle(alpha: float, v1_zero: float) -> float:
    """Approximate jump coefficient V1_tilde = w0^-alpha * V1(0)."""
    w0 = saddle_root(alpha)
    return w0 ** (-alpha) * v1_zero


def surrogate_theta_table(alpha: float) -> DispersionTable:
    """Slit-type theta table of the surrogate function on (0, w0^-alpha).

    lam+ = lam_C(mu w0^alpha + i0) and theta are in closed form; the 400
    nodes only seed the continuum table. No command builds it: it is the
    reference the tests push through the generic V1 machinery, which must
    reproduce w0^-alpha * V1(0) (the scaling identity is checked, not
    assumed).
    """
    edge = saddle_root(alpha) ** (-alpha)
    return _slit_table(_slit_grid(edge, 400, 1e-4), alpha, edge)
