"""Saddle-point approximation of the jump coefficient for alpha > 0.

The Planck-weight average in the dispersion function is dominated by one
frequency w0, the nontrivial root of

    e^w = (alpha + 4 + w) / (alpha + 4 - w),      0 < w0 < alpha + 4,

with the closed-form approximation w0 ~ (alpha+4)(1 - 2 e^-(alpha+4)) good to
better than 1%, from which `saddle_root` takes Newton steps. Freezing the
weight at w0 replaces lam(z) by the surrogate lam_C(w0^alpha z), whose slit
shrinks to (0, w0^-alpha); pushing the surrogate through the same theta/V1
machinery collapses, after rescaling the integration variable, to

    V1_tilde(alpha) = w0^-alpha * V1(0).

`v1_saddle` evaluates it for all alpha, including alpha >= 3/2 where the
exact V1 integral diverges; the tests check the identity by pushing the
surrogate's slit table (`dispersion._slit_table` on the slit (0, w0^-alpha))
through that machinery.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError

__all__ = [
    "saddle_root",
    "saddle_root_approx",
    "v1_saddle",
]


def saddle_root(alpha: float) -> float:
    """Nontrivial root w0 of e^w = (alpha+4+w)/(alpha+4-w) in (0, alpha+4).

    Newton's method on f(w) = e^w (a4 - w) - (a4 + w), a4 = alpha + 4 (the
    same root, no pole at w = a4), from `saddle_root_approx`. f is falling
    and concave there and the start lies above the root, so the iterates
    fall monotonically onto it; they stop when a step no longer shrinks.
    The root's residual must be within max(1e-12, 64 eps a4 e^w0).
    """
    if alpha < 0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    a4 = alpha + 4.0
    w, step = saddle_root_approx(alpha), math.inf
    while True:
        e = math.exp(w)
        f = e * (a4 - w) - (a4 + w)
        new = f / (e * (a4 - w - 1.0) - 1.0)
        if not abs(new) < abs(step):
            break
        w, step = w - new, new
    if not abs(f) <= max(1e-12, 64 * math.ulp(1.0) * a4 * e):  # NaN too
        raise ConvergenceError(f"root residual too large at alpha={alpha}")
    return w


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
