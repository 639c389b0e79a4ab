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

This route stays available for all alpha, including alpha >= 3/2 where the
exact V1 integral diverges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .dispersion import (DispersionTable, _samples, _slit_grid, _slit_table,
                         lambda_case, lambda_case_pv)
from .errors import ConsistencyError, ConvergenceError, DomainError

__all__ = [
    "SaddleSummary",
    "saddle_root",
    "saddle_root_approx",
    "v1_saddle",
    "lambda_surrogate",
    "surrogate_theta_table",
    "summarize",
]


def _saddle_fn(w: float, a4: float) -> float:
    # e^w (a4 - w) - (a4 + w): same root, no pole at w = a4
    return math.exp(w) * (a4 - w) - (a4 + w)


def saddle_root(alpha: float, tol: float = 1e-12) -> float:
    """Nontrivial root w0 of e^w = (alpha+4+w)/(alpha+4-w) in (0, alpha+4).

    w = 0 always solves the equation and the right side blows up at
    w = alpha+4, so the bracket leaves a relative margin at both ends.
    """
    if alpha < 0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    a4 = alpha + 4.0
    eps = 1e-9 * a4
    lo, hi = eps, a4 - eps
    flo, fhi = _saddle_fn(lo, a4), _saddle_fn(hi, a4)
    if flo * fhi >= 0:
        raise ConvergenceError(
            f"no sign change in bracket ({lo}, {hi}) for alpha={alpha}")
    root = optimize.brentq(_saddle_fn, lo, hi, args=(a4,), xtol=1e-15, rtol=8.9e-16)
    if abs(_saddle_fn(root, a4)) > max(tol, 64 * np.finfo(float).eps * a4 * math.exp(root)):
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


def lambda_surrogate(alpha: float, omega0: float, z) -> complex:
    """Surrogate dispersion function lam_C(w0^alpha z); cut on |w0^alpha z| <= 1."""
    if omega0 <= 0:
        raise DomainError(f"omega0 must be positive, got {omega0}")
    return lambda_case(omega0 ** alpha * z)


def surrogate_theta_table(alpha: float, omega0: float | None = None,
                          n: int = 400) -> DispersionTable:
    """Slit-type theta table of the surrogate function on (0, w0^-alpha).

    theta is exact (lam_C in closed form); the n nodes only seed the
    continuum table. Feeding this table to the generic V1 machinery must
    reproduce w0^-alpha * V1(0); the scaling identity is exercised by the
    tests rather than assumed.
    """
    w0 = saddle_root(alpha) if omega0 is None else omega0
    edge = w0 ** (-alpha)

    def boundary(mus):
        mus = np.asarray(mus, dtype=float)
        if np.any(mus <= 0):
            raise DomainError(f"mu must be positive, got {mus[mus <= 0][0]}")
        y = mus / edge
        return _samples(mus, lambda_case_pv(y), np.where(y < 1.0, 0.5 * math.pi * y, 0.0))

    return _slit_table(boundary, _slit_grid(edge, n, 1e-4), alpha, edge)


@dataclass(frozen=True)
class SaddleSummary:
    """Saddle frequency, its approximation, and the resulting V1_tilde."""

    alpha: float
    omega0: float
    omega0_approx: float
    v1_tilde: float
    v1_exact_ref: float | None

    def __post_init__(self):
        if not (0.0 < self.omega0 < self.alpha + 4.0):
            raise ConsistencyError("saddle root must lie in (0, alpha + 4)")
        if abs(self.omega0_approx - self.omega0) > 0.01 * self.omega0:
            raise ConsistencyError(
                "closed-form saddle approximation deviates by more than 1%")


def summarize(alpha: float, v1_zero: float,
              v1_exact: float | None = None) -> SaddleSummary:
    """Bundle the saddle quantities for one alpha."""
    w0 = saddle_root(alpha)
    return SaddleSummary(alpha=alpha, omega0=w0,
                         omega0_approx=saddle_root_approx(alpha),
                         v1_tilde=w0 ** (-alpha) * v1_zero,
                         v1_exact_ref=v1_exact)
