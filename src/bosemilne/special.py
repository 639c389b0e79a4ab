"""Einstein function and the Planck-weight frequency moments.

The Einstein function E(x) = e^x/(e^x-1)^2 is the temperature derivative
kernel of the Planck occupation. Everything downstream integrates against the
weight w^(p+4) E(w) on the positive frequency axis; the closed form

    int_0^inf w^(p+4) E(w) dw = Gamma(p+5) zeta(p+4)

is reserved for verification, while production values come from quadrature so
the same numerical stack is exercised end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from . import quadrature
from .errors import ConfigurationError, DivergenceError, DomainError

__all__ = [
    "AlphaModel",
    "einstein",
    "einstein_reg",
    "moment_l0",
    "frequency_knots",
    "xi_alpha",
]

OMEGA_CUT_DEFAULT = 80.0

# Laurent coefficients of E(x) - 1/x^2 + 1/12 = sum c_k x^(2k), k >= 1
_REG_COEFFS = (1.0 / 240.0, -1.0 / 6048.0, 1.0 / 172800.0, -1.0 / 5322240.0)
# the Laurent series E = 1/x^2 - 1/12 + ... stands in for E below this |x|
_LAURENT_RADIUS = 0.25


def einstein(x):
    """Einstein function E(x) = e^x/(e^x-1)^2, evaluated as 1/(4 sinh^2(x/2)).

    The sinh form avoids overflow of e^x for x up to ~700 and is manifestly
    even. x = 0 is a double pole and is rejected.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr == 0.0):
        raise DomainError("einstein(0) is a pole")
    s = np.sinh(0.5 * arr)
    with np.errstate(divide="ignore", over="ignore"):
        out = 1.0 / (4.0 * s * s)
    if np.any(np.isinf(out)):  # sinh^2 underflowed: too close to the pole
        raise DomainError("einstein argument too close to the pole at 0")
    return out if arr.ndim else float(out)


def einstein_reg(x):
    """Regularised Einstein function E(x) - 1/x^2 + 1/12.

    Smooth through x = 0; evaluated by series for |x| < 1/4 where the direct
    subtraction loses all significant digits.
    """
    arr = np.asarray(x, dtype=float)
    out = np.empty_like(arr)
    small = np.abs(arr) < _LAURENT_RADIUS
    xs = arr[small]
    x2 = xs * xs
    acc = np.zeros_like(xs)
    for c in reversed(_REG_COEFFS):
        acc = x2 * (c + acc)
    out[small] = acc
    xb = arr[~small]
    s = np.sinh(0.5 * xb)
    out[~small] = 1.0 / (4.0 * s * s) - 1.0 / (xb * xb) + 1.0 / 12.0
    return out if arr.ndim else float(out)


def moment_l0(p: float) -> float:
    """Frequency moment int_0^inf w^(p+4) E(w) dw by quadrature.

    Converges classically for p > -3. On (-4, -3) the small-w divergence is
    removed analytically (E = 1/w^2 - 1/12 + O(w^2)), which continues the
    moment to the value Gamma(p+5) zeta(p+4); p = -3 sits on the zeta pole.
    The e^-w tail makes truncation at OMEGA_CUT_DEFAULT = 80 exact to
    ~1e-30. Both pieces use quadrature.integrate's default rule and depth at
    tolerance 1e-12.
    """
    if p <= -4.0:
        raise DivergenceError(f"moment diverges for p <= -4 (got p={p})")
    if p == -3.0:
        raise DivergenceError("moment has a pole at p = -3")

    def tail_integrand(w):
        return w ** (p + 4) * einstein(w)

    # (0, 1): subtract the Laurent singularity, integrate the smooth remainder
    def head_integrand(w):
        return w ** (p + 4) * einstein_reg(w)

    head = quadrature.integrate(head_integrand, 0.0, 1.0, 1e-12)
    head += 1.0 / (p + 3.0) - 1.0 / (12.0 * (p + 5.0))
    tail = quadrature.integrate(tail_integrand, 1.0, OMEGA_CUT_DEFAULT, 1e-12)
    return head + tail


@dataclass(frozen=True)
class AlphaModel:
    """Scattering exponent alpha with its derived moments: plain data.

    The collision frequency scales as w^alpha; l0(alpha), l0(-alpha) and
    l0(2 alpha) are the Planck-weight moments that normalise the transport
    equation. l0_neg is None at alpha = 3 where the moment hits the zeta pole.
    omega_cut truncates the frequency integrals, which run at the default
    rule order and depth of quadrature.
    """

    alpha: float
    l0_alpha: float
    l0_neg: float | None
    l0_2alpha: float
    omega_cut: float

    @classmethod
    def build(cls, alpha: float) -> "AlphaModel":
        if not math.isfinite(alpha) or not (0.0 <= alpha <= 3.0):
            raise ConfigurationError(
                f"alpha must be finite and in [0, 3], got {alpha}")
        l0n = None if alpha == 3.0 else moment_l0(-alpha)
        return cls(alpha=alpha, l0_alpha=moment_l0(alpha), l0_neg=l0n,
                   l0_2alpha=moment_l0(2 * alpha), omega_cut=OMEGA_CUT_DEFAULT)

    def __post_init__(self):
        if self.l0_alpha <= 0 or self.l0_2alpha <= 0:
            raise ConfigurationError("moments l0(alpha), l0(2 alpha) must be positive")


def frequency_knots(cut: float) -> np.ndarray:
    """Fixed knots on (0, cut]: 2^k for k = -20..1, then steps of 4, and cut;
    16-point Gauss rules between them resolve w^p E(w), whose poles are 2 pi i k."""
    w = np.concatenate([2.0 ** np.arange(-20, 2), np.arange(4.0, cut, 4.0)])
    return np.append(w[w < cut], cut)


def xi_alpha(model: AlphaModel, mu):
    """Truncated moment int_0^c w^(2 alpha + 4) E(w) dw, c = min(mu^(-1/alpha), cut).

    The cutoff collects exactly the frequencies whose stretched slit
    (-w^-alpha, w^-alpha) still contains mu, i.e. w^alpha * mu < 1. At
    alpha = 0 the slit is (-1, 1) for every frequency, so the moment is full
    inside it and zero outside. For alpha > 0 a full cutoff gives l0(2 alpha);
    any other integrates the Laurent series of E up to min(c, _LAURENT_RADIUS)
    term by term and adds Gauss sums between the `frequency_knots` below c
    and from the last of them to c. Each value depends on its own mu only.
    """
    arr = np.asarray(mu, dtype=float)
    if np.any(arr <= 0):
        raise DomainError(f"xi_alpha requires mu > 0, got {mu}")
    if model.alpha == 0.0:
        out = np.where(arr < 1.0, model.l0_2alpha, 0.0)
        return out if arr.ndim else float(out)
    a2 = 2 * model.alpha
    log_cut = -np.log(np.atleast_1d(arr)) / model.alpha
    full = log_cut >= math.log(model.omega_cut)
    cut = np.exp(np.where(full, 0.0, log_cut))
    head = np.minimum(cut, _LAURENT_RADIUS)
    terms = [c / (a2 + 3 + 2 * k) for k, c in enumerate((1.0, -1.0 / 12.0, *_REG_COEFFS))]
    out = np.where(full, model.l0_2alpha, head ** (a2 + 3) * polyval(head * head, terms))
    body = np.flatnonzero(~full & (cut > _LAURENT_RADIUS))
    knots = np.unique(np.maximum(frequency_knots(model.omega_cut), _LAURENT_RADIUS))
    k = np.searchsorted(knots, cut[body], side="right") - 1
    lo, hi = np.concatenate([knots[:-1], knots[k]]), np.concatenate([knots[1:], cut[body]])
    w, weights = quadrature.gauss_rule(16).map_to(lo[:, None], hi[:, None])
    # row by row: a matrix-vector product rounds differently with the row count
    sums = (w ** (a2 + 4) * einstein(w) * weights).sum(axis=1)
    below = np.concatenate([[0.0], np.cumsum(sums[:len(knots) - 1])])
    out[body] += below[k] + sums[len(knots) - 1:]
    return out if arr.ndim else float(out[0])
