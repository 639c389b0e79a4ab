"""Einstein function and the Planck-weight frequency moments.

The Einstein function E(x) = e^x/(e^x-1)^2 is the temperature derivative
kernel of the Planck occupation. Everything downstream integrates against the
weight w^(p+4) E(w) on the positive frequency axis; the closed form

    int_0^inf w^(p+4) E(w) dw = Gamma(p+5) zeta(p+4)

is reserved for verification. The full moments (moment_l0) and the truncated
ones (xi_alpha) are one fixed-rule sum, `_planck_sums`: the Laurent series
of E integrated term by term up to 1/4, then 16-point Gauss sums between
the fixed `frequency_knots`. No adaptive quadrature runs here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyval

from . import quadrature
from .errors import ConfigurationError, DivergenceError, DomainError

__all__ = [
    "AlphaModel",
    "einstein",
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


def moment_l0(p: float) -> float:
    """Frequency moment int_0^inf w^(p+4) E(w) dw by quadrature: `_planck_sums`
    up to OMEGA_CUT_DEFAULT = 80, where the e^-w tail leaves ~1e-30.

    Converges classically for p > -3. On (-4, -3) the Laurent head's term
    h^(p+3)/(p+3) is the analytic continuation, so the sum continues the
    moment to Gamma(p+5) zeta(p+4); p = -3 sits on the zeta pole.
    """
    if p <= -4.0:
        raise DivergenceError(f"moment diverges for p <= -4 (got p={p})")
    if p == -3.0:
        raise DivergenceError("moment has a pole at p = -3")
    return float(_planck_sums(p, np.array([OMEGA_CUT_DEFAULT]), OMEGA_CUT_DEFAULT)[0])


@dataclass(frozen=True)
class AlphaModel:
    """Scattering exponent alpha with its derived moments: plain data.

    The collision frequency scales as w^alpha; l0(alpha), l0(-alpha) and
    l0(2 alpha) are the Planck-weight moments that normalise the transport
    equation, all three by moment_l0. l0_neg is None at alpha = 3 where the
    moment hits the zeta pole. omega_cut truncates the frequency integrals.
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


@lru_cache(maxsize=4)
def _knot_gauss(cut: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(knots, nodes, weights times w^4 E) of `_planck_sums`: the frequency
    knots from _LAURENT_RADIUS to cut, and a 16-point Gauss rule on each
    interval between them, one row per interval; built on first use."""
    knots = np.unique(np.maximum(frequency_knots(cut), _LAURENT_RADIUS))
    w, weights = quadrature.gauss_rule(16).map_to(knots[:-1, None], knots[1:, None])
    w2 = w * w
    weighted = w2 * w2 * einstein(w) * weights
    for a in (knots, w, weighted):
        a.setflags(write=False)
    return knots, w, weighted


def _planck_sums(p: float, cut: np.ndarray, omega_cut: float) -> np.ndarray:
    """int_0^c w^(p+4) E(w) dw for every cutoff 0 < c <= omega_cut, p > -4, p != -3.

    The Laurent series of E integrated term by term up to min(c,
    _LAURENT_RADIUS), then Gauss sums between the `frequency_knots` below c
    and from the last of them to c. Each value depends on its own c only: a
    cutoff on a knot adds a zero-width interval, so c = omega_cut gives
    moment_l0's bits.
    """
    knots, w, weighted = _knot_gauss(omega_cut)
    head = np.minimum(cut, _LAURENT_RADIUS)
    terms = [c / (p + 3 + 2 * k) for k, c in enumerate((1.0, -1.0 / 12.0, *_REG_COEFFS))]
    out = head ** (p + 3) * polyval(head * head, terms)
    body = np.flatnonzero(cut > _LAURENT_RADIUS)
    k = np.searchsorted(knots, cut[body], side="right") - 1
    # w^p w^4, not w^(p+4): a rounded p + 4 would cost its error times ln w;
    # row by row: a matrix-vector product rounds differently with the row count
    below = np.concatenate([[0.0], np.cumsum((w ** p * weighted).sum(axis=1))])
    wc, weights = quadrature.gauss_rule(16).map_to(knots[k, None], cut[body, None])
    wc2 = wc * wc
    out[body] += below[k] + (wc ** p * (wc2 * wc2 * einstein(wc)) * weights).sum(axis=1)
    return out


def xi_alpha(model: AlphaModel, mu):
    """Truncated moment int_0^c w^(2 alpha + 4) E(w) dw, c = min(mu^(-1/alpha), cut).

    The cutoff collects exactly the frequencies whose stretched slit
    (-w^-alpha, w^-alpha) still contains mu, i.e. w^alpha * mu < 1. At
    alpha = 0 the slit is (-1, 1) for every frequency, so the moment is full
    inside it and zero outside. For alpha > 0 it is `_planck_sums` at each
    cutoff, moment_l0's sum, so a full cutoff gives l0(2 alpha) to the bit.
    Each value depends on its own mu only.
    """
    arr = np.asarray(mu, dtype=float)
    if np.any(arr <= 0):
        raise DomainError(f"xi_alpha requires mu > 0, got {mu}")
    if model.alpha == 0.0:
        out = np.where(arr < 1.0, model.l0_2alpha, 0.0)
        return out if arr.ndim else float(out)
    log_cut = -np.log(np.atleast_1d(arr)) / model.alpha
    full = log_cut >= math.log(model.omega_cut)
    cut = np.where(full, model.omega_cut, np.exp(np.where(full, 0.0, log_cut)))
    out = _planck_sums(2 * model.alpha, cut, model.omega_cut)
    return out if arr.ndim else float(out[0])
