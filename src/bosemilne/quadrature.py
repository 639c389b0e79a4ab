"""Reusable numerical integration.

Fixed Gauss-Legendre rules, a deterministic globally-adaptive integrator, its
batched first step for many intervals at once, and Cauchy principal-value
integrals by singularity subtraction:

    P int f(t)/(t-c) dt = int (f(t)-f(c))/(t-c) dt + f(c) ln((b-c)/(c-a))

Integrands are called with ndarray arguments and must evaluate elementwise.
All refinement decisions depend only on the integrand values, so results are
bit-reproducible for a given rule order and tolerance.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError, ConfigurationError, DomainError

__all__ = [
    "QuadratureRule",
    "QuadConfig",
    "PvIntegrand",
    "gauss_rule",
    "integrate",
    "integrate_with_error",
    "first_panel",
    "integrate_rows",
    "pv_integral",
]

_MAX_ORDER = 10000


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on (-1, 1)."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def map_to(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Affinely map the rule to the interval (a, b)."""
        half = 0.5 * (b - a)
        return 0.5 * (a + b) + half * self.nodes, half * self.weights

    def apply(self, f: Callable, a: float, b: float):
        x, w = self.map_to(a, b)
        return w @ np.asarray(f(x))


@dataclass(frozen=True)
class QuadConfig:
    """Default quadrature settings threaded through the model objects."""

    base_order: int = 64
    max_depth: int = 12


@dataclass(frozen=True)
class PvIntegrand:
    """A function with a simple-pole kernel 1/(t - pole) on (a, b), a < pole < b.

    `f` must be continuous at the pole; `fprime` (optional) supplies f'(pole)
    for evaluations falling numerically on top of the pole.
    """

    f: Callable
    pole: float
    interval: tuple[float, float]
    fprime: Callable | None = field(default=None)

    def __post_init__(self):
        a, b = self.interval
        if not (a < self.pole < b):
            raise DomainError(
                f"pole {self.pole} must lie strictly inside ({a}, {b})"
            )


@lru_cache(maxsize=64)
def gauss_rule(n: int) -> QuadratureRule:
    """Gauss-Legendre rule of the given order, cached.

    Order n integrates polynomials of degree 2n-1 exactly; weights sum to 2.
    """
    if not isinstance(n, int) or not (1 <= n <= _MAX_ORDER):
        raise ConfigurationError(f"rule order must be an integer in [1, {_MAX_ORDER}], got {n!r}")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights, order=n)


def _panel(f, a, b, rule, whole=None):
    """Rule estimate on (a, b) and on its two halves; error = their difference.

    `whole` skips re-evaluating the coarse estimate when the caller already
    holds it (every split inherits it from the parent panel).
    """
    m = 0.5 * (a + b)
    if whole is None:
        whole = rule.apply(f, a, b)
    left = rule.apply(f, a, m)
    right = rule.apply(f, m, b)
    fine = left + right
    return m, left, right, fine, abs(fine - whole)


def _converged(err, total, tol, scale):
    """The stopping test err <= tol * max(|total|, scale, 1e-300).

    Elementwise for arrays (first_panel); plain floats keep the adaptive loop
    free of numpy call overhead.
    """
    if isinstance(total, np.ndarray):
        floor = np.abs(total) if scale is None else np.maximum(np.abs(total), scale)
        return err <= tol * np.maximum(floor, 1e-300)
    floor = abs(total) if scale is None else max(abs(total), scale)
    return err <= tol * max(floor, 1e-300)


def integrate_with_error(
    f: Callable,
    a: float,
    b: float,
    tol: float = 1e-10,
    *,
    rule: QuadratureRule | None = None,
    max_depth: int = 12,
    points: Sequence[float] = (),
    scale: float | None = None,
) -> tuple[float | complex, float]:
    """Globally adaptive Gauss quadrature of f on (a, b).

    Returns (value, error_bound). The interval is pre-split at `points`
    (known kinks or singular locations); the worst panel is bisected until
    the summed error estimate drops below tol * max(|value|, scale). Raises
    AccuracyError (carrying the best estimate) if a panel would need to go
    beyond max_depth levels of bisection.
    """
    if not (a < b):
        raise DomainError(f"need a < b, got ({a}, {b})")
    if tol <= 0:
        raise ConfigurationError("tolerance must be positive")
    rule = rule or gauss_rule(64)

    cuts = [a] + sorted(p for p in points if a < p < b) + [b]
    heap = []
    counter = 0
    total = 0.0
    err_total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        m, left, right, fine, err = _panel(f, lo, hi, rule)
        heapq.heappush(heap, (-err, counter, lo, hi, m, left, right, 0))
        counter += 1
        total = total + fine
        err_total += err

    while not _converged(err_total, total, tol, scale):
        neg_err, _, lo, hi, m, left, right, depth = heapq.heappop(heap)
        if depth >= max_depth:
            raise AccuracyError(
                f"adaptive quadrature stalled at depth {depth} on "
                f"[{lo:.6g}, {hi:.6g}]; estimated error {err_total:.3e}",
                best=total,
                bound=err_total,
            )
        total -= left + right
        err_total += neg_err  # remove this panel's error
        for lo2, hi2, coarse in ((lo, m, left), (m, hi, right)):
            m2, l2, r2, fine2, err2 = _panel(f, lo2, hi2, rule, whole=coarse)
            heapq.heappush(heap, (-err2, counter, lo2, hi2, m2, l2, r2, depth + 1))
            counter += 1
            total = total + fine2
            err_total += err2

    return total, err_total


def first_panel(f: Callable, a, b, tol: float = 1e-10, *,
                rule: QuadratureRule | None = None,
                scale: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The first panel of integrate_with_error on many intervals in one call.

    Row i applies the rule to (a[i], b[i]) and to its two halves. f is called
    once, with an (n, 3 * order) array of nodes (whole, left and right half of
    each row), and must evaluate elementwise. Returns (value, ok): the
    two-half estimate of each row, and whether it passes the stopping test of
    integrate_with_error (a row with a >= b never passes). A row's value
    depends on that row alone, not on how many rows share the call.
    """
    rule = rule or gauss_rule(64)
    a = np.asarray(a, dtype=float)[:, None]
    b = np.asarray(b, dtype=float)[:, None]
    m = 0.5 * (a + b)
    spans = (rule.map_to(a, b), rule.map_to(a, m), rule.map_to(m, b))
    vals = np.asarray(f(np.concatenate([x for x, _ in spans], axis=1)))
    k = rule.order
    whole, left, right = ((w * vals[:, i * k:(i + 1) * k]).sum(axis=1)
                          for i, (_, w) in enumerate(spans))
    fine = left + right
    ok = (a[:, 0] < b[:, 0]) & _converged(np.abs(fine - whole), fine, tol, scale)
    return fine, ok


def integrate_rows(f: Callable, a, b, tol: float = 1e-10, *, params=(),
                   rule: QuadratureRule | None = None, max_depth: int = 12,
                   scale: float | None = None) -> np.ndarray:
    """Integrals of f(x, *p[i]) over (a[i], b[i]) for every row i.

    All rows get first_panel in one call, each parameter passed as an (n, 1)
    column. A row whose panel fails the test is redone by integrate with its
    own scalar parameters, so it keeps that path's accuracy and its
    AccuracyError; the result of a row does not depend on the other rows.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    params = [np.asarray(p, dtype=float) for p in params]
    cols = [p[:, None] for p in params]
    vals, ok = first_panel(lambda x: f(x, *cols), a, b, tol, rule=rule, scale=scale)
    for i in np.flatnonzero(~ok):
        row = [p[i] for p in params]
        vals[i] = integrate(lambda x: f(x, *row), a[i], b[i], tol, rule=rule,
                            max_depth=max_depth, scale=scale)
    return vals


def integrate(
    f: Callable,
    a: float,
    b: float,
    tol: float = 1e-10,
    *,
    rule: QuadratureRule | None = None,
    max_depth: int = 12,
    points: Sequence[float] = (),
    scale: float | None = None,
):
    """Adaptive integral of f over (a, b); see integrate_with_error."""
    value, _ = integrate_with_error(
        f, a, b, tol, rule=rule, max_depth=max_depth, points=points, scale=scale
    )
    return value


def pv_integral(p: PvIntegrand, tol: float = 1e-10, *, rule: QuadratureRule | None = None,
                max_depth: int = 16) -> float:
    """Cauchy principal value of int f(t)/(t - pole) dt over p.interval.

    Subtraction method: the regularised integrand (f(t)-f(pole))/(t-pole) is
    integrated adaptively and the extracted pole contributes the closed-form
    logarithm. Requires f continuous (Hoelder) at the pole.
    """
    a, b = p.interval
    c = p.pole
    fc = float(np.asarray(p.f(np.asarray([c])))[0])

    if p.fprime is not None:
        dfc = p.fprime(c)
    else:
        h = 1e-6 * (b - a)
        h = min(h, 0.5 * (c - a), 0.5 * (b - c))
        dfc = (float(np.asarray(p.f(np.asarray([c + h])))[0])
               - float(np.asarray(p.f(np.asarray([c - h])))[0])) / (2 * h)

    def reg(t):
        t = np.asarray(t, dtype=float)
        d = t - c
        safe = np.where(d == 0.0, 1.0, d)
        out = (np.asarray(p.f(t), dtype=float) - fc) / safe
        return np.where(d == 0.0, dfc, out)

    # scale keeps the relative-tolerance loop sane when the PV happens to be ~0
    span = max(abs(fc), abs(dfc) * (b - a), 1e-30)
    val = integrate(reg, a, b, tol, rule=rule, max_depth=max_depth,
                    points=(c,), scale=span)
    return val + fc * math.log((b - c) / (c - a))
