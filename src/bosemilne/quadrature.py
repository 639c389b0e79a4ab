"""Reusable numerical integration.

Fixed Gauss-Legendre rules, one deterministic globally-adaptive algorithm
run in lockstep over many rows (`integrate_rows`: one integrand call per
step for all rows; `integrate_with_error` and `integrate` are its one-row
call), and Cauchy principal values by singularity subtraction, one row
(`pv_integral`) or many (`pv_rows`):

    P int f(t)/(t-c) dt = int (f(t)-f(c))/(t-c) dt + f(c) ln((b-c)/(c-a))

Integrands are called with ndarray arguments and must evaluate elementwise.
All refinement decisions depend only on the integrand values of their own
row, so results are bit-reproducible for a given rule order and tolerance,
whatever rows share a batch.
"""

from __future__ import annotations

import heapq
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
    "integrate_rows",
    "pv_rows",
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


def _converged(err, total, tol, scale):
    """The stopping test err <= tol * max(|total|, scale, 1e-300), row by row."""
    floor = np.abs(total) if scale is None else np.maximum(np.abs(total), scale)
    return err <= tol * np.maximum(floor, 1e-300)


def _panels(f, lo, hi, rule, whole=None):
    """Rule estimates on many intervals (lo, hi) and on their two halves, in one call of f.

    f gets an (n, 3 * order) array of nodes (whole interval, left and right
    half of each row), or (n, 2 * order) when the caller holds `whole`.
    Returns (m, left, right, fine, err) as arrays, err = |fine - whole|; each
    row's numbers depend on that row alone.
    """
    m = 0.5 * (lo + hi)
    ends = [(lo, m), (m, hi)] if whole is not None else [(lo, hi), (lo, m), (m, hi)]
    a = np.concatenate([p for p, _ in ends])  # span by span, each over all rows
    b = np.concatenate([q for _, q in ends])
    half = (0.5 * (b - a))[:, None]
    n, s, k = len(lo), len(ends), rule.order
    x = (0.5 * (a + b))[:, None] + half * rule.nodes
    vals = np.asarray(f(x.reshape(s, n, k).transpose(1, 0, 2).reshape(n, s * k)))
    w = (half * rule.weights).reshape(s, n, k)
    *coarse, left, right = (w * vals.reshape(n, s, k).transpose(1, 0, 2)).sum(axis=2)
    whole = coarse[0] if whole is None else whole
    fine = left + right
    return m, left, right, fine, np.abs(fine - whole)


def _adaptive_rows(f, a, b, tol, params, points, rule, max_depth, scale):
    """integrate_rows, returning each row's summed error estimate as well."""
    if tol <= 0:
        raise ConfigurationError("tolerance must be positive")
    rule = rule or gauss_rule(64)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(a)
    if not (a < b).all():
        i = int(np.flatnonzero(~(a < b))[0])
        raise DomainError(f"need a < b, got ({a[i]}, {b[i]})")
    params = [np.asarray(p) for p in params]

    # first panels: (a, b) cut at the row's points inside it, left to right
    lo, hi, owner = a, b, np.arange(n)
    if points is not None:
        pts = np.asarray(points, dtype=float)
        pts = pts[:, None] if pts.ndim == 1 else pts
        inside = (a[:, None] < pts) & (pts < b[:, None])
        pts = np.sort(np.where(inside, pts, b[:, None]), axis=1)
        edges = np.concatenate([a[:, None], pts, b[:, None]], axis=1)
        keep = edges[:, :-1] < edges[:, 1:]  # ignored and repeated points cut nothing
        owner = keep.nonzero()[0]
        lo, hi = edges[:, :-1][keep], edges[:, 1:][keep]
    cols = [p[owner, None] for p in params]
    m, left, right, fine, err = _panels(lambda x: f(x, *cols), lo, hi, rule)
    total, err_total = fine[:n], err[:n]
    if len(owner) > n:  # some row has several first panels: sum them in order
        total, err_total = np.zeros(n, fine.dtype), np.zeros(n)
        np.add.at(total, owner, fine)
        np.add.at(err_total, owner, err)
    todo = np.flatnonzero(~_converged(err_total, total, tol, scale)).tolist()
    if not todo:
        return total, err_total

    # a heap of panels for each unconverged row, worst error first; totals,
    # errors and stopping tests are vectors over those rows
    first = [[] for _ in range(n)]
    for j, i in enumerate(owner.tolist()):
        first[i].append(j)
    lo, hi, m, left, right, err = (v.tolist() for v in (lo, hi, m, left, right, err))
    heaps = []
    for i in todo:
        heaps.append([(-err[j], c, lo[j], hi[j], m[j], left[j], right[j], 0)
                      for c, j in enumerate(first[i])])
        heapq.heapify(heaps[-1])
    counts = [len(h) for h in heaps]
    rows = np.array(todo)
    totals, errs = total[rows], err_total[rows]
    scales = None if scale is None else np.broadcast_to(scale, (n,))[rows]
    live = np.arange(len(todo))
    while len(live):
        neg_err, _, plo, phi, pm, pl, pr, depth = zip(
            *[heapq.heappop(heaps[k]) for k in live.tolist()])
        if max(depth) >= max_depth:
            j = depth.index(max(depth))
            best, bound = totals[live[j]].item(), errs[live[j]].item()
            raise AccuracyError(
                f"adaptive quadrature stalled at depth {depth[j]} on "
                f"[{plo[j]:.6g}, {phi[j]:.6g}]; estimated error {bound:.3e}",
                best=best, bound=bound)
        t = totals[live] - (np.array(pl) + np.array(pr))
        e = errs[live] + np.array(neg_err)  # remove the popped panels' errors
        kid_lo, kid_hi = plo + pm, pm + phi  # the left children, then the right ones
        cols = [p[np.tile(rows[live], 2), None] for p in params]
        km, kl, kr, kf, ke = _panels(lambda x: f(x, *cols), np.array(kid_lo), np.array(kid_hi),
                                     rule, whole=np.array(pl + pr))
        n_live = len(live)
        t = t + kf[:n_live]
        t = t + kf[n_live:]
        e = e + ke[:n_live]
        e = e + ke[n_live:]
        totals[live], errs[live] = t, e
        ke, km, kl, kr = ke.tolist(), km.tolist(), kl.tolist(), kr.tolist()
        for j, (k, d) in enumerate(zip(live.tolist(), depth)):
            for c in (j, j + n_live):
                heapq.heappush(heaps[k], (-ke[c], counts[k], kid_lo[c], kid_hi[c], km[c],
                                          kl[c], kr[c], d + 1))
                counts[k] += 1
        ok = _converged(e, t, tol, None if scales is None else scales[live])
        live = live[~ok]
    total[rows], err_total[rows] = totals, errs
    return total, err_total


def integrate_rows(f: Callable, a, b, tol: float = 1e-10, *, params=(), points=None,
                   rule: QuadratureRule | None = None, max_depth: int = 12,
                   scale=None) -> np.ndarray:
    """Integrals of f(x, *p[i]) over (a[i], b[i]) for every row i.

    The globally adaptive Gauss scheme (QUADPACK's QAG strategy) run on all
    rows in lockstep. Each parameter reaches f as a column, one entry per row
    of x. `points` of shape (n,) or (n, k) pre-split the rows (known kinks or
    singular locations); entries that are NaN or outside (a[i], b[i]) are
    ignored, and they may come unsorted or repeated. The first panels of all
    rows are one call of f; rows that pass the stopping test there are done.
    Each further step pops the worst panel of every unconverged row, bisects
    it and evaluates all children in one call of f. Every row keeps its own
    heap, stopping test err <= tol * max(|value|, scale) (scale may be one
    number per row), bisection order, max_depth and AccuracyError (carrying
    the row's best estimate and error bound), so a row's value does not
    depend on the other rows.
    """
    return _adaptive_rows(f, a, b, tol, params, points, rule, max_depth, scale)[0]


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
    """Globally adaptive Gauss quadrature of f on (a, b): one row of integrate_rows.

    Returns (value, error_bound). f sees the nodes as a 1-D array. The
    interval is pre-split at `points`; the worst panel is bisected until the
    summed error estimate drops below tol * max(|value|, scale). Raises
    AccuracyError (carrying the best estimate) if a panel would need to go
    beyond max_depth levels of bisection.
    """
    value, error = _adaptive_rows(lambda x: np.asarray(f(x.ravel())).reshape(x.shape),
                                  [a], [b], tol, (), [points] if len(points) else None, rule,
                                  max_depth, scale)
    return value[0], error[0]


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


def pv_rows(f: Callable, poles, a, b, tol: float = 1e-10, *, params=(), slopes=None,
            rule: QuadratureRule | None = None, max_depth: int = 16) -> np.ndarray:
    """Principal values P int f(t, *p[i]) / (t - c[i]) dt over (a[i], b[i]) for every pole c[i].

    The subtraction above, row by row: the regularised integrand
    (f(t) - f(c)) / (t - c), split at its own pole, goes through
    integrate_rows for all rows at once, and f(c) ln((b - c)/(c - a)) is
    added. f must be continuous (Hoelder) at each pole and evaluate
    elementwise; its parameters reach it as columns, as in integrate_rows.
    `slopes` gives f'(c) for nodes that fall on a pole; without it a central
    difference supplies it.
    """
    c = np.asarray(poles, dtype=float)
    a = np.broadcast_to(np.asarray(a, dtype=float), c.shape)
    b = np.broadcast_to(np.asarray(b, dtype=float), c.shape)
    if not np.all((a < c) & (c < b)):
        i = int(np.flatnonzero(~((a < c) & (c < b)))[0])
        raise DomainError(f"pole {c[i]} must lie strictly inside ({a[i]}, {b[i]})")
    params = [np.asarray(p) for p in params]
    cols = [p[:, None] for p in params]
    if slopes is None:
        h = np.minimum(np.minimum(1e-6 * (b - a), 0.5 * (c - a)), 0.5 * (b - c))
        near = np.asarray(f(np.stack([c, c + h, c - h], axis=1), *cols), dtype=float)
        fc, dfc = near[:, 0], (near[:, 1] - near[:, 2]) / (2 * h)
    else:
        fc = np.asarray(f(c[:, None], *cols), dtype=float)[:, 0]
        dfc = np.broadcast_to(np.asarray(slopes, dtype=float), c.shape)

    def reg(t, c, fc, dfc, *p):
        d = t - c
        out = (np.asarray(f(t, *p), dtype=float) - fc) / np.where(d == 0.0, 1.0, d)
        return np.where(d == 0.0, dfc, out)

    # scale keeps the relative-tolerance test sane when a PV happens to be ~0
    span = np.maximum(np.maximum(np.abs(fc), np.abs(dfc) * (b - a)), 1e-30)
    val = integrate_rows(reg, a, b, tol, params=(c, fc, dfc, *params), points=c,
                         rule=rule, max_depth=max_depth, scale=span)
    return val + fc * np.log((b - c) / (c - a))


def pv_integral(p: PvIntegrand, tol: float = 1e-10, *, rule: QuadratureRule | None = None,
                max_depth: int = 16) -> float:
    """Cauchy principal value of int f(t)/(t - pole) dt over p.interval.

    The one-row call of pv_rows; p.fprime, if given, supplies the slope.
    Nothing in the package calls it; it stays because bench/spans.py wraps
    it by name and the tests check the subtraction formula through it.
    """
    slopes = None if p.fprime is None else [p.fprime(p.pole)]
    a, b = p.interval
    return float(pv_rows(p.f, [p.pole], a, b, tol, slopes=slopes, rule=rule,
                         max_depth=max_depth)[0])
