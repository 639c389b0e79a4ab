"""Reusable numerical integration, and adaptive Chebyshev panels.

Fixed Gauss-Legendre rules, also as pairs on every interval of a set of
knots (`knot_rule`: the 16-point rule and the 8-point one for the error
estimate; `knot_pv_sums`: regularised principal values on them; `KnotPv`:
the Cauchy integral on the cut of lam+, Vp and the field, the pair again
on bisected knots for the rows it cannot settle; `power_tail`: the Cauchy
integral of a power-law tail, for Vp and the field, a Taylor head and the
pair on knots geometric in u), one deterministic globally-adaptive
algorithm run in lockstep over many rows (`integrate_rows`: one integrand
call per step for all rows; `integrate_with_error` and `integrate` are its
one-row call; of the commands only `validate` reaches it), and Cauchy
principal values by singularity subtraction, one row (`pv_integral`) or
many (`pv_rows`):

    P int f(t)/(t-c) dt = int (f(t)-f(c))/(t-c) dt + f(c) ln((b-c)/(c-a))

Integrands are called with ndarray arguments and must evaluate elementwise.
All refinement decisions depend only on the integrand values of their own
row, so results are bit-reproducible for a given tolerance, whatever rows
share a batch. `ChebPanels` is a piecewise Chebyshev series in ln x,
fitted by bisection to a batched function (the theta table of lam+) or
through one on given panels (the field's continuum coefficient).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import chebyshev

from .errors import (AccuracyError, ConfigurationError, ConsistencyError, DomainError,
                     ResolutionError)

__all__ = [
    "QuadratureRule",
    "PvIntegrand",
    "gauss_rule",
    "knot_rule",
    "knot_pv_sums",
    "KnotPv",
    "ChebPanels",
    "power_tail",
    "integrate",
    "integrate_with_error",
    "integrate_rows",
    "pv_rows",
    "pv_integral",
]

_MAX_ORDER = 10000
DEFAULT_ORDER = 64
DEFAULT_MAX_DEPTH = 12
# Gauss-Legendre orders of `knot_rule` on each knot interval: the rule, and
# the lower-order rule whose difference from it is the error estimate
KNOT_ORDERS = (16, 8)
# entries of one (rows, nodes) block of `knot_pv_sums`, 0.6 MB in its two
# work arrays: 22-66 rows on the first passes of Vp, lam+ and the field
# (600-1752 nodes), where 4 rows a numpy call were overhead-bound
_PV_WORK = 40000
# `KnotPv` and the field take e^(-x/t) as 0 beyond this argument (a term
# below 1e-304 beside O(1) values); `KnotPv` flushes damped values below
# _TINY, so no subnormal reaches the sums
EXP_CUT = 700.0
_TINY = np.finfo(float).tiny
# `ChebPanels`: Chebyshev-Lobatto points per panel
_PANEL_POINTS = 24
# `power_tail`: Taylor terms of its head on [0, eps], where |z| eps and x eps
# are at most _HEAD_REACH, so the first term left out is below 1e-20 of the sum
_HEAD_TERMS = 16
_HEAD_REACH = 0.05


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


def knot_rule(knots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the KNOT_ORDERS Gauss-Legendre pair on every interval of `knots`.

    Flat arrays laid out as (order, node, interval): the nodes of the
    16-point rule on every interval, then those of the 8-point one;
    `knot_pv_sums` sums a principal value in this layout.
    """
    mid, half = 0.5 * (knots[1:] + knots[:-1]), 0.5 * (knots[1:] - knots[:-1])
    rules = [gauss_rule(n) for n in KNOT_ORDERS]
    nodes = np.concatenate([mid + half * t for r in rules for t in r.nodes])
    weights = np.concatenate([half * w for r in rules for w in r.weights])
    return nodes, weights


def knot_pv_sums(f: np.ndarray, f_c: np.ndarray, c: np.ndarray, nodes: np.ndarray,
                 weights: np.ndarray,
                 slope: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(value, error estimate) of sum w (f(t) - f_c)/(t - c) for every row (f_c, c).

    f holds the function at `knot_rule`'s nodes, one table for all rows. The
    value is the high-order sum, the estimate the sum over intervals of
    |high - low|, as QUADPACK pairs its rules (Piessens et al., 1983). A node
    of either rule on a pole makes the row's estimate non-finite: with
    `slope` (f'(c), one per row) the row is summed again with f'(c) as the
    quotient there; where that is NaN or not given, the estimate is NaN, so
    `KnotPv` hands the row to its fine pass. The rows go through one work
    array in blocks of _PV_WORK entries, at least one row (fresh
    megabyte-sized arrays would cost a page fault per page); each row is
    reduced on its own, so its numbers do not depend on the batch.
    """
    high_order, low_order = KNOT_ORDERS
    block = max(1, _PV_WORK // len(nodes))
    value, err = np.empty(c.shape), np.empty(c.shape)
    work = np.empty((2, min(len(c), block), len(nodes)))
    with np.errstate(divide="ignore", invalid="ignore"):  # a node on a pole
        for s in range(0, len(c), block):
            rows = slice(s, s + block)
            n = len(c[rows])
            q, d = work[0, :n], work[1, :n]
            np.subtract(f, f_c[rows, None], out=q)
            np.subtract(nodes, c[rows, None], out=d)
            q /= d
            q *= weights
            by_order = q.reshape(n, high_order + low_order, -1)
            high = by_order[:, :high_order].sum(axis=1)
            low = by_order[:, high_order:].sum(axis=1)
            value[rows], err[rows] = high.sum(axis=1), np.abs(high - low).sum(axis=1)
            for j in np.flatnonzero(~np.isfinite(err[rows])) if slope is not None else ():
                on = d[j] == 0.0  # a node of either rule
                q[j, on] = slope[s + j] * weights[on]
                high_j = by_order[j, :high_order].sum(axis=0)
                low_j = by_order[j, high_order:].sum(axis=0)
                value[s + j], err[s + j] = high_j.sum(), np.abs(high_j - low_j).sum()
    err[~np.isfinite(value)] = np.nan
    return value, err


class KnotPv:
    """Principal values on fixed knots: `knot_rule`'s pair with the integrand at its nodes.

    `at(nodes)` maps the rule's nodes to (t, f): the pole variable and the
    integrand there, one table for all rows. The fine pass, for the rows the
    first misses, runs the pair on the knots with [knots[0], knots[1]] graded
    at knots[1] 10^-k, k = 1..8 (knots[0] is 0 there), every interval then
    bisected; it is built only when a row misses the first.
    """

    def __init__(self, knots: np.ndarray, at: Callable):
        self._knots, self._at, self._pairs = knots, at, {}

    def pair(self, fine: bool) -> tuple:
        """(t, f, weights) of the first pass, or with `fine` of the fine one."""
        if fine not in self._pairs:
            k = self._knots
            if fine:
                k = np.concatenate([k[:1], k[1] * 10.0 ** np.arange(-8, 0), k[1:]])
                k = np.append(np.column_stack([k[:-1], 0.5 * (k[:-1] + k[1:])]), k[-1])
            nodes, weights = knot_rule(k)
            self._pairs[fine] = (*self._at(nodes), weights)
        return self._pairs[fine]

    def sums(self, f_c, c, scale, label: Callable, x=0.0, slope=None) -> np.ndarray:
        """sum w (f(t) e^(-x/t) - f_c)/(t - c) for every row (f_c, c, x).

        The first pass's sums, and the fine pass's for the rows it misses. A
        row is settled when its estimate is at most 1e-9 max(|value|,
        scale), scale one number or one per row; a row the fine pass leaves
        unsettled raises AccuracyError, its message starting with label(row).
        `slope`, the integrand's derivative at each row's pole, serves a node
        on that pole (`knot_pv_sums`); without it such a row goes to the fine
        pass, whose nodes next to a slit edge round onto poles too.
        """
        scale, x = np.broadcast_to(scale, c.shape), np.broadcast_to(x, c.shape)
        slope = np.broadcast_to(np.nan if slope is None else slope, c.shape)

        def missed(rows, value, err):
            return rows[~(err <= 1e-9 * np.maximum(np.abs(value), scale[rows]))]  # NaN too

        value, err = self._pass(False, f_c, c, x, slope)
        redo = missed(np.arange(len(c)), value, err)
        if len(redo):
            value[redo], err[redo] = self._pass(True, f_c[redo], c[redo], x[redo], slope[redo])
            bad = missed(redo, value[redo], err[redo])
            if len(bad):
                i = bad[0]
                raise AccuracyError(f"{label(i)}: the fine rule misses its tolerance, "
                                    f"error {err[i]:.3e}", best=float(value[i]), bound=float(err[i]))
        return value

    def _pass(self, fine, f_c, c, x, slope):
        """(value, error estimate) of the rows by one pass: one `knot_pv_sums`
        call per distinct x, on f e^(-x/t) for x > 0 and on f itself for x = 0.
        """
        t, f, weights = self.pair(fine)
        value, err = np.empty(c.shape), np.empty(c.shape)
        damped = np.empty(t.shape)
        order = np.argsort(x, kind="stable")
        xs, counts = np.unique(x[order], return_counts=True)
        for x0, rows in zip(xs.tolist(), np.split(order, np.cumsum(counts)[:-1])):
            g = f
            if x0 != 0.0:
                # arguments past the cut are zeroed before exp, which is slow on
                # results that underflow or go subnormal; so are products below
                # the smallest normal
                g = damped
                np.divide(x0, t, out=g)
                gone = g > EXP_CUT
                g[gone] = 0.0
                np.exp(np.negative(g, out=g), out=g)
                g[gone] = 0.0
                g *= f
                g[(g < _TINY) & (g > -_TINY)] = 0.0
            value[rows], err[rows] = knot_pv_sums(g, f_c[rows], c[rows], t, weights, slope[rows])
        return value, err


@lru_cache(maxsize=1)
def _lobatto() -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev-Lobatto points on [-1, 1], ascending, and the matrix that
    maps values there to Chebyshev coefficients."""
    x = -np.cos(np.pi * np.arange(_PANEL_POINTS) / (_PANEL_POINTS - 1))
    to_coeffs = np.linalg.inv(chebyshev.chebvander(x, _PANEL_POINTS - 1))
    x.setflags(write=False)
    to_coeffs.setflags(write=False)
    return x, to_coeffs


def _panel_points(lo: float, hi: float) -> np.ndarray:
    """The Chebyshev-Lobatto points of the panel [lo, hi] in s = ln x, ends exact."""
    x, _ = _lobatto()
    a, b = math.log(lo), math.log(hi)
    return np.concatenate([[lo], np.exp(0.5 * (a + b) + 0.5 * (b - a) * x[1:-1]), [hi]])


@dataclass(frozen=True)
class ChebPanels:
    """A piecewise Chebyshev series in s = ln x: `coeffs[i]` on [breaks[i], breaks[i+1]].

    `fit` builds one by adaptive bisection (Battles & Trefethen, SISC 25,
    2004), `through` on given breaks; `value` and `slope` evaluate it on
    [breaks[0], breaks[-1]].
    """

    breaks: np.ndarray
    coeffs: np.ndarray

    def value(self, x: np.ndarray) -> np.ndarray:
        """The series at breaks[0] <= x <= breaks[-1], x of any shape."""
        i, t, _ = self._locate(x)
        return chebyshev.chebval(t, np.moveaxis(self.coeffs[i], -1, 0), tensor=False)

    def slope(self, x: np.ndarray) -> np.ndarray:
        """d/dx of the series at breaks[0] <= x <= breaks[-1], x of any shape."""
        i, t, half = self._locate(x)
        return chebyshev.chebval(t, np.moveaxis(self._dcoeffs[i], -1, 0),
                                 tensor=False) / (half * x)

    def _locate(self, x):
        """(panel, Chebyshev variable in [-1, 1], half-width in s) of every x."""
        sb = np.log(self.breaks)
        s = np.log(x)
        i = np.clip(np.searchsorted(sb, s, side="right") - 1, 0, len(self.coeffs) - 1)
        half = 0.5 * (sb[i + 1] - sb[i])
        return i, (s - sb[i]) / half - 1.0, half

    @cached_property
    def _dcoeffs(self) -> np.ndarray:
        return chebyshev.chebder(self.coeffs, axis=1)

    @classmethod
    def through(cls, breaks: np.ndarray, f: Callable) -> ChebPanels:
        """The panels on `breaks` through f at their Chebyshev-Lobatto points,
        from one call of f on the distinct points, x > 0."""
        points = np.array([_panel_points(lo, hi) for lo, hi in zip(breaks[:-1], breaks[1:])])
        distinct, where = np.unique(points, return_inverse=True)
        values = f(distinct)[where].reshape(points.shape)
        return cls(breaks=breaks, coeffs=values @ _lobatto()[1].T)

    @classmethod
    def fit(cls, f: Callable, breaks, tol: float,
            max_passes: int) -> tuple[ChebPanels, np.ndarray, np.ndarray]:
        """(panels, nodes, f at the nodes) of f on the first panels `breaks`, x > 0.

        Every pass sends the Chebyshev-Lobatto points of all open panels that
        are not yet computed through one call of f, which maps an array of x
        to an array of values. A panel is kept once its last three Chebyshev
        coefficients are all at most tol/10 (the interpolant's error
        estimate) and bisected in s otherwise; a panel still open after
        max_passes passes is a ResolutionError. The nodes are the kept
        panels' points, ascending, with f's own values there.
        """
        _, to_coeffs = _lobatto()
        breaks = np.unique(np.asarray(breaks, dtype=float))
        if len(breaks) < 2 or breaks[0] <= 0.0:
            raise ConsistencyError("Chebyshev panels need at least two positive breaks")
        value_of: dict[float, float] = {}
        todo = list(zip(breaks[:-1], breaks[1:]))
        done = []
        for _ in range(max_passes):
            nodes = [_panel_points(lo, hi) for lo, hi in todo]
            new = [m for m in dict.fromkeys(np.concatenate(nodes).tolist()) if m not in value_of]
            value_of.update(zip(new, f(np.array(new)).tolist()))
            coeffs = np.array([[value_of[m] for m in row] for row in nodes]) @ to_coeffs.T
            fine = np.abs(coeffs[:, -3:]).max(axis=1) <= 0.1 * tol
            split = []
            for (lo, hi), row, c, ok in zip(todo, nodes, coeffs, fine):
                if ok:
                    done.append((lo, hi, c, row))
                else:
                    mid = math.exp(0.5 * (math.log(lo) + math.log(hi)))
                    split += [(lo, mid), (mid, hi)]
            todo = split
            if not todo:
                break
        else:
            raise ResolutionError(
                f"{len(todo)} Chebyshev panels still miss {tol:g} after {max_passes} passes")
        done.sort(key=lambda panel: panel[0])
        nodes = sorted({m for *_, row in done for m in row.tolist()})
        panels = cls(breaks=np.array([lo for lo, *_ in done] + [done[-1][1]]),
                     coeffs=np.array([c for _, _, c, _ in done]))
        return panels, np.array(nodes), np.array([value_of[m] for m in nodes])


def power_tail(q: float, end: float, z, tol: float, x=0.0) -> np.ndarray:
    """int_0^(1/end) u^(-q-1) e^(-x u)/(1 - z u) du for every row (z, x), q < 0.

    A power-law tail c t^q beyond t = end against e^(-x/t)/(t - z), in u =
    1/t; z is real and not on [end, inf). One fixed rule for every q, with a
    = -q - 1 > -1. On [0, eps], eps = min(1/end, 0.05/max(|z|, x)), the
    Taylor series sum c_n u^n of e^(-x u)/(1 - z u), c_0 = 1 and c_n = z
    c_(n-1) + (-x)^n/n!, is integrated against u^a term by term
    (_HEAD_TERMS terms). From eps to 1/end `knot_rule`'s pair runs on
    knots geometric in u, at most a factor 2 apart, the error the sum over
    intervals of |16 - 8|. A pole u = 1/z next to the end (|z - end| <
    end/2) is subtracted there: the numerator u^a e^(-x u) less its value C
    = z^-a e^(-x/z) at the pole goes through the rule, and int C/(1 - z u)
    du over [eps, 1/end] is added in closed form, as `knot_pv_sums`
    regularises a principal value. A row whose error exceeds tol
    max(|value|, |C ln(1 - z/end)/z|) raises AccuracyError.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    x = np.broadcast_to(x, z.shape)
    a, top = -q - 1.0, 1.0 / end
    eps = _HEAD_REACH / np.maximum(np.maximum(np.abs(z), x), _HEAD_REACH * end)
    power = eps ** (a + 1.0)
    head, c_n, x_n = power / (a + 1.0), np.ones(z.shape), np.ones(z.shape)
    for n in range(1, _HEAD_TERMS):
        x_n = x_n * -x / n
        c_n = z * c_n + x_n
        power = power * eps
        head += c_n * power / (a + n + 1.0)

    near = np.abs(z - end) < 0.5 * end
    zn = np.where(near, z, 0.5 * end)  # C = 0 on the other rows
    c = np.where(near, zn ** -a * np.exp(-x / zn), 0.0)
    k = max(1, math.ceil(math.log2(top / eps.min(initial=top))))
    knots = eps[:, None] * (top / eps[:, None]) ** (np.arange(k + 1) / k)
    nodes, weights = knot_rule(np.array([0.0, 1.0]))
    high = KNOT_ORDERS[0]
    width = np.diff(knots, axis=1)[:, :, None]
    u = knots[:, :-1, None] + width * nodes  # (row, interval, node)
    f = (u ** a * np.exp(-x[:, None, None] * u) - c[:, None, None]) / (1.0 - z[:, None, None] * u)
    terms = f * (width * weights)
    by_high, by_low = terms[:, :, :high].sum(axis=2), terms[:, :, high:].sum(axis=2)
    log_end = np.log((end - zn) / end)
    value = head + by_high.sum(axis=1) - c * (log_end - np.log1p(-zn * eps)) / zn
    err = np.abs(by_high - by_low).sum(axis=1)
    bad = np.flatnonzero(~(err <= tol * np.maximum(np.abs(value), np.abs(c * log_end / zn))))
    if len(bad):
        i = bad[0]
        raise AccuracyError(f"power-law tail at z={float(z[i])!r}, x={float(x[i])!r}: error "
                            f"{err[i]:.3e}", best=float(value[i]), bound=float(err[i]))
    return value


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


def integrate_rows(f: Callable, a, b, tol: float = 1e-10, *, params=(), points=None,
                   max_depth: int = DEFAULT_MAX_DEPTH,
                   scale=None) -> tuple[np.ndarray, np.ndarray]:
    """(integrals, summed error estimates) of f(x, *p[i]) over (a[i], b[i]) for every row i.

    The globally adaptive Gauss scheme (QUADPACK's QAG strategy) on the
    64-point rule, run on all rows in lockstep. Each parameter reaches f as a
    column, one entry per row of x. `points` of shape (n,) or (n, k) pre-split
    the rows (known kinks or singular locations); entries that are NaN or
    outside (a[i], b[i]) are ignored, and they may come unsorted or repeated.
    The first panels of all rows are one call of f; rows that pass the
    stopping test there are done. Each further step pops the worst panel of
    every unconverged row, bisects it and evaluates all children in one call
    of f. Every row keeps its own heap, stopping test err <= tol * max(|value|,
    scale) (scale may be one number per row), bisection order, max_depth and
    AccuracyError (carrying the row's best estimate and error bound), so a
    row's value does not depend on the other rows.
    """
    if tol <= 0:
        raise ConfigurationError("tolerance must be positive")
    rule = gauss_rule(DEFAULT_ORDER)
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


def integrate_with_error(
    f: Callable,
    a: float,
    b: float,
    tol: float = 1e-10,
    *,
    max_depth: int = DEFAULT_MAX_DEPTH,
    points: Sequence[float] = (),
) -> tuple[float | complex, float]:
    """Globally adaptive Gauss quadrature of f on (a, b): one row of integrate_rows.

    Returns (value, error_bound). f sees the nodes as a 1-D array. The
    interval is pre-split at `points`; the worst panel is bisected until the
    summed error estimate drops below tol * |value|. Raises
    AccuracyError (carrying the best estimate) if a panel would need to go
    beyond max_depth levels of bisection.
    """
    value, error = integrate_rows(lambda x: np.asarray(f(x.ravel())).reshape(x.shape),
                                  [a], [b], tol, points=[points] if len(points) else None,
                                  max_depth=max_depth)
    return value[0], error[0]


def integrate(
    f: Callable,
    a: float,
    b: float,
    tol: float = 1e-10,
    *,
    max_depth: int = DEFAULT_MAX_DEPTH,
    points: Sequence[float] = (),
):
    """Adaptive integral of f over (a, b); see integrate_with_error."""
    value, _ = integrate_with_error(f, a, b, tol, max_depth=max_depth, points=points)
    return value


def pv_rows(f: Callable, poles, a, b, tol: float = 1e-10, *, slopes=None,
            max_depth: int = 16) -> np.ndarray:
    """Principal values P int f(t) / (t - c[i]) dt over (a[i], b[i]) for every pole c[i].

    The subtraction above, row by row: the regularised integrand
    (f(t) - f(c)) / (t - c), split at its own pole, goes through
    integrate_rows for all rows at once, and f(c) ln((b - c)/(c - a)) is
    added. f is one function for every pole; it must be continuous
    (Hoelder) at each pole and evaluate elementwise.
    `slopes` gives f'(c) for nodes that fall on a pole; without it a central
    difference supplies it. In the package only pv_integral calls it; the
    tests take it as the adaptive reference for the fixed rules of the
    continuum and of Vp.
    """
    c = np.asarray(poles, dtype=float)
    a = np.broadcast_to(np.asarray(a, dtype=float), c.shape)
    b = np.broadcast_to(np.asarray(b, dtype=float), c.shape)
    if not np.all((a < c) & (c < b)):
        i = int(np.flatnonzero(~((a < c) & (c < b)))[0])
        raise DomainError(f"pole {c[i]} must lie strictly inside ({a[i]}, {b[i]})")
    if slopes is None:
        h = np.minimum(np.minimum(1e-6 * (b - a), 0.5 * (c - a)), 0.5 * (b - c))
        near = np.asarray(f(np.stack([c, c + h, c - h], axis=1)), dtype=float)
        fc, dfc = near[:, 0], (near[:, 1] - near[:, 2]) / (2 * h)
    else:
        fc = np.asarray(f(c[:, None]), dtype=float)[:, 0]
        dfc = np.broadcast_to(np.asarray(slopes, dtype=float), c.shape)

    def reg(t, c, fc, dfc):
        d = t - c
        out = (np.asarray(f(t), dtype=float) - fc) / np.where(d == 0.0, 1.0, d)
        return np.where(d == 0.0, dfc, out)

    # scale keeps the relative-tolerance test sane when a PV happens to be ~0
    span = np.maximum(np.maximum(np.abs(fc), np.abs(dfc) * (b - a)), 1e-30)
    val, _ = integrate_rows(reg, a, b, tol, params=(c, fc, dfc), points=c,
                            max_depth=max_depth, scale=span)
    return val + fc * np.log((b - c) / (c - a))


def pv_integral(p: PvIntegrand, tol: float = 1e-10) -> float:
    """Cauchy principal value of int f(t)/(t - pole) dt over p.interval.

    The one-row call of pv_rows; p.fprime, if given, supplies the slope.
    Nothing in the package calls it; it stays because bench/spans.py wraps
    it by name and the tests check the subtraction formula through it.
    """
    slopes = None if p.fprime is None else [p.fprime(p.pole)]
    a, b = p.interval
    return float(pv_rows(p.f, [p.pole], a, b, tol, slopes=slopes)[0])
