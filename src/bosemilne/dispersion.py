"""Dispersion function of the half-space problem and its boundary data.

The classical one-speed dispersion function

    lam_C(z) = 1 + (z/2) ln((z-1)/(z+1)),   cut on [-1, 1],

is averaged over the Planck frequency weight, with the argument stretched by
the power-law collision rate:

    lam(z) = (1/l0) int_0^inf w^(a+4) E(w) lam_C(w^a z) dw.

The weight exponent a+4 (not 2a+4) is forced by self-consistency of the
characteristic equation: only this normalisation gives lam(0) = 1 and reduces
lam to lam_C at a = 0. For a > 0 the union of the stretched slits covers the
whole real axis, so the boundary values carry an imaginary part

    Im lam+(mu) = pi mu xi_a(mu) / (2 l0)      for every mu > 0,

where xi_a is the truncated moment from `special`. The continuous argument
theta(mu) = arg lam+(mu) runs from 0 to pi; its table drives the
Riemann-Hilbert factorisation downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev

from . import quadrature, special
from .errors import ConsistencyError, DivergenceError, DomainError, ResolutionError
from .special import AlphaModel
from .util import ordered_map

__all__ = [
    "DispersionSample",
    "DispersionTable",
    "lambda_case",
    "lambda_case_pv",
    "lambda_case_boundary",
    "lambda_general",
    "lambda_boundary",
    "lambda_boundary_batch",
    "evaluate_boundary",
    "build_theta_table",
    "tail_exponent",
    "require_convergent_tail",
    "index_kappa",
    "default_mu_grid",
]

_SERIES_RADIUS = 4.0
_SERIES_TERMS = 18
# boundary values per batch: bounds the (rows x 192) node arrays of one call;
# 32-64 rows keep them in cache (a table builds ~30% slower with 256)
_CHUNK = 64
# alpha > 0 tables: Chebyshev-Lobatto points per panel, panels of the
# default first pass, and the Gauss rule of the tail-exponent fit
_PANEL_POINTS = 24
_FIRST_PANELS = 8
_FIT_ORDER = 64
# slit tables: nodes end at y = mu/edge = 1 - _SLIT_GAP
_SLIT_GAP = 1e-13


def _case_series(z2inv):
    """lam_C via the series -sum_{k>=1} z^(-2k)/(2k+1); |z| >= 4 territory.

    Free of the 1 - (1 + ...) cancellation that destroys the direct formula
    at large |z|.
    """
    acc = np.zeros_like(z2inv)
    for k in range(_SERIES_TERMS, 0, -1):  # in place: same roundings, no temporaries
        acc += 1.0 / (2 * k + 1)
        acc *= z2inv
    return -acc


def lambda_case(z):
    """Case dispersion function lam_C(z) = 1 + (z/2) ln((z-1)/(z+1)).

    Principal logarithms put the branch cut exactly on [-1, 1]; points on the
    cut are rejected (use lambda_case_boundary for the one-sided limits).
    Scalar or ndarray input.
    """
    arr = np.asarray(z, dtype=complex)
    origin = arr == 0.0  # removable point: both one-sided limits equal 1
    on_cut = (arr.imag == 0.0) & (np.abs(arr.real) <= 1.0) & ~origin
    if np.any(on_cut):
        raise DomainError("lambda_case is undefined on the cut [-1, 1]")
    out = np.empty_like(arr)
    out[origin] = 1.0
    big = np.abs(arr) >= _SERIES_RADIUS
    if np.any(big):
        zb = arr[big]
        out[big] = _case_series(1.0 / (zb * zb))
    rest = ~big & ~origin
    if np.any(rest):
        zs = arr[rest]
        out[rest] = 1.0 + 0.5 * zs * (np.log(zs - 1.0) - np.log(zs + 1.0))
    return out if arr.ndim else complex(out)


def lambda_case_pv(mu):
    """Real principal value of lam_C on the real axis, mu >= 0, mu != 1.

    Equals 1 - (mu/2) ln|(1+mu)/(1-mu)|; inside (0,1) this is the common real
    part of the two boundary values, outside it is lam_C itself.
    """
    arr = np.asarray(mu, dtype=float)
    out = np.empty_like(arr)
    big = np.abs(arr) >= _SERIES_RADIUS
    if np.any(big):
        xb = arr[big]
        out[big] = _case_series(1.0 / (xb * xb)).real
    if np.any(~big):
        xs = arr[~big]
        with np.errstate(divide="ignore", invalid="ignore"):
            out[~big] = 1.0 - 0.5 * xs * np.log(np.abs((1.0 + xs) / (1.0 - xs)))
    return out if arr.ndim else float(out)


def lambda_case_boundary(mu: float, side: str = "above") -> complex:
    """One-sided boundary value lam_C(mu +- i0) = pv(mu) +- i pi mu / 2, |mu| < 1."""
    if not abs(mu) < 1.0:
        raise DomainError(f"boundary values exist only on (-1, 1), got mu={mu}")
    if side not in ("above", "below"):
        raise DomainError(f"side must be 'above' or 'below', got {side!r}")
    sgn = 1.0 if side == "above" else -1.0
    return complex(lambda_case_pv(mu), sgn * 0.5 * math.pi * mu)


def _case_theta(y: np.ndarray, slope: bool = False) -> np.ndarray:
    """theta = arg lam_C(y + i0) at y >= 0 (pi from y = 1 on), or d theta/dy.

    Inside the slit lam_C = (1 - y atanh y) + i pi y / 2, so the slope is
    (Re Im' - Im Re') / |lam|^2 with Re' = -atanh y - y / (1 - y^2).
    """
    inside = y < 1.0
    yi = np.where(inside, y, 0.0)
    re, im = lambda_case_pv(yi), 0.5 * math.pi * yi
    if not slope:
        return np.where(inside, np.arctan2(im, re), math.pi)
    d_re = -np.arctanh(yi) - yi / ((1.0 - yi) * (1.0 + yi))
    return np.where(inside, (0.5 * math.pi * re - im * d_re) / (re * re + im * im), 0.0)


def weighted_case_average(model: AlphaModel, z, *, tol: float = 1e-12,
                          max_depth: int = 24) -> complex:
    """The Planck-weighted average (1/l0) int w^(a+4) E(w) lam_C(w^a z) dw.

    This is the generic integral route; at alpha = 0 it must collapse to
    lam_C(z) itself, which the acceptance suite checks to 1e-12.
    """
    a = model.alpha
    zc = complex(z)

    def f(w):
        return w ** (a + 4) * special.einstein(w) * lambda_case(w ** a * zc)

    # the integrand changes character where |w^a z| ~ 1; seed panels there
    pts = []
    mag = abs(zc)
    if a > 0.0 and mag > 1.0:
        w_cross = math.exp(-math.log(mag) / a)
        for s in (1.0, 8.0, 64.0):
            p = w_cross * s
            if 0.0 < p < 0.5 * model.omega_cut:
                pts.append(p)
    val = quadrature.integrate(f, 0.0, model.omega_cut, tol,
                               rule=quadrature.gauss_rule(model.quad_cfg.base_order),
                               max_depth=max_depth, points=pts)
    return val / model.l0_alpha


def lambda_general(model: AlphaModel, z, *, tol: float = 1e-11,
                   max_depth: int = 24) -> complex:
    """Frequency-averaged dispersion function lam(z) off the real axis.

    For alpha = 0 the weight integrates to 1 and lam is exactly lam_C. For
    alpha > 0 the cut fills the whole real axis, so only Im z != 0 is
    accepted here; real arguments go through lambda_boundary.
    """
    if model.alpha == 0.0:
        return lambda_case(z)
    zc = complex(z)
    if zc.imag == 0.0:
        raise DomainError(
            "for alpha > 0 the cut covers the real axis; use lambda_boundary")
    return weighted_case_average(model, zc, tol=tol, max_depth=max_depth)


@dataclass(frozen=True)
class DispersionSample:
    """Boundary data at one point mu > 0 of the cut.

    lambda_real is the principal-value real part of lam+(mu), im_plus its
    (nonnegative) imaginary part, theta the continuous argument in [0, pi].
    """

    mu: float
    lambda_real: float
    im_plus: float
    theta: float


def _samples(mus, re, im) -> list[DispersionSample]:
    return [DispersionSample(mu=float(m), lambda_real=float(r), im_plus=float(i),
                             theta=math.atan2(i, r)) for m, r, i in zip(mus, re, im)]


# the exact origin limit every table starts with: lam = 1, theta = 0
_ORIGIN = DispersionSample(mu=0.0, lambda_real=1.0, im_plus=0.0, theta=0.0)


def _pv_integrand(w, mu, shift, a):
    """w^(a+4) E(w) (pv lam_C(w^a mu) - shift), elementwise."""
    vals = w ** (a + 4) * special.einstein(w) * (lambda_case_pv(w ** a * mu) - shift)
    # points rounding exactly onto the singular frequency carry zero measure
    return np.where(np.isfinite(vals), vals, 0.0)


def _re_part(model: AlphaModel, mu: np.ndarray, tol: float, max_depth: int) -> np.ndarray:
    """Re lam+(mu) for every mu, a > 0, as
    shift + (1/l0) int_0^cut w^(a+4) E(w) (pv lam_C(w^a mu) - shift) dw.

    shift = 1 for mu <= 1 keeps the integrand small on the long stretch
    below the singular frequency ws = mu^(-1/a), where one Gauss panel must
    resolve it. shift = 0 for mu > 1, where Re lam+ decays to 0: 1 + (an
    integral near -l0)/l0 would cancel there (a relative 7.5e-8 at alpha 2,
    mu = 1000).

    Where ws lies below the cut, the integral is split there: plain pieces
    away from it, and its two neighbourhoods under w = ws -+ e^-t, which maps
    ln|w - ws| to a smooth, exponentially damped integrand. Pieces are
    summed in a fixed order.
    """
    a, cut = model.alpha, model.omega_cut
    shift = np.where(mu <= 1.0, 1.0, 0.0)
    log_ws = -np.log(mu) / a
    split = log_ws < math.log(cut)
    ws = np.exp(np.where(split, log_ws, 0.0))
    dl = np.minimum(0.5 * ws, 1.0)
    dr = np.minimum(0.5 * (cut - ws), 1.0)
    t_cap = -np.log(16 * np.finfo(float).eps * np.maximum(ws, 1.0))

    def plain(w, mu, ws, shift):
        return _pv_integrand(w, mu, shift, a)

    def left(t, mu, ws, shift):
        return _pv_integrand(ws - np.exp(-t), mu, shift, a) * np.exp(-t)

    def right(t, mu, ws, shift):
        return _pv_integrand(ws + np.exp(-t), mu, shift, a) * np.exp(-t)

    pieces = (  # (integrand, lower, upper, rows that have the piece)
        (plain, np.zeros_like(mu), np.where(split, ws - dl, cut), ~split | (ws - dl > 0.0)),
        (left, -np.log(dl), t_cap, split),
        (right, -np.log(dr), t_cap, split),
        (plain, ws + dr, np.full_like(mu, cut), split & (ws + dr < cut)),
    )
    rule = quadrature.gauss_rule(model.quad_cfg.base_order)
    total = np.zeros_like(mu)
    for f, lo, hi, rows in pieces:
        part = np.zeros_like(mu)
        part[rows] = quadrature.integrate_rows(
            f, lo[rows], hi[rows], tol, params=(mu[rows], ws[rows], shift[rows]),
            rule=rule, max_depth=max_depth, scale=model.l0_alpha)
        total += part
    return shift + total / model.l0_alpha


def lambda_boundary_batch(model: AlphaModel, mu, *, tol: float = 1e-10,
                          max_depth: int = 20) -> list[DispersionSample]:
    """Boundary values lam+(mu) for an array of mu > 0, in input order.

    The real part integrates the principal value of lam_C(w^a mu) over the
    weight; the imaginary part is exact in terms of the truncated moment
    xi_a. All mus share one rule evaluation per piece (one Gauss panel with
    the embedded half-panel error test); a mu whose panel fails the test is
    redone adaptively. Each value depends only on its own mu.
    """
    mus = np.atleast_1d(np.asarray(mu, dtype=float))
    if np.any(mus <= 0):
        raise DomainError(f"lambda_boundary requires mu > 0, got {mus[mus <= 0][0]}")
    a = model.alpha
    if a == 0.0:
        im = np.where(mus < 1.0, 0.5 * math.pi * mus, 0.0)
        return _samples(mus, lambda_case_pv(mus), im)
    im = 0.5 * math.pi * mus * special.xi_alpha(model, mus) / model.l0_alpha
    return _samples(mus, _re_part(model, mus, tol, max_depth), im)


def lambda_boundary(model: AlphaModel, mu: float, *, tol: float = 1e-10,
                    max_depth: int = 20) -> DispersionSample:
    """Boundary value lam+(mu) for one mu > 0, with theta = atan2(Im, Re)."""
    return lambda_boundary_batch(model, [mu], tol=tol, max_depth=max_depth)[0]


@dataclass(frozen=True)
class DispersionTable:
    """Boundary data {mu, Re lam+, Im lam+, theta} and theta between them.

    `samples` starts with the exact origin limit (mu=0: lam=1, theta=0) and is
    strictly increasing in mu. Two kinds of table share this interface:

    * slit tables (alpha = 0 and saddle surrogates, `slit_edge` set): lam+ is
      lam_C(mu/edge + i0) in closed form, so theta and its slope are exact,
      not interpolated, and theta == pi from the edge on. The nodes only
      seed the continuum table (`spectrum_table`) and the winding check;
    * panel tables (alpha > 0): theta is a Chebyshev series in s = ln mu on
      each panel [breaks[i], breaks[i+1]] (`coeffs[i]`). Below the first
      break it is the odd cubic A mu + B mu^3 with the value and slope of
      the first panel there (Im lam+ is odd in mu, Re lam+ even). Beyond
      the last break pi - theta = tail_coeff * mu^tail_exponent, with the
      asymptotic exponent (alpha - 3)/alpha and the coefficient matched at
      the last node. `samples` holds the Chebyshev-Lobatto points of the
      panels.
    """

    samples: tuple[DispersionSample, ...]
    alpha: float
    slit_edge: float | None
    boundary_fn: Callable[[np.ndarray], list[DispersionSample]] = field(repr=False,
                                                                         compare=False)
    breaks: np.ndarray | None = field(default=None, repr=False, compare=False)
    coeffs: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        mus = np.array([s.mu for s in self.samples])
        if len(mus) < 2 or np.any(np.diff(mus) <= 0):
            raise ConsistencyError("table nodes must be strictly increasing in mu")
        if self.slit_edge is None and self.coeffs is None:
            raise ConsistencyError("a table without a slit edge needs its Chebyshev panels")

    @cached_property
    def mu(self) -> np.ndarray:
        return np.array([s.mu for s in self.samples])

    @cached_property
    def theta(self) -> np.ndarray:
        return np.array([s.theta for s in self.samples])

    @cached_property
    def lambda_real(self) -> np.ndarray:
        return np.array([s.lambda_real for s in self.samples])

    @cached_property
    def im_plus(self) -> np.ndarray:
        return np.array([s.im_plus for s in self.samples])

    @property
    def mu_max(self) -> float:
        return float(self.mu[-1])

    @property
    def tail_exponent(self) -> float | None:
        """Asymptotic exponent of pi - theta beyond the table; None for slit tables."""
        return None if self.slit_edge is not None else tail_exponent(self.alpha)

    @property
    def tail_coeff(self) -> float | None:
        if self.slit_edge is not None:
            return None
        return (math.pi - float(self.theta[-1])) * self.mu_max ** -self.tail_exponent

    def _panel_eval(self, mu: np.ndarray, slope: bool = False) -> np.ndarray:
        """theta (or d theta/d mu) at breaks[0] <= mu <= mu_max from the panel series."""
        sb = np.log(self.breaks)
        s = np.log(mu)
        i = np.clip(np.searchsorted(sb, s, side="right") - 1, 0, len(self.coeffs) - 1)
        half = 0.5 * (sb[i + 1] - sb[i])
        x = (s - sb[i]) / half - 1.0
        if not slope:
            return chebyshev.chebval(x, self.coeffs[i].T, tensor=False)
        return chebyshev.chebval(x, self._dcoeffs[i].T, tensor=False) / (half * mu)

    @cached_property
    def _dcoeffs(self) -> np.ndarray:
        return chebyshev.chebder(self.coeffs, axis=1)

    @cached_property
    def _head(self) -> tuple[float, float]:
        """(A, B) of the closure theta = A mu + B mu^3 below the first break."""
        m = float(self.breaks[0])
        value, slope = float(self.theta[1]), float(self._panel_eval(np.array([m]), True)[0])
        b = (slope - value / m) / (2.0 * m * m)
        return value / m - b * m * m, b

    def theta_at(self, mu):
        """Continuous argument at arbitrary mu >= 0 (closed form, interpolant, or tail)."""
        arr = np.asarray(mu, dtype=float)
        if self.slit_edge is not None:
            out = _case_theta(arr / self.slit_edge)
            return out if arr.ndim else float(out)
        out = np.full(arr.shape, np.nan)
        mu_min = self.breaks[0]
        head = (0.0 <= arr) & (arr < mu_min)
        body = (mu_min <= arr) & (arr <= self.mu_max)
        tail = arr > self.mu_max
        a, b = self._head
        out[head] = arr[head] * (a + b * arr[head] ** 2)
        out[body] = self._panel_eval(arr[body])
        out[tail] = math.pi - self.tail_coeff * arr[tail] ** self.tail_exponent
        return out if arr.ndim else float(out)

    def theta_slope(self, mu) -> np.ndarray:
        """d theta / d mu at 0 < mu < mu_max: exact on a slit, else the interpolant's."""
        arr = np.atleast_1d(np.asarray(mu, dtype=float))
        if self.slit_edge is not None:
            return _case_theta(arr / self.slit_edge, slope=True) / self.slit_edge
        mu_min = self.breaks[0]
        a, b = self._head
        return np.where(arr < mu_min, a + 3.0 * b * arr ** 2,
                        self._panel_eval(np.maximum(arr, mu_min), slope=True))

    @cached_property
    def tail_fit(self) -> tuple[float, float]:
        """(exponent, rms residual) of the least-squares line ln(pi - theta) vs ln mu.

        Fitted continuously over the last decade [0.1 mu_max, mu_max] of the
        panel interpolant with a fixed Gauss rule, so it does not depend on
        where the nodes sit. For reporting: the table's tail uses the
        asymptotic exponent.
        """
        if self.slit_edge is not None:
            raise ConsistencyError("slit tables have no algebraic tail")
        rule = quadrature.gauss_rule(_FIT_ORDER)
        s, w = rule.map_to(math.log(0.1 * self.mu_max), math.log(self.mu_max))
        resid = math.pi - self.theta_at(np.exp(s))
        if np.any(resid <= 0):
            raise ConsistencyError("pi - theta must stay positive on the tail")
        y = np.log(resid)
        sc, yc = s - w @ s / w.sum(), y - w @ y / w.sum()
        slope = (w @ (sc * yc)) / (w @ (sc * sc))
        return float(slope), float(np.sqrt(w @ (yc - slope * sc) ** 2 / w.sum()))

    def excess_integral(self, rule=None) -> tuple[float, float]:
        """(value, error) of int_0^inf (pi - theta(mu)) dmu for a panel table.

        Each panel is integrated with one Gauss rule in s (64 points by
        default), the origin piece is the exact integral of its cubic
        closure and the tail is the closed form of the asymptotic law. The
        error sums, per panel, the size of the last three Chebyshev
        coefficients times the panel's length in mu, and the change of the
        tail when its exponent is replaced by the local slope of
        ln(pi - theta) at mu_max. Raises DivergenceError when the tail does
        not decay faster than 1/mu (alpha >= 3/2).
        """
        if self.slit_edge is not None:
            raise ConsistencyError("slit tables integrate their boundary function")
        require_convergent_tail(self.alpha)
        p = self.tail_exponent
        rule = rule or quadrature.gauss_rule(64)
        sb = np.log(self.breaks)
        half = 0.5 * np.diff(sb)
        s = 0.5 * (sb[:-1] + sb[1:])[:, None] + half[:, None] * rule.nodes
        theta = chebyshev.chebval(rule.nodes, self.coeffs.T)
        body = float(np.sum(half * ((math.pi - theta) * np.exp(s) @ rule.weights)))
        mu_min, mu_max = self.breaks[0], self.mu_max
        a, b = self._head
        head = mu_min * (math.pi - mu_min * (0.5 * a + 0.25 * b * mu_min ** 2))
        r = math.pi - float(self.theta[-1])
        tail = r * mu_max / -(p + 1.0)
        q = -mu_max * float(self.theta_slope(mu_max)[0]) / r
        tail_err = r * mu_max * abs(1.0 / (p + 1.0) - 1.0 / (q + 1.0))
        body_err = float(np.abs(self.coeffs[:, -3:]).max(axis=1) @ np.diff(self.breaks))
        return head + body + tail, body_err + tail_err


def tail_exponent(alpha: float) -> float:
    """Asymptotic exponent p of pi - theta ~ c mu^p for alpha > 0."""
    return (alpha - 3.0) / alpha


def require_convergent_tail(alpha: float) -> None:
    """DivergenceError unless the tail decays faster than 1/mu, so that the exact
    V1 integral converges (alpha < 3/2); depends on alpha alone."""
    p = tail_exponent(alpha)
    if p >= -1.0:
        raise DivergenceError(
            f"tail exponent {p} >= -1: the exact V1 integral diverges for "
            f"alpha={alpha}; use the saddle-point approximation")


def default_mu_grid(model: AlphaModel, n: int = 400, mu_min: float = 1e-4,
                    mu_max: float | None = None) -> np.ndarray:
    """Default sampling grid for the theta table.

    alpha = 0: the slit-table nodes (`_slit_grid`), which seed the continuum
    table. alpha > 0: geometric up to the first probe mu (30, 100, 300,
    1000) where pi - theta < 1e-4, or 3000, where the power-law tail model
    takes over; build_theta_table uses n = 9 of these points as the first
    panel breaks.
    """
    if model.alpha == 0.0:
        return _slit_grid(1.0, n, mu_min)
    if mu_max is None:
        mu_max = 3000.0
        probes = (30.0, 100.0, 300.0, 1000.0)
        for probe, s in zip(probes, lambda_boundary_batch(model, probes)):
            if math.pi - s.theta < 1e-4:
                mu_max = probe
                break
    return np.geomspace(mu_min, mu_max, n)


def _slit_grid(edge: float, n: int, mu_min: float) -> np.ndarray:
    """n nodes mu = edge y on y in [mu_min, 1 - _SLIT_GAP], uniform in
    s = ln y - ln(1 - y)/2: geometric toward the origin, geometric in the
    distance to the edge (at half the rate) toward it, smooth between.

    e^(2s) = y^2/(1 - y) inverts to y = 2/(1 + sqrt(1 + 4 e^(-2s))); the two
    ends are set exactly.
    """
    y_hi = 1.0 - _SLIT_GAP
    s = np.linspace(math.log(mu_min) - 0.5 * math.log1p(-mu_min),
                    math.log(y_hi) - 0.5 * math.log(_SLIT_GAP), n)
    y = 2.0 / (1.0 + np.sqrt(1.0 + 4.0 * np.exp(-2.0 * s)))
    y[0], y[-1] = mu_min, y_hi
    return edge * y


def build_theta_table(model: AlphaModel, grid: np.ndarray | None = None, *,
                      theta_tol: float = 2e-8, max_passes: int = 8) -> DispersionTable:
    """Tabulate lam+ on positive mu and theta = arg lam+ between the nodes.

    Since Im lam+ >= 0, atan2 already lands in [0, pi], which is the
    continuous branch with theta(0+) = 0. alpha = 0 gives a slit table
    (`_slit_table`): theta is exact, and the grid (default: 400 nodes of
    `_slit_grid`) only fixes the nodes. alpha > 0 gives a panel table
    (`_panel_table`), whose grid is the first set of panel breaks; theta_tol
    is the accuracy its interpolant is refined to and max_passes bounds the
    refinement. Neither applies to slit tables, which are exact.
    """
    if grid is None:
        grid = default_mu_grid(model, n=_FIRST_PANELS + 1 if model.alpha > 0.0 else 400)
    else:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or len(grid) == 0:
            raise ConsistencyError("grid must be a nonempty 1-d array")

    def fn(mus):
        return lambda_boundary_batch(model, mus)

    if model.alpha > 0.0:
        return _panel_table(fn, grid, model.alpha, theta_tol=theta_tol, max_passes=max_passes)
    return _slit_table(fn, grid, model.alpha, 1.0)


def evaluate_boundary(boundary_fn, mus) -> list[DispersionSample]:
    """boundary_fn over mus in fixed-size chunks, in input order.

    Chunks bound the memory of one batch; a row's value never depends on the
    chunk it lands in.
    """
    mus = np.asarray(mus, dtype=float)
    chunks = [mus[i:i + _CHUNK] for i in range(0, len(mus), _CHUNK)]
    return [s for part in ordered_map(boundary_fn, chunks) for s in part]


def _slit_table(boundary_fn, grid, alpha, slit_edge):
    """Slit table (alpha = 0, saddle surrogates) on the sorted, distinct grid.

    boundary_fn must be lam_C(mu/slit_edge + i0), which DispersionTable
    evaluates in closed form between and beyond the nodes.
    """
    mus = np.unique(np.asarray(grid, dtype=float))
    samples = evaluate_boundary(boundary_fn, mus)
    return DispersionTable(samples=(_ORIGIN, *samples), alpha=alpha, slit_edge=slit_edge,
                           boundary_fn=boundary_fn)


@lru_cache(maxsize=1)
def _lobatto() -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev-Lobatto points on [-1, 1], ascending, and the matrix that
    maps values there to Chebyshev coefficients."""
    x = -np.cos(np.pi * np.arange(_PANEL_POINTS) / (_PANEL_POINTS - 1))
    to_coeffs = np.linalg.inv(chebyshev.chebvander(x, _PANEL_POINTS - 1))
    x.setflags(write=False)
    to_coeffs.setflags(write=False)
    return x, to_coeffs


def _panel_table(boundary_fn, breaks, alpha, *, theta_tol=2e-8, max_passes=8):
    """Panel table: theta as Chebyshev series in s = ln mu, refined by bisection.

    Every pass sends the Chebyshev-Lobatto points of all open panels that
    are not yet computed through one evaluate_boundary call. A panel is kept
    once its last three Chebyshev coefficients are all at most theta_tol/10
    (the interpolant's error estimate) and bisected in s otherwise; a panel
    still open after max_passes is a ResolutionError.
    """
    x, to_coeffs = _lobatto()
    breaks = np.unique(np.asarray(breaks, dtype=float))
    if len(breaks) < 2 or breaks[0] <= 0.0:
        raise ConsistencyError("a panel table needs at least two positive breaks")
    samples: dict[float, DispersionSample] = {}
    todo = list(zip(breaks[:-1], breaks[1:]))
    done = []
    for _ in range(max_passes):
        nodes = []
        for lo, hi in todo:
            a, b = math.log(lo), math.log(hi)
            inner = np.exp(0.5 * (a + b) + 0.5 * (b - a) * x[1:-1])
            nodes.append(np.concatenate([[lo], inner, [hi]]))
        new = [m for m in dict.fromkeys(np.concatenate(nodes).tolist()) if m not in samples]
        samples.update(zip(new, evaluate_boundary(boundary_fn, new)))
        theta = np.array([[samples[m].theta for m in row] for row in nodes])
        coeffs = theta @ to_coeffs.T
        fine = np.abs(coeffs[:, -3:]).max(axis=1) <= 0.1 * theta_tol
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
            f"{len(todo)} theta panels still miss {theta_tol:g} after {max_passes} passes")
    done.sort(key=lambda panel: panel[0])
    nodes = sorted({m for *_, row in done for m in row.tolist()})
    return DispersionTable(samples=(_ORIGIN, *(samples[m] for m in nodes)), alpha=alpha,
                           slit_edge=None, boundary_fn=boundary_fn,
                           breaks=np.array([lo for lo, *_ in done] + [done[-1][1]]),
                           coeffs=np.array([c for _, _, c, _ in done]))


def index_kappa(table: DispersionTable, tol: float = 1e-3) -> int:
    """Winding index of the factorisation coefficient: -(theta(inf)-theta(0))/pi.

    theta(inf) = pi exactly for slit tables (lam+ is real negative beyond the
    edge) and by the decaying tail model otherwise. Must come out -1.
    """
    if len(table.samples) < 8:
        raise ConsistencyError("table too coarse to determine the winding index")
    theta0 = table.samples[0].theta
    if table.slit_edge is not None:
        probe = table.boundary_fn(np.array([2.0 * table.slit_edge]))[0]
        if probe.im_plus != 0.0 or probe.lambda_real >= 0.0:
            raise ConsistencyError("slit table: lam+ beyond the edge must be real negative")
        theta_inf = math.atan2(probe.im_plus, probe.lambda_real)
    else:
        if table.tail_exponent is None or table.tail_exponent >= 0:
            raise ConsistencyError("tail model does not decay; cannot close the winding")
        theta_inf = math.pi
    kappa_real = -(theta_inf - theta0) / math.pi
    kappa = round(kappa_real)
    if abs(kappa_real - kappa) > tol:
        raise ConsistencyError(
            f"winding {kappa_real} deviates from an integer by more than {tol}")
    return kappa
