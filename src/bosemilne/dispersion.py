"""Dispersion function of the half-space problem and its boundary data.

The classical one-speed dispersion function

    lam_C(z) = 1 + (z/2) ln((z-1)/(z+1)),   cut on [-1, 1],

is averaged over the Planck frequency weight, with the argument stretched by
the power-law collision rate:

    lam(z) = (1/l0) int_0^inf w^(a+4) E(w) lam_C(w^a z) dw.

The weight exponent a+4 (not 2a+4) is forced by self-consistency of the
characteristic equation: only this normalisation gives lam(0) = 1 and reduces
lam to lam_C at a = 0. For a > 0 the union of the stretched slits covers the
whole real axis; swapping the integrals gives lam(z) = 1 + z int rho(t)/(t - z)
dt over the real line, rho = xi_a(|t|)/(2 l0), xi_a the truncated moment from
`special` (Case & Zweifel 1967, ch. 4). On the cut, as 2 int_0^inf rho = 1,

    Im lam+(mu) = pi mu rho(mu),   Re lam+(mu) = 2 P int_0^inf rho t^2/(t^2 - mu^2) dt.

The continuous argument theta(mu) = arg lam+(mu) runs from 0 to pi; its table
(for alpha > 0 `quadrature.ChebPanels` with one tail law, `DispersionTable.tail`)
drives the Riemann-Hilbert factorisation downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev

from . import quadrature, special
from .errors import AccuracyError, ConsistencyError, DivergenceError, DomainError
from .special import AlphaModel
from .util import ordered_map

__all__ = [
    "DispersionTable",
    "weighted_case_average",
    "lambda_case",
    "lambda_case_pv",
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
# rows per lambda_boundary_batch call of evaluate_boundary: bounds the per-row
# arrays (the sums block by rows); with 64 a table built ~10% slower (2 vCPUs)
_CHUNK = 256
# alpha > 0 tables: panels of the default first pass, and the Gauss rule
# of the tail-exponent fit
_FIRST_PANELS = 8
_FIT_ORDER = 64
# refinement passes of a panel table before it is a ResolutionError
_MAX_PASSES = 8
# slit tables: nodes end at y = mu/edge = 1 - _SLIT_GAP
_SLIT_GAP = 1e-13
# alpha > 0: the boundary rule's knots in t end here
_T_END = 2.0 ** 26


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
    cut are rejected: the one-sided limits inside it are lambda_case_pv(mu)
    +- i pi mu / 2 (`_slit_parts`).
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


def _slit_parts(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Re, Im) of lam+ = lam_C(y + i0), y = mu/edge > 0: the closed form of every slit."""
    return lambda_case_pv(y), np.where(y < 1.0, 0.5 * math.pi * y, 0.0)


def _case_theta(y: np.ndarray, slope: bool = False) -> np.ndarray:
    """theta = arg lam_C(y + i0) at y >= 0 (pi from y = 1 on), or d theta/dy.

    Inside the slit lam_C = (1 - y atanh y) + i pi y / 2, so the slope is
    (Re Im' - Im Re') / |lam|^2 with Re' = -atanh y - y / (1 - y^2).
    """
    inside = y < 1.0
    yi = np.where(inside, y, 0.0)
    re, im = _slit_parts(yi)
    if not slope:
        return np.where(inside, np.arctan2(im, re), math.pi)
    d_re = -np.arctanh(yi) - yi / ((1.0 - yi) * (1.0 + yi))
    return np.where(inside, (0.5 * math.pi * re - im * d_re) / (re * re + im * im), 0.0)


def weighted_case_average(model: AlphaModel, z, *, tol: float = 1e-12) -> complex:
    """The Planck-weighted average (1/l0) int w^(a+4) E(w) lam_C(w^a z) dw.

    The generic integral route; at alpha = 0 it must collapse to lam_C(z),
    which the acceptance suite checks to 1e-12. `quadrature.knot_rule`'s pair
    runs on 0 and `special.frequency_knots`, graded toward the branch points
    w = r e^(+-it) of lam_C(w^a z), r = |z|^(-1/a) clamped to e^(+-300) (no
    node near einstein's underflow), t = atan2(|Im z|, |Re z|)/a, none if t
    rounds to 0: r, and r(1 +- s) for s = (t/2) 2^k, k = 0, 1, ..., inside
    (0, omega_cut), so each interval next to a branch point is at most as
    wide as its distance from it. A sum over intervals of |16 - 8| above tol
    |value| raises AccuracyError. It was at most 1.3e-15 off 30-digit mpmath
    at 12 points, and the estimate at most 8.6e-13 relative on 1800 random z
    (|z| 1e-2 to 1e3, alpha 0.25 to 2.9); a grading from s = t read 3.2e-11.
    """
    a, zc, cut = model.alpha, complex(z), model.omega_cut
    knots = [0.0, *special.frequency_knots(cut)]
    t = math.atan2(abs(zc.imag), abs(zc.real)) / a if a > 0.0 else 0.0
    if t > 0.0:
        r = math.exp(min(max(-math.log(abs(zc)) / a, -300.0), 300.0))
        knots.append(r)
        s = 0.5 * t
        while s < 1.0 or r * (1.0 + s) < cut:
            knots += [r * (1.0 - s), r * (1.0 + s)]
            s *= 2.0
    w, weights = quadrature.knot_rule(np.unique(np.clip(knots, 0.0, cut)))
    value, error = (v / model.l0_alpha for v in quadrature.knot_sums(
        w ** (a + 4) * special.einstein(w) * lambda_case(w ** a * zc) * weights))
    if not error <= tol * abs(value):
        raise AccuracyError(f"weighted Case average at z={zc!r}, alpha={a!r}: error "
                            f"{error:.3e}", best=value, bound=error)
    return value


def lambda_general(model: AlphaModel, z) -> complex:
    """Frequency-averaged dispersion function lam(z) off the real axis.

    For alpha = 0 the weight integrates to 1 and lam is exactly lam_C. For
    alpha > 0 the cut fills the whole real axis, so only Im z != 0 is
    accepted here; real arguments go through lambda_boundary. The weighted
    average runs at tolerance 1e-11.
    """
    if model.alpha == 0.0:
        return lambda_case(z)
    zc = complex(z)
    if zc.imag == 0.0:
        raise DomainError(
            "for alpha > 0 the cut covers the real axis; use lambda_boundary")
    return weighted_case_average(model, zc, tol=1e-11)


def _boundary_rule(model: AlphaModel) -> quadrature.KnotPv:
    """The `quadrature.KnotPv` of Re lam+: in the variable t^2, 2 rho t^2 at
    the nodes t; no cache outlives it.

    rho is full up to the kink t = cut^-alpha and falls to 0 over a width of
    about alpha in ln t. So the knots follow frequency, t = w^-alpha at
    `special.frequency_knots`, go on geometric in t - kink to _T_END, split
    to a ratio of at most 2 (the 8-point rule settles 1/(t + mu) and 1/t^2
    there), and are mirrored below the kink for the poles in the step.
    """
    t_w = special.frequency_knots(model.omega_cut) ** -model.alpha  # falls to the kink
    kink = t_w[-1]
    upper = np.concatenate([t_w, kink + (t_w[0] - kink) * 2.0 ** np.arange(1, 64)])
    t = np.unique(np.minimum(upper, _T_END))
    n = np.ceil(np.log2(t[1:] / t[:-1])).astype(int)  # parts of each interval
    i = np.repeat(np.arange(len(n)), n)
    j = np.arange(len(i)) - np.repeat(np.cumsum(n) - n, n)
    split = t[i] * (t[i + 1] / t[i]) ** (j / n[i])
    knots = np.unique(np.concatenate([[0.0, _T_END], np.maximum(2.0 * kink - t, 0.0), split]))

    def at(nodes):
        t2 = nodes ** 2
        return t2, special.xi_alpha(model, nodes) / model.l0_alpha * t2

    return quadrature.KnotPv(knots, at)


def lambda_boundary_batch(model: AlphaModel, mu, *,
                          rule=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundary values lam+(mu) for an array of mu > 0: arrays (Re lam+, Im
    lam+, theta) in input order, Im lam+ >= 0 and theta = atan2(Im, Re) in
    [0, pi].

    For alpha > 0, with G = rho t^2 and P int_0^inf dt/(t^2 - mu^2) = 0, Re
    lam+ is sum w 2 (G(t) - G(mu))/(t^2 - mu^2) + (G(mu)/mu) ln((b - mu)/(b +
    mu)) on `rule` (`_boundary_rule`, built if None), b = _T_END (beyond: below
    1e-20), in the variable t^2 with the pole mu^2, each row on the scale Im
    lam+, so on its own mu only. Nothing cancels where Re lam+ is ~1e-9
    (alpha 2, mu >> 1).
    """
    mus = np.atleast_1d(np.asarray(mu, dtype=float))
    if np.any(mus <= 0):
        raise DomainError(f"lambda_boundary requires mu > 0, got {mus[mus <= 0][0]}")
    if model.alpha == 0.0:
        return (*_slit_parts(mus), _case_theta(mus))
    if np.any(mus >= _T_END):
        raise DomainError(f"lambda_boundary requires mu < {_T_END:g} for alpha > 0")
    rule = rule or _boundary_rule(model)
    g_mu = 0.5 * mus * special.xi_alpha(model, mus) / model.l0_alpha  # G(mu)/mu = mu rho(mu)
    im = math.pi * g_mu
    re = rule.sums(2.0 * g_mu * mus, mus * mus, im, lambda i: f"Re lam+ at mu={mus[i]!r}")
    re += g_mu * np.log((_T_END - mus) / (_T_END + mus))
    return re, im, np.fromiter(map(math.atan2, im, re), float, len(mus))


def lambda_boundary(model: AlphaModel, mu):
    """Boundary value lam+(mu) for mu > 0, from one boundary rule: a complex
    number for scalar mu, an array for a 1-d array; its phase (cmath.phase,
    the same atan2) is theta."""
    re, im, _ = lambda_boundary_batch(model, mu)
    return re + 1j * im if np.ndim(mu) else complex(re[0], im[0])


@dataclass(frozen=True)
class DispersionTable:
    """theta = arg lam+ at the nodes and between them.

    `samples` is the (n, 2) array of nodes (mu, theta), `mu` and `theta` its
    columns; row 0 is the exact origin limit (mu=0: lam=1, theta=0) and mu
    is strictly increasing. Two kinds of table share this interface:

    * slit tables (alpha = 0 and saddle surrogates, `slit_edge` set): lam+ is
      lam_C(mu/edge + i0) in closed form, so theta and its slope are exact,
      not interpolated, and theta == pi from the edge on. The nodes only
      seed Vp's knots, the continuum's panels (`spectrum_table`: their ends
      and count, in the variable of `panel_x`) and the winding check;
    * panel tables (alpha > 0): theta is `panels`, a `quadrature.ChebPanels`
      series in s = ln mu. Below the first break it is the odd cubic A mu +
      B mu^3 with the value and slope of the first panel there (Im lam+ is
      odd in mu, Re lam+ even). Beyond the last break pi - theta = c mu^p,
      the law `tail` gives. `samples` holds the Chebyshev-Lobatto points of
      the panels.

    A table holds numbers only, no callables, so it pickles.
    """

    samples: np.ndarray = field(repr=False, compare=False)
    alpha: float
    slit_edge: float | None
    panels: quadrature.ChebPanels | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.samples) < 2 or np.any(np.diff(self.mu) <= 0):
            raise ConsistencyError("table nodes must be strictly increasing in mu")
        if self.slit_edge is None and self.panels is None:
            raise ConsistencyError("a table without a slit edge needs its Chebyshev panels")

    @property
    def mu(self) -> np.ndarray:
        return self.samples[:, 0]

    @property
    def theta(self) -> np.ndarray:
        return self.samples[:, 1]

    @property
    def mu_max(self) -> float:
        return float(self.mu[-1])

    @property
    def tail(self) -> tuple[float, float] | None:
        """(c, p) of the tail pi - theta = c mu^p beyond mu_max, or None without one.

        p is the asymptotic exponent (alpha - 3)/alpha and c matches theta at
        mu_max. None for slit tables, and where theta reaches pi at working
        precision at mu_max (small alpha), where mu_max^-p may overflow.
        """
        r = math.pi - float(self.theta[-1])
        if self.slit_edge is not None or not r:
            return None
        p = tail_exponent(self.alpha)
        return r * self.mu_max ** -p, p

    @cached_property
    def _head(self) -> tuple[float, float]:
        """(A, B) of the closure theta = A mu + B mu^3 below the first break."""
        m = float(self.panels.breaks[0])
        value, slope = float(self.theta[1]), float(self.panels.slope(np.array([m]))[0])
        b = (slope - value / m) / (2.0 * m * m)
        return value / m - b * m * m, b

    def theta_at(self, mu):
        """Continuous argument at arbitrary mu >= 0 (closed form, interpolant, or tail)."""
        arr = np.asarray(mu, dtype=float)
        if self.slit_edge is not None:
            out = _case_theta(arr / self.slit_edge)
            return out if arr.ndim else float(out)
        out = np.full(arr.shape, np.nan)
        mu_min = self.panels.breaks[0]
        head = (0.0 <= arr) & (arr < mu_min)
        body = (mu_min <= arr) & (arr <= self.mu_max)
        tail = arr > self.mu_max
        a, b = self._head
        c, p = self.tail or (0.0, 0.0)  # no tail: theta is pi beyond mu_max
        out[head] = arr[head] * (a + b * arr[head] ** 2)
        out[body] = self.panels.value(arr[body])
        out[tail] = math.pi - c * arr[tail] ** p
        return out if arr.ndim else float(out)

    def panel_x(self, mu) -> np.ndarray:
        """The variable x of the table's Chebyshev panels, series in ln x: mu
        itself, or on a slit e^s of `_slit_grid`'s s, y/sqrt(1 - y) with y =
        mu/edge, where the continuum coefficient is smooth up to the edge."""
        if self.slit_edge is None:
            return mu
        y = mu / self.slit_edge
        return y / np.sqrt(1.0 - y)

    def panel_mu(self, x) -> np.ndarray:
        """mu at the panel variable x: the inverse of `panel_x`."""
        return x if self.slit_edge is None else self.slit_edge * _slit_y(np.log(x))

    def theta_slope(self, mu) -> np.ndarray:
        """d theta / d mu at 0 < mu < mu_max: exact on a slit, else the interpolant's."""
        arr = np.atleast_1d(np.asarray(mu, dtype=float))
        if self.slit_edge is not None:
            return _case_theta(arr / self.slit_edge, slope=True) / self.slit_edge
        mu_min = self.panels.breaks[0]
        a, b = self._head
        return np.where(arr < mu_min, a + 3.0 * b * arr ** 2,
                        self.panels.slope(np.maximum(arr, mu_min)))

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

    def excess_integral(self) -> tuple[float, float]:
        """(value, error) of int_0^inf (pi - theta(mu)) dmu for a panel table.

        Each panel is integrated with the 64-point Gauss rule in s, the origin
        piece is the exact integral of its cubic closure and the tail is the
        closed form of the law `tail`. The error sums, per panel, the
        size of the last three Chebyshev coefficients times the panel's
        length in mu, and the change of the tail when its exponent is
        replaced by the local slope of ln(pi - theta) at mu_max. Raises
        DivergenceError when the tail does not decay faster than 1/mu
        (alpha >= 3/2).
        """
        if self.slit_edge is not None:
            raise ConsistencyError("slit tables integrate theta in closed form")
        require_convergent_tail(self.alpha)
        breaks, coeffs, rule = self.panels.breaks, self.panels.coeffs, quadrature.gauss_rule(64)
        sb = np.log(breaks)
        half = 0.5 * np.diff(sb)
        s = 0.5 * (sb[:-1] + sb[1:])[:, None] + half[:, None] * rule.nodes
        theta = chebyshev.chebval(rule.nodes, coeffs.T)
        body = float(np.sum(half * ((math.pi - theta) * np.exp(s) @ rule.weights)))
        mu_min, mu_max = breaks[0], self.mu_max
        a, b = self._head
        head = mu_min * (math.pi - mu_min * (0.5 * a + 0.25 * b * mu_min ** 2))
        tail = tail_err = 0.0
        if self.tail is not None:  # from r, not c: c mu_max^p rounds differently
            r, p = math.pi - float(self.theta[-1]), self.tail[1]
            tail = r * mu_max / -(p + 1.0)
            q = -mu_max * float(self.theta_slope(mu_max)[0]) / r
            tail_err = r * mu_max * abs(1.0 / (p + 1.0) - 1.0 / (q + 1.0))
        body_err = float(np.abs(coeffs[:, -3:]).max(axis=1) @ np.diff(breaks))
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


def default_mu_grid(model: AlphaModel, *, rule=None) -> np.ndarray:
    """Default sampling grid for the theta table, from mu = 1e-4.

    alpha = 0: the 400 slit-table nodes (`_slit_grid`), which seed the
    continuum table. alpha > 0: the _FIRST_PANELS + 1 first panel breaks,
    geometric up to the first probe mu (30, 100, 300, 1000) where
    pi - theta < 1e-4, or 3000, where the power-law tail model takes over.
    """
    if model.alpha == 0.0:
        return _slit_grid(1.0, 400, 1e-4)
    mu_max = 3000.0
    probes = (30.0, 100.0, 300.0, 1000.0)
    for probe, theta in zip(probes, lambda_boundary_batch(model, probes, rule=rule)[2]):
        if math.pi - theta < 1e-4:
            mu_max = probe
            break
    return np.geomspace(1e-4, mu_max, _FIRST_PANELS + 1)


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
    y = _slit_y(s)
    y[0], y[-1] = mu_min, y_hi
    return edge * y


def _slit_y(s: np.ndarray) -> np.ndarray:
    """y at `_slit_grid`'s variable s; `DispersionTable.panel_x` is e^s."""
    return 2.0 / (1.0 + np.sqrt(1.0 + 4.0 * np.exp(-2.0 * s)))


def build_theta_table(model: AlphaModel, grid: np.ndarray | None = None, *,
                      theta_tol: float = 2e-8) -> DispersionTable:
    """Tabulate lam+ on positive mu and theta = arg lam+ between the nodes.

    Since Im lam+ >= 0, atan2 already lands in [0, pi], which is the
    continuous branch with theta(0+) = 0. alpha = 0 gives a slit table
    (`_slit_table`): theta is exact, and the grid (default: 400 nodes of
    `_slit_grid`) only fixes the nodes. alpha > 0 gives a panel table
    (`quadrature.ChebPanels.fit` of theta), whose grid is the first set of
    panel breaks; theta_tol is the accuracy its interpolant is refined to, in
    at most _MAX_PASSES passes. Neither applies to slit tables, which are
    exact. One `_boundary_rule` serves the whole build.
    """
    rule = _boundary_rule(model)
    if grid is None:
        grid = default_mu_grid(model, rule=rule)
    else:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or len(grid) == 0:
            raise ConsistencyError("grid must be a nonempty 1-d array")
    if model.alpha == 0.0:
        return _slit_table(grid, model.alpha, 1.0)
    panels, mus, theta = quadrature.ChebPanels.fit(
        lambda m: evaluate_boundary(model, m, rule=rule)[2], grid, theta_tol, _MAX_PASSES)
    return DispersionTable(samples=_nodes(mus, theta), alpha=model.alpha, slit_edge=None,
                           panels=panels)


def evaluate_boundary(model: AlphaModel, mus, *,
                      rule=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lambda_boundary_batch over mus in fixed-size chunks: (Re lam+, Im
    lam+, theta) in input order.

    Chunks bound the memory of one batch; a row's value never depends on the
    chunk it lands in. All chunks share one boundary rule, `rule` if given.
    """
    mus = np.asarray(mus, dtype=float)
    rule = rule or _boundary_rule(model)
    chunks = [mus[i:i + _CHUNK] for i in range(0, len(mus), _CHUNK)]
    parts = ordered_map(lambda c: lambda_boundary_batch(model, c, rule=rule), chunks)
    return tuple(np.concatenate(parts, axis=1))


def _slit_table(grid, alpha: float, edge: float) -> DispersionTable:
    """Slit table (alpha = 0, saddle surrogates) on the sorted, distinct grid:
    theta = arg lam_C(mu/edge + i0) at the nodes, by the closed form
    (`_case_theta`) that DispersionTable also evaluates between and beyond
    them, so theta_at gives the nodes' own theta bits.
    """
    mus = np.unique(np.asarray(grid, dtype=float))
    return DispersionTable(samples=_nodes(mus, _case_theta(mus / edge)),
                           alpha=alpha, slit_edge=edge)


def _nodes(mus, theta) -> np.ndarray:
    """The (n + 1, 2) node array of a table: the origin (0, 0), then (mu, theta)."""
    return np.column_stack([np.append(0.0, mus), np.append(0.0, theta)])


def index_kappa(table: DispersionTable) -> int:
    """Winding index of the factorisation coefficient: -(theta(inf)-theta(0))/pi.

    theta(inf) comes from theta_at: pi exactly for slit tables (lam+ is real
    negative beyond the edge) and the limit of the decaying tail model
    otherwise. Must come out -1, within 1e-3 of an integer.
    """
    if len(table.samples) < 8:
        raise ConsistencyError("table too coarse to determine the winding index")
    if table.tail is not None and table.tail[1] >= 0:
        raise ConsistencyError("tail model does not decay; cannot close the winding")
    theta0 = float(table.theta[0])
    theta_inf = table.theta_at(math.inf)
    kappa_real = -(theta_inf - theta0) / math.pi
    kappa = round(kappa_real)
    if abs(kappa_real - kappa) > 1e-3:
        raise ConsistencyError(
            f"winding {kappa_real} deviates from an integer by more than 0.001")
    return kappa
