"""Riemann-Hilbert factorisation of the half-range boundary problem.

With theta(mu) = arg lam+(mu) tabulated, the sectionally analytic factor

    X(z) = (1/z) exp V(z),    V(z) = (1/pi) int_0^inf (theta(t) - pi)/(t - z) dt

satisfies X+/X- = lam+/lam- on the positive axis (index -1 problem). The
1/z prefactor cancels the logarithmic blow-up of V at the origin, so exp(V)
keeps X finite and nonvanishing there, while X ~ 1/z at infinity.

Removing the pole of the general solution at infinity pins the expansion
coefficients of the temperature-jump problem:

    C0 = -2 l0 K,    K0 = V1 K,
    V1 = (1/pi) int_0^inf (pi - theta(mu)) dmu,

and the continuum coefficient follows from the jump of 1/X across the cut:

    n(eta) = -(2 l0 K / pi) exp(-Vp(eta)) sin(pi - theta(eta)),

where Vp is the principal value of V on the cut. The overall sign is frozen
by the zero-inflow boundary condition (see N_SIGN below); flipping it leaves
a boundary residual of order one.

Vp sums theta - pi with quadrature.KnotPv, the fixed-rule Cauchy integral
that lam+ and the field take too, on the theta table's nodes thinned to
neighbours at most a factor 2 apart (FactorizationData.knots, the knot rule
of the field's continuum too; FactorizationData.vp_rule). It adds the tail
beyond mu_max with quadrature.power_tail, the fixed rule the field's tail
takes too. No command needs X or V off the cut, so only their boundary
values are computed here (x_boundary, v_cut). For alpha
>= 3/2 the tail pi - theta ~ C mu^((alpha-3)/alpha) decays too slowly and
the V1 integral diverges; the table's tail law reports this as a
DivergenceError pointing at the saddle-point route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import quadrature
from .dispersion import (DispersionTable, _case_theta, build_theta_table,
                         require_convergent_tail)
from .errors import DomainError, RangeError
from .special import AlphaModel

__all__ = [
    "FactorizationData",
    "V1Estimate",
    "N_SIGN",
    "v1_coefficient",
    "build_factorization",
    "v_cut",
    "x_boundary",
    "n_coefficient",
    "spectrum_table",
]

# Sign of the continuum coefficient relative to (2 l0 K / pi) e^{-Vp} sin(pi-theta).
# Derived from the jump of C0/X across the cut and confirmed operationally:
# with -1 the boundary residual at x=0 is at quadrature level, with +1 it is O(1).
N_SIGN = -1.0


@dataclass(frozen=True)
class V1Estimate:
    """Temperature-jump coefficient with an error estimate."""

    value: float
    error: float


def v1_coefficient(model: AlphaModel, table: DispersionTable | None = None) -> V1Estimate:
    """Jump coefficient V1 = (1/pi) int_0^inf (pi - theta(mu)) dmu.

    Slit-type tables (alpha = 0, saddle surrogates) integrate theta in
    closed form by fixed Gauss rules (`_v1_slit`); the logarithmically slow
    approach of theta to pi at the slit edge is tamed by an exponential
    substitution. This route reads no table values, only the slit edge, so
    without a table alpha = 0 integrates the closed form on the slit (0, 1)
    directly. For alpha > 0 the panel table integrates its interpolant with
    the 64-point Gauss rule, and the asymptotic tail
    (DispersionTable.excess_integral); without a table the default one is
    built, unless the tail exponent alone already makes the integral
    diverge (DivergenceError).
    """
    if table is None:
        if model.alpha == 0.0:
            return _v1_slit(1.0)
        require_convergent_tail(model.alpha)
        table = build_theta_table(model)
    if table.slit_edge is not None:
        return _v1_slit(table.slit_edge)
    value, error = table.excess_integral()
    return V1Estimate(value=value / math.pi, error=error / math.pi)


def _v1_slit(edge: float) -> V1Estimate:
    """V1 of a slit that ends at `edge`, from theta = arg lam_C(mu/edge + i0).

    `quadrature.knot_rule`'s pair (`quadrature.knot_sums`: the 16-point
    sum, and the sum over intervals of |16 - 8| its error) on knots 0.1 edge
    apart on [0, 0.9 edge], then in s, mu = edge - e^{-s}, where the
    integrand is exponentially small and smooth, on knots 1 apart over 45
    units of s.
    """
    s0 = -math.log(0.1 * edge)
    total = np.zeros(2)  # (value, error)
    for knots, to_mu in ((np.linspace(0.0, 0.9 * edge, 10), lambda mu: (mu, 1.0)),
                         (s0 + np.arange(46.0), lambda s: (edge - np.exp(-s), np.exp(-s)))):
        nodes, weights = quadrature.knot_rule(knots)
        mu, jacobian = to_mu(nodes)
        total += quadrature.knot_sums((math.pi - _case_theta(mu / edge)) * jacobian * weights)
    return V1Estimate(value=float(total[0]) / math.pi, error=float(total[1]) / math.pi)


@dataclass(frozen=True)
class FactorizationData:
    """Everything the field evaluation needs: theta table, V1, K and K0 = V1 K."""

    model: AlphaModel
    table: DispersionTable
    v1: float
    v1_error: float
    k: float

    def __post_init__(self):
        if self.v1 <= 0:
            raise DomainError(f"V1 must be positive, got {self.v1}")

    @property
    def k0(self) -> float:
        return self.v1 * self.k

    @cached_property
    def vp_rule(self) -> quadrature.KnotPv:
        """The `quadrature.KnotPv` of v_cut: theta - pi on `knots`, up to mu_max
        with every panel break kept, and on a slit table on to its edge."""
        table = self.table
        breaks = table.mu[-1:] if table.panels is None else table.panels.breaks
        knots = self.knots(breaks)
        if table.slit_edge is not None:
            knots = np.append(knots, table.slit_edge)
        return quadrature.KnotPv(knots, lambda t: (t, table.theta_at(t) - math.pi))

    def knots(self, breaks: np.ndarray) -> np.ndarray:
        """The knots of Vp and of the field's continuum: 0, then the theta
        table's nodes from mu_1 and `breaks` up to breaks[-1], thinned so that
        neighbours are at most a factor 2 apart in mu and, on a slit table, in
        edge - mu (the ratio of `dispersion._boundary_rule`); every break
        stays a knot."""
        mu, edge = self.table.mu[1:], self.table.slit_edge
        mu = np.union1d(mu[mu < breaks[-1]], breaks)
        keep = [0]
        while keep[-1] < len(mu) - 1:  # each test holds on a prefix of mu
            k = keep[-1]
            ok = (mu <= 2.0 * mu[k]) & (mu <= breaks[np.searchsorted(breaks, mu[k], "right")])
            if edge is not None:
                ok &= edge - mu >= 0.5 * (edge - mu[k])
            keep.append(max(int(ok.sum()) - 1, k + 1))
        return np.append(0.0, mu[keep])

    @cached_property
    def continuum_breaks(self) -> np.ndarray:
        """The breaks in eta of the continuum's Chebyshev panels (`spectrum_table`).

        A panel table's are theta's, the last moved to mu_max (1 - 1e-8), as
        v_cut needs eta < mu_max. A slit table's run from its first node to
        its last below mu_max, equal in `_slit_grid`'s variable s, each panel
        spanning about as many of the grid's intervals as it has
        Chebyshev-Lobatto intervals, so a coarser grid gives a coarser
        continuum.
        """
        table = self.table
        if table.slit_edge is None:
            return np.append(table.panels.breaks[:-1], table.mu_max * (1.0 - 1e-8))
        nodes = table.mu[1:-1]
        count = max(1, round((len(nodes) - 1) / (quadrature._PANEL_POINTS - 1)))
        s = np.log(table.panel_x(nodes[[0, -1]]))
        inner = table.panel_mu(np.exp(np.linspace(s[0], s[1], count + 1)[1:-1]))
        return np.concatenate([nodes[:1], inner, nodes[-1:]])


def build_factorization(model: AlphaModel, table: DispersionTable,
                        k: float = 1.0, v1_est: V1Estimate | None = None) -> FactorizationData:
    est = v1_est or v1_coefficient(model, table)
    return FactorizationData(model=model, table=table, v1=est.value,
                             v1_error=est.error, k=k)


def _tail_cauchy(data: FactorizationData, z) -> np.ndarray:
    """int_{mu_max}^inf (theta - pi)/(t - z) dt via the table's tail law, for every real z.

    `quadrature.power_tail` in u = 1/t; valid whenever z is not on [mu_max,
    inf). 0 for a table without a tail.
    """
    z = np.atleast_1d(z)
    if data.table.tail is None:
        return np.zeros(z.shape)
    c, p = data.table.tail
    return -c * quadrature.power_tail(p, data.table.mu_max, z, 1e-10)


def v_cut(data: FactorizationData, eta):
    """Principal value Vp(eta) of the Cauchy transform on the cut, 0 < eta < mu_max.

    Scalar or 1-d array eta. The body (1/pi) P int_0^b (theta - pi)/(t - eta)
    dt, with b the slit edge or mu_max, comes from `_cut_body`; an alpha > 0
    table adds its tail beyond mu_max (`_tail_cauchy`).
    """
    table = data.table
    arr = np.asarray(eta, dtype=float)
    etas = np.atleast_1d(arr)
    outside = ~((0.0 < etas) & (etas < table.mu_max))
    if np.any(outside):
        raise RangeError(f"eta={etas[outside][0]} outside the tabulated cut (0, {table.mu_max})")
    out = (_cut_body(data, etas) + _tail_cauchy(data, etas)) / math.pi
    return out if arr.ndim else float(out[0])


def _cut_body(data: FactorizationData, c: np.ndarray) -> np.ndarray:
    """P int_0^b g(t)/(t - c) dt, g = theta - pi, for every 0 < c < b, by fixed rules.

    The knots are those of `FactorizationData.vp_rule`; theta is smooth on
    each interval. In the regularised form sum w (g(t) - g(c))/(t - c) + g(c)
    ln((b - c)/c) each row is settled on the scale max(|g(c)|, |g'(c)| b),
    and a node on c takes g'(c) as its quotient.
    """
    table = data.table
    b = table.mu_max if table.slit_edge is None else table.slit_edge
    g_c, slope = table.theta_at(c) - math.pi, table.theta_slope(c)
    scale = np.maximum(np.maximum(np.abs(g_c), np.abs(slope) * b), 1e-30)
    value = data.vp_rule.sums(g_c, c, scale, lambda i: f"principal value at eta={float(c[i])!r}",
                              slope=slope)
    return value + g_c * np.log((b - c) / c)


def x_boundary(data: FactorizationData, mu, side: str = "above"):
    """Boundary value X+-(mu) = (1/mu) exp(Vp(mu) +- i (theta(mu) - pi)) on the cut.

    Scalar mu gives a complex number, a 1-d array of mu an array."""
    if side not in ("above", "below"):
        raise DomainError(f"side must be 'above' or 'below', got {side!r}")
    sgn = 1.0 if side == "above" else -1.0
    arr = np.asarray(mu, dtype=float)
    out = np.exp(v_cut(data, arr) + 1j * sgn * (data.table.theta_at(arr) - math.pi)) / arr
    return out if arr.ndim else complex(out)


def n_coefficient(data: FactorizationData, eta):
    """Continuum coefficient n(eta) from the jump of C0/X across the cut.

    Real closed form N_SIGN * (2 l0 K / pi) e^{-Vp} sin(pi - theta), for a
    scalar or 1-d array eta, with Vp from v_cut.
    Beyond a slit edge theta == pi and the coefficient vanishes identically;
    beyond the tabulated range of an alpha > 0 table the value is not
    interpolable.
    """
    arr = np.asarray(eta, dtype=float)
    etas = np.atleast_1d(arr)
    if np.any(etas <= 0):
        raise DomainError(f"eta must be positive, got {etas[etas <= 0][0]}")
    table = data.table
    live = etas < (np.inf if table.slit_edge is None else table.slit_edge)
    if np.any(live & (etas >= table.mu_max)):
        bad = etas[live & (etas >= table.mu_max)][0]
        raise RangeError(f"eta={bad} beyond the tabulated range {table.mu_max}")
    out = np.zeros(etas.shape)
    if data.k != 0.0 and np.any(live):
        e = etas[live]
        amp = 2.0 * data.model.l0_alpha * data.k / math.pi
        n = N_SIGN * amp * np.exp(-v_cut(data, e)) * np.sin(math.pi - table.theta_at(e))
        if not np.all(np.isfinite(n)):
            raise DomainError(f"n({e[~np.isfinite(n)][0]}) is not finite")
        out[live] = n
    return out if arr.ndim else float(out[0])


def spectrum_table(data: FactorizationData) -> quadrature.ChebPanels:
    """eta n(eta) as Chebyshev panels on `FactorizationData.continuum_breaks`,
    a series in ln x of the table's panel variable x (`DispersionTable.panel_x`).

    One n_coefficient call at the panels' Chebyshev-Lobatto points, which on
    a panel table are theta's nodes but on the last panel; no tolerance: the
    fixed panels interpolate fresh values to about 1e-13 of max |eta n|.
    """
    table = data.table

    def eta_n(x):
        eta = table.panel_mu(x)
        return eta * n_coefficient(data, eta)

    return quadrature.ChebPanels.through(table.panel_x(data.continuum_breaks), eta_n)
