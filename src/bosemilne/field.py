"""Assemble and evaluate the expanded half-space solution phi(x, mu).

The temperature perturbation field splits into the two discrete modes and a
continuum of decaying singular modes:

    phi(x, mu) = K0 + K (x - mu)
               + (1/(2 l0)) P int_0^inf e^{-x/eta} eta n(eta) / (eta - mu) deta
               + [mu > 0] (lam(mu)/xi_a(mu)) n(mu) e^{-x/mu}.

The principal value applies when mu falls inside the continuum support. The
delta-mode coefficient is evaluated in the cancellation-free form

    lam(mu)/xi_a(mu) * n(mu) = N_SIGN * K * mu * e^{-Vp(mu)} * cos(theta(mu)),

where the truncated moment xi_a cancels exactly against the one hiding in
sin(pi - theta); this keeps the term finite where xi_a underflows. Vp(mu)
there is the principal value itself (factorization.v_cut, fixed rules on
Vp's own knots, `vp_rule`), as in n(eta), not an interpolant. Beyond a
slit edge (alpha = 0, mu > 1) the continuum carries no delta mode and the
term is absent. At the edge itself (mu = 1) the continuum integrand
diverges like a log-log, and phi is not evaluated within 2e-6 of it on
either side (see _EDGE_BAND). Beyond the continuum table (mu >= eta_max)
of a solution with an algebraic tail (`_tail_law`: alpha from about
0.285 on), the tail has its pole inside its integral; without one, mu in
(eta_max, mu_max) takes Vp from v_cut, and at or beyond the theta table's
end mu_max the delta mode has no Vp (unless x/mu > 50 drops it). All of
these raise RangeError, and non-finite x or mu DomainError, before any
integration.

The tabulated part of the continuum integral runs over [0, eta_max] of
eta n(eta) as Chebyshev panels (`factorization.spectrum_table`, the
quadrature.ChebPanels type of theta's table, after Battles & Trefethen,
2004): theta's own panels for alpha > 0, ending at mu_max (1 - 1e-8), and on
a slit equal panels in the slit grid's variable, ending at its last node
below mu_max. Below the first break eta_min it is the line from 0. It is
summed by quadrature.KnotPv, the fixed-rule Cauchy integral that Vp and
lam+ take too, on the knots of Vp's rule (`FactorizationData.knots`:
neighbours at most a factor 2 apart, every panel break kept), in the
regularised form sum w (f(t) - f(mu)) / (t - mu) + f(mu) ln((eta_max -
mu)/mu) for a principal value: a 16-point Gauss-Legendre rule on every
interval gives the value and an 8-point rule the error estimate, as QUADPACK
pairs its rules (Piessens et al., 1983). Rows whose estimate misses the
tolerance are redone by the same pair on the knots bisected, [0, eta_1]
graded first; a row that misses there too raises AccuracyError. The
alpha > 0 tail beyond eta_max is quadrature.power_tail, which Vp's tail
shares: a fixed rule too, in u = 1/eta, a Taylor head next to u = 0 and the
pair on knots geometric in u.

Zero inflow phi(0, mu > 0) = 0 is not imposed anywhere in this module; it
emerges from the factorisation constants, so the boundary residual is the
end-to-end consistency meter of the whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from . import quadrature
from .errors import DomainError, RangeError
from .factorization import (FactorizationData, N_SIGN, build_factorization,
                            spectrum_table, v_cut)
from .dispersion import build_theta_table
from .special import AlphaModel

__all__ = [
    "MilneSolution",
    "solve_milne",
    "evaluate",
    "boundary_residual",
    "mode_equation_residual",
]

# off the continuum table the delta term is dropped beyond this x/mu (e^-50
# = 2e-22): below eta_min it takes no Vp there, and from mu_max on the
# range check asks for none
_DELTA_FAR = 50.0
# |mu - edge| below which phi is not evaluated next to the slit edge. Set
# when the field was adaptive: beyond the edge the plain row's pole sat so
# close to the continuum's end (eta_max = 1 - 1.13e-13) that its quadrature
# stalled up to mu - 1 = 1.40e-6. On the Chebyshev panels of eta n the
# first pass settles every x in (0, 1e-3, 0.01, 0.1, 0.3, 1, 30) down
# to mu - 1 = 1e-11, within 2.9e-11 |K| (1 + V1) of the fine pass; at
# 1e-12, against the continuum's end, it misses for x <= 1, and at x = 0
# the fine pass misses too. Below the edge the principal value sits on the
# log-log divergence: at x = 0 |phi|/(|K| (1 + V1)) grows like 3e-17/(1 -
# mu), from 3.0e-11 at 1 - 1e-6 to 3.0e-7 at 1 - 1e-10, where the exact
# value is 0.
_EDGE_BAND = 2e-6


@dataclass(frozen=True)
class MilneSolution:
    """The factorisation (model, K, K0 = V1 K) plus the continuum coefficient
    eta n(eta) as `spectrum_table`'s Chebyshev panels."""

    factorization: FactorizationData
    panels: quadrature.ChebPanels = dc_field(repr=False)

    @property
    def eta_min(self) -> float:
        return float(self.factorization.continuum_breaks[0])

    @property
    def eta_max(self) -> float:
        return float(self.factorization.continuum_breaks[-1])

    @cached_property
    def eta_n(self):
        """eta n(eta) at 0 <= eta <= eta_max: the panels, and below eta_min the
        line from 0 to their first value."""
        table, panels, lo = self.factorization.table, self.panels, self.eta_min

        def eta_n(eta):
            value = panels.value(table.panel_x(np.maximum(eta, lo)))
            return np.where(eta < lo, value * (eta / lo), value)

        return eta_n

    @cached_property
    def eta_n_rule(self) -> quadrature.KnotPv:
        """The `quadrature.KnotPv` of the continuum integral: eta n(eta) on
        `FactorizationData.knots`, every panel break kept, to eta_max. The fine
        pass also grades [0, eta_1], where e^{-x/eta} turns over for x of
        about eta_1 / 100."""
        eta_n = self.eta_n  # not self: a cycle would hold the pairs until gc
        knots = self.factorization.knots(self.factorization.continuum_breaks)
        return quadrature.KnotPv(knots, lambda t: (t, eta_n(t)))


def solve_milne(model: AlphaModel, k: float = 1.0, *, table=None) -> MilneSolution:
    """Build the full solution: theta table, factorisation, continuum panels."""
    if table is None:
        table = build_theta_table(model)
    data = build_factorization(model, table, k=k)
    return MilneSolution(factorization=data, panels=spectrum_table(data))


def _tail_law(sol: MilneSolution) -> float | None:
    """Exponent p of the algebraic continuum tail beyond the grid, or None without one."""
    tail = sol.factorization.table.tail
    return None if tail is None or sol.eta_n(sol.eta_max) == 0.0 else tail[1]


def _check_range(sol: MilneSolution, x: np.ndarray, mu: np.ndarray) -> None:
    """RangeError for the points phi cannot be evaluated at, before any integration."""
    table = sol.factorization.table
    edge = table.slit_edge
    beyond = mu > sol.eta_max
    with np.errstate(divide="ignore", invalid="ignore"):
        needs_vp = (mu >= table.mu_max) & (x / mu <= _DELTA_FAR)
    if edge is not None:
        needs_vp &= mu < edge
    span = f"the continuum table [{sol.eta_min:.3g}, {sol.eta_max:.17g}]"
    checks = (
        (mu == sol.eta_max, f"is the end of {span}, a pole of the continuum integral"),
        (edge is not None and mu == edge,
         "is the slit edge, where the continuum integrand diverges like a log-log"),
        (edge is not None and (mu < edge) & (edge - mu <= _EDGE_BAND),
         f"lies within {_EDGE_BAND:g} below the slit edge, where the principal value "
         "sits on the log-log divergence of the continuum integrand"),
        (edge is not None and (mu > edge) & (mu - edge <= _EDGE_BAND),
         f"lies within {_EDGE_BAND:g} beyond the slit edge, where the pole of the "
         f"continuum integral sits against the end of {span}"),
        (beyond & (_tail_law(sol) is not None),
         f"lies beyond {span}: the continuum tail would have its pole u = 1/mu inside"),
        (needs_vp, f"lies at or beyond the end {table.mu_max:.17g} of the theta table: "
                   "the delta mode has no Vp(mu) there"),
    )
    for bad, why in checks:
        if np.any(bad):
            raise RangeError(f"mu={float(mu[bad][0])!r} {why}")


def _continuum_integral(sol: MilneSolution, x, mu):
    """P int e^{-x/eta} eta n(eta) / (eta - mu) deta over the tabulated range, plus the tail.

    x and mu broadcast. Every row is summed by `MilneSolution.eta_n_rule` on
    the scale max|n|: principal-value rows (0 < mu < eta_max) regularised,
    sum w (f(t) - f(mu)) / (t - mu) + f(mu) ln((eta_max - mu)/mu) with f =
    e^{-x/eta} eta n(eta), the others as sum w f(t) / (t - mu).
    """
    xb, mb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(mu, dtype=float))
    x, mu = xb.ravel(), mb.ravel()
    b = sol.eta_max
    pv = (0.0 < mu) & (mu < b)
    f_mu = np.zeros(mu.shape)
    if np.any(pv):
        arg = x[pv] / mu[pv]
        f_mu[pv] = np.where(arg > quadrature.EXP_CUT, 0.0, sol.eta_n(mu[pv])
                            * np.exp(-np.minimum(arg, quadrature.EXP_CUT)))
    # the scale: a bound on max |eta n| of the panels
    out = sol.eta_n_rule.sums(
        f_mu, mu, float(np.max(np.abs(sol.panels.coeffs).sum(axis=1)) + 1e-300),
        lambda i: f"continuum integral at x={float(x[i])!r}, mu={float(mu[i])!r}", x)
    out[pv] += f_mu[pv] * np.log((b - mu[pv]) / mu[pv])
    return (out + _continuum_tail(sol, x, mu)).reshape(mb.shape)[()]


def _continuum_tail(sol: MilneSolution, x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Algebraic continuum tail (alpha > 0) by `quadrature.power_tail`; mu < eta_max."""
    p = _tail_law(sol)
    if p is None:
        return np.zeros(mu.shape)
    val = quadrature.power_tail(p + 1.0, sol.eta_max, mu, 1e-9, x)
    return float(sol.eta_n(sol.eta_max)) * sol.eta_max ** (-p - 1.0) * val


def _delta_term(sol: MilneSolution, x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Delta-mode contribution for mu > 0, in the xi-cancelled form; 0 elsewhere.

    Vp comes from one v_cut call on the distinct mu that keep a term.
    """
    data = sol.factorization
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = x / mu
    live = (mu > 0.0) & (arg <= quadrature.EXP_CUT)
    if data.table.slit_edge is not None:
        live &= mu < data.table.slit_edge
    off_table = (mu < sol.eta_min) | (mu > sol.eta_max)
    live &= ~(off_table & (arg > _DELTA_FAR))
    out = np.zeros(mu.shape)
    if np.any(live):
        m, inverse = np.unique(mu[live], return_inverse=True)
        coeff = N_SIGN * data.k * m * np.exp(-v_cut(data, m)) * np.cos(data.table.theta_at(m))
        out[live] = coeff[inverse] * np.exp(-arg[live])
    return out


def evaluate(sol: MilneSolution, x, mu):
    """Field value phi(x, mu); x >= 0, principal value inside the continuum.

    x and mu broadcast against each other (scalars give a float). Every
    point is checked first (finite, x >= 0, in range); then all points go
    through one call of the continuum integral.
    """
    xb, mb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(mu, dtype=float))
    xs, mus = xb.ravel(), mb.ravel()
    bad = ~(np.isfinite(xs) & np.isfinite(mus))
    if np.any(bad):
        raise DomainError(f"x and mu must be finite, got x={xs[bad][0]}, mu={mus[bad][0]}")
    if np.any(xs < 0.0):
        raise DomainError(f"x must be nonnegative, got {xs[xs < 0.0][0]}")
    data = sol.factorization
    out = np.zeros(xs.shape)
    if data.k != 0.0:
        _check_range(sol, xs, mus)
        cont = _continuum_integral(sol, xs, mus) / (2.0 * data.model.l0_alpha)
        out = data.k0 + data.k * (xs - mus) + cont + _delta_term(sol, xs, mus)
    return float(out[0]) if xb.ndim == 0 else out.reshape(xb.shape)


def boundary_residual(sol: MilneSolution) -> float:
    """max |phi(0, mu)| over 25 geometric mu from max(1e-3, 2 eta_min) to
    0.95 of the continuum's end (slit edge or eta_max), normalised by |K| (1 + V1)."""
    data = sol.factorization
    if data.k == 0.0:
        return 0.0
    edge = data.table.slit_edge
    end = float(edge) if edge is not None else sol.eta_max
    grid = np.geomspace(max(1e-3, 2.0 * sol.eta_min), 0.95 * end, 25)
    vals = np.abs(evaluate(sol, 0.0, grid))
    return float(np.max(vals)) / (abs(data.k) * (1.0 + data.v1))


def mode_equation_residual(model: AlphaModel, mode: str) -> float:
    """Residual of a discrete mode in the quadrature-discretised transport equation.

    The stationary equation mu phi_x + phi = (1/(2 l0)) int w^(a+4) E dw
    int_-1^1 phi(x, w^-a m') dm' is discretised with a 64-point Gauss rule
    in each integral, the moment l0 being the same discrete sum so the
    constant mode is annihilated identically; the odd integrand kills the
    gradient mode. Returns the max residual over x in (0, 0.7, 3) and mu in
    (-2, -0.5, 0.3, 1.5).
    """
    if mode not in ("+", "-"):
        raise DomainError(f"mode must be '+' or '-', got {mode!r}")
    from .special import einstein

    rule = quadrature.gauss_rule(64)
    w, ww = rule.map_to(0.0, model.omega_cut)
    big_w = ww * w ** (model.alpha + 4) * einstein(w)
    l0_disc = float(np.sum(big_w))
    vk, ak = rule.nodes, rule.weights

    worst = 0.0
    for x in np.array([0.0, 0.7, 3.0]):
        for mu in np.array([-2.0, -0.5, 0.3, 1.5]):
            if mode == "+":
                lhs = 1.0
                inner = np.full_like(w, np.sum(ak))          # int_-1^1 1 dm'
            else:
                lhs = mu * 1.0 + (x - mu)
                inner = x * np.sum(ak) - w ** (-model.alpha) * np.sum(ak * vk)
            rhs = float(np.sum(big_w * inner)) / (2.0 * l0_disc)
            worst = max(worst, abs(lhs - rhs))
    return worst
