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
sin(pi - theta); this keeps the term finite where xi_a underflows. Beyond a
slit edge (alpha = 0, mu > 1) the continuum carries no delta mode and the
term is absent. At the edge itself (mu = 1) the continuum integrand
diverges like a log-log, and within 2e-6 below it the principal value sits
on that divergence; within 2e-6 beyond it the integrand's pole sits too
close to the table's end for the quadrature; beyond the table of an
alpha > 0 solution (mu >= eta_max) the algebraic tail has its pole inside
its integral. All of these raise RangeError before any integration.

Zero inflow phi(0, mu > 0) = 0 is not imposed anywhere in this module; it
emerges from the factorisation constants, so the boundary residual is the
end-to-end consistency meter of the whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import quadrature
from .errors import DomainError, RangeError
from .factorization import (FactorizationData, N_SIGN, ROWS, build_factorization,
                            spectrum_table, v_cut)
from .dispersion import build_theta_table
from .special import AlphaModel

__all__ = [
    "MilneSolution",
    "discrete_modes",
    "solve_milne",
    "evaluate",
    "boundary_residual",
    "mode_equation_residual",
]

_EXP_UNDERFLOW = 745.0
# |mu - edge| below which phi is not evaluated next to the slit edge: beyond
# it the plain row's pole sits so close to the table end (eta_max = 1 -
# 1.13e-13) that its quadrature stalls (measured on the default table: up to
# mu - 1 = 1.40e-6 at x = 0 and 1e-3, 1.2e-6 at x = 0.01, 1.1e-6 at x = 0.1,
# 5.4e-7 at x = 0.3, 1.8e-7 at x = 1, none at x = 30); below it the principal
# value sits on the log-log divergence (measured at x = 0: |phi|/(1 + V1)
# 2.3e-7 at 1 - 1e-7, 2.5e-6 at 1 - 1e-8, 4.5e-5 at 1 - 1e-9 and 5.3e-4 at
# 1 - 1e-10, where the exact value is 0)
_EDGE_BAND = 2e-6


def discrete_modes(x: float, mu: float) -> tuple[float, float]:
    """The two polynomial solutions of the transport equation: (1, x - mu)."""
    return 1.0, x - mu


@dataclass(frozen=True)
class MilneSolution:
    """Factorisation constants plus the tabulated continuum coefficient."""

    model: AlphaModel
    factorization: FactorizationData
    k: float
    k0: float
    _etas: np.ndarray = dc_field(repr=False)
    _vps: np.ndarray = dc_field(repr=False)
    _ns: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        if len(self._etas) < 4 or np.any(np.diff(self._etas) <= 0):
            raise DomainError("continuum nodes must be positive and strictly increasing")
        if self.k != 0.0 and abs(self.k0 / self.k - self.factorization.v1) > 1e-13:
            raise DomainError("k0/k must equal the factorisation V1")

    @cached_property
    def eta_n_interp(self) -> PchipInterpolator:
        # eta * n(eta) with the exact 0 limit prepended
        grid = np.concatenate([[0.0], self._etas])
        vals = np.concatenate([[0.0], self._etas * self._ns])
        return PchipInterpolator(grid, vals, extrapolate=False)

    @cached_property
    def vp_interp(self) -> PchipInterpolator:
        return PchipInterpolator(self._etas, self._vps, extrapolate=False)

    @property
    def eta_min(self) -> float:
        return float(self._etas[0])

    @property
    def eta_max(self) -> float:
        return float(self._etas[-1])

    @property
    def support_end(self) -> float:
        edge = self.factorization.table.slit_edge
        return float(edge) if edge is not None else self.eta_max


def solve_milne(model: AlphaModel, k: float = 1.0, *, table=None) -> MilneSolution:
    """Build the full solution: theta table, factorisation, continuum table."""
    if table is None:
        table = build_theta_table(model)
    data = build_factorization(model, table, k=k)
    etas, vps, ns = spectrum_table(data)
    return MilneSolution(model=model, factorization=data, k=k, k0=data.k0,
                         _etas=etas, _vps=vps, _ns=ns)


def _tail_law(sol: MilneSolution) -> float | None:
    """Exponent p of the algebraic continuum tail beyond the grid, or None without one."""
    table = sol.factorization.table
    p = table.tail_exponent
    if table.slit_edge is not None or p is None or p >= -1.0 or sol._ns[-1] == 0.0:
        return None
    return p


def _check_range(sol: MilneSolution, x: np.ndarray, mu: np.ndarray) -> None:
    """RangeError for the points phi cannot be evaluated at, before any integration."""
    edge = sol.factorization.table.slit_edge
    beyond = mu > sol.eta_max
    with np.errstate(divide="ignore", invalid="ignore"):
        needs_vp = beyond & (x / mu <= 50.0)
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
        (needs_vp, f"lies beyond {span}: the delta mode has no Vp(mu) there"),
    )
    for bad, why in checks:
        if np.any(bad):
            raise RangeError(f"mu={float(mu[bad][0])!r} {why}")


def _continuum_integral(sol: MilneSolution, x, mu, tol: float = 1e-9):
    """P int e^{-x/eta} eta n(eta) / (eta - mu) deta over the tabulated range, plus the tail.

    x and mu broadcast; principal-value rows (0 < mu < eta_max) and plain
    rows each go through one batched quadrature.
    """
    xb, mb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(mu, dtype=float))
    x, mu = xb.ravel(), mb.ravel()
    interp = sol.eta_n_interp
    b = sol.eta_max

    def f(eta, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return interp(eta) * np.exp(-np.where(eta > 0, x / eta, np.inf))

    def plain(eta, x, mu):
        return f(eta, x) / (eta - mu)

    out = np.empty(mu.shape)
    pv = (0.0 < mu) & (mu < b)
    if np.any(pv):
        out[pv] = quadrature.pv_rows(f, mu[pv], 0.0, b, tol, params=(x[pv],), max_depth=30)
    if not np.all(pv):
        n = int(np.sum(~pv))
        out[~pv] = quadrature.integrate_rows(
            plain, np.zeros(n), np.full(n, b), tol, params=(x[~pv], mu[~pv]), max_depth=30,
            scale=float(np.max(np.abs(sol._ns)) + 1e-300))
    return (out + _continuum_tail(sol, x, mu)).reshape(mb.shape)[()]


def _continuum_tail(sol: MilneSolution, x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Algebraic continuum tail beyond the grid (alpha > 0 only); mu < eta_max."""
    p = _tail_law(sol)
    if p is None:
        return np.zeros(mu.shape)
    eta_ref = sol.eta_max
    n_ref = float(sol._ns[-1])

    def f(u, x, mu):
        return u ** (-p - 2.0) * np.exp(-x * u) / (1.0 - mu * u)

    val = quadrature.integrate_rows(f, np.zeros(mu.shape), np.full(mu.shape, 1.0 / eta_ref),
                                    1e-9, params=(x, mu), max_depth=24)
    return n_ref * eta_ref ** (-p) * val


def _delta_term(sol: MilneSolution, x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Delta-mode contribution for mu > 0, in the xi-cancelled form; 0 elsewhere."""
    table = sol.factorization.table
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = x / mu
    live = (mu > 0.0) & (arg <= _EXP_UNDERFLOW)
    if table.slit_edge is not None:
        live &= mu < table.slit_edge
    off_table = (mu < sol.eta_min) | (mu > sol.eta_max)
    live &= ~(off_table & (x > 0.0) & (arg > 50.0))
    out = np.zeros(mu.shape)
    m = mu[live]
    # below the continuum table Vp comes from its principal-value integral
    below = m < sol.eta_min
    vp = np.empty(m.shape)
    if np.any(below):
        vp[below] = v_cut(sol.factorization, m[below])
    vp[~below] = sol.vp_interp(m[~below])
    theta = table.theta_at(m)
    out[live] = N_SIGN * sol.k * m * np.exp(-vp) * np.cos(theta) * np.exp(-arg[live])
    return out


def evaluate(sol: MilneSolution, x, mu):
    """Field value phi(x, mu); x >= 0, principal value inside the continuum.

    x and mu broadcast against each other (scalars give a float). Every
    point is range-checked first; then ROWS points at a time share each
    batched quadrature.
    """
    xb, mb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(mu, dtype=float))
    xs, mus = xb.ravel(), mb.ravel()
    if np.any(xs < 0.0):
        raise DomainError(f"x must be nonnegative, got {xs[xs < 0.0][0]}")
    out = np.zeros(xs.shape)
    if sol.k != 0.0:
        _check_range(sol, xs, mus)
        for s in range(0, len(xs), ROWS):
            x, mu = xs[s:s + ROWS], mus[s:s + ROWS]
            cont = _continuum_integral(sol, x, mu) / (2.0 * sol.model.l0_alpha)
            out[s:s + ROWS] = sol.k0 + sol.k * (x - mu) + cont + _delta_term(sol, x, mu)
    return float(out[0]) if xb.ndim == 0 else out.reshape(xb.shape)


def boundary_residual(sol: MilneSolution, grid=None) -> float:
    """max |phi(0, mu)| over a positive-mu grid, normalised by |K| (1 + V1)."""
    if sol.k == 0.0:
        return 0.0
    if grid is None:
        hi = 0.95 * sol.support_end
        grid = np.geomspace(max(1e-3, 2.0 * sol.eta_min), hi, 25)
    vals = np.abs(evaluate(sol, 0.0, grid))
    return float(np.max(vals)) / (abs(sol.k) * (1.0 + sol.factorization.v1))


def mode_equation_residual(model: AlphaModel, mode: str, x_grid=None,
                           mu_grid=None, n_v: int = 64,
                           n_omega: int = 64) -> float:
    """Residual of a discrete mode in the quadrature-discretised transport equation.

    The stationary equation mu phi_x + phi = (1/(2 l0)) int w^(a+4) E dw
    int_-1^1 phi(x, w^-a m') dm' is discretised with a Gauss rule in each
    integral, the moment l0 being the same discrete sum so the constant mode
    is annihilated identically; the odd integrand kills the gradient mode.
    Returns the max residual over the (x, mu) grid.
    """
    if mode not in ("+", "-"):
        raise DomainError(f"mode must be '+' or '-', got {mode!r}")
    from .special import einstein

    x_grid = np.asarray([0.0, 0.7, 3.0] if x_grid is None else x_grid, dtype=float)
    mu_grid = np.asarray([-2.0, -0.5, 0.3, 1.5] if mu_grid is None else mu_grid, dtype=float)

    w_rule = quadrature.gauss_rule(n_omega)
    w, ww = w_rule.map_to(0.0, model.omega_cut)
    big_w = ww * w ** (model.alpha + 4) * einstein(w)
    l0_disc = float(np.sum(big_w))
    v_rule = quadrature.gauss_rule(n_v)
    vk, ak = v_rule.nodes, v_rule.weights

    worst = 0.0
    for x in x_grid:
        for mu in mu_grid:
            if mode == "+":
                lhs = 1.0
                inner = np.full_like(w, np.sum(ak))          # int_-1^1 1 dm'
            else:
                lhs = mu * 1.0 + (x - mu)
                inner = x * np.sum(ak) - w ** (-model.alpha) * np.sum(ak * vk)
            rhs = float(np.sum(big_w * inner)) / (2.0 * l0_disc)
            worst = max(worst, abs(lhs - rhs))
    return worst
