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
sin(pi - theta); this keeps the term finite where xi_a underflows. Outside a
slit edge (alpha = 0, mu > 1) the continuum carries no delta mode and the
term is absent.

Zero inflow phi(0, mu > 0) = 0 is not imposed anywhere in this module; it
emerges from the factorisation constants, so the boundary residual is the
end-to-end consistency meter of the whole pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import quadrature
from .errors import DomainError, RangeError
from .factorization import (FactorizationData, N_SIGN, build_factorization, spectrum_table,
                            v_cut)
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


def solve_milne(model: AlphaModel, k: float = 1.0, *, table=None,
                threads: int = 1) -> MilneSolution:
    """Build the full solution: theta table, factorisation, continuum table."""
    if table is None:
        table = build_theta_table(model, threads=threads)
    data = build_factorization(model, table, k=k)
    etas, vps, ns = spectrum_table(data, threads=threads)
    return MilneSolution(model=model, factorization=data, k=k, k0=data.k0,
                         _etas=etas, _vps=vps, _ns=ns)


def _continuum_integral(sol: MilneSolution, x: float, mu: float,
                        tol: float = 1e-9) -> float:
    """P int e^{-x/eta} eta n(eta) / (eta - mu) deta over the tabulated range."""
    interp = sol.eta_n_interp
    a, b = 0.0, sol.eta_max

    def f(eta):
        eta = np.asarray(eta, dtype=float)
        vals = interp(eta)
        if x > 0.0:
            with np.errstate(divide="ignore"):
                vals = vals * np.exp(-np.where(eta > 0, x / eta, np.inf))
        return vals

    if a < mu < b:
        pv = quadrature.pv_integral(
            quadrature.PvIntegrand(f=f, pole=mu, interval=(a, b)),
            tol=tol, max_depth=30)
    else:
        pv = quadrature.integrate(lambda eta: f(eta) / (eta - mu), a, b, tol, max_depth=30,
                                  scale=float(np.max(np.abs(sol._ns)) + 1e-300))
    return pv + _continuum_tail(sol, x, mu)


def _continuum_tail(sol: MilneSolution, x: float, mu: float) -> float:
    """Algebraic continuum tail beyond the grid (alpha > 0 only)."""
    table = sol.factorization.table
    if table.slit_edge is not None or table.tail_exponent is None:
        return 0.0
    p = table.tail_exponent
    if p >= -1.0 or sol._ns[-1] == 0.0:
        return 0.0
    eta_ref = sol.eta_max
    n_ref = float(sol._ns[-1])
    u_max = 1.0 / eta_ref

    def f(u):
        u = np.asarray(u, dtype=float)
        return u ** (-p - 2.0) * np.exp(-x * u) / (1.0 - mu * u)

    val = quadrature.integrate(f, 0.0, u_max, 1e-9, max_depth=24)
    return n_ref * eta_ref ** (-p) * val


def _delta_term(sol: MilneSolution, x: float, mu: float) -> float:
    """Delta-mode contribution for mu > 0, in the xi-cancelled form."""
    table = sol.factorization.table
    if table.slit_edge is not None and mu >= table.slit_edge:
        return 0.0
    arg = x / mu
    if arg > _EXP_UNDERFLOW:
        return 0.0
    if not (sol.eta_min <= mu <= sol.eta_max) and x > 0.0 and arg > 50.0:
        return 0.0
    if mu > sol.eta_max:
        raise RangeError(
            f"mu={mu} outside the interpolable continuum range "
            f"[{sol.eta_min:.3g}, {sol.eta_max:.3g}]")
    # below the continuum table Vp comes from its principal-value integral
    vp = v_cut(sol.factorization, mu) if mu < sol.eta_min else float(sol.vp_interp(mu))
    theta = float(table.theta_at(mu))
    return N_SIGN * sol.k * mu * math.exp(-vp) * math.cos(theta) * math.exp(-arg)


def evaluate(sol: MilneSolution, x: float, mu: float) -> float:
    """Field value phi(x, mu); x >= 0, principal value inside the continuum."""
    if x < 0.0:
        raise DomainError(f"x must be nonnegative, got {x}")
    base = sol.k0 + sol.k * (x - mu)
    if sol.k == 0.0:
        return 0.0
    cont = _continuum_integral(sol, x, mu) / (2.0 * sol.model.l0_alpha)
    delta = _delta_term(sol, x, mu) if mu > 0.0 else 0.0
    return base + cont + delta


def boundary_residual(sol: MilneSolution, grid=None) -> float:
    """max |phi(0, mu)| over a positive-mu grid, normalised by |K| (1 + V1)."""
    if sol.k == 0.0:
        return 0.0
    if grid is None:
        hi = 0.95 * sol.support_end
        grid = np.geomspace(max(1e-3, 2.0 * sol.eta_min), hi, 25)
    vals = [abs(evaluate(sol, 0.0, float(m))) for m in np.asarray(grid, dtype=float)]
    return max(vals) / (abs(sol.k) * (1.0 + sol.factorization.v1))


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
