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

For alpha >= 3/2 the tail pi - theta ~ C mu^((alpha-3)/alpha) decays too
slowly and the V1 integral diverges; the table's tail law reports this as a
DivergenceError pointing at the saddle-point route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import quadrature
from .dispersion import (DispersionTable, build_theta_table, lambda_boundary_batch,
                         require_convergent_tail)
from .errors import DomainError, RangeError
from .special import AlphaModel

__all__ = [
    "FactorizationData",
    "SpectrumCoefficient",
    "V1Estimate",
    "N_SIGN",
    "v1_coefficient",
    "build_factorization",
    "v_transform",
    "v_cut",
    "x_factor",
    "x_boundary",
    "n_coefficient",
    "n_jump_complex",
    "spectrum_table",
]

# Sign of the continuum coefficient relative to (2 l0 K / pi) e^{-Vp} sin(pi-theta).
# Derived from the jump of C0/X across the cut and confirmed operationally:
# with -1 the boundary residual at x=0 is at quadrature level, with +1 it is O(1).
N_SIGN = -1.0

# rows per lockstep call in v_cut and field.evaluate; bounds the node arrays
# of one step
ROWS = 32


@dataclass(frozen=True)
class V1Estimate:
    """Temperature-jump coefficient with an error estimate."""

    value: float
    error: float


@dataclass(frozen=True)
class SpectrumCoefficient:
    """Continuous-spectrum expansion coefficient n(eta) at one node."""

    eta: float
    n_value: float

    def __post_init__(self):
        if not math.isfinite(self.n_value):
            raise DomainError(f"n({self.eta}) is not finite")


def v1_coefficient(model: AlphaModel, table: DispersionTable | None = None, *,
                   tol: float = 1e-10, rule_order: int | None = None) -> V1Estimate:
    """Jump coefficient V1 = (1/pi) int_0^inf (pi - theta(mu)) dmu.

    Slit-type tables (alpha = 0, saddle surrogates) integrate the exact
    boundary function adaptively; the logarithmically slow approach of theta
    to pi at the slit edge is tamed by an exponential substitution. This
    route reads no table values, so without a table alpha = 0 integrates
    its closed-form boundary function directly. For alpha > 0 the panel
    table integrates its interpolant and the asymptotic tail
    (DispersionTable.excess_integral); without a table the default one is
    built, unless the tail exponent alone already makes the integral
    diverge (DivergenceError).
    """
    rule = quadrature.gauss_rule(rule_order or model.quad_cfg.base_order)
    if table is None:
        if model.alpha == 0.0:
            return _v1_slit(lambda mus: lambda_boundary_batch(model, mus), 1.0, rule, tol)
        require_convergent_tail(model.alpha)
        table = build_theta_table(model)
    if table.slit_edge is not None:
        return _v1_slit(table.boundary_fn, table.slit_edge, rule, tol)
    value, error = table.excess_integral(rule)
    return V1Estimate(value=value / math.pi, error=error / math.pi)


def _v1_slit(boundary_fn, edge: float, rule, tol: float) -> V1Estimate:
    """V1 from the boundary function of a slit that ends at `edge`."""
    def resid(mus):
        return np.array([math.pi - s.theta for s in boundary_fn(mus)])

    body, err1 = quadrature.integrate_with_error(
        resid, 0.0, 0.9 * edge, tol, rule=rule, max_depth=24)
    # near the edge substitute mu = edge - e^{-s}: the integrand becomes
    # exponentially small and smooth in s
    s0 = -math.log(0.1 * edge)

    def edge_piece(s):
        return resid(edge - np.exp(-s)) * np.exp(-s)

    near, err2 = quadrature.integrate_with_error(
        edge_piece, s0, s0 + 45.0, tol, rule=rule, max_depth=24)
    return V1Estimate(value=(body + near) / math.pi, error=(err1 + err2) / math.pi)


@dataclass(frozen=True)
class FactorizationData:
    """Everything the field evaluation needs: theta table, V1, K, C0, K0."""

    model: AlphaModel
    table: DispersionTable
    v1: float
    v1_error: float
    k: float

    def __post_init__(self):
        if self.v1 <= 0:
            raise DomainError(f"V1 must be positive, got {self.v1}")

    @property
    def c0(self) -> float:
        return -2.0 * self.model.l0_alpha * self.k

    @property
    def k0(self) -> float:
        return self.v1 * self.k


def build_factorization(model: AlphaModel, table: DispersionTable,
                        k: float = 1.0, v1_est: V1Estimate | None = None) -> FactorizationData:
    est = v1_est or v1_coefficient(model, table)
    return FactorizationData(model=model, table=table, v1=est.value,
                             v1_error=est.error, k=k)


def _tail_cauchy(data: FactorizationData, z) -> np.ndarray:
    """int_{mu_max}^inf (theta - pi)/(t - z) dt via the table's tail law, for every z.

    Substituting u = 1/t maps it to a regular integral on (0, 1/mu_max);
    valid whenever z is not on (mu_max, inf). Real or complex z.
    """
    z = np.atleast_1d(z)
    p, c = data.table.tail_exponent, data.table.tail_coeff
    if p is None:
        return np.zeros(z.shape)
    u_max = 1.0 / data.table.mu_max

    def f(u, z):
        return u ** (-p - 1.0) / (1.0 - z * u)

    val = quadrature.integrate_rows(f, np.zeros(z.shape), np.full(z.shape, u_max), 1e-10,
                                    params=(z,), max_depth=24)
    return -c * val


def v_transform(data: FactorizationData, z, *, tol: float = 1e-10) -> complex:
    """Cauchy transform V(z) = (1/pi) int_0^inf (theta(t) - pi)/(t - z) dt.

    z must stay off the closed positive real axis (the cut); boundary values
    on the cut come from v_cut.
    """
    zc = complex(z)
    if zc.imag == 0.0 and zc.real >= 0.0:
        raise DomainError("z is on the cut [0, inf); use v_cut for boundary values")
    table = data.table

    def f(t):
        return (table.theta_at(t) - math.pi) / (t - zc)

    pts = []
    if 0.0 < zc.real < table.mu_max:
        pts.append(zc.real)
    val = quadrature.integrate(f, 0.0, table.mu_max, tol, max_depth=30, points=pts)
    val += complex(_tail_cauchy(data, zc)[0])
    return val / math.pi


def v_cut(data: FactorizationData, eta, *, tol: float = 1e-9):
    """Principal value Vp(eta) of the Cauchy transform on the cut, 0 < eta < mu_max.

    Scalar or 1-d array eta; the principal values go through
    quadrature.pv_rows, ROWS etas per call.
    """
    table = data.table
    arr = np.asarray(eta, dtype=float)
    etas = np.atleast_1d(arr)
    outside = ~((0.0 < etas) & (etas < table.mu_max))
    if np.any(outside):
        raise RangeError(f"eta={etas[outside][0]} outside the tabulated cut (0, {table.mu_max})")

    def g(t):
        return table.theta_at(t) - math.pi

    out = np.empty(etas.shape)
    for s in range(0, len(etas), ROWS):
        e = etas[s:s + ROWS]
        pv = quadrature.pv_rows(g, e, 0.0, table.mu_max, tol, slopes=table.theta_slope(e),
                                max_depth=30)
        out[s:s + ROWS] = (pv + _tail_cauchy(data, e).real) / math.pi
    return out if arr.ndim else float(out[0])


def x_factor(data: FactorizationData, z, *, tol: float = 1e-10) -> complex:
    """Factorisation function X(z) = (1/z) exp V(z); the origin is excluded."""
    zc = complex(z)
    if zc == 0.0:
        raise DomainError("X(z) has the explicit 1/z factor; z = 0 is excluded")
    return (1.0 / zc) * _cexp(v_transform(data, zc, tol=tol))


def x_boundary(data: FactorizationData, mu: float, side: str = "above") -> complex:
    """Boundary value X+-(mu) = (1/mu) exp(Vp(mu) +- i (theta(mu) - pi)) on the cut."""
    if side not in ("above", "below"):
        raise DomainError(f"side must be 'above' or 'below', got {side!r}")
    sgn = 1.0 if side == "above" else -1.0
    vp = v_cut(data, mu)
    phase = sgn * (float(data.table.theta_at(mu)) - math.pi)
    return (1.0 / mu) * _cexp(complex(vp, phase))


def _cexp(w: complex) -> complex:
    return complex(math.exp(w.real) * math.cos(w.imag),
                   math.exp(w.real) * math.sin(w.imag))


def n_coefficient(data: FactorizationData, eta: float, *,
                  vp: float | None = None) -> SpectrumCoefficient:
    """Continuum coefficient n(eta) from the jump of C0/X across the cut.

    Real closed form N_SIGN * (2 l0 K / pi) e^{-Vp} sin(pi - theta). Beyond a
    slit edge theta == pi and the coefficient vanishes identically; beyond the
    tabulated range of an alpha > 0 table the value is not interpolable.
    """
    if eta <= 0:
        raise DomainError(f"eta must be positive, got {eta}")
    table = data.table
    if table.slit_edge is not None and eta >= table.slit_edge:
        return SpectrumCoefficient(eta=eta, n_value=0.0)
    if eta >= table.mu_max:
        raise RangeError(f"eta={eta} beyond the tabulated range {table.mu_max}")
    if data.k == 0.0:
        return SpectrumCoefficient(eta=eta, n_value=0.0)
    vp = v_cut(data, eta) if vp is None else vp
    theta = float(table.theta_at(eta))
    amp = 2.0 * data.model.l0_alpha * data.k / math.pi
    return SpectrumCoefficient(eta=eta,
                               n_value=N_SIGN * amp * math.exp(-vp) * math.sin(math.pi - theta))


def n_jump_complex(data: FactorizationData, eta: float) -> complex:
    """n(eta) evaluated literally as -2 l0 K (1/X+ - 1/X-) / (2 pi i eta).

    Independent of the real closed form used by n_coefficient; its imaginary
    part must vanish by conjugate symmetry (reality check in the tests).
    """
    xp = x_boundary(data, eta, "above")
    xm = x_boundary(data, eta, "below")
    return -2.0 * data.model.l0_alpha * data.k * (1.0 / xp - 1.0 / xm) \
        / (2.0j * math.pi * eta)


def spectrum_table(data: FactorizationData, etas: Sequence[float] | None = None,
                   *, n_nodes: int = 400) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tabulate (eta, Vp(eta), n(eta)) over the cut.

    Returns arrays (etas, vp, n). Default nodes are the table's nodes,
    subsampled to at most n_nodes (n is smooth; each node costs one
    principal-value integral), strictly inside the tabulated range so the
    principal value is well defined at each of them.
    """
    table = data.table
    if etas is None:
        mu = table.mu
        inner = mu[(mu > 0.0) & (mu < table.mu_max)]
        if len(inner) > n_nodes:
            idx = np.unique(np.linspace(0, len(inner) - 1, n_nodes).astype(int))
            inner = inner[idx]
        etas = inner
    etas = np.asarray(etas, dtype=float)
    vps = v_cut(data, etas)
    ns = np.array([n_coefficient(data, e, vp=vp).n_value
                   for e, vp in zip(etas, vps)])
    return etas, vps, ns
