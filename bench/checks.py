"""Output checks for the benchmark's CLI commands.

Each check takes the parsed JSON envelope (and, for `profile`, the table
rows) of one command and raises CheckFailed on the first disagreement with a
reference computed apart from the program (see references.py) or with a
property the method must have. Checks never import bosemilne.
"""

from __future__ import annotations

import math

# V1 from the exact route against the independent quadrature. The program's
# own table+tail estimate is 3.5e-6 off at alpha = 1 (7e-8 at alpha = 0.5).
V1_RTOL = 1e-5
# V1(0) and the saddle values rest on the slit integral, accurate to ~1e-10.
V1_ZERO_RTOL = 1e-8
# Root of e^w = (a+4+w)/(a+4-w), relative to e^w.
SADDLE_RESIDUAL = 1e-9
# Cross-method gate of the acceptance suite (criterion 10) and the slope
# guard of the intercept fit.
ORACLE_K0_RTOL = 0.02
ORACLE_SLOPE_RTOL = 0.01
# Field checks, in units of |K| (1 + V1), the scale of phi near the wall.
ZERO_INFLOW_TOL = 1e-3
FAR_FIELD_TOL = 1e-6
EMERGENT_TOL = 1e-4
FAR_X = 20.0
# how check_emergent's value mismatch begins (the known field fault shows as it)
EMERGENT_MISMATCH = "emergent phi(0, "


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _value(env: dict, key: str) -> float:
    try:
        v = float(env["values"][key]["value"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"envelope lacks a numeric values.{key}") from exc
    _require(math.isfinite(v), f"values.{key} is not finite")
    return v


def _close(got: float, want: float, rtol: float, what: str):
    _require(abs(got - want) <= rtol * abs(want),
             f"{what} = {got!r}, reference {want!r} (relative tolerance {rtol:g})")


def _envelope(env: dict, command: str, alpha: float):
    _require(env.get("command") == command, f"envelope command is not {command!r}")
    _require(env.get("inputs", {}).get("alpha") == alpha,
             f"envelope inputs.alpha is not {alpha!r}")


def check_v1(env: dict, alpha: float, v1_ref: dict):
    """`v1 --alpha a`: saddle root by its residual, V1~ = w0^-a V1(0), exact V1
    against the independent quadrature for a < 3/2, a divergence diagnostic
    and no exact value for a >= 3/2."""
    _envelope(env, "v1", alpha)
    a4 = alpha + 4.0
    w0 = _value(env, "omega0")
    _require(0.5 * a4 < w0 < a4, f"omega0 = {w0!r} is not the nontrivial root in (0, {a4})")
    residual = abs(math.exp(w0) - (a4 + w0) / (a4 - w0)) / math.exp(w0)
    _require(residual <= SADDLE_RESIDUAL,
             f"omega0 = {w0!r} leaves saddle residual {residual:.3e}")
    _close(_value(env, "omega0_approx"), a4 * (1.0 - 2.0 * math.exp(-a4)), 1e-14,
           "omega0_approx")
    _close(_value(env, "v1_saddle"), w0 ** (-alpha) * v1_ref[0.0], V1_ZERO_RTOL,
           "v1_saddle")
    if alpha < 1.5:
        rtol = V1_ZERO_RTOL if alpha == 0.0 else V1_RTOL
        _close(_value(env, "v1_exact"), v1_ref[alpha], rtol, "v1_exact")
    else:
        _require("v1_exact" not in env["values"],
                 f"v1_exact reported for alpha = {alpha}, where the integral diverges")
        _require(any("diverg" in d for d in env.get("diagnostics", [])),
                 "no divergence diagnostic for alpha >= 3/2")


def check_oracle(env: dict, alpha: float, k: float, v1_ref: dict):
    """`oracle --alpha a --k K`: DOM intercept within the 2% gate of V1(a) K,
    slope within 1% of K, and the program's analytic reference against ours."""
    _envelope(env, "oracle", alpha)
    want = v1_ref[alpha] * k
    _close(_value(env, "k0_extracted"), want, ORACLE_K0_RTOL, "k0_extracted")
    _close(_value(env, "slope"), k, ORACLE_SLOPE_RTOL, "slope")
    _close(_value(env, "v1_k_reference"), want, V1_RTOL, "v1_k_reference")
    _require(_value(env, "iterations") >= 1, "no DOM iterations reported")


def _grid_rows(rows, xs, mus):
    _require(len(rows) == len(xs) * len(mus),
             f"{len(rows)} table rows for a {len(xs)} x {len(mus)} grid")
    for (x, mu, phi), (x_want, mu_want) in zip(rows, ((x, m) for x in xs for m in mus)):
        _require(abs(x - x_want) <= 1e-12 * max(1.0, abs(x_want))
                 and abs(mu - mu_want) <= 1e-12,
                 f"row ({x!r}, {mu!r}) is not grid point ({x_want!r}, {mu_want!r})")
        _require(math.isfinite(phi), f"phi({x}, {mu}) is not finite")


def check_profile(env: dict, rows, k: float, xs, mus, v1_ref: dict):
    """`profile --alpha 0` on an incoming-direction grid: zero inflow at x = 0
    and the two discrete modes K0 + K (x - mu) at x = 20."""
    _envelope(env, "profile", 0.0)
    v1 = v1_ref[0.0]
    _close(_value(env, "k0"), v1 * k, V1_ZERO_RTOL, "k0")
    scale = abs(k) * (1.0 + v1)
    _require(_value(env, "boundary_residual") <= ZERO_INFLOW_TOL,
             "boundary_residual above 1e-3")
    _grid_rows(rows, xs, mus)
    for x, mu, phi in rows:
        if x == 0.0:
            _require(abs(phi) <= ZERO_INFLOW_TOL * scale,
                     f"inflow phi(0, {mu!r}) = {phi!r} is not zero")
        elif x == FAR_X:
            want = v1 * k + k * (FAR_X - mu)
            _require(abs(phi - want) <= FAR_FIELD_TOL * scale,
                     f"far field phi(20, {mu!r}) = {phi!r}, expected {want!r}")


def check_emergent(env: dict, rows, k: float, mus, v1_ref: dict, h_fn):
    """`profile --alpha 0 --grid-x 0:0:1 --grid-mu=-1:0:N`: the emergent
    distribution phi(0, -mu) = K H(mu) / sqrt(3) of the one-speed Milne problem."""
    _envelope(env, "profile", 0.0)
    _grid_rows(rows, [0.0], mus)
    scale = abs(k) * (1.0 + v1_ref[0.0])
    for _, mu, phi in rows:
        want = k * h_fn(-mu) / math.sqrt(3.0)
        _require(abs(phi - want) <= EMERGENT_TOL * scale,
                 f"{EMERGENT_MISMATCH}{mu!r}) = {phi!r}, expected K H/sqrt(3) = {want!r}")
