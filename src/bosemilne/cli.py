"""Command-line interface: deterministic tabular outputs for every computation.

Subcommands:

    v1           exact and saddle-point jump coefficients for one alpha
    dispersion   boundary-value table (mu, Re lam+, Im lam+, theta) as CSV
    profile      field values phi(x, mu) over a grid plus boundary residual
    oracle       discrete-ordinates solve and comparison against V1(alpha) K
    validate     run the acceptance suite; exit 0 iff everything passes

Every command prints a JSON result envelope to stdout (schema shipped as
envelope.schema.json); table commands additionally write a CSV or JSON table
to --out. A key=value config file supplies defaults that explicit flags
override. Numbers in JSON are the shortest round-trip decimals; the
dispersion CSV uses 17 significant digits. Identical configurations produce
byte-identical outputs.

Each command takes only the flags it reads (build_parser); any other flag is
a usage error. --threads is the one exception: every command accepts and
ignores it (runs are serial), because the benchmark's command lines pass it.
Config files accept one shared key set on every command.

Exit codes: 0 success, 1 computation failure, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, acceptance, dispersion, dom, factorization as fz, field, saddle
from .errors import BoseMilneError, ConfigurationError, DivergenceError
from .special import AlphaModel

_CONFIG_KEYS = {
    "alpha": float, "k": float, "tol": float, "threads": int,
    "format": str, "out": str, "grid_mu": str, "grid_x": str,
    "dom_cells": int, "dom_angles": int, "dom_freqs": int,
    "dom_length": float, "max_iter": int,
}


def _parse_range(spec: str, name: str, geometric: bool) -> np.ndarray:
    """Parse 'min:max:count' into a grid; count must be positive."""
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise ConfigurationError(f"bad {name} spec {spec!r}; expected min:max:count") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigurationError(f"{name}: bounds must be finite")
    if n <= 0:
        raise ConfigurationError(f"{name}: grid must be nonempty")
    if n == 1:
        return np.array([lo])
    if not (lo < hi):
        raise ConfigurationError(f"{name}: need min < max")
    if geometric:
        if lo <= 0:
            raise ConfigurationError(f"{name}: geometric grid needs positive bounds")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _load_config(path: str) -> dict:
    cfg = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = _CONFIG_KEYS[key](value.strip())
    return cfg


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    """Precedence: built-in defaults < config file < explicit flags."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        cfg.update(_load_config(args.config))
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _validate_common(cfg: dict):
    if "alpha" in cfg and not (0.0 <= cfg["alpha"] <= 3.0):
        raise ConfigurationError(f"alpha must be in [0, 3], got {cfg['alpha']}")
    if cfg.get("k") is not None and not math.isfinite(cfg["k"]):
        raise ConfigurationError(f"k must be finite, got {cfg['k']}")
    if cfg.get("tol") is not None and not (0.0 < cfg["tol"] < math.inf):
        raise ConfigurationError(f"tol must be positive and finite, got {cfg['tol']}")
    if cfg.get("max_iter") is not None and cfg["max_iter"] < 1:
        raise ConfigurationError("max_iter must be >= 1")
    if cfg.get("threads") is not None and cfg["threads"] < 1:
        raise ConfigurationError("threads must be >= 1")
    if cfg.get("format") not in (None, "csv", "json"):
        raise ConfigurationError(f"format must be csv or json, got {cfg.get('format')!r}")


def _envelope(command: str, model: AlphaModel, inputs: dict, values: dict,
              diagnostics: list[str]) -> dict:
    """The result envelope; provenance reports the model that ran."""
    q = model.quad_cfg
    return {
        "command": command,
        "inputs": inputs,
        "values": values,
        "provenance": {
            "version": __version__,
            "quadrature": {"base_order": q.base_order, "max_depth": q.max_depth,
                           "omega_cut": model.omega_cut},
        },
        "diagnostics": diagnostics,
    }


def _val(value: float, error) -> dict:
    return {"value": float(value), "error": error if isinstance(error, str) else float(error)}


def _emit(envelope: dict, out: str | None):
    text = json.dumps(envelope, indent=2)
    sys.stdout.write(text + "\n")
    if out:
        Path(out).write_text(text + "\n", newline="\n")


def _write_table(path: str, header: list[str], rows: list[list], fmt: str,
                 digits: int | None = None):
    def render(x) -> str:
        if isinstance(x, float):
            x = float(x)  # numpy scalars repr as np.float64(...)
            return f"{x:.{digits}g}" if digits is not None else repr(x)
        return str(x)

    if fmt == "json":
        payload = [dict(zip(header, [float(x) if isinstance(x, float) else x
                                     for x in row])) for row in rows]
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", newline="\n")
    else:
        lines = [",".join(header)]
        lines += [",".join(render(x) for x in row) for row in rows]
        Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def cmd_v1(args) -> int:
    cfg = _merged(args, {"alpha": 0.0, "threads": 1, "out": None})
    _validate_common(cfg)
    alpha = cfg["alpha"]
    model = AlphaModel.build(alpha)
    diagnostics = []
    values = {}

    w0 = saddle.saddle_root(alpha)
    w0a = saddle.saddle_root_approx(alpha)
    values["omega0"] = _val(w0, 1e-12)
    values["omega0_approx"] = _val(w0a, "exact-by-construction")
    values["omega0_rel_gap"] = _val(abs(w0a - w0) / w0, "exact-by-construction")

    # V1(0) takes the slit route, which needs no table
    v1_zero = fz.v1_coefficient(model if alpha == 0.0 else AlphaModel.build(0.0))
    v1_tilde = saddle.v1_saddle(alpha, v1_zero.value)
    values["v1_saddle"] = _val(v1_tilde, w0 ** (-alpha) * v1_zero.error)

    try:
        est = v1_zero if alpha == 0.0 else fz.v1_coefficient(model)
        values["v1_exact"] = _val(est.value, est.error)
        values["v1_exact_vs_saddle_rel_gap"] = _val(
            abs(est.value - v1_tilde) / est.value, "exact-by-construction")
    except DivergenceError as exc:
        diagnostics.append(f"exact V1 integral divergent: {exc}")

    env = _envelope("v1", model, {"alpha": alpha, "threads": cfg["threads"]},
                    values, diagnostics)
    _emit(env, cfg["out"])
    return 0


def cmd_dispersion(args) -> int:
    cfg = _merged(args, {"alpha": 0.0, "threads": 1,
                         "format": "csv", "out": "dispersion.csv",
                         "grid_mu": None})
    _validate_common(cfg)
    alpha = cfg["alpha"]
    model = AlphaModel.build(alpha)
    table = dispersion.build_theta_table(model)
    if cfg["grid_mu"] is None:
        hi = 0.99999 if alpha == 0.0 else table.mu_max
        grid = np.geomspace(1e-3, hi, 200)
    else:
        grid = _parse_range(cfg["grid_mu"], "grid-mu", geometric=True)

    rows = [[s.mu, s.lambda_real, s.im_plus, s.theta]
            for s in dispersion.evaluate_boundary(table.boundary_fn, grid)]
    _write_table(cfg["out"], ["mu", "lambda_real", "im_plus", "theta"],
                 rows, cfg["format"], digits=17)

    kappa = dispersion.index_kappa(table)
    values = {"kappa": _val(kappa, "exact-by-construction"),
              "mu_max": _val(table.mu_max, "exact-by-construction")}
    diagnostics = []
    if table.slit_edge is None:
        p, residual = table.tail_fit
        values["tail_exponent"] = _val(p, 2.0 * residual)
    env = _envelope("dispersion", model,
                    {"alpha": alpha, "grid_mu": cfg["grid_mu"] or "default",
                     "threads": cfg["threads"], "out": cfg["out"],
                     "format": cfg["format"]},
                    values, diagnostics)
    _emit(env, None)
    return 0


def cmd_profile(args) -> int:
    cfg = _merged(args, {"alpha": 0.0, "k": 1.0, "threads": 1,
                         "format": "csv", "out": "profile.csv",
                         "grid_x": "0:20:9", "grid_mu": "-2:0.9:13"})
    _validate_common(cfg)
    alpha = cfg["alpha"]
    model = AlphaModel.build(alpha)
    sol = field.solve_milne(model, k=cfg["k"])
    xs = _parse_range(cfg["grid_x"], "grid-x", geometric=False)
    mus = _parse_range(cfg["grid_mu"], "grid-mu", geometric=False)
    if np.any(xs < 0):
        raise ConfigurationError("grid-x must be nonnegative")

    xg, mug = (g.ravel() for g in np.meshgrid(xs, mus, indexing="ij"))
    phis = field.evaluate(sol, xg, mug)
    rows = [list(r) for r in zip(xg.tolist(), mug.tolist(), phis.tolist())]
    _write_table(cfg["out"], ["x", "mu", "phi"], rows, cfg["format"])

    residual = field.boundary_residual(sol)
    values = {
        "k0": _val(sol.k0, abs(cfg["k"]) * sol.factorization.v1_error),
        "v1": _val(sol.factorization.v1, sol.factorization.v1_error),
        "boundary_residual": _val(residual, "exact-by-construction"),
    }
    env = _envelope("profile", model,
                    {"alpha": alpha, "k": cfg["k"], "grid_x": cfg["grid_x"],
                     "grid_mu": cfg["grid_mu"], "threads": cfg["threads"],
                     "out": cfg["out"], "format": cfg["format"]},
                    values, [])
    _emit(env, None)
    return 0


def cmd_oracle(args) -> int:
    cfg = _merged(args, {"alpha": 0.0, "k": 1.0, "tol": 1e-9, "threads": 1, "out": None,
                         "dom_cells": 600, "dom_angles": 32, "dom_freqs": 48,
                         "dom_length": 30.0, "max_iter": 2000})
    _validate_common(cfg)
    alpha = cfg["alpha"]
    model = AlphaModel.build(alpha)
    grid = dom.DomGrid.build(model, L=cfg["dom_length"], n_cells=cfg["dom_cells"],
                             n_angle=cfg["dom_angles"], n_freq=cfg["dom_freqs"])
    result = dom.solve(model, grid, k=cfg["k"], tol=cfg["tol"],
                       max_iter=cfg["max_iter"])
    values = {
        "k0_extracted": _val(result.k0_extracted, abs(result.residual)),
        "slope": _val(result.slope, "exact-by-construction"),
        "iterations": _val(result.iterations, "exact-by-construction"),
        "residual": _val(result.residual, "exact-by-construction"),
    }
    diagnostics = list(result.diagnostics)
    try:
        est = fz.v1_coefficient(model)
        ref = est.value * cfg["k"]
        values["v1_k_reference"] = _val(ref, est.error * abs(cfg["k"]))
        if ref != 0.0:
            values["rel_gap"] = _val(abs(result.k0_extracted - ref) / abs(ref),
                                     "exact-by-construction")
    except DivergenceError as exc:
        diagnostics.append(f"no exact V1 reference: {exc}")
    env = _envelope("oracle", model,
                    {"alpha": alpha, "k": cfg["k"], "tol": cfg["tol"],
                     "dom_cells": cfg["dom_cells"], "dom_angles": cfg["dom_angles"],
                     "dom_freqs": cfg["dom_freqs"], "dom_length": cfg["dom_length"],
                     "max_iter": cfg["max_iter"], "threads": cfg["threads"]},
                    values, diagnostics)
    _emit(env, cfg["out"])
    return 0


def cmd_validate(args) -> int:
    cfg = _merged(args, {"threads": 1, "out": None})
    _validate_common(cfg)
    results = acceptance.run_all()
    text = acceptance.render_table(results)
    sys.stdout.write(text + "\n")
    if cfg["out"]:
        Path(cfg["out"]).write_text(text + "\n", newline="\n")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosemilne",
        description="Temperature-jump coefficients for radiative transport "
                    "in a half-space with power-law collision frequency.")
    parser.add_argument("--version", action="version", version=f"bosemilne {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--alpha": dict(type=float, help="scattering exponent in [0, 3]"),
        "--k": dict(type=float, help="imposed dimensionless gradient"),
        "--format": dict(choices=("csv", "json"), help="table format"),
    }

    def common(p, *flags):
        p.add_argument("--config", help="key=value config file (flags override)")
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.add_argument("--threads", type=int,
                       help="accepted for compatibility; has no effect (runs are serial)")
        p.add_argument("--out", help="output path")

    p = sub.add_parser("v1", help="exact and saddle jump coefficients")
    common(p, "--alpha")
    p.set_defaults(fn=cmd_v1)

    p = sub.add_parser("dispersion", help="boundary-value table and index")
    common(p, "--alpha", "--format")
    p.add_argument("--grid-mu", dest="grid_mu", help="min:max:count (geometric)")
    p.set_defaults(fn=cmd_dispersion)

    p = sub.add_parser("profile", help="field values phi(x, mu)")
    common(p, "--alpha", "--k", "--format")
    p.add_argument("--grid-x", dest="grid_x", help="min:max:count (linear)")
    p.add_argument("--grid-mu", dest="grid_mu", help="min:max:count (linear)")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("oracle", help="discrete-ordinates cross-check")
    common(p, "--alpha", "--k")
    p.add_argument("--dom-cells", dest="dom_cells", type=int)
    p.add_argument("--dom-angles", dest="dom_angles", type=int)
    p.add_argument("--dom-freqs", dest="dom_freqs", type=int)
    p.add_argument("--dom-length", dest="dom_length", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--tol", type=float, help="fixed-point residual tolerance")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("validate", help="run the acceptance suite")
    common(p)
    p.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BoseMilneError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
