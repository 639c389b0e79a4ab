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
a usage error. --threads is the one exception: every command accepts,
validates and otherwise ignores it (runs are serial, and no output echoes
it), because the benchmark's command lines pass it.
A config file takes the keys of its command's flags (dashes or underscores);
any other key is a configuration error.

Every command runs with numpy's OpenBLAS on the calling thread alone
(util.blas_one_thread), and the previous thread count comes back when it
returns: the dense calls are small, and a second BLAS worker would only
spin through the work between them and double oracle's CPU time.

Start-up: importing this module loads numpy but not scipy, and v1,
dispersion, profile and oracle run without it (the field's continuum is
Chebyshev panels of the package's own). Only validate loads scipy.special,
for criterion 4's Gamma/zeta oracle, kept independent of the package: scipy
is the 'validate' extra, and without it criterion 4 alone fails.

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
from .errors import BoseMilneError, ConfigurationError, ConsistencyError, DivergenceError
from .special import AlphaModel
from .util import blas_one_thread

_CONFIG_KEYS = {
    "alpha": float, "k": float, "tol": float, "threads": int,
    "format": str, "out": str, "grid_mu": str, "grid_x": str,
    "dom_cells": int, "dom_angles": int, "dom_freqs": int,
    "dom_length": float,
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
    if geometric and lo <= 0:
        raise ConfigurationError(f"{name}: geometric grid needs positive bounds")
    if n == 1:
        return np.array([lo])
    if not (lo < hi):
        raise ConfigurationError(f"{name}: need min < max")
    if geometric:
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _load_config(path: str, command: str, keys) -> dict:
    """Read key=value lines; only the keys of the command's own flags."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        if key not in keys:
            raise ConfigurationError(f"{path}:{lineno}: {command} does not read {key!r}")
        try:
            cfg[key] = _CONFIG_KEYS[key](value.strip())
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return cfg


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    """Precedence: built-in defaults < config file < explicit flags. The
    config keys a command accepts are the destinations of its own flags."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        keys = vars(args).keys() - {"command", "config", "fn"}
        cfg.update(_load_config(args.config, args.command, keys))
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _validate_common(cfg: dict):
    """Checks of the shared flags; alpha's range is AlphaModel.build's."""
    if cfg.get("k") is not None and not math.isfinite(cfg["k"]):
        raise ConfigurationError(f"k must be finite, got {cfg['k']}")
    if cfg.get("tol") is not None and not (0.0 < cfg["tol"] < math.inf):
        raise ConfigurationError(f"tol must be positive and finite, got {cfg['tol']}")
    if cfg.get("threads") is not None and cfg["threads"] < 1:
        raise ConfigurationError("threads must be >= 1")
    if cfg.get("format") not in (None, "csv", "json"):
        raise ConfigurationError(f"format must be csv or json, got {cfg.get('format')!r}")


def _envelope(command: str, model: AlphaModel, inputs: dict, values: dict,
              diagnostics: list[str]) -> dict:
    """The result envelope; provenance reports the frequency cutoff of the
    model that ran, the one setting of quadrature that every command shares."""
    return {
        "command": command,
        "inputs": inputs,
        "values": values,
        "provenance": {
            "version": __version__,
            "quadrature": {"omega_cut": model.omega_cut},
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

    env = _envelope("v1", model, {"alpha": alpha}, values, diagnostics)
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

    rows = np.column_stack([grid, *dispersion.evaluate_boundary(model, grid)]).tolist()
    _write_table(cfg["out"], ["mu", "lambda_real", "im_plus", "theta"],
                 rows, cfg["format"], digits=17)

    values, diagnostics = {}, []
    if table.tail is not None and table.tail[1] >= 0.0:
        # alpha = 3: the tail exponent (alpha - 3)/alpha is 0
        diagnostics.append(f"kappa omitted: at alpha = {alpha:g} the tail law pi - theta = "
                           f"c mu^p has p = {table.tail[1]:g} and does not decay, so the "
                           "winding cannot be closed")
    else:
        values["kappa"] = _val(dispersion.index_kappa(table), "exact-by-construction")
    values["mu_max"] = _val(table.mu_max, "exact-by-construction")
    if table.slit_edge is None:
        # up to alpha 0.29 (0.295 fits; measured in steps of 0.005) theta reaches
        # pi at working precision on the last decade, so ln(pi - theta) has no line
        try:
            p, residual = table.tail_fit
        except ConsistencyError as exc:
            diagnostics.append("tail_exponent omitted: theta reaches pi at working precision "
                               f"within the table ({exc})")
        else:
            values["tail_exponent"] = _val(p, 2.0 * residual)
    env = _envelope("dispersion", model,
                    {"alpha": alpha, "grid_mu": cfg["grid_mu"] or "default",
                     "out": cfg["out"], "format": cfg["format"]},
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
        "k0": _val(sol.factorization.k0, abs(cfg["k"]) * sol.factorization.v1_error),
        "v1": _val(sol.factorization.v1, sol.factorization.v1_error),
        "boundary_residual": _val(residual, "exact-by-construction"),
    }
    env = _envelope("profile", model,
                    {"alpha": alpha, "k": cfg["k"], "grid_x": cfg["grid_x"],
                     "grid_mu": cfg["grid_mu"], "out": cfg["out"], "format": cfg["format"]},
                    values, [])
    _emit(env, None)
    return 0


def cmd_oracle(args) -> int:
    cfg = _merged(args, {"alpha": 0.0, "k": 1.0, "tol": 1e-9, "threads": 1, "out": None,
                         "dom_cells": 600, "dom_angles": 32, "dom_freqs": 48,
                         "dom_length": 30.0})
    _validate_common(cfg)
    alpha = cfg["alpha"]
    model = AlphaModel.build(alpha)
    grid = dom.DomGrid.build(model, L=cfg["dom_length"], n_cells=cfg["dom_cells"],
                             n_angle=cfg["dom_angles"], n_freq=cfg["dom_freqs"])
    result = dom.solve(model, grid, k=cfg["k"], tol=cfg["tol"])
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
                     "dom_freqs": cfg["dom_freqs"], "dom_length": cfg["dom_length"]},
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
    """A new parser of every command's flags; `main` keeps the first it builds."""
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

    p = sub.add_parser("dispersion", help="boundary-value table and index")
    common(p, "--alpha", "--format")
    p.add_argument("--grid-mu", dest="grid_mu", help="min:max:count (geometric)")

    p = sub.add_parser("profile", help="field values phi(x, mu)")
    common(p, "--alpha", "--k", "--format")
    p.add_argument("--grid-x", dest="grid_x", help="min:max:count (linear)")
    p.add_argument("--grid-mu", dest="grid_mu", help="min:max:count (linear)")

    p = sub.add_parser("oracle", help="discrete-ordinates cross-check")
    common(p, "--alpha", "--k")
    p.add_argument("--dom-cells", dest="dom_cells", type=int)
    p.add_argument("--dom-angles", dest="dom_angles", type=int)
    p.add_argument("--dom-freqs", dest="dom_freqs", type=int)
    p.add_argument("--dom-length", dest="dom_length", type=float)
    p.add_argument("--tol", type=float,
                   help="bound on the check sweep's residual, times max(1, |k| L)")

    p = sub.add_parser("validate", help="run the acceptance suite")
    common(p)
    return parser


# built on the first main call, not at import: start-up does not pay for it
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # looked up per call, so a replaced cmd_* function takes effect
    command = globals()[f"cmd_{args.command}"]
    try:
        with blas_one_thread():
            return command(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BoseMilneError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
