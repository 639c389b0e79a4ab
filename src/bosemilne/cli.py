"""Command-line interface: deterministic tabular outputs for every computation.

Subcommands:

    v1           exact and saddle-point jump coefficients for one alpha
    dispersion   boundary-value table (mu, Re lam+, Im lam+, theta) as CSV
    profile      field values phi(x, mu) over a grid plus boundary residual
    oracle       discrete-ordinates solve and comparison against V1(alpha) K
    validate     run the acceptance suite; exit 0 iff everything passes

Every command prints a JSON result envelope to stdout (schema shipped as
envelope.schema.json); table commands additionally write a CSV or JSON table
to --out. Numbers in JSON are the shortest round-trip decimals; the
dispersion CSV uses 17 significant digits. Identical configurations produce
byte-identical outputs.

build_parser is the one definition of every flag: its type, its choices and
its default for each command. Each command takes only the flags it reads;
any other flag is a usage error. --threads is the one exception: every
command accepts, validates and otherwise ignores it (runs are serial, and no
output echoes it), because the benchmark's command lines pass it.
A key=value config file (--config) takes the keys of its command's own flags
(dashes or underscores), each value converted and checked by that flag's
type and choices; any other key or value is a configuration error. The
command's arguments are then parsed again into a namespace that holds the
file's values, so built-in defaults < config file < explicit flags.

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


def _load_config(path: str, parser: argparse.ArgumentParser) -> dict:
    """Read key=value lines into {dest: value}: each key names one of the
    command's own flags, and its value passes that flag's type and choices."""
    flags = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
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
        action = flags.get(key)
        if action is None:
            raise ConfigurationError(f"{path}:{lineno}: {parser.prog} does not read {key!r}")
        try:
            cfg[key] = (action.type or str)(value.strip())
            if action.choices is not None and cfg[key] not in action.choices:
                raise ValueError(f"{cfg[key]!r} is not one of {', '.join(action.choices)}")
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return cfg


def _validate_common(args: argparse.Namespace):
    """Checks of the shared flags; alpha's range is AlphaModel.build's."""
    if not math.isfinite(getattr(args, "k", 0.0)):
        raise ConfigurationError(f"k must be finite, got {args.k}")
    if not (0.0 < getattr(args, "tol", 1.0) < math.inf):
        raise ConfigurationError(f"tol must be positive and finite, got {args.tol}")
    if args.threads < 1:
        raise ConfigurationError("threads must be >= 1")


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
    """Rows of Python floats (from .tolist()): JSON records, or CSV in
    shortest round-trip decimals or `digits` significant digits."""
    if fmt == "json":
        text = json.dumps([dict(zip(header, row)) for row in rows], indent=2)
    else:
        render = repr if digits is None else (lambda x: format(x, f".{digits}g"))
        text = "\n".join([",".join(header), *(",".join(map(render, row)) for row in rows)])
    Path(path).write_text(text + "\n", newline="\n")


def cmd_v1(args) -> int:
    alpha = args.alpha
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
    _emit(env, args.out)
    return 0


def cmd_dispersion(args) -> int:
    alpha = args.alpha
    model = AlphaModel.build(alpha)
    table = dispersion.build_theta_table(model)
    if args.grid_mu is None:
        hi = 0.99999 if alpha == 0.0 else table.mu_max
        grid = np.geomspace(1e-3, hi, 200)
    else:
        grid = _parse_range(args.grid_mu, "grid-mu", geometric=True)

    rows = np.column_stack([grid, *dispersion.evaluate_boundary(model, grid)]).tolist()
    _write_table(args.out, ["mu", "lambda_real", "im_plus", "theta"],
                 rows, args.format, digits=17)

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
                    {"alpha": alpha, "grid_mu": args.grid_mu or "default",
                     "out": args.out, "format": args.format},
                    values, diagnostics)
    _emit(env, None)
    return 0


def cmd_profile(args) -> int:
    alpha = args.alpha
    model = AlphaModel.build(alpha)
    sol = field.solve_milne(model, k=args.k)
    xs = _parse_range(args.grid_x, "grid-x", geometric=False)
    mus = _parse_range(args.grid_mu, "grid-mu", geometric=False)
    if np.any(xs < 0):
        raise ConfigurationError("grid-x must be nonnegative")

    xg, mug = (g.ravel() for g in np.meshgrid(xs, mus, indexing="ij"))
    phis = field.evaluate(sol, xg, mug)
    rows = [list(r) for r in zip(xg.tolist(), mug.tolist(), phis.tolist())]
    _write_table(args.out, ["x", "mu", "phi"], rows, args.format)

    residual = field.boundary_residual(sol)
    values = {
        "k0": _val(sol.factorization.k0, abs(args.k) * sol.factorization.v1_error),
        "v1": _val(sol.factorization.v1, sol.factorization.v1_error),
        "boundary_residual": _val(residual, "exact-by-construction"),
    }
    env = _envelope("profile", model,
                    {"alpha": alpha, "k": args.k, "grid_x": args.grid_x,
                     "grid_mu": args.grid_mu, "out": args.out, "format": args.format},
                    values, [])
    _emit(env, None)
    return 0


def cmd_oracle(args) -> int:
    alpha = args.alpha
    model = AlphaModel.build(alpha)
    grid = dom.DomGrid.build(model, L=args.dom_length, n_cells=args.dom_cells,
                             n_angle=args.dom_angles, n_freq=args.dom_freqs)
    result = dom.solve(model, grid, k=args.k, tol=args.tol)
    values = {
        "k0_extracted": _val(result.k0_extracted, abs(result.residual)),
        "slope": _val(result.slope, "exact-by-construction"),
        "iterations": _val(result.iterations, "exact-by-construction"),
        "residual": _val(result.residual, "exact-by-construction"),
    }
    diagnostics = list(result.diagnostics)
    try:
        est = fz.v1_coefficient(model)
        ref = est.value * args.k
        values["v1_k_reference"] = _val(ref, est.error * abs(args.k))
        if ref != 0.0:
            values["rel_gap"] = _val(abs(result.k0_extracted - ref) / abs(ref),
                                     "exact-by-construction")
    except DivergenceError as exc:
        diagnostics.append(f"no exact V1 reference: {exc}")
    env = _envelope("oracle", model,
                    {"alpha": alpha, "k": args.k, "tol": args.tol,
                     "dom_cells": args.dom_cells, "dom_angles": args.dom_angles,
                     "dom_freqs": args.dom_freqs, "dom_length": args.dom_length},
                    values, diagnostics)
    _emit(env, args.out)
    return 0


def cmd_validate(args) -> int:
    results = acceptance.run_all()
    text = acceptance.render_table(results)
    sys.stdout.write(text + "\n")
    if args.out:
        Path(args.out).write_text(text + "\n", newline="\n")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    """A new parser of every command's flags, with their types, choices and
    defaults; `main` keeps the first it builds."""
    parser = argparse.ArgumentParser(
        prog="bosemilne",
        description="Temperature-jump coefficients for radiative transport "
                    "in a half-space with power-law collision frequency.")
    parser.add_argument("--version", action="version", version=f"bosemilne {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--alpha": dict(type=float, default=0.0, help="scattering exponent in [0, 3]"),
        "--k": dict(type=float, default=1.0, help="imposed dimensionless gradient"),
        "--format": dict(choices=("csv", "json"), default="csv", help="table format"),
    }

    def common(p, out, *flags):
        p.add_argument("--config", help="key=value config file (flags override)")
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect (runs are serial)")
        p.add_argument("--out", default=out, help="output path")

    p = sub.add_parser("v1", help="exact and saddle jump coefficients")
    common(p, None, "--alpha")

    p = sub.add_parser("dispersion", help="boundary-value table and index")
    common(p, "dispersion.csv", "--alpha", "--format")
    p.add_argument("--grid-mu", dest="grid_mu", help="min:max:count (geometric)")

    p = sub.add_parser("profile", help="field values phi(x, mu)")
    common(p, "profile.csv", "--alpha", "--k", "--format")
    p.add_argument("--grid-x", dest="grid_x", default="0:20:9", help="min:max:count (linear)")
    p.add_argument("--grid-mu", dest="grid_mu", default="-2:0.9:13",
                   help="min:max:count (linear)")

    p = sub.add_parser("oracle", help="discrete-ordinates cross-check")
    common(p, None, "--alpha", "--k")
    p.add_argument("--dom-cells", dest="dom_cells", type=int, default=600)
    p.add_argument("--dom-angles", dest="dom_angles", type=int, default=32)
    p.add_argument("--dom-freqs", dest="dom_freqs", type=int, default=48)
    p.add_argument("--dom-length", dest="dom_length", type=float, default=30.0)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="bound on the check sweep's residual, times max(1, |k| L)")

    p = sub.add_parser("validate", help="run the acceptance suite")
    common(p, None)
    return parser


# built on the first main call, not at import: start-up does not pay for it
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = _parser.parse_args(argv)
    # looked up per call, so a replaced cmd_* function takes effect
    command = globals()[f"cmd_{args.command}"]
    try:
        if args.config:
            sub = next(a for a in _parser._actions
                       if isinstance(a, argparse._SubParsersAction)).choices[args.command]
            # parsed again by the subparser itself, which fills a default only
            # where the file gave no value; the top-level parser would copy
            # every default over them
            args = sub.parse_args(argv[1:], argparse.Namespace(
                command=args.command, **_load_config(args.config, sub)))
        _validate_common(args)
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
