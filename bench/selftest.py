"""Show that every output check accepts real output and rejects a perturbed copy.

    python3 bench/selftest.py      # from the root of a checkout, about 20 s

Runs one small instance of each checked command through bosemilne.cli,
requires its check to pass (the emergent-distribution check must fail while
the program's fault stands, and must pass on a copy corrected to the
H-function values), then perturbs one output value at a time and requires
the check to raise CheckFailed. Exits 1 if any expectation is not met.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
from pathlib import Path

import checks
import references
from run import OUT_DIR, _grid, _read_rows

def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bosemilne.cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv}: exit code {code}")
    return json.loads(out.getvalue())


def _scaled(env, key, factor):
    env = copy.deepcopy(env)
    env["values"][key]["value"] *= factor
    return env


def _row_shift(rows, where, delta):
    rows = list(rows)
    i = next(i for i, r in enumerate(rows) if where(r))
    x, mu, phi = rows[i]
    rows[i] = (x, mu, phi + delta)
    return rows


def main() -> int:
    refs = references.load()
    h_fn = references.chandrasekhar_h()
    Path(OUT_DIR).mkdir(exist_ok=True)
    # (name, check(env, rows), env, rows, True if the output must pass or else
    #  the words its rejection must hold,
    #  [(label, env, rows or None, expected words of the rejection)])
    cases = []

    for alpha in (0.0, 0.5, 2.0):
        env = _cli(["v1", "--alpha", repr(alpha)])
        perturb = [("omega0 +1e-6", _scaled(env, "omega0", 1 + 1e-6), None, "saddle residual"),
                   ("v1_saddle +1e-6", _scaled(env, "v1_saddle", 1 + 1e-6), None, "v1_saddle")]
        if alpha < 1.5:
            perturb.append(("v1_exact +1e-4" if alpha else "v1_exact +1e-7",
                            _scaled(env, "v1_exact", 1 + (1e-4 if alpha else 1e-7)), None,
                            "v1_exact"))
        else:
            extra = copy.deepcopy(env)
            extra["values"]["v1_exact"] = {"value": 0.02, "error": 1e-6}
            silent = copy.deepcopy(env)
            silent["diagnostics"] = []
            perturb += [("v1_exact reported", extra, None, "diverges"),
                        ("no divergence diagnostic", silent, None, "divergence diagnostic")]
        cases.append((f"v1 --alpha {alpha}",
                      lambda e, r, a=alpha: checks.check_v1(e, a, refs), env, None, True, perturb))

    k_dom = 1.3
    env = _cli(["oracle", "--alpha", "0", "--k", repr(k_dom)])
    cases.append(("oracle --alpha 0", lambda e, r: checks.check_oracle(e, 0.0, k_dom, refs),
                  env, None, True,
                  [("k0_extracted +3%", _scaled(env, "k0_extracted", 1.03), None, "k0_extracted"),
                   ("slope +2%", _scaled(env, "slope", 1.02), None, "slope"),
                   ("v1_k_reference +1e-4", _scaled(env, "v1_k_reference", 1 + 1e-4), None,
                    "v1_k_reference")]))

    k = 0.8
    grid_x, grid_mu = "0:20:3", "0.01:0.97:5"
    table = f"{OUT_DIR}/selftest-profile.csv"
    env = _cli(["profile", "--alpha", "0", "--k", repr(k), "--threads", "1",
                "--grid-x", grid_x, f"--grid-mu={grid_mu}", "--out", table])
    rows = _read_rows(table)
    xs, mus = _grid(grid_x), _grid(grid_mu)
    scale = abs(k) * (1.0 + refs[0.0])
    cases.append(("profile grid", lambda e, r: checks.check_profile(e, r, k, xs, mus, refs),
                  env, rows, True,
                  [("inflow phi(0, mu) + 2e-3 scale", env,
                    _row_shift(rows, lambda r: r[0] == 0.0, 2e-3 * scale), "inflow"),
                   ("far field phi(20, mu) + 1e-5 scale", env,
                    _row_shift(rows, lambda r: r[0] == 20.0, 1e-5 * scale), "far field"),
                   ("k0 +1e-6", _scaled(env, "k0", 1 + 1e-6), rows, "k0"),
                   ("row missing", env, rows[:-1], "table rows")]))

    emergent = f"{OUT_DIR}/selftest-emergent.csv"
    env = _cli(["profile", "--alpha", "0", "--threads", "1", "--grid-x", "0:0:1",
                "--grid-mu=-1:0:21", "--out", emergent])
    rows = _read_rows(emergent)
    emergent_mus = _grid("-1:0:21")
    corrected = [(x, mu, h_fn(-mu) / math.sqrt(3.0) + 1e-6) for x, mu, _ in rows]

    def check(e, r):
        checks.check_emergent(e, r, 1.0, emergent_mus, refs, h_fn)

    # run.py excuses only the value mismatch; a short or malformed table must
    # be rejected with another message
    cases.append(("emergent, program output (known fault)", check, env, rows,
                  checks.EMERGENT_MISMATCH,
                  [("row missing", env, rows[:-1], "table rows"),
                   ("phi not finite", env, _row_shift(rows, lambda r: r[1] == -0.5, math.inf),
                    "not finite")]))
    cases.append(("emergent, corrected copy", check, env, corrected, True,
                  [("phi(0, -mu) + 1e-3", env,
                    _row_shift(corrected, lambda r: r[1] == -0.5, 1e-3), "emergent")]))
    for path in (table, emergent):
        Path(path).unlink()

    bad = 0
    for name, check, env, rows, expect, perturbations in cases:
        first = ("as computed", env, rows, "" if expect is True else expect)
        for label, e, r, reason in [first] + perturbations:
            want = expect is True and label == "as computed"
            try:
                check(e, rows if r is None else r)
                passed, why = True, ""
            except checks.CheckFailed as exc:
                passed, why = False, str(exc)
            # a perturbation must be caught by the check aimed at it
            ok = passed == want and reason in why
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {name}: {label}: "
                  f"{'passes' if passed else 'rejected'}{' (' + why + ')' if why else ''}")
    print(f"{bad} unexpected outcome(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    import bosemilne.cli
    sys.exit(main())
