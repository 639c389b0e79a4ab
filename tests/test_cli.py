import argparse
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from bosemilne import acceptance, cli, util
from bosemilne.dispersion import lambda_case_pv
from bosemilne.errors import BoseMilneError, ConfigurationError


COMMANDS = ["v1", "dispersion", "profile", "oracle", "validate"]


def command_flags() -> dict[str, set[str]]:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in p._actions for s in a.option_strings}
            for name, p in sub.choices.items()}


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_v1_alpha_zero_envelope(capsys):
    code, out = run_cli(["v1", "--alpha", "0"], capsys)
    assert code == 0
    env = json.loads(out)
    assert env["command"] == "v1"
    v1 = env["values"]["v1_exact"]
    assert abs(v1["value"] - 0.71045) <= 5e-5
    assert v1["error"] < 1e-6
    # at alpha = 0 the saddle route reduces to the exact coefficient
    assert env["values"]["v1_saddle"]["value"] == pytest.approx(v1["value"], rel=1e-12)


def test_v1_alpha_two_divergence(capsys):
    code, out = run_cli(["v1", "--alpha", "2"], capsys)
    assert code == 0
    env = json.loads(out)
    assert "v1_exact" not in env["values"]
    assert abs(env["values"]["v1_saddle"]["value"] - 0.01994) <= 1e-5
    assert any("divergent" in d for d in env["diagnostics"])


@pytest.mark.parametrize("argv", [
    ["v1", "--alpha", "0"], ["v1", "--alpha", "0.5"], ["v1", "--alpha", "1"],
    ["v1", "--alpha", "2"],
    ["oracle", "--alpha", "0", "--dom-cells", "150", "--dom-angles", "8",
     "--dom-freqs", "8", "--dom-length", "25"],
    ["dispersion", "--alpha", "0.5"],
    ["profile", "--alpha", "0"],
    ["profile", "--alpha", "0.5", "--grid-x", "0:4:3", "--grid-mu=-0.5:0.5:3"],
    ["profile", "--alpha", "1.25", "--grid-x", "0:4:3", "--grid-mu=-0.5:0.5:3"],
], ids=" ".join)
def test_commands_run_no_adaptive_quadrature(argv, tmp_path, capsys, monkeypatch):
    # the moments, the slit V1, the theta tables and the power-law tails of
    # Vp and the field are fixed-rule sums; only validate runs the adaptive
    # engine
    from bosemilne import quadrature
    adaptive, calls = quadrature.integrate_rows, []

    def spy(*args, **kwargs):
        calls.append(args)
        return adaptive(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_rows", spy)
    code, _ = run_cli(argv + ["--out", str(tmp_path / "out.dat")], capsys)
    assert code == 0
    assert calls == []


def test_alpha_rejection(capsys):
    code, _ = run_cli(["v1", "--alpha", "-1"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["v1", "--alpha", "0.5"],
    ["dispersion", "--alpha", "0.5"],
    ["profile", "--alpha", "0", "--grid-x", "0:4:3", "--grid-mu=-0.5:0.5:3"],
    # between alpha 1 and 3/2 the continuum tail's integrand u^(-p-2) is
    # singular at u = 0, and power_tail integrates it there in closed form
    pytest.param(["profile", "--alpha", "1.25", "--grid-x", "0:4:3", "--grid-mu=-0.5:0.5:3"],
                 id="profile-1.25"),
    ["oracle", "--alpha", "0", "--dom-cells", "150", "--dom-angles", "8",
     "--dom-freqs", "8", "--dom-length", "25"],
], ids=lambda argv: argv[0])
def test_envelope_schema(argv, tmp_path, capsys):
    import jsonschema
    from importlib import resources
    schema = json.loads(resources.files("bosemilne").joinpath("envelope.schema.json")
                        .read_text())
    code, out = run_cli(argv + ["--out", str(tmp_path / "out.dat")], capsys)
    assert code == 0
    jsonschema.validate(json.loads(out), schema)


class TestDispersionCommand:
    def test_table_row_matches_boundary_values(self, tmp_path, capsys):
        out_csv = tmp_path / "d.csv"
        code, out = run_cli(["dispersion", "--alpha", "0",
                             "--grid-mu", "0.5:0.9:2", "--out", str(out_csv)], capsys)
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "mu,lambda_real,im_plus,theta"
        mu, re, im, theta = (float(v) for v in lines[1].split(","))
        want = complex(lambda_case_pv(0.5), 0.5 * math.pi * 0.5)
        assert mu == 0.5
        assert re == pytest.approx(want.real, rel=1e-14)
        assert im == pytest.approx(want.imag, rel=1e-14)
        assert theta == pytest.approx(math.atan2(want.imag, want.real), rel=1e-14)
        env = json.loads(out)
        assert env["values"]["kappa"]["value"] == -1

    def test_alpha_three_omits_kappa(self, tmp_path, capsys):
        # the tail law's exponent (alpha - 3)/alpha is 0 there, so the
        # winding cannot be closed: kappa is left out and the command says why
        code, out = run_cli(["dispersion", "--alpha", "3", "--grid-mu", "0.5:2:3",
                             "--out", str(tmp_path / "d.csv")], capsys)
        assert code == 0
        env = json.loads(out)
        assert "kappa" not in env["values"] and "mu_max" in env["values"]
        assert any(d.startswith("kappa omitted") and "does not decay" in d
                   for d in env["diagnostics"])

    def test_17_digit_roundtrip(self, tmp_path, capsys):
        out_csv = tmp_path / "d.csv"
        run_cli(["dispersion", "--alpha", "0",
                 "--grid-mu", "0.3:0.7:3", "--out", str(out_csv)], capsys)
        for line in out_csv.read_text().splitlines()[1:]:
            mu, re, *_ = (float(v) for v in line.split(","))
            assert float(f"{re:.17g}") == re

    def test_empty_grid_rejected(self, capsys):
        code, _ = run_cli(["dispersion", "--alpha", "0", "--grid-mu", "0.1:1:0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("spec", ["0:1:1", "-3:1:1"])
    def test_one_point_grid_needs_a_positive_bound(self, spec, tmp_path, capsys):
        # a one-point geometric grid is checked like a longer one, not left
        # to fail in lambda_boundary (exit 1)
        code = cli.main(["dispersion", "--alpha", "0", f"--grid-mu={spec}",
                         "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert "geometric grid needs positive bounds" in capsys.readouterr().err


class TestProfileCommand:
    def test_zero_gradient_rows(self, tmp_path, capsys):
        out_csv = tmp_path / "p.csv"
        code, out = run_cli(["profile", "--alpha", "0", "--k", "0",
                             "--grid-x", "0:5:3", "--grid-mu=-0.8:0.8:5",
                             "--out", str(out_csv)], capsys)
        assert code == 0
        rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        assert all(float(r[2]) == 0.0 for r in rows)

    def test_boundary_and_asymptote(self, tmp_path, capsys):
        out_csv = tmp_path / "p.csv"
        code, out = run_cli(["profile", "--alpha", "0",
                             "--grid-x", "0:18:2", "--grid-mu=-0.5:0.5:3",
                             "--out", str(out_csv)], capsys)
        assert code == 0
        env = json.loads(out)
        assert env["values"]["boundary_residual"]["value"] <= 1e-3
        k0 = env["values"]["k0"]["value"]
        rows = [[float(v) for v in line.split(",")]
                for line in out_csv.read_text().splitlines()[1:]]
        for x, mu, phi in rows:
            if x == 0.0 and mu > 0:
                assert abs(phi) <= 1e-3 * (1 + k0)
            if x == 18.0:
                assert phi == pytest.approx(k0 + (x - mu), abs=1e-4)


def test_profile_alpha_two_not_constructible(capsys):
    # the exact V1 integral diverges, so no field solution exists at alpha = 2
    code, _ = run_cli(["profile", "--alpha", "2", "--grid-x", "0:1:2",
                       "--grid-mu", "0.1:0.5:2"], capsys)
    assert code == 1


@pytest.mark.parametrize("alpha", ["0.003", "0.01", "0.1", "0.25"])
@pytest.mark.parametrize("command", ["v1", "dispersion", "profile", "oracle"])
def test_small_alpha_runs_or_fails_typed(command, alpha, tmp_path, capsys):
    # alpha in (0, 0.3) used to fail in every command, some with an untyped
    # traceback (ZeroDivisionError, OverflowError). Down to 0.01 every command
    # runs; dispersion's tail fit finds theta = pi within the table, so it
    # omits tail_exponent and says why. At 0.003 the theta table does not
    # resolve, which is typed
    code = cli.main([command, "--alpha", alpha, "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    if alpha == "0.003":
        assert code == 1 and "computation failed" in err
    else:
        assert code == 0
    if command == "dispersion" and code == 0:
        env = json.loads(out)
        assert "tail_exponent" not in env["values"]
        assert any("tail_exponent omitted" in d for d in env["diagnostics"])


def test_profile_below_continuum_table(tmp_path, capsys):
    # mu below the first continuum node (1e-4) takes Vp from its integral
    out_csv = tmp_path / "p.csv"
    for grid_x, grid_mu in (("0:0:1", "5e-5:5e-5:1"), ("0:1:2", "5e-5:6e-5:2")):
        code, _ = run_cli(["profile", "--alpha", "0", "--grid-x", grid_x,
                           "--grid-mu", grid_mu, "--out", str(out_csv)], capsys)
        assert code == 0
        rows = [[float(v) for v in line.split(",")]
                for line in out_csv.read_text().splitlines()[1:]]
        assert all(abs(phi) <= 1e-5 for x, mu, phi in rows if x == 0.0)


@pytest.mark.parametrize("alpha,grid_mu,why", [
    ("0", "0.5:1:3", "slit edge"),   # log-log divergence at mu = 1
    ("0.5", "40:40:1", "tail"),      # tail pole u = 1/mu, mu beyond eta_max
])
def test_profile_range_error_is_typed(tmp_path, capsys, alpha, grid_mu, why):
    out_csv = tmp_path / "p.csv"
    code = cli.main(["profile", "--alpha", alpha, "--grid-x", "0:0:1",
                     "--grid-mu", grid_mu, "--out", str(out_csv)])
    err = capsys.readouterr().err
    assert code == 1
    assert why in err and "stalled" not in err
    assert not out_csv.exists()


def test_profile_just_below_slit_edge(tmp_path, capsys):
    # within 2e-6 below mu = 1 the principal value sits on the log-log
    # divergence: phi(0, 1 - 1e-10) came out -1.47e-3 where it is 0
    out_csv = tmp_path / "p.csv"
    code = cli.main(["profile", "--alpha", "0", "--grid-x", "0:0:1",
                     "--grid-mu", "0.9999999999:0.9999999999:1", "--out", str(out_csv)])
    err = capsys.readouterr().err
    assert code == 1
    assert "below the slit edge" in err
    assert not out_csv.exists()
    code, _ = run_cli(["profile", "--alpha", "0", "--grid-x", "0:0:1",
                       "--grid-mu", "0.999:0.999:1", "--out", str(out_csv)], capsys)
    assert code == 0
    x, mu, phi = (float(v) for v in out_csv.read_text().splitlines()[1].split(","))
    assert abs(phi) <= 1e-5


def test_profile_just_beyond_slit_edge(tmp_path, capsys):
    # within 2e-6 beyond mu = 1 the plain row's pole sits against the table
    # end and the quadrature would stall; the range check rejects it first
    out_csv = tmp_path / "p.csv"
    for grid_mu in ("1.0000001:1.0000001:1", "1.000000000000001:1.000000000000001:1"):
        code = cli.main(["profile", "--alpha", "0", "--grid-x", "0:1:2",
                         "--grid-mu", grid_mu, "--out", str(out_csv)])
        err = capsys.readouterr().err
        assert code == 1
        assert "beyond the slit edge" in err and "stalled" not in err
        assert not out_csv.exists()
    code, _ = run_cli(["profile", "--alpha", "0", "--grid-x", "0:1:2",
                       "--grid-mu", "1.00001:1.00001:1", "--out", str(out_csv)], capsys)
    assert code == 0
    assert len(out_csv.read_text().splitlines()) == 3


def test_envelope_reports_the_model_that_ran():
    # the frequency cutoff is the model's own; no command but validate runs
    # the adaptive engine, so its defaults are not reported
    from bosemilne.special import AlphaModel
    model = AlphaModel.build(0.0)
    env = cli._envelope("v1", model, {}, {}, [])
    assert env["provenance"]["quadrature"] == {"omega_cut": 80.0}


class TestOracleCommand:
    def test_small_grid(self, capsys):
        code, out = run_cli(["oracle", "--alpha", "0", "--dom-cells", "150",
                             "--dom-angles", "8", "--dom-freqs", "8",
                             "--dom-length", "25"], capsys)
        assert code == 0
        env = json.loads(out)
        assert env["values"]["rel_gap"]["value"] <= 0.02

    def test_zero_gradient(self, capsys):
        code, out = run_cli(["oracle", "--alpha", "0", "--k", "0",
                             "--dom-cells", "64", "--dom-angles", "4",
                             "--dom-freqs", "4", "--dom-length", "20"], capsys)
        assert code == 0
        env = json.loads(out)
        assert env["values"]["k0_extracted"]["value"] == 0.0

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_infinite_slab_is_a_configuration_error(self, route, tmp_path, capsys):
        # L = inf used to reach the solve and end in numpy's LinAlgError
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dom_length=inf\n")
        small = ["--dom-cells", "64", "--dom-angles", "4", "--dom-freqs", "4"]
        argv = (["--dom-length", "inf"] if route == "flag" else ["--config", str(cfg)])
        assert cli.main(["oracle", *small, *argv]) == 2
        assert "slab length must be positive and finite" in capsys.readouterr().err

    def test_max_iter_one_fails(self):
        # the solve is direct: there is no iteration cap to set
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "--alpha", "0", "--dom-cells", "150",
                      "--dom-angles", "8", "--dom-freqs", "8",
                      "--dom-length", "25", "--max-iter", "1"])
        assert exc.value.code == 2


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=2\n# comment\nthreads=1\n")
        code, out = run_cli(["v1", "--config", str(cfg), "--alpha", "0.5"], capsys)
        assert code == 0
        assert json.loads(out)["inputs"]["alpha"] == 0.5

    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=2\n")
        code, out = run_cli(["v1", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["inputs"]["alpha"] == 2.0

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        code, _ = run_cli(["v1", "--config", str(cfg)], capsys)
        assert code == 2

    @pytest.mark.parametrize("command", COMMANDS)
    def test_max_iter_key_rejected(self, command, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter=5\n")
        assert cli.main([command, "--config", str(cfg)]) == 2
        assert "unknown key 'max_iter'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,content,message", [
        ("v1", b"alpha=abc\n", "run.cfg:1: bad value for alpha"),
        ("oracle", b"dom_cells=1.5\n", "run.cfg:1: bad value for dom_cells"),
        ("v1", None, "cannot read config file"),
        ("v1", b"alpha=\xff\n", "cannot read config file"),
    ], ids=["v1-alpha", "oracle-dom_cells", "missing-file", "not-utf8"])
    def test_bad_config_is_a_configuration_error(self, command, content, message, tmp_path,
                                                 capsys):
        # exit 2 with a message, not a traceback
        cfg = tmp_path / "run.cfg"
        if content is not None:
            cfg.write_bytes(content)
        assert cli.main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: " in err and message in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_keys_are_the_command_flags(self, command, tmp_path, capsys):
        flags = command_flags()[command]
        for key, kind in cli._CONFIG_KEYS.items():
            if "--" + key.replace("_", "-") in flags:
                continue
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={'0:1:2' if kind is str else 1}\n")
            assert cli.main([command, "--config", str(cfg)]) == 2
            assert f"{command} does not read {key!r}" in capsys.readouterr().err


class TestValidateCommand:
    def test_perturbed_fixture_fails_named_criterion(self, capsys, monkeypatch):
        monkeypatch.setattr(acceptance, "V1_ZERO_PRINTED", 0.75)
        monkeypatch.setattr(cli.acceptance, "CRITERIA", (acceptance.criterion_1,))
        code = cli.main(["validate"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "V1(0)" in out

    def test_subset_passes(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.acceptance, "CRITERIA",
                            (acceptance.criterion_2, acceptance.criterion_4))
        code = cli.main(["validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 2


def test_v1_and_oracle_do_not_load_scipy():
    # scipy costs most of the start-up; only validate may load it
    script = ("import io, sys, contextlib\n"
              "from bosemilne import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert cli.main(['v1', '--alpha', '2']) == 0\n"
              "    assert cli.main(['oracle', '--alpha', '1', '--dom-cells', '60']) == 0\n"
              "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_only_validate_loads_scipy(tmp_path):
    # profile (both kinds of continuum panels), v1 and dispersion in one fresh
    # interpreter: none imports scipy; validate's criterion 4 alone does
    out = str(tmp_path / "table")
    script = ("import io, sys, contextlib\n"
              "from bosemilne import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    for alpha in ('0', '0.5'):\n"
              f"        assert cli.main(['profile', '--alpha', alpha, '--out', {out!r}]) == 0\n"
              "    assert cli.main(['v1', '--alpha', '0.5']) == 0\n"
              f"    assert cli.main(['dispersion', '--alpha', '1', '--out', {out!r}]) == 0\n"
              "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_validate_without_scipy_fails_criterion_4_only():
    # scipy is the 'validate' extra: without it the table is still printed
    # whole, criterion 4 fails and names the extra, and the exit code is 1
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "from bosemilne import cli\n"
              "sys.exit(cli.main(['validate']))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    rows = {int(line[:2]): line for line in proc.stdout.splitlines() if line[:2].strip().isdigit()}
    assert sorted(rows) == list(range(1, 13))
    assert "FAIL" in rows[4] and "'validate' extra" in rows[4]
    assert "10/12 criteria passed" in proc.stdout


def test_usage_error_exit_code():
    proc = subprocess.run([sys.executable, "-m", "bosemilne.cli", "--nonsense"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_main_builds_one_parser(monkeypatch):
    build, built = cli.build_parser, []

    def counting_build():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    monkeypatch.setattr(cli, "cmd_v1", lambda args: 0)
    assert cli.main(["v1"]) == 0
    assert cli.main(["v1", "--alpha", "1"]) == 0
    assert len(built) == 1 and cli._parser is built[0]
    # a usage error after a successful call still exits 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["v1", "--nonsense"])
    assert exc.value.code == 2
    assert len(built) == 1


# (command, flag, value) for flags a command never reads; the --tol rows keep
# the command alone as their id
UNREAD_FLAGS = [(command, "--tol", "1e-9") for command in ("v1", "dispersion", "profile",
                                                           "validate")] + [
    ("v1", "--k", "7"), ("v1", "--format", "json"), ("dispersion", "--k", "7"),
    ("oracle", "--format", "json"), ("validate", "--k", "7"), ("validate", "--format", "json"),
]


@pytest.mark.parametrize("command,flag,value", UNREAD_FLAGS,
                         ids=[c if f == "--tol" else f"{c}{f}" for c, f, _ in UNREAD_FLAGS])
def test_tol_rejected_where_unused(command, flag, value):
    # argparse rejects a flag on every command that does not read it
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, value])
    assert exc.value.code == 2


def test_each_command_takes_only_the_flags_it_reads():
    flags = command_flags()
    always = {"-h", "--help", "--config", "--threads", "--out"}
    assert flags == {
        "v1": always | {"--alpha"},
        "dispersion": always | {"--alpha", "--format", "--grid-mu"},
        "profile": always | {"--alpha", "--k", "--format", "--grid-x", "--grid-mu"},
        "oracle": always | {"--alpha", "--k", "--tol", "--dom-cells", "--dom-angles",
                            "--dom-freqs", "--dom-length"},
        "validate": always,
    }


@pytest.mark.parametrize("argv", [
    ["profile", "--k", "nan"],
    ["oracle", "--k", "nan"],
    ["oracle", "--tol", "inf"],
    ["oracle", "--tol", "nan"],
    ["profile", "--grid-mu", "nan:nan:1"],
    ["profile", "--grid-x", "inf:inf:1"],
], ids=" ".join)
def test_bad_numeric_input_is_a_configuration_error(argv, capsys):
    assert cli.main(argv) == 2
    assert "configuration error" in capsys.readouterr().err


# command lines with a flag that no command registers any more
REMOVED_FLAGS = [
    ["oracle", "--max-iter", "-1"],
    ["oracle", "--max-iter", "0"],
]


@pytest.mark.parametrize("argv", REMOVED_FLAGS, ids=" ".join)
def test_removed_flag_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["dispersion", "--alpha", "0", "--grid-mu", "0.05:0.9:40"],
    ["profile", "--alpha", "0", "--grid-x", "0:8:4", "--grid-mu=-0.8:0.8:7"],
    ["v1", "--alpha", "0.5"],
])
def test_output_files_identical_across_threads(argv, tmp_path, capsys):
    # both runs write the same --out path, so whole stdout is compared
    out = tmp_path / "out.dat"
    blobs = {}
    for threads in (1, 4):
        code, stdout = run_cli(argv + ["--threads", str(threads), "--out", str(out)],
                               capsys)
        assert code == 0
        blobs[threads] = (out.read_bytes(), stdout)
    assert blobs[1] == blobs[4]


class TestBlasScope:
    """Every command runs with numpy's OpenBLAS on one thread, and the
    previous count comes back after it, whatever the exit code."""

    @pytest.fixture
    def blas_threads(self):
        """A reader of OpenBLAS's thread count, which is 2 during the test."""
        set_local = util._openblas_set_local()
        if set_local is None:
            pytest.skip("numpy links no OpenBLAS with openblas_set_num_threads_local")

        def count():
            n = set_local(1)
            set_local(n)
            return n

        previous = set_local(2)
        yield count
        set_local(previous)

    def stub(self, monkeypatch, blas_threads, exc=None):
        seen = []

        def command(args):
            seen.append(blas_threads())
            if exc is not None:
                raise exc
            return 0

        monkeypatch.setattr(cli, "cmd_v1", command)
        return seen

    @pytest.mark.parametrize("exc,code", [(None, 0), (BoseMilneError("failed"), 1),
                                          (ConfigurationError("bad"), 2)],
                             ids=["exit0", "exit1", "exit2"])
    def test_one_thread_inside_and_restored_after(self, blas_threads, monkeypatch, capsys,
                                                  exc, code):
        seen = self.stub(monkeypatch, blas_threads, exc)
        assert cli.main(["v1"]) == code
        assert seen == [1]
        assert blas_threads() == 2

    def test_without_openblas_the_scope_does_nothing(self, blas_threads, monkeypatch):
        seen = self.stub(monkeypatch, blas_threads)
        monkeypatch.setattr(util, "_openblas_set_local", lambda: None)
        assert cli.main(["v1"]) == 0
        assert seen == [2]
        assert blas_threads() == 2

    def test_import_looks_up_no_symbol(self):
        script = ("import bosemilne.cli, bosemilne.util\n"
                  "print(bosemilne.util._openblas_set_local.cache_info().misses)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"
