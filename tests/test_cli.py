import argparse
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from bosemilne import acceptance, cli
from bosemilne.dispersion import lambda_case_boundary


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


def test_alpha_rejection(capsys):
    code, _ = run_cli(["v1", "--alpha", "-1"], capsys)
    assert code == 2


def test_envelope_schema(capsys):
    import jsonschema
    from importlib import resources
    schema = json.loads(resources.files("bosemilne").joinpath("envelope.schema.json")
                        .read_text())
    code, out = run_cli(["v1", "--alpha", "0.5"], capsys)
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
        want = lambda_case_boundary(0.5)
        assert mu == 0.5
        assert re == pytest.approx(want.real, rel=1e-14)
        assert im == pytest.approx(want.imag, rel=1e-14)
        assert theta == pytest.approx(math.atan2(want.imag, want.real), rel=1e-14)
        env = json.loads(out)
        assert env["values"]["kappa"]["value"] == -1

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
    from bosemilne.quadrature import QuadConfig
    from bosemilne.special import AlphaModel
    model = AlphaModel.build(0.0, omega_cut=60.0,
                             quad=QuadConfig(base_order=48, max_depth=9))
    env = cli._envelope("v1", model, {}, {}, [])
    assert env["provenance"]["quadrature"] == {"base_order": 48, "max_depth": 9,
                                               "omega_cut": 60.0}


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

    def test_max_iter_one_fails(self, capsys):
        code, _ = run_cli(["oracle", "--alpha", "0", "--dom-cells", "150",
                           "--dom-angles", "8", "--dom-freqs", "8",
                           "--dom-length", "25", "--max-iter", "1"], capsys)
        assert code == 1


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


def test_usage_error_exit_code():
    proc = subprocess.run([sys.executable, "-m", "bosemilne.cli", "--nonsense"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


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
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: {s for a in p._actions for s in a.option_strings}
             for name, p in sub.choices.items()}
    always = {"-h", "--help", "--config", "--threads", "--out"}
    assert flags == {
        "v1": always | {"--alpha"},
        "dispersion": always | {"--alpha", "--format", "--grid-mu"},
        "profile": always | {"--alpha", "--k", "--format", "--grid-x", "--grid-mu"},
        "oracle": always | {"--alpha", "--k", "--tol", "--dom-cells", "--dom-angles",
                            "--dom-freqs", "--dom-length", "--max-iter"},
        "validate": always,
    }


@pytest.mark.parametrize("argv", [
    ["profile", "--k", "nan"],
    ["oracle", "--k", "nan"],
    ["oracle", "--tol", "inf"],
    ["oracle", "--tol", "nan"],
    ["oracle", "--max-iter", "-1"],
    ["oracle", "--max-iter", "0"],
    ["profile", "--grid-mu", "nan:nan:1"],
    ["profile", "--grid-x", "inf:inf:1"],
], ids=" ".join)
def test_bad_numeric_input_is_a_configuration_error(argv, capsys):
    assert cli.main(argv) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dispersion", "--alpha", "0", "--grid-mu", "0.05:0.9:40"],
    ["profile", "--alpha", "0", "--grid-x", "0:8:4", "--grid-mu=-0.8:0.8:7"],
])
def test_output_files_identical_across_threads(argv, tmp_path, capsys):
    blobs = {}
    for threads in (1, 4):
        out = tmp_path / f"t{threads}.dat"
        code, stdout = run_cli(argv + ["--threads", str(threads), "--out", str(out)],
                               capsys)
        assert code == 0
        env = json.loads(stdout)
        env["inputs"].pop("threads", None)
        env["inputs"].pop("out", None)  # distinct paths, same contents
        blobs[threads] = (out.read_bytes(), json.dumps(env, sort_keys=True))
    assert blobs[1] == blobs[4]
