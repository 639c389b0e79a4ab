"""Acceptance suite: one test per criterion, each printed pass/fail.

Criterion 12 (determinism) is checked end to end here: the installed CLI runs
`validate` twice in fresh processes, once with --threads 1 and once with
--threads 8 (a flag every command accepts and ignores), and the outputs must
match byte for byte; that run includes criterion 12's own in-process probe,
two fresh builds of one table. Everything else goes through the shared
context so expensive artifacts are computed once per session.
"""

import subprocess
import sys

import pytest

from bosemilne import acceptance


def _run(ctx, fn):
    result = fn(ctx)
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.number} [{status}]: {result.name} -- {result.detail}")
    return result


@pytest.mark.parametrize("fn", acceptance.CRITERIA[:11],
                         ids=[f"criterion_{i}" for i in range(1, 12)])
def test_criterion(ctx, fn):
    result = _run(ctx, fn)
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_12_determinism(tmp_path):
    """cmd_validate twice, --threads 1 vs --threads 8: byte-identical outputs."""
    outputs = {}
    for threads in (1, 8):
        out_file = tmp_path / f"table_{threads}.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "bosemilne.cli", "validate",
             "--threads", str(threads), "--out", str(out_file)],
            capture_output=True, timeout=1200)
        outputs[threads] = (proc.stdout, out_file.read_bytes(), proc.returncode)
    print("criterion 12 [%s]: determinism across --threads -- stdout %d bytes"
          % ("PASS" if outputs[1] == outputs[8] else "FAIL", len(outputs[1][0])))
    assert outputs[1][0] == outputs[8][0]
    assert outputs[1][1] == outputs[8][1]
    assert outputs[1][2] == outputs[8][2]
