"""Every frozen CLI output against its expected files under tests/golden/.

The analytic commands compare byte for byte. `oracle`'s discrete-ordinates
values compare at the bound of test_dom.py's `test_default_solves_pinned`,
because BLAS kernels may round differently on another CPU: k0 and the slope
at 1e-12 relative, the residual (also k0's error) and the relative gap to V1
K at 1e-12 absolute. The rest of its envelope compares exactly. A change that
moves an output rewrites the files (tests/update_golden.py), so the diff
shows every move.
"""

import json

import pytest

from update_golden import COMMANDS, GOLDEN, run


# (envelope key, field, compared relative to the value) of the DOM's results
DOM_VALUES = (("k0_extracted", "value", True), ("slope", "value", True),
              ("k0_extracted", "error", False), ("residual", "value", False),
              ("rel_gap", "value", False))


@pytest.mark.parametrize("name", COMMANDS)
def test_output_matches_golden(name):
    argv, exit_code = COMMANDS[name]
    code, out, table = run(argv)
    want = (GOLDEN / f"{name}.out").read_text()
    assert code == exit_code
    if argv[0] == "oracle":
        out, want = json.loads(out), json.loads(want)
        for key, field, relative in DOM_VALUES:
            got, value = out["values"][key].pop(field), want["values"][key].pop(field)
            assert abs(got - value) <= 1e-12 * (abs(value) if relative else 1.0)
    assert out == want
    csv = GOLDEN / f"{name}.csv"
    assert table == (csv.read_text() if csv.exists() else None)
