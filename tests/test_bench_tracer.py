"""The benchmark's tracer (bench/spans.py) still finds what it wraps.

bench/spans.py replaces functions of the package by name and reads
`len(table.samples)` of every table it sees; a refactor that drops one of
those names would break the traced benchmark without failing any other
test. The module is only imported here, never edited.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from bosemilne import dispersion, quadrature
from bosemilne.special import AlphaModel

SPANS = Path(__file__).parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@pytest.fixture()
def tracer():
    tracer = _load_spans().Tracer()
    tracer.install()  # AttributeError if a traced name is gone
    yield tracer
    tracer.uninstall()


def test_every_traced_function_is_wrapped(tracer):
    for module, path, _ in _load_spans().TRACED:
        if "." not in path:
            assert hasattr(getattr(sys.modules[f"bosemilne.{module}"], path), "__wrapped__")


def test_traced_table_builds(tracer):
    t0 = dispersion.build_theta_table(AlphaModel.build(0.0))
    assert tracer.counts["dispersion.table_nodes"] == len(t0.samples)
    t1 = dispersion.build_theta_table(AlphaModel.build(0.5))
    assert tracer.counts["dispersion.table_nodes"] == len(t0.samples) + len(t1.samples)
    names = {span[1] for span in tracer.spans}
    assert {"dispersion.build_theta_table", "util.ordered_map"} <= names


def test_scalar_integrals_are_traced_once(tracer):
    # quadrature.integrate.calls counts scalar integrals: one span per call
    # of the traced integrate_with_error, which no program path reaches
    def traced():
        return sum(span[1] == "quadrature.integrate" for span in tracer.spans)

    model = AlphaModel.build(0.5)  # its moments are fixed-rule sums: no span
    for z in (1j, -5 + 1j):  # the Planck-weighted average is a fixed rule too
        dispersion.weighted_case_average(model, z)
    assert traced() == 0
    quadrature.integrate_with_error(np.exp, 0.0, 1.0)
    assert traced() == 1
