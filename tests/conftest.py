import os
from pathlib import Path

import pytest

import bosemilne
from bosemilne import acceptance

# CLI tests run `python -m bosemilne.cli` in a subprocess: let it import the
# package under test, also when only pytest's `pythonpath` setting found it
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(bosemilne.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def ctx():
    """Shared lazy cache of models, theta tables, factorisations, solutions."""
    return acceptance.AcceptanceContext()


@pytest.fixture(scope="session")
def model0(ctx):
    return ctx.model(0.0)


@pytest.fixture(scope="session")
def model1(ctx):
    return ctx.model(1.0)


@pytest.fixture(scope="session")
def model2(ctx):
    return ctx.model(2.0)


@pytest.fixture(scope="session")
def table0(ctx):
    return ctx.table(0.0)


@pytest.fixture(scope="session")
def table1(ctx):
    return ctx.table(1.0)


@pytest.fixture(scope="session")
def data0(ctx):
    from bosemilne import factorization as fz
    return fz.build_factorization(ctx.model(0.0), ctx.table(0.0), k=1.0,
                                  v1_est=ctx.v1(0.0))


@pytest.fixture(scope="session")
def sol0(ctx):
    return ctx.solution(0.0)
