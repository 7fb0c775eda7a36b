"""Session-scoped contexts for the packaged example fans.

The heavy computations cache per-context, so sharing one ToricContext per fan
across the whole session keeps the suite fast.  Tests that need a fresh,
cold-cache context (the timed golden test) build their own through ``load``.
"""

import json
from importlib import resources

import pytest

from toricmirror import validate


def read_fixture(name: str) -> str:
    return resources.files("toricmirror").joinpath(
        "fixtures", f"{name}.json").read_text()


def make_context(name: str, basis_cone=None):
    return validate(json.loads(read_fixture(name)) | {"basis_cone": basis_cone})


@pytest.fixture(scope="session")
def p2():
    return make_context("p2")


@pytest.fixture(scope="session")
def p1xp1():
    return make_context("p1xp1")


@pytest.fixture(scope="session")
def f2():
    return make_context("f2")


@pytest.fixture(scope="session")
def chain3():
    return make_context("chain3")


@pytest.fixture(scope="session")
def load():
    """Factory for fresh (cold-cache) contexts and raw fixture text."""
    return make_context


@pytest.fixture(scope="session")
def fixture_text():
    return read_fixture
