"""Shared fixtures: the bundled example presentations and representations,
a fresh relation-matrix memo that counts real builds, and empty point
memos before every test."""

from functools import lru_cache

import pytest

from propfox import corpus, extensions, fitting, fox


@pytest.fixture(scope="session")
def eg41():
    return corpus.load_presentation("eg41.pres")


@pytest.fixture(scope="session")
def eg42():
    return corpus.load_presentation("eg42.pres")


@pytest.fixture(scope="session")
def eg43():
    return corpus.load_presentation("eg43.pres")


@pytest.fixture(scope="session")
def eg43split():
    return corpus.load_presentation("eg43split.pres")


@pytest.fixture(scope="session")
def eg44rep(eg41):
    return corpus.load_representation("eg44.rep", eg41)


@pytest.fixture(scope="session")
def eg45rep(eg41):
    return corpus.load_representation("eg45.rep", eg41)


@pytest.fixture(scope="session")
def eg55rep(eg41):
    return corpus.load_representation("eg55.rep", eg41)


@pytest.fixture
def relation_memo(monkeypatch):
    """An empty memo in place of the relation-matrix builder's for one test;
    its cache_info().misses counts the matrices really built."""
    memo = lru_cache(maxsize=None)(fox._relation_matrix.__wrapped__)
    monkeypatch.setattr(fox, "_relation_matrix", memo)
    return memo


@pytest.fixture(autouse=True)
def empty_point_memos():
    """Empty the per-point memos (the specialized nullspace and the
    specialized representation) before each test, so that no test reads
    points an earlier one computed."""
    fitting._nullspace_at.cache_clear()
    extensions.specialize.cache_clear()
