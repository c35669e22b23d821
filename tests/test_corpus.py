"""The bundled examples recompute to their pinned values."""

from collections import Counter

import pytest

from propfox import GoldenMismatch
from propfox import corpus


def test_every_entry_loads():
    assert len(corpus.ENTRIES) == 11
    ids = [e.entry_id for e in corpus.ENTRIES]
    assert len(set(ids)) == len(ids)
    for entry in corpus.ENTRIES:
        assert entry.presentation
        assert entry.description


@pytest.mark.parametrize("entry_id", [e.entry_id for e in corpus.ENTRIES])
def test_entry_checks_pass(entry_id):
    results = corpus.run(entry_id)
    assert results, "an entry must carry at least one check"
    corpus.ensure(results)
    for r in results:
        assert r.ok, f"{r.name}: expected {r.expected}, got {r.actual}"
        assert r.source in ("stated", "derived")


def test_full_run_and_ensure():
    results = corpus.run()
    assert len(results) == 96
    assert Counter(r.source for r in results) == {"stated": 40, "derived": 56}
    assert Counter(r.entry for r in results) == {
        "eg-4.1-p3": 17,
        "eg-4.2-p2": 12,
        "eg-4.3-p5": 7,
        "eg-4.3-p5-split": 8,
        "eg-4.4-p3": 13,
        "eg-4.5-p3": 5,
        "eg-5.1-p3": 5,
        "eg-5.2-p3": 6,
        "eg-5.3-p3": 7,
        "eg-5.4-p3": 6,
        "eg-5.5-p3": 10,
    }
    corpus.ensure(results)


def test_unknown_entry():
    with pytest.raises(KeyError):
        corpus.run("nope")


def test_ensure_raises_on_failure():
    results = corpus.run("eg-4.1-p3")
    broken = [
        corpus.CheckResult(r.entry, r.name, r.source, False, r.expected, "tampered")
        for r in results[:1]
    ]
    with pytest.raises(GoldenMismatch):
        corpus.ensure(broken)
