from __future__ import annotations

import os

import pytest

from rankdiff import (Authorship, Corpus, FieldScheme, ObservationWindow,
                      Professor, Publication, write_corpus_csvs)
from helpers import RELAXED_CFG


@pytest.fixture(autouse=True, scope="session")
def cache_home(tmp_path_factory):
    """The corpus cache of every test, subprocesses and demos included, is
    in a temporary directory, never in the user's home."""
    with pytest.MonkeyPatch.context() as patch:
        home = tmp_path_factory.mktemp("cache")
        patch.setitem(os.environ, "XDG_CACHE_HOME", str(home))
        yield home


@pytest.fixture
def window():
    return ObservationWindow(2008, 2012, "citations observed October 2015")


@pytest.fixture
def tiny_corpus(window):
    """1 discipline, 2 SDSs, 2 universities, hand-checkable numbers."""
    fields = FieldScheme({"S1": "U1", "S2": "U1"},
                         {"S1": "Field one", "S2": "Field two"},
                         {"U1": "Discipline one"})
    salaries = {"full": 2.0, "assistant": 1.0}
    profs = {
        "p1": Professor("p1", "A", "S1", "full", 5.0),
        "p2": Professor("p2", "A", "S1", "assistant", 5.0),
        "p3": Professor("p3", "B", "S1", "assistant", 5.0),
        "p4": Professor("p4", "B", "S2", "assistant", 2.5),
    }
    pubs = {
        "w1": Publication("w1", 2008, "article", ("C1",), 4, 2),
        "w2": Publication("w2", 2009, "article", ("C1",), 0, 1),
        "w3": Publication("w3", 2008, "article", ("C1", "C2"), 6, 3),
        "w4": Publication("w4", 2008, "article", ("C2",), 2, 1),
        "w5": Publication("w5", 2010, "meeting abstract", ("C1",), 9, 1),
    }
    auths = [Authorship("w1", "p1"), Authorship("w1", "p3"),
             Authorship("w2", "p2"), Authorship("w3", "p2"),
             Authorship("w4", "p3"), Authorship("w5", "p1")]
    return Corpus.from_records(window, pubs, auths, profs, fields, salaries)


@pytest.fixture
def relaxed_cfg():
    """Thresholds low enough that tiny fixtures stay fully eligible."""
    return RELAXED_CFG


@pytest.fixture
def corpus_dir(tmp_path, tiny_corpus):
    write_corpus_csvs(tiny_corpus, tmp_path / "corpus")
    return tmp_path / "corpus"
