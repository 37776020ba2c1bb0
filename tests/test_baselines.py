from __future__ import annotations

import numpy as np
import pytest

from rankdiff import (Corpus, FieldScheme, ObservationWindow, Publication,
                      compute_scaling_factors, impact_map, read_baselines,
                      scaling_factor, write_baselines)
from helpers import random_corpus, rebuilt, records


def _corpus_of(pubs: list[Publication]) -> Corpus:
    return Corpus.from_records(ObservationWindow(2008, 2012),
                               {p.pub_id: p for p in pubs}, [], {},
                               FieldScheme({"S": "U"}), {"r": 1.0})


def _pub(pub_id, year=2008, cats=("C1",), citations=0, n_authors=1):
    return Publication(pub_id, year, "article", cats, citations, n_authors)


def _factor(pub: Publication, table: dict) -> float | None:
    return scaling_factor(pub.year, pub.subject_categories, table)


def _impacts(corpus: Corpus, table: dict) -> dict[str, float | None]:
    """Publication id -> normalized impact, from ``impact_map``."""
    return dict(zip(corpus.pub_ids, impact_map(corpus, table)))


def _impact(pub: Publication, table: dict) -> float | None:
    return _impacts(_corpus_of([pub]), table)[pub.pub_id]


def test_cell_mean_excludes_uncited():
    corpus = _corpus_of([_pub("a", citations=0), _pub("b", citations=2),
                         _pub("c", citations=4)])
    table = compute_scaling_factors(corpus)
    assert table.get((2008, "C1")) == (3.0, 2, 3)


def test_all_uncited_cell_absent():
    table = compute_scaling_factors(_corpus_of([_pub("a"), _pub("b")]))
    assert table.get((2008, "C1")) is None
    assert len(table) == 0


def test_two_category_publication_feeds_both_cells():
    table = compute_scaling_factors(
        _corpus_of([_pub("a", cats=("C1", "C2"), citations=6)]))
    assert table.get((2008, "C1"))[0] == 6.0
    assert table.get((2008, "C2"))[0] == 6.0


def test_scaling_factor_single_category():
    table = {(2008, "C1"): (4.0, 2, 3)}
    assert _factor(_pub("x"), table) == 4.0


def test_scaling_factor_multi_category_average():
    table = {(2008, "C1"): (4.0, 1, 1), (2008, "C2"): (6.0, 1, 1)}
    assert _factor(_pub("x", cats=("C1", "C2")), table) == 5.0


def test_scaling_factor_missing_cell():
    table = {(2008, "C1"): (4.0, 1, 1)}
    assert _factor(_pub("x", cats=("C1", "C2")), table) is None


def test_normalized_impact_arithmetic():
    table = {(2008, "C1"): (3.0, 1, 1)}
    assert _impact(_pub("x", citations=6), table) == 2.0


def test_normalized_impact_uncited_is_zero():
    table = {(2008, "C1"): (3.0, 1, 1)}
    assert _impact(_pub("x", citations=0), table) == 0.0


def test_normalized_impact_multi_category():
    # c=5 over the mean of cell means (4.0, 6.0) -> 5 / 5.0
    table = {(2008, "C1"): (4.0, 1, 1), (2008, "C2"): (6.0, 1, 1)}
    assert _impact(_pub("x", cats=("C1", "C2"), citations=5), table) == 1.0


def test_normalized_impact_propagates_missing_baseline():
    assert _impact(_pub("x", citations=0), {}) is None


# ---------------------------------------------------------------------------
# Invariants

def _rescale_cell(corpus: Corpus, year: int, cat: str, k: int) -> Corpus:
    pubs = {}
    for pid, p in records(corpus).publications.items():
        if p.year == year and cat in p.subject_categories:
            p = Publication(p.pub_id, p.year, p.doc_type, p.subject_categories,
                            p.citations * k, p.n_authors_total)
        pubs[pid] = p
    return rebuilt(corpus, pubs)


def test_scale_invariance_of_citation_unit():
    rng = np.random.default_rng(3)
    for _ in range(25):
        corpus = random_corpus(rng, multi_category_share=0.0)
        table = compute_scaling_factors(corpus)
        (year, cat) = min(table)
        k = int(rng.integers(2, 7))
        rescaled = _rescale_cell(corpus, year, cat, k)
        table2 = compute_scaling_factors(rescaled)
        assert table2[year, cat][0] == pytest.approx(
            k * table[year, cat][0], rel=1e-12)
        before_pubs = records(corpus).publications
        before_impacts = _impacts(corpus, table)
        after_impacts = _impacts(rescaled, table2)
        for pid in sorted(before_pubs):
            p = before_pubs[pid]
            if p.year == year and p.subject_categories == (cat,):
                before = before_impacts[pid]
                after = after_impacts[pid]
                assert after == pytest.approx(before, abs=1e-12)


def test_cell_mean_normalized_impact_is_one():
    rng = np.random.default_rng(4)
    for _ in range(25):
        corpus = random_corpus(rng, multi_category_share=0.0)
        table = compute_scaling_factors(corpus)
        by_id = _impacts(corpus, table)
        for (year, cat) in table:
            impacts = [by_id[p.pub_id]
                       for p in records(corpus).publications.values()
                       if p.year == year and p.subject_categories == (cat,)
                       and p.citations > 0]
            assert np.mean(impacts) == pytest.approx(1.0, abs=1e-12)


def test_impact_nonnegative_zero_iff_uncited():
    rng = np.random.default_rng(5)
    corpus = random_corpus(rng, multi_category_share=0.3)
    table = compute_scaling_factors(corpus)
    by_id = _impacts(corpus, table)
    for p in records(corpus).publications.values():
        impact = by_id[p.pub_id]
        assert impact >= 0
        assert (impact == 0) == (p.citations == 0)


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    corpus = random_corpus(rng, multi_category_share=0.2)
    table = compute_scaling_factors(corpus)
    path = tmp_path / "baselines.csv"
    write_baselines(table, path)
    read = read_baselines(path)
    assert read == table
    assert list(read) == sorted(table)      # written in (year, category) order
