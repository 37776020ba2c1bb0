from __future__ import annotations

import numpy as np
import pytest

from rankdiff import (Corpus, FieldScheme, MissingBaseline, ObservationWindow,
                      Publication, ScalingFactorTable, compute_scaling_factors,
                      normalized_impact, scaling_factor)
from rankdiff.baselines import CellStats
from helpers import random_corpus


def _corpus_of(pubs: list[Publication]) -> Corpus:
    return Corpus(ObservationWindow(2008, 2012), {p.pub_id: p for p in pubs},
                  [], {}, FieldScheme({"S": "U"}), {"r": 1.0})


def _pub(pub_id, year=2008, cats=("C1",), citations=0, n_authors=1):
    return Publication(pub_id, year, "article", cats, citations, n_authors)


def test_cell_mean_excludes_uncited():
    corpus = _corpus_of([_pub("a", citations=0), _pub("b", citations=2),
                         _pub("c", citations=4)])
    table = compute_scaling_factors(corpus)
    cell = table.cell(2008, "C1")
    assert cell == CellStats(mean=3.0, cited_count=2, total_count=3)


def test_all_uncited_cell_absent():
    table = compute_scaling_factors(_corpus_of([_pub("a"), _pub("b")]))
    assert table.cell(2008, "C1") is None
    assert len(table) == 0


def test_two_category_publication_feeds_both_cells():
    table = compute_scaling_factors(
        _corpus_of([_pub("a", cats=("C1", "C2"), citations=6)]))
    assert table.cell(2008, "C1").mean == 6.0
    assert table.cell(2008, "C2").mean == 6.0


def test_scaling_factor_single_category():
    table = ScalingFactorTable({(2008, "C1"): CellStats(4.0, 2, 3)})
    assert scaling_factor(_pub("x"), table) == 4.0


def test_scaling_factor_multi_category_average():
    table = ScalingFactorTable({(2008, "C1"): CellStats(4.0, 1, 1),
                                (2008, "C2"): CellStats(6.0, 1, 1)})
    assert scaling_factor(_pub("x", cats=("C1", "C2")), table) == 5.0


def test_scaling_factor_missing_cell():
    table = ScalingFactorTable({(2008, "C1"): CellStats(4.0, 1, 1)})
    with pytest.raises(MissingBaseline, match="C2"):
        scaling_factor(_pub("x", cats=("C1", "C2")), table)


def test_normalized_impact_arithmetic():
    table = ScalingFactorTable({(2008, "C1"): CellStats(3.0, 1, 1)})
    assert normalized_impact(_pub("x", citations=6), table) == 2.0


def test_normalized_impact_uncited_is_zero():
    table = ScalingFactorTable({(2008, "C1"): CellStats(3.0, 1, 1)})
    assert normalized_impact(_pub("x", citations=0), table) == 0.0


def test_normalized_impact_multi_category():
    # c=5 over the mean of cell means (4.0, 6.0) -> 5 / 5.0
    table = ScalingFactorTable({(2008, "C1"): CellStats(4.0, 1, 1),
                                (2008, "C2"): CellStats(6.0, 1, 1)})
    assert normalized_impact(_pub("x", cats=("C1", "C2"), citations=5),
                             table) == 1.0


def test_normalized_impact_propagates_missing_baseline():
    table = ScalingFactorTable({})
    with pytest.raises(MissingBaseline):
        normalized_impact(_pub("x", citations=0), table)


def test_table_rejects_invalid_cells():
    with pytest.raises(ValueError):
        ScalingFactorTable({(2008, "C1"): CellStats(0.0, 0, 3)})
    with pytest.raises(ValueError, match="total_count >= cited_count"):
        ScalingFactorTable({(2008, "C1"): CellStats(2.0, 3, 2)})


# ---------------------------------------------------------------------------
# Invariants

def _rescale_cell(corpus: Corpus, year: int, cat: str, k: int) -> Corpus:
    pubs = {}
    for pid, p in corpus.publications.items():
        if p.year == year and cat in p.subject_categories:
            p = Publication(p.pub_id, p.year, p.doc_type, p.subject_categories,
                            p.citations * k, p.n_authors_total)
        pubs[pid] = p
    return Corpus(corpus.window, pubs, corpus.authorships, corpus.professors,
                  corpus.field_scheme, corpus.salary_table)


def test_scale_invariance_of_citation_unit():
    rng = np.random.default_rng(3)
    for _ in range(25):
        corpus = random_corpus(rng, multi_category_share=0.0)
        table = compute_scaling_factors(corpus)
        (year, cat) = next(iter(table))
        k = int(rng.integers(2, 7))
        rescaled = _rescale_cell(corpus, year, cat, k)
        table2 = compute_scaling_factors(rescaled)
        assert table2.cell(year, cat).mean == pytest.approx(
            k * table.cell(year, cat).mean, rel=1e-12)
        for pid in sorted(corpus.publications):
            p = corpus.publications[pid]
            if p.year == year and p.subject_categories == (cat,):
                before = normalized_impact(p, table)
                after = normalized_impact(rescaled.publications[pid], table2)
                assert after == pytest.approx(before, abs=1e-12)


def test_cell_mean_normalized_impact_is_one():
    rng = np.random.default_rng(4)
    for _ in range(25):
        corpus = random_corpus(rng, multi_category_share=0.0)
        table = compute_scaling_factors(corpus)
        for (year, cat) in table:
            impacts = [normalized_impact(p, table)
                       for p in corpus.publications.values()
                       if p.year == year and p.subject_categories == (cat,)
                       and p.citations > 0]
            assert np.mean(impacts) == pytest.approx(1.0, abs=1e-12)


def test_impact_nonnegative_zero_iff_uncited():
    rng = np.random.default_rng(5)
    corpus = random_corpus(rng, multi_category_share=0.3)
    table = compute_scaling_factors(corpus)
    for p in corpus.publications.values():
        impact = normalized_impact(p, table)
        assert impact >= 0
        assert (impact == 0) == (p.citations == 0)


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    corpus = random_corpus(rng, multi_category_share=0.2)
    table = compute_scaling_factors(corpus)
    path = tmp_path / "baselines.csv"
    table.to_csv(path)
    assert list(ScalingFactorTable.from_csv(path).items()) == list(table.items())
