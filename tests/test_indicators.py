from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdiff import (FSS, LEVELS, MNCS, Authorship, Corpus, CorpusLoadError,
                      FieldScheme, FilterConfig, ObservationWindow, Professor,
                      Publication, compute_scaling_factors, impact_map,
                      professor_pass, professor_scores, rank, scoreboards,
                      sds_averages, unit_scores)
from helpers import (RELAXED_CFG, add_publication, clone_university,
                     oracle_unit_scores, overall_scores, random_corpus,
                     rebuilt, records, scope_of, staff_of, unit_ids)

WINDOW = ObservationWindow(2008, 2012)


def _corpus(pubs, auths, profs, sds_map=None, salaries=None):
    return Corpus.from_records(WINDOW, {p.pub_id: p for p in pubs}, auths,
                               {p.professor_id: p for p in profs},
                               FieldScheme(sds_map or {"S": "U"}),
                               salaries or {"r": 1.0})


def _pub(pub_id, citations, n_authors, year=2008, cats=("C",)):
    return Publication(pub_id, year, "article", cats, citations, n_authors)


def _fss_p(corpus, table):
    """Professor id -> FSS_P."""
    return dict(zip(corpus.professor_ids,
                    professor_scores(corpus, impact_map(corpus, table))))


def _averages(corpus, scores):
    """``sds_averages`` of scores given by professor id."""
    return sds_averages(corpus, [scores[p] for p in corpus.professor_ids])


# ---------------------------------------------------------------------------
# Professor-level FSS

def test_fss_professor_unity_case():
    # one publication, c = mean, sole author, unit salary and tenure
    prof = Professor("p", "A", "S", "r", 1.0)
    corpus = _corpus([_pub("w", 2, 1)], [Authorship("w", "p")], [prof])
    table = {(2008, "C"): (2.0, 1, 1)}
    assert _fss_p(corpus, table)["p"] == 1.0


def test_fss_professor_no_publications():
    prof = Professor("p", "A", "S", "r", 3.0)
    corpus = _corpus([], [], [prof])
    assert _fss_p(corpus, {})["p"] == 0.0
    assert professor_pass(corpus, {}).fss_skipped == 0


def test_fss_professor_hand_computed():
    # pubs (c=4, mean=2, n=2) and (c=3, mean=3, n=3), salary 2, t 5:
    # (1/2)(1/5)(2*(1/2) + 1*(1/3)) = 2/15
    prof = Professor("p", "A", "S", "r", 5.0)
    corpus = _corpus([_pub("w1", 4, 2, cats=("C1",)), _pub("w2", 3, 3, cats=("C2",))],
                     [Authorship("w1", "p"), Authorship("w2", "p")],
                     [prof], salaries={"r": 2.0})
    table = {(2008, "C1"): (2.0, 1, 1), (2008, "C2"): (3.0, 1, 1)}
    assert _fss_p(corpus, table)["p"] == pytest.approx(2 / 15)


# a professor's FSS_P divides by salary and tenure; the corpus guards both
def test_fss_professor_missing_salary():
    prof = Professor("p", "A", "S", "r", 5.0)
    with pytest.raises(CorpusLoadError,
                       match="rank 'r' missing from salary table"):
        _corpus([], [], [prof], salaries={"q": 1.0})


def test_fss_professor_nonpositive_tenure():
    broken = Professor("p", "A", "S", "r", 0.0)
    with pytest.raises(CorpusLoadError, match="must be > 0, got 0.0"):
        _corpus([], [], [broken])


def test_fss_skips_missing_baseline_terms():
    prof = Professor("p", "A", "S", "r", 1.0)
    corpus = _corpus([_pub("w1", 2, 1), _pub("w2", 5, 1, cats=("UNKNOWN",))],
                     [Authorship("w1", "p"), Authorship("w2", "p")], [prof])
    table = {(2008, "C"): (2.0, 1, 1)}
    assert _fss_p(corpus, table)["p"] == 1.0
    assert professor_pass(corpus, table).fss_skipped == 1


# ---------------------------------------------------------------------------
# SDS standardization

def _unit_fss(corpus, level, scope, scores, univ="A"):
    """Unit FSS from hand-made professor scores."""
    pass_ = professor_pass(corpus, {})
    pass_ = pass_._replace(scores=[scores[p] for p in corpus.professor_ids],
                           averages=_averages(corpus, scores))
    fss, _ = unit_scores(pass_, univ, scope,
                         staff_of(pass_, univ, level, scope), FSS)
    return fss


def _staff_corpus(assignment: dict[str, tuple[str, str]]) -> Corpus:
    profs = [Professor(pid, univ, sds, "r", 5.0)
             for pid, (univ, sds) in assignment.items()]
    sds_map = {sds: "U" for _, sds in assignment.values()}
    return _corpus([], [], profs, sds_map=sds_map)


def test_sds_average_ignores_unproductive():
    corpus = _staff_corpus({"p1": ("A", "S"), "p2": ("B", "S"), "p3": ("C", "S")})
    averages = _averages(corpus, {"p1": 0.0, "p2": 2.0, "p3": 4.0})
    assert averages == {"S": 3.0}


def test_sds_average_no_productive_professors():
    corpus = _staff_corpus({"p1": ("A", "S")})
    assert "S" not in _averages(corpus, {"p1": 0.0})
    assert professor_pass(corpus, {}).unproductive == ["S"]


def test_sds_average_singleton():
    corpus = _staff_corpus({"p1": ("A", "S")})
    assert _averages(corpus, {"p1": 1.0})["S"] == 1.0


def test_fss_unit_all_at_average():
    corpus = _staff_corpus({"p1": ("A", "S"), "p2": ("B", "S")})
    scores = {"p1": 0.7, "p2": 0.7}
    unit = _unit_fss(corpus, "sds", "S", scores)
    assert unit.score == pytest.approx(1.0)
    assert unit.research_staff == 1


def test_fss_unit_includes_unproductive_in_staff():
    # ratios {2.0, 0}: the zero stays in the denominator
    corpus = _staff_corpus({"p1": ("A", "S"), "p2": ("A", "S"),
                            "p3": ("B", "S")})
    scores = {"p1": 2.0, "p2": 0.0, "p3": 2.0}
    # national average over productive: (2 + 2) / 2 = 2 -> ratios 1.0 and 0.0
    unit = _unit_fss(corpus, "sds", "S", scores)
    assert unit.score == pytest.approx(0.5)
    assert unit.research_staff == 2


def test_fss_unit_ratio_two_and_zero_average_to_one():
    # national average over productive {4, 1, 1} is 2, so unit A holds
    # standardized ratios {2.0, 0}; the unproductive zero stays in RS
    corpus = _staff_corpus({"p1": ("A", "S"), "p2": ("A", "S"),
                            "p3": ("B", "S"), "p4": ("C", "S")})
    scores = {"p1": 4.0, "p2": 0.0, "p3": 1.0, "p4": 1.0}
    unit = _unit_fss(corpus, "sds", "S", scores)
    assert unit.score == pytest.approx(1.0)
    assert unit.research_staff == 2


def test_fss_unit_singleton_ratio():
    corpus = _staff_corpus({"p1": ("A", "S"), "p2": ("B", "S")})
    scores = {"p1": 1.0, "p2": 3.0}
    unit = _unit_fss(corpus, "sds", "S", scores)
    assert unit.score == pytest.approx(0.5)


def test_fss_unit_drops_unstandardizable_sds():
    # p2's SDS has no productive professor anywhere: drop from staff too
    profs = [Professor("p1", "A", "S1", "r", 5.0),
             Professor("p2", "A", "S2", "r", 5.0),
             Professor("p3", "B", "S1", "r", 5.0)]
    corpus = _corpus([], [], profs, sds_map={"S1": "U", "S2": "U"})
    scores = {"p1": 2.0, "p2": 0.0, "p3": 2.0}
    unit = _unit_fss(corpus, "uda", "U", scores)
    assert unit.research_staff == 1
    assert unit.score == pytest.approx(1.0)


def test_fss_unit_standardizes_by_own_sds_at_uda_level():
    # two SDSs with different national averages inside one discipline
    profs = [Professor("p1", "A", "S1", "r", 5.0),
             Professor("p2", "A", "S2", "r", 5.0),
             Professor("p3", "B", "S1", "r", 5.0),
             Professor("p4", "B", "S2", "r", 5.0)]
    corpus = _corpus([], [], profs, sds_map={"S1": "U", "S2": "U"})
    scores = {"p1": 1.0, "p2": 8.0, "p3": 3.0, "p4": 8.0}
    # averages: S1 -> 2, S2 -> 8; A's ratios: 0.5, 1.0
    unit = _unit_fss(corpus, "uda", "U", scores)
    assert unit.score == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# MNCS

def _mncs(corpus, table, level="overall", scope="overall"):
    """Unit A's MNCS entry from the scoring pass; None when it has none."""
    pair = scoreboards(professor_pass(corpus, table), RELAXED_CFG, level,
                       MNCS).pairs[scope]
    return next((e for e in pair.mncs.entries if e.university_id == "A"), None)


def test_mncs_all_unit_impact():
    profs = [Professor("p", "A", "S", "r", 5.0)]
    corpus = _corpus([_pub("w1", 3, 2), _pub("w2", 3, 3)],
                     [Authorship("w1", "p"), Authorship("w2", "p")], profs)
    table = {(2008, "C"): (3.0, 2, 2)}
    assert _mncs(corpus, table).score == pytest.approx(1.0)


def test_mncs_single_publication_weight_cancels():
    profs = [Professor("p", "A", "S", "r", 5.0)]
    corpus = _corpus([_pub("w", 6, 2)], [Authorship("w", "p")], profs)
    table = {(2008, "C"): (3.0, 1, 1)}
    unit = _mncs(corpus, table)
    assert unit.score == pytest.approx(2.0)
    assert unit.publication_weight == pytest.approx(0.5)


def test_mncs_uncited_keeps_weight_in_denominator():
    # (impact 2, weight 0.5) and (impact 0, weight 0.25) -> 1.0 / 0.75
    profs = [Professor("p1", "A", "S", "r", 5.0),
             Professor("p2", "A", "S", "r", 5.0)]
    corpus = _corpus([_pub("w1", 6, 4), _pub("w2", 0, 4)],
                     [Authorship("w1", "p1"), Authorship("w1", "p2"),
                      Authorship("w2", "p1")], profs)
    table = {(2008, "C"): (3.0, 1, 2)}
    unit = _mncs(corpus, table)
    assert unit.score == pytest.approx(1.0 / 0.75)


def test_mncs_counts_in_scope_professors_once_per_publication():
    # same-university professors in different SDSs share one publication
    profs = [Professor("p1", "A", "S1", "r", 5.0),
             Professor("p2", "A", "S2", "r", 5.0)]
    corpus = _corpus([_pub("w", 6, 4)],
                     [Authorship("w", "p1"), Authorship("w", "p2")],
                     profs, sds_map={"S1": "U", "S2": "U"})
    table = {(2008, "C"): (3.0, 1, 1)}
    unit = _mncs(corpus, table)
    assert unit.publication_weight == pytest.approx(0.5)   # m=2, n=4
    # at SDS level only one professor is in scope: m=1, n=4
    unit_sds = _mncs(corpus, table, "sds", "S1")
    assert unit_sds.publication_weight == pytest.approx(0.25)


def test_mncs_no_publications():
    profs = [Professor("p", "A", "S", "r", 5.0)]
    corpus = _corpus([], [], profs)
    table = {}
    assert _mncs(corpus, table) is None
    assert unit_scores(professor_pass(corpus, table), "A", None, [0],
                       MNCS) == (None, None)


def test_mncs_weights_in_unit_interval():
    rng = np.random.default_rng(12)
    for _ in range(10):
        corpus = random_corpus(rng)
        for pub_id, m in _unit_weights(corpus):
            pub = records(corpus).publications[pub_id]
            assert 0 < m / pub.n_authors_total <= 1


def _unit_weights(corpus):
    rows = records(corpus)
    for univ in sorted(set(corpus.universities)):
        members = {p.professor_id for p in rows.professors.values()
                   if p.university_id == univ}
        counts: dict[str, int] = {}
        for a in rows.authorships:
            if a.professor_id in members:
                counts[a.pub_id] = counts.get(a.pub_id, 0) + 1
        yield from counts.items()


# ---------------------------------------------------------------------------
# Scoreboards

def test_scoreboards_same_unit_sets(tiny_corpus, relaxed_cfg):
    from rankdiff import apply_filters
    filtered = apply_filters(tiny_corpus, relaxed_cfg)
    table = compute_scaling_factors(filtered)
    boards = scoreboards(professor_pass(filtered, table), relaxed_cfg, "sds")
    pair = boards.pairs["S1"]
    assert unit_ids(pair.fss) == unit_ids(pair.mncs) == ["A", "B"]


def test_scoreboard_empty_scope(tiny_corpus, relaxed_cfg):
    table = compute_scaling_factors(tiny_corpus)
    boards = scoreboards(professor_pass(tiny_corpus, table), relaxed_cfg,
                         "sds", "fss")
    assert "S99" not in boards.pairs


def test_scoreboards_single_indicator_request(tiny_corpus, relaxed_cfg):
    from rankdiff import apply_filters
    filtered = apply_filters(tiny_corpus, relaxed_cfg)
    table = compute_scaling_factors(filtered)
    fss_only = scoreboards(professor_pass(filtered, table), relaxed_cfg,
                           "sds", "fss")
    assert all(p.mncs is None and p.fss is not None
               for p in fss_only.pairs.values())
    mncs_only = scoreboards(professor_pass(filtered, table), relaxed_cfg,
                            "sds", "mncs")
    assert all(p.fss is None and p.mncs is not None
               for p in mncs_only.pairs.values())


def test_scoreboards_flag_not_rankable_sds_scopes(tiny_corpus):
    # S1 has 2 eligible universities, below the 5-unit ranking floor
    cfg = FilterConfig(min_professors_sds=1, min_units_to_rank=5)
    table = compute_scaling_factors(tiny_corpus)
    boards = scoreboards(professor_pass(tiny_corpus, table), cfg, "sds")
    assert "S1" in boards.not_rankable
    assert "S1" not in boards.pairs
    assert any("S1" in w for w in boards.warnings)


def test_scoreboards_drop_units_missing_one_indicator(relaxed_cfg):
    # university B has staff but no publications: dropped from both boards
    profs = [Professor("p1", "A", "S", "r", 5.0),
             Professor("p2", "B", "S", "r", 5.0)]
    corpus = _corpus([_pub("w", 2, 1)], [Authorship("w", "p1")], profs)
    table = compute_scaling_factors(corpus)
    boards = scoreboards(professor_pass(corpus, table), relaxed_cfg, "sds")
    pair = boards.pairs["S"]
    assert unit_ids(pair.fss) == unit_ids(pair.mncs) == ["A"]
    assert pair.dropped_units == ["B"]


@pytest.mark.parametrize("level", ["sds", "uda", "overall"])
def test_scoreboards_match_naive_oracle(level, relaxed_cfg, caplog):
    rng = np.random.default_rng(31)
    corpus = random_corpus(rng, n_universities=4, n_sds=4)
    full = compute_scaling_factors(corpus)
    missing = min(full)
    table = {k: v for k, v in full.items() if k != missing}
    # expected skip warnings: each unit's in-scope publications in that cell
    skipped: dict[tuple, set] = {}
    rows = records(corpus)
    for a in rows.authorships:
        pub = rows.publications[a.pub_id]
        if (pub.year,) + pub.subject_categories == missing:
            prof = rows.professors[a.professor_id]
            unit = (prof.university_id, scope_of(corpus, prof, level))
            skipped.setdefault(unit, set()).add(a.pub_id)
    assert skipped
    caplog.clear()
    boards = scoreboards(professor_pass(corpus, table), relaxed_cfg, level)
    logged = sorted(r.getMessage() for r in caplog.records
                    if r.getMessage().startswith("mncs_unit"))
    assert logged == sorted(
        f"mncs_unit {univ}/{scope}: {len(pubs)} publications skipped "
        f"(missing baseline)" for (univ, scope), pubs in skipped.items())
    expected = oracle_unit_scores(corpus, table, level)
    compared = 0
    for (univ, scope), (fss, staff, mncs, weight) in expected.items():
        pair = boards.pairs[scope]
        if fss is None or mncs is None:
            assert univ in pair.dropped_units
            continue
        (got_fss,) = [e for e in pair.fss.entries if e.university_id == univ]
        (got_mncs,) = [e for e in pair.mncs.entries
                       if e.university_id == univ]
        assert got_fss.score == pytest.approx(fss, rel=1e-12, abs=0)
        assert got_fss.research_staff == staff
        assert got_mncs.score == pytest.approx(mncs, rel=1e-12, abs=0)
        assert got_mncs.publication_weight == pytest.approx(weight, rel=1e-12)
        compared += 1
    assert compared == sum(len(p.fss.entries) for p in boards.pairs.values())
    assert compared >= 4


# ---------------------------------------------------------------------------
# Indicator invariants

def _unit_mncs(corpus, table, univ="UNIV1"):
    return overall_scores(corpus, table, MNCS).get(univ)


def test_mncs_paradox_small_loop():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 30:
        corpus = random_corpus(rng, n_universities=2, n_sds=2, p_uncited=0.2)
        table = compute_scaling_factors(corpus)
        before = _unit_mncs(corpus, table)
        if before is None or before <= 0:
            continue
        year, cat = min(table)
        mean = table[year, cat][0]
        prof = next(p.professor_id for p in records(corpus).professors.values()
                    if p.university_id == "UNIV1")
        low_c = int(mean * before * 0.5)
        if low_c / mean >= before:
            continue
        low = Publication("EXTRA_LOW", year, "article", (cat,), low_c, 2)
        high = Publication("EXTRA_HIGH", year, "article", (cat,),
                           int(np.ceil(mean * before * 2)) + 1, 2)
        assert _unit_mncs(add_publication(corpus, low, [prof]), table) < before
        assert _unit_mncs(add_publication(corpus, high, [prof]), table) > before
        checked += 1


def test_fss_monotone_in_cited_publications():
    rng = np.random.default_rng(22)
    for _ in range(30):
        corpus = random_corpus(rng, n_universities=2, n_sds=1)
        table = compute_scaling_factors(corpus)
        pid = sorted(corpus.professor_ids)[0]
        year, cat = min(table)
        before = _fss_p(corpus, table)[pid]
        cited = Publication("EXTRA_C", year, "article", (cat,), 3, 2)
        with_cited = add_publication(corpus, cited, [pid])
        assert _fss_p(with_cited, table)[pid] > before
        uncited = Publication("EXTRA_U", year, "article", (cat,), 0, 2)
        with_uncited = add_publication(corpus, uncited, [pid])
        assert _fss_p(with_uncited, table)[pid] == pytest.approx(before, abs=0)


def test_size_independence_under_cloning():
    rng = np.random.default_rng(23)
    for _ in range(20):
        corpus = random_corpus(rng, n_universities=3, n_sds=2,
                               profs_per=(1, 2))
        table = compute_scaling_factors(corpus)
        averages = _averages(corpus, _fss_p(corpus, table))
        univ = "UNIV1"
        fss_before = overall_scores(corpus, table, FSS).get(univ)
        mncs_before = _unit_mncs(corpus, table, univ)
        if fss_before is None or mncs_before is None:
            continue
        # the clone is standardized by the original national averages
        cloned = clone_university(corpus, univ)
        cloned_pass = professor_pass(cloned, table)._replace(
            averages=averages)
        fss_after = unit_scores(cloned_pass, univ, None,
                                staff_of(cloned_pass, univ), FSS)[0].score
        mncs_after = _unit_mncs(cloned, table, univ)
        assert fss_after == pytest.approx(fss_before, abs=1e-9)
        assert mncs_after == pytest.approx(mncs_before, abs=1e-9)


def test_uniform_salary_scaling_leaves_units_unchanged():
    rng = np.random.default_rng(24)
    for _ in range(20):
        corpus = random_corpus(rng, n_universities=3, n_sds=2)
        table = compute_scaling_factors(corpus)
        k = float(rng.uniform(0.2, 8.0))
        scaled = rebuilt(corpus, salary_table={
            r: s * k for r, s in corpus.salary_table.items()})
        scores = _fss_p(corpus, table)
        scores_k = _fss_p(scaled, table)
        for pid in scores:
            assert scores_k[pid] == pytest.approx(scores[pid] / k, rel=1e-9)
        before = overall_scores(corpus, table, FSS)
        after = overall_scores(scaled, table, FSS)
        assert after.keys() == before.keys()
        for univ, value in before.items():
            assert after[univ] == pytest.approx(value, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_universities=st.integers(1, 4),
       n_sds=st.integers(1, 4), pubs_mean=st.floats(0.2, 4.0),
       p_uncited=st.floats(0.0, 1.0), multi=st.floats(0.0, 0.5))
def test_finite_corpus_gives_finite_scores_at_every_level(
        seed, n_universities, n_sds, pubs_mean, p_uncited, multi):
    # sparse output leaves professors, units and whole SDSs without a
    # productive professor or a cited publication; none of them may end in
    # a division by zero, an infinity or a nan
    corpus = random_corpus(np.random.default_rng(seed), n_universities, n_sds,
                           pubs_mean=pubs_mean, p_uncited=p_uncited,
                           multi_category_share=multi)
    table = compute_scaling_factors(corpus)
    for level in LEVELS:
        for indicator in (FSS, MNCS):
            board_set = scoreboards(professor_pass(corpus, table),
                                    RELAXED_CFG, level, indicator)
            for pair in board_set.pairs.values():
                board = pair.fss if indicator == FSS else pair.mncs
                assert all(math.isfinite(e.score) and e.score >= 0
                           for e in board.entries), board


@pytest.mark.parametrize("factor", [0.37, 1e3])
@pytest.mark.parametrize("level", ["sds", "uda", "overall"])
def test_scoreboards_invariant_under_salary_scaling(level, factor, relaxed_cfg):
    # SDS standardisation divides every professor FSS by its SDS average,
    # which carries the same salary factor; MNCS never reads salaries
    rng = np.random.default_rng(33)
    for _ in range(5):
        corpus = random_corpus(rng, n_universities=4, n_sds=4)
        scaled = rebuilt(corpus, salary_table={
            r: factor * s for r, s in corpus.salary_table.items()})
        table = compute_scaling_factors(corpus)
        before = scoreboards(professor_pass(corpus, table), relaxed_cfg,
                             level, "both")
        after = scoreboards(professor_pass(scaled, table), relaxed_cfg,
                            level, "both")
        assert after.pairs.keys() == before.pairs.keys()
        for scope, pair in before.pairs.items():
            assert after.pairs[scope].mncs == pair.mncs
            for old, new in zip(pair.fss.entries, after.pairs[scope].fss.entries,
                                strict=True):
                assert new.university_id == old.university_id
                assert new.research_staff == old.research_staff
                assert new.score == pytest.approx(old.score, rel=1e-12, abs=0)


def test_scores_invariant_under_input_permutation():
    rng = np.random.default_rng(25)
    corpus = random_corpus(rng, n_universities=2, n_sds=2)
    table = compute_scaling_factors(corpus)

    rows = records(corpus)
    order = list(rows.publications)
    rng.shuffle(order)
    shuffled = rebuilt(corpus, {k: rows.publications[k] for k in order},
                       list(reversed(rows.authorships)),
                       dict(reversed(list(rows.professors.items()))))
    assert _fss_p(shuffled, table) == _fss_p(corpus, table)
    for indicator in (FSS, MNCS):
        assert overall_scores(shuffled, table, indicator) == \
            overall_scores(corpus, table, indicator)


def _entries(board):
    return {e.university_id: (e.score, e.research_staff, e.publication_weight)
            for e in board.entries}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.permutations(range(4)))
def test_renaming_universities_permutes_board_entries(seed, order):
    # a bijection of university ids moves no professor between units, so
    # each renamed unit keeps its score, staff and weight, and its rank
    # wherever the board has no tie
    corpus = random_corpus(np.random.default_rng(seed), n_universities=4,
                           n_sds=3)
    new_name = {f"UNIV{i + 1}": f"UNIV{j + 1}" for i, j in enumerate(order)}
    renamed = rebuilt(corpus, professors={
        pid: p._replace(university_id=new_name[p.university_id])
        for pid, p in records(corpus).professors.items()})
    table = compute_scaling_factors(corpus)
    for level in LEVELS:
        before = scoreboards(professor_pass(corpus, table), RELAXED_CFG, level)
        after = scoreboards(professor_pass(renamed, table), RELAXED_CFG,
                            level)
        assert after.pairs.keys() == before.pairs.keys()
        for scope, pair in before.pairs.items():
            assert sorted(after.pairs[scope].dropped_units) == \
                sorted(new_name[u] for u in pair.dropped_units)
            for old, new in [(pair.fss, after.pairs[scope].fss),
                             (pair.mncs, after.pairs[scope].mncs)]:
                assert _entries(new) == {new_name[u]: v for u, v
                                         in _entries(old).items()}
                scores = [e.score for e in old.entries]
                if scores and len(set(scores)) == len(scores):
                    assert {e.unit_id: e.rank for e in rank(new).entries} == \
                        {new_name[e.unit_id]: e.rank for e in rank(old).entries}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 10**6))
def test_citation_scale_leaves_impacts_and_unit_scores(seed, k):
    # every baseline mean scales with the citations, so each normalized
    # impact, and every score built on them, stays where it was
    corpus = random_corpus(np.random.default_rng(seed), n_universities=3,
                           n_sds=3)
    scaled = rebuilt(corpus, {w: p._replace(citations=p.citations * k)
                              for w, p in records(corpus).publications.items()})
    table = compute_scaling_factors(corpus)
    table_k = compute_scaling_factors(scaled)
    impacts = dict(zip(corpus.pub_ids, impact_map(corpus, table)))
    impacts_k = dict(zip(scaled.pub_ids, impact_map(scaled, table_k)))
    assert impacts_k.keys() == impacts.keys()
    for pub_id, impact in impacts.items():
        assert impacts_k[pub_id] == pytest.approx(impact, rel=1e-12, abs=0)
    for level in LEVELS:
        before = scoreboards(professor_pass(corpus, table), RELAXED_CFG, level)
        after = scoreboards(professor_pass(scaled, table_k), RELAXED_CFG,
                            level)
        assert after.pairs.keys() == before.pairs.keys()
        for scope, pair in before.pairs.items():
            for old, new in [(pair.fss, after.pairs[scope].fss),
                             (pair.mncs, after.pairs[scope].mncs)]:
                assert [e.university_id for e in new.entries] == \
                    [e.university_id for e in old.entries]
                for e_old, e_new in zip(old.entries, new.entries):
                    assert e_new.score == pytest.approx(e_old.score, rel=1e-12,
                                                        abs=0)
