from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdiff import (DegeneratePopulation, EmptyBoard, ScoreBoard,
                      UnitSetMismatch, compare, natural_key, percentile,
                      quartile, rank, round_half_away, shift_glyph)
from rankdiff.indicators import FSS, MNCS, UnitScore
from helpers import boards_from_columns


def _board(scores: dict[str, float]) -> ScoreBoard:
    return ScoreBoard("replay", "t", FSS,
                      [UnitScore(u, FSS, s) for u, s in scores.items()])


def test_rank_orders_by_score_then_unit_id():
    ranked = rank(_board({"B": 5.0, "A": 5.0, "C": 3.0}))
    assert [(e.unit_id, e.rank) for e in ranked.entries] == \
        [("A", 1), ("B", 2), ("C", 3)]
    assert ranked.ties == [(5.0, ("A", "B"))]


def test_rank_natural_id_order():
    ranked = rank(_board({"UNIV_10": 1.0, "UNIV_9": 1.0, "UNIV_100": 1.0}))
    assert [e.unit_id for e in ranked.entries] == \
        ["UNIV_9", "UNIV_10", "UNIV_100"]


def test_natural_key_ordering():
    assert natural_key("UNIV_9") < natural_key("UNIV_10")
    assert natural_key("UNIV_3") < natural_key("UNIV_21")
    assert natural_key("UNIV_007") == natural_key("UNIV_7")
    # longer than int() parses, and a digit that is not a decimal digit
    assert natural_key("U" + "9" * 5000) > natural_key("U" + "9" * 4999)
    assert natural_key("U²") > natural_key("U2")


def test_rank_single_unit_percentile_convention():
    ranked = rank(_board({"A": 1.0}))
    assert ranked.degenerate
    assert ranked.entries[0].rank == 1
    assert ranked.entries[0].percentile == 100.0


def test_rank_empty_board():
    with pytest.raises(EmptyBoard):
        rank(_board({}))


# ---------------------------------------------------------------------------
# Percentiles and quartiles

@pytest.mark.parametrize("r,n,expected", [
    (1, 29, 100.0), (29, 29, 0.0), (25, 49, 50.0), (2, 29, 96.4)])
def test_percentile_reference_points(r, n, expected):
    assert round_half_away(percentile(r, n)) == expected


def test_percentile_rounds_half_away():
    assert percentile(40, 49) == 18.75
    assert round_half_away(percentile(40, 49)) == 18.8


def test_percentile_degenerate_population():
    with pytest.raises(DegeneratePopulation):
        percentile(1, 1)


def test_percentile_rank_out_of_range():
    with pytest.raises(ValueError):
        percentile(0, 10)
    with pytest.raises(ValueError):
        percentile(11, 10)


@given(st.integers(min_value=2, max_value=500),
       st.integers(min_value=1, max_value=499))
def test_percentile_affine_in_rank(n, r):
    if r + 1 > n:
        return
    step = percentile(r, n) - percentile(r + 1, n)
    assert step == pytest.approx(100.0 / (n - 1), rel=1e-12)


@pytest.mark.parametrize("r,n,expected", [
    (16, 64, 1), (17, 64, 2), (1, 7, 1), (7, 7, 4), (1, 44, 1), (44, 44, 4)])
def test_quartile_reference_points(r, n, expected):
    assert quartile(r, n) == expected


@given(st.integers(min_value=4, max_value=500))
def test_quartile_best_unit_is_q1_worst_is_q4(n):
    assert quartile(1, n) == 1
    assert quartile(n, n) == 4


@given(st.integers(min_value=1, max_value=200))
def test_quartile_counts_balanced(n):
    sizes = [0, 0, 0, 0]
    for r in range(1, n + 1):
        q = quartile(r, n)
        assert 1 <= q <= 4
        sizes[q - 1] += 1
    assert max(sizes) - min(sizes) <= 1


@given(st.integers(min_value=2, max_value=100))
def test_quartile_monotone_in_rank(n):
    values = [quartile(r, n) for r in range(1, n + 1)]
    assert values == sorted(values)


@settings(max_examples=60)
@given(st.lists(st.floats(min_value=-100, max_value=100,
                          allow_nan=False).map(lambda x: round(x, 6)),
                min_size=2, max_size=30, unique=True),
       st.floats(min_value=0.1, max_value=50, allow_nan=False),
       st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_rank_invariant_under_increasing_affine_transform(scores, a, b):
    units = [f"N{i}" for i in range(len(scores))]
    before = rank(_board(dict(zip(units, scores))))
    after = rank(_board({u: a * s + b for u, s in zip(units, scores)}))
    assert [e.unit_id for e in before.entries] == \
        [e.unit_id for e in after.entries]


@settings(max_examples=80)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=1, max_size=25),
       st.randoms(use_true_random=False),
       st.lists(st.floats(-1e9, 1e9), min_size=5, max_size=5, unique=True),
       st.lists(st.floats(-1e9, 1e9), min_size=5, max_size=5, unique=True))
def test_increasing_transform_keeps_ranks_percentiles_and_ties(
        levels, rnd, fss_targets, mncs_targets):
    # scores take one of five levels, so ties are common; a transform sends
    # the k-th level to the k-th smallest target, so it is strictly
    # increasing; units come in a random order and their ids order
    # naturally otherwise than as strings (U9 < U10)
    units = [f"U{i}" for i in range(len(levels))]
    rnd.shuffle(units)
    fss_targets, mncs_targets = sorted(fss_targets), sorted(mncs_targets)

    def boards(fss_of, mncs_of):
        pairs = list(zip(units, levels))
        return (ScoreBoard("replay", None, FSS, [
                    UnitScore(u, FSS, fss_of(f)) for u, (f, _) in pairs]),
                ScoreBoard("replay", None, MNCS, [
                    UnitScore(u, MNCS, mncs_of(m)) for u, (_, m) in pairs]))

    before = boards(float, float)
    after = boards(fss_targets.__getitem__, mncs_targets.__getitem__)
    for old, new in zip(map(rank, before), map(rank, after)):
        assert [e._replace(score=0.0) for e in new.entries] == \
            [e._replace(score=0.0) for e in old.entries]
        assert [g for _, g in new.ties] == [g for _, g in old.ties]
        assert (new.n, new.degenerate) == (old.n, old.degenerate)
        # the documented tie rule: a tie block is in natural unit-id order
        for _, group in old.ties:
            assert list(group) == sorted(group, key=natural_key)
    scoreless = {"fss_score": 0.0, "mncs_score": 0.0}
    assert [r._replace(**scoreless) for r in compare(*map(rank, after)).rows] \
        == [r._replace(**scoreless) for r in compare(*map(rank, before)).rows]


def test_round_half_away():
    assert round_half_away(18.75) == 18.8
    assert round_half_away(-10.75) == -10.8
    assert round_half_away(96.449) == 96.4
    assert round_half_away(31.25) == 31.3
    assert round_half_away(2.5, 0) == 3.0


def test_round_half_away_keeps_the_sign_of_zero():
    # 0.0 == -0.0, so results remembered by value would mix the two
    assert [repr(round_half_away(x, n)) for x, n in
            [(0.0, 1), (-0.0, 1), (0.0, 1), (-0.04, 1), (0.04, 1), (-0.0, 3)]
            ] == ["0.0", "-0.0", "0.0", "-0.0", "0.0", "-0.0"]


# ---------------------------------------------------------------------------
# Comparison

def test_compare_identical_boards_all_zero_shifts():
    units = ["A", "B", "C", "D"]
    scores = [4.0, 3.0, 2.0, 1.0]
    fss, mncs = boards_from_columns(units, scores, scores)
    cmp = compare(rank(fss), rank(mncs))
    assert all(r.rank_shift == 0 for r in cmp.rows)
    assert all(r.pct_shift == 0.0 for r in cmp.rows)
    assert all(r.quartile_fss == r.quartile_mncs for r in cmp.rows)


def test_compare_sign_conventions():
    # unit A leads on FSS but trails on MNCS
    fss, mncs = boards_from_columns(["A", "B"], [2.0, 1.0], [1.0, 2.0])
    cmp = compare(rank(fss), rank(mncs))
    row_a = cmp.by_unit()["A"]
    assert row_a.rank_shift == -1            # worsens under MNCS
    assert row_a.pct_shift == -100.0
    assert shift_glyph(row_a.rank_shift) == "↓1"
    row_b = cmp.by_unit()["B"]
    assert row_b.rank_shift == 1
    assert shift_glyph(row_b.rank_shift) == "↑1"
    assert shift_glyph(0) == "="


def test_compare_rows_sorted_by_fss_rank():
    fss, mncs = boards_from_columns(["X", "Y", "Z"], [1.0, 3.0, 2.0],
                                    [3.0, 2.0, 1.0])
    cmp = compare(rank(fss), rank(mncs))
    assert [r.unit_id for r in cmp.rows] == ["Y", "Z", "X"]
    assert [r.fss_rank for r in cmp.rows] == [1, 2, 3]


def test_compare_unit_set_mismatch():
    fss, _ = boards_from_columns(["A", "B"], [1.0, 2.0], [1.0, 2.0])
    _, mncs = boards_from_columns(["A", "C"], [1.0, 2.0], [1.0, 2.0])
    with pytest.raises(UnitSetMismatch):
        compare(rank(fss), rank(mncs))


def test_compare_sign_consistency_property():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 25))
        units = [f"N{i}" for i in range(n)]
        fss, mncs = boards_from_columns(units, list(rng.normal(size=n)),
                                        list(rng.normal(size=n)))
        cmp = compare(rank(fss), rank(mncs))
        assert sum(r.rank_shift for r in cmp.rows) == 0
        for r in cmp.rows:
            assert (r.rank_shift > 0) == (r.pct_shift > 0)
            assert (r.rank_shift == 0) == (r.pct_shift == 0)
            assert r.pct_shift == pytest.approx(
                r.rank_shift * 100.0 / (n - 1), rel=1e-12)
