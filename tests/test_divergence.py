from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankdiff import (DegenerateVariance, NoRankableSds, ZeroMean,
                      average_ranks, dispersion, pearson, quartile_stats,
                      range_summary, shift_stats, spearman)
from rankdiff.divergence import DivergenceSummary
from rankdiff.indicators import FSS, ScoreBoard, UnitScore
from rankdiff.ranking import compare, rank
from helpers import (boards_from_columns, comparison_from_ranks, load_ref,
                     oracle_quartile_stats, oracle_shift_stats, replay_compare)


# ---------------------------------------------------------------------------
# Correlations

def test_pearson_identity_and_antisymmetry():
    xs = [1.0, 2.0, 4.0, 9.0]
    assert pearson(xs, xs) == pytest.approx(1.0)
    assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)


def test_pearson_degenerate_variance():
    with pytest.raises(DegenerateVariance):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_pearson_overflow_is_nan():
    # the squares overflow while the cross products stay finite: r is 1,
    # not the 0.0 that dividing by an infinite denominator gives
    assert math.isnan(pearson([1e200, 2e200, 3e200, 4e200], [1, 2, 3, 4]))


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e-310])
def test_tiny_deviations_keep_their_correlation_and_dispersion(scale):
    # squares of 1e-200 underflow to 0 and those of 1e-160 to subnormals;
    # 1e-160 in both columns makes the product of the sums underflow
    xs = [v * scale for v in (1.0, 2.0, 3.0, 4.0)]
    ys = [v * min(scale, 1e-160) for v in (1.0, 2.0, 4.0, 3.0)]
    assert pearson(xs, xs[::-1]) == pytest.approx(-1.0)
    assert pearson(xs, [1, 2, 4, 3]) == pytest.approx(0.8)
    assert pearson(xs, ys) == pytest.approx(0.8)
    assert spearman(xs, ys) == pytest.approx(0.8)
    stats = dispersion(ScoreBoard("overall", "overall", FSS, [
        UnitScore(f"U{i}", FSS, x) for i, x in enumerate(xs)]))
    assert stats.coefficient_of_variation == pytest.approx(
        math.sqrt(5 / 3) / 2.5, rel=1e-12 if scale > 1e-300 else 1e-6)


def test_pearson_rejects_short_or_mismatched_input():
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0, 3.0], [1.0, 2.0])


def test_pearson_against_scipy():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(3, 60))
        xs = rng.normal(size=n)
        ys = rng.normal(size=n) + 0.5 * xs
        assert pearson(xs, ys) == pytest.approx(
            scipy.stats.pearsonr(xs, ys).statistic, abs=1e-12)


def test_spearman_monotone_is_one():
    xs = [3.0, 1.0, 7.0, 2.0]
    ys = [x ** 3 + 1 for x in xs]
    assert spearman(xs, ys) == pytest.approx(1.0)


def test_spearman_against_scipy_with_ties():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(4, 50))
        xs = rng.integers(0, 6, size=n).astype(float)   # plenty of ties
        ys = rng.integers(0, 6, size=n).astype(float)
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        assert spearman(xs, ys) == pytest.approx(
            scipy.stats.spearmanr(xs, ys).statistic, abs=1e-12)


def test_spearman_equals_pearson_of_ranks_without_ties():
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        xs = rng.permutation(n).astype(float)
        ys = rng.permutation(n).astype(float)
        ranks_x = np.array([sorted(xs).index(v) + 1 for v in xs], dtype=float)
        ranks_y = np.array([sorted(ys).index(v) + 1 for v in ys], dtype=float)
        assert spearman(xs, ys) == pearson(ranks_x, ranks_y)   # bit-exact


def test_spearman_four_point_tie_case():
    # hand-assigned average ranks: xs -> [1.5, 1.5, 3, 4], ys -> [1, 2, 3, 4]
    xs = [5.0, 5.0, 7.0, 9.0]
    ys = [1.0, 2.0, 3.0, 4.0]
    assert list(average_ranks(xs)) == [1.5, 1.5, 3.0, 4.0]
    assert spearman(xs, ys) == pearson([1.5, 1.5, 3.0, 4.0],
                                       [1.0, 2.0, 3.0, 4.0])


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=-50, max_value=50,
                          allow_nan=False).map(lambda x: round(x, 3)),
                min_size=3, max_size=25),
       st.floats(min_value=0.01, max_value=20, allow_nan=False),
       st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_correlations_invariant_under_positive_affine(xs, a, b):
    if len(set(xs)) < 2:
        return
    ys = list(np.linspace(0, 1, len(xs)))
    transformed = [a * x + b for x in xs]
    assert pearson(transformed, ys) == pytest.approx(pearson(xs, ys), abs=1e-9)
    assert spearman(transformed, ys) == pytest.approx(spearman(xs, ys),
                                                      abs=1e-9)


def test_spearman_invariant_under_monotone_transform():
    rng = np.random.default_rng(44)
    xs = rng.normal(size=20)
    ys = rng.normal(size=20)
    assert spearman(np.exp(xs), ys) == pytest.approx(spearman(xs, ys),
                                                     abs=1e-12)


# ---------------------------------------------------------------------------
# Shift statistics

def test_shift_stats_identity_ranking():
    cmp = comparison_from_ranks([1, 2, 3, 4], [1, 2, 3, 4])
    s = shift_stats(cmp)
    assert s.pct_shifting_rank == 0.0
    assert s.mean_abs_shift == 0.0
    assert s.median_abs_shift == 0.0
    assert s.max_abs_shift == 0


def test_shift_stats_two_swapped():
    s = shift_stats(comparison_from_ranks([1, 2], [2, 1]))
    assert s.pct_shifting_rank == 100.0
    assert s.mean_abs_shift == 1.0
    assert s.median_abs_shift == 1.0
    assert s.max_abs_shift == 1


def test_shift_stats_field_reference_row():
    # pharmaceutical-chemistry reference comparison: 26 of 29 shift,
    # total movement 134 positions
    cmp = replay_compare(load_ref("ref_field_chim08.csv"), label="CHIM/08")
    s = shift_stats(cmp)
    assert s.n_units == 29
    assert s.pct_shifting_rank == pytest.approx(100 * 26 / 29)
    assert s.mean_abs_shift == pytest.approx(134 / 29)
    assert s.median_abs_shift == 4.0
    assert s.max_abs_shift == 14
    assert s.mean_pct_shift == pytest.approx(134 / 29 * 100 / 28)
    assert s.max_pct_shift == pytest.approx(50.0)


def test_shift_stats_small_population_has_no_correlations():
    s = shift_stats(comparison_from_ranks([1, 2], [2, 1]))
    assert s.pearson is None
    assert s.spearman is None


def test_quartile_stats_identity():
    q = quartile_stats(comparison_from_ranks([1, 2, 3, 4], [1, 2, 3, 4]))
    assert q.pct_shifting_quartile == 0.0
    assert q.mean_abs_quartile_shift == 0.0
    assert q.max_quartile_shift == 0
    assert q.pct_leaving_q1 == 0.0


def test_shift_and_quartile_stats_match_enumeration_oracle():
    for n in range(2, 5):
        identity = list(range(1, n + 1))
        for perm in itertools.permutations(identity):
            cmp = comparison_from_ranks(identity, list(perm))
            s = shift_stats(cmp)
            expected = oracle_shift_stats(identity, list(perm))
            assert s.pct_shifting_rank == pytest.approx(expected["pct_shifting"])
            assert s.mean_abs_shift == pytest.approx(expected["mean"])
            assert s.median_abs_shift == pytest.approx(expected["median"])
            assert s.max_abs_shift == expected["max"]
            q = quartile_stats(cmp)
            expected_q = oracle_quartile_stats(identity, list(perm))
            assert q.pct_shifting_quartile == pytest.approx(
                expected_q["pct_shifting"])
            assert q.mean_abs_quartile_shift == pytest.approx(expected_q["mean"])
            assert q.max_quartile_shift == expected_q["max"]
            assert q.pct_leaving_q1 == pytest.approx(
                expected_q["pct_leaving_q1"])


# ---------------------------------------------------------------------------
# Dispersion

def test_dispersion_constant_scores():
    board = ScoreBoard("replay", "t", FSS,
                       [UnitScore(f"N{i}", FSS, 2.0) for i in range(5)])
    d = dispersion(board)
    assert d.std_dev == 0.0
    assert d.coefficient_of_variation == 0.0


def test_dispersion_zero_mean():
    board = ScoreBoard("replay", "t", FSS,
                       [UnitScore("A", FSS, -1.0), UnitScore("B", FSS, 1.0)])
    with pytest.raises(ZeroMean):
        dispersion(board)


def test_dispersion_matches_numpy_sample_std():
    rng = np.random.default_rng(45)
    values = rng.uniform(0.2, 3.0, size=40)
    board = ScoreBoard("replay", "t", FSS,
                       [UnitScore(f"N{i}", FSS, float(v))
                        for i, v in enumerate(values)])
    d = dispersion(board)
    assert d.mean == pytest.approx(values.mean())
    assert d.std_dev == pytest.approx(values.std(ddof=1))
    assert d.coefficient_of_variation == pytest.approx(
        values.std(ddof=1) / values.mean())


def test_statistics_past_float_range_give_inf_or_nan():
    # finite scores whose sums leave the float range: the statistics are
    # inf or nan, as float arithmetic gives, and nothing raises
    huge = [1.7e308 - i * 1e300 for i in range(6)]
    d = dispersion(ScoreBoard("replay", "t", FSS,
                              [UnitScore(f"N{i}", FSS, v)
                               for i, v in enumerate(huge)]))
    assert d.mean == math.inf
    assert d.std_dev == math.inf
    assert math.isnan(pearson(huge, range(6)))


def test_dispersion_needs_two_scores():
    board = ScoreBoard("replay", "t", FSS, [UnitScore("A", FSS, 1.0)])
    with pytest.raises(ValueError):
        dispersion(board)


# ---------------------------------------------------------------------------
# Ranges across fields

def _summary_from_ref(row: dict[str, str]) -> DivergenceSummary:
    n = int(row["n_units"])
    return DivergenceSummary(
        scope_code=row["sds"], n_units=n,
        pct_shifting_rank=float(row["pct_shifting"]),
        mean_abs_shift=float(row["mean_shift"]),
        median_abs_shift=float(row["median_shift"]),
        max_abs_shift=int(float(row["max_shift"])),
        mean_pct_shift=float(row["mean_pct_shift"]),
        median_pct_shift=float(row["median_shift"]) * 100 / (n - 1),
        max_pct_shift=float(row["max_pct_shift"]),
        pearson=float(row["pearson"]),
        spearman=float(row["spearman"]),
    )


def test_range_summary_chemistry_reference():
    summaries = [_summary_from_ref(r)
                 for r in load_ref("ref_sds_shift_summary_chemistry.csv")]
    ranges = range_summary(summaries, "3")
    assert ranges.n_sds == 11
    assert ranges.ranges["pearson"] == (-0.173, 0.868)
    assert ranges.ranges["spearman"] == (0.0, 0.959)
    assert ranges.ranges["pct_shifting_rank"] == (77.8, 100.0)
    assert ranges.ranges["mean_pct_shift"] == (7.2, 39.3)
    assert ranges.ranges["max_pct_shift"] == (17.6, 93.3)


def test_range_summary_singleton():
    s = _summary_from_ref(load_ref("ref_sds_shift_summary_chemistry.csv")[0])
    ranges = range_summary([s], "3")
    for lo, hi in ranges.ranges.values():
        assert lo == hi


def test_range_summary_empty():
    with pytest.raises(NoRankableSds):
        range_summary([], "3")


def test_mean_pct_shift_consistency():
    rng = np.random.default_rng(46)
    for _ in range(30):
        n = int(rng.integers(2, 30))
        perm = list(rng.permutation(n) + 1)
        s = shift_stats(comparison_from_ranks(list(range(1, n + 1)), perm))
        assert s.mean_pct_shift == pytest.approx(
            s.mean_abs_shift * 100 / (n - 1))
        assert s.max_pct_shift == pytest.approx(s.max_abs_shift * 100 / (n - 1))


# ---------------------------------------------------------------------------
# The standard-library statistics against numpy and scipy

# eighths give many exact ties; 2-decimal floats give a few
_score = st.one_of(st.integers(0, 40).map(lambda k: k / 8),
                   st.floats(min_value=0, max_value=50).map(
                       lambda x: round(x, 2)))


@pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stdlib_statistics_match_numpy_and_scipy(parity, data):
    n = 2 * data.draw(st.integers(1, 20)) + parity
    fss = data.draw(st.lists(_score, min_size=n, max_size=n))
    mncs = data.draw(st.lists(_score, min_size=n, max_size=n))
    assert average_ranks(fss) == list(
        scipy.stats.rankdata(fss, method="average"))

    units = [f"U{i}" for i in range(n)]
    cmp = compare(*(rank(b) for b in boards_from_columns(units, fss, mncs)))
    shifts = np.array([abs(r.rank_shift) for r in cmp.rows], dtype=float)
    s = shift_stats(cmp)
    assert s.mean_abs_shift == shifts.mean()
    assert s.median_abs_shift == np.median(shifts)
    assert s.max_abs_shift == shifts.max()
    deltas = [abs(r.quartile_fss - r.quartile_mncs) for r in cmp.rows]
    assert quartile_stats(cmp).mean_abs_quartile_shift == np.mean(deltas)

    values = np.array(fss)
    assume(values.mean() != 0.0)
    d = dispersion(ScoreBoard("replay", "t", FSS,
                              [UnitScore(u, FSS, v) for u, v in zip(units, fss)]))
    assert d.mean == pytest.approx(values.mean(), rel=1e-12)
    assert d.std_dev == pytest.approx(values.std(ddof=1), rel=1e-12)
