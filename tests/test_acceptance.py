"""Acceptance suite: quantitative replay checks against published reference
rankings, plus randomized property checks on synthetic corpora.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
all). The replays rank the 3-decimal published score columns and compare the
result cell by cell with the published tables. Within a block of units whose
printed scores tie exactly, the published order reflects unrounded data the
replay input does not carry, and the published orders follow no single rule
across blocks. The expected table therefore takes the published one and
reassigns each such block's ranks by the documented tie rule (natural unit
id order); every other cell is compared exactly as published (see
``helpers.expected_replay_table``). The overall maximum shift sits in such a
block and is asserted from the published rank columns instead. The published
overall Pearson (0.574) contradicts its own score columns; C04 asserts the
value the columns determine and prints the published one beside it.
"""
from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest
import scipy.stats

from rankdiff import (FSS, MNCS, FilterConfig, ObservationWindow, Publication,
                      SynthConfig, apply_filters, compare,
                      compute_scaling_factors, dispersion, generate,
                      impact_map, normalized_impact, pearson, percentile,
                      professor_pass, professor_scores, quartile_stats, rank,
                      round_half_away, scoreboards, sds_averages, shift_stats,
                      spearman, unit_scores)
from helpers import (add_publication, boards_from_columns, clone_university,
                     comparison_from_ranks, expected_replay_table, load_ref,
                     oracle_quartile_stats, oracle_shift_stats,
                     overall_scores, random_corpus, replay_compare, staff_of,
                     tie_blocks)


def _criterion(name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {name}: {status}")
    for detail in failures[:12]:
        print(f"    - {detail}")
    if len(failures) > 12:
        print(f"    - ... and {len(failures) - 12} more")
    assert not failures, f"{name}: {len(failures)} failing check(s)"


def _check_cells(rows, cmp, failures, mncs_pct_integer=False) -> set[str]:
    """Compare every cell with the published table, printed-score tie blocks
    re-ranked by the documented tie rule; return the re-ranked units."""
    expected, reordered = expected_replay_table(rows)
    by_unit = cmp.by_unit()
    for row in expected:
        unit = row["unit"]
        got = by_unit[unit]
        if got.fss_rank != int(row["fss_rank"]):
            failures.append(f"{unit}: fss rank {got.fss_rank} != "
                            f"{row['fss_rank']}")
        if got.mncs_rank != int(row["mncs_rank"]):
            failures.append(f"{unit}: mncs rank {got.mncs_rank} != "
                            f"{row['mncs_rank']}")
        if got.rank_shift != int(row["rank_shift"]):
            failures.append(f"{unit}: rank shift {got.rank_shift} != "
                            f"{row['rank_shift']}")
        if abs(round_half_away(got.fss_pct) - float(row["fss_pct"])) > 0.05:
            failures.append(f"{unit}: fss pct {got.fss_pct:.2f} != "
                            f"{row['fss_pct']}")
        if mncs_pct_integer:
            # that table prints MNCS percentiles rounded to integers
            if round_half_away(got.mncs_pct, 0) != float(row["mncs_pct"]):
                failures.append(f"{unit}: mncs pct {got.mncs_pct:.2f} != "
                                f"{row['mncs_pct']}")
        elif abs(round_half_away(got.mncs_pct) - float(row["mncs_pct"])) > 0.05:
            failures.append(f"{unit}: mncs pct {got.mncs_pct:.2f} != "
                            f"{row['mncs_pct']}")
        if abs(round_half_away(got.pct_shift) - float(row["pct_shift"])) > 0.05:
            failures.append(f"{unit}: pct shift {got.pct_shift:.2f} != "
                            f"{row['pct_shift']}")
    return reordered


# ---------------------------------------------------------------------------
# Quantitative replay criteria

def test_criterion_01_field_replay_cells_and_correlations():
    rows = load_ref("ref_field_chim08.csv")
    t0 = time.perf_counter()
    cmp = replay_compare(rows, label="CHIM/08")
    failures: list[str] = []
    reordered = _check_cells(rows, cmp, failures, mncs_pct_integer=True)
    if reordered:
        failures.append(f"tie rule re-ranked {sorted(reordered)}; the "
                        f"published CHIM/08 ties already follow it")
    s = shift_stats(cmp)
    if abs(s.pearson - 0.864) > 0.01:
        failures.append(f"pearson {s.pearson:.4f} != 0.864 +- 0.01")
    if abs(s.spearman - 0.756) > 0.01:
        failures.append(f"spearman {s.spearman:.4f} != 0.756 +- 0.01")
    if time.perf_counter() - t0 > 1.0:
        failures.append("replay exceeded 1 s")
    _criterion("C01 field replay: every CHIM/08 cell + correlations",
               failures)


def test_criterion_02_field_replay_shift_statistics():
    t0 = time.perf_counter()
    cmp = replay_compare(load_ref("ref_field_chim08.csv"), label="CHIM/08")
    s = shift_stats(cmp)
    failures: list[str] = []
    if time.perf_counter() - t0 > 1.0:
        failures.append("replay exceeded 1 s")
    if abs(round_half_away(s.pct_shifting_rank) - 89.7) > 0.05:
        failures.append(f"pct shifting {s.pct_shifting_rank:.2f} != 89.7")
    if abs(s.mean_abs_shift - 4.6) > 0.05:
        failures.append(f"mean |shift| {s.mean_abs_shift:.3f} != 4.6 +- 0.05")
    if s.median_abs_shift != 4:
        failures.append(f"median |shift| {s.median_abs_shift} != 4")
    if s.max_abs_shift != 14:
        failures.append(f"max |shift| {s.max_abs_shift} != 14")
    if abs(s.mean_pct_shift - 16.5) > 0.1:
        failures.append(f"mean pct {s.mean_pct_shift:.2f} != 16.5 +- 0.1")
    if abs(s.max_pct_shift - 50.0) > 0.1:
        failures.append(f"max pct {s.max_pct_shift:.2f} != 50.0 +- 0.1")
    _criterion("C02 field replay: CHIM/08 shift statistics", failures)


def test_criterion_03_discipline_replay():
    rows = load_ref("ref_uda_chemistry.csv")
    t0 = time.perf_counter()
    cmp = replay_compare(rows, label="Chemistry")
    failures: list[str] = []
    reordered = _check_cells(rows, cmp, failures)
    expected_reordered = {"UNIV_13", "UNIV_20", "UNIV_56", "UNIV_58"}
    if reordered != expected_reordered:
        failures.append(f"tie rule re-ranked {sorted(reordered)} != "
                        f"{sorted(expected_reordered)}")
    s = shift_stats(cmp)
    if abs(round_half_away(s.pct_shifting_rank) - 88.6) > 0.05:
        failures.append(f"pct shifting {s.pct_shifting_rank:.2f} != 88.6")
    if abs(s.mean_abs_shift - 5.2) > 0.05:
        failures.append(f"mean |shift| {s.mean_abs_shift:.3f} != 5.2 +- 0.05")
    if s.median_abs_shift != 4:
        failures.append(f"median |shift| {s.median_abs_shift} != 4")
    if s.max_abs_shift != 18:
        failures.append(f"max |shift| {s.max_abs_shift} != 18")
    if abs(s.max_pct_shift - 41.9) > 0.1:
        failures.append(f"max pct {s.max_pct_shift:.2f} != 41.9 +- 0.1")
    if abs(s.spearman - 0.851) > 0.01:
        failures.append(f"spearman {s.spearman:.4f} != 0.851 +- 0.01")
    # two conflicting published values exist for this Pearson; report the
    # computed value against both and require a match with one of them
    candidates = {"0.504": abs(s.pearson - 0.504), "0.805": abs(s.pearson - 0.805)}
    matched = [v for v, d in candidates.items() if d <= 0.01]
    print(f"\n    computed Chemistry Pearson {s.pearson:.4f}; "
          f"matches published value(s): {matched or 'none'}")
    if not matched:
        failures.append(f"pearson {s.pearson:.4f} matches neither 0.504 "
                        f"nor 0.805 within 0.01")
    if time.perf_counter() - t0 > 1.0:
        failures.append("replay exceeded 1 s")
    _criterion("C03 discipline replay: Chemistry cells + statistics",
               failures)


def test_criterion_04_overall_replay():
    rows = load_ref("ref_overall.csv")
    t0 = time.perf_counter()
    cmp = replay_compare(rows, label="overall")
    failures: list[str] = []
    # rank() reproduces the published rank columns up to the order inside
    # printed-score tie blocks
    _check_cells(rows, cmp, failures)
    block = tie_blocks(rows, "mncs").get("0.652")
    if block != [(54, "UNIV_70"), (55, "UNIV_34")]:
        failures.append(f"MNCS 0.652 tie block {block} != UNIV_70/UNIV_34 "
                        f"at ranks 54-55")
    # the published maximum shift falls in that block, whose order the
    # printed scores cannot carry: assert it from the published ranks
    published = comparison_from_ranks([int(r["fss_rank"]) for r in rows],
                                      [int(r["mncs_rank"]) for r in rows])
    worst = max(published.rows, key=lambda r: abs(r.pct_shift))
    if worst.fss_rank != 13 or worst.rank_shift != -42:
        failures.append(
            f"max shift at fss rank {worst.fss_rank} ({worst.rank_shift:+d}) "
            f"!= fss rank 13 (-42)")
    max_pct = shift_stats(published).max_pct_shift
    if abs(max_pct - 66.7) > 0.1:
        failures.append(f"max |pct shift| {max_pct:.2f} != 66.7")
    if quartile_stats(published).max_quartile_shift != 3:
        failures.append("published max quartile shift != 3")
    s = shift_stats(cmp)
    # The published overall Pearson is 0.574, but the bundled score columns
    # give 0.7322. Printing scores to 3 decimals moves it by at most 0.003
    # (linear worst case), and the same columns reproduce the published
    # Spearman (0.615) and every C05 dispersion figure, so the columns are
    # right and 0.574 is not determined by them. Assert the columns' value.
    columns_pearson = scipy.stats.pearsonr(
        [float(r["fss_score"]) for r in rows],
        [float(r["mncs_score"]) for r in rows])[0]
    print(f"\n    computed overall Pearson {s.pearson:.4f} (scipy "
          f"{columns_pearson:.4f}); published value 0.574")
    if abs(s.pearson - 0.732) > 0.01:
        failures.append(f"pearson {s.pearson:.4f} != 0.732 +- 0.01")
    if abs(s.pearson - columns_pearson) > 1e-12:
        failures.append(f"pearson {s.pearson!r} != scipy {columns_pearson!r}")
    if abs(s.spearman - 0.615) > 0.01:
        failures.append(f"spearman {s.spearman:.4f} != 0.615 +- 0.01")
    if abs(s.mean_pct_shift - 20.0) > 0.5:
        failures.append(f"mean pct shift {s.mean_pct_shift:.2f} != 20 +- 0.5")
    if abs(s.median_pct_shift - 16.0) > 1.0:
        failures.append(f"median pct shift {s.median_pct_shift:.2f} != 16 +- 1")
    q = quartile_stats(cmp)
    if abs(round_half_away(q.pct_shifting_quartile) - 48.4) > 0.05:
        failures.append(f"quartile shifting {q.pct_shifting_quartile:.2f} "
                        f"!= 48.4")
    if abs(q.mean_abs_quartile_shift - 0.7) > 0.05:
        failures.append(f"mean quartile shift {q.mean_abs_quartile_shift:.3f} "
                        f"!= 0.7 +- 0.05")
    if q.max_quartile_shift != 3:
        failures.append(f"max quartile shift {q.max_quartile_shift} != 3")
    if abs(round_half_away(q.pct_leaving_q1) - 31.3) > 0.05:
        failures.append(f"leaving Q1 {q.pct_leaving_q1:.2f} != 31.3")
    if time.perf_counter() - t0 > 1.0:
        failures.append("replay exceeded 1 s")
    _criterion("C04 overall replay: max shift, correlations, quartiles",
               failures)


def test_criterion_05_overall_dispersion():
    t0 = time.perf_counter()
    rows = load_ref("ref_overall.csv")
    fss_board, mncs_board = boards_from_columns(
        [r["unit"] for r in rows], [float(r["fss_score"]) for r in rows],
        [float(r["mncs_score"]) for r in rows])
    failures: list[str] = []
    expected = {"fss": (0.927, 0.385, 0.416), "mncs": (0.744, 0.112, 0.150)}
    for board in (fss_board, mncs_board):
        d = dispersion(board)
        mean, std, cv = expected[board.indicator]
        if abs(d.mean - mean) > 0.005:
            failures.append(f"{board.indicator} mean {d.mean:.4f} != {mean}")
        if abs(d.std_dev - std) > 0.005:
            failures.append(f"{board.indicator} std {d.std_dev:.4f} != {std}")
        if abs(d.coefficient_of_variation - cv) > 0.005:
            failures.append(f"{board.indicator} cv "
                            f"{d.coefficient_of_variation:.4f} != {cv}")
    if time.perf_counter() - t0 > 1.0:
        failures.append("replay exceeded 1 s")
    _criterion("C05 overall replay: score dispersion", failures)


def test_criterion_06_percentile_reference_values():
    t0 = time.perf_counter()
    failures: list[str] = []
    if round_half_away(percentile(25, 49)) != 50.0:
        failures.append(f"percentile(25,49) -> {percentile(25, 49)}")
    if round_half_away(percentile(40, 49)) != 18.8:
        failures.append(f"percentile(40,49) -> {percentile(40, 49)}")
    if time.perf_counter() - t0 > 1.0:
        failures.append("check exceeded 1 s")
    _criterion("C06 percentile formula reference points", failures)


# ---------------------------------------------------------------------------
# Property criteria on synthetic corpora

N_CASES = 200


def test_criterion_07_mncs_paradox():
    rng = np.random.default_rng(1007)
    failures: list[str] = []
    checked = 0
    attempts = 0
    while checked < N_CASES and attempts < 20 * N_CASES:
        attempts += 1
        corpus = random_corpus(rng, n_universities=2, n_sds=2,
                               pubs_mean=3.0, p_uncited=0.2)
        table = compute_scaling_factors(corpus)
        before = overall_scores(corpus, table, MNCS).get("UNIV1")
        if before is None or before <= 0:
            continue
        year, cat = next(iter(table))
        mean = table.cell(year, cat).mean
        low_c = int(mean * before * 0.5)
        if low_c / mean >= before:
            continue
        prof = next(p.professor_id for p in corpus.professors.values()
                    if p.university_id == "UNIV1")
        low = add_publication(corpus, Publication(
            "X_LOW", year, "article", (cat,), low_c, 2), [prof])
        high_c = int(np.ceil(mean * before * 2)) + 1
        high = add_publication(corpus, Publication(
            "X_HIGH", year, "article", (cat,), high_c, 2), [prof])
        after_low = overall_scores(low, table, MNCS)["UNIV1"]
        after_high = overall_scores(high, table, MNCS)["UNIV1"]
        if not after_low < before:
            failures.append(f"case {checked}: below-average addition did not "
                            f"lower score ({before} -> {after_low})")
        if not after_high > before:
            failures.append(f"case {checked}: above-average addition did not "
                            f"raise score ({before} -> {after_high})")
        checked += 1
    if checked < N_CASES:
        failures.append(f"only {checked} usable cases generated")
    _criterion(f"C07 MNCS paradox ({checked} randomized cases)", failures)


def test_criterion_08_size_independence_under_cloning():
    rng = np.random.default_rng(1008)
    failures: list[str] = []
    checked = 0
    attempts = 0
    while checked < N_CASES and attempts < 20 * N_CASES:
        attempts += 1
        corpus = random_corpus(rng, n_universities=3, n_sds=2,
                               profs_per=(1, 2), pubs_mean=2.5)
        table = compute_scaling_factors(corpus)
        fss_before = overall_scores(corpus, table, FSS).get("UNIV1")
        mncs_before = overall_scores(corpus, table, MNCS).get("UNIV1")
        if fss_before is None or mncs_before is None:
            continue
        # the clone is standardized by the original national averages
        averages = sds_averages(corpus, professor_scores(
            corpus, impact_map(corpus, table)))
        cloned = clone_university(corpus, "UNIV1")
        cloned_scores = professor_scores(cloned, impact_map(cloned, table))
        fss_after = unit_scores(cloned, "UNIV1", None,
                                staff_of(cloned, "UNIV1"), cloned_scores,
                                averages)[0].score
        mncs_after = overall_scores(cloned, table, MNCS)["UNIV1"]
        if abs(fss_after - fss_before) > 1e-9:
            failures.append(f"case {checked}: fss {fss_before} -> {fss_after}")
        if abs(mncs_after - mncs_before) > 1e-9:
            failures.append(f"case {checked}: mncs {mncs_before} -> "
                            f"{mncs_after}")
        checked += 1
    if checked < N_CASES:
        failures.append(f"only {checked} usable cases generated")
    _criterion(f"C08 size independence under cloning ({checked} cases)",
               failures)


def test_criterion_09_uniform_salary_scaling():
    from rankdiff import Corpus
    rng = np.random.default_rng(1009)
    failures: list[str] = []
    checked = 0
    while checked < N_CASES:
        corpus = random_corpus(rng, n_universities=3, n_sds=2, pubs_mean=2.5)
        table = compute_scaling_factors(corpus)
        k = float(rng.uniform(0.1, 10.0))
        scaled = Corpus(corpus.window, corpus.publications, corpus.authorships,
                        corpus.professors, corpus.field_scheme,
                        {r: s * k for r, s in corpus.salary_table.items()})
        values = overall_scores(corpus, table, FSS)
        values_k = overall_scores(scaled, table, FSS)
        if values_k.keys() != values.keys():
            failures.append(f"case {checked}: scored units changed under "
                            f"k={k:.3f}")
        for univ, before in values.items():
            if abs(values_k.get(univ, math.inf) - before) > 1e-9:
                failures.append(f"case {checked}: {univ} fss {before} -> "
                                f"{values_k.get(univ)} under k={k:.3f}")
        order = sorted(values, key=lambda u: (-values[u], u))
        order_k = sorted(values_k, key=lambda u: (-values_k[u], u))
        if order != order_k:
            failures.append(f"case {checked}: ranking changed under k={k:.3f}")
        checked += 1
    _criterion(f"C09 uniform salary scaling ({checked} cases)", failures)


def test_criterion_10_within_cell_citation_rescaling():
    from rankdiff import Corpus
    rng = np.random.default_rng(1010)
    failures: list[str] = []
    checked = 0
    while checked < N_CASES:
        corpus = random_corpus(rng, n_universities=2, n_sds=2,
                               multi_category_share=0.0, pubs_mean=3.0)
        table = compute_scaling_factors(corpus)
        if len(table) == 0:
            continue
        # rescale one cell's citations by an integer factor
        cells = list(table)
        year, cat = cells[int(rng.integers(len(cells)))]
        k = int(rng.integers(2, 7))
        pubs = {}
        for pid, p in corpus.publications.items():
            if p.year == year and p.subject_categories == (cat,):
                p = Publication(p.pub_id, p.year, p.doc_type,
                                p.subject_categories, p.citations * k,
                                p.n_authors_total)
            pubs[pid] = p
        rescaled = Corpus(corpus.window, pubs, corpus.authorships,
                          corpus.professors, corpus.field_scheme,
                          corpus.salary_table)
        table2 = compute_scaling_factors(rescaled)
        for pid in sorted(corpus.publications):
            p = corpus.publications[pid]
            if p.year == year and p.subject_categories == (cat,):
                before = normalized_impact(p, table)
                after = normalized_impact(rescaled.publications[pid], table2)
                if abs(after - before) > 1e-12:
                    failures.append(f"case {checked}: impact {before} -> "
                                    f"{after} under k={k}")
        for (cy, cc) in table2:
            impacts = [normalized_impact(p, table2)
                       for p in rescaled.publications.values()
                       if p.year == cy and p.subject_categories == (cc,)
                       and p.citations > 0]
            if abs(float(np.mean(impacts)) - 1.0) > 1e-12:
                failures.append(f"case {checked}: cell ({cy},{cc}) mean "
                                f"impact {np.mean(impacts)}")
        checked += 1
    _criterion(f"C10 within-cell citation rescaling ({checked} cases)",
               failures)


def test_criterion_11_correlation_and_stats_oracles():
    rng = np.random.default_rng(1011)
    failures: list[str] = []
    for case in range(N_CASES):
        n = int(rng.integers(3, 40))
        xs = rng.permutation(n).astype(float)
        ys = rng.permutation(n).astype(float)
        ranks_x = np.array([sorted(xs).index(v) + 1 for v in xs], dtype=float)
        ranks_y = np.array([sorted(ys).index(v) + 1 for v in ys], dtype=float)
        if spearman(xs, ys) != pearson(ranks_x, ranks_y):
            failures.append(f"case {case}: spearman != pearson of ranks")
    n_pairs = 0
    for n in range(2, 7):
        identity = list(range(1, n + 1))
        for perm in itertools.permutations(identity):
            n_pairs += 1
            cmp = comparison_from_ranks(identity, list(perm))
            s = shift_stats(cmp)
            expected = oracle_shift_stats(identity, list(perm))
            ok = (s.pct_shifting_rank == pytest.approx(expected["pct_shifting"])
                  and s.mean_abs_shift == pytest.approx(expected["mean"])
                  and s.median_abs_shift == pytest.approx(expected["median"])
                  and s.max_abs_shift == expected["max"])
            q = quartile_stats(cmp)
            expected_q = oracle_quartile_stats(identity, list(perm))
            ok = ok and (
                q.pct_shifting_quartile == pytest.approx(expected_q["pct_shifting"])
                and q.mean_abs_quartile_shift == pytest.approx(expected_q["mean"])
                and q.max_quartile_shift == expected_q["max"]
                and q.pct_leaving_q1 == pytest.approx(expected_q["pct_leaving_q1"]))
            if not ok:
                failures.append(f"n={n} perm={perm}: stats != oracle")
    _criterion(f"C11 tie-free spearman identity ({N_CASES} cases) and "
               f"enumeration oracle ({n_pairs} ranking pairs)", failures)


def test_criterion_12_pipeline_scale_and_determinism():
    cfg = SynthConfig(
        seed=2026, n_universities=50,
        sds_spec=tuple((f"SDS/{i:02d}", f"{i % 5 + 1}") for i in range(20)),
        professors_per_sds=(3, 7), pubs_per_professor=3.0,
        citation_dispersion=1.0, quantity_impact_corr=0.5,
        salary_levels=(("assistant", 45000.0), ("associate", 60000.0),
                       ("full", 80000.0)),
        window=ObservationWindow(2008, 2012, "synthetic snapshot"))
    corpus = generate(cfg)
    failures: list[str] = []
    n_prof = len(corpus.professors)
    n_pub = len(corpus.publications)
    if not 4000 <= n_prof <= 6000:
        failures.append(f"professor count {n_prof} not ~5000")
    if not 15000 <= n_pub <= 26000:
        failures.append(f"publication count {n_pub} not ~20000")

    def pipeline():
        filtered = apply_filters(corpus, FilterConfig())
        table = compute_scaling_factors(filtered)
        results = {}
        for level in ("sds", "uda", "overall"):
            board_set = scoreboards(professor_pass(filtered, table),
                                    FilterConfig(), level)
            for scope, pair in board_set.pairs.items():
                if len(pair.fss.entries) < 2:
                    continue
                cmp = compare(rank(pair.fss), rank(pair.mncs),
                              label=str(scope))
                results[(level, scope)] = (
                    shift_stats(cmp), quartile_stats(cmp),
                    dispersion(pair.fss), dispersion(pair.mncs))
        return results

    t0 = time.perf_counter()
    first = pipeline()
    t1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    second = pipeline()
    t2 = time.perf_counter() - t0
    if t1 >= 10.0 or t2 >= 10.0:
        failures.append(f"pipeline too slow: {t1:.2f}s / {t2:.2f}s")
    if first != second:
        failures.append("pipeline output differs between runs")
    if not first:
        failures.append("pipeline produced no comparisons")
    _criterion(f"C12 pipeline scale ({n_prof} professors, {n_pub} "
               f"publications, {len(first)} scopes, {t1:.2f}s/{t2:.2f}s)",
               failures)
