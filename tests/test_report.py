from __future__ import annotations

import csv

import pytest

from rankdiff import report
from rankdiff.divergence import (DispersionStats, DivergenceSummary,
                                 RangeSummary, quartile_stats, shift_stats)
from rankdiff.indicators import FSS, MNCS, ScoreBoard, UnitScore
from helpers import load_ref, replay_compare


def _read(path):
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _chim08():
    return replay_compare(load_ref("ref_field_chim08.csv"), label="CHIM/08")


def test_scoreboard_csv_schema(tmp_path):
    board = ScoreBoard("sds", "S1", FSS, [UnitScore("A", FSS, 1.25,
                                                    research_staff=4)])
    board_m = ScoreBoard("sds", "S1", MNCS,
                         [UnitScore("A", MNCS, 0.8, publication_weight=2.5)])
    path = tmp_path / "board.csv"
    report.write_scoreboard_csv([board, board_m], path)
    _, rows = _read(path)
    assert rows[0] == ["sds", "S1", "A", "fss", "1.25", "4"]
    assert rows[1] == ["sds", "S1", "A", "mncs", "0.8", "2.5"]


def test_comparison_csv_schema(tmp_path):
    cmp = _chim08()
    path = tmp_path / "cmp.csv"
    report.write_comparison_csv(cmp.rows, path)
    _, rows = _read(path)
    assert len(rows) == 29
    assert rows[0][0] == "UNIV_1"
    assert rows[0][2] == "4.035"        # 3-decimal score display


def test_summary_csv_schemas(tmp_path):
    cmp = _chim08()
    s = shift_stats(cmp)
    shift_path = tmp_path / "shift.csv"
    report.write_shift_summary_csv([s], shift_path)
    _, rows = _read(shift_path)
    assert rows[0][0] == "CHIM/08"
    assert float(rows[0][3]) == pytest.approx(134 / 29, rel=1e-5)

    d = DispersionStats("CHIM/08", "fss", 29, 0.9271, 0.6699, 0.7226)
    d_path = tmp_path / "dispersion.csv"
    report.write_dispersion_csv([d], d_path)
    _, rows = _read(d_path)
    assert rows[0][:3] == ["CHIM/08", "fss", "29"]

    r = RangeSummary("3", 11, {"pearson": (-0.173, 0.868)})
    r_path = tmp_path / "range.csv"
    report.write_range_summary_csv([r], r_path)
    _, rows = _read(r_path)
    assert rows == [["3", "11", "pearson", "-0.173", "0.868"]]


def test_markdown_report_sections():
    cmp = _chim08()
    s = shift_stats(cmp)
    q = quartile_stats(cmp)
    md = report.render_report("Divergence report", [
        ("Comparison: CHIM/08", report.COMPARISON, cmp.rows),
        ("Rank shift summary", report.SHIFT_SUMMARY, [s]),
        ("Quartile migration", report.QUARTILE_SUMMARY, [q]),
        ("Score dispersion", report.DISPERSION, [])])
    assert md.startswith("# Divergence report")
    assert "## Comparison: CHIM/08" in md
    assert "## Rank shift summary" in md
    assert "## Quartile migration" in md
    # paper-style cells: 3-decimal scores, 1-decimal percentiles, glyphs
    assert "| 4.035 | 1 | 100.0 |" in md
    assert "↓14" in md or "↑14" in md
    assert "## Score dispersion" not in md      # a table without rows


def test_markdown_handles_missing_correlations():
    summary = DivergenceSummary("tiny", 2, 100.0, 1.0, 1.0, 1, 100.0, 100.0,
                                100.0, None, None)
    md = report.SHIFT_SUMMARY.markdown([summary])
    assert "tiny" in md


# each table, items to write and the CSV header it writes
TABLES = {
    "SCOREBOARD": (lambda: [ScoreBoard("sds", "S1", FSS, [
        UnitScore("A", FSS, 1.25, research_staff=4),
        UnitScore("B", FSS, 0.5, research_staff=2)])],
        ["level", "scope_code", "university_id", "indicator", "score",
         "research_staff_or_weight"]),
    "COMPARISON": (lambda: _chim08().rows,
                   ["university", "staff", "fss_score", "fss_rank", "fss_pct",
                    "mncs_score", "mncs_rank", "mncs_pct", "rank_shift",
                    "pct_shift", "q_fss", "q_mncs"]),
    "SHIFT_SUMMARY": (lambda: [shift_stats(_chim08())],
                      ["scope", "n_units", "pct_shifting_rank",
                       "mean_abs_shift", "median_abs_shift", "max_abs_shift",
                       "mean_pct_shift", "median_pct_shift", "max_pct_shift",
                       "pearson", "spearman"]),
    "QUARTILE_SUMMARY": (lambda: [quartile_stats(_chim08())],
                         ["scope", "n_units", "pct_shifting_quartile",
                          "mean_abs_quartile_shift", "max_quartile_shift",
                          "pct_leaving_q1"]),
    "DISPERSION": (lambda: [DispersionStats("CHIM/08", "fss", 29, 0.9271,
                                            0.6699, 0.7226)],
                   ["scope", "indicator", "n_units", "mean", "std_dev",
                    "coefficient_of_variation"]),
    "RANGE_SUMMARY": (lambda: [RangeSummary("3", 11, {
        "pct_shifting_rank": (40.0, 90.0), "pearson": (-0.173, 0.868)})],
        ["uda", "n_sds", "statistic", "min", "max"]),
}


@pytest.mark.parametrize("name", TABLES)
def test_table_headers_and_markdown_cells(tmp_path, name):
    """Each table writes its pinned CSV header; each markdown row has as
    many cells as the markdown header."""
    table = getattr(report, name)
    make_items, csv_header = TABLES[name]
    items = make_items()
    table.write(items, tmp_path / "t.csv")
    header, rows = _read(tmp_path / "t.csv")
    assert header == csv_header
    assert rows and all(len(row) == len(header) for row in rows)
    if table.md_header is None:         # CSV only
        assert name == "SCOREBOARD"
        return
    lines = table.markdown(items).splitlines()
    assert len(lines) == 2 + len(items)
    assert all(line.count("|") == len(table.md_header) + 1 for line in lines)


def test_new_table_needs_one_definition_only(tmp_path):
    """A table declared inline writes its CSV and its report.md section
    with no function of its own."""
    scratch = report.Table(
        ["unit", "twice"], lambda u: [[u, 2 * len(u)], [u, 0]],
        ["Unit", "Length x2"], lambda u: [u, str(2 * len(u))])
    scratch.write(["ab", "c"], tmp_path / "scratch.csv")
    assert _read(tmp_path / "scratch.csv") == (
        ["unit", "twice"], [["ab", "4"], ["ab", "0"], ["c", "2"], ["c", "0"]])
    md = report.render_report("T", [("Scratch", scratch, ["ab", "c"]),
                                    ("Empty", scratch, [])])
    assert md == ("# T\n\n## Scratch\n\n| Unit | Length x2 |\n|---|---|\n"
                  "| ab | 4 |\n| c | 2 |\n")
