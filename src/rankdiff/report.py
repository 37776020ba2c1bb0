"""The output tables, each declared once as a ``Table``: its CSV header and
rows, and its markdown header and row; a new table is one more constant.

Markdown mirrors the reference-table layout (scores to 3 decimals,
percentiles to 1, shift glyphs); CSVs carry more precision for machine use.
``render_report`` joins one markdown section per table into report.md.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable
from pathlib import Path
from typing import Any, NamedTuple

from .corpus import write_csv
from .divergence import RANGE_STATS, RangeSummary
from .indicators import UnitScore
from .ranking import round_half_away, shift_glyph


class Table(NamedTuple):
    """One output table. ``csv_rows`` turns one item into its CSV rows (a
    scoreboard gives one per entry, a range summary one per statistic);
    ``md_row`` turns it into its one markdown row. A table without a
    markdown form has no ``md_header``."""
    csv_header: list[str]
    csv_rows: Callable[[Any], Iterable[list]]
    md_header: list[str] | None = None
    md_row: Callable[[Any], list[str]] | None = None

    def write(self, items: Iterable, path: str | Path) -> None:
        write_csv(path, self.csv_header,
                  (row for item in items for row in self.csv_rows(item)))

    def markdown(self, items: Iterable) -> str:
        # an unescaped '|' in a cell, a unit or label, would split it
        lines = ["| " + " | ".join(self.md_header) + " |",
                 "|" + "|".join("---" for _ in self.md_header) + "|"]
        lines += ["| " + " | ".join(cell.replace("|", "\\|")
                                    for cell in self.md_row(item)) + " |"
                  for item in items]
        return "\n".join(lines)


def _fmt(x: float | None, spec: str = ".6g") -> str:
    return "" if x is None else format(x, spec)


def _pct(x: float, spec: str = ".1f") -> str:
    return format(round_half_away(x), spec)


def _staff_or_weight(e: UnitScore) -> str:
    extra = e.research_staff if e.research_staff is not None else e.publication_weight
    return "" if extra is None else repr(extra)


def _span(s: RangeSummary, stat: str, spec: str) -> str:
    if stat not in s.ranges:
        return ""
    lo, hi = s.ranges[stat]
    return f"({format(lo, spec)}-{format(hi, spec)})"


SCOREBOARD = Table(  # items: ScoreBoard
    ["level", "scope_code", "university_id", "indicator", "score",
     "research_staff_or_weight"],
    lambda board: ([board.level, board.scope_code or "", e.university_id,
                    board.indicator, repr(e.score), _staff_or_weight(e)]
                   for e in board.entries))

COMPARISON = Table(  # items: ComparisonRow, sorted by FSS rank
    ["university", "staff", "fss_score", "fss_rank", "fss_pct", "mncs_score",
     "mncs_rank", "mncs_pct", "rank_shift", "pct_shift", "q_fss", "q_mncs"],
    lambda r: [[r.unit_id, "" if r.staff is None else r.staff,
                f"{r.fss_score:.3f}", r.fss_rank, round_half_away(r.fss_pct),
                f"{r.mncs_score:.3f}", r.mncs_rank, round_half_away(r.mncs_pct),
                r.rank_shift, round_half_away(r.pct_shift),
                r.quartile_fss, r.quartile_mncs]],
    ["ID", "Staff", "FSS score", "rank", "percentile", "MNCS score", "rank",
     "percentile", "Rank shift", "Percentile shift"],
    lambda r: [r.unit_id, "" if r.staff is None else str(r.staff),
               f"{r.fss_score:.3f}", str(r.fss_rank), _pct(r.fss_pct),
               f"{r.mncs_score:.3f}", str(r.mncs_rank), _pct(r.mncs_pct),
               shift_glyph(r.rank_shift),
               _pct(r.pct_shift, "+.1f") if round_half_away(r.pct_shift)
               else "0.0"])

SHIFT_SUMMARY = Table(  # items: DivergenceSummary
    ["scope", "n_units", "pct_shifting_rank", "mean_abs_shift",
     "median_abs_shift", "max_abs_shift", "mean_pct_shift", "median_pct_shift",
     "max_pct_shift", "pearson", "spearman"],
    lambda s: [[s.scope_code, s.n_units, _fmt(s.pct_shifting_rank),
                _fmt(s.mean_abs_shift), _fmt(s.median_abs_shift),
                s.max_abs_shift, _fmt(s.mean_pct_shift),
                _fmt(s.median_pct_shift), _fmt(s.max_pct_shift),
                _fmt(s.pearson, ".6f"), _fmt(s.spearman, ".6f")]],
    ["Scope", "Units", "Pearson", "Spearman", "% shifting rank",
     "Average shift", "Median shift", "Max shift"],
    lambda s: [s.scope_code, str(s.n_units), _fmt(s.pearson, ".3f"),
               _fmt(s.spearman, ".3f"), _pct(s.pct_shifting_rank) + "%",
               f"{s.mean_abs_shift:.1f} ({_pct(s.mean_pct_shift)})",
               f"{s.median_abs_shift:g}",
               f"{s.max_abs_shift:.1f} ({_pct(s.max_pct_shift)})"])

QUARTILE_SUMMARY = Table(  # items: QuartileSummary
    ["scope", "n_units", "pct_shifting_quartile", "mean_abs_quartile_shift",
     "max_quartile_shift", "pct_leaving_q1"],
    lambda s: [[s.scope_code, s.n_units, _fmt(s.pct_shifting_quartile),
                _fmt(s.mean_abs_quartile_shift), s.max_quartile_shift,
                _fmt(s.pct_leaving_q1)]],
    ["Scope", "Units", "Shifting quartile", "Average quartile shift",
     "Max quartile shift", "Shifting from Q1"],
    lambda s: [s.scope_code, str(s.n_units),
               _pct(s.pct_shifting_quartile) + "%",
               f"{s.mean_abs_quartile_shift:.1f}", str(s.max_quartile_shift),
               _pct(s.pct_leaving_q1) + "%"])

DISPERSION = Table(  # items: DispersionStats
    ["scope", "indicator", "n_units", "mean", "std_dev",
     "coefficient_of_variation"],
    lambda s: [[s.scope_code, s.indicator, s.n_units, _fmt(s.mean),
                _fmt(s.std_dev), _fmt(s.coefficient_of_variation)]],
    ["Scope", "Indicator", "Units", "Average", "Std dev.", "Variation coeff."],
    lambda s: [s.scope_code, s.indicator.upper(), str(s.n_units),
               f"{s.mean:.3f}", f"{s.std_dev:.3f}",
               f"{s.coefficient_of_variation:.3f}"])

RANGE_SUMMARY = Table(  # items: RangeSummary
    ["uda", "n_sds", "statistic", "min", "max"],
    lambda s: [[s.uda_code, s.n_sds, stat, *map(_fmt, s.ranges[stat])]
               for stat in RANGE_STATS if stat in s.ranges],
    ["UDA", "SDSs", "% shifting (min-max)", "Avg shift pct (min-max)",
     "Max shift pct (min-max)", "Pearson (min-max)", "Spearman (min-max)"],
    lambda s: [s.uda_code, str(s.n_sds), _span(s, "pct_shifting_rank", ".1f"),
               _span(s, "mean_pct_shift", ".1f"),
               _span(s, "max_pct_shift", ".1f"), _span(s, "pearson", ".3f"),
               _span(s, "spearman", ".3f")])

# the names the CLI writes each CSV through
write_scoreboard_csv = SCOREBOARD.write
write_comparison_csv = COMPARISON.write
write_shift_summary_csv = SHIFT_SUMMARY.write
write_quartile_summary_csv = QUARTILE_SUMMARY.write
write_dispersion_csv = DISPERSION.write
write_range_summary_csv = RANGE_SUMMARY.write


def render_report(title: str,
                  sections: Iterable[tuple[str, Table, list]]) -> str:
    """report.md: one section per (heading, table, items) with items."""
    parts = [f"# {title}", ""]
    for heading, table, items in sections:
        if items:
            parts += [f"## {heading}", "", table.markdown(items), ""]
    return "\n".join(parts)
