"""CSV and markdown emitters for scoreboards, comparisons, and summaries.

Markdown mirrors the reference-table layout (scores to 3 decimals,
percentiles to 1, shift glyphs); CSVs carry more precision for machine use.
"""
from __future__ import annotations

from pathlib import Path

from .corpus import write_csv
from .divergence import (DispersionStats, DivergenceSummary, QuartileSummary,
                         RangeSummary, RANGE_STATS)
from .indicators import ScoreBoard, UnitScore
from .ranking import ComparisonTable, round_half_away, shift_glyph


def _fmt(x: float | None, spec: str = ".6g") -> str:
    return "" if x is None else format(x, spec)


def _staff_or_weight(e: UnitScore) -> str:
    extra = e.research_staff if e.research_staff is not None else e.publication_weight
    return "" if extra is None else repr(extra)


def write_scoreboard_csv(boards: list[ScoreBoard], path: str | Path) -> None:
    write_csv(path, ["level", "scope_code", "university_id", "indicator",
                     "score", "research_staff_or_weight"],
              ([board.level, board.scope_code or "", e.university_id,
                board.indicator, repr(e.score), _staff_or_weight(e)]
               for board in boards for e in board.entries))


def write_comparison_csv(cmp: ComparisonTable, path: str | Path) -> None:
    write_csv(path, ["university", "staff", "fss_score", "fss_rank", "fss_pct",
                     "mncs_score", "mncs_rank", "mncs_pct", "rank_shift",
                     "pct_shift", "q_fss", "q_mncs"],
              ([r.unit_id, "" if r.staff is None else r.staff,
                f"{r.fss_score:.3f}", r.fss_rank, round_half_away(r.fss_pct),
                f"{r.mncs_score:.3f}", r.mncs_rank, round_half_away(r.mncs_pct),
                r.rank_shift, round_half_away(r.pct_shift),
                r.quartile_fss, r.quartile_mncs]
               for r in cmp.rows))


def write_shift_summary_csv(summaries: list[DivergenceSummary],
                            path: str | Path) -> None:
    write_csv(path, ["scope", "n_units", "pct_shifting_rank", "mean_abs_shift",
                     "median_abs_shift", "max_abs_shift", "mean_pct_shift",
                     "median_pct_shift", "max_pct_shift", "pearson", "spearman"],
              ([s.scope_code, s.n_units, _fmt(s.pct_shifting_rank),
                _fmt(s.mean_abs_shift), _fmt(s.median_abs_shift),
                s.max_abs_shift, _fmt(s.mean_pct_shift),
                _fmt(s.median_pct_shift), _fmt(s.max_pct_shift),
                _fmt(s.pearson, ".6f"), _fmt(s.spearman, ".6f")]
               for s in summaries))


def write_quartile_summary_csv(summaries: list[QuartileSummary],
                               path: str | Path) -> None:
    write_csv(path, ["scope", "n_units", "pct_shifting_quartile",
                     "mean_abs_quartile_shift", "max_quartile_shift",
                     "pct_leaving_q1"],
              ([s.scope_code, s.n_units, _fmt(s.pct_shifting_quartile),
                _fmt(s.mean_abs_quartile_shift), s.max_quartile_shift,
                _fmt(s.pct_leaving_q1)]
               for s in summaries))


def write_dispersion_csv(stats: list[DispersionStats], path: str | Path) -> None:
    write_csv(path, ["scope", "indicator", "n_units", "mean", "std_dev",
                     "coefficient_of_variation"],
              ([s.scope_code, s.indicator, s.n_units, _fmt(s.mean),
                _fmt(s.std_dev), _fmt(s.coefficient_of_variation)]
               for s in stats))


def write_range_summary_csv(summaries: list[RangeSummary],
                            path: str | Path) -> None:
    write_csv(path, ["uda", "n_sds", "statistic", "min", "max"],
              ([s.uda_code, s.n_sds, stat, *map(_fmt, s.ranges[stat])]
               for s in summaries for stat in RANGE_STATS if stat in s.ranges))


# ---------------------------------------------------------------------------
# Markdown

def _md_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def comparison_markdown(cmp: ComparisonTable) -> str:
    header = ["ID", "Staff", "FSS score", "rank", "percentile",
              "MNCS score", "rank", "percentile", "Rank shift",
              "Percentile shift"]
    rows = []
    for r in cmp.rows:
        pct_shift = round_half_away(r.pct_shift)
        rows.append([
            r.unit_id,
            "" if r.staff is None else str(r.staff),
            f"{r.fss_score:.3f}", str(r.fss_rank),
            f"{round_half_away(r.fss_pct):.1f}",
            f"{r.mncs_score:.3f}", str(r.mncs_rank),
            f"{round_half_away(r.mncs_pct):.1f}",
            shift_glyph(r.rank_shift),
            f"{pct_shift:+.1f}" if pct_shift else "0.0",
        ])
    return _md_table(header, rows)


def shift_summary_markdown(summaries: list[DivergenceSummary]) -> str:
    header = ["Scope", "Units", "Pearson", "Spearman", "% shifting rank",
              "Average shift", "Median shift", "Max shift"]
    rows = []
    for s in summaries:
        rows.append([
            s.scope_code, str(s.n_units),
            "" if s.pearson is None else f"{s.pearson:.3f}",
            "" if s.spearman is None else f"{s.spearman:.3f}",
            f"{round_half_away(s.pct_shifting_rank):.1f}%",
            f"{s.mean_abs_shift:.1f} ({round_half_away(s.mean_pct_shift):.1f})",
            f"{s.median_abs_shift:g}",
            f"{s.max_abs_shift:.1f} ({round_half_away(s.max_pct_shift):.1f})",
        ])
    return _md_table(header, rows)


def quartile_summary_markdown(summaries: list[QuartileSummary]) -> str:
    header = ["Scope", "Units", "Shifting quartile", "Average quartile shift",
              "Max quartile shift", "Shifting from Q1"]
    rows = [[s.scope_code, str(s.n_units),
             f"{round_half_away(s.pct_shifting_quartile):.1f}%",
             f"{s.mean_abs_quartile_shift:.1f}",
             str(s.max_quartile_shift),
             f"{round_half_away(s.pct_leaving_q1):.1f}%"]
            for s in summaries]
    return _md_table(header, rows)


def dispersion_markdown(stats: list[DispersionStats]) -> str:
    header = ["Scope", "Indicator", "Units", "Average", "Std dev.",
              "Variation coeff."]
    rows = [[s.scope_code, s.indicator.upper(), str(s.n_units),
             f"{s.mean:.3f}", f"{s.std_dev:.3f}",
             f"{s.coefficient_of_variation:.3f}"]
            for s in stats]
    return _md_table(header, rows)


def range_summary_markdown(summaries: list[RangeSummary]) -> str:
    header = ["UDA", "SDSs", "% shifting (min-max)",
              "Avg shift pct (min-max)", "Max shift pct (min-max)",
              "Pearson (min-max)", "Spearman (min-max)"]

    def span(s: RangeSummary, stat: str, fmt: str) -> str:
        if stat not in s.ranges:
            return ""
        lo, hi = s.ranges[stat]
        return f"({format(lo, fmt)}-{format(hi, fmt)})"

    rows = [[s.uda_code, str(s.n_sds),
             span(s, "pct_shifting_rank", ".1f"),
             span(s, "mean_pct_shift", ".1f"),
             span(s, "max_pct_shift", ".1f"),
             span(s, "pearson", ".3f"),
             span(s, "spearman", ".3f")]
            for s in summaries]
    return _md_table(header, rows)


def render_report(title: str,
                  comparisons: list[ComparisonTable],
                  shift_summaries: list[DivergenceSummary],
                  quartile_summaries: list[QuartileSummary],
                  dispersions: list[DispersionStats],
                  ranges: list[RangeSummary] | None = None) -> str:
    parts = [f"# {title}", ""]
    for cmp in comparisons:
        parts += [f"## Comparison: {cmp.label}", "", comparison_markdown(cmp), ""]
    if shift_summaries:
        parts += ["## Rank shift summary", "",
                  shift_summary_markdown(shift_summaries), ""]
    if quartile_summaries:
        parts += ["## Quartile migration", "",
                  quartile_summary_markdown(quartile_summaries), ""]
    if dispersions:
        parts += ["## Score dispersion", "", dispersion_markdown(dispersions), ""]
    if ranges:
        parts += ["## Per-discipline ranges", "",
                  range_summary_markdown(ranges), ""]
    return "\n".join(parts)
