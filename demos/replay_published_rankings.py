#!/usr/bin/env python3
"""Replay bundled reference score columns through the comparison pipeline.

The repository ships three published FSS/MNCS score tables as golden test
fixtures: a pharmaceutical-chemistry field ranking (CHIM/08, 29 units), a
chemistry discipline ranking (44 units), and a national overall ranking
(64 units). This script reruns ranks, percentiles, shifts, and correlation
summaries from nothing but the two score columns.
"""
from __future__ import annotations

import csv
from pathlib import Path

from rankdiff import ScoreBoard, compare, rank, shift_stats, quartile_stats
from rankdiff.indicators import FSS, MNCS, UnitScore
from rankdiff.report import COMPARISON

DATA = Path(__file__).parent.parent / "tests" / "data"

REFS = [
    ("ref_field_chim08.csv", "CHIM/08 (pharmaceutical chemistry, field level)"),
    ("ref_uda_chemistry.csv", "Chemistry (discipline level)"),
    ("ref_overall.csv", "Overall (national level)"),
]

for name, label in REFS:
    with open(DATA / name, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    units = [r["unit"] for r in rows]
    fss_board = ScoreBoard("replay", label, FSS,
                           [UnitScore(r["unit"], FSS, float(r["fss_score"]))
                            for r in rows])
    mncs_board = ScoreBoard("replay", label, MNCS,
                            [UnitScore(r["unit"], MNCS, float(r["mncs_score"]))
                             for r in rows])
    cmp = compare(rank(fss_board), rank(mncs_board), label=label)
    s = shift_stats(cmp)
    q = quartile_stats(cmp)
    print("=" * 70)
    print(f"  {label}: {cmp.n} universities")
    print("=" * 70)
    print(f"Pearson {s.pearson:.3f}  Spearman {s.spearman:.3f}")
    print(f"{s.pct_shifting_rank:.1f}% shift rank; mean |shift| "
          f"{s.mean_abs_shift:.1f} positions ({s.mean_pct_shift:.1f} "
          f"percentile points); max {s.max_abs_shift} ({s.max_pct_shift:.1f})")
    print(f"{q.pct_shifting_quartile:.1f}% shift quartile; "
          f"{q.pct_leaving_q1:.1f}% of FSS-Q1 units are not MNCS-Q1")
    print("\nfirst rows of the comparison table:")
    head = COMPARISON.markdown(cmp.rows).splitlines()
    print("\n".join(head[:7]))
    print()
