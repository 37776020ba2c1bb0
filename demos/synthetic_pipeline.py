#!/usr/bin/env python3
"""End-to-end walkthrough on a synthetic corpus.

Generates a deterministic publication/staff corpus, filters it, computes
citation baselines and both indicators (FSS and MNCS) at field, discipline
and overall level, then summarizes how far the two rankings disagree.
"""
from __future__ import annotations

from rankdiff import (FilterConfig, ObservationWindow, SynthConfig,
                      apply_filters, compare, compute_scaling_factors,
                      dispersion, generate, professor_pass, quartile_stats,
                      rank, scoreboards, shift_stats)
from rankdiff.report import SHIFT_SUMMARY

cfg = SynthConfig(
    seed=42,
    n_universities=20,
    sds_spec=tuple((f"SDS/{i:02d}", f"{i % 3 + 1}") for i in range(9)),
    professors_per_sds=(3, 8),
    pubs_per_professor=6.0,
    citation_dispersion=1.0,
    quantity_impact_corr=0.5,
    salary_levels=(("assistant", 45000.0), ("associate", 60000.0),
                   ("full", 80000.0)),
    window=ObservationWindow(2008, 2012, "synthetic snapshot"),
)

print("=" * 70)
print("  Synthetic corpus -> indicators -> ranking divergence")
print("=" * 70)

corpus = generate(cfg)
print(f"\ngenerated: {corpus.counts()}")

filters = FilterConfig(min_professors_uda=5, min_professors_overall=10)
filtered = apply_filters(corpus, filters)
print(f"after filters: {filtered.filter_report}")

table = compute_scaling_factors(filtered)
print(f"citation baselines: {len(table)} (year, category) cells")

# every professor is scored once; each level then scores its units
pass_ = professor_pass(filtered, table)
for level in ("sds", "uda", "overall"):
    board_set = scoreboards(pass_, filters, level)
    summaries = []
    for scope, pair in board_set.pairs.items():
        if len(pair.fss.entries) < 3:
            continue
        cmp = compare(rank(pair.fss), rank(pair.mncs), label=scope)
        summaries.append(shift_stats(cmp))
    print(f"\n--- {level} level: {len(summaries)} rankable scope(s)")
    if board_set.not_rankable:
        print(f"    not rankable (too few units): {board_set.not_rankable}")
    if summaries:
        print(SHIFT_SUMMARY.markdown(summaries))

# dispersion: MNCS typically discriminates less than FSS
board_set = scoreboards(pass_, filters, "overall")
pair = board_set.pairs["overall"]
cmp = compare(rank(pair.fss), rank(pair.mncs), label="overall")
d_fss = dispersion(pair.fss)
d_mncs = dispersion(pair.mncs)
q = quartile_stats(cmp)
print("\n--- overall-level score dispersion")
print(f"FSS : mean {d_fss.mean:.3f}  std {d_fss.std_dev:.3f}  "
      f"CV {d_fss.coefficient_of_variation:.3f}")
print(f"MNCS: mean {d_mncs.mean:.3f}  std {d_mncs.std_dev:.3f}  "
      f"CV {d_mncs.coefficient_of_variation:.3f}")
print(f"quartile migration: {q.pct_shifting_quartile:.1f}% shift quartile, "
      f"{q.pct_leaving_q1:.1f}% of FSS-Q1 units leave Q1 under MNCS")
