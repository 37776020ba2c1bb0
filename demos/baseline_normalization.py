#!/usr/bin/env python3
"""Citation baselines: how raw counts become field-normalized impact.

Citation behavior differs across fields and years, so raw counts are not
comparable. Each (year, subject category) cell gets a scaling factor: the
mean citation count of the *cited* national publications in that cell.
Dividing by it makes the cited population average exactly 1 in every cell.
"""
from __future__ import annotations

from rankdiff import (Corpus, FieldScheme, ObservationWindow, Publication,
                      compute_scaling_factors, impact_map, scaling_factor)

WINDOW = ObservationWindow(2008, 2009)

# a hot field (HOT), a quiet field (COLD), and one cross-listed publication
pubs = [
    Publication("h1", 2008, "article", ("HOT",), 30, 3),
    Publication("h2", 2008, "article", ("HOT",), 18, 2),
    Publication("h3", 2008, "article", ("HOT",), 0, 1),    # uncited
    Publication("c1", 2008, "article", ("COLD",), 3, 1),
    Publication("c2", 2008, "article", ("COLD",), 1, 2),
    Publication("x1", 2008, "article", ("HOT", "COLD"), 12, 4),
]
corpus = Corpus.from_records(WINDOW, {p.pub_id: p for p in pubs}, [], {},
                             FieldScheme({"S": "U"}), {"r": 1.0})

# the baseline table: (year, category) -> (mean, cited_count, total_count)
table = compute_scaling_factors(corpus)
print("scaling factors (mean citations of cited publications per cell):")
for (year, cat), (mean, cited, total) in sorted(table.items()):
    print(f"  {year} {cat:<5} mean {mean:6.2f}   ({cited} cited of {total})")

# citations over the scaling factor, by publication id
impacts = dict(zip(corpus.pub_ids, impact_map(corpus, table)))

print("\nper-publication normalized impact:")
for p in pubs:
    factor = scaling_factor(p.year, p.subject_categories, table)
    impact = impacts[p.pub_id]
    cats = "+".join(p.subject_categories)
    print(f"  {p.pub_id}: {p.citations:>2} citations / baseline {factor:5.2f} "
          f"({cats}) -> impact {impact:.3f}")

print("\nnote the cross-listed publication: its baseline is the arithmetic")
print("mean of the two cell factors, so 12 citations land between the")
print("hot-field and quiet-field interpretations.")

hot = [impacts[p.pub_id]
       for p in pubs if p.subject_categories == ("HOT",) and p.citations > 0]
cold = [impacts[p.pub_id]
        for p in pubs if p.subject_categories == ("COLD",) and p.citations > 0]
print(f"\ncited single-category impact means: HOT {sum(hot)/len(hot):.3f}, "
      f"COLD {sum(cold)/len(cold):.3f}  (1.0 by construction)")
