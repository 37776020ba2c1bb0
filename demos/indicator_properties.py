#!/usr/bin/env python3
"""Structural properties of the two indicators, shown on tiny corpora.

Three results worth seeing concretely:
  1. the per-publication indicator (MNCS) *drops* when a unit adds output
     cited below its current average, while the efficiency indicator (FSS)
     never decreases with an extra cited publication;
  2. both unit indicators are size-independent: doubling a university
     (twin professors, duplicated output) leaves its scores unchanged;
  3. rescaling every salary by a constant leaves unit FSS untouched.
"""
from __future__ import annotations

from rankdiff import (FSS, MNCS, Authorship, Corpus, FieldScheme,
                      FilterConfig, ObservationWindow, Professor, Publication,
                      compute_scaling_factors, eligible_units, impact_map,
                      professor_pass, professor_scores, scoreboards,
                      sds_averages, unit_scores)

WINDOW = ObservationWindow(2008, 2012)
# every university of these tiny corpora is eligible
ALL_UNITS = FilterConfig(min_professors_sds=1, min_professors_uda=1,
                         min_professors_overall=1, min_units_to_rank=1)


def build_corpus(extra_pub: Publication | None = None,
                 salary_scale: float = 1.0,
                 cloned: bool = False) -> Corpus:
    professors = {
        "p1": Professor("p1", "ALPHA", "S1", "full", 5.0),
        "p2": Professor("p2", "ALPHA", "S1", "assistant", 5.0),
        "p3": Professor("p3", "BETA", "S1", "assistant", 5.0),
    }
    publications = {
        "w1": Publication("w1", 2008, "article", ("C",), 12, 2),
        "w2": Publication("w2", 2009, "article", ("C",), 4, 2),
        "w3": Publication("w3", 2008, "article", ("C",), 2, 1),
        "w4": Publication("w4", 2009, "article", ("C",), 6, 3),
    }
    authorships = [Authorship("w1", "p1"), Authorship("w2", "p2"),
                   Authorship("w3", "p3"), Authorship("w4", "p3")]
    if extra_pub is not None:
        publications[extra_pub.pub_id] = extra_pub
        authorships.append(Authorship(extra_pub.pub_id, "p1"))
    if cloned:
        for pid in ("p1", "p2"):
            professors[pid + "c"] = Professor(
                pid + "c", "ALPHA", "S1",
                professors[pid].academic_rank, 5.0)
        for pub_id in ("w1", "w2"):
            src = publications[pub_id]
            publications[pub_id + "c"] = Publication(
                pub_id + "c", src.year, src.doc_type, src.subject_categories,
                src.citations, src.n_authors_total)
        authorships += [Authorship("w1c", "p1c"), Authorship("w2c", "p2c")]
    salaries = {"full": 2.0 * salary_scale, "assistant": 1.0 * salary_scale}
    return Corpus(WINDOW, publications, authorships, professors,
                  FieldScheme({"S1": "U1"}), salaries)


def alpha_score(corpus: Corpus, indicator: str) -> float:
    """ALPHA's overall score of one indicator from the full scoring pass."""
    pair = scoreboards(professor_pass(corpus, table), ALL_UNITS, "overall",
                       indicator).pairs[None]
    board = pair.fss if indicator == FSS else pair.mncs
    return next(e.score for e in board.entries if e.university_id == "ALPHA")


def fss_p(corpus: Corpus) -> dict[str, float]:
    """Every professor's FSS_P."""
    return professor_scores(corpus, impact_map(corpus, table))


base = build_corpus()
table = compute_scaling_factors(base)   # held fixed throughout

print("=" * 70)
print("  1. The per-publication paradox")
print("=" * 70)
before = alpha_score(base, MNCS)
print(f"ALPHA's MNCS with its original portfolio: {before:.4f}")

weak = Publication("extra", 2009, "article", ("C",), 1, 2)
with_weak = build_corpus(extra_pub=weak)
after = alpha_score(with_weak, MNCS)
impact = weak.citations / table.cell(2009, "C").mean
print(f"add a publication with normalized impact {impact:.3f} "
      f"(below average): MNCS falls to {after:.4f}")

fss_before = fss_p(base)["p1"]
fss_after = fss_p(with_weak)["p1"]
print(f"the same addition raises the author's FSS: "
      f"{fss_before:.4f} -> {fss_after:.4f}")

print()
print("=" * 70)
print("  2. Size independence")
print("=" * 70)
fss_small = alpha_score(base, FSS)
mncs_small = alpha_score(base, MNCS)

# the doubled unit is standardized by the original national SDS averages
averages = sds_averages(base, fss_p(base))
doubled = build_corpus(cloned=True)
alpha_staff = eligible_units(doubled, "overall", ALL_UNITS)[None]["ALPHA"]
fss_big = unit_scores(doubled, "ALPHA", None, alpha_staff, fss_p(doubled),
                      averages)[0].score
mncs_big = alpha_score(doubled, MNCS)
print(f"ALPHA with 2 professors : FSS {fss_small:.6f}  MNCS {mncs_small:.6f}")
print(f"ALPHA doubled to 4 staff: FSS {fss_big:.6f}  MNCS {mncs_big:.6f}")

print()
print("=" * 70)
print("  3. Salary-unit invariance")
print("=" * 70)
for k in (1.0, 1000.0):
    corpus_k = build_corpus(salary_scale=k)
    p1 = fss_p(corpus_k)["p1"]
    print(f"salary unit x{k:>6g}: professor p1 FSS_P {p1:.6f}  "
          f"unit FSS {alpha_score(corpus_k, FSS):.6f}")
print("individual values rescale with 1/k; the standardized unit score "
      "does not move")
