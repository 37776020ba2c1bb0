"""Shared builders and oracles for the test suite."""
from __future__ import annotations

import csv
import math
import re
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import NamedTuple

import numpy as np

from rankdiff import (LEVEL_OVERALL, LEVEL_SDS, LEVEL_UDA, Authorship,
                      ComparisonRow, ComparisonTable, Corpus, FieldScheme,
                      FilterConfig, ObservationWindow, Professor,
                      ProfessorPass, Publication, ScoreBoard, compare,
                      compute_scaling_factors, eligible_units, pearson,
                      professor_pass, rank, scoreboards)
from rankdiff.indicators import FSS, MNCS, UnitScore

DATA_DIR = Path(__file__).parent / "data"

# thresholds low enough that every unit of a small fixture is eligible
RELAXED_CFG = FilterConfig(min_professors_sds=1, min_professors_uda=1,
                           min_professors_overall=1, min_units_to_rank=1)


def load_ref(name: str) -> list[dict[str, str]]:
    with open(DATA_DIR / name, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def boards_from_columns(units: list[str], fss_scores: list[float],
                        mncs_scores: list[float],
                        label: str = "replay") -> tuple[ScoreBoard, ScoreBoard]:
    fss = ScoreBoard("replay", label, FSS,
                     [UnitScore(u, FSS, s) for u, s in zip(units, fss_scores)])
    mncs = ScoreBoard("replay", label, MNCS,
                      [UnitScore(u, MNCS, s) for u, s in zip(units, mncs_scores)])
    return fss, mncs


def by_unit(cmp: ComparisonTable) -> dict[str, ComparisonRow]:
    return {r.unit_id: r for r in cmp.rows}


def replay_compare(rows: list[dict[str, str]], label: str = "replay"):
    units = [r["unit"] for r in rows]
    fss_board, mncs_board = boards_from_columns(
        units, [float(r["fss_score"]) for r in rows],
        [float(r["mncs_score"]) for r in rows], label)
    return compare(rank(fss_board), rank(mncs_board), label=label)


# ---------------------------------------------------------------------------
# Expected replay tables under the documented tie rule
#
# The reference tables print scores to 3 decimals. Units whose printed scores
# tie were ordered in the source by unrounded data that the replay input does
# not carry, so inside such a block only the set of ranks is determined by
# the input. The documented rule (README) breaks score ties by unit id in
# natural order.

def _natural_key(unit_id: str) -> tuple:
    return tuple(int(part) if part.isdigit() else part
                 for part in re.split(r"(\d+)", unit_id))


def _pct_shift(rank_shift: int, n: int) -> Decimal:
    """README: pct_shift = mncs_pct - fss_pct = 100 * rank_shift / (n - 1),
    displayed half away from zero at 1 decimal."""
    value = Decimal(100 * rank_shift) / Decimal(n - 1)
    return value.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)


def tie_blocks(rows: list[dict[str, str]],
               indicator: str) -> dict[str, list[tuple[int, str]]]:
    """Printed score -> [(published rank, unit)] for every score printed by
    more than one unit, in published-rank order."""
    groups: dict[str, list[tuple[int, str]]] = {}
    for row in rows:
        groups.setdefault(row[f"{indicator}_score"], []).append(
            (int(row[f"{indicator}_rank"]), row["unit"]))
    return {score: sorted(members) for score, members in groups.items()
            if len(members) > 1}


def check_reference_table(rows: list[dict[str, str]]) -> None:
    """Fail loudly on a reference table the tie handling must not absorb."""
    n = len(rows)
    for row in rows:
        shift = int(row["fss_rank"]) - int(row["mncs_rank"])
        assert int(row["rank_shift"]) == shift, (
            f"{row['unit']}: rank_shift {row['rank_shift']} != "
            f"fss_rank - mncs_rank = {shift}")
        assert Decimal(row["pct_shift"]) == _pct_shift(shift, n), (
            f"{row['unit']}: pct_shift {row['pct_shift']} != "
            f"{_pct_shift(shift, n)}")
    for indicator in ("fss", "mncs"):
        ordered = sorted(rows, key=lambda r: int(r[f"{indicator}_rank"]))
        ranks = [int(r[f"{indicator}_rank"]) for r in ordered]
        assert ranks == list(range(1, n + 1)), (
            f"{indicator} ranks are not 1..{n}")
        for above, below in zip(ordered, ordered[1:]):
            assert (float(above[f"{indicator}_score"])
                    >= float(below[f"{indicator}_score"])), (
                f"{indicator} score rises from {above['unit']} to "
                f"{below['unit']} in published-rank order")
        for score, members in tie_blocks(rows, indicator).items():
            block = [r for r, _ in members]
            assert block == list(range(block[0], block[0] + len(block))), (
                f"{indicator} tie block {score} has non-contiguous ranks "
                f"{block}")


def expected_replay_table(rows: list[dict[str, str]]
                          ) -> tuple[list[dict[str, str]], set[str]]:
    """The published table with every printed-score tie block re-ranked by
    the documented tie rule, and the set of units whose cells this changes.

    Inside each block the block's published ranks are reassigned in natural
    unit id order; each re-ranked unit takes its percentile from the
    published row holding its new rank, and its shifts are derived with the
    README formulas. Every other cell is left exactly as published.
    """
    check_reference_table(rows)
    n = len(rows)
    expected = {row["unit"]: dict(row) for row in rows}
    reordered: set[str] = set()
    for indicator in ("fss", "mncs"):
        pct_at = {int(r[f"{indicator}_rank"]): r[f"{indicator}_pct"]
                  for r in rows}
        for members in tie_blocks(rows, indicator).values():
            ranks = [r for r, _ in members]
            units = sorted((u for _, u in members), key=_natural_key)
            for new_rank, unit in zip(ranks, units):
                row = expected[unit]
                if int(row[f"{indicator}_rank"]) == new_rank:
                    continue
                row[f"{indicator}_rank"] = str(new_rank)
                row[f"{indicator}_pct"] = pct_at[new_rank]
                reordered.add(unit)
    for unit in reordered:
        row = expected[unit]
        shift = int(row["fss_rank"]) - int(row["mncs_rank"])
        row["rank_shift"] = str(shift)
        row["pct_shift"] = str(_pct_shift(shift, n))
    return [expected[row["unit"]] for row in rows], reordered


# ---------------------------------------------------------------------------
# Random corpus builder for property tests

WINDOW = ObservationWindow(2008, 2012, "synthetic snapshot")


def random_corpus(rng: np.random.Generator, n_universities: int = 3,
                  n_sds: int = 2, profs_per: tuple[int, int] = (1, 3),
                  pubs_mean: float = 3.0, p_uncited: float = 0.25,
                  multi_category_share: float = 0.0,
                  densify_baselines: bool = True) -> Corpus:
    """Small structurally valid corpus with citation baselines guaranteed."""
    sds_codes = [f"S{i}" for i in range(n_sds)]
    scheme = FieldScheme({c: f"U{i // 2}" for i, c in enumerate(sds_codes)})
    salaries = {"a": float(rng.uniform(1.0, 2.0)),
                "b": float(rng.uniform(2.0, 4.0))}
    professors: dict[str, Professor] = {}
    k = 0
    for u in range(n_universities):
        for code in sds_codes:
            for _ in range(int(rng.integers(profs_per[0], profs_per[1] + 1))):
                k += 1
                professors[f"P{k:04d}"] = Professor(
                    f"P{k:04d}", f"UNIV{u + 1}", code,
                    "a" if rng.random() < 0.6 else "b",
                    float(WINDOW.n_years))
    prof_ids = sorted(professors)
    publications: dict[str, Publication] = {}
    authorships: list[Authorship] = []
    years = list(range(WINDOW.start_year, WINDOW.end_year + 1))
    w = 0
    for pid in prof_ids:
        prof = professors[pid]
        for _ in range(int(rng.poisson(pubs_mean))):
            w += 1
            pub_id = f"W{w:05d}"
            cats = [f"C_{prof.sds_code}"]
            if rng.random() < multi_category_share and n_sds > 1:
                other = f"C_{sds_codes[int(rng.integers(n_sds))]}"
                if other != cats[0]:
                    cats.append(other)
            authors = [pid]
            if len(prof_ids) > 1 and rng.random() < 0.3:
                other_pid = prof_ids[int(rng.integers(len(prof_ids)))]
                if other_pid != pid:
                    authors.append(other_pid)
            externals = int(rng.poisson(2.0))
            citations = 0 if rng.random() < p_uncited else 1 + int(rng.poisson(4.0))
            publications[pub_id] = Publication(
                pub_id, int(rng.choice(years)), "article", tuple(cats),
                citations, len(authors) + externals)
            authorships += [Authorship(pub_id, a) for a in authors]
    if densify_baselines:
        _densify(publications)
    return Corpus.from_records(WINDOW, publications, authorships, professors,
                               scheme, salaries)


def _densify(publications: dict[str, Publication]) -> None:
    """Give every referenced (year, category) cell at least one cited record."""
    uncited_cells: dict[tuple[int, str], str] = {}
    cited: set[tuple[int, str]] = set()
    for pub_id in sorted(publications):
        pub = publications[pub_id]
        for cat in pub.subject_categories:
            key = (pub.year, cat)
            if pub.citations > 0:
                cited.add(key)
            else:
                uncited_cells.setdefault(key, pub_id)
    for key, pub_id in sorted(uncited_cells.items()):
        if key in cited:
            continue
        pub = publications[pub_id]
        publications[pub_id] = Publication(pub.pub_id, pub.year, pub.doc_type,
                                           pub.subject_categories, 1,
                                           pub.n_authors_total)
        cited.add(key)


class Records(NamedTuple):
    """A corpus as the records ``Corpus.from_records`` takes."""

    publications: dict[str, Publication]
    authorships: list[Authorship]
    professors: dict[str, Professor]


def records(corpus: Corpus) -> Records:
    """The rows of a corpus as records: publications and professors in id
    order, authorships sorted."""
    return Records(
        {p[0]: Publication(*p) for p in zip(*corpus.pub_columns)},
        [Authorship(*pair) for pair in corpus.authorships()],
        {p[0]: Professor(*p) for p in zip(*corpus.prof_columns)})


def rebuilt(corpus: Corpus, publications: dict[str, Publication] | None = None,
            authorships: list[Authorship] | None = None,
            professors: dict[str, Professor] | None = None,
            salary_table: dict[str, float] | None = None) -> Corpus:
    """The corpus with the records or salary table given in place of its
    own, through ``Corpus.from_records``."""
    rows = records(corpus)
    return Corpus.from_records(
        corpus.window,
        rows.publications if publications is None else publications,
        rows.authorships if authorships is None else authorships,
        rows.professors if professors is None else professors,
        corpus.field_scheme,
        corpus.salary_table if salary_table is None else salary_table)


def professors_by_pub(corpus: Corpus) -> dict[str, list[str]]:
    """pub_id -> the ids of its professors, in authorship order."""
    index: dict[str, list[str]] = {}
    for a in records(corpus).authorships:
        index.setdefault(a.pub_id, []).append(a.professor_id)
    return index


def measure_quantity_impact_correlation(pass_: ProfessorPass) -> float:
    """Pearson between per-professor output count and mean normalized impact,
    over professors with at least one normalizable publication."""
    counts = []
    impacts = []
    for indices in pass_.pubs:
        values = [pass_.impacts[j] for j in indices
                  if pass_.impacts[j] is not None]
        if values:
            counts.append(len(indices))
            impacts.append(sum(values) / len(values))
    return pearson(counts, impacts)


def scope_of(corpus: Corpus, prof: Professor, level: str) -> str:
    """The professor's scope code at a level: SDS, UDA, or "overall"."""
    if level == LEVEL_SDS:
        return prof.sds_code
    if level == LEVEL_UDA:
        return corpus.field_scheme.sds_to_uda[prof.sds_code]
    if level == LEVEL_OVERALL:
        return LEVEL_OVERALL
    raise ValueError(f"unknown level {level!r}")


def eligible_ids(corpus: Corpus, level: str, cfg: FilterConfig
                 ) -> dict[str, dict[str, list[str]]]:
    """``eligible_units`` of the corpus's professor pass, each unit's staff
    named by professor id."""
    pass_ = professor_pass(corpus, compute_scaling_factors(corpus))
    return {scope: {univ: [pass_.professor_ids[i] for i in members]
                    for univ, members in units.items()}
            for scope, units in eligible_units(pass_, level, cfg).items()}


def unit_ids(board: ScoreBoard) -> list[str]:
    return [e.university_id for e in board.entries]


def clone_university(corpus: Corpus, university_id: str) -> Corpus:
    """Double a university: twin professors authoring duplicated publications.

    Each duplicate keeps its original citation count and total co-author
    count, so per-publication ratios are preserved while the unit's staff and
    output double.
    """
    rows = records(corpus)
    twins = {}
    professors = dict(rows.professors)
    for pid, prof in rows.professors.items():
        if prof.university_id == university_id:
            twin = f"{pid}_CLONE"
            twins[pid] = twin
            professors[twin] = Professor(twin, university_id, prof.sds_code,
                                         prof.academic_rank,
                                         prof.years_on_staff)
    publications = dict(rows.publications)
    authorships = list(rows.authorships)
    authors = professors_by_pub(corpus)
    for pub_id in sorted(rows.publications):
        members = [p for p in authors.get(pub_id, []) if p in twins]
        if not members:
            continue
        pub = rows.publications[pub_id]
        dup = f"{pub_id}_CLONE"
        publications[dup] = Publication(dup, pub.year, pub.doc_type,
                                        pub.subject_categories, pub.citations,
                                        pub.n_authors_total)
        authorships += [Authorship(dup, twins[p]) for p in members]
    return rebuilt(corpus, publications, authorships, professors)


def add_publication(corpus: Corpus, pub: Publication,
                    author_ids: list[str]) -> Corpus:
    rows = records(corpus)
    publications = dict(rows.publications)
    publications[pub.pub_id] = pub
    authorships = rows.authorships + [Authorship(pub.pub_id, a)
                                      for a in author_ids]
    return rebuilt(corpus, publications, authorships)


# ---------------------------------------------------------------------------
# Brute-force enumeration oracles

def oracle_shift_stats(fss_ranks: list[int], mncs_ranks: list[int]) -> dict:
    n = len(fss_ranks)
    shifts = [abs(f - m) for f, m in zip(fss_ranks, mncs_ranks)]
    ordered = sorted(shifts)
    mid = n // 2
    median = (ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2)
    return {
        "pct_shifting": 100.0 * sum(1 for s in shifts if s) / n,
        "mean": sum(shifts) / n,
        "median": float(median),
        "max": max(shifts),
    }


def oracle_quartile_stats(fss_ranks: list[int], mncs_ranks: list[int]) -> dict:
    n = len(fss_ranks)

    def q(r: int) -> int:
        return math.ceil(4 * r / n)

    deltas = [abs(q(f) - q(m)) for f, m in zip(fss_ranks, mncs_ranks)]
    q1 = [(f, m) for f, m in zip(fss_ranks, mncs_ranks) if q(f) == 1]
    leaving = sum(1 for _, m in q1 if q(m) != 1)
    return {
        "pct_shifting": 100.0 * sum(1 for d in deltas if d) / n,
        "mean": sum(deltas) / n,
        "max": max(deltas),
        "pct_leaving_q1": 100.0 * leaving / len(q1) if q1 else 0.0,
    }


def comparison_from_ranks(fss_ranks: list[int], mncs_ranks: list[int]):
    """Build a comparison table whose rankings realize the given rank pair."""
    n = len(fss_ranks)
    units = [f"T{i}" for i in range(n)]
    fss_scores = [float(n - r + 1) for r in fss_ranks]
    mncs_scores = [float(n - r + 1) for r in mncs_ranks]
    fss_board, mncs_board = boards_from_columns(units, fss_scores, mncs_scores)
    return compare(rank(fss_board), rank(mncs_board), label="oracle")


# ---------------------------------------------------------------------------
# Unit scores

def overall_scores(corpus: Corpus, table, indicator: str) -> dict[str, float]:
    """University -> overall score of one indicator, from ``scoreboards``
    with every unit eligible; a university without that score is absent."""
    pair = scoreboards(professor_pass(corpus, table), RELAXED_CFG, "overall",
                       indicator).pairs[LEVEL_OVERALL]
    board = pair.fss if indicator == FSS else pair.mncs
    return {e.university_id: e.score for e in board.entries}


def staff_of(pass_: ProfessorPass, univ: str, level: str = "overall",
             scope: str = LEVEL_OVERALL) -> list[int]:
    """The professor indices of the unit (univ, scope), as ``scoreboards``
    gets them from ``eligible_units``."""
    return eligible_units(pass_, level, RELAXED_CFG)[scope][univ]


def oracle_unit_scores(corpus: Corpus, table, level: str) -> dict:
    """(university, scope) -> (fss, research staff, mncs, weight sum) of
    every unit at ``level``, computed unit by unit from the README formulas.

    A publication's impact is its citations over the mean of its categories'
    baselines, None without a baseline. A professor's FSS_P is the sum of
    impact / n over authored publications, over salary * years on staff.
    Unit FSS is the mean of FSS_P / (national mean FSS_P of the professor's
    SDS over its productive professors), over the unit's professors whose SDS
    has one. Unit MNCS is sum(impact * m/n) / sum(m/n) over the publications
    the unit's m professors author. An undefined score is None.
    """
    rows = records(corpus)

    def impact(pub):
        cells = [table.get((pub.year, c)) for c in pub.subject_categories]
        if None in cells:
            return None
        return pub.citations / (sum(c[0] for c in cells) / len(cells))

    def fss_p(prof):
        total = 0.0
        for a in rows.authorships:
            pub = rows.publications[a.pub_id]
            if a.professor_id == prof.professor_id and impact(pub) is not None:
                total += impact(pub) / pub.n_authors_total
        salary = corpus.salary_table[prof.academic_rank]
        return total / (salary * prof.years_on_staff)

    def sds_mean(code):
        values = [fss_p(p) for p in rows.professors.values()
                  if p.sds_code == code and fss_p(p) > 0]
        return sum(values) / len(values) if values else None

    units = {(p.university_id, scope_of(corpus, p, level))
             for p in rows.professors.values()}
    result = {}
    for univ, scope in units:
        staff = [p for p in rows.professors.values()
                 if (p.university_id, scope_of(corpus, p, level)) == (univ, scope)]
        ratios = [fss_p(p) / sds_mean(p.sds_code) for p in staff
                  if sds_mean(p.sds_code) is not None]
        fss = sum(ratios) / len(ratios) if ratios else None
        ids = {p.professor_id for p in staff}
        m: dict[str, int] = {}
        for a in rows.authorships:
            if a.professor_id in ids:
                m[a.pub_id] = m.get(a.pub_id, 0) + 1
        numerator = weights = 0.0
        for pub_id, count in m.items():
            pub = rows.publications[pub_id]
            if impact(pub) is not None:
                numerator += impact(pub) * count / pub.n_authors_total
                weights += count / pub.n_authors_total
        mncs = numerator / weights if weights > 0 else None
        result[univ, scope] = (fss, len(ratios), mncs, weights)
    return result
