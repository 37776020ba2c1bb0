"""Research-performance indicators at professor and unit level.

FSS is an efficiency indicator: per professor, the salary- and
time-normalized sum of field-normalized, author-fractionalized citation
impact; per unit, the mean of professor values standardized by each
professor's own national SDS average. MNCS is a per-publication indicator:
the weighted mean of field-normalized citations with institutional
fractional-authorship weights.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .baselines import ScalingFactorTable, normalized_impact
from .corpus import Corpus, FilterConfig, Professor, LEVEL_SDS, eligible_units
from .errors import (MissingBaseline, MissingSalary, NonPositiveTenure,
                     NoProductiveProfessors, NoPublications)

log = logging.getLogger("rankdiff.indicators")

FSS = "fss"
MNCS = "mncs"
BOTH = "both"


@dataclass(frozen=True)
class ProfessorScore:
    professor_id: str
    fss_p: float
    term_count: int             # publications that entered the sum
    t: float
    salary: float
    skipped_missing_baseline: int = 0


@dataclass(frozen=True)
class UnitScore:
    university_id: str
    indicator: str
    score: float
    research_staff: int | None = None       # FSS denominator
    publication_weight: float | None = None  # MNCS weight sum


@dataclass
class ScoreBoard:
    level: str
    scope_code: str | None
    indicator: str
    entries: list[UnitScore]
    provenance: dict | None = None

    def unit_ids(self) -> list[str]:
        return [e.university_id for e in self.entries]

    def scores(self) -> dict[str, float]:
        return {e.university_id: e.score for e in self.entries}


def impact_map(corpus: Corpus, table: ScalingFactorTable) -> dict[str, float | None]:
    """Normalized impact per publication; None marks a missing baseline."""
    impacts: dict[str, float | None] = {}
    for pub_id in sorted(corpus.publications):
        pub = corpus.publications[pub_id]
        try:
            impacts[pub_id] = normalized_impact(pub, table)
        except MissingBaseline:
            impacts[pub_id] = None
    return impacts


def fss_professor(prof: Professor, corpus: Corpus, table: ScalingFactorTable,
                  salaries: dict[str, float] | None = None,
                  impacts: dict[str, float | None] | None = None) -> ProfessorScore:
    """Average yearly productivity of one professor.

    score = (1 / salary) * (1 / t) * sum over authored publications of
    (normalized impact / total co-author count). Publications without a
    baseline are skipped and counted. ``impacts`` may carry the
    precomputed ``impact_map``.
    """
    salaries = corpus.salary_table if salaries is None else salaries
    salary = salaries.get(prof.academic_rank)
    if salary is None:
        raise MissingSalary(f"no salary for rank {prof.academic_rank!r}")
    if prof.years_on_staff <= 0:
        raise NonPositiveTenure(
            f"professor {prof.professor_id} has t={prof.years_on_staff}")
    if impacts is None:
        impacts = impact_map(corpus, table)
    total = 0.0
    terms = 0
    skipped = 0
    for pub_id in sorted(corpus.pubs_by_professor.get(prof.professor_id, [])):
        impact = impacts[pub_id]
        if impact is None:
            skipped += 1
            continue
        total += impact / corpus.publications[pub_id].n_authors_total
        terms += 1
    score = total / (salary * prof.years_on_staff)
    return ProfessorScore(prof.professor_id, score, terms, prof.years_on_staff,
                          salary, skipped)


def professor_scores(corpus: Corpus, table: ScalingFactorTable,
                     impacts: dict[str, float | None] | None = None
                     ) -> dict[str, ProfessorScore]:
    if impacts is None:
        impacts = impact_map(corpus, table)
    scores = {pid: fss_professor(corpus.professors[pid], corpus, table,
                                 impacts=impacts)
              for pid in sorted(corpus.professors)}
    skipped = sum(s.skipped_missing_baseline for s in scores.values())
    if skipped:
        log.warning("fss: %d publication terms skipped for missing baselines",
                    skipped)
    return scores


def sds_averages(corpus: Corpus,
                 scores: dict[str, ProfessorScore]) -> dict[str, float]:
    """National mean productivity of each SDS's productive professors.

    An SDS without a productive professor has no mean and is logged. Values
    are summed in professor-id order, so input row order cannot change them.
    """
    productive: dict[str, list[float]] = {}
    for pid in sorted(corpus.professors):
        values = productive.setdefault(corpus.professors[pid].sds_code, [])
        if scores[pid].fss_p > 0:
            values.append(scores[pid].fss_p)
    averages: dict[str, float] = {}
    for code, values in sorted(productive.items()):
        if values:
            averages[code] = sum(values) / len(values)
        else:
            log.warning("SDS %s has no productive professor; its staff are "
                        "excluded from unit FSS", code)
    return averages


def _members(corpus: Corpus, university_id: str, level: str,
             scope_code: str | None) -> list[Professor]:
    return [p for p in corpus.professors.values()
            if p.university_id == university_id
            and corpus.scope_of(p, level) == scope_code]


def fss_unit(university_id: str, level: str, scope_code: str | None,
             corpus: Corpus, scores: dict[str, ProfessorScore],
             averages: dict[str, float] | None = None,
             members: list[Professor] | None = None) -> UnitScore:
    """Unit productivity: mean of SDS-standardized professor values.

    Unproductive professors count as zeros. Professors whose SDS has no
    national standard are dropped from both the numerator and the staff
    count. ``members`` may carry the precomputed in-scope staff list.
    """
    if averages is None:
        averages = sds_averages(corpus, scores)
    if members is None:
        members = _members(corpus, university_id, level, scope_code)
    ratios = []
    dropped = 0
    # fixed summation order keeps results identical across input orderings
    for prof in sorted(members, key=lambda p: p.professor_id):
        avg = averages.get(prof.sds_code)
        if avg is None:
            dropped += 1
            continue
        ratios.append(scores[prof.professor_id].fss_p / avg)
    if dropped:
        log.warning("fss_unit %s/%s: %d professors dropped (unstandardizable SDS)",
                    university_id, scope_code, dropped)
    if not ratios:
        raise NoProductiveProfessors(
            f"unit {university_id}/{scope_code}: no standardizable professor")
    return UnitScore(university_id, FSS, sum(ratios) / len(ratios),
                     research_staff=len(ratios))


def mncs_unit(university_id: str, level: str, scope_code: str | None,
              corpus: Corpus, table: ScalingFactorTable,
              impacts: dict[str, float | None] | None = None,
              members: list[Professor] | None = None) -> UnitScore:
    """Weighted mean normalized citation impact of the unit's publications.

    The weight of publication i is m_i / n_i: the unit's in-scope professors
    among its authors over all its co-authors. Uncited publications add
    weight but no impact; publications without a baseline are dropped from
    numerator and denominator alike. ``members`` may carry the precomputed
    in-scope staff list.
    """
    if members is None:
        members = _members(corpus, university_id, level, scope_code)
    if impacts is None:
        impacts = impact_map(corpus, table)
    member_ids = {p.professor_id for p in members}
    m_by_pub: dict[str, int] = {}
    for pid in member_ids:
        for pub_id in corpus.pubs_by_professor.get(pid, []):
            m_by_pub[pub_id] = m_by_pub.get(pub_id, 0) + 1
    numerator = 0.0
    weight_sum = 0.0
    skipped = 0
    for pub_id in sorted(m_by_pub):
        impact = impacts[pub_id]
        if impact is None:
            skipped += 1
            continue
        weight = m_by_pub[pub_id] / corpus.publications[pub_id].n_authors_total
        numerator += impact * weight
        weight_sum += weight
    if skipped:
        log.warning("mncs_unit %s/%s: %d publications skipped (missing baseline)",
                    university_id, scope_code, skipped)
    if weight_sum == 0:
        raise NoPublications(
            f"unit {university_id}/{scope_code} has no normalizable publication")
    return UnitScore(university_id, MNCS, numerator / weight_sum,
                     publication_weight=weight_sum)


# ---------------------------------------------------------------------------
# Scoreboards

@dataclass
class ScopePair:
    scope_code: str | None
    fss: ScoreBoard | None
    mncs: ScoreBoard | None
    dropped_units: list[str] = field(default_factory=list)


@dataclass
class ScoreboardSet:
    level: str
    pairs: dict[str | None, ScopePair]
    not_rankable: list[str | None] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def scoreboards(corpus: Corpus, table: ScalingFactorTable, level: str,
                cfg: FilterConfig, indicator: str = BOTH) -> ScoreboardSet:
    """Score every rankable scope at the given level.

    When both indicators are requested, each scope's FSS and MNCS boards are
    restricted to the units that obtained both scores; the rest are dropped
    and reported.
    """
    if indicator not in (FSS, MNCS, BOTH):
        raise ValueError(f"unknown indicator {indicator!r}")
    want_fss = indicator in (FSS, BOTH)
    want_mncs = indicator in (MNCS, BOTH)

    units = eligible_units(corpus, level, cfg)
    by_scope: dict[str | None, list] = {}
    for u in units:
        by_scope.setdefault(u.scope_code, []).append(u)
    member_groups: dict[tuple[str, str | None], list[Professor]] = {}
    for pid in sorted(corpus.professors):
        prof = corpus.professors[pid]
        member_groups.setdefault(
            (prof.university_id, corpus.scope_of(prof, level)), []).append(prof)

    impacts = impact_map(corpus, table)
    scores = averages = None
    if want_fss:
        scores = professor_scores(corpus, table, impacts)
        averages = sds_averages(corpus, scores)

    provenance = {
        "corpus": corpus.digest(),
        "baselines": table.digest(),
        "filters": cfg.as_dict(),
    }

    result = ScoreboardSet(level=level, pairs={})
    for scope in sorted(by_scope, key=lambda s: s or ""):
        scope_units = by_scope[scope]
        if level == LEVEL_SDS and len(scope_units) < cfg.min_units_to_rank:
            result.not_rankable.append(scope)
            result.warnings.append(
                f"scope {scope}: {len(scope_units)} eligible units, "
                f"need {cfg.min_units_to_rank}")
            continue
        fss_entries: dict[str, UnitScore] = {}
        mncs_entries: dict[str, UnitScore] = {}
        dropped: list[str] = []
        for u in scope_units:
            ok = True
            fss_score = mncs_score = None
            members = member_groups.get((u.university_id, scope), [])
            if want_fss:
                try:
                    fss_score = fss_unit(u.university_id, level, scope, corpus,
                                         scores, averages, members=members)
                except NoProductiveProfessors:
                    ok = False
            if want_mncs:
                try:
                    mncs_score = mncs_unit(u.university_id, level, scope,
                                           corpus, table, impacts,
                                           members=members)
                except NoPublications:
                    ok = False
            if indicator == BOTH and not ok:
                dropped.append(u.university_id)
                continue
            if fss_score is not None:
                fss_entries[u.university_id] = fss_score
            if mncs_score is not None:
                mncs_entries[u.university_id] = mncs_score
        if dropped:
            result.warnings.append(
                f"scope {scope}: dropped units missing one indicator: "
                f"{', '.join(dropped)}")
        fss_board = mncs_board = None
        if want_fss:
            fss_board = ScoreBoard(level, scope, FSS,
                                   [fss_entries[k] for k in sorted(fss_entries)],
                                   provenance)
        if want_mncs:
            mncs_board = ScoreBoard(level, scope, MNCS,
                                    [mncs_entries[k] for k in sorted(mncs_entries)],
                                    provenance)
        result.pairs[scope] = ScopePair(scope, fss_board, mncs_board, dropped)
    return result
