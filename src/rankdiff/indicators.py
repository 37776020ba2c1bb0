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
from typing import NamedTuple

from .baselines import ScalingFactorTable, scaling_factor
from .corpus import Corpus, FilterConfig, LEVEL_SDS, eligible_units
from .errors import MissingBaseline

log = logging.getLogger("rankdiff.indicators")

FSS = "fss"
MNCS = "mncs"
BOTH = "both"


class UnitScore(NamedTuple):
    university_id: str
    indicator: str
    score: float
    research_staff: int | None = None       # FSS denominator
    publication_weight: float | None = None  # MNCS weight sum


class ScoreBoard(NamedTuple):
    level: str
    scope_code: str | None
    indicator: str
    entries: list[UnitScore]


def impact_map(corpus: Corpus, table: ScalingFactorTable) -> dict[str, float | None]:
    """Normalized impact per publication; None marks a missing baseline.

    The scaling factor is found once per distinct (year, categories); each
    impact is then what ``normalized_impact`` gives.
    """
    factors: dict[tuple[int, tuple[str, ...]], float | None] = {}
    impacts: dict[str, float | None] = {}
    for pub_id in sorted(corpus.publications):
        pub = corpus.publications[pub_id]
        cell = (pub.year, pub.subject_categories)
        if cell not in factors:
            try:
                factors[cell] = scaling_factor(pub, table)
            except MissingBaseline:
                factors[cell] = None
        factor = factors[cell]
        impacts[pub_id] = (None if factor is None else
                           pub.citations / factor if pub.citations else 0.0)
    return impacts


def professor_scores(corpus: Corpus,
                     impacts: dict[str, float | None]) -> dict[str, float]:
    """Average yearly productivity (FSS_P) of every professor.

    score = (1 / salary) * (1 / t) * sum over authored publications of
    (normalized impact / total co-author count). A publication whose
    ``impacts`` entry is None (no baseline) is skipped and counted in one
    warning. Terms are summed in publication-id order, so input row order
    cannot change a score.
    """
    scores: dict[str, float] = {}
    skipped = 0
    for pid in sorted(corpus.professors):
        prof = corpus.professors[pid]
        total = 0.0
        for pub_id in sorted(corpus.pubs_by_professor.get(pid, [])):
            impact = impacts[pub_id]
            if impact is None:
                skipped += 1
            else:
                total += impact / corpus.publications[pub_id].n_authors_total
        salary = corpus.salary_table[prof.academic_rank]
        scores[pid] = total / (salary * prof.years_on_staff)
    if skipped:
        log.warning("fss: %d publication terms skipped for missing baselines",
                    skipped)
    return scores


def sds_averages(corpus: Corpus, scores: dict[str, float]) -> dict[str, float]:
    """National mean productivity of each SDS's productive professors.

    An SDS without a productive professor has no mean and is logged. Values
    are summed in professor-id order, so input row order cannot change them.
    """
    productive: dict[str, list[float]] = {}
    for pid in sorted(corpus.professors):
        values = productive.setdefault(corpus.professors[pid].sds_code, [])
        if scores[pid] > 0:
            values.append(scores[pid])
    averages: dict[str, float] = {}
    for code, values in sorted(productive.items()):
        if values:
            averages[code] = sum(values) / len(values)
        else:
            log.warning("SDS %s has no productive professor; its staff are "
                        "excluded from unit FSS", code)
    return averages


def unit_scores(corpus: Corpus, university_id: str, scope_code: str | None,
                members: list[str], scores: dict[str, float] | None = None,
                averages: dict[str, float] | None = None,
                impacts: dict[str, float | None] | None = None
                ) -> tuple[UnitScore | None, UnitScore | None]:
    """(fss, mncs) of the unit (university_id, scope_code) whose professors
    are ``members``; None where not asked or undefined.

    FSS needs ``scores`` and ``averages``, MNCS needs ``impacts``; None
    leaves that indicator out. It logs the unit's dropped professors and
    skipped publications.

    FSS is the mean of SDS-standardized professor values, zeros included;
    a professor whose SDS has no average leaves numerator and staff. MNCS
    weights publication i by m_i / n_i, the unit's in-scope authors over all
    co-authors; an uncited one adds weight only, one without a baseline
    nothing. FSS ratios are summed in ``members`` order, which
    ``eligible_units`` gives by id, and MNCS terms in publication-id order,
    so no score depends on input row order.
    """
    fss = mncs = None
    if scores is not None:
        ratios = []
        for pid in members:
            avg = averages.get(corpus.professors[pid].sds_code)
            if avg is not None:
                ratios.append(scores[pid] / avg)
        if len(ratios) < len(members):
            log.warning("fss_unit %s/%s: %d professors dropped "
                        "(unstandardizable SDS)",
                        university_id, scope_code, len(members) - len(ratios))
        if ratios:
            fss = UnitScore(university_id, FSS, sum(ratios) / len(ratios),
                            research_staff=len(ratios))
    if impacts is not None:
        m_by_pub: dict[str, int] = {}       # the unit's authors per pub
        for pid in members:
            for pub_id in corpus.pubs_by_professor.get(pid, []):
                m_by_pub[pub_id] = m_by_pub.get(pub_id, 0) + 1
        numerator = weight_sum = 0.0
        skipped = 0
        for pub_id, m in sorted(m_by_pub.items()):
            impact = impacts[pub_id]
            if impact is None:
                skipped += 1
                continue
            weight = m / corpus.publications[pub_id].n_authors_total
            numerator += impact * weight
            weight_sum += weight
        if skipped:
            log.warning("mncs_unit %s/%s: %d publications skipped "
                        "(missing baseline)",
                        university_id, scope_code, skipped)
        if weight_sum > 0:
            mncs = UnitScore(university_id, MNCS, numerator / weight_sum,
                             publication_weight=weight_sum)
    return fss, mncs


# ---------------------------------------------------------------------------
# Scoreboards

class ScopePair(NamedTuple):
    scope_code: str | None
    fss: ScoreBoard | None
    mncs: ScoreBoard | None
    dropped_units: list[str]


class ScoreboardSet(NamedTuple):
    level: str
    pairs: dict[str | None, ScopePair]
    not_rankable: list[str | None]
    warnings: list[str]


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
    impacts = impact_map(corpus, table)
    scores = averages = None
    if want_fss:
        scores = professor_scores(corpus, impacts)
        averages = sds_averages(corpus, scores)

    result = ScoreboardSet(level, {}, [], [])
    for scope, scope_units in units.items():
        if level == LEVEL_SDS and len(scope_units) < cfg.min_units_to_rank:
            result.not_rankable.append(scope)
            result.warnings.append(
                f"scope {scope}: {len(scope_units)} eligible units, "
                f"need {cfg.min_units_to_rank}")
            continue
        fss_entries: list[UnitScore] = []
        mncs_entries: list[UnitScore] = []
        dropped: list[str] = []
        for univ, members in scope_units.items():
            fss_score, mncs_score = unit_scores(
                corpus, univ, scope, members, scores, averages,
                impacts if want_mncs else None)
            if indicator == BOTH and (fss_score is None or mncs_score is None):
                dropped.append(univ)
                continue
            if fss_score is not None:
                fss_entries.append(fss_score)
            if mncs_score is not None:
                mncs_entries.append(mncs_score)
        if dropped:
            result.warnings.append(
                f"scope {scope}: dropped units missing one indicator: "
                f"{', '.join(dropped)}")
        result.pairs[scope] = ScopePair(
            scope,
            ScoreBoard(level, scope, FSS, fss_entries) if want_fss else None,
            ScoreBoard(level, scope, MNCS, mncs_entries) if want_mncs else None,
            dropped)
    return result
