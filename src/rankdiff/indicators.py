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
from collections import Counter
from itertools import chain, repeat
from typing import NamedTuple

from .baselines import Cells, scaling_factor
from .corpus import (Corpus, FilterConfig, LEVEL_OVERALL, LEVEL_SDS,
                     LEVEL_UDA)

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
    scope_code: str
    indicator: str
    entries: list[UnitScore]


def impact_map(corpus: Corpus, cells: Cells) -> list[float | None]:
    """Normalized impact of each publication, by index: its citations over
    its scaling factor, 0 when uncited; None: no baseline in ``cells``.

    The scaling factor is found once per distinct (year, categories).
    """
    factors: dict[tuple[int, tuple[str, ...]], float | None] = {}
    impacts: list[float | None] = []
    for cell, cites in zip(zip(corpus.years, corpus.categories),
                           corpus.citations):
        if cell not in factors:
            factors[cell] = scaling_factor(*cell, cells)
        factor = factors[cell]
        impacts.append(None if factor is None else
                       cites / factor if cites else 0.0)
    return impacts


def professor_scores(corpus: Corpus, impacts: list[float | None]
                     ) -> list[float]:
    """Average yearly productivity (FSS_P) of each professor, by index.

    score = (1 / salary) * (1 / t) * sum over authored publications of
    (normalized impact / total co-author count). A publication whose
    ``impacts`` entry is None (no baseline) is skipped. Terms are summed in
    publication index order, which is id order, so input row order cannot
    change a score.
    """
    scores: list[float] = []
    n_authors, salary_table = corpus.n_authors, corpus.salary_table
    for indices, rank, years in zip(corpus.pubs, corpus.ranks,
                                    corpus.years_on_staff):
        total = 0.0
        for j in indices:
            impact = impacts[j]
            if impact is not None:
                total += impact / n_authors[j]
        scores.append(total / (salary_table[rank] * years))
    return scores


def sds_averages(corpus: Corpus, scores: list[float]) -> dict[str, float]:
    """National mean productivity of each SDS's productive professors, from
    the ``scores`` of the professors, by index.

    An SDS without a productive professor has no mean. Values are summed in
    professor index order, which is id order, so input row order cannot
    change them.
    """
    productive: dict[str, list[float]] = {}
    for code, score in zip(corpus.sds, scores):
        values = productive.setdefault(code, [])
        if score > 0:
            values.append(score)
    return {code: sum(values) / len(values)
            for code, values in sorted(productive.items()) if values}


# ---------------------------------------------------------------------------
# The professor pass

class ProfessorPass(NamedTuple):
    """The columns the unit pass reads of a filtered corpus scored against a
    baseline table, and the counters of its stages, which the CLI logs.

    Professors and publications are in id order, each named by its index.
    Per professor: ``professor_ids``, ``universities``, ``sds``, ``pubs``
    (the ascending indices of their publications) and ``scores`` (FSS_P);
    per publication: ``impacts`` (None without a baseline) and
    ``n_authors``. ``cells`` is the baseline table: (year, category) to
    (mean, cited_count, total_count). Every field is of builtin types,
    stored by ``marshal`` as is.
    """
    professor_ids: list[str]
    universities: list[str]
    sds: list[str]
    pubs: list[list[int]]
    scores: list[float]
    impacts: list[float | None]
    n_authors: list[int]
    sds_to_uda: dict[str, str]
    averages: dict[str, float]
    cells: Cells
    filter_report: tuple[int, ...] | None
    baseline_population: int
    fss_skipped: int
    unproductive: list[str]
    corpus_counts: dict[str, int] | None


def professor_pass(corpus: Corpus, cells: Cells,
                   corpus_counts: dict[str, int] | None = None
                   ) -> ProfessorPass:
    """The professor pass of a filtered corpus scored against the baseline
    table ``cells``, which it keeps: the normalized impacts, each
    professor's FSS_P and the SDS averages, with the publication terms FSS
    skipped for missing baselines and the SDS without an average.
    ``corpus_counts`` are the counts of the corpus before filtering, when
    known."""
    impacts = impact_map(corpus, cells)
    scores = professor_scores(corpus, impacts)
    averages = sds_averages(corpus, scores)
    return ProfessorPass(
        corpus.professor_ids, corpus.universities, corpus.sds, corpus.pubs,
        scores, impacts, corpus.n_authors,
        dict(corpus.field_scheme.sds_to_uda), averages, cells,
        None if corpus.filter_report is None else tuple(corpus.filter_report),
        len(corpus.baseline[0]),
        sum(impacts[j] is None for ps in corpus.pubs for j in ps),
        sorted(set(corpus.sds).difference(averages)), corpus_counts)


def log_fss(pass_: ProfessorPass) -> None:
    """Log the publication terms FSS skipped and each SDS without an
    average."""
    if pass_.fss_skipped:
        log.warning("fss: %d publication terms skipped for missing baselines",
                    pass_.fss_skipped)
    for code in pass_.unproductive:
        log.warning("SDS %s has no productive professor; its staff are "
                    "excluded from unit FSS", code)


# ---------------------------------------------------------------------------
# The unit pass: eligible units, unit scores and the scoreboards

def eligible_units(pass_: ProfessorPass, level: str, cfg: FilterConfig
                   ) -> dict[str, dict[str, list[int]]]:
    """The units meeting the level's headcount threshold, with their staff:
    ``scope_code -> university_id -> [professor indices]``.

    A professor's scope code is their SDS, its UDA, or LEVEL_OVERALL at
    overall level, where the unit is the university. Scopes come in code
    order, universities in id order and professors in index order, which is
    id order."""
    if level == LEVEL_SDS:
        scopes = pass_.sds
    elif level == LEVEL_UDA:
        scopes = map(pass_.sds_to_uda.__getitem__, pass_.sds)
    elif level == LEVEL_OVERALL:
        scopes = repeat(LEVEL_OVERALL)
    else:
        raise ValueError(f"unknown level {level!r}")
    members: dict[tuple[str, str], list[int]] = {}
    for i, key in enumerate(zip(scopes, pass_.universities)):
        members.setdefault(key, []).append(i)
    threshold = cfg.min_professors(level)
    units: dict[str, dict[str, list[int]]] = {}
    for (scope, univ), staff in sorted(members.items()):
        if len(staff) >= threshold:
            units.setdefault(scope, {})[univ] = staff
    return units


def unit_scores(pass_: ProfessorPass, university_id: str,
                scope_code: str, members: list[int], indicator: str
                ) -> tuple[UnitScore | None, UnitScore | None]:
    """(fss, mncs) of the unit (university_id, scope_code) whose professors
    are the pass's ``members``, by index; None where not asked by
    ``indicator`` or undefined. It logs the unit's dropped professors and
    skipped publications.

    FSS is the mean of SDS-standardized professor values, zeros included;
    a professor whose SDS has no average leaves numerator and staff. MNCS
    weights publication i by m_i / n_i, the unit's in-scope authors over all
    co-authors; an uncited one adds weight only, one without a baseline
    nothing. FSS ratios are summed in ``members`` order and MNCS terms in
    publication index order, which is id order, as in ``professor_pass``.
    """
    fss = mncs = None
    if indicator != MNCS:
        scores, averages, sds = pass_.scores, pass_.averages, pass_.sds
        ratios = [scores[i] / averages[sds[i]] for i in members
                  if sds[i] in averages]
        if len(ratios) < len(members):
            log.warning("fss_unit %s/%s: %d professors dropped "
                        "(unstandardizable SDS)",
                        university_id, scope_code, len(members) - len(ratios))
        if ratios:
            fss = UnitScore(university_id, FSS, sum(ratios) / len(ratios),
                            research_staff=len(ratios))
    if indicator != FSS:
        impacts, n_authors = pass_.impacts, pass_.n_authors
        # the unit's authors per publication
        m_by_pub = Counter(chain.from_iterable(map(pass_.pubs.__getitem__,
                                                   members)))
        numerator = weight_sum = 0.0
        skipped = 0
        for j, m in sorted(m_by_pub.items()):
            impact = impacts[j]
            if impact is None:
                skipped += 1
                continue
            weight = m / n_authors[j]
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


class ScopePair(NamedTuple):
    scope_code: str
    fss: ScoreBoard | None
    mncs: ScoreBoard | None
    dropped_units: list[str]


class ScoreboardSet(NamedTuple):
    level: str
    pairs: dict[str, ScopePair]
    not_rankable: list[str]
    warnings: list[str]


def scoreboards(pass_: ProfessorPass, cfg: FilterConfig, level: str,
                indicator: str = BOTH) -> ScoreboardSet:
    """Score every rankable scope at the given level from a professor pass:
    the unit pass, ``eligible_units`` and then ``unit_scores`` per unit.

    When both indicators are requested, each scope's FSS and MNCS boards are
    restricted to the units that obtained both scores; the rest are dropped
    and reported.
    """
    if indicator not in (FSS, MNCS, BOTH):
        raise ValueError(f"unknown indicator {indicator!r}")
    want_fss = indicator in (FSS, BOTH)
    want_mncs = indicator in (MNCS, BOTH)
    result = ScoreboardSet(level, {}, [], [])
    for scope, scope_units in eligible_units(pass_, level, cfg).items():
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
            fss_score, mncs_score = unit_scores(pass_, univ, scope, members,
                                                indicator)
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
