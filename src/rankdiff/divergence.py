"""Statistics of FSS/MNCS disagreement: correlations, shift and quartile
summaries, score dispersion, and cross-field ranges."""
from __future__ import annotations

import logging
import math
import sys
from itertools import groupby
from typing import NamedTuple

from .errors import DegenerateVariance, NoRankableSds, ZeroMean
from .indicators import ScoreBoard
from .ranking import ComparisonTable

log = logging.getLogger("rankdiff.divergence")


def average_ranks(xs) -> list[float]:
    """1-based ranks of xs ascending, as a list in input order; ties share
    their average rank."""
    values = [float(v) for v in xs]
    ranks = [0.0] * len(values)
    start = 0
    for _, block in groupby(sorted(range(len(values)), key=values.__getitem__),
                            key=values.__getitem__):
        block = list(block)
        end = start + len(block)
        for i in block:
            ranks[i] = (start + 1 + end) / 2
        start = end
    return ranks


def _fsum(terms) -> float:
    """Exactly rounded sum of floats. Where math.fsum raises instead (the
    sum leaves the float range, or inf meets -inf) this gives what float
    addition gives: inf or nan."""
    terms = list(terms)
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return sum(terms)


def _mean(values: list[float]) -> float:
    return _fsum(values) / len(values)


def _scaled(deviations: list[float]) -> list[float]:
    """``deviations`` divided by their largest magnitude: squares that
    would underflow below the smallest normal float keep their precision."""
    top = max(map(abs, deviations))
    return [d / top for d in deviations]


def pearson(xs, ys) -> float:
    """Sample Pearson correlation of two equal-length sequences; nan if
    the sums of squares overflow. Deviations whose squares underflow are
    rescaled first, which leaves the correlation unchanged."""
    x = [float(v) for v in xs]
    y = [float(v) for v in ys]
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise ValueError(f"need at least 3 pairs, got {len(x)}")
    mx = _mean(x)
    my = _mean(y)
    xc = [v - mx for v in x]
    yc = [v - my for v in y]
    sxx, syy = _fsum(a * a for a in xc), _fsum(b * b for b in yc)
    if min(sxx, syy, sxx * syy) < sys.float_info.min and any(xc) and any(yc):
        xc, yc = _scaled(xc), _scaled(yc)
        sxx, syy = _fsum(a * a for a in xc), _fsum(b * b for b in yc)
    denom = math.sqrt(sxx * syy)
    if denom == 0.0:
        raise DegenerateVariance("zero variance in at least one input")
    if denom == math.inf:
        return math.nan
    return _fsum(a * b for a, b in zip(xc, yc)) / denom


def spearman(xs, ys) -> float:
    """Rank correlation: Pearson of average-rank vectors."""
    return pearson(average_ranks(xs), average_ranks(ys))


def _correlations(cmp: ComparisonTable) -> tuple[float | None, float | None]:
    if cmp.n < 3:
        log.warning("%s: fewer than 3 units, correlations omitted", cmp.label)
        return None, None
    fss = [r.fss_score for r in cmp.rows]
    mncs = [r.mncs_score for r in cmp.rows]
    try:
        p, s = pearson(fss, mncs), spearman(fss, mncs)
    except DegenerateVariance:
        log.warning("%s: degenerate variance, correlations omitted", cmp.label)
        return None, None
    return p, s


class DivergenceSummary(NamedTuple):
    scope_code: str
    n_units: int
    pct_shifting_rank: float
    mean_abs_shift: float
    median_abs_shift: float
    max_abs_shift: int
    mean_pct_shift: float
    median_pct_shift: float
    max_pct_shift: float
    pearson: float | None
    spearman: float | None


def shift_stats(cmp: ComparisonTable) -> DivergenceSummary:
    """Shift statistics over absolute rank shifts, zeros included."""
    if not cmp.rows:
        raise ValueError("empty comparison table")
    n = cmp.n
    # integer shifts: the sums are exact, so mean and median are the
    # correctly rounded quotients
    shifts = sorted(abs(r.rank_shift) for r in cmp.rows)
    mean = sum(shifts) / n
    mid = len(shifts) // 2
    median = (float(shifts[mid]) if len(shifts) % 2
              else (shifts[mid - 1] + shifts[mid]) / 2)
    top = max(shifts)
    to_pct = 100.0 / (n - 1) if n > 1 else 0.0
    p, s = _correlations(cmp)
    return DivergenceSummary(
        scope_code=cmp.label,
        n_units=n,
        pct_shifting_rank=100.0 * sum(1 for d in shifts if d) / n,
        mean_abs_shift=mean,
        median_abs_shift=median,
        max_abs_shift=top,
        mean_pct_shift=mean * to_pct,
        median_pct_shift=median * to_pct,
        max_pct_shift=top * to_pct,
        pearson=p,
        spearman=s,
    )


class QuartileSummary(NamedTuple):
    scope_code: str
    n_units: int
    pct_shifting_quartile: float
    mean_abs_quartile_shift: float
    max_quartile_shift: int
    pct_leaving_q1: float


def quartile_stats(cmp: ComparisonTable) -> QuartileSummary:
    """Quartile migration between the two rankings; Q1 is the top."""
    if not cmp.rows:
        raise ValueError("empty comparison table")
    n = cmp.n
    deltas = [abs(r.quartile_fss - r.quartile_mncs) for r in cmp.rows]
    q1 = [r for r in cmp.rows if r.quartile_fss == 1]
    leaving = sum(1 for r in q1 if r.quartile_mncs != 1)
    return QuartileSummary(
        scope_code=cmp.label,
        n_units=n,
        pct_shifting_quartile=100.0 * sum(1 for d in deltas if d) / n,
        mean_abs_quartile_shift=sum(deltas) / n,
        max_quartile_shift=max(deltas),
        pct_leaving_q1=100.0 * leaving / len(q1) if q1 else 0.0,
    )


class DispersionStats(NamedTuple):
    scope_code: str
    indicator: str
    n_units: int
    mean: float
    std_dev: float                      # sample, n-1 denominator
    coefficient_of_variation: float


def dispersion(board: ScoreBoard) -> DispersionStats:
    """Mean, sample standard deviation, and CV of a board's score column.
    Deviations whose squares underflow are rescaled first."""
    values = [float(e.score) for e in board.entries]
    n = len(values)
    if n < 2:
        raise ValueError(f"need at least 2 scores, got {n}")
    mean = _mean(values)
    if mean == 0.0:
        raise ZeroMean("coefficient of variation undefined for zero mean")
    deviations = [v - mean for v in values]
    scale = 1.0
    squares = _fsum(d * d for d in deviations)
    if squares < sys.float_info.min and any(deviations):
        scale = max(map(abs, deviations))
        squares = _fsum(d * d for d in _scaled(deviations))
    std = scale * math.sqrt(squares / (n - 1))
    return DispersionStats(
        scope_code=board.scope_code,
        indicator=board.indicator,
        n_units=n,
        mean=mean,
        std_dev=std,
        coefficient_of_variation=std / mean,
    )


RANGE_STATS = ("pct_shifting_rank", "mean_abs_shift", "median_abs_shift",
               "max_abs_shift", "mean_pct_shift", "median_pct_shift",
               "max_pct_shift", "pearson", "spearman")


class RangeSummary(NamedTuple):
    uda_code: str
    n_sds: int
    ranges: dict[str, tuple[float, float]]     # statistic -> (min, max)


def range_summary(per_sds: list[DivergenceSummary], uda_code: str) -> RangeSummary:
    """Componentwise min/max of SDS-level summaries within one discipline."""
    if not per_sds:
        raise NoRankableSds(f"UDA {uda_code!r} has no rankable SDS summary")
    ranges: dict[str, tuple[float, float]] = {}
    for stat in RANGE_STATS:
        values = [getattr(s, stat) for s in per_sds
                  if getattr(s, stat) is not None]
        if values:
            ranges[stat] = (float(min(values)), float(max(values)))
    return RangeSummary(uda_code=uda_code, n_sds=len(per_sds), ranges=ranges)
