"""Statistics of FSS/MNCS disagreement: correlations, shift and quartile
summaries, score dispersion, and cross-field ranges."""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance, NoRankableSds, ZeroMean
from .indicators import ScoreBoard
from .ranking import ComparisonTable

log = logging.getLogger("rankdiff.divergence")


def average_ranks(xs) -> np.ndarray:
    """1-based ranks of xs ascending, ties sharing their average rank."""
    _, inverse, counts = np.unique(np.asarray(xs, dtype=float),
                                   return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def pearson(xs, ys) -> float:
    """Sample Pearson correlation of two equal-length sequences."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 3:
        raise ValueError(f"need at least 3 pairs, got {x.size}")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = float(np.sqrt(float(xc @ xc) * float(yc @ yc)))
    if denom == 0.0:
        raise DegenerateVariance("zero variance in at least one input")
    return float((xc @ yc) / denom)


def spearman(xs, ys) -> float:
    """Rank correlation: Pearson of average-rank vectors."""
    return pearson(average_ranks(xs), average_ranks(ys))


def _correlations(cmp: ComparisonTable) -> tuple[float | None, float | None]:
    if cmp.n < 3:
        log.warning("%s: fewer than 3 units, correlations omitted", cmp.label)
        return None, None
    try:
        p = pearson(cmp.fss_scores(), cmp.mncs_scores())
        s = spearman(cmp.fss_scores(), cmp.mncs_scores())
    except DegenerateVariance:
        log.warning("%s: degenerate variance, correlations omitted", cmp.label)
        return None, None
    return p, s


@dataclass(frozen=True)
class DivergenceSummary:
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
    shifts = np.array([abs(r.rank_shift) for r in cmp.rows], dtype=float)
    to_pct = 100.0 / (n - 1) if n > 1 else 0.0
    p, s = _correlations(cmp)
    return DivergenceSummary(
        scope_code=cmp.label,
        n_units=n,
        pct_shifting_rank=100.0 * float(np.count_nonzero(shifts)) / n,
        mean_abs_shift=float(shifts.mean()),
        median_abs_shift=float(np.median(shifts)),
        max_abs_shift=int(shifts.max()),
        mean_pct_shift=float(shifts.mean()) * to_pct,
        median_pct_shift=float(np.median(shifts)) * to_pct,
        max_pct_shift=float(shifts.max()) * to_pct,
        pearson=p,
        spearman=s,
    )


@dataclass(frozen=True)
class QuartileSummary:
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
        mean_abs_quartile_shift=float(np.mean(deltas)),
        max_quartile_shift=max(deltas),
        pct_leaving_q1=100.0 * leaving / len(q1) if q1 else 0.0,
    )


@dataclass(frozen=True)
class DispersionStats:
    scope_code: str
    indicator: str
    n_units: int
    mean: float
    std_dev: float                      # sample, n-1 denominator
    coefficient_of_variation: float


def dispersion(board: ScoreBoard) -> DispersionStats:
    """Mean, sample standard deviation, and CV of a board's score column."""
    values = np.array([e.score for e in board.entries], dtype=float)
    if values.size < 2:
        raise ValueError(f"need at least 2 scores, got {values.size}")
    mean = float(values.mean())
    if mean == 0.0:
        raise ZeroMean("coefficient of variation undefined for zero mean")
    std = float(values.std(ddof=1))
    return DispersionStats(
        scope_code=board.scope_code or "overall",
        indicator=board.indicator,
        n_units=int(values.size),
        mean=mean,
        std_dev=std,
        coefficient_of_variation=std / mean,
    )


RANGE_STATS = ("pct_shifting_rank", "mean_abs_shift", "median_abs_shift",
               "max_abs_shift", "mean_pct_shift", "median_pct_shift",
               "max_pct_shift", "pearson", "spearman")


@dataclass(frozen=True)
class RangeSummary:
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
