"""Ranks, percentiles, quartiles, and paired FSS/MNCS comparison rows."""
from __future__ import annotations

import logging
import re
from decimal import Decimal, ROUND_HALF_UP
from functools import lru_cache
from typing import NamedTuple

from .errors import DegeneratePopulation, EmptyBoard, UnitSetMismatch
from .indicators import ScoreBoard

log = logging.getLogger("rankdiff.ranking")


# a comparison sees few distinct unit ids and displayed values, so both
# helpers below remember their latest results
_MEMO = 4096


@lru_cache(maxsize=_MEMO)
def natural_key(unit_id: str) -> tuple:
    """Sort key treating digit runs numerically, so UNIV_9 < UNIV_10: a run
    (each odd part) compares by its length without leading zeros, then by
    its digits, so runs of any length sort by value."""
    parts = re.split(r"(\d+)", unit_id)
    for i in range(1, len(parts), 2):
        digits = parts[i].lstrip("0")
        parts[i] = (len(digits), digits)
    return tuple(parts)


def round_half_away(x: float, ndigits: int = 1) -> float:
    """Round with ties away from zero (display convention for percentiles)."""
    return _round_half_away(repr(x), ndigits)


@lru_cache(maxsize=_MEMO)
def _round_half_away(text: str, ndigits: int) -> float:
    """``round_half_away`` of the number whose repr is ``text``: the repr is
    its real input, so -0.0 and 0.0 never share an entry."""
    q = Decimal(1).scaleb(-ndigits)
    return float(Decimal(text).quantize(q, rounding=ROUND_HALF_UP))


def percentile(rank: int, n: int) -> float:
    """Rank percentile: 100 for rank 1, 0 for rank n, affine in between."""
    if n < 2:
        raise DegeneratePopulation(f"population of {n} has no percentile scale")
    if not 1 <= rank <= n:
        raise ValueError(f"rank {rank} out of range 1..{n}")
    return 100.0 * (n - rank) / (n - 1)


def quartile(rank: int, n: int) -> int:
    """Quartile by rank; 1 is best. ceil(4 * rank / n)."""
    if not 1 <= rank <= n:
        raise ValueError(f"rank {rank} out of range 1..{n}")
    return -((-4 * rank) // n)


class RankEntry(NamedTuple):
    unit_id: str
    score: float
    rank: int
    percentile: float


class RankedList(NamedTuple):
    entries: list[RankEntry]            # in rank order
    n: int
    ties: list[tuple[float, tuple[str, ...]]]
    degenerate: bool = False            # n == 1, percentile 100 by convention


def rank(board: ScoreBoard) -> RankedList:
    """Order units by score descending; ties resolved by unit id ascending
    (natural order) and surfaced in the result."""
    if not board.entries:
        raise EmptyBoard(f"board {board.level}/{board.scope_code} is empty")
    ordered = sorted(board.entries,
                     key=lambda e: (-e.score, natural_key(e.university_id)))
    n = len(ordered)
    degenerate = n == 1
    entries = [
        RankEntry(e.university_id, e.score, i,
                  100.0 if degenerate else percentile(i, n))
        for i, e in enumerate(ordered, start=1)
    ]
    ties: list[tuple[float, tuple[str, ...]]] = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and ordered[j + 1].score == ordered[i].score:
            j += 1
        if j > i:
            ties.append((ordered[i].score,
                         tuple(e.university_id for e in ordered[i:j + 1])))
        i = j + 1
    if ties:
        log.info("board %s/%s/%s: %d tie group(s): %s", board.level,
                 board.scope_code, board.indicator, len(ties),
                 ["/".join(g) for _, g in ties])
    if degenerate:
        log.warning("board %s/%s: single unit, percentile set to 100 by "
                    "convention", board.level, board.scope_code)
    return RankedList(entries, n, ties, degenerate)


class ComparisonRow(NamedTuple):
    unit_id: str
    staff: int | None
    fss_score: float
    fss_rank: int
    fss_pct: float
    mncs_score: float
    mncs_rank: int
    mncs_pct: float
    rank_shift: int         # fss_rank - mncs_rank; positive improves under MNCS
    pct_shift: float        # mncs_pct - fss_pct
    quartile_fss: int
    quartile_mncs: int


class ComparisonTable(NamedTuple):
    rows: list[ComparisonRow]           # sorted by FSS rank
    n: int
    label: str = ""


def compare(fss: RankedList, mncs: RankedList,
            staff: dict[str, int] | None = None,
            label: str = "") -> ComparisonTable:
    """Pair the two rankings unit by unit."""
    fss_units = {e.unit_id for e in fss.entries}
    mncs_units = {e.unit_id for e in mncs.entries}
    if fss_units != mncs_units:
        only_f = sorted(fss_units - mncs_units)
        only_m = sorted(mncs_units - fss_units)
        raise UnitSetMismatch(
            f"rankings cover different units (fss-only: {only_f}, "
            f"mncs-only: {only_m})")
    m_by_unit = {e.unit_id: e for e in mncs.entries}
    n = fss.n
    rows = []
    for e in fss.entries:
        m = m_by_unit[e.unit_id]
        rows.append(ComparisonRow(
            unit_id=e.unit_id,
            staff=None if staff is None else staff.get(e.unit_id),
            fss_score=e.score, fss_rank=e.rank, fss_pct=e.percentile,
            mncs_score=m.score, mncs_rank=m.rank, mncs_pct=m.percentile,
            rank_shift=e.rank - m.rank,
            pct_shift=m.percentile - e.percentile,
            quartile_fss=quartile(e.rank, n),
            quartile_mncs=quartile(m.rank, n),
        ))
    return ComparisonTable(rows, n, label)


def shift_glyph(rank_shift: int) -> str:
    """Display convention: improves under MNCS = up arrow."""
    if rank_shift > 0:
        return f"↑{rank_shift}"
    if rank_shift < 0:
        return f"↓{-rank_shift}"
    return "="
