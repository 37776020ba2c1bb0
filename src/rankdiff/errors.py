"""Exception types shared across the package."""
from __future__ import annotations

from typing import NamedTuple


class RankdiffError(Exception):
    """Base class for all rankdiff errors."""


class Violation(NamedTuple):
    """One validation failure, located as precisely as the input allows."""

    where: str      # "publications.csv:17" or a record id for in-memory data
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.where} [{self.field}]: {self.message}"


class InputError(ValueError):
    """An input file that is missing or not UTF-8: ``args`` are where it is,
    its path or its name and line, and what is wrong."""

    def __str__(self) -> str:
        return ": ".join(self.args)


MAX_VIOLATIONS = 100


class CorpusLoadError(RankdiffError):
    """Raised when corpus files fail to parse or cross-validate; keeps the
    first MAX_VIOLATIONS violations and counts them all in ``total``."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations[:MAX_VIOLATIONS]
        self.total = len(violations)
        head = "; ".join(str(v) for v in violations[:3])
        more = f" (+{self.total - 3} more)" if self.total > 3 else ""
        super().__init__(f"{self.total} corpus violation(s): {head}{more}")


class EmptyBoard(RankdiffError):
    """A scoreboard with no entries cannot be ranked."""


class DegeneratePopulation(RankdiffError):
    """Percentiles are undefined for populations of fewer than two units."""


class UnitSetMismatch(RankdiffError):
    """Two rankings being compared do not cover the same unit set."""


class DegenerateVariance(RankdiffError):
    """Correlation undefined: one of the inputs has zero variance."""


class ZeroMean(RankdiffError):
    """Coefficient of variation undefined for a zero-mean score column."""


class NoRankableSds(RankdiffError):
    """A discipline has no rankable field to summarize."""


class SynthConfigError(RankdiffError):
    """Synthetic-corpus configuration is invalid."""
