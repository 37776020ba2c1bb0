"""Citation scaling factors: the per-(year, subject category) normalization
baselines shared by both indicators.

A cell's scaling factor is the mean citation count over the *cited*
publications of that year and category in the national corpus. Uncited
publications never enter a cell mean; a cell with no cited publication
simply does not exist.
"""
from __future__ import annotations

import logging
import math
from pathlib import Path
from typing import NamedTuple

from .corpus import Corpus, Publication, read_csv, write_csv
from .errors import MissingBaseline

log = logging.getLogger("rankdiff.baselines")

CSV_COLUMNS = {"year": int, "category": str, "mean": float, "cited_count": int,
               "total_count": int}


class CellStats(NamedTuple):
    mean: float
    cited_count: int
    total_count: int


class ScalingFactorTable:
    """Immutable map (year, subject_category) -> CellStats."""

    def __init__(self, cells: dict[tuple[int, str], CellStats]):
        for key, stats in cells.items():
            problem = _cell_problem(key, stats)
            if problem:
                raise ValueError(problem)
        self._cells = dict(cells)

    def cell(self, year: int, category: str) -> CellStats | None:
        return self._cells.get((year, category))

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self):
        return iter(sorted(self._cells))

    def items(self):
        return ((k, self._cells[k]) for k in sorted(self._cells))

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, CSV_COLUMNS,
                  ([year, cat, repr(s.mean), s.cited_count, s.total_count]
                   for (year, cat), s in self.items()))

    @classmethod
    def from_csv(cls, path: str | Path, data: bytes | None = None
                 ) -> "ScalingFactorTable":
        """Read a table written by ``to_csv``; ``data``, when given, is the
        file's bytes, read already.

        Raises ValueError naming the file and line of the first bad header,
        cell, duplicate (year, category) or empty category, or of an
        undecodable byte.
        """
        lines, (years, categories, *counts) = read_csv(
            path, CSV_COLUMNS, key=("year", "category"), data=data)
        cells = dict(zip(zip(years, categories), map(CellStats, *counts)))
        for line, (key, stats) in zip(lines, cells.items()):
            problem = _cell_problem(key, stats)
            if problem:
                raise ValueError(f"{path}:{line}: {problem}")
        return cls(cells)


def _cell_problem(key: tuple[int, str], stats: CellStats) -> str | None:
    if stats.cited_count < 1 or not 0 < stats.mean < math.inf:
        return (f"cell {key} must contain >= 1 cited publication "
                f"and a finite positive mean")
    if stats.total_count < stats.cited_count:
        return f"cell {key} must have total_count >= cited_count"
    return None


def compute_scaling_factors(corpus: Corpus) -> ScalingFactorTable:
    """Build the baseline table from the corpus's national population.

    A publication listed under k categories contributes to all k cells.
    """
    sums: dict[tuple[int, str], float] = {}
    cited: dict[tuple[int, str], int] = {}
    total: dict[tuple[int, str], int] = {}
    for pub in corpus.baseline_publications.values():
        for cat in pub.subject_categories:
            key = (pub.year, cat)
            total[key] = total.get(key, 0) + 1
            if pub.citations > 0:
                sums[key] = sums.get(key, 0.0) + pub.citations
                cited[key] = cited.get(key, 0) + 1
    cells = {key: CellStats(mean=sums[key] / cited[key], cited_count=cited[key],
                            total_count=total[key])
             for key in cited}
    log_computed(len(cells), len(corpus.baseline_publications))
    return ScalingFactorTable(cells)


def log_computed(cells: int, population: int) -> None:
    log.info("scaling factors: %d cells from %d baseline publications",
             cells, population)


def scaling_factor(pub: Publication, table: ScalingFactorTable) -> float:
    """The publication's citation baseline; multi-category publications get
    the arithmetic mean of their per-category cell means."""
    means = []
    for cat in pub.subject_categories:
        stats = table.cell(pub.year, cat)
        if stats is None:
            raise MissingBaseline(
                f"no baseline for publication {pub.pub_id} "
                f"(year {pub.year}, category {cat!r})")
        means.append(stats.mean)
    return sum(means) / len(means)


def normalized_impact(pub: Publication, table: ScalingFactorTable) -> float:
    """Citations divided by the scaling factor; 0 for uncited publications."""
    factor = scaling_factor(pub, table)
    if pub.citations == 0:
        return 0.0
    return pub.citations / factor
