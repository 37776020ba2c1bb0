"""Citation scaling factors: the per-(year, subject category) normalization
baselines shared by both indicators.

A cell's scaling factor is the mean citation count over the *cited*
publications of that year and category in the national corpus. Uncited
publications never enter a cell mean; a cell with no cited publication
simply does not exist.

A baseline table is a dict mapping (year, category) to (mean, cited_count,
total_count).
"""
from __future__ import annotations

import logging
from pathlib import Path

from .corpus import Corpus, read_bytes, read_csv, write_csv

log = logging.getLogger("rankdiff.baselines")

CSV_COLUMNS = {"year": int, "category": str, "mean": float, "cited_count": int,
               "total_count": int}

Cells = dict[tuple[int, str], tuple[float, int, int]]


def read_baselines(path: str | Path) -> Cells:
    """Read a table written by ``write_baselines``: ``parse_baselines`` of
    the file's bytes."""
    return parse_baselines(path, read_bytes(path))


def parse_baselines(path: str | Path, data: bytes | None) -> Cells:
    """The table in ``data``, the bytes ``read_bytes`` returned from
    ``path``.

    Raises ValueError naming the file and line of the first bad header,
    cell, duplicate (year, category) or empty category, of a cell without a
    cited publication, a finite positive mean or total_count >= cited_count,
    or of an undecodable byte; naming the path of a missing file.
    """
    lines, (years, categories, *stats) = read_csv(
        path, data, CSV_COLUMNS, key=("year", "category"))
    cells = dict(zip(zip(years, categories), zip(*stats)))
    for line, (key, (mean, cited, total)) in zip(lines, cells.items()):
        # read_csv has checked that every number is finite
        if cited < 1 or mean <= 0:
            raise ValueError(f"{path}:{line}: cell {key} must contain >= 1 "
                             f"cited publication and a finite positive mean")
        if total < cited:
            raise ValueError(f"{path}:{line}: cell {key} must have "
                             f"total_count >= cited_count")
    return cells


def write_baselines(cells: Cells, path: str | Path) -> None:
    """Write ``cells`` to ``path`` in (year, category) order."""
    write_csv(path, CSV_COLUMNS,
              ([year, cat, repr(mean), cited, total]
               for (year, cat), (mean, cited, total) in sorted(cells.items())))


def compute_scaling_factors(corpus: Corpus) -> Cells:
    """Build the baseline table from the corpus's national population,
    ``corpus.baseline``.

    A publication listed under k categories contributes to all k cells.
    """
    sums: dict[tuple[int, str], float] = {}
    cited: dict[tuple[int, str], int] = {}
    total: dict[tuple[int, str], int] = {}
    years, categories, citations = corpus.baseline
    for year, cats, cites in zip(years, categories, citations):
        for cat in cats:
            key = (year, cat)
            total[key] = total.get(key, 0) + 1
            if cites > 0:
                sums[key] = sums.get(key, 0.0) + cites
                cited[key] = cited.get(key, 0) + 1
    return {key: (sums[key] / cited[key], cited[key], total[key])
            for key in cited}


def log_computed(cells: int, population: int) -> None:
    log.info("scaling factors: %d cells from %d baseline publications",
             cells, population)


def scaling_factor(year: int, categories: tuple[str, ...], cells: Cells
                   ) -> float | None:
    """The citation baseline of a publication of ``year`` listed under
    ``categories``: the arithmetic mean of their cell means; None when a
    category has no cell."""
    found = [cells.get((year, cat)) for cat in categories]
    if None in found:
        return None
    return sum(cell[0] for cell in found) / len(found)
