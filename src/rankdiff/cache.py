"""The on-disk cache of the CLI: the verdict of ``validate`` on a corpus and
the professor pass of ``score`` and ``compare``.

An entry is a ``marshal`` file in ``$XDG_CACHE_HOME/rankdiff`` (else
``~/.cache/rankdiff``) holding a key's digest and a payload, and named by
that digest. A key covers the source of every module that computes an
entry, the interpreter's cache tag, the marshal version and what the caller
adds: a tag naming what the entry holds, the window and the digests of the
five corpus files, so the same bytes at two paths share one entry. The
directory keeps at most CACHE_ENTRIES entries, the latest written. An entry
that cannot be read or does not hold its key is a miss, and one that cannot
be written is skipped, so no result depends on the cache.
"""
from __future__ import annotations

import functools
import hashlib
import json
import marshal
import os
import sys
from collections.abc import Callable
from pathlib import Path

from .baselines import CellStats, ScalingFactorTable
from .corpus import (Corpus, CorpusPaths, FieldScheme, FilterConfig,
                     FilterReport, ObservationWindow, Professor,
                     corpus_digests, records)
from .indicators import ProfessorPass

# how many entries the cache directory keeps: the latest written
CACHE_ENTRIES = 8
# the modules whose source computes an entry
SOURCES = ("baselines", "cache", "cli", "corpus", "indicators")
# what reading or writing an entry may raise, a payload of the wrong shape
# included; each makes a miss, or skips the write
_ERRORS = (OSError, EOFError, ValueError, TypeError, LookupError,
           AttributeError)


def entry(*key: object) -> tuple[str, bytes] | None:
    """The cache file of the entry standing for ``key``, whose repr must not
    vary between runs, and the digest of the key it must hold; None without
    a cache directory."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.expanduser(os.path.join("~", ".cache"))
        if not os.path.isabs(base):     # no home directory
            return None
    try:
        digest = hashlib.sha256(_fingerprint())
    except OSError:
        return None
    digest.update(repr((sys.implementation.cache_tag, marshal.version)
                       + key).encode())
    name = digest.hexdigest()[:32] + ".marshal"
    return os.path.join(base, "rankdiff", name), digest.digest()


@functools.cache
def _fingerprint() -> bytes:
    """sha256 of the source of every module in SOURCES."""
    digest = hashlib.sha256()
    for name in SOURCES:
        digest.update(Path(__file__).with_name(f"{name}.py").read_bytes())
    return digest.digest()


def load(entry: tuple[str, bytes] | None, build: Callable[[object], object]
         ) -> object | None:
    """``build`` of the payload of an entry holding its key; None on a miss,
    ``build`` raising one of the read errors included."""
    if entry is None:
        return None
    path, key = entry
    try:
        with open(path, "rb") as f:
            stored_key, payload = marshal.loads(f.read())
        if stored_key == key:
            return build(payload)
    except _ERRORS:
        pass
    return None


def store(entry: tuple[str, bytes] | None, payload: object) -> None:
    """Write an entry, through a temporary file, and remove the oldest others
    beyond CACHE_ENTRIES; an error skips the write."""
    if entry is None:
        return
    path, key = entry
    directory, name = os.path.split(path)
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
        with open(os.open(temporary, flags, 0o600), "wb") as f:
            f.write(marshal.dumps((key, payload)))
        others = sorted((e.stat().st_mtime, e.path) for e in os.scandir(directory)
                        if e.name.endswith(".marshal") and e.name != name)
        for _, old in others[:max(0, len(others) + 1 - CACHE_ENTRIES)]:
            os.remove(old)
        os.replace(temporary, path)
    except _ERRORS:
        try:
            os.remove(temporary)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# The verdict of validate: the counts of a corpus that passed every check

def verdict(paths: CorpusPaths | str | Path, window: ObservationWindow
            ) -> tuple[dict[str, int], int] | None:
    """The counts of the corpus at ``paths`` and its number of publications
    outside ``window``, kept when the same bytes passed every check in
    ``window``; None on a miss, as when a file is missing."""
    file_digests = corpus_digests(paths)
    return load(entry("validate", tuple(window), list(file_digests.values())),
                lambda payload: (dict(payload[0]), int(payload[1])))


def store_verdict(corpus: Corpus) -> None:
    """Keep the counts of a corpus that passed every check."""
    store(entry("validate", tuple(corpus.window),
                list(corpus.file_digests.values())),
          (corpus.counts(), corpus.outside_window()))


# ---------------------------------------------------------------------------
# The professor pass, keyed also by the filters and the baselines' source

def cached_pass(paths: CorpusPaths, window: ObservationWindow,
                cfg: FilterConfig, baselines: bytes | None, fss: bool
                ) -> ProfessorPass | None:
    """The cached professor pass of the corpus at ``paths``, loaded in
    ``window``, filtered by ``cfg`` and scored against the baseline table
    whose file holds ``baselines`` (None: computed from the corpus). None on
    a miss, and when the pass lacks the FSS that ``fss`` asks for."""
    file_digests = corpus_digests(paths)
    pass_ = load(_pass_entry(window, cfg, baselines, file_digests),
                 lambda payload: _unpack(payload, file_digests))
    return None if pass_ is None or fss and pass_.scores is None else pass_


def store_pass(window: ObservationWindow, cfg: FilterConfig,
               baselines: bytes | None, pass_: ProfessorPass) -> None:
    """Keep a professor pass, keyed by the digests of the bytes it was made
    from."""
    store(
        _pass_entry(window, cfg, baselines, pass_.file_digests),
        (list(map(tuple, pass_.professors.values())),
         pass_.field_scheme.sds_to_uda, pass_.pubs_by_professor,
         pass_.n_authors_total, pass_.impacts, pass_.scores, pass_.averages,
         {cell: tuple(stats) for cell, stats in pass_.table.items()},
         tuple(pass_.filter_report), pass_.baseline_population,
         pass_.fss_skipped, pass_.unproductive, pass_.corpus_counts))


def _pass_entry(window: ObservationWindow, cfg: FilterConfig,
                baselines: bytes | None,
                file_digests: dict[str, str]) -> tuple[str, bytes] | None:
    return entry(
        "pass", tuple(window), list(file_digests.values()),
        # sorted: the repr of a frozenset varies with the hash seed
        json.dumps(cfg.as_dict(), sort_keys=True),
        None if baselines is None else hashlib.sha256(baselines).hexdigest())


def _unpack(payload: tuple, file_digests: dict[str, str]) -> ProfessorPass:
    """The professor pass of a cache entry's payload."""
    (rows, sds_to_uda, pubs_by_professor, n_authors_total, impacts, scores,
     averages, cells, report, population, skipped, unproductive,
     counts) = payload
    return ProfessorPass(
        dict(zip([row[0] for row in rows], records(Professor, rows))),
        FieldScheme(sds_to_uda), pubs_by_professor, n_authors_total, impacts,
        scores, averages,
        ScalingFactorTable(dict(zip(cells, map(CellStats._make,
                                               cells.values())))),
        file_digests, FilterReport(*report), population, skipped, unproductive,
        counts)
