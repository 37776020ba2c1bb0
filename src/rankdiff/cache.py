"""The on-disk cache of the CLI: the professor pass that ``validate``,
``score`` and ``compare`` make of a corpus.

An entry is a ``marshal`` file in ``$XDG_CACHE_HOME/rankdiff`` (else
``~/.cache/rankdiff``) holding a key's digest and a pass, and named by
that digest. A key covers the source of every module that computes an
entry, the interpreter's cache tag, the marshal version, the window, the
digests of the five corpus files, the filter settings and the digest of
any imported baseline table, so the same bytes at two paths share one
entry. The directory keeps at most CACHE_ENTRIES entries, the latest
written. An entry that cannot be read or does not hold its key is a miss,
and one that cannot be written is skipped, so no result depends on the
cache.
"""
from __future__ import annotations

import functools
import hashlib
import json
import marshal
import os
import sys
import time
from itertools import chain
from pathlib import Path

from .corpus import FilterConfig, ObservationWindow
from .indicators import ProfessorPass

# how many entries the cache directory keeps: the latest written
CACHE_ENTRIES = 8
# the age past which a temporary file's writer is taken to be dead
STALE_SECONDS = 3600
# the modules whose source computes an entry
SOURCES = ("baselines", "cache", "cli", "corpus", "indicators")
# what reading or writing an entry may raise, a pass of the wrong shape
# included; each makes a miss, or skips the write
_ERRORS = (OSError, EOFError, ValueError, TypeError, LookupError,
           AttributeError)


def entry(file_digests: dict[str, str], window: ObservationWindow,
          cfg: FilterConfig, baselines: bytes | None
          ) -> tuple[str, bytes] | None:
    """The cache file of the pass of the corpus of ``file_digests``, loaded
    in ``window``, filtered by ``cfg`` and scored against the baseline table
    whose file holds ``baselines`` (None: computed from the corpus), and the
    digest of the key it must hold; None without a cache directory."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.expanduser(os.path.join("~", ".cache"))
        if not os.path.isabs(base):     # no home directory
            return None
    try:
        digest = hashlib.sha256(_fingerprint())
    except OSError:
        return None
    digest.update(repr((
        sys.implementation.cache_tag, marshal.version, tuple(window),
        list(file_digests.values()),
        # sorted: the repr of a frozenset varies with the hash seed
        json.dumps(cfg.as_dict(), sort_keys=True),
        None if baselines is None else hashlib.sha256(baselines).hexdigest(),
    )).encode())
    name = digest.hexdigest()[:32] + ".marshal"
    return os.path.join(base, "rankdiff", name), digest.digest()


@functools.cache
def _fingerprint() -> bytes:
    """sha256 of the source of every module in SOURCES."""
    digest = hashlib.sha256()
    for name in SOURCES:
        digest.update(Path(__file__).with_name(f"{name}.py").read_bytes())
    return digest.digest()


def cached_pass(file_digests: dict[str, str], window: ObservationWindow,
                cfg: FilterConfig, baselines: bytes | None
                ) -> ProfessorPass | None:
    """The cached professor pass of the ``entry`` of these arguments; None
    on a miss: no entry, or one that cannot be read, holds another key or
    fails ``_checked``."""
    located = entry(file_digests, window, cfg, baselines)
    if located is None:
        return None
    path, key = located
    try:
        with open(path, "rb") as f:
            stored_key, payload = marshal.loads(f.read())
        if stored_key == key:
            return _checked(ProfessorPass(*payload))
    except _ERRORS:
        pass
    return None


def store_pass(file_digests: dict[str, str], window: ObservationWindow,
               cfg: FilterConfig, baselines: bytes | None,
               pass_: ProfessorPass) -> None:
    """Keep a professor pass, as it is, as the ``entry`` of the other
    arguments. It is written through a temporary file; the oldest other
    entries beyond CACHE_ENTRIES, every ``.pass`` file, which earlier
    versions wrote, and every temporary file older than STALE_SECONDS, which
    a killed writer left, are removed. An error skips the write."""
    located = entry(file_digests, window, cfg, baselines)
    if located is None:
        return
    path, key = located
    directory, name = os.path.split(path)
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
        with open(os.open(temporary, flags, 0o600), "wb") as f:
            f.write(marshal.dumps((key, tuple(pass_))))
        found = list(os.scandir(directory))
        others = sorted((e.stat().st_mtime, e.path) for e in found
                        if e.name.endswith(".marshal") and e.name != name)
        stale = [old for _, old in
                 others[:max(0, len(others) + 1 - CACHE_ENTRIES)]]
        # earlier versions kept passes in .pass files
        stale += [e.path for e in found if e.name.endswith(".pass")]
        abandoned = time.time() - STALE_SECONDS
        stale += [e.path for e in found if e.name.endswith(".tmp")
                  and e.stat().st_mtime < abandoned]
        for old in stale:
            os.remove(old)
        os.replace(temporary, path)
    except _ERRORS:
        try:
            os.remove(temporary)
        except OSError:
            pass


def _checked(pass_: ProfessorPass) -> ProfessorPass:
    """``pass_`` when every field the CLI reads has its type: each column a
    list of one value of its type per professor or publication, each
    publication index in range, the UDA of every SDS a string by SDS code,
    the SDS averages floats by code, each baseline cell (year, category) ->
    (mean, cited_count, total_count), the filter report four integers, the
    corpus counts integers by name, the stage counters integers and the
    unproductive SDS codes strings; ValueError otherwise."""
    n, m = len(pass_.professor_ids), len(pass_.impacts)
    counts, cells = pass_.corpus_counts, pass_.cells
    sds_to_uda, averages = pass_.sds_to_uda, pass_.averages
    if ({type(x) for x in (sds_to_uda, cells, averages, counts)} != {dict}
            or type(pass_.filter_report) is not tuple):
        raise ValueError("damaged professor pass")
    if not ({(type(k), type(v)) for k, v in cells.items()} <= {(tuple, tuple)}
            and {tuple(map(type, k)) for k in cells} <= {(int, str)}
            and {tuple(map(type, v)) for v in cells.values()}
            <= {(float, int, int)}):
        raise ValueError("damaged professor pass")
    indices = list(chain.from_iterable(pass_.pubs))
    # (values, their number or None for any, the types they may have)
    for column, length, kinds in [
            (pass_.professor_ids, n, {str}), (pass_.universities, n, {str}),
            (pass_.sds, n, {str}), (pass_.pubs, n, {list}),
            (pass_.scores, n, {float}),
            (pass_.impacts, m, {float, type(None)}),
            (pass_.n_authors, m, {int}), (indices, None, {int}),
            (list(pass_.filter_report), 4, {int}),
            (list(counts), None, {str}), (list(counts.values()), None, {int}),
            (list(sds_to_uda), None, {str}),
            (list(sds_to_uda.values()), None, {str}),
            (list(averages), None, {str}),
            (list(averages.values()), None, {float}),
            ([pass_.baseline_population, pass_.fss_skipped], None, {int}),
            (pass_.unproductive, None, {str})]:
        if (type(column) is not list
                or length is not None and len(column) != length
                or not set(map(type, column)) <= kinds):
            raise ValueError("damaged professor pass")
    if (indices and not 0 <= min(indices) <= max(indices) < m
            or not sds_to_uda.keys() >= set(pass_.sds)):
        raise ValueError("damaged professor pass")
    return pass_
