"""The on-disk cache behind ``load_corpus`` and the scoring commands.

An entry is a ``marshal`` file in ``$XDG_CACHE_HOME/rankdiff`` (else
``~/.cache/rankdiff``) holding a key and a payload. Its name comes from the
resolved paths of the files it was computed from and its kind's suffix, so
each location has one entry of each kind. Its key covers the source of
every module that computes an entry, the interpreter's cache tag, the
marshal version and what the caller adds. The directory keeps at most
CACHE_ENTRIES entries of all kinds, the latest written. An entry that cannot
be read or does not hold the key is a miss, and one that cannot be written
is skipped, so no result depends on the cache.
"""
from __future__ import annotations

import functools
import hashlib
import marshal
import os
import sys
from collections.abc import Callable, Iterable
from pathlib import Path

# how many entries the cache directory keeps, of every kind: the latest written
CACHE_ENTRIES = 8
# the suffix of each kind of entry: a loaded corpus, a professor pass
CORPUS, PASS = ".marshal", ".pass"
# the modules whose source computes an entry of either kind
SOURCES = ("baselines", "cache", "cli", "corpus", "indicators")
# what reading or writing an entry may raise, a payload of the wrong shape
# included; each makes a miss, or skips the write
_ERRORS = (OSError, EOFError, ValueError, TypeError, LookupError,
           AttributeError)


def entry(paths: Iterable[str | Path], kind: str, *key: object
          ) -> tuple[str, bytes] | None:
    """The cache file of ``kind`` for the files at ``paths``, named by their
    resolved form, and the key an entry there must hold to stand for
    ``key``, whose repr must not vary between runs; None without a cache
    directory."""
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
    where = os.fsencode("\0".join(map(os.path.realpath, paths)))
    name = hashlib.sha256(where).hexdigest()[:32] + kind
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
                        if e.name.endswith((CORPUS, PASS)) and e.name != name)
        for _, old in others[:max(0, len(others) + 1 - CACHE_ENTRIES)]:
            os.remove(old)
        os.replace(temporary, path)
    except _ERRORS:
        try:
            os.remove(temporary)
        except OSError:
            pass
