"""The on-disk cache of the CLI: the professor pass that ``validate``,
``score`` and ``compare`` make of a corpus.

An entry is a file in ``$XDG_CACHE_HOME/rankdiff`` (else
``~/.cache/rankdiff``) named by its key's digest. It holds a checksum, the
sha256 of that digest and the payload, then the payload: the pass written
by ``marshal``. A key is the run manifest's ``config`` and the digests of
its ``inputs`` (the corpus files and any imported baseline table, not
their paths, so the same bytes at two paths share one entry), with the
source of every module of the package, the interpreter's cache tag and the
marshal version. The directory keeps at most CACHE_ENTRIES entries, the
latest written. An entry that cannot be read or fails its checksum is a
miss, and one that cannot be written is skipped, so no result depends on
the cache. The checksum finds damage, not forgery: ``marshal`` is not
secure against data made to attack it, so the directory is the user's
alone.
"""
from __future__ import annotations

import functools
import hashlib
import json
import marshal
import os
import sys
import time
from pathlib import Path

from .indicators import ProfessorPass

# how many entries the cache directory keeps: the latest written
CACHE_ENTRIES = 8
# the age past which a temporary file's writer is taken to be dead
STALE_SECONDS = 3600
# the bytes of an entry's checksum, before its payload
CHECKSUM_BYTES = 32


def entry(inputs: dict[str, str], config: dict) -> tuple[str, bytes] | None:
    """The cache file of the pass made from the files whose sha256
    ``inputs`` holds by path, in its order, the paths left out, with the
    JSON-ready settings ``config``, and the digest of its key; None without
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
    digest.update(repr((
        sys.implementation.cache_tag, marshal.version, list(inputs.values()),
        json.dumps(config, sort_keys=True))).encode())
    name = digest.hexdigest()[:32] + ".marshal"
    return os.path.join(base, "rankdiff", name), digest.digest()


@functools.cache
def _fingerprint() -> bytes:
    """sha256 of the sha256 of the source of every module of the package,
    in the order of their names."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.digest()


def cached_pass(inputs: dict[str, str], config: dict) -> ProfessorPass | None:
    """The cached professor pass of the ``entry`` of these arguments; None
    on a miss: no entry, or one that cannot be read or whose first 32 bytes
    are not the sha256 of the key's digest and the rest."""
    located = entry(inputs, config)
    if located is None:
        return None
    path, key = located
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError:
        return None
    payload = memoryview(data)[CHECKSUM_BYTES:]
    digest = hashlib.sha256(key)
    digest.update(payload)
    if digest.digest() != data[:CHECKSUM_BYTES]:
        return None
    return ProfessorPass(*marshal.loads(payload))


def store_pass(inputs: dict[str, str], config: dict,
               pass_: ProfessorPass) -> None:
    """Keep a professor pass, as it is, as the ``entry`` of ``inputs`` and
    ``config``, after its checksum. It is written through a temporary file;
    the oldest other entries beyond CACHE_ENTRIES, every ``.pass`` file,
    which earlier versions wrote, and every temporary file older than
    STALE_SECONDS, which a killed writer left, are removed. An error skips
    the write."""
    located = entry(inputs, config)
    if located is None:
        return
    path, key = located
    directory, name = os.path.split(path)
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
        with open(os.open(temporary, flags, 0o600), "wb") as f:
            payload = marshal.dumps(tuple(pass_))
            f.write(hashlib.sha256(key + payload).digest() + payload)
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
    except OSError:
        try:
            os.remove(temporary)
        except OSError:
            pass

