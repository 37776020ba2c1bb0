"""The on-disk cache of validated corpora behind ``load_corpus``.

A hit must rebuild the corpus a miss builds, record for record and in the
same order; an unreadable, stale or foreign entry must be a miss; and no
state of the cache may change what a command prints, writes or returns.
"""
from __future__ import annotations

import hashlib
import json
import logging
import marshal
import os
import random
from pathlib import Path

import numpy as np
import pytest

from rankdiff import (CorpusLoadError, ObservationWindow, apply_filters,
                      load_corpus, write_corpus_csvs)
from rankdiff import corpus as corpus_module
from rankdiff.cli import main
from rankdiff.corpus import CACHE_ENTRIES, CorpusPaths
from helpers import RELAXED_CFG, WINDOW, random_corpus

RUN_CFG = ("start_year=2008\nend_year=2012\nmin_professors_sds=1\n"
           "min_professors_uda=1\nmin_professors_overall=1\n"
           "min_units_to_rank=1\n")


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache directory for this test alone."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "rankdiff"


@pytest.fixture
def data_dir(tmp_path):
    """A corpus whose rows are not in key order, so that a rebuilt dict in
    sorted order would differ from the loaded one."""
    paths = write_corpus_csvs(
        random_corpus(np.random.default_rng(11), n_universities=4, n_sds=3,
                      multi_category_share=0.4), tmp_path / "corpus")
    rng = random.Random(2)
    for path in paths:
        header, *rows = path.read_text(encoding="utf-8").splitlines(True)
        rng.shuffle(rows)
        path.write_text(header + "".join(rows), encoding="utf-8")
    return tmp_path / "corpus"


def _no_parsing(monkeypatch):
    """Make reading a CSV file or checking a corpus fail, as on a hit."""
    def refuse(*args, **kwargs):
        raise AssertionError("parsed or checked on a cache hit")
    monkeypatch.setattr(corpus_module, "read_csv", refuse)
    monkeypatch.setattr(corpus_module.Corpus, "check", refuse)


def _entries(cache: Path) -> list[Path]:
    return sorted(cache.glob("*.marshal")) if cache.exists() else []


def _snapshot(corpus) -> list:
    """Every field of the corpus with its order and the type of each value."""
    def typed(record):
        return [(type(record), value, type(value)) for value in record]
    scheme = corpus.field_scheme
    return [
        corpus.window,
        [(k, typed(p)) for k, p in corpus.publications.items()],
        [typed(a) for a in corpus.authorships],
        [(k, typed(p)) for k, p in corpus.professors.items()],
        type(scheme), [list(m.items()) for m in scheme],
        [(k, v, type(v)) for k, v in corpus.salary_table.items()],
        corpus.baseline_publications is corpus.publications,
        corpus.filter_report, corpus.file_digests,
    ]


def test_hit_rebuilds_the_corpus_of_a_miss(cache, data_dir, monkeypatch,
                                          caplog):
    with caplog.at_level(logging.INFO, logger="rankdiff.corpus"):
        missed = load_corpus(data_dir, WINDOW)
        assert len(_entries(cache)) == 1
        with monkeypatch.context() as patch:
            _no_parsing(patch)
            hit = load_corpus(data_dir, WINDOW)
    assert _snapshot(hit) == _snapshot(missed)
    # both keep the row order of the files
    for name, records in [("publications", hit.publications),
                          ("professors", hit.professors)]:
        rows = (data_dir / f"{name}.csv").read_text(encoding="utf-8")
        assert list(records) == [r.split(",")[0] for r in rows.split()[1:]]
    assert [type(c) for c in hit.publications["W00001"].subject_categories] \
        == [str]
    # the same info line, once per load
    first, second = [r.getMessage() for r in caplog.records]
    assert first == second and first.startswith("loaded corpus: ")
    # filtering works the same on both
    assert _snapshot(apply_filters(hit, RELAXED_CFG)) == \
        _snapshot(apply_filters(missed, RELAXED_CFG))


def test_file_digests_are_of_the_bytes_loaded(cache, data_dir):
    paths = CorpusPaths.from_dir(data_dir)
    expected = {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in paths}
    for _ in range(2):          # a miss, then a hit
        corpus = load_corpus(data_dir, WINDOW)
        assert corpus.file_digests == expected
        assert apply_filters(corpus, RELAXED_CFG).file_digests == expected


@pytest.mark.parametrize("damage", [
    lambda data, key: data[:len(data) // 2],
    lambda data, key: b"",
    lambda data, key: b"\x00garbage" * 50,
    lambda data, key: marshal.dumps((b"another key", marshal.loads(data)[1])),
    lambda data, key: marshal.dumps((key, ["not", "columns"])),
    lambda data, key: marshal.dumps([key]),
], ids=["truncated", "empty", "garbage", "wrong_key", "wrong_columns",
        "wrong_shape"])
def test_damaged_entry_is_a_miss_and_is_rewritten(cache, data_dir, damage):
    expected = _snapshot(load_corpus(data_dir, WINDOW))
    (entry,) = _entries(cache)
    good = entry.read_bytes()
    key = marshal.loads(good)[0]
    entry.write_bytes(damage(good, key))
    assert _snapshot(load_corpus(data_dir, WINDOW)) == expected
    assert _entries(cache) == [entry]
    assert marshal.loads(entry.read_bytes()) == marshal.loads(good)


def test_edited_byte_misses(cache, data_dir, monkeypatch):
    load_corpus(data_dir, WINDOW)
    path = data_dir / "professors.csv"
    data = path.read_bytes()
    # one professor's tenure, 5 years, becomes 6: over the window's length
    assert data.count(b",5\n") > 1
    path.write_bytes(data.replace(b",5\n", b",6\n", 1))
    with pytest.raises(CorpusLoadError, match="exceeds window length 5"):
        load_corpus(data_dir, WINDOW)
    path.write_bytes(data.replace(b",5\n", b",4\n", 1))
    edited = load_corpus(data_dir, WINDOW)
    assert sorted(p.years_on_staff for p in edited.professors.values())[0] \
        == 4.0
    # the edit replaced the location's one entry, which now hits
    assert len(_entries(cache)) == 1
    _no_parsing(monkeypatch)
    assert load_corpus(data_dir, WINDOW).professors == edited.professors


def test_changed_window_misses(cache, data_dir):
    load_corpus(data_dir, WINDOW)
    relabelled = WINDOW._replace(citation_snapshot_label="other")
    assert load_corpus(data_dir, relabelled).window == relabelled
    # every professor has 5 years on staff, too many for a 2-year window
    with pytest.raises(CorpusLoadError, match="exceeds window length 2"):
        load_corpus(data_dir, ObservationWindow(2011, 2012))


def _run(argv: list[str], capsys) -> tuple[int, str, str]:
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_invalid_corpus_fails_twice_and_leaves_no_entry(cache, data_dir,
                                                       tmp_path, capsys):
    (tmp_path / "run.cfg").write_text(RUN_CFG, encoding="utf-8")
    path = data_dir / "authorships.csv"
    path.write_text(path.read_text(encoding="utf-8") + "W99999,P0001\n",
                    encoding="utf-8")
    argv = ["validate", str(data_dir), "--config", str(tmp_path / "run.cfg")]
    first = _run(argv, capsys)
    assert first[0] == 1 and "unknown publication 'W99999'" in first[1]
    assert _run(argv, capsys) == first
    assert _entries(cache) == []


def _outputs(root: Path) -> dict[str, bytes]:
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "run_manifest.json":
                manifest = json.loads(data)
                manifest.pop("timestamp")
                data = json.dumps(manifest, sort_keys=True).encode()
            files[str(path.relative_to(root))] = data
    return files


def test_outputs_independent_of_the_cache(cache, data_dir, tmp_path, capsys,
                                          monkeypatch):
    """A miss, a hit and a cache directory that cannot be made give the same
    exit codes, stdout, stderr and output files."""
    (tmp_path / "run.cfg").write_text(RUN_CFG, encoding="utf-8")

    def commands(tag: str) -> list:
        args = [str(data_dir), "--config", str(tmp_path / "run.cfg")]
        out = tmp_path / tag
        results = [_run(["validate", *args], capsys)]
        for level in ("sds", "overall"):
            results.append(_run(["compare", *args, "--level", level,
                                 "--out", str(out / level)], capsys))
            results.append(_run(["score", *args, "--level", level,
                                 "--out", str(out / f"score_{level}")], capsys))
        return [(code, o.replace(tag, "TAG"), e) for code, o, e in results], \
            _outputs(out)

    missed = commands("miss")
    assert len(_entries(cache)) == 1
    hit = commands("hit")
    blocked = tmp_path / "blocked"
    blocked.write_text("a file where the cache directory would be")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    unwritable = commands("unwritable")
    assert missed == hit == unwritable
    assert all(code == 0 for code, _, _ in missed[0])


def test_entries_stay_within_the_cap(cache, tmp_path):
    """Each load of a new location adds its entry; past the cap, the one
    written longest ago goes."""
    corpus = random_corpus(np.random.default_rng(4))
    written = []
    for i in range(CACHE_ENTRIES + 3):
        before = set(_entries(cache))
        write_corpus_csvs(corpus, tmp_path / f"copy{i}")
        load_corpus(tmp_path / f"copy{i}", WINDOW)
        (new,) = set(_entries(cache)) - before
        os.utime(new, (1000 + i, 1000 + i))     # distinct, increasing times
        written.append(new)
        assert set(_entries(cache)) == set(written[-CACHE_ENTRIES:])


def test_synth_writes_no_entry(cache, tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({
        "seed": 1, "n_universities": 3, "sds": [{"sds": "A", "uda": "1"}],
        "professors_per_sds": [1, 3], "pubs_per_professor": 2.0,
        "citation_dispersion": 1.0, "quantity_impact_corr": 0.2,
        "salaries": {"assistant": 1.0},
        "window": {"start_year": 2008, "end_year": 2012}}), encoding="utf-8")
    assert main(["synth", str(config), "--out", str(tmp_path / "out")]) == 0
    assert not cache.exists()
