"""The on-disk cache of validated corpora behind ``load_corpus``, and of
professor passes behind ``score`` and ``compare``.

A hit must rebuild the corpus or pass a miss builds, record for record and
in the same order; an unreadable, stale or foreign entry must be a miss; and
no state of the cache may change what a command prints, logs, writes or
returns.
"""
from __future__ import annotations

import hashlib
import json
import logging
import marshal
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rankdiff import (LEVELS, CorpusLoadError, FilterConfig,
                      ObservationWindow, ScalingFactorTable, apply_filters,
                      compute_scaling_factors, load_corpus, professor_pass,
                      scoreboards, write_corpus_csvs)
from rankdiff import cache as cache_module
from rankdiff import cli, indicators
from rankdiff import corpus as corpus_module
from rankdiff.cli import main
from rankdiff.cache import CACHE_ENTRIES
from rankdiff.corpus import CorpusPaths
from rankdiff.indicators import cached_pass, store_pass
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


# ---------------------------------------------------------------------------
# The professor pass: kept beside the corpus entry, keyed by the corpus
# bytes, the window, the filters and the baseline table's source

def _pass_entries(cache: Path) -> list[Path]:
    return sorted(cache.glob("*.pass")) if cache.exists() else []


def _add_unproductive_sds(data_dir: Path) -> None:
    """An SDS whose two professors have no publication: its average is
    undefined, so FSS drops them and logs it."""
    with open(data_dir / "fields.csv", "a", encoding="utf-8") as f:
        f.write("S9,S9,U1,U1\n")
    with open(data_dir / "professors.csv", "a", encoding="utf-8") as f:
        f.write("P9001,UNIV1,S9,a,5\nP9002,UNIV2,S9,a,5\n")


def _pruned_baselines(data_dir: Path, path: Path) -> Path:
    """The corpus's baseline table without its 2010 cells, so some
    publications have no baseline and are skipped, with warnings."""
    table = compute_scaling_factors(load_corpus(data_dir, WINDOW))
    ScalingFactorTable({cell: stats for cell, stats in table.items()
                        if cell[0] != 2010}).to_csv(path)
    return path


# every stage a hit skips, by the module that calls it
SKIPPED_ON_A_HIT = [(cli, "load_corpus"), (cli, "apply_filters"),
                    (cli, "compute_scaling_factors"),
                    (indicators, "impact_map"),
                    (indicators, "professor_scores"),
                    (indicators, "sds_averages")]


def _refuse_scoring(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a stage of the professor pass ran on a hit")
    for module, name in SKIPPED_ON_A_HIT:
        monkeypatch.setattr(module, name, refuse)


def _logged(caplog) -> list[tuple[str, str, str]]:
    lines = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
    caplog.clear()
    return lines


@pytest.mark.parametrize("pinned", [False, True], ids=["computed", "pinned"])
@pytest.mark.parametrize("indicator", ["fss", "mncs", "both"])
@pytest.mark.parametrize("level", ["sds", "uda", "overall"])
def test_pass_hit_equals_miss(level, indicator, pinned, data_dir, tmp_path,
                              capsys, caplog, monkeypatch):
    """A hit writes the files, prints the lines and logs the records, at
    every level, that the miss before it did, and runs none of the stages
    of the professor pass."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    _add_unproductive_sds(data_dir)
    (tmp_path / "run.cfg").write_text(RUN_CFG, encoding="utf-8")
    argv = ["score", str(data_dir), "--config", str(tmp_path / "run.cfg"),
            "--level", level, "--indicator", indicator, "--export-baselines"]
    if pinned:
        argv += ["--baselines",
                 str(_pruned_baselines(data_dir, tmp_path / "pinned.csv"))]
    runs = []
    with caplog.at_level(logging.DEBUG):
        for tag in ("miss", "hit"):
            with monkeypatch.context() as patch:
                if tag == "hit":
                    _refuse_scoring(patch)
                code, out, err = _run(argv + ["--out", str(tmp_path / tag)],
                                      capsys)
            runs.append((code, out.replace(str(tmp_path / tag), "OUT"), err,
                         _logged(caplog), _outputs(tmp_path / tag)))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    logged = [message for _, _, message in runs[0][3]]
    assert any(m.startswith("loaded corpus: ") for m in logged)
    assert any(m.startswith("filters: ") for m in logged)
    if indicator != "mncs":
        assert "SDS S9 has no productive professor; its staff are " \
            "excluded from unit FSS" in logged
    if pinned:
        assert any("skipped" in m for m in logged)


def test_pass_hit_prints_what_a_miss_prints(data_dir, tmp_path):
    """The same stdout and stderr from a fresh interpreter, at the default
    log level and at debug, on a miss and on a hit."""
    _add_unproductive_sds(data_dir)
    (tmp_path / "run.cfg").write_text(RUN_CFG, encoding="utf-8")
    root = Path(__file__).resolve().parents[1]
    results = {}
    for level in ("", "debug"):
        env = {**os.environ, "PYTHONPATH": "src",
               "XDG_CACHE_HOME": str(tmp_path / f"xdg{level}")}
        env.pop("RANKDIFF_LOG", None)
        if level:
            env["RANKDIFF_LOG"] = level
        for tag in ("miss", "hit"):
            proc = subprocess.run(
                [sys.executable, "-m", "rankdiff", "compare", str(data_dir),
                 "--config", str(tmp_path / "run.cfg"), "--level", "sds",
                 "--out", str(tmp_path / f"{tag}{level}")],
                cwd=root, env=env, capture_output=True, text=True)
            results[level, tag] = (
                proc.returncode,
                proc.stdout.replace(str(tmp_path / f"{tag}{level}"), "OUT"),
                proc.stderr)
    assert results["", "miss"] == results["", "hit"]
    assert results["debug", "miss"] == results["debug", "hit"]
    assert "WARNING rankdiff.indicators: SDS S9" in results["", "hit"][2]
    assert "INFO rankdiff.corpus: loaded corpus" in results["debug", "hit"][2]


def _pass_snapshot(pass_) -> list:
    """Every field of a professor pass, with its order and value types."""
    def typed(mapping):
        return None if mapping is None else \
            [(k, v, type(v)) for k, v in mapping.items()]
    return [
        [(k, list(p), [type(v) for v in p], type(p))
         for k, p in pass_.professors.items()],
        type(pass_.field_scheme), typed(pass_.field_scheme.sds_to_uda),
        typed(pass_.pubs_by_professor), typed(pass_.n_authors_total),
        typed(pass_.impacts), typed(pass_.scores), typed(pass_.averages),
        [(cell, tuple(stats), type(stats)) for cell, stats in
         pass_.table.items()],
        *pass_[pass_._fields.index("file_digests"):],
    ]


def _made_pass(data_dir: Path, window=WINDOW, cfg=RELAXED_CFG,
               baselines: bytes | None = None):
    loaded = load_corpus(data_dir, window)
    corpus = apply_filters(loaded, cfg)
    table = (compute_scaling_factors(corpus) if baselines is None else
             ScalingFactorTable.from_csv("pinned.csv", data=baselines))
    return professor_pass(corpus, table, corpus_counts=loaded.counts())


def test_cached_pass_equals_the_pass_made(cache, data_dir):
    paths = CorpusPaths.from_dir(data_dir)
    made = _made_pass(data_dir)
    store_pass(paths, WINDOW, RELAXED_CFG, None, made)
    hit = cached_pass(paths, WINDOW, RELAXED_CFG, None, True)
    assert _pass_snapshot(hit) == _pass_snapshot(made)
    for level in LEVELS:
        assert scoreboards(hit, RELAXED_CFG, level) == \
            scoreboards(made, RELAXED_CFG, level)


def test_pass_without_fss_misses_for_fss(cache, data_dir):
    paths = CorpusPaths.from_dir(data_dir)
    corpus = apply_filters(load_corpus(data_dir, WINDOW), RELAXED_CFG)
    made = professor_pass(corpus, compute_scaling_factors(corpus), fss=False)
    store_pass(paths, WINDOW, RELAXED_CFG, None, made)
    assert cached_pass(paths, WINDOW, RELAXED_CFG, None, False) is not None
    assert cached_pass(paths, WINDOW, RELAXED_CFG, None, True) is None
    with pytest.raises(ValueError, match="without it"):
        scoreboards(made, RELAXED_CFG, "sds", "fss")


# a different valid value for every setting of FilterConfig
FILTER_CHANGES = {
    "min_years_on_staff": 2.5, "excluded_doc_types": frozenset({"letter"}),
    "min_professors_sds": 2, "min_professors_uda": 2,
    "min_professors_overall": 2, "min_units_to_rank": 2,
    "baseline_include_all_doctypes": True,
}


def test_every_input_of_the_pass_is_in_its_key(cache, data_dir, tmp_path,
                                               monkeypatch):
    assert set(FILTER_CHANGES) == set(FilterConfig._fields)
    paths = CorpusPaths.from_dir(data_dir)
    baselines = _pruned_baselines(data_dir, tmp_path / "b.csv").read_bytes()
    for pinned in (None, baselines):
        store_pass(paths, WINDOW, RELAXED_CFG, pinned,
                   _made_pass(data_dir, baselines=pinned))
        assert cached_pass(paths, WINDOW, RELAXED_CFG, pinned, True)
    # the entry now stands for the pinned table: computed baselines miss
    assert cached_pass(paths, WINDOW, RELAXED_CFG, None, True) is None
    edited = bytes([baselines[0] ^ 1]) + baselines[1:]     # one bit
    assert cached_pass(paths, WINDOW, RELAXED_CFG, edited, True) is None

    for name, value in FILTER_CHANGES.items():
        assert getattr(RELAXED_CFG, name) != value
        cfg = RELAXED_CFG._replace(**{name: value})
        assert cached_pass(paths, WINDOW, cfg, baselines, True) is None, name
    for name, value in [("start_year", 2007), ("end_year", 2013),
                        ("citation_snapshot_label", "other")]:
        window = WINDOW._replace(**{name: value})
        assert cached_pass(paths, window, RELAXED_CFG, baselines, True) \
            is None, name

    # a module's source: the same key from a copy of the sources, another
    # once one module differs by a byte
    copy = tmp_path / "sources"
    copy.mkdir()
    for name in cache_module.SOURCES:
        shutil.copy(Path(cache_module.__file__).with_name(f"{name}.py"), copy)
    monkeypatch.setattr(cache_module, "__file__", str(copy / "cache.py"))
    for name in ("indicators", "cli", "baselines"):
        cache_module._fingerprint.cache_clear()
        assert cached_pass(paths, WINDOW, RELAXED_CFG, baselines, True)
        with open(copy / f"{name}.py", "a", encoding="utf-8") as f:
            f.write("\n")
        cache_module._fingerprint.cache_clear()
        assert cached_pass(paths, WINDOW, RELAXED_CFG, baselines, True) \
            is None, name
        store_pass(paths, WINDOW, RELAXED_CFG, baselines,
                   _made_pass(data_dir, baselines=baselines))
    cache_module._fingerprint.cache_clear()

    # the corpus bytes last: an edited citation count
    path = data_dir / "publications.csv"
    header, first, *rest = path.read_text(encoding="utf-8").splitlines(True)
    fields = first.split(",")
    fields[4] = str(int(fields[4]) + 1)
    path.write_text(header + ",".join(fields) + "".join(rest),
                    encoding="utf-8")
    assert cached_pass(paths, WINDOW, RELAXED_CFG, baselines, True) is None


def test_include_all_doctypes_flag_misses(cache, data_dir, tmp_path,
                                          monkeypatch, capsys):
    (tmp_path / "run.cfg").write_text(RUN_CFG, encoding="utf-8")
    argv = ["compare", str(data_dir), "--config", str(tmp_path / "run.cfg")]
    filtered = []
    monkeypatch.setattr(cli, "apply_filters", lambda *args: filtered.append(
        args[1]) or apply_filters(*args))
    for i, extra in enumerate([[], [], ["--baseline-include-all-doctypes"],
                               ["--baseline-include-all-doctypes"]]):
        assert _run(argv + extra + ["--out", str(tmp_path / f"o{i}")],
                    capsys)[0] == 0
    assert [cfg.baseline_include_all_doctypes for cfg in filtered] == \
        [False, True]


def test_damaged_pass_entry_is_a_miss_and_is_rewritten(cache, data_dir,
                                                      tmp_path, capsys,
                                                      monkeypatch):
    (tmp_path / "run.cfg").write_text(RUN_CFG, encoding="utf-8")

    def score(tag: str):
        result = _run(["score", str(data_dir), "--config",
                       str(tmp_path / "run.cfg"), "--level", "uda",
                       "--out", str(tmp_path / tag)], capsys)
        return result[0], result[1].replace(str(tmp_path / tag), "OUT"), \
            result[2], _outputs(tmp_path / tag)
    expected = score("first")
    (entry,) = _pass_entries(cache)
    good = entry.read_bytes()
    key, payload = marshal.loads(good)
    damages = [good[:len(good) // 2], b"", b"\x00garbage" * 50,
               marshal.dumps((b"another key", payload)),
               marshal.dumps((key, payload[:-1])),
               marshal.dumps((key, ("x",) * len(payload))), marshal.dumps([key])]
    for i, damaged in enumerate(damages):
        entry.write_bytes(damaged)
        filtered = []
        with monkeypatch.context() as patch:
            patch.setattr(cli, "apply_filters", lambda *args: filtered.append(
                1) or apply_filters(*args))
            assert score(f"again{i}") == expected
        assert filtered == [1], i           # a miss
        assert _pass_entries(cache) == [entry]
        assert marshal.loads(entry.read_bytes()) == marshal.loads(good)


def test_cap_counts_both_kinds_of_entry(cache, tmp_path, capsys):
    """A corpus entry and a pass entry per location, and CACHE_ENTRIES in
    all, the latest written."""
    (tmp_path / "run.cfg").write_text(RUN_CFG, encoding="utf-8")
    corpus = random_corpus(np.random.default_rng(4))
    written = []
    for i in range(CACHE_ENTRIES):
        before = set(cache.glob("*")) if cache.exists() else set()
        write_corpus_csvs(corpus, tmp_path / f"copy{i}")
        assert _run(["score", str(tmp_path / f"copy{i}"), "--config",
                     str(tmp_path / "run.cfg"), "--level", "sds",
                     "--out", str(tmp_path / f"out{i}")], capsys)[0] == 0
        new = sorted(set(cache.glob("*")) - before)
        assert [p.suffix for p in new] == [".marshal", ".pass"]
        for j, path in enumerate(new):
            os.utime(path, (1000 + 2 * i + j, 1000 + 2 * i + j))
            written.append(path)
        assert set(cache.glob("*")) == set(written[-CACHE_ENTRIES:])


def test_pass_is_keyed_by_the_bytes_it_was_made_from(cache, data_dir,
                                                     tmp_path, capsys,
                                                     monkeypatch):
    """A file edited between the pass lookup and the load is stored under
    the edited bytes' digest, so the original bytes never hit the pass
    made from the edited ones."""
    (tmp_path / "run.cfg").write_text(RUN_CFG, encoding="utf-8")
    path = data_dir / "publications.csv"
    original = path.read_bytes()
    header, first, *rest = original.decode().splitlines(True)
    fields = first.split(",")
    fields[4] = str(int(fields[4]) + 7)         # more citations
    edited = (header + ",".join(fields) + "".join(rest)).encode()

    def score(tag: str):
        code, out, err = _run(["score", str(data_dir), "--config",
                               str(tmp_path / "run.cfg"), "--level", "sds",
                               "--out", str(tmp_path / tag)], capsys)
        return code, err, _outputs(tmp_path / tag)

    def load_edited(*args):
        path.write_bytes(edited)
        return load_corpus(*args)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "load_corpus", load_edited)
        score("edited")
    path.write_bytes(original)
    again = score("again")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty_cache"))
    assert again == score("fresh")
    assert _outputs(tmp_path / "edited") != _outputs(tmp_path / "fresh")
