"""The on-disk cache behind the CLI: the professor pass that ``validate``,
``score`` and ``compare`` each look up or make and keep, named by the digest
of its key; ``load_corpus`` itself keeps nothing.

A hit must print, log and write what a miss does, without parsing the
corpus or running a stage of the professor pass; an unreadable, stale or
foreign entry must be a miss; and no state of the cache may change what a
command prints, logs, writes or returns.
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
import time
from pathlib import Path

import numpy as np
import pytest

from rankdiff import (LEVELS, FilterConfig, ProfessorPass, apply_filters,
                      compute_scaling_factors, load_corpus, professor_pass,
                      scoreboards, write_baselines, write_corpus_csvs)
from rankdiff import cache as cache_module
from rankdiff.baselines import parse_baselines
from rankdiff import cli, indicators
from rankdiff import corpus as corpus_module
from rankdiff.cli import main
from rankdiff.cache import CACHE_ENTRIES, cached_pass, store_pass
from rankdiff.corpus import CorpusPaths, read_files
from helpers import RELAXED_CFG, WINDOW, random_corpus

RUN_CFG = ("start_year=2008\nend_year=2012\nmin_professors_sds=1\n"
           "min_professors_uda=1\nmin_professors_overall=1\n"
           "min_units_to_rank=1\n")
# the default log level and debug, as RANKDIFF_LOG names them
LOG_LEVELS = ("warn", "debug")


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


def _digests(data_dir: Path) -> dict[str, str]:
    """The digests of the corpus files as they are now."""
    return read_files(data_dir).digests


def _entries(cache: Path) -> list[Path]:
    return sorted(cache.glob("*")) if cache.exists() else []


def _run(argv: list[str], capsys) -> tuple[int, str, str]:
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _run_at(level: str, argv: list[str], capsys, caplog
            ) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of an in-process run at RANKDIFF_LOG
    ``level``: stderr ends with the log lines the CLI's handler would write
    at that level, in its format."""
    caplog.clear()
    with caplog.at_level(cli.LOG_LEVELS[level]):
        code, out, err = _run(argv, capsys)
    return code, out, err + "".join(
        f"{r.levelname} {r.name}: {r.getMessage()}\n" for r in caplog.records)


def _validate(level: str, data_dir: Path, config: Path, capsys, caplog,
              monkeypatch, hit: bool = False) -> tuple[int, str, str]:
    """``validate`` at RANKDIFF_LOG ``level``; with ``hit``, parsing or
    checking the corpus fails the run."""
    with monkeypatch.context() as patch:
        if hit:
            _no_parsing(patch)
        return _run_at(level, ["validate", str(data_dir), "--config",
                               str(config)], capsys, caplog)


def _validate_levels(*args, hit: bool = False) -> dict[str, tuple]:
    """``_validate`` at each of LOG_LEVELS, in turn."""
    return {level: _validate(level, *args, hit=hit) for level in LOG_LEVELS}


def _count_loads(monkeypatch) -> list[str]:
    """The corpus directory of every load_corpus call of the CLI."""
    loads = []
    monkeypatch.setattr(cli, "load_corpus", lambda files, window: loads.append(
        str(files.paths.publications.parent)) or load_corpus(files, window))
    return loads


@pytest.fixture
def run_cfg(tmp_path):
    (tmp_path / "run.cfg").write_text(RUN_CFG, encoding="utf-8")
    return tmp_path / "run.cfg"


# ---------------------------------------------------------------------------
# load_corpus, and the pass that validate keeps

def test_load_corpus_keeps_no_entry(cache, data_dir, monkeypatch):
    """Every load reads and checks the five files again, and writes
    nothing to the cache."""
    read_csv, check = corpus_module.read_csv, corpus_module.Corpus.check
    calls = []
    monkeypatch.setattr(corpus_module, "read_csv", lambda path, *args, **kw:
                        calls.append(Path(path).name) or
                        read_csv(path, *args, **kw))
    monkeypatch.setattr(corpus_module.Corpus, "check", lambda *args:
                        calls.append("check") or check(*args))
    first = load_corpus(data_dir, WINDOW)
    second = load_corpus(data_dir, WINDOW)
    assert not cache.exists()
    once = [f"{name}.csv" for name in ("publications", "fields", "salaries",
                                       "professors", "authorships")]
    assert calls == 2 * [*once, "check"]
    assert second.pub_columns == first.pub_columns
    assert second.prof_columns == first.prof_columns


def test_file_digests_are_of_the_bytes_loaded(cache, data_dir, run_cfg,
                                              tmp_path, capsys):
    """``read_files`` hashes the bytes it read, which a miss parses, and the
    manifest records those digests by path, on a miss and on a hit."""
    paths = CorpusPaths.from_dir(data_dir)
    expected = {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in paths}
    assert read_files(data_dir).digests == expected
    for tag in ("miss", "hit"):
        out = tmp_path / tag
        assert _run(["score", str(data_dir), "--config", str(run_cfg),
                     "--level", "sds", "--out", str(out)], capsys)[0] == 0
        manifest = json.loads((out / "manifest" / "run_manifest.json")
                              .read_text(encoding="utf-8"))
        assert manifest["inputs"] == expected


def _outside_window(data_dir: Path) -> None:
    """A publication from 2001, before the window, which the loaded-corpus
    line counts."""
    with open(data_dir / "publications.csv", "a", encoding="utf-8") as f:
        f.write("W99001,2001,article,C_S0,3,1\n")


def test_validate_hit_prints_what_a_miss_prints(cache, data_dir, run_cfg,
                                                capsys, caplog, monkeypatch):
    """At each level, a pass hit prints VALID and the counts, and logs the
    loaded-corpus and filters lines, as the miss before it did, without
    parsing or checking the corpus."""
    _outside_window(data_dir)
    loads = _count_loads(monkeypatch)
    args = (data_dir, run_cfg, capsys, caplog, monkeypatch)
    missed = {}
    for level in LOG_LEVELS:
        shutil.rmtree(cache, ignore_errors=True)
        missed[level] = _validate(level, *args)
        assert len(_entries(cache)) == 1
        assert _validate(level, *args, hit=True) == missed[level]
    assert loads == 2 * [str(data_dir)]
    code, out, err = missed["warn"]
    assert (code, err) == (0, "")
    assert out.splitlines() == ["VALID", "  universities: 4",
                                "  professors: 22", "  publications: 61",
                                "  authorships: 74", "  sds: 3", "  uda: 2"]
    assert missed["debug"] == (0, out, (
        "INFO rankdiff.corpus: loaded corpus: {'universities': 4, "
        "'professors': 22, 'publications': 61, 'authorships': 74, "
        "'sds': 3, 'uda': 2} (1 publications outside window, kept until "
        "filtering)\n"
        "INFO rankdiff.corpus: filters: FilterReport("
        "professors_removed_tenure=0, publications_removed_doctype=0, "
        "publications_removed_window=1, authorships_removed=0)\n"))


@pytest.mark.parametrize("damage", [
    lambda data, key: data[:len(data) // 2],
    lambda data, key: b"",
    lambda data, key: b"\x00garbage" * 50,
    lambda data, key: marshal.dumps((b"another key", marshal.loads(data)[1])),
    lambda data, key: marshal.dumps((key, ["not", "columns"])),
    lambda data, key: marshal.dumps([key]),
], ids=["truncated", "empty", "garbage", "wrong_key", "wrong_columns",
        "wrong_shape"])
def test_damaged_entry_is_a_miss_and_is_rewritten(cache, data_dir, run_cfg,
                                                  damage, capsys, caplog,
                                                  monkeypatch):
    args = (data_dir, run_cfg, capsys, caplog, monkeypatch)
    expected = _validate_levels(*args)
    (entry,) = _entries(cache)
    good = entry.read_bytes()
    key = marshal.loads(good)[0]
    loads = _count_loads(monkeypatch)
    for level in LOG_LEVELS:
        entry.write_bytes(damage(good, key))
        assert _validate(level, *args) == expected[level]
        assert _entries(cache) == [entry]
        assert marshal.loads(entry.read_bytes()) == marshal.loads(good)
        assert _validate(level, *args, hit=True) == expected[level]
    assert len(loads) == 2                  # each damaged entry missed


def test_edited_byte_misses(cache, data_dir, run_cfg, capsys, caplog,
                            monkeypatch):
    """A corpus byte is in the key: an edit misses, and the verdict on the
    edited bytes is kept beside the original's."""
    args = (data_dir, run_cfg, capsys, caplog, monkeypatch)
    original = _validate_levels(*args)
    path = data_dir / "professors.csv"
    data = path.read_bytes()
    # one professor's tenure, 5 years, becomes 6: over the window's length
    assert data.count(b",5\n") > 1
    loads = _count_loads(monkeypatch)
    path.write_bytes(data.replace(b",5\n", b",6\n", 1))
    for level in LOG_LEVELS:
        code, out, err = _validate(level, *args)
        assert code == 1 and "exceeds window length 5" in out and err == ""
    shorter = data.replace(b",5\n", b",4\n", 1)
    path.write_bytes(shorter)
    assert _validate_levels(*args) == original     # the same counts
    assert len(loads) == 3 and len(_entries(cache)) == 2
    for contents in (shorter, data):
        path.write_bytes(contents)
        assert _validate_levels(*args, hit=True) == original


def test_changed_window_misses(cache, data_dir, tmp_path, run_cfg, capsys,
                               caplog, monkeypatch):
    """Each setting of the window is in the key."""
    args = (capsys, caplog, monkeypatch)
    original = _validate_levels(data_dir, run_cfg, *args)
    loads = _count_loads(monkeypatch)
    for i, text in enumerate([
            RUN_CFG + "citation_snapshot_label=other\n",
            RUN_CFG.replace("start_year=2008", "start_year=2007"),
            RUN_CFG.replace("end_year=2012", "end_year=2013")]):
        config = tmp_path / f"window{i}.cfg"
        config.write_text(text, encoding="utf-8")
        assert _validate_levels(data_dir, config, *args) == original, text
        assert len(loads) == i + 1 and len(_entries(cache)) == i + 2, text
        assert _validate_levels(data_dir, config, *args, hit=True) == \
            original, text
    # every professor has 5 years on staff, too many for a 2-year window
    narrow = tmp_path / "narrow.cfg"
    narrow.write_text(RUN_CFG.replace("start_year=2008", "start_year=2011"),
                      encoding="utf-8")
    for level in LOG_LEVELS:
        code, out, err = _validate(level, data_dir, narrow, *args)
        assert code == 1 and "exceeds window length 2" in out and err == ""


def test_invalid_corpus_fails_twice_and_leaves_no_entry(cache, data_dir,
                                                       run_cfg, capsys,
                                                       caplog, monkeypatch):
    path = data_dir / "authorships.csv"
    path.write_text(path.read_text(encoding="utf-8") + "W99999,P0001\n",
                    encoding="utf-8")
    args = (data_dir, run_cfg, capsys, caplog, monkeypatch)
    loads = _count_loads(monkeypatch)
    first = _validate_levels(*args)
    code, out, err = first["warn"]
    assert code == 1 and "unknown publication 'W99999'" in out and err == ""
    assert first["debug"] == first["warn"]
    assert _validate_levels(*args) == first
    assert len(loads) == 4
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
    assert len(_entries(cache)) == 1        # the pass validate made
    hit = commands("hit")
    blocked = tmp_path / "blocked"
    blocked.write_text("a file where the cache directory would be")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    unwritable = commands("unwritable")
    assert missed == hit == unwritable
    assert all(code == 0 for code, _, _ in missed[0])


def test_entries_stay_within_the_cap(cache, data_dir, tmp_path, capsys,
                                     caplog, monkeypatch):
    """Each validate with a new key adds its entry; past the cap, the one
    written longest ago goes, and only the entries kept still hit."""
    args = (capsys, caplog, monkeypatch)
    loads = _count_loads(monkeypatch)
    configs, written = [], []
    for i in range(CACHE_ENTRIES + 3):
        config = tmp_path / f"run{i}.cfg"
        config.write_text(RUN_CFG + f"citation_snapshot_label=run {i}\n",
                          encoding="utf-8")
        before = set(_entries(cache))
        expected = _validate_levels(data_dir, config, *args)
        (new,) = set(_entries(cache)) - before
        os.utime(new, (1000 + i, 1000 + i))     # distinct, increasing times
        configs.append(config)
        written.append(new)
        assert set(_entries(cache)) == set(written[-CACHE_ENTRIES:])
    assert len(loads) == CACHE_ENTRIES + 3
    for config in configs[3:]:
        assert _validate_levels(data_dir, config, *args, hit=True) == expected
    for config in configs[:3]:
        assert _validate_levels(data_dir, config, *args) == expected
    assert len(loads) == CACHE_ENTRIES + 6


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
# The professor pass: keyed by the corpus bytes, the window, the filters and
# the baseline table's source

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
    write_baselines({cell: stats for cell, stats in table.items()
                     if cell[0] != 2010}, path)
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


@pytest.mark.parametrize("level", LOG_LEVELS)
def test_mncs_only_pass_serves_compare(level, data_dir, run_cfg, tmp_path,
                                       capsys, caplog, monkeypatch):
    """Every pass holds FSS: a ``compare`` after ``score --indicator mncs``
    on the same settings reads the pass that score made, and prints, logs
    and writes what a ``compare`` on an empty cache does."""
    _add_unproductive_sds(data_dir)
    loads = _count_loads(monkeypatch)
    corpus = [str(data_dir), "--config", str(run_cfg), "--level", "sds"]
    runs = {}
    for tag, first in [("cold", []), ("after_mncs", ["score"])]:
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / f"xdg-{tag}"))
        if first:
            assert _run_at(level, ["score", *corpus, "--indicator", "mncs",
                                   "--out", str(tmp_path / "mncs")],
                           capsys, caplog)[0] == 0
        code, out, err = _run_at(level, ["compare", *corpus, "--out",
                                         str(tmp_path / tag)], capsys, caplog)
        runs[tag] = (code, out.replace(str(tmp_path / tag), "OUT"), err,
                     _outputs(tmp_path / tag))
    assert loads == 2 * [str(data_dir)]
    assert runs["after_mncs"] == runs["cold"]
    assert runs["cold"][0] == 0
    assert ("WARNING rankdiff.indicators: SDS S9 has no productive "
            "professor") in runs["cold"][2]


def test_validate_keeps_the_pass_score_and_compare_read(
        cache, data_dir, run_cfg, tmp_path, capsys, caplog, monkeypatch):
    """``validate`` keeps the pass of its config: a ``compare`` and a
    ``score`` after it load nothing, and print, log and write at debug what
    each does on an empty cache."""
    _add_unproductive_sds(data_dir)
    loads = _count_loads(monkeypatch)
    corpus = [str(data_dir), "--config", str(run_cfg)]
    commands = {"compare": ["compare", *corpus, "--level", "sds"],
                "score": ["score", *corpus, "--level", "uda",
                          "--export-baselines"]}

    def run(tag: str, name: str) -> tuple:
        out = tmp_path / tag / name
        argv = commands[name] + ["--out", str(out)]
        code, stdout, err = _run_at("debug", argv, capsys, caplog)
        return code, stdout.replace(str(out), "OUT"), err, _outputs(out)
    cold = {}
    for name in commands:
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / f"xdg-{name}"))
        cold[name] = run("cold", name)
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache.parent))
    assert _run_at("debug", ["validate", *corpus], capsys, caplog)[0] == 0
    warm = {name: run("warm", name) for name in commands}
    assert loads == 3 * [str(data_dir)]     # two cold commands and validate
    assert warm == cold
    assert [code for code, *_ in cold.values()] == [0, 0]
    assert len(_entries(cache)) == 1


def _pass_snapshot(pass_) -> list:
    """Every field of a professor pass, with its order and value types."""
    def typed(value):
        if isinstance(value, dict):
            return [(typed(k), typed(v)) for k, v in value.items()]
        if isinstance(value, (list, tuple)):
            return type(value), [typed(v) for v in value]
        return type(value), value
    return [typed(value) for value in pass_]


def _made_pass(data_dir: Path, window=WINDOW, cfg=RELAXED_CFG,
               baselines: bytes | None = None):
    loaded = load_corpus(data_dir, window)
    corpus = apply_filters(loaded, cfg)
    table = (compute_scaling_factors(corpus) if baselines is None else
             parse_baselines("pinned.csv", baselines))
    return professor_pass(corpus, table, corpus_counts=loaded.counts())


def test_cached_pass_equals_the_pass_made(cache, data_dir):
    made = _made_pass(data_dir)
    store_pass(_digests(data_dir), WINDOW, RELAXED_CFG, None, made)
    hit = cached_pass(_digests(data_dir), WINDOW, RELAXED_CFG, None)
    assert _pass_snapshot(hit) == _pass_snapshot(made)
    assert hit.cells == made.cells
    for level in LEVELS:
        assert scoreboards(hit, RELAXED_CFG, level) == \
            scoreboards(made, RELAXED_CFG, level)


def test_pass_marshals_as_it_is(data_dir):
    """Every field of a professor pass is of builtin types that marshal
    stores and loads back equal, so the pass is stored whole."""
    made = _made_pass(data_dir)
    stored = tuple(made)
    assert marshal.loads(marshal.dumps(stored)) == stored
    assert ProfessorPass(*marshal.loads(marshal.dumps(stored))) == made


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
    baselines = _pruned_baselines(data_dir, tmp_path / "b.csv").read_bytes()
    made = {pinned: _made_pass(data_dir, baselines=pinned)
            for pinned in (None, baselines)}
    for pinned, pass_ in made.items():
        store_pass(_digests(data_dir), WINDOW, RELAXED_CFG, pinned, pass_)
    # each table keeps its own entry
    assert _pass_snapshot(made[None]) != _pass_snapshot(made[baselines])
    for pinned, pass_ in made.items():
        assert _pass_snapshot(cached_pass(
            _digests(data_dir), WINDOW, RELAXED_CFG, pinned)) == _pass_snapshot(pass_)
    edited = bytes([baselines[0] ^ 1]) + baselines[1:]     # one bit
    assert cached_pass(_digests(data_dir), WINDOW, RELAXED_CFG, edited) is None

    for name, value in FILTER_CHANGES.items():
        assert getattr(RELAXED_CFG, name) != value
        cfg = RELAXED_CFG._replace(**{name: value})
        assert cached_pass(_digests(data_dir), WINDOW, cfg, baselines) is None, name
    for name, value in [("start_year", 2007), ("end_year", 2013),
                        ("citation_snapshot_label", "other")]:
        window = WINDOW._replace(**{name: value})
        assert cached_pass(_digests(data_dir), window, RELAXED_CFG, baselines) \
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
        assert cached_pass(_digests(data_dir), WINDOW, RELAXED_CFG, baselines)
        with open(copy / f"{name}.py", "a", encoding="utf-8") as f:
            f.write("\n")
        cache_module._fingerprint.cache_clear()
        assert cached_pass(_digests(data_dir), WINDOW, RELAXED_CFG, baselines) \
            is None, name
        store_pass(_digests(data_dir), WINDOW, RELAXED_CFG, baselines,
                   _made_pass(data_dir, baselines=baselines))
    cache_module._fingerprint.cache_clear()

    # the corpus bytes last: an edited citation count
    path = data_dir / "publications.csv"
    header, first, *rest = path.read_text(encoding="utf-8").splitlines(True)
    fields = first.split(",")
    fields[4] = str(int(fields[4]) + 1)
    path.write_text(header + ",".join(fields) + "".join(rest),
                    encoding="utf-8")
    assert cached_pass(_digests(data_dir), WINDOW, RELAXED_CFG, baselines) is None


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
    (entry,) = _entries(cache)
    good = entry.read_bytes()
    key, payload = marshal.loads(good)

    def replaced(name: str, value) -> bytes:
        damaged = list(payload)
        damaged[ProfessorPass._fields.index(name)] = value
        return marshal.dumps((key, tuple(damaged)))
    fields = ProfessorPass(*payload)
    pubs = [list(p) for p in fields.pubs]
    next(p for p in pubs if p)[-1] = len(fields.impacts)
    damages = [good[:len(good) // 2], b"", b"\x00garbage" * 50,
               marshal.dumps((b"another key", payload)),
               marshal.dumps((key, payload[:-1])),
               marshal.dumps((key, ("x",) * len(payload))), marshal.dumps([key]),
               replaced("universities", fields.universities[:-1]),
               replaced("pubs", pubs),
               # each field the CLI reads besides the columns
               replaced("filter_report", 5),
               replaced("filter_report", fields.filter_report[:-1]),
               replaced("filter_report", (0, 0, 0, "1")),
               replaced("corpus_counts", None),
               replaced("corpus_counts", {"professors": "22"}),
               replaced("corpus_counts", {22: 22}),
               replaced("baseline_population", "61"),
               replaced("fss_skipped", 0.0),
               replaced("unproductive", "S9"),
               replaced("unproductive", [9]),
               replaced("averages", {code: str(average) for code, average
                                     in fields.averages.items()}),
               replaced("averages", {1: 1.0}),
               replaced("sds_to_uda", {code: uda for code, uda
                                       in fields.sds_to_uda.items()
                                       if code != fields.sds[0]}),
               replaced("sds_to_uda", {code: 1 for code in fields.sds_to_uda}),
               replaced("cells", {**fields.cells, ("2008", "C"): (1.0, 1, 1)}),
               replaced("cells", {**fields.cells, (2008, "C", 1): (1.0, 1, 1)}),
               replaced("cells", {**fields.cells, "2008,C": (1.0, 1, 1)}),
               replaced("cells", {**fields.cells, (2008, "C"): (1, 1, 1)}),
               replaced("cells", {**fields.cells, (2008, "C"): (1.0, 1)}),
               replaced("cells", {**fields.cells, (2008, "C"): [1.0, 1, 1]})]
    assert fields.averages and fields.cells
    for i, damaged in enumerate(damages):
        entry.write_bytes(damaged)
        filtered = []
        with monkeypatch.context() as patch:
            patch.setattr(cli, "apply_filters", lambda *args: filtered.append(
                1) or apply_filters(*args))
            assert score(f"again{i}") == expected
        assert filtered == [1], i           # a miss
        assert _entries(cache) == [entry]
        assert marshal.loads(entry.read_bytes()) == marshal.loads(good)


def test_store_removes_passes_of_the_earlier_format(cache, data_dir,
                                                   run_cfg, tmp_path, capsys):
    """Earlier versions kept passes in .pass files: one score removes them,
    and no other file."""
    cache.mkdir(parents=True)
    (cache / "old.pass").write_bytes(b"a pass in the earlier format")
    (cache / "notes.txt").write_text("not an entry", encoding="utf-8")
    assert _run(["score", str(data_dir), "--config", str(run_cfg), "--level",
                 "sds", "--out", str(tmp_path / "out")], capsys)[0] == 0
    assert [p.name for p in _entries(cache) if p.suffix != ".marshal"] == \
        ["notes.txt"]
    assert len(_entries(cache)) == 2


def test_store_removes_stale_temporaries(cache, data_dir, run_cfg, tmp_path,
                                         capsys):
    """A writer killed between writing and renaming leaves its temporary
    file: a write removes one older than STALE_SECONDS, and keeps a fresh
    one, which a live writer may be about to rename."""
    cache.mkdir(parents=True)
    stale, fresh = cache / "a.marshal.1.tmp", cache / "b.marshal.2.tmp"
    for path in (stale, fresh):
        path.write_bytes(b"half an entry")
    old = time.time() - cache_module.STALE_SECONDS - 60
    os.utime(stale, (old, old))
    assert _run(["score", str(data_dir), "--config", str(run_cfg), "--level",
                 "sds", "--out", str(tmp_path / "out")], capsys)[0] == 0
    assert not stale.exists() and fresh.exists()
    assert len([p for p in _entries(cache) if p.suffix == ".marshal"]) == 1


def test_cap_counts_the_entries_of_every_command(cache, data_dir, tmp_path,
                                                 capsys):
    """Per window, the pass validate keeps, which a score with the same
    settings reads, and the pass of a compare with other settings, each a
    file named by its key's digest with the one suffix, and CACHE_ENTRIES
    in all, the latest written."""
    written = []
    for i in range(CACHE_ENTRIES):
        config = tmp_path / f"run{i}.cfg"
        config.write_text(RUN_CFG + f"citation_snapshot_label=run {i}\n",
                          encoding="utf-8")
        args = [str(data_dir), "--config", str(config)]
        for argv, adds in [
                (["validate", *args], 1),
                (["score", *args, "--level", "sds",
                  "--out", str(tmp_path / f"score{i}")], 0),
                (["compare", *args, "--baseline-include-all-doctypes",
                  "--out", str(tmp_path / f"compare{i}")], 1)]:
            before = set(_entries(cache))
            assert _run(argv, capsys)[0] == 0
            assert len(set(_entries(cache)) - before) == adds
            if not adds:
                continue
            (new,) = set(_entries(cache)) - before
            assert new.suffix == ".marshal" and len(new.stem) == 32
            int(new.stem, 16)
            os.utime(new, (1000 + len(written), 1000 + len(written)))
            written.append(new)
            assert set(_entries(cache)) == set(written[-CACHE_ENTRIES:])


def test_alternating_settings_each_hit(cache, data_dir, tmp_path, run_cfg,
                                       capsys, monkeypatch):
    """Computed baselines, a --baselines table and
    --baseline-include-all-doctypes each keep their own pass: a second
    round of the three runs no stage of the professor pass and gives what
    the first gave."""
    pinned = _pruned_baselines(data_dir, tmp_path / "pinned.csv")
    settings = {"computed": [], "pinned": ["--baselines", str(pinned)],
                "all_doctypes": ["--baseline-include-all-doctypes"]}
    rounds = []
    for i in range(2):
        with monkeypatch.context() as patch:
            if i:
                _refuse_scoring(patch)
            results = {}
            for name, extra in settings.items():
                out = tmp_path / f"round{i}" / name
                code, stdout, err = _run(
                    ["score", str(data_dir), "--config", str(run_cfg),
                     "--level", "uda", *extra, "--out", str(out)], capsys)
                results[name] = (code, stdout.replace(str(out), "OUT"), err,
                                 _outputs(out))
            rounds.append(results)
    assert rounds[1] == rounds[0]
    assert [code for code, *_ in rounds[0].values()] == [0, 0, 0]
    assert len(_entries(cache)) == 3


def test_same_bytes_at_two_paths_share_entries(cache, data_dir, tmp_path,
                                               run_cfg, capsys, caplog,
                                               monkeypatch):
    """Entries are named by content: a copy of the corpus elsewhere hits
    the pass of the original, and its manifest names the copy's files."""
    score = ["score", "--config", str(run_cfg), "--level", "sds"]
    args = (run_cfg, capsys, caplog, monkeypatch)
    original = _validate_levels(data_dir, *args)
    assert _run([*score, str(data_dir), "--out", str(tmp_path / "a")],
                capsys)[0] == 0
    copy = tmp_path / "elsewhere" / "corpus"
    shutil.copytree(data_dir, copy)
    assert _validate_levels(copy, *args, hit=True) == original
    with monkeypatch.context() as patch:
        _refuse_scoring(patch)
        assert _run([*score, str(copy), "--out", str(tmp_path / "b")],
                    capsys)[0] == 0
    assert len(_entries(cache)) == 1
    assert _outputs(tmp_path / "b").keys() == _outputs(tmp_path / "a").keys()
    manifest = json.loads((tmp_path / "b" / "manifest" / "run_manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["inputs"] == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in CorpusPaths.from_dir(copy)}


def test_pass_is_keyed_by_the_bytes_it_was_made_from(cache, data_dir,
                                                     tmp_path, capsys,
                                                     monkeypatch):
    """Each corpus file is read once per command: a file edited after the
    pass lookup read it changes nothing in that run, whose pass is made from
    the bytes read and stored under their digest. The edited bytes then
    miss, and the original bytes hit the pass made from them."""
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
        during = score("during")
    after_edit = score("after_edit")
    path.write_bytes(original)
    with monkeypatch.context() as patch:
        _refuse_scoring(patch)
        again = score("again")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty_cache"))
    assert during == again == score("fresh")
    assert after_edit[2] != during[2]
    assert len(_entries(cache)) == 2