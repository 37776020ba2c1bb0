from __future__ import annotations

import builtins
import csv
import errno
import gc
import hashlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from collections.abc import Callable
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankdiff import apply_filters, cli
from rankdiff.cli import main
from rankdiff.errors import MAX_VIOLATIONS
from rankdiff.synth import MAX_PUBS_PER_PROFESSOR
from rankdiff import round_half_away
from helpers import DATA_DIR, by_unit, load_ref, replay_compare

RUN_CFG = ("start_year=2008\nend_year=2012\n"
           "min_professors_sds=1\nmin_professors_uda=1\n"
           "min_professors_overall=1\nmin_units_to_rank=1\n")

SYNTH_CFG = {
    "seed": 13,
    "n_universities": 5,
    "sds": [{"sds": "SDS/01", "uda": "1"}, {"sds": "SDS/02", "uda": "1"},
            {"sds": "SDS/03", "uda": "2"}],
    "professors_per_sds": [2, 5],
    "pubs_per_professor": 5.0,
    "citation_dispersion": 1.0,
    "quantity_impact_corr": 0.4,
    "salaries": {"assistant": 45000, "associate": 60000, "full": 80000},
    "window": {"start_year": 2008, "end_year": 2012, "label": "synthetic"},
}

# the bundled tables with unit,fss_score,mncs_score columns
REF_SCORE_TABLES = ("field_chim08", "overall", "uda_chemistry")


@pytest.fixture
def synth_setup(tmp_path):
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps(SYNTH_CFG), encoding="utf-8")
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(RUN_CFG, encoding="utf-8")
    data_dir = tmp_path / "corpus"
    assert main(["synth", str(cfg_path), "--out", str(data_dir)]) == 0
    return tmp_path, data_dir, run_cfg


def test_synth_validate_score_compare_pipeline(synth_setup):
    tmp_path, data_dir, run_cfg = synth_setup
    assert main(["validate", str(data_dir), "--config", str(run_cfg)]) == 0

    score_out = tmp_path / "scores"
    assert main(["score", str(data_dir), "--config", str(run_cfg),
                 "--indicator", "both", "--level", "sds",
                 "--out", str(score_out), "--export-baselines"]) == 0
    boards = sorted((score_out / "scoreboards").glob("scoreboard_sds_*.csv"))
    assert boards
    with open(boards[0]) as f:
        rows = list(csv.DictReader(f))
    indicators = {(r["university_id"], r["indicator"]) for r in rows}
    units = {u for u, _ in indicators}
    assert all((u, "fss") in indicators and (u, "mncs") in indicators
               for u in units)
    assert (score_out / "summaries" / "baselines.csv").exists()
    manifest = json.loads(
        (score_out / "manifest" / "run_manifest.json").read_text())
    assert manifest["command"] == "score"
    assert manifest["inputs"]
    assert manifest["outputs"]

    cmp_out = tmp_path / "cmp"
    assert main(["compare", str(data_dir), "--config", str(run_cfg),
                 "--level", "uda", "--out", str(cmp_out)]) == 0
    assert (cmp_out / "summaries" / "shift_summary_uda.csv").exists()
    assert (cmp_out / "summaries" / "quartile_summary_uda.csv").exists()
    assert (cmp_out / "summaries" / "dispersion_uda.csv").exists()
    assert (cmp_out / "comparisons" / "report.md").exists()


def test_outputs_match_golden_digests(synth_setup, tmp_path, monkeypatch):
    """Every output byte of synth, score and compare on the fixture corpus,
    of score with the exported baselines pinned, and of compare --from-scores
    on the reference tables, pinned by sha256 (the manifest, which holds a
    timestamp, excepted). The commands run twice in one cache directory:
    first on an empty cache, then on the entries the first run left, where
    no command filters the corpus."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    _, data_dir, run_cfg = synth_setup
    corpus_args = [str(data_dir), "--config", str(run_cfg)]
    filtered = []       # the command of each apply_filters call
    monkeypatch.setattr(cli, "apply_filters", lambda *args: filtered.append(
        command) or apply_filters(*args))

    def run(root: Path) -> dict[str, str]:
        nonlocal command
        command = "score"
        assert main(["score", *corpus_args, "--level", "sds",
                     "--export-baselines", "--out", str(root / "score")]) == 0
        command = "compare"
        for level in ("sds", "uda", "overall"):
            assert main(["compare", *corpus_args, "--level", level,
                         "--out", str(root / f"cmp_{level}")]) == 0
        command = "score"
        assert main(["score", *corpus_args, "--level", "overall",
                     "--baselines",
                     str(root / "score" / "summaries" / "baselines.csv"),
                     "--out", str(root / "score_pinned")]) == 0
        for ref in REF_SCORE_TABLES:
            assert main(["compare", "--from-scores",
                         str(DATA_DIR / f"ref_{ref}.csv"),
                         "--out", str(root / f"replay_{ref}")]) == 0
        got = {}
        for name in ("corpus", "score", "cmp_sds", "cmp_uda", "cmp_overall",
                     "score_pinned",
                     *(f"replay_{ref}" for ref in REF_SCORE_TABLES)):
            base = data_dir.parent if name == "corpus" else root
            for path in (base / name).rglob("*"):
                if path.is_file() and path.name != "run_manifest.json":
                    got[path.relative_to(base).as_posix()] = \
                        hashlib.sha256(path.read_bytes()).hexdigest()
        return got

    command = None
    golden = (DATA_DIR / "golden_outputs.sha256").read_text(encoding="utf-8")
    golden = {rel: digest for digest, rel in
              (line.split("  ") for line in golden.splitlines())}
    assert run(tmp_path / "cold") == golden
    assert filtered == ["score", "score"]
    filtered.clear()
    assert run(tmp_path / "warm") == golden
    assert filtered == []


def test_score_matches_hand_computed_fixture(tmp_path):
    # 1 SDS, 3 universities with 2 professors each; every value derivable
    # by hand: baseline mean 5.0 over cited {8,4,2,6,5}, salary 2, t 4
    from rankdiff import (Authorship, Corpus, FieldScheme, ObservationWindow,
                          Professor, Publication, write_corpus_csvs)
    profs = {p: Professor(p, p[0].upper(), "S", "r", 4.0)
             for p in ("a1", "a2", "b1", "b2", "c1", "c2")}
    pubs = {
        "wA1": Publication("wA1", 2008, "article", ("C",), 8, 2),
        "wA2": Publication("wA2", 2008, "article", ("C",), 0, 1),
        "wB1": Publication("wB1", 2008, "article", ("C",), 4, 2),
        "wB2": Publication("wB2", 2008, "article", ("C",), 2, 2),
        "wC1": Publication("wC1", 2008, "article", ("C",), 6, 3),
        "wN": Publication("wN", 2008, "article", ("C",), 5, 1),
    }
    auths = [Authorship("wA1", "a1"), Authorship("wA2", "a2"),
             Authorship("wB1", "b1"), Authorship("wB2", "b2"),
             Authorship("wC1", "c1"), Authorship("wC1", "c2")]
    corpus = Corpus.from_records(ObservationWindow(2008, 2012), pubs, auths,
                                 profs, FieldScheme({"S": "U"}), {"r": 2.0})
    data_dir = tmp_path / "hand"
    write_corpus_csvs(corpus, data_dir)
    run_cfg = tmp_path / "hand.cfg"
    run_cfg.write_text("start_year=2008\nend_year=2012\n"
                       "min_units_to_rank=1\n", encoding="utf-8")
    out = tmp_path / "hand_out"
    assert main(["score", str(data_dir), "--config", str(run_cfg),
                 "--indicator", "both", "--level", "sds",
                 "--out", str(out)]) == 0
    with open(out / "scoreboards" / "scoreboard_sds_S.csv") as f:
        rows = {(r["university_id"], r["indicator"]): r
                for r in csv.DictReader(f)}
    assert len(rows) == 6
    expected_fss = {"A": (0.1 / 0.055) / 2, "B": (0.05 + 0.025) / 0.055 / 2,
                    "C": 0.05 / 0.055}
    expected_mncs = {"A": 0.8 / 1.5, "B": 0.6, "C": 1.2}
    for univ, value in expected_fss.items():
        assert float(rows[(univ, "fss")]["score"]) == pytest.approx(
            value, rel=1e-12)
        assert rows[(univ, "fss")]["research_staff_or_weight"] == "2"
    for univ, value in expected_mncs.items():
        assert float(rows[(univ, "mncs")]["score"]) == pytest.approx(
            value, rel=1e-12)


def test_compare_skips_single_unit_scopes(tmp_path):
    # one SDS has a lone eligible university: excluded from analytics
    from rankdiff import (Authorship, Corpus, FieldScheme, ObservationWindow,
                          Professor, Publication, write_corpus_csvs)
    profs = {
        "p1": Professor("p1", "A", "S1", "r", 4.0),
        "p2": Professor("p2", "B", "S1", "r", 4.0),
        "p3": Professor("p3", "A", "S2", "r", 4.0),
    }
    pubs = {f"w{i}": Publication(f"w{i}", 2008, "article", ("C",), i + 1, 1)
            for i in range(3)}
    auths = [Authorship("w0", "p1"), Authorship("w1", "p2"),
             Authorship("w2", "p3")]
    corpus = Corpus.from_records(ObservationWindow(2008, 2012), pubs, auths,
                                 profs, FieldScheme({"S1": "U1", "S2": "U1"}),
                                 {"r": 1.0})
    data_dir = tmp_path / "corpus"
    write_corpus_csvs(corpus, data_dir)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("start_year=2008\nend_year=2012\nmin_professors_sds=1\n"
                   "min_units_to_rank=1\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["compare", str(data_dir), "--config", str(cfg),
                 "--level", "sds", "--out", str(out)]) == 0
    produced = {p.name for p in (out / "comparisons").glob("*.csv")}
    assert produced == {"comparison_sds_S1.csv"}
    manifest = json.loads((out / "manifest" / "run_manifest.json").read_text())
    assert any("single unit" in w for w in manifest["warnings"])


def test_score_single_indicator(synth_setup):
    tmp_path, data_dir, run_cfg = synth_setup
    out = tmp_path / "fss_only"
    assert main(["score", str(data_dir), "--config", str(run_cfg),
                 "--indicator", "fss", "--level", "overall",
                 "--out", str(out)]) == 0
    with open(out / "scoreboards" / "scoreboard_overall_overall.csv") as f:
        rows = list(csv.DictReader(f))
    assert rows
    assert {r["indicator"] for r in rows} == {"fss"}


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_collector_and_freezes_nothing(synth_setup, enabled):
    # the collector is paused while a command runs and left as it was found,
    # whatever the exit code; no object is moved to the permanent generation
    tmp_path, data_dir, run_cfg = synth_setup
    empty = tmp_path / "empty"
    empty.mkdir()
    runs = [(["compare", str(data_dir), "--config", str(run_cfg),
              "--level", "overall", "--out", str(tmp_path / f"cmp{i}")], 0)
            for i in range(3)]
    runs += [(["score", str(empty), "--config", str(run_cfg), "--level", "sds",
               "--out", str(tmp_path / "bad")], 1),
             (["score", str(data_dir), "--level", "sds",
               "--out", str(tmp_path / "no_config")], 2)]
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in runs:
            assert main(argv) == code
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert gc.get_freeze_count() == frozen


def test_validate_empty_directory_fails(tmp_path):
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text("start_year=2008\nend_year=2012\n", encoding="utf-8")
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["validate", str(empty), "--config", str(run_cfg)]) == 1


def test_compare_sds_level_emits_range_summary(synth_setup):
    tmp_path, data_dir, run_cfg = synth_setup
    out = tmp_path / "cmp_sds"
    assert main(["compare", str(data_dir), "--config", str(run_cfg),
                 "--level", "sds", "--out", str(out)]) == 0
    with open(out / "summaries" / "range_summary_sds.csv") as f:
        rows = list(csv.DictReader(f))
    assert {r["uda"] for r in rows} == {"1", "2"}


def test_validate_reports_violations(synth_setup, capsys):
    tmp_path, data_dir, run_cfg = synth_setup
    with open(data_dir / "authorships.csv", "a", encoding="utf-8") as f:
        f.write("PUB_000001,GHOST\n")
    assert main(["validate", str(data_dir), "--config", str(run_cfg)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out
    assert "GHOST" in out


def test_output_dir_overwrite_requires_force(synth_setup):
    tmp_path, data_dir, run_cfg = synth_setup
    out = tmp_path / "scores"
    args = ["score", str(data_dir), "--config", str(run_cfg),
            "--level", "overall", "--out", str(out)]
    assert main(args) == 0
    assert main(args) == 2
    assert main(args + ["--force"]) == 0


def test_output_directory_holds_only_what_the_command_wrote(synth_setup):
    """Each command makes the layout subdirectories it writes into, and no
    other: a synth corpus directory holds its five CSVs and the manifest."""
    tmp_path, data_dir, run_cfg = synth_setup
    corpus = [str(data_dir), "--config", str(run_cfg)]
    for argv, made in [
            (["score", *corpus, "--level", "overall"],
             {"scoreboards", "manifest"}),
            (["score", *corpus, "--level", "sds", "--export-baselines"],
             {"scoreboards", "summaries", "manifest"}),
            (["compare", *corpus, "--level", "uda"],
             {"comparisons", "summaries", "manifest"})]:
        out = tmp_path / f"out-{len(made)}-{argv[0]}"
        assert main([*argv, "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == made
    assert {p.name for p in data_dir.iterdir()} == {
        "publications.csv", "authorships.csv", "professors.csv",
        "fields.csv", "salaries.csv", "manifest"}


def test_rerun_after_a_failed_run_needs_no_force(synth_setup, capsys):
    """A run that fails makes no output directory: a bad --baselines table
    fails before it is made, a statistic that overflows before the first
    write, --export-baselines included. A run that fails after --force
    removed a previous run's outputs leaves the directory empty. Either way
    the corrected rerun needs no --force; a file in any subdirectory still
    needs it."""
    tmp_path, data_dir, run_cfg = synth_setup
    bad = tmp_path / "bad_baselines.csv"
    bad.write_text("year,category,mean,cited_count,total_count\n"
                   "2008,C,abc,1,1\n", encoding="utf-8")
    big = tmp_path / "big.csv"
    big.write_text("unit,fss_score,mncs_score\nU0,1.2e308,0\nU1,1.3e308,1\n",
                   encoding="utf-8")
    score = ["score", str(data_dir), "--config", str(run_cfg), "--level",
             "overall"]
    replay = ["compare", "--from-scores", str(DATA_DIR / "ref_overall.csv")]
    # every baseline mean 1e-305: unit MNCS scores near 1e307, whose
    # correlation overflows
    assert main([*score, "--export-baselines",
                 "--out", str(tmp_path / "exported")]) == 0
    header, *rows = (tmp_path / "exported" / "summaries" / "baselines.csv"
                     ).read_text(encoding="utf-8").splitlines()
    tiny = tmp_path / "tiny_baselines.csv"
    tiny.write_text("\n".join([header, *(
        ",".join([year, cat, "1e-305", cited, total])
        for year, cat, _, cited, total in (row.split(",") for row in rows))])
        + "\n", encoding="utf-8")
    compare = ["compare", str(data_dir), "--config", str(run_cfg), "--level",
               "sds", "--export-baselines"]
    for out, before, failing, fixed, code in [
            ("score", None, [*score, "--baselines", str(bad)], score, 2),
            ("statistic", None, [*compare, "--baselines", str(tiny)], compare,
             1),
            ("replay", None, ["compare", "--from-scores", str(big)], replay,
             1),
            ("forced", replay, ["compare", "--from-scores", str(big),
                                "--force"], replay, 1)]:
        out = tmp_path / out
        if before:
            assert main(before + ["--out", str(out)]) == 0
        assert main(failing + ["--out", str(out)]) == code
        if before:
            assert list(out.iterdir()) == []
        else:
            assert not out.exists()
        capsys.readouterr()
        assert main(fixed + ["--out", str(out)]) == 0
        assert "not empty" not in capsys.readouterr().err
    (tmp_path / "filled" / "summaries").mkdir(parents=True)
    (tmp_path / "filled" / "summaries" / "notes.txt").write_text("kept")
    assert main([*score, "--out", str(tmp_path / "filled")]) == 2
    assert "is not empty; use --force" in capsys.readouterr().err
    # empty layout subdirectories, as a failed run of an older version left
    for sub in cli.OutputDir.LAYOUT:
        (tmp_path / "layout" / sub).mkdir(parents=True)
    assert main([*score, "--out", str(tmp_path / "layout")]) == 2
    assert main([*score, "--out", str(tmp_path / "layout"), "--force"]) == 0


def test_manifest_records_the_argv_main_parsed(tmp_path, monkeypatch):
    """The manifest's argv is the command's own: the list main was given,
    whatever the host process's command line, else ``sys.argv[1:]``."""
    argv = ["compare", "--from-scores", str(DATA_DIR / "ref_overall.csv")]
    monkeypatch.setattr(sys, "argv", ["host", "--host-flag"])
    assert main([*argv, "--out", str(tmp_path / "given")]) == 0
    monkeypatch.setattr(sys, "argv", ["rankdiff", *argv, "--out",
                                      str(tmp_path / "read")])
    assert main() == 0
    for out in ("given", "read"):
        assert _manifest(tmp_path / out)["argv"] == \
            [*argv, "--out", str(tmp_path / out)]


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file()}


def _manifest(out: Path) -> dict:
    return json.loads((out / "manifest" / "run_manifest.json")
                      .read_text(encoding="utf-8"))


def test_force_removes_the_outputs_its_manifest_lists(synth_setup):
    """--force first removes the files the previous manifest lists, each
    inside the directory, and that manifest; any other file stays, and
    without a readable manifest, every file does."""
    tmp_path, data_dir, run_cfg = synth_setup
    out = tmp_path / "scores"
    args = ["score", str(data_dir), "--config", str(run_cfg),
            "--out", str(out)]
    assert main(args + ["--level", "sds", "--export-baselines"]) == 0
    assert len(_files(out / "scoreboards")) > 1
    assert main(args + ["--level", "overall", "--force"]) == 0
    listed = {*_manifest(out)["outputs"], "manifest/run_manifest.json"}
    assert _files(out) == listed
    assert len(_files(out / "scoreboards")) == 1

    outside = tmp_path / "outside.csv"
    outside.write_text("not an output of this directory", encoding="utf-8")
    (out / "notes.txt").write_text("not listed", encoding="utf-8")
    manifest = _manifest(out)
    manifest["outputs"] += ["../outside.csv", str(outside), "missing.csv"]
    (out / "manifest" / "run_manifest.json").write_text(
        json.dumps(manifest), encoding="utf-8")
    assert main(args + ["--level", "uda", "--force"]) == 0
    assert outside.exists()
    assert _files(out) == {*_manifest(out)["outputs"], "notes.txt",
                           "manifest/run_manifest.json"}

    (out / "manifest" / "run_manifest.json").write_text("{", encoding="utf-8")
    before = _files(out)
    assert main(args + ["--level", "overall", "--force"]) == 0
    assert _files(out) == before | set(_manifest(out)["outputs"])


def test_missing_config_is_config_error(synth_setup):
    tmp_path, data_dir, _ = synth_setup
    assert main(["score", str(data_dir), "--level", "sds",
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["score", str(data_dir), "--config", str(tmp_path / "none.cfg"),
                 "--level", "sds", "--out", str(tmp_path / "y")]) == 2


def test_bad_synth_config_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": 1}), encoding="utf-8")
    assert main(["synth", str(bad), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("key, value", [
    ("pubs_per_professor", float("nan")),
    ("citation_dispersion", float("nan")),
    ("salaries", {"assistant": float("nan")}),
], ids=["pubs_per_professor", "citation_dispersion", "salary"])
def test_synth_non_finite_number_is_config_error(tmp_path, capsys, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SYNTH_CFG, key: value}), encoding="utf-8")
    assert "NaN" in bad.read_text(encoding="utf-8")
    assert main(["synth", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("override, message", [
    ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    ({"salaries": [1, 2]}, "salaries must be an object of rank: salary"),
    ({"seed": 1.7}, "seed must be a non-negative integer, got 1.7"),
    ({"seed": True}, "seed must be a non-negative integer, got True"),
    ({"n_universities": 2.9}, "n_universities must be an integer >= 1"),
    ({"professors_per_sds": "13"}, "professors_per_sds must be two integers"),
    ({"professors_per_sds": [2, 5.5]},
     "professors_per_sds must be two integers"),
    ({"window": {"start_year": True, "end_year": 2012}},
     "window start_year must be an integer, got True"),
    ({"window": {"start_year": 2008, "end_year": 2012.0}},
     "window end_year must be an integer, got 2012.0"),
    ({"sds": [{"sds": "", "uda": "1"}]}, "SDS code '' must be non-empty"),
    ({"sds": [{"sds": " A ", "uda": "1"}]}, "SDS code ' A ' must be"),
    ({"sds": [{"sds": "A|B", "uda": "1"}]}, "must not contain '|'"),
    ({"sds": [{"sds": None, "uda": "1"}]}, "SDS code None must be a string"),
    ({"sds": [{"sds": "A", "uda": 1}]}, "UDA code 1 must be a string"),
    ({"pubs_per_professor": True},
     "pubs_per_professor must be a number, got True"),
    ({"pubs_per_professor": "5"},
     "pubs_per_professor must be a number, got '5'"),
    ({"salaries": {"assistant": "45000"}},
     "salary for rank 'assistant' must be a number, got '45000'"),
    ({"window": {"start_year": 2008, "end_year": "2012"}},
     "window end_year must be an integer, got '2012'"),
    ({"sds": ["A"]}, "sds entries must be objects with sds and uda, got 'A'"),
    ({"pubs_per_professor": 10**400},
     "pubs_per_professor: int too large to convert to float"),
    ({"window": {"start_year": 2008, "end_year": 2012, "label": 5}},
     "window label must be a string, got 5"),
    ({"sds": 5}, "sds must be a list, got 5"),
    ({"window": 5}, "window must be an object, got 5"),
    ({"sds": [{"sds": "A", "uda": "U/1"}, {"sds": "B", "uda": "U_1"}]},
     "UDA codes 'U/1' and 'U_1' share the output name 'U_1'"),
    ({"salaries": {"assistant": 5e-324}},
     "salary for rank 'assistant' times a tenure of 1 to 5 years must be "
     "finite and > 0, and so must its reciprocal"),
    ({"salaries": {"full": 1e308}},
     "salary for rank 'full' times a tenure of 1 to 5 years must be"),
    ({"sds": [{"sds": "A\nB", "uda": "1"}]},
     "SDS code 'A\\nB' must be non-empty and have no surrounding spaces or "
     "control characters"),
    ({"sds": [{"sds": "A", "uda": "U\x85"}]},
     "UDA code 'U\\x85' must be non-empty and have no surrounding spaces or "
     "control characters"),
    ({"sds": [{"sds": "S" * 234, "uda": "1"}]},
     f"SDS code '{'S' * 234}' must be at most 233 bytes in UTF-8, to fit in "
     f"an output file name"),
    ({"sds": [{"sds": "A", "uda": "é" * 117}]},
     f"UDA code '{'é' * 117}' must be at most 233 bytes in UTF-8, to fit in "
     f"an output file name"),
    ({"sds": [{"sds": "A\ud800", "uda": "1"}]},
     "SDS code 'A\\ud800' must be encodable in UTF-8"),
], ids=["negative_seed", "salaries_list", "float_seed", "bool_seed",
        "float_n_universities", "string_professors_per_sds",
        "float_professors_per_sds", "bool_start_year", "float_end_year",
        "empty_sds", "padded_sds", "pipe_sds", "null_sds", "number_uda",
        "bool_pubs_per_professor", "string_pubs_per_professor",
        "string_salary", "string_end_year", "string_sds_entry",
        "400_digit_pubs_per_professor", "number_label", "number_sds",
        "number_window", "shared_uda_output_name", "tiny_salary",
        "huge_salary", "control_sds", "control_uda", "long_sds",
        "long_two_byte_uda", "surrogate_sds"])
def test_synth_bad_setting_is_located_config_error(tmp_path, capsys, override,
                                                   message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SYNTH_CFG, **override}), encoding="utf-8")
    assert main(["synth", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: " in err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    # a Latin-1 byte in the window label
    (json.dumps(SYNTH_CFG).encode().replace(b'"synthetic"', b'"caf\xe9"'),
     ":1: not valid UTF-8 (byte 0xe9)"),
    (json.dumps(SYNTH_CFG).replace('"seed": 13', '"seed": ' + "9" * 5000)
     .encode(), "invalid JSON"),
    (json.dumps({**SYNTH_CFG, "citation_dispersion": 10**400}).encode(),
     "int too large to convert to float"),
    (b"[1, 2]", "must be a JSON object, got [1, 2]"),
], ids=["not_utf8", "5000_digit_seed", "huge_integer", "json_array"])
def test_synth_unreadable_config_is_config_error(tmp_path, capsys, text,
                                                 message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    assert main(["synth", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [1e20, MAX_PUBS_PER_PROFESSOR + 1],
                         ids=["1e20", "bound_plus_one"])
def test_synth_huge_pubs_per_professor_is_config_error(tmp_path, capsys, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SYNTH_CFG, "pubs_per_professor": value}),
                   encoding="utf-8")
    assert main(["synth", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert (f"pubs_per_professor must be finite, >= 0 and "
            f"<= {MAX_PUBS_PER_PROFESSOR:g}") in capsys.readouterr().err


def test_baselines_import_reproduces_scores(synth_setup):
    tmp_path, data_dir, run_cfg = synth_setup
    first = tmp_path / "first"
    assert main(["score", str(data_dir), "--config", str(run_cfg),
                 "--level", "overall", "--out", str(first),
                 "--export-baselines"]) == 0
    second = tmp_path / "second"
    assert main(["score", str(data_dir), "--config", str(run_cfg),
                 "--level", "overall", "--out", str(second),
                 "--baselines", str(first / "summaries" / "baselines.csv")]) == 0
    a = (first / "scoreboards" / "scoreboard_overall_overall.csv").read_bytes()
    b = (second / "scoreboards" / "scoreboard_overall_overall.csv").read_bytes()
    assert a == b
    table = first / "summaries" / "baselines.csv"
    manifest = json.loads(
        (second / "manifest" / "run_manifest.json").read_text())
    assert manifest["inputs"][str(table)] == \
        hashlib.sha256(table.read_bytes()).hexdigest()
    assert len(manifest["inputs"]) == 6     # the five corpus files and the table


def test_scoreboards_independent_of_csv_row_order(synth_setup):
    tmp_path, data_dir, run_cfg = synth_setup
    shuffled = tmp_path / "shuffled"
    shuffled.mkdir()
    rng = random.Random(4)
    for src in sorted(data_dir.glob("*.csv")):
        header, *rows = src.read_text(encoding="utf-8").splitlines(keepends=True)
        rng.shuffle(rows)
        (shuffled / src.name).write_text(header + "".join(rows),
                                         encoding="utf-8")
    for level in ("sds", "uda", "overall"):
        outs = [tmp_path / f"{level}_{d.name}" for d in (data_dir, shuffled)]
        for d, out in zip((data_dir, shuffled), outs):
            assert main(["score", str(d), "--config", str(run_cfg),
                         "--indicator", "both", "--level", level,
                         "--out", str(out)]) == 0
        names = sorted(p.name for p in (outs[0] / "scoreboards").glob("*.csv"))
        assert names
        assert names == sorted(
            p.name for p in (outs[1] / "scoreboards").glob("*.csv"))
        for name in names:
            assert (outs[0] / "scoreboards" / name).read_bytes() == \
                (outs[1] / "scoreboards" / name).read_bytes(), name


def test_validate_rejects_non_finite_numbers(synth_setup, capsys):
    tmp_path, data_dir, run_cfg = synth_setup
    path = data_dir / "professors.csv"
    header, first, *rest = path.read_text(encoding="utf-8").splitlines(True)
    first = first.rsplit(",", 1)[0] + ",nan\n"
    path.write_text(header + first + "".join(rest), encoding="utf-8")
    assert main(["validate", str(data_dir), "--config", str(run_cfg)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out
    assert "professors.csv:2 [years_on_staff]" in out


def test_validate_locates_undecodable_byte(synth_setup, capsys):
    tmp_path, data_dir, run_cfg = synth_setup
    path = data_dir / "professors.csv"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[3] = lines[3].replace(b",", b"\xff,", 1)
    path.write_bytes(b"".join(lines))
    assert main(["validate", str(data_dir), "--config", str(run_cfg)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out
    assert "professors.csv:4 " in out


def test_validate_locates_oversized_field(synth_setup, capsys):
    # a field over the csv module's 131,072-character limit
    tmp_path, data_dir, run_cfg = synth_setup
    path = data_dir / "publications.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[2].split(",")
    fields[2] = "x" * 200_000                       # doc_type
    lines[2] = ",".join(fields)
    path.write_text("".join(lines), encoding="utf-8")
    assert main(["validate", str(data_dir), "--config", str(run_cfg)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out
    assert "publications.csv:3 [-]: field larger than field limit" in out


@pytest.mark.parametrize("module", ["scipy.stats", "numpy"])
def test_cli_import_skips_module(module):
    root = Path(__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, "-c",
         f"import rankdiff.cli, sys; assert {module!r} not in sys.modules"],
        cwd=root, env={**os.environ, "PYTHONPATH": "src"}, check=True)


def test_cli_import_is_lean():
    # -S keeps the environment's site hooks, and what they import, out
    root = Path(__file__).resolve().parents[1]
    heavy = ["dataclasses", "inspect", "statistics", "fractions", "numpy",
             "scipy"]
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import rankdiff.cli, sys; "
         f"print([m for m in {heavy!r} if m in sys.modules])"],
        cwd=root, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
    # the library caches nothing: only the CLI imports the cache
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import rankdiff, sys; print('rankdiff.cache' in sys.modules)"],
        cwd=root, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_analysis_commands_skip_numpy(synth_setup):
    # the corpus was written by the fixture, so no synth runs in the child
    tmp_path, data_dir, run_cfg = synth_setup
    root = Path(__file__).resolve().parents[1]
    corpus_args = [str(data_dir), "--config", str(run_cfg)]
    commands = [
        ["validate", *corpus_args],
        ["score", *corpus_args, "--indicator", "both", "--level", "sds",
         "--out", str(tmp_path / "score")],
        ["compare", *corpus_args, "--level", "sds",
         "--out", str(tmp_path / "compare")],
        ["compare", "--from-scores",
         str(root / "tests" / "data" / "ref_overall.csv"),
         "--out", str(tmp_path / "replay")],
    ]
    code = ("import json, sys\n"
            "from rankdiff.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "assert 'numpy' not in sys.modules\n")
    subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        cwd=root, env={**os.environ, "PYTHONPATH": "src"}, check=True)


def test_synth_skips_scipy_stats(tmp_path):
    root = Path(__file__).resolve().parents[1]
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps(SYNTH_CFG), encoding="utf-8")
    code = ("import sys\n"
            "from rankdiff.cli import main\n"
            "assert main(['synth', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "assert 'scipy.stats' not in sys.modules\n")
    subprocess.run(
        [sys.executable, "-c", code, str(cfg_path), str(tmp_path / "out")],
        cwd=root, env={**os.environ, "PYTHONPATH": "src"}, check=True)


def test_synth_config_read_as_utf8_under_any_locale(tmp_path):
    """A config that is UTF-8, read under a locale that is not, gives the
    same corpus and a manifest holding the config as written."""
    root = Path(__file__).resolve().parents[1]
    config = {**SYNTH_CFG, "window": {**SYNTH_CFG["window"],
                                      "label": "citazioni \u00e8"}}
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_bytes(json.dumps(config, ensure_ascii=False).encode())
    proc = subprocess.run(
        [sys.executable, "-m", "rankdiff", "synth", str(cfg_path),
         "--out", str(tmp_path / "out")],
        cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src", "PYTHONUTF8": "0",
             "LC_ALL": "C"})
    assert (proc.returncode, proc.stderr) == (0, "")
    manifest = json.loads((tmp_path / "out" / "manifest" /
                           "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"] == config
    assert manifest["inputs"] == {
        str(cfg_path): hashlib.sha256(cfg_path.read_bytes()).hexdigest()}


CELL_CHECK = "must contain >= 1 cited publication and a finite positive mean"


@pytest.mark.parametrize("text, line, problem", [
    ("year,cat,mean,cited_count,total_count\n2008,C,2.0,1,1\n", 1,
     "header: expected columns"),
    ("year,category,mean,cited_count,total_count\n2008,C,nan,1,1\n", 2,
     "mean: not a finite number: 'nan'"),
    ("year,category,mean,cited_count,total_count\n2008,C,2.0,1,1\n"
     "2008, C ,3.0,1,1\n", 3, "duplicate key '2008', 'C'"),
    ("year,category,mean,cited_count,total_count\n2008, ,2.0,1,1\n", 2,
     "category: empty"),
    # fewer publications in a cell than cited ones
    ("year,category,mean,cited_count,total_count\n2008,C,2.0,16,-7\n", 2,
     "cell (2008, 'C') must have total_count >= cited_count"),
    ("year,category,mean,cited_count,total_count\n2008,C,2.0,1,1\n"
     "2009,C,3.0,26,0\n", 3,
     "cell (2009, 'C') must have total_count >= cited_count"),
    ("year,category,mean,cited_count,total_count\n2008,C,2.0,3,2\n", 2,
     "cell (2008, 'C') must have total_count >= cited_count"),
    # no cited publication, or a mean that is not positive
    ("year,category,mean,cited_count,total_count\n2008,C,0.0,1,1\n", 2,
     f"cell (2008, 'C') {CELL_CHECK}"),
    ("year,category,mean,cited_count,total_count\n2008,C,2.0,1,1\n"
     "2009,C,-2.0,1,1\n", 3, f"cell (2009, 'C') {CELL_CHECK}"),
    ("year,category,mean,cited_count,total_count\n2008,C,2.0,0,3\n", 2,
     f"cell (2008, 'C') {CELL_CHECK}"),
    ("year,category,mean,cited_count,total_count\n2008,C,0.0,0,3\n", 2,
     f"cell (2008, 'C') {CELL_CHECK}"),
])
def test_baselines_import_rejects_bad_file(synth_setup, capsys, text, line,
                                           problem):
    tmp_path, data_dir, run_cfg = synth_setup
    bad = tmp_path / "bad_baselines.csv"
    bad.write_text(text, encoding="utf-8")
    assert main(["score", str(data_dir), "--config", str(run_cfg),
                 "--level", "overall", "--out", str(tmp_path / "out"),
                 "--baselines", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad baselines: {bad}:{line}: ")
    assert problem in err


@pytest.mark.parametrize("command", ["score", "compare"])
@pytest.mark.parametrize("table, problem", [
    (None, ": file not found"),
    ("year,category,mean,cited_count,total_count\n2008,C,0.0,1,1\n",
     f":2: cell (2008, 'C') {CELL_CHECK}"),
], ids=["missing", "bad_cell"])
def test_baselines_are_checked_before_the_corpus(synth_setup, capsys,
                                                 monkeypatch, command, table,
                                                 problem):
    """A missing or bad --baselines table is a configuration error found
    with the settings, before any corpus file is opened: exit 2 and no
    output directory, also when the corpus is invalid too."""
    tmp_path, data_dir, run_cfg = synth_setup
    with open(data_dir / "authorships.csv", "a", encoding="utf-8") as f:
        f.write("W99999,P0001\n")          # an unknown publication
    assert main(["validate", str(data_dir), "--config", str(run_cfg)]) == 1
    table_path = tmp_path / "baselines.csv"
    if table is not None:
        table_path.write_text(table, encoding="utf-8")
    out = tmp_path / "out"
    argv = [command, str(data_dir), "--config", str(run_cfg), "--level",
            "sds", "--baselines", str(table_path), "--out", str(out)]
    capsys.readouterr()
    expected = (2, ("", f"error: bad baselines: {table_path}{problem}\n"))
    assert (main(argv), capsys.readouterr()) == expected
    assert not out.exists()

    def refuse(*args):
        raise AssertionError("a corpus file was opened")
    monkeypatch.setattr(cli, "read_files", refuse)
    assert (main(argv), capsys.readouterr()) == expected
    assert not out.exists()


CORPUS_FILES = ("publications.csv", "authorships.csv", "professors.csv",
                "fields.csv", "salaries.csv")
INPUTS = (*CORPUS_FILES, "baselines", "scores", "run_config", "synth_config")
DAMAGES = ("missing", "directory", "bad_byte")


def _input_and_command(tmp_path: Path, data_dir: Path, run_cfg: Path,
                       name: str) -> tuple[Path, list[str]]:
    """The path of input ``name``, as a valid file, and the argv of a
    command that reads it."""
    score = ["score", str(data_dir), "--config", str(run_cfg), "--level",
             "sds", "--out", str(tmp_path / "out")]
    if name in CORPUS_FILES:
        corpus = tmp_path / "copy"
        shutil.copytree(data_dir, corpus)
        score[1] = str(corpus)
        return corpus / name, score
    if name == "run_config":
        return run_cfg, score
    if name == "baselines":
        path = tmp_path / "baselines.csv"
        path.write_text("year,category,mean,cited_count,total_count\n"
                        "2008,C,2.0,1,1\n2009,C,2.0,1,1\n", encoding="utf-8")
        return path, [*score, "--baselines", str(path)]
    if name == "scores":
        path = tmp_path / "scores.csv"
        path.write_text("unit,fss_score,mncs_score\nA,1,2\nB,2,1\n",
                        encoding="utf-8")
        return path, ["compare", "--from-scores", str(path),
                      "--out", str(tmp_path / "out")]
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(SYNTH_CFG, indent=1), encoding="utf-8")
    return path, ["synth", str(path), "--out", str(tmp_path / "out")]


def _damage(path: Path, damage: str) -> None:
    """Remove ``path``, make it a directory, or put byte 0xff at the start
    of its line 3."""
    if damage == "bad_byte":
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b"\xff" + lines[2]
        path.write_bytes(b"".join(lines))
        return
    path.unlink()
    if damage == "directory":
        path.mkdir()


def _input_error(name: str, damage: str, path: Path) -> tuple[int, str]:
    """The exit code and stderr of a command whose input ``name`` at
    ``path`` has ``damage``."""
    if damage == "directory":
        problem = str(IsADirectoryError(errno.EISDIR,
                                        os.strerror(errno.EISDIR), str(path)))
    elif name in CORPUS_FILES:
        where = path.name + ":3" if damage == "bad_byte" else str(path)
        problem = (f"{where} [-]: "
                   + ("not valid UTF-8 (byte 0xff)" if damage == "bad_byte"
                      else "file not found"))
        return 1, f"INVALID: 1 corpus violation(s): {problem}\n"
    elif damage == "bad_byte":
        problem = f"{path}:3: not valid UTF-8 (byte 0xff)"
    else:
        problem = f"{path}: file not found"
    prefix = {"baselines": "bad baselines: ", "run_config": "bad config: "}
    if damage != "directory" or name == "run_config":
        problem = prefix.get(name, "") + problem
    return 2, f"error: {problem}\n"


@pytest.fixture
def opens(monkeypatch) -> Counter:
    """Count every open of a file, by its absolute path."""
    counts: Counter = Counter()
    real = io.open

    def counting(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            counts[os.path.abspath(file)] += 1
        return real(file, *args, **kwargs)
    monkeypatch.setattr(io, "open", counting)
    monkeypatch.setattr(builtins, "open", counting)
    return counts


@pytest.mark.parametrize("damage", DAMAGES)
@pytest.mark.parametrize("name", INPUTS)
def test_input_error_matrix(synth_setup, capsys, opens, name, damage):
    """Each input file, missing, a directory or holding a byte that is not
    UTF-8, ends the command with exit 1 or 2 and one message naming it, and
    the line of a bad byte, with no traceback; it is opened once."""
    tmp_path, data_dir, run_cfg = synth_setup
    path, argv = _input_and_command(tmp_path, data_dir, run_cfg, name)
    _damage(path, damage)
    capsys.readouterr()
    opens.clear()
    code, err = _input_error(name, damage, path)
    assert (main(argv), capsys.readouterr()) == (code, ("", err))
    assert str(path if name not in CORPUS_FILES or damage != "bad_byte"
               else path.name + ":3") in err
    assert "Traceback" not in err
    assert opens[str(path)] == 1


def test_each_input_is_opened_once_per_command(synth_setup, opens):
    """Every command, from an empty or a warm cache, opens each of its
    input files once: to hash it and, on a miss, to parse it."""
    tmp_path, data_dir, run_cfg = synth_setup
    corpus = [str(data_dir), "--config", str(run_cfg)]
    export = tmp_path / "export"
    assert main(["score", *corpus, "--level", "sds", "--export-baselines",
                 "--out", str(export)]) == 0
    baselines = export / "summaries" / "baselines.csv"
    scores = tmp_path / "scores.csv"
    scores.write_text("unit,fss_score,mncs_score\nA,1,2\nB,2,1\nC,3,3\n",
                      encoding="utf-8")
    corpus_inputs = [data_dir / name for name in CORPUS_FILES] + [run_cfg]
    all_cfg = tmp_path / "all.cfg"
    all_cfg.write_text(RUN_CFG + "baseline_include_all_doctypes = true\n",
                       encoding="utf-8")
    commands = [
        (["validate", *corpus], corpus_inputs),
        (["score", *corpus, "--level", "uda", "--baselines", str(baselines)],
         corpus_inputs + [baselines]),
        (["compare", str(data_dir), "--config", str(all_cfg), "--level", "sds"],
         corpus_inputs[:-1] + [all_cfg]),
        (["compare", "--from-scores", str(scores)], [scores]),
        (["synth", str(tmp_path / "synth.json")], [tmp_path / "synth.json"]),
    ]
    for run, (argv, inputs) in enumerate(commands * 2):
        if argv[0] != "validate":
            argv = [*argv, "--out", str(tmp_path / f"out{run}")]
        opens.clear()
        assert main(argv) == 0
        assert {str(p): opens[str(p)] for p in inputs} == \
            {str(p): 1 for p in inputs}


@pytest.mark.parametrize("command", ["validate", "compare"])
@pytest.mark.parametrize("renames, problem", [
    ({"fields.csv": ("SDS/02,", "SDS_01,"),
      "professors.csv": (",SDS/02,", ",SDS_01,")},
     "fields.csv:3 [sds_code]: 'SDS_01' and 'SDS/01' of fields.csv:2 share "
     "the output name 'SDS_01'"),
    ({"fields.csv": (",1,", ",U/1,", ",2,", ",U_1,")},
     "fields.csv:4 [uda_code]: 'U_1' and 'U/1' of fields.csv:2 share the "
     "output name 'U_1'"),
    ({"fields.csv": ("SDS/03,2,", "SDS/03,,")},
     "fields.csv:4 [uda_code]: '' must be non-empty and have no surrounding "
     "spaces or control characters"),
    # a quoted newline: the row ends on line 4
    ({"fields.csv": ("\nSDS/02,", '\n"SDS\n02",'),
      "professors.csv": (",SDS/02,", ',"SDS\n02",')},
     "fields.csv:4 [sds_code]: 'SDS\\n02' must be non-empty and have no "
     "surrounding spaces or control characters"),
    ({"fields.csv": ("\nSDS/02,", "\n" + "S" * 234 + ","),
      "professors.csv": (",SDS/02,", "," + "S" * 234 + ",")},
     f"fields.csv:3 [sds_code]: '{'S' * 39}... must be at most 233 bytes in "
     f"UTF-8, to fit in an output file name"),
    ({"fields.csv": (",2,", "," + "é" * 117 + ",")},
     f"fields.csv:4 [uda_code]: '{'é' * 39}... must be at most 233 bytes in "
     f"UTF-8, to fit in an output file name"),
], ids=["sds", "uda", "empty_uda", "control_sds", "long_sds",
        "long_two_byte_uda"])
def test_codes_sharing_an_output_name_are_rejected(synth_setup, capsys,
                                                   command, renames, problem):
    """Two SDS or two UDA codes whose output files would have the same
    name, '/' written as '_', fail the load at the second one's line; so
    does a code that breaks the scope-name rule, at its own line."""
    tmp_path, data_dir, run_cfg = synth_setup
    for name, pairs in renames.items():
        text = (data_dir / name).read_text(encoding="utf-8")
        for old, new in zip(pairs[::2], pairs[1::2]):
            assert old in text
            text = text.replace(old, new)
        (data_dir / name).write_text(text, encoding="utf-8")
    capsys.readouterr()
    argv = [command, str(data_dir), "--config", str(run_cfg)]
    if command == "compare":
        argv += ["--level", "sds", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        (f"INVALID: 1 violation(s)\n  {problem}\n", "")
        if command == "validate" else
        ("", f"INVALID: 1 corpus violation(s): {problem}\n"))


def _tiny_salary(tmp_path: Path, data_dir: Path) -> list[str]:
    """A copy of the corpus whose assistants earn 1e-308, which passes
    validation and overflows the sum of the FSS_P of SDS/01."""
    tiny = tmp_path / "tiny-salary"
    shutil.copytree(data_dir, tiny)
    salaries = tiny / "salaries.csv"
    text = salaries.read_text(encoding="utf-8")
    assert "\nassistant,45000\n" in text
    salaries.write_text(text.replace("\nassistant,45000\n",
                                     "\nassistant,1e-308\n"),
                        encoding="utf-8")
    return [str(tiny)]


def _tiny_means(tmp_path: Path, data_dir: Path) -> list[str]:
    """The corpus with its exported baseline table, every mean set to
    1e-310, which passes the table check and overflows every impact."""
    run_cfg = tmp_path / "run.cfg"
    export = tmp_path / "export"
    assert main(["score", str(data_dir), "--config", str(run_cfg), "--level",
                 "sds", "--export-baselines", "--out", str(export)]) == 0
    header, *rows = (export / "summaries" / "baselines.csv").read_text(
        encoding="utf-8").splitlines(keepends=True)
    tiny = tmp_path / "tiny-means.csv"
    tiny.write_text(header + "".join(
        ",".join(row.split(",")[:2] + ["1e-310"] + row.split(",")[3:])
        for row in rows), encoding="utf-8")
    return [str(data_dir), "--baselines", str(tiny)]


@pytest.mark.parametrize("command", [
    ["score", "--level", "uda", "--export-baselines"],
    ["compare", "--level", "sds", "--export-baselines"]],
    ids=["score", "compare"])
@pytest.mark.parametrize("inputs, problem", [
    (_tiny_salary, "SDS SDS/01: fss average is inf"),
    (_tiny_means, "SDS [^:]+: fss average is inf")],
    ids=["salary", "means"])
def test_non_finite_unit_score_fails_before_any_output(synth_setup, capsys,
                                                       command, inputs,
                                                       problem):
    """An SDS average of FSS that overflowed ends the run with exit 1,
    naming it, before any output file is written; it would otherwise make
    the SDS's finite FSS scores 0."""
    tmp_path, data_dir, run_cfg = synth_setup
    corpus = inputs(tmp_path, data_dir)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command[0], *corpus, "--config", str(run_cfg), *command[1:],
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(
        rf"error: {re.escape(corpus[0])}: {problem}; the scores are too large "
        rf"for float arithmetic\n", err), err
    assert not [p for p in out.rglob("*") if p.is_file()]


def test_non_finite_mncs_unit_score_fails_before_any_output(synth_setup,
                                                            capsys):
    tmp_path, data_dir, run_cfg = synth_setup
    corpus = _tiny_means(tmp_path, data_dir)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["score", *corpus, "--config", str(run_cfg), "--level", "uda",
                 "--indicator", "mncs", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(
        rf"error: {re.escape(corpus[0])}: scope [^:]+: unit [^:]+: mncs score "
        rf"is (nan|inf); the scores are too large for float arithmetic\n",
        err), err
    assert not [p for p in out.rglob("*") if p.is_file()]


def _pad_csv(src: Path, dst: Path) -> None:
    """Copy a CSV file with spaces around every cell."""
    with open(src, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    with open(dst, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows([f"  {cell} " for cell in row] for row in rows)


def test_padded_cells_change_no_output(synth_setup):
    """Spaces around the cells of every input CSV (corpus files, a
    --baselines table, a --from-scores table) change no output byte."""
    tmp_path, data_dir, run_cfg = synth_setup

    def run(tag: str, corpus: Path, baselines: Path, scores: Path) -> None:
        args = [str(corpus), "--config", str(run_cfg)]
        assert main(["score", *args, "--level", "sds", "--export-baselines",
                     "--out", str(tmp_path / tag / "score")]) == 0
        assert main(["compare", *args, "--level", "uda",
                     "--out", str(tmp_path / tag / "compare")]) == 0
        assert main(["score", *args, "--level", "overall", "--baselines",
                     str(baselines), "--out", str(tmp_path / tag / "pinned")]) == 0
        assert main(["compare", "--from-scores", str(scores),
                     "--out", str(tmp_path / tag / "replay")]) == 0

    exported = tmp_path / "plain" / "score" / "summaries" / "baselines.csv"
    run("plain", data_dir, exported, DATA_DIR / "ref_overall.csv")
    padded = tmp_path / "padded_inputs"
    padded.mkdir()
    for path in [*data_dir.glob("*.csv"), exported, DATA_DIR / "ref_overall.csv"]:
        _pad_csv(path, padded / path.name)
    run("padded", padded, padded / "baselines.csv", padded / "ref_overall.csv")
    outputs = sorted(p.relative_to(tmp_path / "plain")
                     for p in (tmp_path / "plain").rglob("*.csv"))
    assert outputs == sorted(p.relative_to(tmp_path / "padded")
                             for p in (tmp_path / "padded").rglob("*.csv"))
    for rel in outputs:
        assert (tmp_path / "plain" / rel).read_bytes() == \
            (tmp_path / "padded" / rel).read_bytes(), rel
    pinned = tmp_path / "plain" / "pinned" / "scoreboards"
    assert len((pinned / "scoreboard_overall_overall.csv").read_text(
        encoding="utf-8").splitlines()) > 1


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    cfg_path = root / "synth.json"
    cfg_path.write_text(json.dumps(SYNTH_CFG), encoding="utf-8")
    run_cfg = root / "run.cfg"
    run_cfg.write_text(RUN_CFG, encoding="utf-8")
    assert main(["synth", str(cfg_path), "--out", str(root / "corpus")]) == 0
    return root / "corpus", run_cfg


FUZZ_CELLS = st.one_of(
    st.sampled_from(["", " ", "nan", "-inf", "1e400", "9" * 5000, "-" + "1" * 17,
                     "0x10", "1_000", "2.5"]),
    st.text(st.characters(codec="utf-8"), max_size=20),
    st.text(st.characters(codec="utf-8"), min_size=200, max_size=3000))


def _outputs(root: Path, argv: list[str]) -> dict[str, bytes]:
    """Every file under ``root``; the manifest without its timestamp, and
    without its argv once that is checked to be ``argv``, the command's
    own."""
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "run_manifest.json":
                manifest = json.loads(data)
                manifest.pop("timestamp")
                assert manifest.pop("argv") == argv
                data = json.dumps(manifest, sort_keys=True).encode()
            files[str(path.relative_to(root))] = data
    return files


def _fuzzed_runs(fuzz_corpus, edits: dict[str, Callable[[list], None]]):
    """Validate and compare a copy of the fuzz corpus whose files named in
    ``edits`` each have their rows, header first, changed by their edit;
    each command twice, first on an empty cache, then on the cache the
    first run left.

    Returns, per command, the exit code, stdout, stderr and outputs of
    both runs."""
    data_dir, run_cfg = fuzz_corpus
    runs: dict[str, list[tuple]] = {"validate": [], "compare": []}
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(Path(tmp) / "cache"))
        corpus = Path(tmp) / "corpus"
        shutil.copytree(data_dir, corpus)
        for name, edit in edits.items():
            with open(corpus / name, newline="", encoding="utf-8") as f:
                rows = list(csv.reader(f))
            edit(rows)
            with open(corpus / name, "w", newline="",
                      encoding="utf-8") as f:
                csv.writer(f).writerows(rows)
        args = [str(corpus), "--config", str(run_cfg)]
        out_dir = Path(tmp) / "out"
        for command, argv in [
                ("validate", ["validate", *args]),
                ("validate", ["validate", *args]),
                ("compare", ["compare", *args, "--level", "overall",
                             "--out", str(out_dir)]),
                ("compare", ["compare", *args, "--level", "overall",
                             "--out", str(out_dir), "--force"])]:
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            runs[command].append((code, out.getvalue(), err.getvalue(),
                                  _outputs(out_dir, argv) if out_dir.exists()
                                  else {}))
    return runs


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(CORPUS_FILES), row=st.integers(0, 10**6),
       column=st.integers(0, 9), cell=FUZZ_CELLS)
def test_fuzzed_cell_gives_located_result(fuzz_corpus, name, row, column,
                                          cell):
    """One cell of the corpus replaced by drawn text: validate and compare
    end in exit 0, 1 or 2 with no traceback, and validate lists at most
    MAX_VIOLATIONS violations, each on a line under 200 characters. A second
    validate, which may read the corpus cache, gives the same result."""
    def edit(rows: list) -> None:
        fields = rows[row % len(rows)]
        fields[column % len(fields)] = cell
    runs = _fuzzed_runs(fuzz_corpus, {name: edit})
    (validated, listed, _, _), again = runs["validate"]
    compared = runs["compare"][0][0]
    assert again[:2] == (validated, listed)
    assert validated in (0, 1) and compared in (0, 1, 2)
    assert not any("Traceback" in out + err for command in runs.values()
                   for _, out, err, _ in command)
    if validated == 1:
        violations = listed.splitlines()[1:]
        assert 0 < len(violations) <= MAX_VIOLATIONS
        assert all(len(line) < 200 for line in violations)


# a violation of a loaded corpus names its file and line
LOCATED = re.compile(r"  (publications|authorships|professors|fields|"
                     r"salaries)\.csv:\d+ \[[^\]]+\]: \S")
FUZZ_ROWS = st.lists(FUZZ_CELLS, max_size=8)


@st.composite
def row_edits(draw) -> Callable[[list], None]:
    """An edit of a file's rows: one row replaced by drawn cells, by a copy
    of another row, or removed, or a drawn row added."""
    kind = draw(st.sampled_from(["replace", "copy", "remove", "add"]))
    row, other = draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6))
    cells = draw(FUZZ_ROWS)

    def edit(rows: list) -> None:
        i = row % len(rows)
        if kind == "replace":
            rows[i] = cells
        elif kind == "copy":
            rows[i] = list(rows[other % len(rows)])
        elif kind == "remove":
            del rows[i]
        else:
            rows.insert(i, cells)
    return edit


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.dictionaries(st.sampled_from(CORPUS_FILES), row_edits(),
                             min_size=1, max_size=2))
def test_fuzzed_rows_in_two_files_give_located_results(fuzz_corpus, edits):
    """Whole rows of one or two corpus files replaced, copied, removed or
    added: validate and compare either succeed or end in exit 1 or 2 with
    no traceback and a located message; every violation validate lists
    names its file and line. Each command gives the same result, outputs
    included, on the empty cache and on the warm cache it leaves."""
    runs = _fuzzed_runs(fuzz_corpus, edits)
    for command, (cold, warm) in runs.items():
        assert cold == warm, command
        code, out, err, _ = cold
        assert code in (0, 1, 2) and "Traceback" not in out + err, command
    (validated, listed, _, _), _ = runs["validate"]
    (compared, _, compare_err, _), _ = runs["compare"]
    if validated == 1:
        violations = listed.splitlines()[1:]
        assert 0 < len(violations) <= MAX_VIOLATIONS
        assert all(LOCATED.match(line) and len(line) < 200
                   for line in violations), violations
        assert compared == 1
        assert compare_err.startswith("INVALID: ")
        assert LOCATED.match("  " + compare_err.split("violation(s): ")[1])
    else:
        assert validated == 0 and compared in (0, 1)
        assert compared == 0 or compare_err.startswith("error: ")


def test_end_to_end_determinism(synth_setup):
    tmp_path, data_dir, run_cfg = synth_setup
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    for out in (out_a, out_b):
        assert main(["compare", str(data_dir), "--config", str(run_cfg),
                     "--level", "sds", "--out", str(out)]) == 0
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*.csv"))
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*.csv"))
    assert files_a == files_b
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
    # manifests differ only in the timestamp field
    ma = json.loads((out_a / "manifest" / "run_manifest.json").read_text())
    mb = json.loads((out_b / "manifest" / "run_manifest.json").read_text())
    ma.pop("timestamp"), mb.pop("timestamp")
    ma.pop("argv"), mb.pop("argv")               # paths differ by design
    assert {k: v for k, v in ma.items() if k != "inputs"} == \
        {k: v for k, v in mb.items() if k != "inputs"}


# ---------------------------------------------------------------------------
# Replay mode

def test_from_scores_replay_matches_in_library_composition(tmp_path):
    rows = load_ref("ref_field_chim08.csv")
    scores_csv = tmp_path / "scores.csv"
    with open(scores_csv, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["unit", "fss_score", "mncs_score"])
        for r in rows:
            w.writerow([r["unit"], r["fss_score"], r["mncs_score"]])
    out = tmp_path / "replay"
    assert main(["compare", "--from-scores", str(scores_csv),
                 "--label", "CHIM_08", "--out", str(out)]) == 0

    expected = by_unit(replay_compare(rows))
    with open(out / "comparisons" / "comparison_replay_CHIM_08.csv") as f:
        got = list(csv.DictReader(f))
    assert len(got) == len(expected)
    for row in got:
        e = expected[row["university"]]
        assert int(row["fss_rank"]) == e.fss_rank
        assert int(row["mncs_rank"]) == e.mncs_rank
        assert int(row["rank_shift"]) == e.rank_shift
        assert float(row["fss_pct"]) == round_half_away(e.fss_pct)
        assert float(row["pct_shift"]) == round_half_away(e.pct_shift)
        assert int(row["q_fss"]) == e.quartile_fss
    with open(out / "summaries" / "shift_summary_replay.csv") as f:
        (summary,) = list(csv.DictReader(f))
    assert summary["scope"] == "CHIM_08"
    assert float(summary["pearson"]) == pytest.approx(0.864, abs=0.01)


def test_overall_level_below_threshold_warns_and_stays_empty(synth_setup):
    # default config requires 30 professors overall; synthetic universities
    # are smaller, so the board set is empty but the run still succeeds
    tmp_path, data_dir, _ = synth_setup
    strict_cfg = tmp_path / "strict.cfg"
    strict_cfg.write_text("start_year=2008\nend_year=2012\n", encoding="utf-8")
    out = tmp_path / "strict_out"
    assert main(["score", str(data_dir), "--config", str(strict_cfg),
                 "--level", "overall", "--out", str(out)]) == 0
    assert not list((out / "scoreboards").glob("*.csv"))
    manifest = json.loads((out / "manifest" / "run_manifest.json").read_text())
    assert any("no eligible units" in w for w in manifest["warnings"])


def test_baseline_include_all_doctypes_key_runs(synth_setup):
    tmp_path, data_dir, _ = synth_setup
    all_cfg = tmp_path / "all.cfg"
    all_cfg.write_text(RUN_CFG + "baseline_include_all_doctypes = true\n",
                       encoding="utf-8")
    out = tmp_path / "alldoc"
    assert main(["score", str(data_dir), "--config", str(all_cfg),
                 "--level", "uda", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest" / "run_manifest.json").read_text())
    assert manifest["config"]["filters"]["baseline_include_all_doctypes"] is True


def test_non_finite_config_setting_is_config_error(synth_setup, capsys):
    tmp_path, data_dir, run_cfg = synth_setup
    bad_cfg = tmp_path / "nan.cfg"
    bad_cfg.write_text(RUN_CFG + "min_years_on_staff = nan\n", encoding="utf-8")
    assert main(["compare", str(data_dir), "--config", str(bad_cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"error: bad config: {bad_cfg}:7: min_years_on_staff: " \
        in capsys.readouterr().err


def test_replay_tables_are_named_by_label(tmp_path):
    """Every summary of a replay, dispersion included, and its report.md
    sections name the scope by its --label."""
    scores = tmp_path / "scores.csv"
    scores.write_text("unit,fss_score,mncs_score\nA,1,2\nB,2,3\nC,4,1\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    assert main(["compare", "--from-scores", str(scores), "--label", "CHIM_08",
                 "--out", str(out)]) == 0
    for name in ("shift_summary", "quartile_summary", "dispersion"):
        text = (out / "summaries" / f"{name}_replay.csv").read_text(
            encoding="utf-8")
        assert {row["scope"] for row in csv.DictReader(text.splitlines())} \
            == {"CHIM_08"}, name
    md = (out / "comparisons" / "report.md").read_text(encoding="utf-8")
    dispersion = md.split("## Score dispersion\n")[1].strip().splitlines()
    assert [line.split(" | ")[:2] for line in dispersion[2:]] == \
        [["| CHIM_08", "FSS"], ["| CHIM_08", "MNCS"]]


@pytest.mark.parametrize("label, rule", [
    *((label, "must be non-empty and have no surrounding spaces or control "
              "characters") for label in ["", " x", "a\nb", "a\x7fb", "a\x9f"]),
    *((label, "must be at most 233 bytes in UTF-8, to fit in an output file "
              "name") for label in ["x" * 234, "é" * 117]),
    # the byte 0xff in argv, which Python decodes to a lone surrogate
    (b"a\xffb".decode(errors="surrogateescape"), "must be encodable in UTF-8")],
    ids=["empty", "padded", "newline", "del", "c1", "long", "long_two_byte",
         "not_utf8"])
def test_replay_label_breaking_the_scope_name_rule_is_rejected(
        tmp_path, capsys, label, rule):
    scores = tmp_path / "scores.csv"
    scores.write_text("unit,fss_score,mncs_score\nA,1,2\nB,2,3\n",
                      encoding="utf-8")
    assert main(["compare", "--from-scores", str(scores), "--label", label,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: --label: {label!r} {rule}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("label", ["x" * 233, "é" * 116 + "x"],
                         ids=["ascii", "two_byte"])
def test_replay_label_of_233_bytes_names_its_file(tmp_path, label):
    """The longest label fits its comparison file name, 255 bytes."""
    out = tmp_path / "out"
    assert main(["compare", "--from-scores", str(DATA_DIR / "ref_overall.csv"),
                 "--label", label, "--out", str(out)]) == 0
    name = f"comparison_replay_{label}.csv"
    assert len(name.encode()) == 255
    assert (out / "comparisons" / name).is_file()


def test_from_scores_two_units_omits_correlations(tmp_path):
    scores = tmp_path / "two.csv"
    scores.write_text("unit,fss_score,mncs_score\nA,2,1\nB,1,2\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    assert main(["compare", "--from-scores", str(scores),
                 "--out", str(out)]) == 0
    with open(out / "summaries" / "shift_summary_replay.csv") as f:
        (row,) = list(csv.DictReader(f))
    assert row["pearson"] == "" and row["spearman"] == ""
    manifest = json.loads((out / "manifest" / "run_manifest.json").read_text())
    assert any("correlations omitted" in w for w in manifest["warnings"])


def test_report_escapes_pipe_in_cells(tmp_path):
    """A '|' in a unit or a label is escaped: every row of every report.md
    table has as many cells as its header."""
    scores = tmp_path / "pipe.csv"
    scores.write_text("unit,fss_score,mncs_score\nA|B,2,1\nC,1,3\nD,3,2\n"
                      "E,4,5\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["compare", "--from-scores", str(scores), "--label", "x|y",
                 "--out", str(out)]) == 0
    lines = (out / "comparisons" / "report.md").read_text(
        encoding="utf-8").splitlines()
    tables = 0
    for prev, line in zip([""] + lines, lines):
        if not line.startswith("|"):
            continue
        cells = len(re.split(r"(?<!\\)\|", line))
        if not prev.startswith("|"):
            header, tables = cells, tables + 1
        assert cells == header, line
    assert tables == 4
    assert "| A\\|B |" in "\n".join(lines)


def test_from_scores_zero_mean_omits_only_that_dispersion(tmp_path):
    scores = tmp_path / "zero.csv"
    scores.write_text("unit,fss_score,mncs_score\nA,0,1\nB,0,2\nC,0,3\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    assert main(["compare", "--from-scores", str(scores), "--label", "Z",
                 "--out", str(out)]) == 0
    with open(out / "summaries" / "dispersion_replay.csv") as f:
        assert [r["indicator"] for r in csv.DictReader(f)] == ["mncs"]
    assert (out / "comparisons" / "report.md").exists()
    manifest = json.loads((out / "manifest" / "run_manifest.json").read_text())
    assert "scope Z: fss dispersion omitted (zero mean)" in manifest["warnings"]


def test_from_scores_rejects_non_finite_scores(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("unit,fss_score,mncs_score\nA,1,1\nB,2,nan\nC,3,3\n",
                   encoding="utf-8")
    assert main(["compare", "--from-scores", str(bad),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"error: {bad}:3: " in capsys.readouterr().err


@pytest.mark.parametrize("n, statistic", [(6, "pearson is nan"),
                                          (2, "fss mean is inf")],
                         ids=["pearson", "dispersion"])
def test_from_scores_overflowing_statistics_fail(tmp_path, capsys, n,
                                                 statistic):
    # finite FSS scores from 1.2e308 up whose sums leave the float range
    big = tmp_path / "big.csv"
    big.write_text("unit,fss_score,mncs_score\n" + "".join(
        f"U{i},1.{i + 2}e308,{i}\n" for i in range(n)), encoding="utf-8")
    assert main(["compare", "--from-scores", str(big),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {big}: scope scores: {statistic}; ")
    assert not [p for p in (tmp_path / "out").rglob("*") if p.is_file()]


def test_from_scores_tiny_scores_keep_their_statistics(tmp_path):
    # the squares of deviations near 1e-200 underflow to 0
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("unit,fss_score,mncs_score\n" + "".join(
        f"U{i},{i}e-200,{i}\n" for i in range(1, 5)), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["compare", "--from-scores", str(tiny), "--out", str(out)]) == 0

    def rows(name):
        text = (out / "summaries" / name).read_text(encoding="utf-8")
        return list(csv.DictReader(text.splitlines()))
    (fss, _) = rows("dispersion_replay.csv")
    assert (fss["indicator"], fss["coefficient_of_variation"]) == \
        ("fss", "0.516398")
    (shift,) = rows("shift_summary_replay.csv")
    assert (shift["pearson"], shift["spearman"]) == ("1.000000", "1.000000")
    manifest = json.loads((out / "manifest" / "run_manifest.json").read_text())
    assert not [w for w in manifest["warnings"] if "omitted" in w]


@pytest.mark.parametrize("text, line", [
    (b"unit,fss_score,mncs_score\nA,1,1\nB,2\nC,3,3\n", 3),
    (b"unit,fss_score,mncs_score\nA,1,1\nB,2,2,2\nC,3,3\n", 3),
    (b"unit,fss_score,mncs_score\nA,1,1\nB,2,2\nC\xff,3,3\n", 4),
    (b"unit,fss_score,mncs_score\nA,1,1\nB" + b"x" * 200_000 + b",2,2\n", 3),
], ids=["missing_field", "extra_field", "bad_byte", "oversized_field"])
def test_from_scores_rejects_malformed_rows(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(text)
    assert main(["compare", "--from-scores", str(bad),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"error: {bad}:{line}: " in capsys.readouterr().err


def test_from_scores_rejects_bad_columns(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("unit,fss\nA,1\n", encoding="utf-8")
    assert main(["compare", "--from-scores", str(bad),
                 "--out", str(tmp_path / "out")]) == 2


def test_from_scores_rejects_duplicate_units(tmp_path):
    bad = tmp_path / "dup.csv"
    bad.write_text("unit,fss_score,mncs_score\nA,1,1\nA,2,2\n",
                   encoding="utf-8")
    assert main(["compare", "--from-scores", str(bad),
                 "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("extra, named", [
    (["DATA"], "DATA_DIR"),
    (["--config", "nope.cfg"], "--config"),
    (["--baselines", "nonexist.csv"], "--baselines"),
    (["--export-baselines"], "--export-baselines"),
    (["--baseline-include-all-doctypes"], "--baseline-include-all-doctypes"),
], ids=["data_dir", "config", "baselines", "export_baselines",
        "include_all_doctypes"])
def test_from_scores_rejects_corpus_inputs(tmp_path, capsys, extra, named):
    scores = DATA_DIR / "ref_overall.csv"
    out = tmp_path / "out"
    assert main(["compare", *extra, "--from-scores", str(scores),
                 "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_compare_requires_corpus_or_scores(tmp_path):
    assert main(["compare", "--out", str(tmp_path / "out")]) == 2


def test_report_uses_shift_glyphs(tmp_path):
    rows = load_ref("ref_field_chim08.csv")
    scores_csv = tmp_path / "scores.csv"
    with open(scores_csv, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["unit", "fss_score", "mncs_score"])
        for r in rows:
            w.writerow([r["unit"], r["fss_score"], r["mncs_score"]])
    out = tmp_path / "replay"
    assert main(["compare", "--from-scores", str(scores_csv),
                 "--out", str(out)]) == 0
    report = (out / "comparisons" / "report.md").read_text(encoding="utf-8")
    assert "↑" in report and "↓" in report and "=" in report
