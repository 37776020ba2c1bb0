"""The full, ordered warnings of four scoring runs, pinned byte for byte.

The fixture triggers every scoring warning: an SDS with no productive
professor (S2), a ``--baselines`` table without one cell (2010/CX), an SDS
scope below ``min_units_to_rank`` (S3, whose units are never scored) and
units dropped for missing one indicator (C in S1, every unit of S2, C
overall, named by the scope ``overall``). Each
command runs in a fresh interpreter at the default log level, so stderr is
exactly what a user sees.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rankdiff import (Authorship, Corpus, FieldScheme, ObservationWindow,
                      Professor, Publication, write_corpus_csvs)

ROOT = Path(__file__).resolve().parents[1]

BASELINES = ("year,category,mean,cited_count,total_count\n"
             "2008,C,5.0,2,4\n"
             "2009,C,1.5,2,2\n")

RUN_CFG = ("start_year=2008\nend_year=2012\nmin_professors_sds=1\n"
           "min_professors_uda=1\nmin_professors_overall=1\n"
           "min_units_to_rank=3\n")


def _corpus() -> Corpus:
    profs = {pid: Professor(pid, pid[0].upper(), "S" + pid[1], "r", 5.0)
             for pid in ("a1", "b1", "c1", "a2", "b2", "c2", "d3", "e3")}
    pubs = [Publication("w1", 2008, "article", ("C",), 4, 2),
            Publication("w2", 2009, "article", ("C",), 2, 1),
            Publication("w3", 2008, "article", ("C",), 0, 1),
            Publication("w4", 2008, "article", ("C",), 0, 3),
            Publication("w5", 2010, "article", ("CX",), 3, 2),
            Publication("w6", 2008, "article", ("C",), 6, 1),
            Publication("w7", 2009, "article", ("C",), 1, 1)]
    auths = [Authorship(w, p) for w, p in [
        ("w1", "a1"), ("w2", "b1"), ("w3", "a2"), ("w4", "b2"), ("w4", "a1"),
        ("w5", "a1"), ("w5", "d3"), ("w6", "e3"), ("w7", "d3")]]
    return Corpus.from_records(
        ObservationWindow(2008, 2012), {p.pub_id: p for p in pubs}, auths,
        profs, FieldScheme({"S1": "U1", "S2": "U1", "S3": "U2"}), {"r": 1.0})


IND = "WARNING rankdiff.indicators: "
FSS_SKIPPED = IND + "fss: 2 publication terms skipped for missing baselines"
NO_PRODUCTIVE = (IND + "SDS S2 has no productive professor; its staff are "
                 "excluded from unit FSS")


def _dropped(unit: str) -> str:
    return IND + f"fss_unit {unit}: 1 professors dropped (unstandardizable SDS)"


def _skipped(unit: str) -> str:
    return IND + f"mncs_unit {unit}: 1 publications skipped (missing baseline)"


# command -> (stderr lines, manifest warnings)
EXPECTED = {
    ("compare", "--level", "sds"): (
        [FSS_SKIPPED, NO_PRODUCTIVE, _skipped("A/S1"), _dropped("A/S2"),
         _dropped("B/S2"), _dropped("C/S2"),
         "WARNING rankdiff.divergence: S1: fewer than 3 units, correlations "
         "omitted"],
        ["scope S1: dropped units missing one indicator: C",
         "scope S2: dropped units missing one indicator: A, B, C",
         "scope S3: 2 eligible units, need 3",
         "scope S1: correlations omitted (fewer than 3 units or degenerate "
         "variance)",
         "scope S2: no units with both scores"]),
    ("score", "--level", "uda", "--indicator", "mncs"): (
        [_skipped("A/U1"), _skipped("D/U2")], []),
    ("compare", "--level", "overall"): (
        [FSS_SKIPPED, NO_PRODUCTIVE, _dropped("A/overall"),
         _skipped("A/overall"), _dropped("B/overall"), _dropped("C/overall"),
         _skipped("D/overall")],
        ["scope overall: dropped units missing one indicator: C"]),
    ("score", "--level", "overall", "--indicator", "fss"): (
        [FSS_SKIPPED, NO_PRODUCTIVE, _dropped("A/overall"), _dropped("B/overall"),
         _dropped("C/overall")], []),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("warnings")
    write_corpus_csvs(_corpus(), root / "corpus")
    (root / "baselines.csv").write_text(BASELINES, encoding="utf-8")
    (root / "run.cfg").write_text(RUN_CFG, encoding="utf-8")
    return root


@pytest.mark.parametrize("command", list(EXPECTED), ids=" ".join)
def test_scoring_warnings_pinned(inputs, command):
    out = inputs / "_".join(command)
    env = {k: v for k, v in os.environ.items() if k != "RANKDIFF_LOG"}
    res = subprocess.run(
        [sys.executable, "-m", "rankdiff", command[0], str(inputs / "corpus"),
         "--config", str(inputs / "run.cfg"),
         "--baselines", str(inputs / "baselines.csv"), "--out", str(out),
         *command[1:]],
        cwd=ROOT, env={**env, "PYTHONPATH": "src"}, capture_output=True,
        text=True)
    assert res.returncode == 0, res.stderr
    manifest = json.loads((out / "manifest" / "run_manifest.json").read_text())
    lines, warnings = EXPECTED[command]
    assert res.stderr == "".join(line + "\n" for line in lines)
    assert manifest["warnings"] == warnings
