"""The CLI's scoreboards against an independent computation.

``perfbench/reference.py`` recomputes every FSS and MNCS from the five
corpus CSVs with numpy and imports nothing from ``rankdiff``. Here a drawn
synth config and drawn run thresholds go through ``rankdiff synth`` and, at
each level L and in process, ``score --level L --indicator mncs`` on an
empty cache, then ``score --level L --indicator both`` and ``compare
--level L`` on the pass that first command left. Every board must match
``Reference.boards`` within ``checks.SCORE_RTOL``, and every comparison
``checks.check_compare``, so each FSS value checked comes from a pass an
MNCS-only command made. This covers the whole path from file bytes to
output CSV. ``reference.py`` ignores ``baseline_include_all_doctypes``, so
that setting stays off.
"""
from __future__ import annotations

import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdiff import LEVELS
from rankdiff.cli import main

ROOT = Path(__file__).resolve().parents[1]
EXCLUDABLE = ("review", "meeting abstract", "editorial material")


@pytest.fixture(scope="module")
def perfbench():
    """``perfbench``'s reference and checks modules, imported read-only."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ROOT / "perfbench"))
        import checks
        import reference
        yield reference, checks


@st.composite
def synth_configs(draw) -> dict:
    udas = draw(st.integers(1, 3))
    sds = [{"sds": f"S/{u}{k}", "uda": f"U{u}"}
           for u in range(udas) for k in range(draw(st.integers(1, 3)))]
    low = draw(st.integers(0, 2))
    start = draw(st.integers(2005, 2010))
    return {
        "seed": draw(st.integers(0, 2**16)),
        "n_universities": draw(st.integers(2, 6)),
        "sds": sds,
        "professors_per_sds": [low, draw(st.integers(max(low, 1), 4))],
        "pubs_per_professor": draw(st.sampled_from([0.5, 2.0, 4.0, 7.0])),
        "citation_dispersion": draw(st.sampled_from([0.4, 1.0, 3.0])),
        "quantity_impact_corr": draw(st.sampled_from([0.0, 0.4, 0.8])),
        "salaries": {"assistant": draw(st.integers(30000, 50000)),
                     "full": draw(st.integers(60000, 90000))},
        "window": {"start_year": start,
                   "end_year": start + draw(st.integers(0, 4)),
                   "label": "drawn"},
    }


@st.composite
def run_configs(draw, window: dict) -> str:
    """Every setting ``reference.read_run_settings`` reads, drawn."""
    excluded = draw(st.lists(st.sampled_from(EXCLUDABLE), unique=True))
    return "".join(f"{key}={value}\n" for key, value in [
        ("start_year", window["start_year"]), ("end_year", window["end_year"]),
        ("min_years_on_staff", draw(st.sampled_from([0, 1, 2.5, 3]))),
        ("excluded_doc_types", ",".join(excluded)),
        ("min_professors_sds", draw(st.integers(0, 3))),
        ("min_professors_uda", draw(st.integers(0, 6))),
        ("min_professors_overall", draw(st.integers(0, 12))),
        ("min_units_to_rank", draw(st.integers(0, 4)))])


def _main(argv: list[str]) -> int:
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        return main(argv)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_boards_match_the_reference(perfbench, data):
    reference, checks = perfbench
    synth_cfg = data.draw(synth_configs())
    run_cfg = data.draw(run_configs(synth_cfg["window"]))
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        tmp = Path(tmp)
        (tmp / "synth.json").write_text(json.dumps(synth_cfg), encoding="utf-8")
        (tmp / "run.cfg").write_text(run_cfg, encoding="utf-8")
        corpus = tmp / "corpus"
        assert _main(["synth", str(tmp / "synth.json"), "--out",
                      str(corpus)]) == 0
        ref = reference.Reference(
            corpus, reference.read_run_settings(tmp / "run.cfg"))
        args = [str(corpus), "--config", str(tmp / "run.cfg")]
        for level in LEVELS:
            # each level's own empty cache, which the MNCS-only score fills
            patch.setenv("XDG_CACHE_HOME", str(tmp / f"cache-{level}"))
            for indicator in ("mncs", "both"):
                out = tmp / f"{level}-{indicator}"
                assert _main(["score", *args, "--level", level, "--indicator",
                              indicator, "--out", str(out)]) == 0
                assert checks.check_scoreboards(
                    out, ref.boards(level, indicator), level,
                    indicator) == [], (level, indicator)
            out = tmp / f"{level}-compare"
            assert _main(["compare", *args, "--level", level,
                          "--out", str(out)]) == 0
            scopes = checks.corpus_compare_scopes(ref.boards(level))
            assert checks.check_compare(out, level, scopes) == [], level
            # the one pass every command read
            cache = tmp / f"cache-{level}" / "rankdiff"
            assert len(list(cache.iterdir())) == 1
