"""The benchmark's traced run still sees every layer it patches.

``perfbench/tracing.py`` wraps library functions by attribute name; a
function that is renamed, inlined or no longer looked up where it is
patched leaves its span, and the layer metric built on it, at zero without
an error. This runs a small synth, ``compare --level sds`` and
``score --level uda --indicator mncs`` in process under the tracer and
checks that every patched span was recorded.
"""
from __future__ import annotations

import json
from pathlib import Path

from rankdiff import cli

ROOT = Path(__file__).resolve().parents[1]

# Corpus.digest has had no caller in the CLI since the unit scores stopped
# recording a provenance digest; its metric is known to read zero
UNCALLED = {"corpus.digest"}

SYNTH_CFG = {
    "seed": 3, "n_universities": 5,
    "sds": [{"sds": "S/01", "uda": "1"}, {"sds": "S/02", "uda": "1"},
            {"sds": "S/03", "uda": "2"}],
    "professors_per_sds": [2, 4], "pubs_per_professor": 3.0,
    "citation_dispersion": 1.0, "quantity_impact_corr": 0.4,
    "salaries": {"assistant": 45000, "full": 80000},
    "window": {"start_year": 2008, "end_year": 2012, "label": "synthetic"},
}

# every threshold at 1, so every scope is scored, ranked and summarised
RUN_CFG = ("start_year=2008\nend_year=2012\nmin_professors_sds=1\n"
           "min_professors_uda=1\nmin_professors_overall=1\n"
           "min_units_to_rank=1\n")


def test_traced_commands_record_every_patched_span(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    class Recording(tracing.Tracer):
        """A tracer that also lists the names it was asked to patch."""

        def __init__(self):
            super().__init__()
            self.patched = set()

        def wrap(self, fn, name, count=None):
            self.patched.add(name)
            return super().wrap(fn, name, count)

    (tmp_path / "synth.json").write_text(json.dumps(SYNTH_CFG))
    (tmp_path / "run.cfg").write_text(RUN_CFG)
    corpus = ["--config", str(tmp_path / "run.cfg"), str(tmp_path / "corpus")]
    tracer = Recording()
    with tracing.installed(tracer):
        assert cli.main(["synth", str(tmp_path / "synth.json"),
                         "--out", str(tmp_path / "corpus")]) == 0
        assert cli.main(["compare", *corpus, "--level", "sds",
                         "--out", str(tmp_path / "cmp")]) == 0
        assert cli.main(["score", *corpus, "--level", "uda",
                         "--indicator", "mncs",
                         "--out", str(tmp_path / "score")]) == 0
    # one patch names its span per call: scoreboards, by its level
    named = {n for n in tracer.patched if isinstance(n, str)}
    assert len(tracer.patched - named) == 1
    expected = (named - UNCALLED) | {"indicators.scoreboards_sds",
                                     "indicators.scoreboards_uda"}
    recorded = {name for _, name, *_ in tracer.spans}
    assert expected - recorded == set()
    assert UNCALLED <= named
