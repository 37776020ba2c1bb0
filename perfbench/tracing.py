"""The traced run: per-layer self times and counts.

It runs the workload's commands in process through ``rankdiff.cli.main``.
Spans are recorded from here, around the library's public functions: while
a traced pass runs, each function below is replaced, at the name the caller
looks up, by a wrapper that opens a span. The program itself is unchanged.

A span is (id, name, start, end, parent). A layer's self time is the length
of its spans minus the part their child spans cover; ``cli.self_s`` is what
``rankdiff.cli.main`` spends outside every wrapped call (argument parsing,
output directory, input digests, manifest). Spans stay in memory and are
written out when the run ends.

Untraced and traced in-process passes alternate until ``--seconds`` are
used (at most ``MAX_PAIRS`` pairs); each layer metric is the median over
the traced passes, each count is taken from the first, and
``trace.overhead_s`` is the median traced pass minus the median untraced
pass. ``cli.startup_s`` is timed apart, in fresh interpreters.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import logging
import os
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from harness import ChildRunner, Verifier, run_pass
from workloads import Result, Workload

STARTUP_SAMPLES = 5
# enough pairs for steady medians while keeping the span list small
MAX_PAIRS = 30

LAYER_METRICS = (
    ("synth.generate_s", "s"), ("synth.write_s", "s"),
    ("cli.startup_s", "s"), ("cli.self_s", "s"),
    ("corpus.load_s", "s"), ("corpus.rows", "count"),
    ("corpus.filter_s", "s"), ("corpus.digest_s", "s"),
    ("corpus.eligible_s", "s"),
    ("baselines.build_s", "s"), ("baselines.cells", "count"),
    ("indicators.professor_scores_s", "s"), ("indicators.impact_map_s", "s"),
    ("indicators.sds_averages_s", "s"),
    ("indicators.scoreboards_sds_s", "s"),
    ("indicators.scoreboards_uda_s", "s"),
    ("indicators.scoreboards_overall_s", "s"),
    ("indicators.scopes", "count"), ("indicators.units", "count"),
    ("ranking.rank_compare_s", "s"), ("ranking.units", "count"),
    ("divergence.stats_s", "s"),
    ("report.write_s", "s"), ("report.bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [id, name, start, end, parent]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    @contextlib.contextmanager
    def span(self, name: str):
        record = [len(self.spans), name, time.perf_counter(), None,
                  self.stack[-1] if self.stack else None]
        self.spans.append(record)
        self.stack.append(record[0])
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self.stack.pop()

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args) if callable(name) else name
            with self.span(span_name):
                result = fn(*args, **kwargs)
            if count is not None:
                for key, value in count(result, *args).items():
                    self.counts[key] += value
            return result
        return traced

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self time per span name over the spans from index ``first``."""
        spans = self.spans[first:]
        covered: Counter = Counter()
        for _, _, start, end, parent in spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Counter = Counter()
        for sid, name, start, end, _ in spans:
            totals[name] += (end - start) - covered[sid]
        return dict(totals)


def _rows(corpus, *args) -> dict[str, int]:
    counts = corpus.counts()
    return {"corpus.rows": counts["publications"] + counts["authorships"]
            + counts["professors"] + counts["sds"] + len(corpus.salary_table)}


def _boards(board_set, *args) -> dict[str, int]:
    units = sum(len((pair.fss or pair.mncs).entries)
                for pair in board_set.pairs.values())
    return {"indicators.scopes": len(board_set.pairs),
            "indicators.units": units}


def _file_bytes(result, obj, path, *args) -> dict[str, int]:
    return {"report.bytes": os.path.getsize(path)}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the library's public functions where the CLI calls them."""
    from rankdiff import cli, corpus, divergence, indicators, report
    patches = [
        (cli, "generate", "synth.generate", None),
        (cli, "write_corpus_csvs", "synth.write", None),
        (cli, "load_corpus", "corpus.load", _rows),
        (cli, "apply_filters", "corpus.filter", None),
        (corpus.Corpus, "digest", "corpus.digest", None),
        (indicators, "eligible_units", "corpus.eligible", None),
        (cli, "compute_scaling_factors", "baselines.build",
         lambda table, *a: {"baselines.cells": len(table)}),
        (indicators, "professor_scores", "indicators.professor_scores", None),
        (indicators, "impact_map", "indicators.impact_map", None),
        (indicators, "sds_averages", "indicators.sds_averages", None),
        (cli, "scoreboards",
         lambda corpus, table, level, *a: f"indicators.scoreboards_{level}",
         _boards),
        (cli, "rank", "ranking.rank_compare", None),
        (cli, "compare", "ranking.rank_compare",
         lambda cmp, *a: {"ranking.units": cmp.n}),
    ]
    patches += [(divergence, fn, "divergence.stats", None)
                for fn in ("shift_stats", "quartile_stats", "dispersion",
                           "range_summary")]
    patches += [(report, fn, "report.write", _file_bytes)
                for fn in ("write_scoreboard_csv", "write_comparison_csv",
                           "write_shift_summary_csv",
                           "write_quartile_summary_csv", "write_dispersion_csv",
                           "write_range_summary_csv")]
    patches.append((report, "render_report", "report.write",
                    lambda md, *a: {"report.bytes": len(md.encode())}))
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in patches]
    try:
        for owner, attr, name, count in patches:
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, count))
        yield
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


class InProcessRunner:
    """Calls ``rankdiff.cli.main``; with a tracer, inside a ``cli.main`` span."""

    def __init__(self, tracer: Tracer | None = None):
        from rankdiff import cli
        self.cli = cli
        self.tracer = tracer

    def __call__(self, argv: list[str]) -> Result:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer is None:
                code = self.cli.main(argv)
            else:
                with self.tracer.span("cli.main"):
                    code = self.cli.main(argv)
        return Result(code, out.getvalue(), err.getvalue(),
                      time.perf_counter() - start)


def _import_checkout(root: Path) -> None:
    sys.path.insert(0, str(root / "src"))
    import rankdiff
    package = (root / "src" / "rankdiff").resolve()
    if Path(rankdiff.__file__).resolve().parent != package:
        raise RuntimeError(f"imported rankdiff from {rankdiff.__file__}, "
                           f"not from {root / 'src'}")
    os.environ["RANKDIFF_LOG"] = "error"
    # the CLI's own basicConfig then keeps this handler on the real stderr
    logging.basicConfig(level=logging.ERROR, stream=sys.__stderr__)


def _startup(wl_ops, root: Path, work: Path) -> float:
    """Median wall time of ``python -m rankdiff <command> --help``."""
    run = ChildRunner(root, work)
    commands = [op.argv[0] for op in wl_ops]
    times = []
    for i in range(STARTUP_SAMPLES):
        res = run([commands[i % len(commands)], "--help"])
        if res.returncode != 0:
            raise RuntimeError(f"--help failed: {res.stderr[-300:]}")
        times.append(res.seconds)
    return statistics.median(times)


def traced_run(wl: Workload, root: Path, work: Path, seconds: float) -> dict:
    _import_checkout(root)
    tracer = Tracer()
    with installed(tracer):
        wl.setup(InProcessRunner(tracer))
    setup_self = tracer.self_times()

    ops = wl.ops()
    verify = Verifier()
    untraced, traced, layer_runs = [], [], []
    counts: Counter | None = None
    start = time.perf_counter()
    while True:
        wall, results = run_pass(ops, InProcessRunner())
        untraced.append(wall)
        for op, res in zip(ops, results):
            verify(op, res)
        first = len(tracer.spans)
        tracer.counts.clear()
        with installed(tracer):
            wall, results = run_pass(ops, InProcessRunner(tracer))
        traced.append(wall)
        layer_runs.append(tracer.self_times(first))
        if counts is None:
            counts = Counter(tracer.counts)
        for op, res in zip(ops, results):
            verify(op, res)
        elapsed = time.perf_counter() - start
        if (elapsed + untraced[-1] + traced[-1] > seconds
                or len(traced) == MAX_PAIRS):
            break

    metrics = {}
    for name, unit in LAYER_METRICS:
        if unit != "s":
            metrics[name] = (counts.get(name, 0), unit)
            continue
        span = name[:-2].replace("cli.self", "cli.main")
        if name.startswith("synth."):
            value = setup_self.get(span, 0.0)
        else:
            value = statistics.median(run.get(span, 0.0) for run in layer_runs)
        metrics[name] = (value, unit)
    metrics["cli.startup_s"] = (_startup(ops, root, work), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced), "s")

    spans_path = work.parent / f"spans-{wl.name}.json"
    spans_path.write_text(json.dumps(
        [{"id": sid, "name": name, "start": s, "end": e, "parent": parent}
         for sid, name, s, e, parent in tracer.spans]) + "\n", encoding="utf-8")
    return {"verify": verify, "metrics": metrics,
            "detail": {"untraced_pass_s": untraced, "traced_pass_s": traced,
                       "spans": str(spans_path.relative_to(root))}}
