"""Command-line entry point: validate, score, compare, synth.

Exit codes: 0 success, 1 validation failure, 2 configuration error. A
command that writes output makes its directory at its first write, after
every check, and ends with a manifest recording its command, argv, config,
input digests, output files and warnings; one that fails makes no
directory. Log level comes from RANKDIFF_LOG (error|warn|info|debug).
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import math
import os
import sys
from collections.abc import Callable, Iterable
from contextlib import suppress
from datetime import datetime, timezone
from pathlib import Path

from . import cache, divergence, report
from .baselines import (compute_scaling_factors, log_computed,
                        parse_baselines, write_baselines)
from .corpus import (FilterReport, LEVEL_SDS, LEVELS, RunConfig,
                     apply_filters, decode, load_corpus, log_corpus,
                     read_bytes, read_config, read_csv, read_files,
                     scope_name_problem, slug, write_corpus_csvs)
from .errors import CorpusLoadError, RankdiffError, SynthConfigError, ZeroMean
from .indicators import (BOTH, FSS, MNCS, ProfessorPass, ScoreBoard,
                         ScoreboardSet, ScopePair, UnitScore, log_fss,
                         professor_pass, scoreboards)
from .ranking import ComparisonTable, compare, rank
from .synth import SynthConfig, generate

log = logging.getLogger("rankdiff.cli")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2

LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = LOG_LEVELS.get(os.environ.get("RANKDIFF_LOG", "warn").lower(),
                           logging.WARNING)
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


class OutputDir:
    """What a command writes: its files, in the standard layout, and a
    manifest of its argv, config, input digests, outputs and warnings. The
    layout is made once, at the first ``path`` or the manifest, so a command
    that fails a check makes no directory. An existing directory must be
    empty; ``--force`` first removes the outputs a readable manifest lists,
    each inside it, that manifest and the layout subdirectories left empty."""

    LAYOUT = ("scoreboards", "comparisons", "summaries", "manifest")

    def __init__(self, args: argparse.Namespace, config: dict | None,
                 inputs: dict[str, str]):
        self.root = Path(args.out)
        self.record = {"command": args.command, "argv": args.argv,
                       "config": config, "inputs": inputs}
        self.outputs: list[str] = []
        self.warnings: list[str] = []
        self._made = False
        if self.root.exists() and any(self.root.iterdir()):
            if not args.force:
                raise SystemExitWithCode(
                    EXIT_CONFIG,
                    f"output directory {self.root} is not empty; use --force")
            self._remove_previous_outputs()
            for sub in self.LAYOUT:
                with suppress(OSError):     # not empty, not a dir, or missing
                    (self.root / sub).rmdir()

    def _remove_previous_outputs(self) -> None:
        manifest = self.root / "manifest" / "run_manifest.json"
        root = self.root.resolve()
        try:
            outputs = json.loads(manifest.read_bytes())["outputs"]
            if not isinstance(outputs, list):
                return
            paths = [(root / name).resolve() for name in outputs]
        except (OSError, ValueError, TypeError, LookupError, RuntimeError):
            return
        for path in paths:
            if path.is_relative_to(root) and path.is_file():
                path.unlink()
        manifest.unlink()

    def _make(self) -> None:
        if not self._made:
            for sub in self.LAYOUT:
                (self.root / sub).mkdir(parents=True, exist_ok=True)
            self._made = True

    def path(self, sub: str, name: str) -> Path:
        self._make()
        p = self.root / sub / name
        self.outputs.append(str(p.relative_to(self.root)))
        return p

    def write_manifest(self) -> None:
        self._make()
        manifest = {**self.record, "outputs": sorted(self.outputs),
                    "warnings": self.warnings,
                    "timestamp": datetime.now(timezone.utc).isoformat()}
        path = self.root / "manifest" / "run_manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")


class SystemExitWithCode(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _config_or_exit(path: str | None, include_all: bool = False) -> RunConfig:
    """The run's settings: the config file, with the command-line flag."""
    if path is None:
        raise SystemExitWithCode(EXIT_CONFIG,
                                 "--config is required for corpus commands")
    try:
        run_cfg = read_config(path)
    except (OSError, ValueError) as exc:
        raise SystemExitWithCode(EXIT_CONFIG, f"bad config: {exc}") from exc
    if include_all:
        run_cfg = run_cfg._replace(filters=run_cfg.filters._replace(
            baseline_include_all_doctypes=True))
    return run_cfg


def _professor_pass(args: argparse.Namespace
                    ) -> tuple[RunConfig, ProfessorPass, dict[str, str]]:
    """The run's settings, the professor pass of its corpus and the sha256 of
    every file the run read: the corpus files, as they were loaded, and any
    --baselines. The pass comes from the cache, or from loading and
    filtering the corpus, building or importing the baselines and scoring
    the professors, and is then kept there. The stages log nothing: the
    loaded-corpus and filters lines are logged here, from the same counts
    on a hit and on a miss."""
    run_cfg = _config_or_exit(args.config, args.baseline_include_all_doctypes)
    files = read_files(args.data_dir)
    digests = files.digests
    baselines = read_bytes(args.baselines) if args.baselines else None
    # a missing --baselines is reported where it is parsed, uncached
    cached = not args.baselines or baselines is not None
    key = (digests, run_cfg.window, run_cfg.filters, baselines)
    pass_ = cache.cached_pass(*key) if cached else None
    if pass_ is not None:
        log_corpus(pass_.corpus_counts, FilterReport(*pass_.filter_report))
    else:
        corpus = load_corpus(files, run_cfg.window)
        del files       # the bytes parsed are not needed again
        counts = corpus.counts()
        corpus = apply_filters(corpus, run_cfg.filters)
        log_corpus(counts, corpus.filter_report)
        if args.baselines:
            try:
                cells = parse_baselines(args.baselines, baselines)
            except ValueError as exc:
                raise SystemExitWithCode(EXIT_CONFIG,
                                         f"bad baselines: {exc}") from exc
        else:
            cells = compute_scaling_factors(corpus)
        pass_ = professor_pass(corpus, cells, counts)
        if cached:
            cache.store_pass(*key, pass_)
    if args.baselines:
        digests = {**digests, str(Path(args.baselines)):
                   hashlib.sha256(baselines).hexdigest()}
    return run_cfg, pass_, digests


# ---------------------------------------------------------------------------
# Subcommands

def cmd_validate(args: argparse.Namespace) -> int:
    try:
        _, pass_, _ = _professor_pass(args)
    except CorpusLoadError as exc:
        shown = len(exc.violations)
        print(f"INVALID: {exc.total} violation(s)" if exc.total == shown
              else f"INVALID: first {shown} of {exc.total} violation(s)")
        for v in exc.violations:
            print(f"  {v}")
        return EXIT_VALIDATION
    print("VALID")
    for entity, count in pass_.corpus_counts.items():
        print(f"  {entity}: {count}")
    return EXIT_OK


def _score_corpus(args: argparse.Namespace, indicator: str
                  ) -> tuple[OutputDir, ProfessorPass, ScoreboardSet]:
    """Score the corpus at ``args.level``; the output directory holds the
    run's settings, the digests of the files read and the scoring warnings.
    Also returns the professor pass. An SDS average of FSS or a unit score
    that is not finite ends the run with exit 1 before the first file is
    written."""
    run_cfg, pass_, inputs = _professor_pass(args)
    window = run_cfg.window
    out = OutputDir(args, {
        "window": {"start_year": window.start_year,
                   "end_year": window.end_year,
                   "label": window.citation_snapshot_label},
        "filters": run_cfg.filters.as_dict()}, inputs)
    if args.baselines:
        log.info("baselines imported from %s (%d cells)", args.baselines,
                 len(pass_.cells))
    else:
        log_computed(len(pass_.cells), pass_.baseline_population)
    if indicator != MNCS:
        log_fss(pass_)
    board_set = scoreboards(pass_, run_cfg.filters, args.level, indicator)
    # FSS divides each professor's score by their SDS's average: one that
    # overflowed would turn the SDS's finite scores into 0
    if indicator != MNCS:
        _require_finite(args.data_dir, ((f"SDS {code}: fss average", average)
                                        for code, average
                                        in pass_.averages.items()))
    _require_finite(args.data_dir, (
        (f"scope {scope}: unit {e.university_id}: {e.indicator} score",
         e.score) for scope, pair in board_set.pairs.items()
        for board in filter(None, (pair.fss, pair.mncs))
        for e in board.entries))
    out.warnings.extend(board_set.warnings)
    if not board_set.pairs:
        out.warnings.append(f"no eligible units at {args.level} level")
    return out, pass_, board_set


def cmd_score(args: argparse.Namespace) -> int:
    out, pass_, board_set = _score_corpus(args, args.indicator)
    if args.export_baselines:
        write_baselines(pass_.cells, out.path("summaries", "baselines.csv"))
    for scope, pair in board_set.pairs.items():
        boards = [b for b in (pair.fss, pair.mncs) if b is not None]
        name = f"scoreboard_{args.level}_{slug(scope)}.csv"
        report.write_scoreboard_csv(boards, out.path("scoreboards", name))
    if board_set.not_rankable:
        out.warnings.append(
            "not rankable: " + ", ".join(board_set.not_rankable))
    out.write_manifest()
    print(f"wrote {len(board_set.pairs)} scope scoreboard(s) to {out.root}")
    return EXIT_OK


def _require_finite(source: str, pairs: Iterable[tuple[str, object]]) -> None:
    """Exit 1 naming ``source`` and the first of the (what, value) ``pairs``
    whose value is a float that overflowed to inf or nan."""
    for what, value in pairs:
        if isinstance(value, float) and not math.isfinite(value):
            raise SystemExitWithCode(
                EXIT_VALIDATION, f"{source}: {what} is {value}; the scores "
                f"are too large for float arithmetic")


def _emit_comparisons(
        out: OutputDir, source: str, tag: str, title: str,
        pairs: Iterable[ScopePair], min_units: int,
        uda_of: Callable[[str], str] | None = None) -> list[ComparisonTable]:
    """Rank and compare the FSS and MNCS boards of each scope pair; a pair
    with fewer than ``min_units`` units is a warning in its place instead.

    Writes one comparison CSV per pair compared, the shift, quartile and
    dispersion summaries named by ``tag``, and report.md, one section per
    table with rows. With ``uda_of`` (SDS level), the shift summaries are
    also ranged per discipline. Each CSV goes through its
    ``report.write_*_csv`` name, where the benchmark's tracer finds it. A
    statistic that is not finite ends the run with exit 1, naming
    ``source``, the input, before the first file is written.
    """
    comparisons, shifts, quartiles, dispersions = [], [], [], []
    for label, fss_board, mncs_board, _ in pairs:
        if len(fss_board.entries) < min_units:
            out.warnings.append(
                f"scope {label}: single unit, excluded from percentile/"
                f"quartile analytics" if fss_board.entries
                else f"scope {label}: no units with both scores")
            continue
        staff = {e.university_id: e.research_staff for e in fss_board.entries}
        cmp = compare(rank(fss_board), rank(mncs_board), staff=staff,
                      label=label)
        comparisons.append(cmp)
        summary = divergence.shift_stats(cmp)
        _require_finite(source, ((f"scope {label}: {name}", value)
                                 for name, value in summary._asdict().items()))
        shifts.append(summary)
        if summary.pearson is None:
            out.warnings.append(f"scope {label}: correlations omitted "
                                f"(fewer than 3 units or degenerate variance)")
        quartiles.append(divergence.quartile_stats(cmp))
        if len(fss_board.entries) < 2:
            continue
        for board in (fss_board, mncs_board):
            try:
                stats = divergence.dispersion(board)
            except ZeroMean:
                out.warnings.append(f"scope {label}: {board.indicator} "
                                    f"dispersion omitted (zero mean)")
                continue
            _require_finite(source, (
                (f"scope {label}: {stats.indicator} {name}", value)
                for name, value in stats._asdict().items()))
            dispersions.append(stats)
    for cmp in comparisons:
        report.write_comparison_csv(cmp.rows, out.path(
            "comparisons", f"comparison_{tag}_{slug(cmp.label)}.csv"))
    report.write_shift_summary_csv(
        shifts, out.path("summaries", f"shift_summary_{tag}.csv"))
    report.write_quartile_summary_csv(
        quartiles, out.path("summaries", f"quartile_summary_{tag}.csv"))
    report.write_dispersion_csv(
        dispersions, out.path("summaries", f"dispersion_{tag}.csv"))
    sections = [(f"Comparison: {cmp.label}", report.COMPARISON, cmp.rows)
                for cmp in comparisons]
    sections += [("Rank shift summary", report.SHIFT_SUMMARY, shifts),
                 ("Quartile migration", report.QUARTILE_SUMMARY, quartiles),
                 ("Score dispersion", report.DISPERSION, dispersions)]
    if uda_of is not None:
        by_uda: dict[str, list] = {}
        for summary in shifts:
            by_uda.setdefault(uda_of(summary.scope_code), []).append(summary)
        ranges = [divergence.range_summary(group, uda)
                  for uda, group in sorted(by_uda.items())]
        report.write_range_summary_csv(
            ranges, out.path("summaries", f"range_summary_{tag}.csv"))
        sections.append(("Per-discipline ranges", report.RANGE_SUMMARY, ranges))
    md = report.render_report(title, sections)
    out.path("comparisons", "report.md").write_text(md, encoding="utf-8")
    return comparisons


def cmd_compare(args: argparse.Namespace) -> int:
    if args.from_scores:
        corpus_only = [name for name, given in [
            ("DATA_DIR", args.data_dir), ("--config", args.config),
            ("--baselines", args.baselines),
            ("--export-baselines", args.export_baselines),
            ("--baseline-include-all-doctypes",
             args.baseline_include_all_doctypes)] if given]
        if corpus_only:
            raise SystemExitWithCode(
                EXIT_CONFIG, f"--from-scores reads no corpus; remove "
                f"{', '.join(corpus_only)}")
        return _compare_from_scores(args)
    if not args.data_dir:
        raise SystemExitWithCode(EXIT_CONFIG,
                                 "either DATA_DIR or --from-scores is required")
    out, pass_, board_set = _score_corpus(args, BOTH)
    comparisons = _emit_comparisons(
        out, args.data_dir, args.level,
        f"FSS vs MNCS comparison ({args.level} level)",
        board_set.pairs.values(), 2,
        pass_.sds_to_uda.__getitem__ if args.level == LEVEL_SDS else None)
    if args.export_baselines:       # after every statistic is checked
        write_baselines(pass_.cells, out.path("summaries", "baselines.csv"))
    out.write_manifest()
    print(f"compared {len(comparisons)} scope(s); outputs in {out.root}")
    return EXIT_OK


def _read_scores_csv(path: Path, data: bytes | None, label: str) -> ScopePair:
    try:
        _, (units, fss_scores, mncs_scores) = read_csv(
            path, data, {"unit": str, "fss_score": float, "mncs_score": float},
            extra_columns=True, key=("unit",))
    except ValueError as exc:
        raise SystemExitWithCode(EXIT_CONFIG, str(exc)) from exc
    fss_entries = [UnitScore(u, FSS, s) for u, s in zip(units, fss_scores)]
    mncs_entries = [UnitScore(u, MNCS, s) for u, s in zip(units, mncs_scores)]
    if not fss_entries:
        raise SystemExitWithCode(EXIT_CONFIG, f"{path}: no score rows")
    return ScopePair(label, ScoreBoard("replay", label, FSS, fss_entries),
                     ScoreBoard("replay", label, MNCS, mncs_entries), [])


def _compare_from_scores(args: argparse.Namespace) -> int:
    problem = scope_name_problem(args.label)
    if problem:
        raise SystemExitWithCode(EXIT_CONFIG,
                                 f"--label: {args.label!r} {problem}")
    path = Path(args.from_scores)
    data = read_bytes(path)
    pair = _read_scores_csv(path, data, args.label)
    out = OutputDir(args, None, {str(path): hashlib.sha256(data).hexdigest()})
    if len(pair.fss.entries) < 2:
        out.warnings.append("single unit: percentile set to 100 by convention")
    (cmp,) = _emit_comparisons(
        out, str(path), "replay",
        f"FSS vs MNCS comparison (replay: {args.label})", [pair], 1)
    out.write_manifest()
    print(f"compared {cmp.n} units; outputs in {out.root}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    data = read_bytes(args.config_file)
    try:
        cfg = SynthConfig.from_json(args.config_file, data)
        corpus = generate(cfg)
    except SynthConfigError as exc:
        raise SystemExitWithCode(EXIT_CONFIG, str(exc)) from exc
    out = OutputDir(args, json.loads(decode(data, args.config_file)),
                    {str(args.config_file): hashlib.sha256(data).hexdigest()})
    paths = write_corpus_csvs(corpus, out.root)
    out.outputs.extend(p.name for p in paths)
    out.write_manifest()
    print(f"synthesized corpus: {corpus.counts()} -> {out.root}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankdiff",
        description="FSS/MNCS research-performance indicators and "
                    "ranking-divergence analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="load and validate a corpus")
    p_val.add_argument("data_dir")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate, baselines=None,
                       baseline_include_all_doctypes=False)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="run config (key=value lines)")
        p.add_argument("--out", required=True)
        p.add_argument("--force", action="store_true",
                       help="overwrite a non-empty output directory")
        p.add_argument("--baselines",
                       help="import a pinned scaling-factor CSV instead of "
                            "recomputing")
        p.add_argument("--export-baselines", action="store_true",
                       help="write the scaling-factor table used")
        p.add_argument("--baseline-include-all-doctypes", action="store_true",
                       help="keep doc-type-excluded publications in baselines")

    p_score = sub.add_parser("score", help="compute indicator scoreboards")
    p_score.add_argument("data_dir")
    add_common(p_score)
    p_score.add_argument("--indicator", choices=[FSS, MNCS, BOTH],
                         default=BOTH)
    p_score.add_argument("--level", choices=list(LEVELS), required=True)
    p_score.set_defaults(func=cmd_score)

    p_cmp = sub.add_parser("compare",
                           help="rank both indicators and summarize divergence")
    p_cmp.add_argument("data_dir", nargs="?")
    add_common(p_cmp)
    p_cmp.add_argument("--level", choices=list(LEVELS), default="overall")
    p_cmp.add_argument("--from-scores",
                       help="replay a unit,fss_score,mncs_score CSV instead "
                            "of scoring a corpus")
    p_cmp.add_argument("--label", default="scores",
                       help="scope label for replay outputs")
    p_cmp.set_defaults(func=cmd_compare)

    p_syn = sub.add_parser("synth", help="generate a synthetic corpus")
    p_syn.add_argument("config_file")
    p_syn.add_argument("--out", required=True)
    p_syn.add_argument("--force", action="store_true")
    p_syn.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    args.argv = argv
    # the cyclic garbage collector is paused while the command runs: a run
    # creates tens of thousands of objects and no reference cycle, so the
    # collections they would trigger find nothing to free
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except SystemExitWithCode as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except CorpusLoadError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RankdiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
