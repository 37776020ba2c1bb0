"""Byte-identity sweep: run one command matrix in two checkouts and print
every difference.

    python tests/sweep_outputs.py BASE CHANGE DATA_DIR RUN_CFG

BASE and CHANGE are the roots of two rankdiff checkouts, DATA_DIR a corpus
directory and RUN_CFG a run config. Every command of the matrix runs as
``python -m rankdiff`` from each checkout's ``src``:

- ``validate``;
- ``score`` at each level and indicator with ``--export-baselines``, and
  again with ``--baselines``, the table that checkout exported;
- ``compare`` at each level, with and without
  ``--baseline-include-all-doctypes``;
- ``compare --from-scores`` on the three score tables in ``tests/data``;
- the error cases: ``validate`` and ``compare`` on copies of the corpus
  with one broken row, without ``authorships.csv``, with a 0xff byte in
  ``professors.csv``, with ``authorships.csv`` a directory and with an SDS
  code holding a control character in ``fields.csv``;
  ``score --baselines`` naming a missing table and a table with a bad
  cell; and ``compare --from-scores`` naming a missing table; each made
  in the checkout's work directory;
- the missing-baseline path: ``score --indicator both`` at each level
  and ``compare`` at ``sds`` and ``overall`` with ``--baselines``, a table
  of every other row of the table that checkout exported, and ``compare
  --level overall`` with a table of its first row alone, which drops
  units at overall level.

Each runs at ``RANKDIFF_LOG=error`` and ``debug``, in four cache states:
an empty cache, the warm cache that first run leaves, ``XDG_CACHE_HOME`` a
regular file, and ``shared``: the whole matrix in order in one cache per
log level, so that a command also reads what the commands before it kept,
such as the pass of a ``score --indicator mncs`` read by a later ``score
--indicator both`` or ``compare``. The exit code, stdout, stderr and every
output file are compared between the two checkouts; only the manifest's
``timestamp`` and the output path, the run's own work directory, are
ignored. Then each script in ``demos/`` runs once, with the checkout's
``src``, and its exit code, stdout and stderr are compared. The script
prints each difference and exits 1 if there is any, else 0. Pytest does
not collect it.
"""
from __future__ import annotations

import difflib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

LEVELS = ("sds", "uda", "overall")
INDICATORS = ("fss", "mncs", "both")
LOG_LEVELS = ("error", "debug")
CACHE_STATES = ("empty", "warm", "file")      # each command on its own
SCORE_TABLES = ("field_chim08", "overall", "uda_chemistry")
WORK = "<WORK>"
# the command exporting the table every --baselines run reads, and that
# table
EXPORT = "score-sds-both-export"
EXPORTED = f"out/{EXPORT}/summaries/baselines.csv"
# every other row of the exported table: the missing-baseline path
PARTIAL = "partial-baselines.csv"
# its first row alone: most universities lose every MNCS term and are
# dropped at overall level
SPARSE = "sparse-baselines.csv"
# a publication row Corpus.check rejects: a negative citation count
BROKEN_ROW = "W_BROKEN,2010,article,C,-1,1\n"
# a professor row whose university is not UTF-8
BAD_BYTE_ROW = b"P_BAD_BYTE,UNIV_\xff,S,assistant,5\n"
# a fields row whose SDS code breaks the scope-name rule: a BEL inside it
CONTROL_ROW = "S_\x07CTRL,Control field,U_CTRL,Control discipline\n"
# the damaged copies of the corpus
DAMAGED = ("broken", "incomplete", "bad-byte", "directory", "control-code")
BAD_BASELINES = ("year,category,mean,cited_count,total_count\n"
                 "2008,C,abc,1,1\n")


def matrix(data_dir: Path, run_cfg: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every command, exports before the runs reading them;
    ``{out}`` stands for the output directory, ``{work}`` for the work
    directory of the checkout."""
    corpus = [str(data_dir), "--config", str(run_cfg)]
    commands = [("validate", ["validate", *corpus])]
    for pinned in (False, True):
        for level in LEVELS:
            for indicator in INDICATORS:
                extra = (["--baselines", "{work}/" + EXPORTED] if pinned
                         else ["--export-baselines"])
                name = (f"score-{level}-{indicator}-"
                        f"{'pinned' if pinned else 'export'}")
                commands.append((name, ["score", *corpus, "--level", level,
                                        "--indicator", indicator, *extra,
                                        "--out", "{out}"]))
    for level in LEVELS:
        for include_all in (False, True):
            extra = ["--baseline-include-all-doctypes"] if include_all else []
            name = f"compare-{level}{'-all-doctypes' if include_all else ''}"
            commands.append((name, ["compare", *corpus, "--level", level,
                                    *extra, "--out", "{out}"]))
    data = Path(__file__).resolve().parent / "data"
    for table in SCORE_TABLES:
        commands.append((f"replay-{table}", [
            "compare", "--from-scores", str(data / f"ref_{table}.csv"),
            "--label", table, "--out", "{out}"]))
    for corpus_name in DAMAGED:
        damaged = ["{work}/" + corpus_name, "--config", str(run_cfg)]
        commands.append((f"validate-{corpus_name}", ["validate", *damaged]))
        commands.append((f"compare-{corpus_name}", [
            "compare", *damaged, "--level", "sds", "--out", "{out}"]))
    for table in ("missing", "bad"):
        commands.append((f"score-baselines-{table}", [
            "score", *corpus, "--level", "sds", "--baselines",
            "{work}/" + f"{table}-baselines.csv", "--out", "{out}"]))
    commands.append(("replay-missing", [
        "compare", "--from-scores", "{work}/missing-scores.csv",
        "--out", "{out}"]))
    partial = ["--baselines", "{work}/" + PARTIAL]
    for level in LEVELS:
        commands.append((f"score-{level}-partial", [
            "score", *corpus, "--level", level, "--indicator", "both",
            *partial, "--out", "{out}"]))
    for level in ("sds", "overall"):
        commands.append((f"compare-{level}-partial", [
            "compare", *corpus, "--level", level, *partial, "--out", "{out}"]))
    commands.append(("compare-overall-sparse", [
        "compare", *corpus, "--level", "overall", "--baselines",
        "{work}/" + SPARSE, "--out", "{out}"]))
    return commands


def make_error_inputs(data_dir: Path, work: Path) -> None:
    """The inputs of the error cases in ``work``: the DAMAGED copies of the
    corpus and a baseline table with a bad cell; ``missing-baselines.csv``
    and ``missing-scores.csv`` are not made."""
    for name in DAMAGED:
        shutil.copytree(data_dir, work / name)
    with open(work / "broken" / "publications.csv", "a",
              encoding="utf-8") as f:
        f.write(BROKEN_ROW)
    (work / "incomplete" / "authorships.csv").unlink()
    with open(work / "bad-byte" / "professors.csv", "ab") as f:
        f.write(BAD_BYTE_ROW)
    (work / "directory" / "authorships.csv").unlink()
    (work / "directory" / "authorships.csv").mkdir()
    with open(work / "control-code" / "fields.csv", "a",
              encoding="utf-8") as f:
        f.write(CONTROL_ROW)
    (work / "bad-baselines.csv").write_text(BAD_BASELINES, encoding="utf-8")


def make_partial_table(work: Path) -> None:
    """Write PARTIAL and SPARSE in ``work``: the header and every other
    row, from the first, and the header and the first row, of the table
    EXPORT left there; nothing if there is none."""
    exported = work / EXPORTED
    if exported.is_file():
        header, *rows = exported.read_text(encoding="utf-8").splitlines(
            keepends=True)
        (work / SPARSE).write_text(header + "".join(rows[:1]),
                                   encoding="utf-8")
        (work / PARTIAL).write_text(header + "".join(rows[::2]),
                                    encoding="utf-8")


def hide(data: bytes, work: Path) -> bytes:
    return data.replace(str(work).encode(), WORK.encode())


def streams(proc: subprocess.CompletedProcess, work: Path) -> dict[str, bytes]:
    """The exit code, stdout and stderr of a finished run."""
    return {"exit code": str(proc.returncode).encode(),
            "stdout": hide(proc.stdout, work),
            "stderr": hide(proc.stderr, work)}


def run(checkout: Path, work: Path, name: str, argv: list[str],
        log_level: str, cache: Path) -> dict[str, bytes]:
    """Run one command in one checkout with the cache at ``cache``; its exit
    code, stdout, stderr and output files, by name, with the work directory
    written as WORK."""
    out = work / "out" / name
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               RANKDIFF_LOG=log_level, XDG_CACHE_HOME=str(cache))
    proc = subprocess.run(
        [sys.executable, "-m", "rankdiff",
         *(a.format(out=out, work=work) for a in argv)],
        cwd=checkout, env=env, capture_output=True)
    result = streams(proc, work)
    for path in sorted(out.rglob("*")) if out.is_dir() else ():
        if path.is_file():
            data = path.read_bytes()
            if path.name == "run_manifest.json":
                manifest = json.loads(data)
                manifest.pop("timestamp")
                data = json.dumps(manifest, indent=1, sort_keys=True).encode()
            result[f"file {path.relative_to(out).as_posix()}"] = hide(data,
                                                                      work)
    return result


def run_demo(checkout: Path, work: Path, demo: str) -> dict[str, bytes]:
    """Run ``demos/<demo>`` of one checkout with its ``src``; its exit code,
    stdout and stderr, or only that it is missing."""
    script = checkout / "demos" / demo
    if not script.is_file():
        return {"missing": b""}
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               XDG_CACHE_HOME=str(work / "cache-demos"))
    return streams(subprocess.run([sys.executable, str(script)],
                                  cwd=checkout, env=env, capture_output=True),
                   work)


def differences(name: str, base: dict[str, bytes],
                change: dict[str, bytes]) -> list[str]:
    """One report per part that differs: missing on a side, or its diff."""
    reports = []
    for part in sorted(base.keys() | change.keys()):
        old, new = base.get(part), change.get(part)
        if old == new:
            continue
        if old is None or new is None:
            side = "base" if old is None else "change"
            reports.append(f"DIFF {name}: {part}: missing in {side}")
            continue
        diff = difflib.unified_diff(
            old.decode(errors="replace").splitlines(),
            new.decode(errors="replace").splitlines(),
            "base", "change", lineterm="", n=1)
        lines = list(diff)
        shown = "\n".join(lines[:40] + (["..."] if len(lines) > 40 else []))
        reports.append(f"DIFF {name}: {part}\n{shown}")
    return reports


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, change, data_dir, run_cfg = (Path(a).resolve() for a in argv)
    found = runs = files = 0
    commands = matrix(data_dir, run_cfg)
    with tempfile.TemporaryDirectory(prefix="sweep-") as tmp:
        checkouts = [(base, Path(tmp) / "base"),
                     (change, Path(tmp) / "change")]
        for _, work in checkouts:
            work.mkdir()
            (work / "cache-file").write_text("not a directory")
            make_error_inputs(data_dir, work)

        def compare(name: str, command: list[str], log_level: str,
                    state: str, cache: str) -> None:
            nonlocal found, runs, files
            label = f"{name} RANKDIFF_LOG={log_level} cache={state}"
            results = [run(checkout, work, name, command, log_level,
                           work / cache) for checkout, work in checkouts]
            runs += 1
            files += len(results[1]) - 3
            for report in differences(label, *results):
                print(report, flush=True)
                found += 1
            for _, work in checkouts:
                if name == EXPORT:
                    make_partial_table(work)
                else:
                    shutil.rmtree(work / "out" / name, ignore_errors=True)

        def clear(cache: str) -> None:
            for _, work in checkouts:
                shutil.rmtree(work / cache, ignore_errors=True)

        for name, command in commands:
            for log_level in LOG_LEVELS:
                clear("cache")
                # the empty cache, then the one it left, then a file
                for state in CACHE_STATES:
                    compare(name, command, log_level, state,
                            "cache-file" if state == "file" else "cache")
        for log_level in LOG_LEVELS:
            clear("cache-shared")
            for name, command in commands:
                compare(name, command, log_level, "shared", "cache-shared")
        demos = sorted({p.name for checkout, _ in checkouts
                        for p in (checkout / "demos").glob("*.py")})
        for demo in demos:
            results = [run_demo(checkout, work, demo)
                       for checkout, work in checkouts]
            runs += 1
            for report in differences(f"demo {demo}", *results):
                print(report, flush=True)
                found += 1
    print(f"{runs} runs in each checkout, {files} output files compared, "
          f"{found} difference(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
