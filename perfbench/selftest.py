"""Tests of the benchmark's own checks, at the quick scale.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload's commands once through the timed and the traced
run, each with its checks, and then corrupts copies of real outputs to see
that each check counts them as failed: two swapped ranks in a comparison
CSV, a score changed in its seventh digit, a wrong Spearman, a wrong
validate count and outputs that change between passes. Exits 1 if any
test fails.
"""
from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
from harness import ChildRunner, Verifier, run_pass
from workloads import NAN_TABLE, NAN_UNIT, Result, Workload

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work" / "selftest"
failures: list[str] = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}"
          + (f": {detail}" if detail and not ok else ""))
    if not ok:
        failures.append(name)


def run_benchmark(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--scale", "quick"], capture_output=True, text=True, cwd=ROOT)
    name = f"{workload} trace={trace} runs and checks"
    if proc.returncode != 0:
        expect(name, False, proc.stderr[-500:])
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    per_pass = 7 if workload == "replay" else 1
    known = 1 if workload == "replay" else 0
    expect(name, result["correct"]
           and result["failed"] * per_pass == known * result["attempted"],
           json.dumps(result)[:300] + proc.stderr[-300:])


def rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(rows)


def corruption_tests() -> None:
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir(parents=True)
    run = ChildRunner(ROOT, WORK)
    national = Workload("national", ROOT, WORK / "national", 1, "quick")
    national.setup(run)
    replay = Workload("replay", ROOT, WORK / "replay", 1, "quick")
    replay.setup(run)
    ops = {op.name: op for wl in (national, replay) for op in wl.ops()}
    _, results = run_pass(list(ops.values()), run)
    results = dict(zip(ops, results))
    for name, op in ops.items():
        problems = op.check(results[name])
        expect(f"clean output passes: {name}",
               bool(problems) == op.known_fault, "; ".join(problems[:3]))

    def corrupted(name: str, label: str, path: Path, edit) -> None:
        saved = path.read_bytes()
        rewrite_csv(path, edit)
        problems = ops[name].check(results[name])
        path.write_bytes(saved)
        expect(f"corruption counted as failed: {label}", bool(problems))

    def swap_ranks(col):
        def edit(rows):
            k = rows[0].index(col)
            rows[1][k], rows[2][k] = rows[2][k], rows[1][k]
        return edit

    cmp_uda = sorted((ops["compare_uda"].out / "comparisons").glob("*.csv"))[0]
    corrupted("compare_uda", "swapped MNCS ranks", cmp_uda,
              swap_ranks("mncs_rank"))
    corrupted("compare_uda", "swapped FSS ranks", cmp_uda,
              swap_ranks("fss_rank"))
    chim = ops["ref_field_chim08"].out / "comparisons" / \
        "comparison_replay_ref_field_chim08.csv"
    corrupted("ref_field_chim08", "swapped replay ranks", chim,
              swap_ranks("mncs_rank"))

    def nudge_score(rows):
        k = rows[0].index("score")
        rows[1][k] = repr(float(rows[1][k]) * (1 + 1e-6))
    board = sorted((ops["score_sds_both"].out / "scoreboards").glob("*.csv"))[0]
    corrupted("score_sds_both", "score off by 1e-6", board, nudge_score)

    def shift_spearman(rows):
        k = rows[0].index("spearman")
        rows[1][k] = f"{float(rows[1][k]) - 0.01:.6f}"
    corrupted("compare_uda", "Spearman off by 0.01",
              ops["compare_uda"].out / "summaries" / "shift_summary_uda.csv",
              shift_spearman)

    res = results["validate"]
    lines = res.stdout.splitlines()
    lines[2] = lines[2].rsplit(" ", 1)[0] + " 1"
    wrong = Result(0, "\n".join(lines), res.stderr, res.seconds)
    expect("corruption counted as failed: validate count",
           bool(ops["validate"].check(wrong)))

    nan = ops[NAN_TABLE]
    table = nan.argv[2]
    units = [r["unit"] for r in checks.read_csv(Path(table))[1]]
    line = 2 + units.index(NAN_UNIT)
    fixed = Result(2, "", f"error: {table}:{line}: non-finite score\n", 1.0)
    expect("a CLI that rejects the nan table with file and line passes",
           not nan.check(fixed))

    verify = Verifier()
    op = ops["compare_overall"]
    verify(op, results["compare_overall"])
    rewrite_csv(sorted((op.out / "summaries").glob("dispersion_*.csv"))[0],
                lambda rows: rows.append(rows[-1]))
    verify(op, results["compare_overall"])
    expect("outputs that change between passes count as failed",
           verify.failed == 1 and not verify.correct)


def main() -> int:
    for workload in ("national", "fine_fields", "replay"):
        for trace in (0, 1):
            run_benchmark(workload, trace)
    corruption_tests()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
