"""Running the CLI and checking what it wrote: shared by the timed and the
traced run."""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import Op, Result


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               RANKDIFF_LOG="error")
    return env


class ChildRunner:
    """Runs ``python -m rankdiff ARGV`` and records the child's own peak RSS."""

    def __init__(self, root: Path, work: Path):
        self.env = child_env(root)
        self.cwd = root
        self.capture = work / "child"

    def __call__(self, argv: list[str]) -> Result:
        with open(f"{self.capture}.out", "w+b") as out, \
                open(f"{self.capture}.err", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "rankdiff", *argv],
                                    stdout=out, stderr=err, env=self.env,
                                    cwd=self.cwd)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Result(proc.returncode, out.read().decode(),
                          err.read().decode(), seconds, usage.ru_maxrss)


class Verifier:
    """Checks each command's first outputs in full; later passes must
    reproduce them byte for byte."""

    def __init__(self):
        self.first: dict[str, tuple[str, list[str]]] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def __call__(self, op: Op, res: Result) -> None:
        digest = f"{res.returncode}\0{res.stdout}\0{res.stderr}\0" + (
            checks.output_digest(op.out) if op.out and op.out.exists() else "")
        if op.name not in self.first:
            self.first[op.name] = (digest, op.check(res))
        first_digest, problems = self.first[op.name]
        if digest != first_digest:
            problems = problems + ["outputs differ from the first pass"]
        self.attempted += 1
        if problems:
            self.failed += 1
            if not op.known_fault:
                self.correct = False
            for p in problems:
                if f"{op.name}: {p}" not in self.problems:
                    self.problems.append(f"{op.name}: {p}")


def run_pass(ops: list[Op], run) -> tuple[float, list[Result]]:
    """One pass over the command list; only the commands are timed."""
    for op in ops:
        if op.out is not None and op.out.exists():
            shutil.rmtree(op.out)
    start = time.perf_counter()
    results = [run(op.argv) for op in ops]
    return time.perf_counter() - start, results
