"""Benchmark of the rankdiff CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload national --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it generates the workload's inputs from the seed, then
runs passes over the workload's command list as ``python -m rankdiff ...``
children, one at a time, until ``--seconds`` are used, and generates the
inputs twice more between passes, timing each set-up. It checks every
output and prints, as its last line, one JSON object with the end-to-end
metrics. With ``--trace 1`` it runs the same commands in process through
``rankdiff.cli.main`` with spans around the library calls and prints the
per-layer metrics instead (see ``tracing.py``).

``--scale quick`` runs small inputs, for trying the benchmark in seconds.
"""
from __future__ import annotations

import os

# numpy in the children and here stays on one thread: the machine this
# benchmark targets has 2 cores, and the CLI is a single-process batch tool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import ChildRunner, Verifier, run_pass  # noqa: E402
from workloads import SIZES, Workload  # noqa: E402

WORKLOADS = ("national", "fine_fields", "replay")
SETUP_REPEATS = 3
MIN_PASSES = 2
WORK_DIR = ".perfbench_work"
# a run must end well within 180 s, whatever the machine does
DEADLINE_S = 170


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline("benchmark deadline reached")


def timed_run(wl: Workload, root: Path, work: Path, seconds: float) -> dict:
    """Set-ups and passes; the set-up repeats run between passes, so that
    their median, like the passes', spans the whole run."""
    run = ChildRunner(root, work)
    repeat = Workload(wl.name, root, work / "setup-repeat", wl.seed, wl.scale)
    setup_times = []

    def setup(target: Workload) -> None:
        start = time.perf_counter()
        target.setup(run)
        setup_times.append(time.perf_counter() - start)

    setup(wl)
    ops = wl.ops()
    verify = Verifier()
    passes = []
    used = 0.0      # pass and check time; set-ups do not count
    while True:
        start = time.perf_counter()
        wall, results = run_pass(ops, run)
        passes.append((wall, results))
        for op, res in zip(ops, results):
            verify(op, res)
        used += time.perf_counter() - start
        if len(setup_times) < SETUP_REPEATS:
            setup(repeat)
        # whole passes, at least two, until the next would overrun
        if len(passes) >= MIN_PASSES and used + wall > seconds:
            break
    while len(setup_times) < SETUP_REPEATS:
        setup(repeat)

    pass_times = [wall for wall, _ in passes]
    peak_kb = max(r.maxrss_kb for _, results in passes for r in results)
    return {
        "verify": verify,
        "metrics": {
            "setup_s": (statistics.median(setup_times), "s"),
            "pass_s": (statistics.median(pass_times), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        },
        "detail": {"setup_times_s": setup_times, "pass_times_s": pass_times,
                   "ops": [op.name for op in ops]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SIZES), default="bench")
    args = parser.parse_args(argv)

    root = Path.cwd()
    package = root / "src" / "rankdiff"
    if not (package / "__init__.py").is_file() \
            or not (root / "tests" / "data").is_dir():
        print(f"error: run from the root of a rankdiff checkout "
              f"({package} not found)", file=sys.stderr)
        return 2
    work = root / WORK_DIR / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    # byte-compile once, untimed, as an installed package would be
    compileall.compile_dir(str(package), quiet=1)

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        wl = Workload(args.workload, root, work, args.seed, args.scale)
        if args.trace:
            import tracing
            outcome = tracing.traced_run(wl, root, work, args.seconds)
        else:
            outcome = timed_run(wl, root, work, args.seconds)
    finally:
        signal.alarm(0)

    verify: Verifier = outcome["verify"]
    for problem in verify.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": verify.correct,
        "attempted": verify.attempted,
        "failed": verify.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, scale=args.scale,
                  problems=verify.problems, detail=outcome["detail"])
    suffix = "trace" if args.trace else "result"
    (root / WORK_DIR / f"{suffix}-{args.workload}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
