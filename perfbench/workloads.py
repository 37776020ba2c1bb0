"""The benchmark's workloads: their inputs, their command lists and the
check each command's outputs must pass.

Inputs come from ``--seed`` only: synthetic corpora from ``rankdiff synth``
and replay score tables from ``rankdiff score`` over such a corpus. Sizes
are fixed per workload, so the seed changes the data and not the amount of
work.
"""
from __future__ import annotations

import csv
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from reference import Reference, read_run_settings

RUN_CONFIG = """\
start_year = 2008
end_year = 2012
citation_snapshot_label = synthetic
min_years_on_staff = 3
excluded_doc_types = editorial material, meeting abstract, reply to letter
min_professors_sds = 2
min_professors_uda = 10
min_professors_overall = 30
min_units_to_rank = 5
"""

# (universities, SDS per UDA, professors per university and SDS,
#  publications per professor)
SIZES = {
    "bench": {
        "national": (60, [22] * 1 + [21] * 8, (0, 2), 1.2),
        "fine_fields": (24, [27] * 6 + [26] * 8, (0, 3), 1.2),
        "replay": (90, [10, 8, 6], (0, 3), 1.0),
    },
    "quick": {
        "national": (12, [7, 7, 6], (1, 4), 2.0),
        "fine_fields": (8, [10] * 4, (0, 3), 0.6),
        "replay": (30, [10, 8, 6], (0, 3), 2.0),
    },
}

BUNDLED_TABLES = ("ref_field_chim08", "ref_uda_chemistry", "ref_overall")
NAN_TABLE = "nan_scores"
NAN_SOURCE = "ref_field_chim08"
NAN_UNIT = "UNIV_4"


@dataclass
class Result:
    returncode: int
    stdout: str
    stderr: str
    seconds: float
    maxrss_kb: int = 0


Runner = Callable[[list[str]], Result]


@dataclass
class Op:
    """One CLI command of a pass and the check of its outputs."""
    name: str
    argv: list[str]
    out: Path | None
    check: Callable[[Result], list[str]]
    known_fault: bool = False       # fails today because of a program fault


def synth_config(seed: int, size: tuple) -> dict:
    n_univ, sds_per_uda, per_sds, per_prof = size
    return {
        "seed": seed,
        "n_universities": n_univ,
        "sds": [{"sds": f"F{u + 1:02d}/{k + 1:02d}", "uda": f"{u + 1:02d}"}
                for u, n in enumerate(sds_per_uda) for k in range(n)],
        "professors_per_sds": list(per_sds),
        "pubs_per_professor": per_prof,
        "citation_dispersion": 1.0,
        "quantity_impact_corr": 0.5,
        "salaries": {"assistant": 45000, "associate": 60000, "full": 80000},
        "window": {"start_year": 2008, "end_year": 2012, "label": "synthetic"},
    }


def _ok(problems_if_ok: Callable[[Result], list[str]]):
    def check(res: Result) -> list[str]:
        if res.returncode != 0:
            return [f"exit code {res.returncode}: {res.stderr.strip()[-300:]}"]
        return problems_if_ok(res)
    return check


class Workload:
    """Inputs under ``work/inputs``; each command writes ``work/out/<op>``."""

    def __init__(self, name: str, root: Path, work: Path, seed: int,
                 scale: str):
        self.name = name
        self.root = root
        self.work = work
        self.seed = seed
        self.scale = scale
        self.size = SIZES[scale][name]
        self.inputs = work / "inputs"
        self.config = self.inputs / "run.cfg"
        self.data = self.inputs / "corpus"

    def setup(self, run: Runner) -> None:
        """Generate the inputs: the part of a run ``setup_s`` times."""
        if self.inputs.exists():
            shutil.rmtree(self.inputs)
        self.inputs.mkdir(parents=True)
        self.config.write_text(RUN_CONFIG, encoding="utf-8")
        synth_json = self.inputs / "synth.json"
        synth_json.write_text(json.dumps(synth_config(self.seed, self.size)),
                              encoding="utf-8")
        self._cli(run, ["synth", str(synth_json), "--out", str(self.data)])
        if self.name == "replay":
            self._write_tables(run)

    def _cli(self, run: Runner, argv: list[str]) -> None:
        res = run(argv)
        if res.returncode != 0:
            raise RuntimeError(f"setup command {argv[0]} failed "
                               f"({res.returncode}): {res.stderr.strip()[-300:]}")

    def _write_tables(self, run: Runner) -> None:
        """Seeded tables: the UDA scoreboards of the synthetic corpus."""
        scores = self.inputs / "scores"
        self._cli(run, ["score", str(self.data), "--config", str(self.config),
                        "--level", "uda", "--out", str(scores)])
        for board in sorted((scores / "scoreboards").glob("*.csv")):
            by_unit: dict[str, dict[str, str]] = {}
            for row in checks.read_csv(board)[1]:
                by_unit.setdefault(row["university_id"], {})[
                    row["indicator"]] = row["score"]
            self._write_table(board.stem.replace("scoreboard_uda_", "seeded_"),
                              [(u, s["fss"], s["mncs"])
                               for u, s in sorted(by_unit.items())])
        # the one input that does not depend on the seed: a bundled table
        # with one MNCS score replaced by nan
        rows = checks.read_csv(self._bundled(NAN_SOURCE))[1]
        self._write_table(NAN_TABLE, [
            (r["unit"], r["fss_score"],
             "nan" if r["unit"] == NAN_UNIT else r["mncs_score"])
            for r in rows])

    def _write_table(self, stem: str, rows: list[tuple[str, str, str]]) -> None:
        with open(self.inputs / f"{stem}.csv", "w", newline="",
                  encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["unit", "fss_score", "mncs_score"])
            w.writerows(rows)

    def _bundled(self, stem: str) -> Path:
        return self.root / "tests" / "data" / f"{stem}.csv"

    def ops(self) -> list[Op]:
        """The command list of one pass, with a check for each command."""
        out = self.work / "out"
        corpus_args = [str(self.data), "--config", str(self.config)]
        if self.name == "replay":
            return self._replay_ops(out)
        ref = Reference(self.data, read_run_settings(self.config))

        def score(level, indicator, baselines=False):
            argv = ["score", *corpus_args, "--level", level,
                    "--indicator", indicator]
            name = f"score_{level}_{indicator}"

            def check(res):
                problems = checks.check_scoreboards(
                    out / name, ref.boards(level, indicator), level, indicator)
                if baselines:
                    problems += checks.check_baselines(
                        out / name / "summaries" / "baselines.csv", ref)
                return problems
            return Op(name, argv + (["--export-baselines"] if baselines else [])
                      + ["--out", str(out / name)], out / name, _ok(check))

        def compare(level):
            name = f"compare_{level}"
            return Op(name, ["compare", *corpus_args, "--level", level,
                             "--out", str(out / name)], out / name,
                      _ok(lambda res: checks.check_compare(
                          out / name, level,
                          checks.corpus_compare_scopes(ref.boards(level)))))

        if self.name == "national":
            return [Op("validate", ["validate", *corpus_args], None,
                       _ok(lambda res: checks.check_validate(res.stdout, ref))),
                    score("sds", "both", baselines=True),
                    compare("uda"), compare("overall")]
        return [compare("sds"), score("uda", "mncs")]

    def _replay_ops(self, out: Path) -> list[Op]:
        tables = [self._bundled(stem) for stem in BUNDLED_TABLES]
        tables += sorted(self.inputs.glob("seeded_*.csv"))
        ops = [self._replay_op(t, out) for t in tables]
        nan_table = self.inputs / f"{NAN_TABLE}.csv"
        nan_line = 2 + [r["unit"] for r in checks.read_csv(nan_table)[1]
                        ].index(NAN_UNIT)

        def rejects_nan(res: Result) -> list[str]:
            # the CLI should refuse the table, naming file and line
            if res.returncode in (1, 2) and f"{nan_table}:{nan_line}" in res.stderr:
                return []
            return [f"exit code {res.returncode} on a nan score at "
                    f"{nan_table.name}:{nan_line} (expected 1 or 2 and a "
                    f"message naming the file and line)"]
        ops.append(Op(NAN_TABLE, ["compare", "--from-scores", str(nan_table),
                                  "--label", NAN_TABLE,
                                  "--out", str(out / NAN_TABLE)],
                      out / NAN_TABLE, rejects_nan, known_fault=True))
        return ops

    def _replay_op(self, table: Path, out: Path) -> Op:
        label = table.stem
        rows = checks.read_csv(table)[1]
        fss = {r["unit"]: float(r["fss_score"]) for r in rows}
        mncs = {r["unit"]: float(r["mncs_score"]) for r in rows}
        # the program ranks exactly the floats it reads: no tolerance
        return Op(label, ["compare", "--from-scores", str(table), "--label",
                          label, "--out", str(out / label)], out / label,
                  _ok(lambda res: checks.check_compare(
                      out / label, "replay", {label: (fss, mncs, None)},
                      tie_rtol=0.0)))
