"""Checks of the CLI's outputs against the reference computation and the
README formulas.

Each function returns a list of problems; an empty list means the output
passed. Ranks, percentiles, quartiles and shifts are re-derived here from
the README: ranks are score-descending with ties broken by unit id in
natural order, ``percentile = 100 * (n - rank) / (n - 1)`` rounded half away
from zero to 1 decimal, ``quartile = ceil(4 * rank / n)``,
``rank_shift = fss_rank - mncs_rank`` and ``pct_shift`` the rounded
difference of the unrounded percentiles.
"""
from __future__ import annotations

import csv
import hashlib
import itertools
import math
import re
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from scipy import stats

from reference import Reference, UnitRef

SCORE_RTOL = 1e-9
# a reference score and the program's may differ in the last bits (another
# summation order); scores closer than this are an unresolved tie
TIE_RTOL = 1e-9
# correlations are printed to 6 decimals
CORR_ATOL = 5.01e-7
# near-tie resolutions tried per indicator and scope
MAX_RESOLUTIONS = 200
COMPARISON_HEADER = ["university", "staff", "fss_score", "fss_rank", "fss_pct",
                     "mncs_score", "mncs_rank", "mncs_pct", "rank_shift",
                     "pct_shift", "q_fss", "q_mncs"]


def natural_key(unit_id: str) -> tuple:
    return tuple((0, int(p)) if p.isdigit() else (1, p)
                 for p in re.split(r"(\d+)", unit_id))


def round_half_away(x: float) -> float:
    return float(Decimal(repr(x)).quantize(Decimal("0.1"),
                                           rounding=ROUND_HALF_UP))


def slug(scope: str | None) -> str:
    return "overall" if scope is None else scope.replace("/", "_")


def read_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        return list(reader.fieldnames or []), list(reader)


def close(a: float, b: float, rtol: float = SCORE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) or a == b


def output_digest(out_dir: Path) -> str:
    """Hash of every output file except the manifest, which holds a clock."""
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.parent.name != "manifest":
            h.update(str(path.relative_to(out_dir)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def check_validate(stdout: str, ref: Reference) -> list[str]:
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "VALID":
        return [f"validate did not print VALID: {lines[:1]}"]
    counts = {}
    for line in lines[1:]:
        key, _, value = line.strip().partition(": ")
        counts[key] = int(value)
    if counts != ref.row_counts:
        return [f"validate counts {counts} != CSV rows {ref.row_counts}"]
    return []


def check_baselines(path: Path, ref: Reference) -> list[str]:
    _, rows = read_csv(path)
    got = {(int(r["year"]), r["category"]):
           (float(r["mean"]), int(r["cited_count"]), int(r["total_count"]))
           for r in rows}
    if set(got) != set(ref.baselines):
        return [f"{path.name}: cells differ from the reference"]
    bad = [k for k, (mean, cited, total) in got.items()
           if not close(mean, ref.baselines[k][0])
           or (cited, total) != ref.baselines[k][1:]]
    return [f"{path.name}: {len(bad)} cell(s) differ, e.g. {bad[0]}"] if bad else []


def check_scoreboards(out_dir: Path, boards: dict[str | None, dict[str, UnitRef]],
                      level: str, indicator: str) -> list[str]:
    problems = []
    expected = {f"scoreboard_{level}_{slug(s)}.csv": s for s in boards}
    found = {p.name for p in (out_dir / "scoreboards").glob("*.csv")}
    if found != set(expected):
        return [f"scoreboard files: {len(found)} written, {len(expected)} "
                f"expected ({sorted(found ^ set(expected))[:3]} differ)"]
    kinds = ("fss", "mncs") if indicator == "both" else (indicator,)
    for name, scope in sorted(expected.items()):
        _, rows = read_csv(out_dir / "scoreboards" / name)
        units = boards[scope]
        want = [(kind, u) for kind in kinds for u in sorted(units)]
        got = [(r["indicator"], r["university_id"]) for r in rows]
        if got != want:
            problems.append(f"{name}: rows {got[:3]} != expected {want[:3]}")
            continue
        for r in rows:
            u = units[r["university_id"]]
            if r["level"] != level or r["scope_code"] != (scope or ""):
                problems.append(f"{name}: wrong level/scope in {r}")
            elif r["indicator"] == "fss":
                if not close(float(r["score"]), u.fss) \
                        or int(r["research_staff_or_weight"]) != u.staff:
                    problems.append(f"{name}: FSS of {r['university_id']} "
                                    f"{r['score']} != {u.fss!r} (staff {u.staff})")
            elif not close(float(r["score"]), u.mncs) \
                    or not close(float(r["research_staff_or_weight"]), u.weight):
                problems.append(f"{name}: MNCS of {r['university_id']} "
                                f"{r['score']} != {u.mncs!r}")
    return problems


def snap_ties(scores: dict[str, float], tie_rtol: float) -> dict[str, float]:
    """Scores within ``tie_rtol`` of their neighbour made equal.

    Units the program scores identically (say, two units whose only paper is
    the same) can differ here in the last bit, as this module sums in
    another order; snapping restores the tie before ranks are compared.
    """
    order = sorted(scores, key=lambda u: -scores[u])
    snapped = {}
    for prev, u in zip([None] + order, order):
        snapped[u] = (snapped[prev] if prev is not None
                      and close(scores[prev], scores[u], tie_rtol)
                      else scores[u])
    return snapped


def allowed_ranks(scores: dict[str, float], tie_rtol: float
                  ) -> dict[str, tuple[int, int]]:
    """Rank range each unit may hold under the README tie rule.

    With ``tie_rtol == 0`` (scores the program read, not computed) ties
    break by unit id in natural order and every rank is exact. Otherwise
    a block of scores within ``tie_rtol`` may come in any order, as the
    reference cannot tell an exact tie from a last-bit difference.
    """
    snapped = snap_ties(scores, tie_rtol)
    order = sorted(scores, key=lambda u: (-snapped[u], natural_key(u)))
    ranges = {}
    start = 0
    for i, u in enumerate(order):
        if i + 1 == len(order) or snapped[order[i + 1]] != snapped[u]:
            for k, v in enumerate(order[start:i + 1], start=start + 1):
                ranges[v] = (k, k) if tie_rtol == 0 else (start + 1, i + 1)
            start = i + 1
    return ranges


def check_comparison(path: Path, fss: dict[str, float], mncs: dict[str, float],
                     staff: dict[str, int] | None, tie_rtol: float) -> list[str]:
    """One comparison CSV against independent scores."""
    header, rows = read_csv(path)
    if header != COMPARISON_HEADER:
        return [f"{path.name}: header {header}"]
    n = len(rows)
    units = [r["university"] for r in rows]
    if sorted(units) != sorted(fss):
        return [f"{path.name}: units differ from the reference"]
    problems = []
    fss_ranks = [int(r["fss_rank"]) for r in rows]
    if fss_ranks != list(range(1, n + 1)):
        problems.append(f"{path.name}: rows are not FSS ranks 1..{n} in order")
    if sorted(int(r["mncs_rank"]) for r in rows) != list(range(1, n + 1)):
        problems.append(f"{path.name}: MNCS ranks are not 1..{n}")
    ok_f = allowed_ranks(fss, tie_rtol)
    ok_m = allowed_ranks(mncs, tie_rtol)
    for r in rows:
        u = r["university"]
        fr, mr = int(r["fss_rank"]), int(r["mncs_rank"])
        fp = 100.0 * (n - fr) / (n - 1)
        mp = 100.0 * (n - mr) / (n - 1)
        want = {
            "staff": "" if staff is None else str(staff[u]),
            "fss_pct": round_half_away(fp), "mncs_pct": round_half_away(mp),
            "rank_shift": fr - mr, "pct_shift": round_half_away(mp - fp),
            "q_fss": math.ceil(4 * fr / n), "q_mncs": math.ceil(4 * mr / n),
        }
        got = {"staff": r["staff"], "fss_pct": float(r["fss_pct"]),
               "mncs_pct": float(r["mncs_pct"]),
               "rank_shift": int(r["rank_shift"]),
               "pct_shift": float(r["pct_shift"]),
               "q_fss": int(r["q_fss"]), "q_mncs": int(r["q_mncs"])}
        bad = [k for k in want if want[k] != got[k]]
        for col, value in (("fss_score", fss[u]), ("mncs_score", mncs[u])):
            # printed to 3 decimals
            if abs(float(r[col]) - value) > 0.0005 * (1 + 1e-9) + 1e-12:
                bad.append(col)
        if not ok_f[u][0] <= fr <= ok_f[u][1]:
            bad.append("fss_rank")
        if not ok_m[u][0] <= mr <= ok_m[u][1]:
            bad.append("mncs_rank")
        if bad:
            problems.append(f"{path.name}: {u} wrong {', '.join(bad)}")
    return problems[:5]


def weak_orders(items: tuple[str, ...]):
    """Every ordering of ``items`` into groups of equals, best group first."""
    if not items:
        yield []
        return
    for k in range(1, len(items) + 1):
        for first in itertools.combinations(items, k):
            rest = tuple(u for u in items if u not in first)
            for tail in weak_orders(rest):
                yield [first] + tail


def tie_resolutions(scores: dict[str, float], tie_rtol: float
                    ) -> list[dict[str, float]]:
    """Every way the program may have resolved the reference's near ties.

    A block of scores within ``tie_rtol`` of each other may hold exact ties
    and last-bit differences in any pattern (blocks of up to 4 units; larger
    ones are taken as one tie, ascending or descending). Exact zeros are
    always a tie: both sides compute them exactly. With ``tie_rtol == 0``
    the scores are the floats the program read, and ties are what they are.
    """
    if tie_rtol == 0:
        return [scores]
    snapped = snap_ties(scores, tie_rtol)
    blocks: dict[float, list[str]] = {}
    for u in sorted(snapped, key=natural_key):
        blocks.setdefault(snapped[u], []).append(u)
    choices = []
    for value, block in blocks.items():
        if len(block) < 2 or value == 0.0:
            continue
        if len(block) <= 4:
            choices.append(list(weak_orders(tuple(block))))
        else:
            choices.append([[tuple(block)], [(u,) for u in block],
                            [(u,) for u in reversed(block)]])
    resolutions = []
    for combo in itertools.islice(itertools.product(*choices), MAX_RESOLUTIONS):
        values = dict(snapped)
        for groups in combo:
            step = abs(values[groups[0][0]]) * 1e-12
            for k, group in enumerate(groups):
                for u in group:
                    values[u] -= k * step
        resolutions.append(values)
    return resolutions


def check_correlations(row: dict[str, str], fss: dict[str, float],
                       mncs: dict[str, float], tie_rtol: float) -> list[str]:
    """A shift-summary row's Pearson and Spearman against scipy.

    Spearman depends on which scores tie exactly; it passes if it matches
    scipy under one resolution of the reference's near ties.
    """
    scope = row["scope"]
    units = sorted(fss)
    if int(row["n_units"]) != len(units):
        return [f"summary {scope}: n_units {row['n_units']} != {len(units)}"]
    defined = (len(units) >= 3 and len(set(fss.values())) > 1
               and len(set(mncs.values())) > 1)
    if not defined:
        if row["pearson"] or row["spearman"]:
            return [f"summary {scope}: correlations printed for a "
                    f"degenerate population"]
        return []
    if not row["pearson"] or not row["spearman"]:
        return [f"summary {scope}: correlations missing"]
    problems = []
    pearson = stats.pearsonr([fss[u] for u in units],
                             [mncs[u] for u in units]).statistic
    if abs(float(row["pearson"]) - pearson) > CORR_ATOL:
        problems.append(f"summary {scope}: pearson {row['pearson']} "
                        f"!= {pearson:.7f}")
    printed = float(row["spearman"])
    spearmans = (stats.spearmanr([f[u] for u in units],
                                 [m[u] for u in units]).statistic
                 for f in tie_resolutions(fss, tie_rtol)
                 for m in tie_resolutions(mncs, tie_rtol))
    if not any(abs(printed - v) <= CORR_ATOL for v in spearmans):
        problems.append(f"summary {scope}: spearman {row['spearman']} matches "
                        f"no resolution of near ties")
    return problems


def check_compare(out_dir: Path, level: str,
                  scopes: dict[str, tuple[dict[str, float], dict[str, float],
                                          dict[str, int] | None]],
                  tie_rtol: float = TIE_RTOL) -> list[str]:
    """Comparison CSVs and shift summary of one ``compare`` run.

    ``scopes`` maps each expected label to (fss, mncs, staff) by unit.
    """
    problems = []
    expected = {f"comparison_{level}_{slug(label)}.csv": label
                for label in scopes}
    found = {p.name for p in (out_dir / "comparisons").glob("*.csv")}
    if found != set(expected):
        return [f"comparison files: {len(found)} written, {len(expected)} "
                f"expected ({sorted(found ^ set(expected))[:3]} differ)"]
    for name, label in sorted(expected.items()):
        fss, mncs, staff = scopes[label]
        problems += check_comparison(out_dir / "comparisons" / name, fss, mncs,
                                     staff, tie_rtol)
    _, summary = read_csv(out_dir / "summaries" / f"shift_summary_{level}.csv")
    if sorted(r["scope"] for r in summary) != sorted(scopes):
        return problems + ["shift summary scopes differ from the comparisons"]
    for row in summary:
        fss, mncs, _ = scopes[row["scope"]]
        problems += check_correlations(row, fss, mncs, tie_rtol)
    return problems


def corpus_compare_scopes(boards: dict[str | None, dict[str, UnitRef]]):
    """The scopes ``compare`` ranks: boards with at least two units."""
    return {("overall" if scope is None else scope):
            ({u: r.fss for u, r in units.items()},
             {u: r.mncs for u, r in units.items()},
             {u: r.staff for u, r in units.items()})
            for scope, units in boards.items() if len(units) >= 2}
