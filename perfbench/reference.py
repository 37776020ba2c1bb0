"""FSS and MNCS computed apart from the program, for checking its outputs.

Built from the five corpus CSVs and the definitions in the repository
README, with numpy. Nothing here imports ``rankdiff``: a fault shared by the
program and this module would otherwise go unseen.

Definitions used (README, "FSS", "MNCS", "Corpus files"):

- filters drop professors with ``years_on_staff < min_years_on_staff``,
  publications outside the window and publications of an excluded doc type;
  the baseline population is every kept publication;
- a (year, category) baseline is the mean citation count of its cited
  publications; a publication's factor is the mean of its cells' baselines
  and its normalized impact is ``citations / factor`` (0 when uncited); a
  publication with any cell lacking a baseline has no impact and is skipped;
- professor FSS is ``sum(impact / n_authors_total) / (salary * years)``;
  the SDS average is the mean FSS of the SDS's productive (FSS > 0)
  professors, and unit FSS is the mean of ``FSS / SDS average`` over the
  unit's professors whose SDS has an average;
- unit MNCS is ``sum(impact * m / n) / sum(m / n)`` over the unit's
  publications with an impact, where m counts the unit's authors of the
  publication and n its co-authors.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

@dataclass(frozen=True)
class RunSettings:
    start_year: int
    end_year: int
    min_years_on_staff: float
    excluded_doc_types: frozenset[str]
    min_professors: dict[str, int]
    min_units_to_rank: int


def read_run_settings(path: Path) -> RunSettings:
    """Parse the ``key = value`` run config the benchmark writes."""
    raw = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
    return RunSettings(
        start_year=int(raw["start_year"]),
        end_year=int(raw["end_year"]),
        min_years_on_staff=float(raw["min_years_on_staff"]),
        excluded_doc_types=frozenset(
            t.strip() for t in raw["excluded_doc_types"].split(",") if t.strip()),
        min_professors={"sds": int(raw["min_professors_sds"]),
                        "uda": int(raw["min_professors_uda"]),
                        "overall": int(raw["min_professors_overall"])},
        min_units_to_rank=int(raw["min_units_to_rank"]),
    )


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


@dataclass(frozen=True)
class UnitRef:
    fss: float | None
    staff: int | None
    mncs: float | None
    weight: float | None


class Reference:
    """Every scoreboard of one corpus directory under one run config."""

    def __init__(self, data_dir: Path, settings: RunSettings):
        self.settings = settings
        pubs = _rows(data_dir / "publications.csv")
        auths = _rows(data_dir / "authorships.csv")
        profs = _rows(data_dir / "professors.csv")
        fields = _rows(data_dir / "fields.csv")
        salaries = {r["academic_rank"].strip(): float(r["avg_yearly_salary"])
                    for r in _rows(data_dir / "salaries.csv")}
        self.row_counts = {"publications": len(pubs), "authorships": len(auths),
                           "professors": len(profs), "sds": len(fields),
                           "uda": len({r["uda_code"].strip() for r in fields}),
                           "universities": len({r["university_id"].strip()
                                                for r in profs})}
        self.uda_of = {r["sds_code"].strip(): r["uda_code"].strip()
                       for r in fields}

        s = settings
        kept_pubs = [p for p in pubs
                     if s.start_year <= int(p["year"]) <= s.end_year
                     and p["doc_type"].strip() not in s.excluded_doc_types]
        kept_profs = [p for p in profs
                      if float(p["years_on_staff"]) >= s.min_years_on_staff]

        # baselines over the kept (national) population
        cat_lists = [[c.strip() for c in p["subject_categories"].split("|")
                      if c.strip()] for p in kept_pubs]
        cited_sum: dict[tuple[int, str], float] = {}
        cited_n: dict[tuple[int, str], int] = {}
        total_n: dict[tuple[int, str], int] = {}
        for p, cats in zip(kept_pubs, cat_lists):
            year, cites = int(p["year"]), int(p["citations"])
            for cat in cats:
                key = (year, cat)
                total_n[key] = total_n.get(key, 0) + 1
                if cites > 0:
                    cited_sum[key] = cited_sum.get(key, 0.0) + cites
                    cited_n[key] = cited_n.get(key, 0) + 1
        self.baselines = {key: (cited_sum[key] / cited_n[key], cited_n[key],
                                total_n[key]) for key in cited_n}

        # normalized impact per kept publication; nan marks a missing baseline
        pub_index = {p["pub_id"].strip(): i for i, p in enumerate(kept_pubs)}
        impact = np.full(len(kept_pubs), np.nan)
        n_authors = np.array([int(p["n_authors_total"]) for p in kept_pubs],
                             dtype=float)
        for i, (p, cats) in enumerate(zip(kept_pubs, cat_lists)):
            year = int(p["year"])
            means = [self.baselines.get((year, c), (None,))[0] for c in cats]
            if any(m is None for m in means):
                continue
            cites = int(p["citations"])
            impact[i] = 0.0 if cites == 0 else cites / (sum(means) / len(means))

        prof_index = {p["professor_id"].strip(): i
                      for i, p in enumerate(kept_profs)}
        self.prof_univ = [p["university_id"].strip() for p in kept_profs]
        self.prof_sds = [p["sds_code"].strip() for p in kept_profs]
        a_prof, a_pub = [], []
        for a in auths:
            i = pub_index.get(a["pub_id"].strip())
            j = prof_index.get(a["professor_id"].strip())
            if i is not None and j is not None:
                a_pub.append(i)
                a_prof.append(j)
        self.a_prof = np.array(a_prof, dtype=np.int64)
        a_pub_arr = np.array(a_pub, dtype=np.int64)
        a_imp = impact[a_pub_arr]
        self.a_valid = ~np.isnan(a_imp)
        self.a_term = np.where(self.a_valid, a_imp, 0.0) / n_authors[a_pub_arr]
        self.a_weight = np.where(self.a_valid, 1.0, 0.0) / n_authors[a_pub_arr]

        n_prof = len(kept_profs)
        cost = np.array([salaries[p["academic_rank"].strip()]
                         * float(p["years_on_staff"]) for p in kept_profs])
        self.fss_p = np.bincount(self.a_prof, weights=self.a_term,
                                 minlength=n_prof) / cost
        sds_codes = sorted(set(self.prof_sds))
        code_idx = {c: k for k, c in enumerate(sds_codes)}
        sds_idx = np.array([code_idx[c] for c in self.prof_sds], dtype=np.int64)
        productive = self.fss_p > 0
        n_prod = np.bincount(sds_idx[productive], minlength=len(sds_codes))
        sum_prod = np.bincount(sds_idx[productive],
                               weights=self.fss_p[productive],
                               minlength=len(sds_codes))
        self.sds_average = {code: sum_prod[k] / n_prod[k]
                            for k, code in enumerate(sds_codes) if n_prod[k]}

    def scope_of(self, k: int, level: str) -> str | None:
        if level == "sds":
            return self.prof_sds[k]
        if level == "uda":
            return self.uda_of[self.prof_sds[k]]
        return None

    def boards(self, level: str, indicator: str = "both"
               ) -> dict[str | None, dict[str, UnitRef]]:
        """Scope -> unit -> scores, for every rankable scope of a level.

        With ``both``, a unit lacking either indicator is dropped; with one
        indicator, units lacking it are left out.
        """
        keys = [(self.prof_univ[k], self.scope_of(k, level))
                for k in range(len(self.prof_univ))]
        unit_keys = sorted(set(keys), key=lambda u: (u[1] or "", u[0]))
        unit_idx = {u: i for i, u in enumerate(unit_keys)}
        prof_unit = np.array([unit_idx[u] for u in keys], dtype=np.int64)
        n_units = len(unit_keys)
        headcount = np.bincount(prof_unit, minlength=n_units)

        avg = np.array([self.sds_average.get(c, np.nan) for c in self.prof_sds])
        has_avg = ~np.isnan(avg)
        staff = np.bincount(prof_unit[has_avg], minlength=n_units)
        fss_sum = np.bincount(prof_unit[has_avg],
                              weights=self.fss_p[has_avg] / avg[has_avg],
                              minlength=n_units)
        a_unit = prof_unit[self.a_prof]
        num = np.bincount(a_unit, weights=self.a_term, minlength=n_units)
        den = np.bincount(a_unit, weights=self.a_weight, minlength=n_units)
        n_valid = np.bincount(a_unit[self.a_valid], minlength=n_units)

        by_scope: dict[str | None, list[int]] = {}
        for i, (_, scope) in enumerate(unit_keys):
            if headcount[i] >= self.settings.min_professors[level]:
                by_scope.setdefault(scope, []).append(i)
        needed = ("fss", "mncs") if indicator == "both" else (indicator,)
        out: dict[str | None, dict[str, UnitRef]] = {}
        for scope, members in by_scope.items():
            if (level == "sds"
                    and len(members) < self.settings.min_units_to_rank):
                continue
            units = {}
            for i in members:
                fss = (float(fss_sum[i] / staff[i]), int(staff[i])) \
                    if staff[i] else (None, None)
                mncs = (float(num[i] / den[i]), float(den[i])) \
                    if n_valid[i] else (None, None)
                ref = UnitRef(fss[0], fss[1], mncs[0], mncs[1])
                if all(getattr(ref, k) is not None for k in needed):
                    units[unit_keys[i][0]] = ref
            out[scope] = units
        return out
