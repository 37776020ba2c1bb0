"""Publication/staff corpus: loading, validation, filtering, unit eligibility.

The corpus is a closed world: publications, authorships linking them to
professors, professors assigned to exactly one SDS within a university, a
field scheme grouping SDSs into UDAs, and a salary table keyed by academic
rank. Everything downstream (baselines, indicators, rankings) reads from a
validated, filtered Corpus and never mutates it.
"""
from __future__ import annotations

import csv
import hashlib
import io
import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

from .errors import CorpusLoadError, Violation

log = logging.getLogger("rankdiff.corpus")

LEVEL_SDS = "sds"
LEVEL_UDA = "uda"
LEVEL_OVERALL = "overall"
LEVELS = (LEVEL_SDS, LEVEL_UDA, LEVEL_OVERALL)

DEFAULT_EXCLUDED_DOC_TYPES = frozenset(
    {"editorial material", "meeting abstract", "reply to letter"}
)

MAX_VIOLATIONS = 100


@dataclass(frozen=True)
class ObservationWindow:
    start_year: int
    end_year: int
    citation_snapshot_label: str = ""

    def __post_init__(self) -> None:
        if self.end_year < self.start_year:
            raise ValueError(
                f"window end {self.end_year} precedes start {self.start_year}"
            )

    @property
    def n_years(self) -> int:
        return self.end_year - self.start_year + 1

    def contains(self, year: int) -> bool:
        return self.start_year <= year <= self.end_year


@dataclass(frozen=True)
class Publication:
    pub_id: str
    year: int
    doc_type: str
    subject_categories: tuple[str, ...]
    citations: int
    n_authors_total: int


@dataclass(frozen=True)
class Authorship:
    pub_id: str
    professor_id: str


@dataclass(frozen=True)
class Professor:
    professor_id: str
    university_id: str
    sds_code: str
    academic_rank: str
    years_on_staff: float


@dataclass(frozen=True)
class FieldScheme:
    """sds_code -> (name, uda_code) plus uda_code -> name."""

    sds_to_uda: dict[str, str]
    sds_names: dict[str, str] = field(default_factory=dict)
    uda_names: dict[str, str] = field(default_factory=dict)

    def __contains__(self, sds_code: str) -> bool:
        return sds_code in self.sds_to_uda

    def uda_of(self, sds_code: str) -> str:
        return self.sds_to_uda[sds_code]


@dataclass(frozen=True)
class FilterConfig:
    min_years_on_staff: float = 3.0
    excluded_doc_types: frozenset[str] = DEFAULT_EXCLUDED_DOC_TYPES
    min_professors_sds: int = 2
    min_professors_uda: int = 10
    min_professors_overall: int = 30
    min_units_to_rank: int = 5          # applies at SDS level only
    baseline_include_all_doctypes: bool = False

    def __post_init__(self) -> None:
        for f in dc_fields(self):
            value = getattr(self, f.name)
            if type(f.default) in (int, float) and not 0 <= value < math.inf:
                raise ValueError(f"{f.name}: must be finite and >= 0, got {value!r}")

    def as_dict(self) -> dict:
        """JSON-ready snapshot of every setting, for the run manifest."""
        snapshot = {f.name: getattr(self, f.name) for f in dc_fields(self)}
        snapshot["excluded_doc_types"] = sorted(self.excluded_doc_types)
        return snapshot

    def min_professors(self, level: str) -> int:
        return {
            LEVEL_SDS: self.min_professors_sds,
            LEVEL_UDA: self.min_professors_uda,
            LEVEL_OVERALL: self.min_professors_overall,
        }[level]


@dataclass(frozen=True)
class FilterReport:
    professors_removed_tenure: int = 0
    publications_removed_doctype: int = 0
    publications_removed_window: int = 0
    authorships_removed: int = 0


@dataclass(frozen=True)
class EligibleUnit:
    university_id: str
    scope_code: str | None      # None at overall level
    professor_count: int


class Corpus:
    """Validated, immutable-by-convention snapshot of the dataset.

    ``baseline_publications`` is the national population used for citation
    baselines; after filtering it may differ from ``publications`` only when
    doc-type-excluded records are deliberately kept for baselines.
    """

    def __init__(
        self,
        window: ObservationWindow,
        publications: dict[str, Publication],
        authorships: list[Authorship],
        professors: dict[str, Professor],
        field_scheme: FieldScheme,
        salary_table: dict[str, float],
        baseline_publications: dict[str, Publication] | None = None,
        filter_report: FilterReport | None = None,
        validate: bool = True,
    ):
        self.window = window
        self.publications = publications
        self.authorships = authorships
        self.professors = professors
        self.field_scheme = field_scheme
        self.salary_table = salary_table
        self.baseline_publications = (
            publications if baseline_publications is None else baseline_publications
        )
        self.filter_report = filter_report
        if validate:
            violations = self.check()
            if violations:
                raise CorpusLoadError(violations)
        self._build_indexes()

    def _build_indexes(self) -> None:
        self.pubs_by_professor: dict[str, list[str]] = {}
        self.professors_by_pub: dict[str, list[str]] = {}
        for a in self.authorships:
            self.pubs_by_professor.setdefault(a.professor_id, []).append(a.pub_id)
            self.professors_by_pub.setdefault(a.pub_id, []).append(a.professor_id)
        self.universities = sorted({p.university_id for p in self.professors.values()})

    def check(self, lines: dict[tuple[str, object], str] | None = None
              ) -> list[Violation]:
        """Cross-reference and invariant checks; returns all violations found.

        ``lines`` maps (file, key) to the "file:line" a record was loaded
        from, keyed by id and by list index for authorships; a record
        without one is named by its key.
        """
        v: list[Violation] = []
        lines = lines or {}

        def add(where: str, fld: str, msg: str) -> None:
            if len(v) < MAX_VIOLATIONS:
                v.append(Violation(where, fld, msg))

        for pub in self.publications.values():
            where = lines.get(("publications", pub.pub_id), pub.pub_id)
            if not pub.subject_categories:
                add(where, "subject_categories", "must be non-empty")
            if pub.citations < 0:
                add(where, "citations", f"must be >= 0, got {pub.citations}")
            if pub.n_authors_total < 1:
                add(where, "n_authors_total",
                    f"must be >= 1, got {pub.n_authors_total}")
        for prof in self.professors.values():
            where = lines.get(("professors", prof.professor_id), prof.professor_id)
            if prof.sds_code not in self.field_scheme:
                add(where, "sds_code", f"unknown SDS {prof.sds_code!r}")
            if prof.academic_rank not in self.salary_table:
                add(where, "academic_rank",
                    f"rank {prof.academic_rank!r} missing from salary table")
            years, n_years = prof.years_on_staff, self.window.n_years
            if not 0 < years <= n_years:
                add(where, "years_on_staff",
                    f"{years} exceeds window length {n_years}"
                    if years > n_years else f"must be > 0, got {years}")
        seen: set[tuple[str, str]] = set()
        per_pub: dict[str, int] = {}
        for i, a in enumerate(self.authorships):
            where = lines.get(("authorships", i), f"{a.pub_id}/{a.professor_id}")
            if (a.pub_id, a.professor_id) in seen:
                add(where, "authorship", "duplicate pair")
            seen.add((a.pub_id, a.professor_id))
            # a dangling row is reported once and counts toward no total
            if a.pub_id not in self.publications:
                add(where, "pub_id", f"unknown publication {a.pub_id!r}")
            elif a.professor_id in self.professors:
                per_pub[a.pub_id] = per_pub.get(a.pub_id, 0) + 1
            if a.professor_id not in self.professors:
                add(where, "professor_id", f"unknown professor {a.professor_id!r}")
        for pub_id, count in per_pub.items():
            pub = self.publications[pub_id]
            if count > pub.n_authors_total >= 1:    # < 1 is reported above
                add(lines.get(("publications", pub_id), pub_id), "n_authors_total",
                    f"{count} authorships exceed n_authors_total={pub.n_authors_total}")
        for rank, salary in self.salary_table.items():
            if not 0 < salary < math.inf:
                add(lines.get(("salaries", rank), "salary_table"), "avg_yearly_salary",
                    f"must be finite and > 0, got {salary}")
        return v

    def counts(self) -> dict[str, int]:
        return {
            "universities": len(self.universities),
            "professors": len(self.professors),
            "publications": len(self.publications),
            "authorships": len(self.authorships),
            "sds": len(self.field_scheme.sds_to_uda),
            "uda": len(set(self.field_scheme.sds_to_uda.values())),
        }

    def digest(self) -> str:
        """Stable content hash of the corpus, independent of row order."""
        h = hashlib.sha256()
        h.update(f"{self.window.start_year},{self.window.end_year}".encode())
        for pid in sorted(self.publications):
            p = self.publications[pid]
            h.update(
                f"P|{p.pub_id}|{p.year}|{p.doc_type}|{'|'.join(p.subject_categories)}"
                f"|{p.citations}|{p.n_authors_total}\n".encode()
            )
        for a in sorted(self.authorships, key=lambda a: (a.pub_id, a.professor_id)):
            h.update(f"A|{a.pub_id}|{a.professor_id}\n".encode())
        for pid in sorted(self.professors):
            pr = self.professors[pid]
            h.update(
                f"R|{pr.professor_id}|{pr.university_id}|{pr.sds_code}"
                f"|{pr.academic_rank}|{pr.years_on_staff!r}\n".encode()
            )
        for code in sorted(self.field_scheme.sds_to_uda):
            h.update(f"F|{code}|{self.field_scheme.sds_to_uda[code]}\n".encode())
        for rank in sorted(self.salary_table):
            h.update(f"S|{rank}|{self.salary_table[rank]!r}\n".encode())
        return h.hexdigest()

    def scope_of(self, prof: Professor, level: str) -> str | None:
        """The professor's scope code at a level: SDS, UDA, or None overall."""
        if level == LEVEL_SDS:
            return prof.sds_code
        if level == LEVEL_UDA:
            return self.field_scheme.uda_of(prof.sds_code)
        if level == LEVEL_OVERALL:
            return None
        raise ValueError(f"unknown level {level!r}")


# ---------------------------------------------------------------------------
# CSV loading

@dataclass(frozen=True)
class CorpusPaths:
    publications: Path
    authorships: Path
    professors: Path
    fields: Path
    salaries: Path

    @classmethod
    def from_dir(cls, directory: str | Path) -> "CorpusPaths":
        d = Path(directory)
        return cls(
            publications=d / "publications.csv",
            authorships=d / "authorships.csv",
            professors=d / "professors.csv",
            fields=d / "fields.csv",
            salaries=d / "salaries.csv",
        )

    def all(self) -> list[Path]:
        return [self.publications, self.authorships, self.professors,
                self.fields, self.salaries]


def read_csv(path: str | Path, columns: list[str],
             problems: list[Violation] | None = None, label: str | None = None,
             extra_columns: bool = False) -> list[tuple[str, dict[str, str]]]:
    """Rows of a UTF-8 CSV file as ("<label>:<line>", {column: value}) pairs.

    The header must be ``columns``, or include them with ``extra_columns``.
    A missing file, an undecodable byte or a bad header is one problem and
    yields no rows; a row with the wrong number of fields is a problem and
    is skipped; a row the csv module cannot parse is a problem and ends the
    file. Problems are appended to ``problems``; without it, the first
    raises ValueError("<label>:<line>: ..."). ``label`` names the file; it
    defaults to the path as given.
    """
    label = str(path) if label is None else label

    def problem(where: str, fld: str, message: str) -> None:
        if problems is None:
            raise ValueError(f"{where}: {message}")
        problems.append(Violation(where, fld, message))

    try:
        text = Path(path).read_bytes().decode("utf-8")
    except FileNotFoundError:
        problem(str(path), "-", "file not found")
        return []
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        problem(f"{label}:{line}", "-",
                f"not valid UTF-8 (byte {exc.object[exc.start]:#04x})")
        return []
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = []
    try:
        header = [c.strip() for c in next(reader, [])]
        if header != columns and not (extra_columns and set(columns) <= set(header)):
            including = " including" if extra_columns else ""
            problem(f"{label}:1", "header", f"expected columns{including} "
                    f"{','.join(columns)}, got {','.join(header)}")
            return []
        for fields in reader:
            if not fields:
                continue
            where = f"{label}:{reader.line_num}"
            if len(fields) != len(header):
                problem(where, "-", f"wrong number of fields: {len(fields)}, "
                        f"expected {len(header)}")
                continue
            rows.append((where, dict(zip(header, fields))))
    except csv.Error as exc:        # e.g. a field over the size limit
        problem(f"{label}:{reader.line_num}", "-", str(exc))
    return rows


def write_csv(path: str | Path, columns: list[str],
              rows: Iterable[Iterable[object]]) -> None:
    """Write a UTF-8 CSV file in the csv module's default dialect: the
    ``columns`` header, then ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(columns)
        w.writerows(rows)


def _key(raw: str, where: str, fld: str, seen: dict,
         violations: list[Violation]) -> str | None:
    """The stripped key, or None (with a violation) if empty or already seen."""
    key = raw.strip()
    if not key:
        violations.append(Violation(where, fld, "empty"))
        return None
    if key in seen:
        violations.append(Violation(where, fld, f"duplicate key {key!r}"))
        return None
    return key


def _parse_int(raw: str, where: str, fld: str,
               violations: list[Violation]) -> int | None:
    try:
        value = int(raw)
    except ValueError:
        violations.append(Violation(where, fld, f"not an integer: {raw!r}"))
        return None
    if abs(value) > 2**53:      # not every larger integer is a float
        violations.append(Violation(where, fld, "must be at most 2**53 in magnitude"))
        return None
    return value


def _parse_float(raw: str, where: str, fld: str,
                 violations: list[Violation]) -> float | None:
    try:
        value = float(raw)
    except ValueError:
        violations.append(Violation(where, fld, f"not a number: {raw!r}"))
        return None
    if not math.isfinite(value):
        violations.append(Violation(where, fld, f"not a finite number: {raw!r}"))
        return None
    return value


def load_corpus(paths: CorpusPaths | str | Path, window: ObservationWindow) -> Corpus:
    """Load and validate the five corpus CSV files.

    Parsing checks types, finite numbers and non-empty, unique keys; the
    corpus invariants are then checked once by ``Corpus.check``. Raises
    CorpusLoadError naming file, line and field for every violation found
    (capped); nothing is silently dropped.
    """
    if not isinstance(paths, CorpusPaths):
        paths = CorpusPaths.from_dir(paths)
    violations: list[Violation] = []
    lines: dict[tuple[str, object], str] = {}

    def rows(path: Path, columns: list[str]) -> list[tuple[str, dict[str, str]]]:
        return read_csv(path, columns, violations, label=path.name)

    publications: dict[str, Publication] = {}
    for where, row in rows(paths.publications,
                           ["pub_id", "year", "doc_type", "subject_categories",
                            "citations", "n_authors_total"]):
        pub_id = _key(row["pub_id"], where, "pub_id", publications, violations)
        year = _parse_int(row["year"], where, "year", violations)
        citations = _parse_int(row["citations"], where, "citations", violations)
        n_authors = _parse_int(row["n_authors_total"], where, "n_authors_total",
                               violations)
        if None in (pub_id, year, citations, n_authors):
            continue
        cats = tuple(c.strip() for c in row["subject_categories"].split("|") if c.strip())
        publications[pub_id] = Publication(
            pub_id, year, row["doc_type"].strip(), cats, citations, n_authors)
        lines["publications", pub_id] = where

    sds_to_uda: dict[str, str] = {}
    sds_names: dict[str, str] = {}
    uda_names: dict[str, str] = {}
    for where, row in rows(paths.fields,
                           ["sds_code", "sds_name", "uda_code", "uda_name"]):
        code = _key(row["sds_code"], where, "sds_code", sds_to_uda, violations)
        if code is None:
            continue
        uda = row["uda_code"].strip()
        if uda in uda_names and uda_names[uda] != row["uda_name"].strip():
            violations.append(Violation(where, "uda_name",
                                        f"conflicting names for UDA {uda!r}"))
        sds_to_uda[code] = uda
        sds_names[code] = row["sds_name"].strip()
        uda_names[uda] = row["uda_name"].strip()
    scheme = FieldScheme(sds_to_uda, sds_names, uda_names)

    salary_table: dict[str, float] = {}
    for where, row in rows(paths.salaries, ["academic_rank", "avg_yearly_salary"]):
        rank = _key(row["academic_rank"], where, "academic_rank", salary_table,
                    violations)
        salary = _parse_float(row["avg_yearly_salary"], where,
                              "avg_yearly_salary", violations)
        if rank is None or salary is None:
            continue
        salary_table[rank] = salary
        lines["salaries", rank] = where

    professors: dict[str, Professor] = {}
    for where, row in rows(paths.professors,
                           ["professor_id", "university_id", "sds_code",
                            "academic_rank", "years_on_staff"]):
        pid = _key(row["professor_id"], where, "professor_id", professors,
                   violations)
        years = _parse_float(row["years_on_staff"], where, "years_on_staff",
                             violations)
        if pid is None or years is None:
            continue
        professors[pid] = Professor(pid, row["university_id"].strip(),
                                    row["sds_code"].strip(),
                                    row["academic_rank"].strip(), years)
        lines["professors", pid] = where

    authorships: list[Authorship] = []
    for where, row in rows(paths.authorships, ["pub_id", "professor_id"]):
        lines["authorships", len(authorships)] = where
        authorships.append(Authorship(row["pub_id"].strip(),
                                      row["professor_id"].strip()))

    if not violations:
        corpus = Corpus(window, publications, authorships, professors, scheme,
                        salary_table, validate=False)
        violations = corpus.check(lines)
    if violations:
        raise CorpusLoadError(violations)
    n_outside = sum(1 for p in publications.values() if not window.contains(p.year))
    log.info("loaded corpus: %s (%d publications outside window, kept until filtering)",
             corpus.counts(), n_outside)
    return corpus


# ---------------------------------------------------------------------------
# Filtering and eligibility

def apply_filters(corpus: Corpus, cfg: FilterConfig) -> Corpus:
    """Drop short-tenure professors and excluded/out-of-window publications.

    Idempotent. Excluded doc types leave the baseline population too unless
    cfg.baseline_include_all_doctypes is set, in which case they stay in
    baseline_publications only.
    """
    keep_prof = {pid: p for pid, p in corpus.professors.items()
                 if p.years_on_staff >= cfg.min_years_on_staff}
    in_window = {pid: p for pid, p in corpus.publications.items()
                 if corpus.window.contains(p.year)}
    keep_pub = {pid: p for pid, p in in_window.items()
                if p.doc_type not in cfg.excluded_doc_types}
    if cfg.baseline_include_all_doctypes:
        baseline = dict(in_window)
    else:
        baseline = dict(keep_pub)
    keep_auth = [a for a in corpus.authorships
                 if a.pub_id in keep_pub and a.professor_id in keep_prof]
    report = FilterReport(
        professors_removed_tenure=len(corpus.professors) - len(keep_prof),
        publications_removed_doctype=len(in_window) - len(keep_pub),
        publications_removed_window=len(corpus.publications) - len(in_window),
        authorships_removed=len(corpus.authorships) - len(keep_auth),
    )
    log.info("filters: %s", report)
    return Corpus(corpus.window, keep_pub, keep_auth, keep_prof,
                  corpus.field_scheme, corpus.salary_table,
                  baseline_publications=baseline, filter_report=report,
                  validate=False)


def scope_codes(corpus: Corpus, level: str) -> list[str | None]:
    """Scope codes populated by at least one professor, sorted; [None] overall."""
    if level == LEVEL_OVERALL:
        return [None]
    return sorted({corpus.scope_of(p, level) for p in corpus.professors.values()})


def eligible_units(corpus: Corpus, level: str,
                   cfg: FilterConfig) -> list[EligibleUnit]:
    """Universities meeting the per-scope headcount threshold.

    The unit is (university, scope_code); at overall level the scope code is
    None and the unit is the university itself.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    headcount: dict[tuple[str, str | None], int] = {}
    for prof in corpus.professors.values():
        key = (prof.university_id, corpus.scope_of(prof, level))
        headcount[key] = headcount.get(key, 0) + 1
    threshold = cfg.min_professors(level)
    return [EligibleUnit(univ, scope, n)
            for (univ, scope), n in sorted(headcount.items(),
                                           key=lambda kv: (kv[0][1] or "", kv[0][0]))
            if n >= threshold]


# ---------------------------------------------------------------------------
# CSV writing (synthesis output, corpus round-trips)

def write_corpus_csvs(corpus: Corpus, outdir: str | Path) -> CorpusPaths:
    """Serialize a corpus to the five canonical CSV files, deterministically."""
    d = Path(outdir)
    d.mkdir(parents=True, exist_ok=True)
    paths = CorpusPaths.from_dir(d)
    scheme = corpus.field_scheme
    write_csv(paths.publications,
              ["pub_id", "year", "doc_type", "subject_categories", "citations",
               "n_authors_total"],
              ([p.pub_id, p.year, p.doc_type, "|".join(p.subject_categories),
                p.citations, p.n_authors_total]
               for _, p in sorted(corpus.publications.items())))
    write_csv(paths.authorships, ["pub_id", "professor_id"],
              sorted((a.pub_id, a.professor_id) for a in corpus.authorships))
    write_csv(paths.professors,
              ["professor_id", "university_id", "sds_code", "academic_rank",
               "years_on_staff"],
              ([p.professor_id, p.university_id, p.sds_code, p.academic_rank,
                f"{p.years_on_staff:g}"]
               for _, p in sorted(corpus.professors.items())))
    write_csv(paths.fields, ["sds_code", "sds_name", "uda_code", "uda_name"],
              ([code, scheme.sds_names.get(code, code), uda,
                scheme.uda_names.get(uda, uda)]
               for code, uda in sorted(scheme.sds_to_uda.items())))
    write_csv(paths.salaries, ["academic_rank", "avg_yearly_salary"],
              ([rank, f"{salary:g}"]
               for rank, salary in sorted(corpus.salary_table.items())))
    return paths


# ---------------------------------------------------------------------------
# Run configuration file (key=value lines)

@dataclass(frozen=True)
class RunConfig:
    window: ObservationWindow
    filters: FilterConfig


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}
# the window settings, each with a value of its type
_WINDOW_KEYS = {"start_year": 0, "end_year": 0, "citation_snapshot_label": ""}


def _parse_setting(key: str, text: str, like: object) -> object:
    """``text`` parsed as the type of ``like``: a boolean, a comma-separated
    set, a string, an integer or a number."""
    if isinstance(like, bool):
        if text.lower() in _TRUE | _FALSE:
            return text.lower() in _TRUE
        raise ValueError(f"{key}: must be boolean, got {text!r}")
    if isinstance(like, frozenset):
        return frozenset(t.strip() for t in text.split(",") if t.strip())
    if isinstance(like, str):
        return text
    try:
        return type(like)(text)
    except ValueError:
        kind = "an integer" if isinstance(like, int) else "a number"
        raise ValueError(f"{key}: not {kind}: {text!r}") from None


def read_config(path: str | Path) -> RunConfig:
    """Parse a key=value config file into window + filter settings.

    The keys are start_year and end_year (required), citation_snapshot_label,
    and the fields of FilterConfig, each parsed as the type of its default
    (a set is comma separated). A key may appear once. A bad value or a
    repeated key raises ValueError("<file>:<line>: <key>: ...").
    """
    settings = dict(_WINDOW_KEYS, **{f.name: f.default for f in dc_fields(FilterConfig)})
    raw: dict[str, tuple[int, str]] = {}
    for i, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{i}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in raw:
            raise ValueError(f"{path}:{i}: {key}: repeated, first set on line "
                             f"{raw[key][0]}")
        raw[key] = (i, value)

    unknown = set(raw) - set(settings)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    if "start_year" not in raw or "end_year" not in raw:
        raise ValueError(f"{path}: start_year and end_year are required")
    values = {}
    for key, (i, text) in raw.items():
        try:
            values[key] = _parse_setting(key, text, settings[key])
            if key not in _WINDOW_KEYS:
                FilterConfig(**{key: values[key]})     # checks this one value
        except ValueError as exc:
            raise ValueError(f"{path}:{i}: {exc}") from None
    window = {key: values.pop(key) for key in _WINDOW_KEYS if key in values}
    return RunConfig(window=ObservationWindow(**window),
                     filters=FilterConfig(**values))
