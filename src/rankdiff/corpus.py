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
from functools import cached_property
from itertools import repeat
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from .errors import CorpusLoadError, Violation

log = logging.getLogger("rankdiff.corpus")

LEVEL_SDS = "sds"
LEVEL_UDA = "uda"
LEVEL_OVERALL = "overall"
LEVELS = (LEVEL_SDS, LEVEL_UDA, LEVEL_OVERALL)

DEFAULT_EXCLUDED_DOC_TYPES = frozenset(
    {"editorial material", "meeting abstract", "reply to letter"}
)


class Checked:
    """Base, before a NamedTuple, of a record whose ``_check`` raises on bad
    values: it runs on every construction, ``_replace`` included."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _Window(NamedTuple):
    start_year: int
    end_year: int
    citation_snapshot_label: str = ""


class ObservationWindow(Checked, _Window):
    __slots__ = ()

    def _check(self) -> None:
        if self.end_year < self.start_year:
            raise ValueError(
                f"window end {self.end_year} precedes start {self.start_year}"
            )

    @property
    def n_years(self) -> int:
        return self.end_year - self.start_year + 1

    def contains(self, year: int) -> bool:
        return self.start_year <= year <= self.end_year


class Publication(NamedTuple):
    pub_id: str
    year: int
    doc_type: str
    subject_categories: tuple[str, ...]
    citations: int
    n_authors_total: int


class Authorship(NamedTuple):
    pub_id: str
    professor_id: str


class Professor(NamedTuple):
    professor_id: str
    university_id: str
    sds_code: str
    academic_rank: str
    years_on_staff: float


class FieldScheme(NamedTuple):
    """sds_code -> (name, uda_code) plus uda_code -> name; a name map left
    out is empty and read-only, so schemes never share a mutable one."""

    sds_to_uda: dict[str, str]
    sds_names: dict[str, str] = MappingProxyType({})
    uda_names: dict[str, str] = MappingProxyType({})

    def __contains__(self, sds_code: str) -> bool:
        return sds_code in self.sds_to_uda

    def uda_of(self, sds_code: str) -> str:
        return self.sds_to_uda[sds_code]


class _Filters(NamedTuple):
    min_years_on_staff: float = 3.0
    excluded_doc_types: frozenset[str] = DEFAULT_EXCLUDED_DOC_TYPES
    min_professors_sds: int = 2
    min_professors_uda: int = 10
    min_professors_overall: int = 30
    min_units_to_rank: int = 5          # applies at SDS level only
    baseline_include_all_doctypes: bool = False


class FilterConfig(Checked, _Filters):
    __slots__ = ()

    def _check(self) -> None:
        for name, default in self._field_defaults.items():
            value = getattr(self, name)
            if type(default) in (int, float) and not 0 <= value < math.inf:
                raise ValueError(f"{name}: must be finite and >= 0, got {value!r}")

    def as_dict(self) -> dict:
        """JSON-ready snapshot of every setting, for the run manifest."""
        snapshot = self._asdict()
        snapshot["excluded_doc_types"] = sorted(self.excluded_doc_types)
        return snapshot

    def min_professors(self, level: str) -> int:
        return getattr(self, f"min_professors_{level}")


class FilterReport(NamedTuple):
    professors_removed_tenure: int = 0
    publications_removed_doctype: int = 0
    publications_removed_window: int = 0
    authorships_removed: int = 0


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
        file_digests: dict[str, str] | None = None,
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
        self.file_digests = {} if file_digests is None else file_digests
        if validate:
            violations = self.check()
            if violations:
                raise CorpusLoadError(violations)

    # the indexes are built on first use, so a corpus that is only validated
    # or filtered never builds them

    @cached_property
    def pubs_by_professor(self) -> dict[str, list[str]]:
        index: dict[str, list[str]] = {}
        for a in self.authorships:
            index.setdefault(a.professor_id, []).append(a.pub_id)
        return index

    @cached_property
    def n_authors_total(self) -> dict[str, int]:
        return {pub_id: p.n_authors_total
                for pub_id, p in self.publications.items()}

    @cached_property
    def universities(self) -> list[str]:
        return sorted({p.university_id for p in self.professors.values()})

    def check(self, lines: dict[tuple[str, object], str] | None = None
              ) -> list[Violation]:
        """Cross-reference and invariant checks; returns all violations found.

        ``lines`` maps (file, key) to the "file:line" a record was loaded
        from, keyed by id and by list index for authorships; a record
        without one is named by its key.
        """
        v: list[Violation] = []
        lines = lines or {}

        def add(file: str, key: object, fld: str, msg: str,
                name: str | None = None) -> None:
            where = lines.get((file, key), key if name is None else name)
            v.append(Violation(where, fld, msg))

        for pub in self.publications.values():
            if not pub.subject_categories:
                add("publications", pub.pub_id, "subject_categories",
                    "must be non-empty")
            if pub.citations < 0:
                add("publications", pub.pub_id, "citations",
                    f"must be >= 0, got {pub.citations}")
            if pub.n_authors_total < 1:
                add("publications", pub.pub_id, "n_authors_total",
                    f"must be >= 1, got {pub.n_authors_total}")
        n_years = self.window.n_years
        for prof in self.professors.values():
            pid = prof.professor_id
            if prof.sds_code not in self.field_scheme:
                add("professors", pid, "sds_code",
                    f"unknown SDS {_quote(prof.sds_code)}")
            if prof.academic_rank not in self.salary_table:
                add("professors", pid, "academic_rank",
                    f"rank {_quote(prof.academic_rank)} missing from salary table")
            years = prof.years_on_staff
            if not 0 < years <= n_years:
                add("professors", pid, "years_on_staff",
                    f"{years} exceeds window length {n_years}"
                    if years > n_years else f"must be > 0, got {years}")
        seen: set[tuple[str, str]] = set()
        per_pub: dict[str, int] = {}
        for i, a in enumerate(self.authorships):
            pair = (a.pub_id, a.professor_id)
            if pair in seen:
                add("authorships", i, "authorship", "duplicate pair",
                    "/".join(pair))
            seen.add(pair)
            # a dangling row is reported once and counts toward no total
            if a.pub_id not in self.publications:
                add("authorships", i, "pub_id",
                    f"unknown publication {_quote(a.pub_id)}", "/".join(pair))
            elif a.professor_id in self.professors:
                per_pub[a.pub_id] = per_pub.get(a.pub_id, 0) + 1
            if a.professor_id not in self.professors:
                add("authorships", i, "professor_id",
                    f"unknown professor {_quote(a.professor_id)}", "/".join(pair))
        for pub_id, count in per_pub.items():
            pub = self.publications[pub_id]
            if count > pub.n_authors_total >= 1:    # < 1 is reported above
                add("publications", pub_id, "n_authors_total",
                    f"{count} authorships exceed n_authors_total={pub.n_authors_total}")
        for rank, salary in self.salary_table.items():
            if not 0 < salary < math.inf:
                add("salaries", rank, "avg_yearly_salary",
                    f"must be finite and > 0, got {salary}", "salary_table")
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

    def outside_window(self) -> int:
        """How many publications fall outside the window."""
        return sum(1 for p in self.publications.values()
                   if not self.window.contains(p.year))

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
        return _scope_of(self.field_scheme, prof, level)


def _scope_of(scheme: FieldScheme, prof: Professor, level: str) -> str | None:
    if level == LEVEL_SDS:
        return prof.sds_code
    if level == LEVEL_UDA:
        return scheme.uda_of(prof.sds_code)
    if level == LEVEL_OVERALL:
        return None
    raise ValueError(f"unknown level {level!r}")


# ---------------------------------------------------------------------------
# CSV loading

class CorpusPaths(NamedTuple):
    """The five corpus files, each named after its field."""

    publications: Path
    authorships: Path
    professors: Path
    fields: Path
    salaries: Path

    @classmethod
    def from_dir(cls, directory: str | Path) -> "CorpusPaths":
        return cls._make(Path(directory) / f"{name}.csv" for name in cls._fields)


# the columns of each corpus file, in order, with the type of their cells
PUBLICATION_COLUMNS = {"pub_id": str, "year": int, "doc_type": str,
                       "subject_categories": str, "citations": int,
                       "n_authors_total": int}
AUTHORSHIP_COLUMNS = {"pub_id": str, "professor_id": str}
PROFESSOR_COLUMNS = {"professor_id": str, "university_id": str, "sds_code": str,
                     "academic_rank": str, "years_on_staff": float}
FIELD_COLUMNS = {"sds_code": str, "sds_name": str, "uda_code": str,
                 "uda_name": str}
SALARY_COLUMNS = {"academic_rank": str, "avg_yearly_salary": float}


# an integer cell's exclusive bound on magnitude; a number must be finite
_INT_BOUND = 2**53 + 1


def _quote(text: str) -> str:
    """``text`` for a message: its repr, cut to 40 characters."""
    quoted = repr(text[:41])
    return quoted if len(quoted) <= 42 else quoted[:40] + "..."


def _cell_problem(cell: str, kind: type) -> str:
    """Why a stripped numeric cell is not a value of ``kind`` in its bound."""
    try:
        kind(cell)
    except ValueError:
        # int() refuses more than 4,300 digits, all of them over the bound
        if not (kind is int and cell.lstrip("+-").isdecimal()):
            what = "an integer" if kind is int else "a number"
            return f"not {what}: {_quote(cell)}"
    if kind is int:
        return "must be at most 2**53 in magnitude"
    return f"not a finite number: {_quote(cell)}"


def _typed_column(cells: list[str], kind: type) -> list | None:
    """The stripped ``cells`` as values of ``kind``, or None when one is not
    a value of ``kind`` within its bound."""
    try:
        values = list(map(kind, cells))
    except ValueError:
        return None
    if not values:
        return values
    if kind is int:
        in_bound = -_INT_BOUND < min(values) and max(values) < _INT_BOUND
        return values if in_bound else None
    # a nan or an infinity makes the sum one; an overflowing sum of finite
    # values only sends the column to the cell-by-cell walk
    return values if math.isfinite(sum(values)) else None


def read_csv(path: str | Path, columns: dict[str, type],
             problems: list[Violation] | None = None, label: str | None = None,
             extra_columns: bool = False, key: tuple[str, ...] = (),
             data: bytes | None = None) -> tuple[list[int], list[list]]:
    """The rows of a UTF-8 CSV file, column by column: (lines, cells).

    ``columns`` maps each column to the type of its cells, ``str``, ``int``
    or ``float``. ``cells`` holds one list of typed cells per column, in that
    order, and ``lines`` the line each kept row ends on. The header must be
    those columns, or include them with ``extra_columns``. Every cell is
    stripped; an integer must be at most 2**53 in magnitude, a number
    finite, and the ``key`` columns non-empty and unique together.

    A missing file, an undecodable byte or a bad header is one problem and
    yields no rows; a row with the wrong number of fields or a bad cell is a
    problem and is skipped; a row the csv module cannot parse is a problem
    and ends the file. Problems come in file order, by line and then by
    column, and are appended to ``problems``; without it, the first raises
    ValueError("<label>:<line>: ..."). ``label`` names the file; it defaults
    to the path as given. ``data``, when given, is the file's bytes, read
    already.
    """
    label = str(path) if label is None else label
    names = list(columns)
    nothing: tuple[list[int], list[list]] = ([], [[] for _ in names])

    def problem(where: str, fld: str, message: str) -> None:
        if problems is None:
            raise ValueError(f"{where}: {message}" if fld == "-"
                             else f"{where}: {fld}: {message}")
        problems.append(Violation(where, fld, message))

    try:
        if data is None:
            data = Path(path).read_bytes()
        text = data.decode("utf-8")
    except FileNotFoundError:
        problem(str(path), "-", "file not found")
        return nothing
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        problem(f"{label}:{line}", "-",
                f"not valid UTF-8 (byte {exc.object[exc.start]:#04x})")
        return nothing
    reader = csv.reader(io.StringIO(text, newline=""))
    # (line, column number, field, message): a row problem has column -1, a
    # key problem comes after every column and a parse error after that
    found: list[tuple[int, int, str, str]] = []
    header = names          # stays so only if the header cannot be parsed
    rows: list[list[str]] = []
    lines: list[int] = []
    try:
        header = [c.strip() for c in next(reader, [])]
        if header != names and not (extra_columns and set(names) <= set(header)):
            including = " including" if extra_columns else ""
            problem(f"{label}:1", "header", f"expected columns{including} "
                    f"{','.join(names)}, got {_quote(','.join(header))}")
            return nothing
        width = len(header)
        for fields in reader:
            if len(fields) == width:
                rows.append(fields)
                lines.append(reader.line_num)
            elif fields:
                found.append((reader.line_num, -1, "-", f"wrong number of "
                              f"fields: {len(fields)}, expected {width}"))
    except csv.Error as exc:        # e.g. a field over the size limit
        found.append((reader.line_num, len(names) + 1, "-", str(exc)))

    # each column is typed at once; only a column that fails is walked
    # cell by cell, to name its bad cells
    by_field = list(zip(*rows)) or [()] * len(header)
    cells: list[list] = []
    bad_rows: set[int] = set()
    for number, (name, kind) in enumerate(columns.items()):
        column = list(map(str.strip, by_field[header.index(name)]))
        if kind is not str:
            values = _typed_column(column, kind)
            if values is None:
                values = []
                for i, cell in enumerate(column):
                    value = _typed_column([cell], kind)
                    if value is None:
                        found.append((lines[i], number, name,
                                      _cell_problem(cell, kind)))
                        bad_rows.add(i)
                    values.extend(value or [None])
            column = values
        cells.append(column)

    key_columns = [cells[names.index(name)] for name in key]
    keys = list(zip(*key_columns))
    if len(set(keys)) < len(keys) or any("" in c for c in key_columns):
        seen: set[tuple] = set()
        for i, k in enumerate(keys):
            if i in bad_rows:       # a row with a bad cell is not key-checked
                continue
            if "" in k:
                found.append((lines[i], len(names), key[k.index("")], "empty"))
            elif k in seen:
                found.append((lines[i], len(names), ",".join(key),
                              "duplicate key "
                              + ", ".join(_quote(str(v)) for v in k)))
            else:
                seen.add(k)
                continue
            bad_rows.add(i)
    if bad_rows:
        kept = [i for i in range(len(lines)) if i not in bad_rows]
        lines = [lines[i] for i in kept]
        cells = [[column[i] for i in kept] for column in cells]

    for line, _, fld, message in sorted(found, key=lambda p: p[:2]):
        problem(f"{label}:{line}", fld, message)
    return lines, cells


def write_csv(path: str | Path, columns: Iterable[str],
              rows: Iterable[Iterable[object]]) -> None:
    """Write a UTF-8 CSV file in the csv module's default dialect: the
    ``columns`` header, then ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(columns)
        w.writerows(rows)


def load_corpus(paths: CorpusPaths | str | Path, window: ObservationWindow) -> Corpus:
    """Load and validate the five corpus CSV files.

    ``read_csv`` checks every cell and key; the corpus invariants are then
    checked once by ``Corpus.check``. Raises CorpusLoadError counting every
    violation found and naming file, line and field for the first
    MAX_VIOLATIONS; nothing is silently dropped. Each file is read once, and
    the bytes read are both parsed and hashed.
    """
    paths, data, file_digests = _read_files(paths)
    violations: list[Violation] = []
    contents = dict(zip(CorpusPaths._fields, data))

    def read(name: str, columns: dict[str, type], key: tuple[str, ...] = ()
             ) -> tuple[list[int], list[list]]:
        path = getattr(paths, name)
        return read_csv(path, columns, violations, label=path.name, key=key,
                        data=contents[name])

    pub_lines, pub_columns = read("publications", PUBLICATION_COLUMNS,
                                  ("pub_id",))
    pub_columns[3] = [tuple(filter(None, map(str.strip, c.split("|"))))
                      for c in pub_columns[3]]

    field_lines, (codes, sds_names, udas, uda_names) = read(
        "fields", FIELD_COLUMNS, ("sds_code",))
    uda_name_of: dict[str, str] = {}
    for line, uda, uda_name in zip(field_lines, udas, uda_names):
        if uda_name_of.get(uda, uda_name) != uda_name:
            violations.append(Violation(f"{paths.fields.name}:{line}", "uda_name",
                                        f"conflicting names for UDA {_quote(uda)}"))
        uda_name_of[uda] = uda_name
    scheme = FieldScheme(dict(zip(codes, udas)), dict(zip(codes, sds_names)),
                         uda_name_of)

    salary_lines, (ranks, salaries) = read("salaries", SALARY_COLUMNS,
                                           ("academic_rank",))
    prof_lines, prof_columns = read("professors", PROFESSOR_COLUMNS,
                                    ("professor_id",))
    auth_lines, auth_columns = read("authorships", AUTHORSHIP_COLUMNS)
    if violations:
        raise CorpusLoadError(violations)

    pubs = records(Publication, zip(*pub_columns))
    profs = records(Professor, zip(*prof_columns))
    corpus = Corpus(window, dict(zip(pub_columns[0], pubs)),
                    list(records(Authorship, zip(*auth_columns))),
                    dict(zip(prof_columns[0], profs)), scheme,
                    dict(zip(ranks, salaries)), validate=False,
                    file_digests=file_digests)
    violations = corpus.check()
    if violations:      # check again, naming the line of each record
        lines: dict[tuple[str, object], str] = {}
        for file, path, keys, numbers in [
                ("publications", paths.publications, pub_columns[0], pub_lines),
                ("salaries", paths.salaries, ranks, salary_lines),
                ("professors", paths.professors, prof_columns[0], prof_lines),
                ("authorships", paths.authorships, range(len(auth_lines)),
                 auth_lines)]:
            lines.update(((file, k), f"{path.name}:{n}")
                         for k, n in zip(keys, numbers))
        raise CorpusLoadError(corpus.check(lines))
    if log.isEnabledFor(logging.INFO):
        log_loaded(corpus.counts(), corpus.outside_window())
    return corpus


def log_loaded(counts: dict[str, int], outside_window: int) -> None:
    log.info("loaded corpus: %s (%d publications outside window, kept until "
             "filtering)", counts, outside_window)


def corpus_digests(paths: CorpusPaths | str | Path) -> dict[str, str]:
    """sha256 of each corpus file, by path, as ``load_corpus`` would record
    them; a missing file has none."""
    return _read_files(paths)[2]


def _read_files(paths: CorpusPaths | str | Path
                ) -> tuple[CorpusPaths, list[bytes | None], dict[str, str]]:
    """The corpus paths, the bytes of each file, None for a missing one, and
    the sha256 of each file read, by path."""
    if not isinstance(paths, CorpusPaths):
        paths = CorpusPaths.from_dir(paths)
    data = [_read_if_present(path) for path in paths]
    return paths, data, {str(path): hashlib.sha256(d).hexdigest()
                         for path, d in zip(paths, data) if d is not None}


def _read_if_present(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except FileNotFoundError:       # read_csv reports it
        return None


def records(cls: type, rows: Iterable[tuple]) -> Iterable:
    """The records of the NamedTuple ``cls`` whose fields are ``rows``, made
    by ``tuple.__new__``: a loaded value is already of its field's type, so
    the generated ``__new__`` and its argument handling are skipped. Not for
    a ``Checked`` record."""
    return map(tuple.__new__, repeat(cls), rows)


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
    log_filtered(report)
    return Corpus(corpus.window, keep_pub, keep_auth, keep_prof,
                  corpus.field_scheme, corpus.salary_table,
                  baseline_publications=baseline, filter_report=report,
                  validate=False, file_digests=corpus.file_digests)


def log_filtered(report: FilterReport) -> None:
    log.info("filters: %s", report)


def eligible_units(corpus: Corpus, level: str, cfg: FilterConfig
                   ) -> dict[str | None, dict[str, list[str]]]:
    """The units meeting the level's headcount threshold, with their staff:
    ``scope_code -> university_id -> [professor ids]``.

    The unit is (university, scope_code); at overall level the scope code is
    None and the unit is the university itself. Scopes come in code order,
    universities in id order within a scope, and professors in id order.
    ``corpus`` may also be a professor pass: only its ``professors`` and
    ``field_scheme`` are read.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    members: dict[tuple[str | None, str], list[str]] = {}
    for pid in sorted(corpus.professors):
        prof = corpus.professors[pid]
        key = (_scope_of(corpus.field_scheme, prof, level), prof.university_id)
        members.setdefault(key, []).append(pid)
    threshold = cfg.min_professors(level)
    units: dict[str | None, dict[str, list[str]]] = {}
    for (scope, univ), pids in sorted(members.items(),
                                      key=lambda kv: (kv[0][0] or "", kv[0][1])):
        if len(pids) >= threshold:
            units.setdefault(scope, {})[univ] = pids
    return units


# ---------------------------------------------------------------------------
# CSV writing (synthesis output, corpus round-trips)

def write_corpus_csvs(corpus: Corpus, outdir: str | Path) -> CorpusPaths:
    """Serialize a corpus to the five canonical CSV files, deterministically."""
    d = Path(outdir)
    d.mkdir(parents=True, exist_ok=True)
    paths = CorpusPaths.from_dir(d)
    scheme = corpus.field_scheme
    write_csv(paths.publications, PUBLICATION_COLUMNS,
              ([p.pub_id, p.year, p.doc_type, "|".join(p.subject_categories),
                p.citations, p.n_authors_total]
               for _, p in sorted(corpus.publications.items())))
    write_csv(paths.authorships, AUTHORSHIP_COLUMNS, sorted(corpus.authorships))
    write_csv(paths.professors, PROFESSOR_COLUMNS,
              ([p.professor_id, p.university_id, p.sds_code, p.academic_rank,
                f"{p.years_on_staff:g}"]
               for _, p in sorted(corpus.professors.items())))
    write_csv(paths.fields, FIELD_COLUMNS,
              ([code, scheme.sds_names.get(code, code), uda,
                scheme.uda_names.get(uda, uda)]
               for code, uda in sorted(scheme.sds_to_uda.items())))
    write_csv(paths.salaries, SALARY_COLUMNS,
              ([rank, f"{salary:g}"]
               for rank, salary in sorted(corpus.salary_table.items())))
    return paths


# ---------------------------------------------------------------------------
# Run configuration file (key=value lines)

class RunConfig(NamedTuple):
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
    settings = dict(_WINDOW_KEYS, **FilterConfig._field_defaults)
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
    try:
        window = ObservationWindow(**window)
    except ValueError as exc:       # end_year before start_year
        raise ValueError(f"{path}:{raw['end_year'][0]}: end_year: {exc}") from None
    return RunConfig(window=window, filters=FilterConfig(**values))
