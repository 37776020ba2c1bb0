"""Publication/staff corpus: loading, validation, filtering.

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
import re
from collections import Counter
from collections.abc import Iterable
from itertools import accumulate, compress
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from .errors import CorpusLoadError, InputError, Violation

log = logging.getLogger("rankdiff.corpus")

LEVEL_SDS = "sds"
LEVEL_UDA = "uda"
LEVEL_OVERALL = "overall"
LEVELS = (LEVEL_SDS, LEVEL_UDA, LEVEL_OVERALL)

DEFAULT_EXCLUDED_DOC_TYPES = frozenset(
    {"editorial material", "meeting abstract", "reply to letter"}
)


def slug(scope: str) -> str:
    """A scope (an SDS or UDA code, "overall" or a replay's label) in output
    file names."""
    return scope.replace("/", "_")


SCOPE_NAME_RULE = ("must be non-empty and have no surrounding spaces or "
                   "control characters")
_CONTROL = re.compile("[\x00-\x1f\x7f-\x9f]")


def is_scope_name(name: str) -> bool:
    """Whether ``name`` may name a scope, which names its output files and
    report rows: the SCOPE_NAME_RULE."""
    return bool(name) and name == name.strip() and not _CONTROL.search(name)


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
    """Validated, immutable-by-convention snapshot of the dataset, as columns.

    Publications and professors are each in id order, a row named by its
    index. Per publication: ``pub_ids``, ``years``, ``doc_types``,
    ``categories`` (tuples), ``citations`` and ``n_authors``; per professor:
    ``professor_ids``, ``universities``, ``sds``, ``ranks``,
    ``years_on_staff`` and ``pubs``, the ascending indices of their
    publications. ``baseline`` holds the years, categories and citations of
    the national population of the citation baselines, which after
    filtering differs from the publications only when doc-type-excluded ones
    are kept for baselines. ``from_columns`` checks and indexes tables.
    """

    def __init__(self, window: ObservationWindow, publications: list[list],
                 professors: list[list], pubs: list[list[int]],
                 field_scheme: FieldScheme, salary_table: dict[str, float],
                 baseline: tuple[list, list, list] | None = None,
                 filter_report: FilterReport | None = None):
        self.window = window
        self.pub_columns, self.prof_columns = publications, professors
        (self.pub_ids, self.years, self.doc_types, self.categories,
         self.citations, self.n_authors) = publications
        (self.professor_ids, self.universities, self.sds, self.ranks,
         self.years_on_staff) = professors
        self.pubs = pubs
        self.field_scheme = field_scheme
        self.salary_table = salary_table
        self.baseline = ((self.years, self.categories, self.citations)
                         if baseline is None else baseline)
        self.filter_report = filter_report

    @classmethod
    def from_columns(cls, window: ObservationWindow, publications: list[list],
                     authorships: list[list], professors: list[list],
                     field_scheme: FieldScheme, salary_table: dict[str, float],
                     lines: dict[str, tuple[str, list[int]]] | None = None
                     ) -> "Corpus":
        """The corpus of the given columns, in the order of
        PUBLICATION_COLUMNS, AUTHORSHIP_COLUMNS and PROFESSOR_COLUMNS, with
        categories as tuples; raises CorpusLoadError with every violation
        ``check`` finds. Rows are put in id order, and each authorship
        becomes a publication index of its professor."""
        violations = cls.check(window, publications, authorships, professors,
                               field_scheme, salary_table, lines)
        if violations:
            raise CorpusLoadError(violations)
        publications, pub_index = _by_id(publications)
        professors, prof_index = _by_id(professors)
        pubs: list[list[int]] = [[] for _ in professors[0]]
        for i, j in zip(map(prof_index.__getitem__, authorships[1]),
                        map(pub_index.__getitem__, authorships[0])):
            pubs[i].append(j)
        for indices in pubs:
            indices.sort()
        return cls(window, publications, professors, pubs, field_scheme,
                   salary_table)

    @classmethod
    def from_records(cls, window: ObservationWindow,
                     publications: dict[str, Publication],
                     authorships: Iterable[Authorship],
                     professors: dict[str, Professor],
                     field_scheme: FieldScheme, salary_table: dict[str, float]
                     ) -> "Corpus":
        """The corpus of ``Publication``, ``Authorship`` and ``Professor``
        records, through ``from_columns``; a violation is named by the key
        of its record."""
        def columns(rows: Iterable[tuple], record: type) -> list[list]:
            return list(map(list, zip(*rows))) or [[] for _ in record._fields]
        return cls.from_columns(
            window, columns(publications.values(), Publication),
            columns(authorships, Authorship),
            columns(professors.values(), Professor), field_scheme, salary_table)

    @staticmethod
    def check(window: ObservationWindow, publications: list[list],
              authorships: list[list], professors: list[list],
              field_scheme: FieldScheme, salary_table: dict[str, float],
              lines: dict[str, tuple[str, list[int]]] | None = None
              ) -> list[Violation]:
        """Cross-reference and invariant checks of the columns
        ``from_columns`` takes: all violations found, table by table and row
        by row. ``lines`` maps each table to its file's name and the line of
        each row, which name a violation as "file:line"; without it, a
        violation is named by the key of its row."""
        v: list[Violation] = []

        def at(table: str, row: int, key: str) -> str:
            if lines is None:
                return key
            name, numbers = lines[table]
            return f"{name}:{numbers[row]}"

        def add(table: str, row: int, key: str, fld: str, msg: str) -> None:
            v.append(Violation(at(table, row, key), fld, msg))

        pub_ids, _, _, categories, citations, n_authors = publications
        for i, (pub_id, cats, cites, n) in enumerate(
                zip(pub_ids, categories, citations, n_authors)):
            if not cats:
                add("publications", i, pub_id, "subject_categories",
                    "must be non-empty")
            if cites < 0:
                add("publications", i, pub_id, "citations",
                    f"must be >= 0, got {cites}")
            if n < 1:
                add("publications", i, pub_id, "n_authors_total",
                    f"must be >= 1, got {n}")
        n_years = window.n_years
        professor_ids, _, sds, ranks, years_on_staff = professors
        for i, (pid, code, rank, years) in enumerate(
                zip(professor_ids, sds, ranks, years_on_staff)):
            if code not in field_scheme.sds_to_uda:
                add("professors", i, pid, "sds_code",
                    f"unknown SDS {_quote(code)}")
            salary = salary_table.get(rank)
            if salary is None:
                add("professors", i, pid, "academic_rank",
                    f"rank {_quote(rank)} missing from salary table")
            if not 0 < years <= n_years:
                add("professors", i, pid, "years_on_staff",
                    f"{years} exceeds window length {n_years}"
                    if years > n_years else f"must be > 0, got {years}")
            # FSS divides by the product: it must neither underflow to 0
            # nor overflow, nor be so small that its reciprocal overflows,
            # where the salary itself is valid
            elif (salary is not None and 0 < salary < math.inf
                  and not (0 < salary * years < math.inf
                           and 1 / (salary * years) < math.inf)):
                add("professors", i, pid, "years_on_staff",
                    f"{years} years at salary {salary} of rank {_quote(rank)}: "
                    f"salary * years must be finite and > 0, and so must its "
                    f"reciprocal")
        pub_rows = dict(zip(pub_ids, range(len(pub_ids))))
        known = set(professor_ids)
        # the authorships, the costliest table, are walked row by row only
        # when a test of their whole columns fails
        a_pubs, a_profs = authorships
        per_pub: dict[str, int] = Counter(a_pubs)
        if not (len(set(zip(a_pubs, a_profs))) == len(a_pubs)
                and pub_rows.keys() >= per_pub.keys() and known >= set(a_profs)):
            seen: set[tuple[str, str]] = set()
            per_pub = {}
            for i, pair in enumerate(zip(a_pubs, a_profs)):
                pub_id, pid = pair
                if pair in seen:
                    add("authorships", i, "/".join(pair), "authorship",
                        "duplicate pair")
                seen.add(pair)
                # a dangling row is reported once and counts toward no total
                if pub_id not in pub_rows:
                    add("authorships", i, "/".join(pair), "pub_id",
                        f"unknown publication {_quote(pub_id)}")
                elif pid in known:
                    per_pub[pub_id] = per_pub.get(pub_id, 0) + 1
                if pid not in known:
                    add("authorships", i, "/".join(pair), "professor_id",
                        f"unknown professor {_quote(pid)}")
        for pub_id, count in per_pub.items():
            i = pub_rows[pub_id]
            if count > n_authors[i] >= 1:       # < 1 is reported above
                add("publications", i, pub_id, "n_authors_total",
                    f"{count} authorships exceed n_authors_total={n_authors[i]}")
        # each code names a scope, and its output files by its slug, which
        # two SDS codes, or two UDA codes, must not share
        sds_codes = list(field_scheme.sds_to_uda)
        for fld, codes in (("sds_code", sds_codes),
                           ("uda_code", list(field_scheme.sds_to_uda.values()))):
            named: dict[str, str] = {}
            for i, code in enumerate(codes):
                if not is_scope_name(code):
                    add("fields", i, sds_codes[i], fld,
                        f"{_quote(code)} {SCOPE_NAME_RULE}")
                    continue
                other = named.setdefault(slug(code), code)
                if other != code:
                    where = at("fields", codes.index(other), other)
                    add("fields", i, code, fld, f"{_quote(code)} and "
                        f"{_quote(other)} of {where} share the output name "
                        f"{_quote(slug(code))}")
        for i, salary in enumerate(salary_table.values()):
            if not 0 < salary < math.inf:
                add("salaries", i, "salary_table", "avg_yearly_salary",
                    f"must be finite and > 0, got {salary}")
        return v

    def authorships(self) -> list[tuple[str, str]]:
        """Every (pub_id, professor_id) pair, sorted."""
        return sorted((self.pub_ids[j], pid)
                      for pid, indices in zip(self.professor_ids, self.pubs)
                      for j in indices)

    def counts(self) -> dict[str, int]:
        return {
            "universities": len(set(self.universities)),
            "professors": len(self.professor_ids),
            "publications": len(self.pub_ids),
            "authorships": sum(map(len, self.pubs)),
            "sds": len(self.field_scheme.sds_to_uda),
            "uda": len(set(self.field_scheme.sds_to_uda.values())),
        }

    def digest(self) -> str:
        """Stable content hash of the corpus, independent of row order."""
        h = hashlib.sha256()
        h.update(f"{self.window.start_year},{self.window.end_year}".encode())
        for pub_id, year, doc_type, cats, cites, n in zip(*self.pub_columns):
            h.update(f"P|{pub_id}|{year}|{doc_type}|{'|'.join(cats)}"
                     f"|{cites}|{n}\n".encode())
        for pub_id, pid in self.authorships():
            h.update(f"A|{pub_id}|{pid}\n".encode())
        for pid, univ, code, rank, years in zip(*self.prof_columns):
            h.update(f"R|{pid}|{univ}|{code}|{rank}|{years!r}\n".encode())
        for code in sorted(self.field_scheme.sds_to_uda):
            h.update(f"F|{code}|{self.field_scheme.sds_to_uda[code]}\n".encode())
        for rank in sorted(self.salary_table):
            h.update(f"S|{rank}|{self.salary_table[rank]!r}\n".encode())
        return h.hexdigest()


def _by_id(columns: list[list]) -> tuple[list[list], dict[str, int]]:
    """The rows of a table whose first column holds unique ids, in id order,
    and the index of each id."""
    ids = columns[0]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    if order != list(range(len(order))):
        columns = [list(map(column.__getitem__, order)) for column in columns]
    return columns, dict(zip(columns[0], range(len(order))))


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


def read_csv(path: str | Path, data: bytes | None, columns: dict[str, type],
             problems: list[Violation] | None = None, label: str | None = None,
             extra_columns: bool = False, key: tuple[str, ...] = ()
             ) -> tuple[list[int], list[list]]:
    """The rows of a UTF-8 CSV file, ``data`` as ``read_bytes`` returned it
    from ``path``, column by column: (lines, cells).

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
    to the path as given.
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
        text = decode(data, path, label)
    except InputError as exc:
        where, message = exc.args
        problem(where, "-", message)
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


class CorpusFiles(NamedTuple):
    """The five corpus files as read: their paths, the bytes of each, None
    for a missing one, and the sha256 of each file read, by path."""

    paths: CorpusPaths
    data: list[bytes | None]
    digests: dict[str, str]


def read_files(paths: CorpusPaths | str | Path) -> CorpusFiles:
    """Read the five corpus files once, to be both hashed and parsed."""
    if not isinstance(paths, CorpusPaths):
        paths = CorpusPaths.from_dir(paths)
    data = list(map(read_bytes, paths))
    return CorpusFiles(paths, data, {
        str(path): hashlib.sha256(d).hexdigest()
        for path, d in zip(paths, data) if d is not None})


def read_bytes(path: str | Path) -> bytes | None:
    """The bytes of an input file, read once to be both parsed and hashed:
    the only place one is opened. None when it does not exist, which its
    parser reports; any other OSError is raised."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        return None


def decode(data: bytes | None, path: str | Path, label: str | None = None
           ) -> str:
    """The text of an input file, ``data`` as ``read_bytes`` returned it
    from ``path``. Raises InputError naming a missing file by its path, and
    the first byte that is not UTF-8 by ``label`` (the path by default) and
    its line."""
    if data is None:
        raise InputError(str(path), "file not found")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{label or path}:{line}",
                         f"not valid UTF-8 (byte {data[exc.start]:#04x})") from None


def load_corpus(paths: CorpusFiles | CorpusPaths | str | Path,
                window: ObservationWindow) -> Corpus:
    """Load and validate the five corpus CSV files; ``paths`` may be the
    files ``read_files`` read already.

    ``read_csv`` checks every cell and key; the corpus invariants are then
    checked once by ``Corpus.check``, which names the file and line of each
    violation. Raises CorpusLoadError counting every violation found and
    naming file, line and field for the first MAX_VIOLATIONS; nothing is
    silently dropped.
    """
    files = paths if isinstance(paths, CorpusFiles) else read_files(paths)
    violations: list[Violation] = []
    contents = dict(zip(CorpusPaths._fields, files.data))
    lines: dict[str, tuple[str, list[int]]] = {}

    def read(name: str, columns: dict[str, type], key: tuple[str, ...] = ()
             ) -> list[list]:
        path = getattr(files.paths, name)
        numbers, cells = read_csv(path, contents[name], columns, violations,
                                  label=path.name, key=key)
        lines[name] = (path.name, numbers)
        return cells

    pub_columns = read("publications", PUBLICATION_COLUMNS, ("pub_id",))
    # far fewer distinct category cells than publications: split each once
    split = {cell: tuple(filter(None, map(str.strip, cell.split("|"))))
             for cell in set(pub_columns[3])}
    pub_columns[3] = list(map(split.__getitem__, pub_columns[3]))

    codes, sds_names, udas, uda_names = read("fields", FIELD_COLUMNS,
                                             ("sds_code",))
    uda_name_of: dict[str, str] = {}
    name, numbers = lines["fields"]
    for line, uda, uda_name in zip(numbers, udas, uda_names):
        if uda_name_of.get(uda, uda_name) != uda_name:
            violations.append(Violation(f"{name}:{line}", "uda_name",
                                        f"conflicting names for UDA {_quote(uda)}"))
        uda_name_of[uda] = uda_name
    scheme = FieldScheme(dict(zip(codes, udas)), dict(zip(codes, sds_names)),
                         uda_name_of)

    ranks, salaries = read("salaries", SALARY_COLUMNS, ("academic_rank",))
    prof_columns = read("professors", PROFESSOR_COLUMNS, ("professor_id",))
    auth_columns = read("authorships", AUTHORSHIP_COLUMNS)
    if violations:
        raise CorpusLoadError(violations)
    return Corpus.from_columns(window, pub_columns, auth_columns,
                               prof_columns, scheme,
                               dict(zip(ranks, salaries)), lines)


# ---------------------------------------------------------------------------
# Filtering

def apply_filters(corpus: Corpus, cfg: FilterConfig) -> Corpus:
    """Drop short-tenure professors and excluded/out-of-window publications.

    Idempotent. Excluded doc types leave the baseline population too unless
    cfg.baseline_include_all_doctypes is set, in which case they stay in
    the baseline only.
    """
    keep_prof = [years >= cfg.min_years_on_staff
                 for years in corpus.years_on_staff]
    in_window = list(map(corpus.window.contains, corpus.years))
    keep_pub = [inside and doc_type not in cfg.excluded_doc_types
                for inside, doc_type in zip(in_window, corpus.doc_types)]
    baseline = None
    if cfg.baseline_include_all_doctypes:
        # the in-window part of the baseline, not of the publications: a
        # filtered corpus's baseline holds publications it no longer has
        inside = list(map(corpus.window.contains, corpus.baseline[0]))
        baseline = tuple(list(compress(column, inside))
                         for column in corpus.baseline)
    # the index of each kept publication: the number kept before it
    index = list(accumulate(keep_pub, initial=0))
    pubs = [[index[j] for j in indices if keep_pub[j]]
            for indices in compress(corpus.pubs, keep_prof)]
    publications = [list(compress(c, keep_pub)) for c in corpus.pub_columns]
    professors = [list(compress(c, keep_prof)) for c in corpus.prof_columns]
    report = FilterReport(
        professors_removed_tenure=len(keep_prof) - len(pubs),
        publications_removed_doctype=sum(in_window) - index[-1],
        publications_removed_window=len(in_window) - sum(in_window),
        authorships_removed=sum(map(len, corpus.pubs)) - sum(map(len, pubs)),
    )
    return Corpus(corpus.window, publications, professors, pubs,
                  corpus.field_scheme, corpus.salary_table, baseline, report)


def log_corpus(counts: dict[str, int], report: FilterReport) -> None:
    """Log the ``counts`` of a loaded corpus and the ``report`` of its
    filtering."""
    log.info("loaded corpus: %s (%d publications outside window, kept until "
             "filtering)", counts, report.publications_removed_window)
    log.info("filters: %s", report)


# ---------------------------------------------------------------------------
# CSV writing (synthesis output, corpus round-trips)

def _number_cell(value: float) -> str:
    """``value`` as ``:g`` writes it when that reads back equal, else as its
    repr, which always does."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def write_corpus_csvs(corpus: Corpus, outdir: str | Path) -> CorpusPaths:
    """Serialize a corpus to the five canonical CSV files, deterministically."""
    d = Path(outdir)
    d.mkdir(parents=True, exist_ok=True)
    paths = CorpusPaths.from_dir(d)
    scheme = corpus.field_scheme
    publications = list(corpus.pub_columns)
    publications[3] = ["|".join(cats) for cats in publications[3]]
    write_csv(paths.publications, PUBLICATION_COLUMNS, zip(*publications))
    write_csv(paths.authorships, AUTHORSHIP_COLUMNS, corpus.authorships())
    *professors, years_on_staff = corpus.prof_columns
    write_csv(paths.professors, PROFESSOR_COLUMNS,
              zip(*professors, map(_number_cell, years_on_staff)))
    write_csv(paths.fields, FIELD_COLUMNS,
              ([code, scheme.sds_names.get(code, code), uda,
                scheme.uda_names.get(uda, uda)]
               for code, uda in sorted(scheme.sds_to_uda.items())))
    write_csv(paths.salaries, SALARY_COLUMNS,
              ([rank, _number_cell(salary)]
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
    repeated key raises ValueError("<file>:<line>: <key>: ..."); a missing
    file or a byte that is not UTF-8 raises ``decode``'s InputError.
    """
    settings = dict(_WINDOW_KEYS, **FilterConfig._field_defaults)
    raw: dict[str, tuple[int, str]] = {}
    text = decode(read_bytes(path), path)
    for i, line in enumerate(text.splitlines(), 1):
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
