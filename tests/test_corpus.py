from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdiff import (Authorship, Corpus, CorpusLoadError, FieldScheme,
                      FilterConfig, ObservationWindow, Professor, Publication,
                      apply_filters, compute_scaling_factors, load_corpus,
                      professor_pass, read_config, scoreboards,
                      write_corpus_csvs)
from rankdiff.cli import main
from rankdiff.corpus import LEVELS
from rankdiff.errors import MAX_VIOLATIONS, Violation
from helpers import (RELAXED_CFG, WINDOW, eligible_ids, professors_by_pub,
                     random_corpus, rebuilt, records, scope_of)


def test_load_minimal_fixture(corpus_dir, window):
    corpus = load_corpus(corpus_dir, window)
    counts = corpus.counts()
    assert counts["universities"] == 2
    assert counts["professors"] == 4
    assert counts["publications"] == 5
    assert counts["authorships"] == 6


def test_load_roundtrip_preserves_digest(tmp_path, tiny_corpus, window):
    write_corpus_csvs(tiny_corpus, tmp_path / "x")
    reloaded = load_corpus(tmp_path / "x", window)
    assert reloaded.digest() == tiny_corpus.digest()


def test_padded_categories_load_as_the_plain_ones(corpus_dir, window,
                                                  tiny_corpus):
    """Spaces around a category and empty parts of a cell are dropped, in
    every row that holds the cell, repeated or not."""
    path = corpus_dir / "publications.csv"
    text = path.read_text(encoding="utf-8")
    for plain, padded in [(",C1|C2,", ", C1 | C2 ,"), (",C2,", ",| C2,"),
                          (",C1,", ",C1 |,")]:
        assert plain in text
        text = text.replace(plain, padded)
    path.write_text(text, encoding="utf-8")
    loaded = load_corpus(corpus_dir, window)
    assert loaded.categories == tiny_corpus.categories
    assert loaded.digest() == tiny_corpus.digest()


def test_dangling_authorship_names_row(corpus_dir, window):
    with open(corpus_dir / "authorships.csv", "a", encoding="utf-8") as f:
        f.write("w1,GHOST\n")
    with pytest.raises(CorpusLoadError) as err:
        load_corpus(corpus_dir, window)
    (v,) = err.value.violations
    assert "authorships.csv:8" in v.where
    assert v.field == "professor_id"
    assert "GHOST" in v.message


def test_authorships_exceed_author_count(window):
    pubs = {"w": Publication("w", 2008, "article", ("C",), 1, 3)}
    profs = {f"p{i}": Professor(f"p{i}", "A", "S", "r", 5.0) for i in range(4)}
    auths = [Authorship("w", f"p{i}") for i in range(4)]
    with pytest.raises(CorpusLoadError, match="n_authors_total"):
        Corpus.from_records(ObservationWindow(2008, 2012), pubs, auths, profs,
                            FieldScheme({"S": "U"}), {"r": 1.0})


def test_duplicate_pub_id(corpus_dir, window):
    with open(corpus_dir / "publications.csv", "a", encoding="utf-8") as f:
        f.write("w1,2008,article,C1,4,2\n")
    with pytest.raises(CorpusLoadError, match="duplicate key"):
        load_corpus(corpus_dir, window)


def test_duplicate_ids_in_memory(window):
    """A repeated publication or professor id, which read_csv rejects in a
    file, is a violation named by its key in a corpus made from records."""
    pubs = {"a": Publication("P1", 2008, "article", ("C",), 1, 1),
            "b": Publication("P1", 2009, "article", ("C",), 2, 1)}
    profs = {"a": Professor("R1", "A", "S", "r", 5.0),
             "b": Professor("R1", "B", "S", "r", 5.0)}
    with pytest.raises(CorpusLoadError) as err:
        Corpus.from_records(window, pubs, [Authorship("P1", "R1")], profs,
                            FieldScheme({"S": "U"}), {"r": 1.0})
    assert err.value.violations == [
        Violation("P1", "pub_id", "duplicate key 'P1'"),
        Violation("R1", "professor_id", "duplicate key 'R1'")]


def test_malformed_row_names_file_line_field(corpus_dir, window):
    with open(corpus_dir / "publications.csv", "a", encoding="utf-8") as f:
        f.write("w9,not_a_year,article,C1,4,2\n")
    with pytest.raises(CorpusLoadError) as err:
        load_corpus(corpus_dir, window)
    (v,) = err.value.violations
    assert v.where == "publications.csv:7"
    assert v.field == "year"


def test_missing_file(tmp_path, window):
    with pytest.raises(CorpusLoadError, match="file not found"):
        load_corpus(tmp_path, window)


def test_wrong_header(corpus_dir, window):
    path = corpus_dir / "salaries.csv"
    path.write_text("rank,salary\nfull,2\n", encoding="utf-8")
    with pytest.raises(CorpusLoadError, match="expected columns"):
        load_corpus(corpus_dir, window)


def test_unknown_sds_and_rank(window):
    profs = {"p": Professor("p", "A", "NOPE", "ghost_rank", 5.0)}
    with pytest.raises(CorpusLoadError) as err:
        Corpus.from_records(window, {}, [], profs, FieldScheme({"S": "U"}),
                            {"r": 1.0})
    fields = {v.field for v in err.value.violations}
    assert fields == {"sds_code", "academic_rank"}


@pytest.mark.parametrize("scheme, row, fld, code", [
    ({"S": "U", " T": "U"}, " T", "sds_code", " T"),
    ({"S": ""}, "S", "uda_code", ""),
    ({"S": "U\tV"}, "S", "uda_code", "U\tV"),
    ({"S\x85": "U"}, "S\x85", "sds_code", "S\x85"),
], ids=["padded_sds", "empty_uda", "tab_uda", "c1_sds"])
def test_code_breaking_scope_name_rule_in_memory(window, scheme, row, fld,
                                                 code):
    """A code of the field scheme names a scope: without a file, its row is
    named by its SDS code."""
    with pytest.raises(CorpusLoadError) as err:
        Corpus.from_records(window, {}, [], {}, FieldScheme(scheme),
                            {"r": 1.0})
    assert err.value.violations == [Violation(
        row, fld, f"{code!r} must be non-empty and have no surrounding "
        f"spaces or control characters")]


def test_tenure_exceeding_window(window):
    profs = {"p": Professor("p", "A", "S", "r", 6.0)}
    with pytest.raises(CorpusLoadError, match="exceeds window length"):
        Corpus.from_records(window, {}, [], profs, FieldScheme({"S": "U"}),
                            {"r": 1.0})


@pytest.mark.parametrize("name, line, old, new, fld, message", [
    ("professors.csv", 2, "p1,A,S1,full,5", "p1,A,S9,full,5", "sds_code",
     "unknown SDS 'S9'"),
    ("professors.csv", 3, "p2,A,S1,assistant,5", "p2,A,S1,dean,5",
     "academic_rank", "rank 'dean' missing from salary table"),
    ("professors.csv", 4, "p3,B,S1,assistant,5", "p3,B,S1,assistant,7",
     "years_on_staff", "7.0 exceeds window length 5"),
    ("authorships.csv", 8, "w5,p1\n", "w5,p1\nw3,p2\n", "authorship",
     "duplicate pair"),
    # one authorship on a zero total: the count rule adds no second violation
    ("publications.csv", 3, "w2,2009,article,C1,0,1", "w2,2009,article,C1,0,0",
     "n_authors_total", "must be >= 1, got 0"),
    # 401 digits: exact as an int, but no float holds it
    ("publications.csv", 3, "w2,2009,article,C1,0,1",
     "w2,2009,article,C1," + "9" * 401 + ",1", "citations",
     "must be at most 2**53 in magnitude"),
    # 5,000 digits: more than int() parses; the message does not echo them
    ("publications.csv", 3, "w2,2009,article,C1,0,1",
     "w2,2009,article,C1," + "9" * 5000 + ",1", "citations",
     "must be at most 2**53 in magnitude"),
    ("publications.csv", 3, "w2,2009,article,C1,0,1",
     "w2,2009,article,C1,0," + "x" * 5000, "n_authors_total",
     "not an integer: '" + "x" * 39 + "..."),
    ("salaries.csv", 2, "assistant,1", "assistant, inf ", "avg_yearly_salary",
     "not a finite number: 'inf'"),
    ("fields.csv", 3, "S2,Field two", " S1 ,Field two", "sds_code",
     "duplicate key 'S1'"),
    ("professors.csv", 5, "p4,B,S2,assistant,2.5", " ,B,S2,assistant,2.5",
     "professor_id", "empty"),
    ("professors.csv", 4, "p3,B,S1,assistant,5", "p3,B,S1,assistant,0",
     "years_on_staff", "must be > 0, got 0.0"),
    ("professors.csv", 4, "p3,B,S1,assistant,5", "p3,B,S1,assistant,-1",
     "years_on_staff", "must be > 0, got -1.0"),
], ids=["unknown_sds", "unknown_rank", "long_tenure", "duplicate_pair",
        "zero_authors", "huge_citations", "huge_citations_5000_digits",
        "long_garbage_integer", "inf_salary", "padded_duplicate_key",
        "blank_key", "zero_tenure", "negative_tenure"])
def test_corpus_rules_name_file_line(corpus_dir, window, name, line, old, new,
                                     fld, message):
    path = corpus_dir / name
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")
    with pytest.raises(CorpusLoadError) as err:
        load_corpus(corpus_dir, window)
    (v,) = err.value.violations
    assert (v.where, v.field, v.message) == (f"{name}:{line}", fld, message)


def test_violations_capped(corpus_dir, window, tmp_path, capsys):
    with open(corpus_dir / "publications.csv", "a", encoding="utf-8") as f:
        f.writelines(f"x{i},year{i},article,C1,4,2\n" for i in range(500))
    with pytest.raises(CorpusLoadError) as err:
        load_corpus(corpus_dir, window)
    assert len(err.value.violations) == MAX_VIOLATIONS == 100
    assert err.value.violations[-1].where == "publications.csv:106"
    assert err.value.total == 500
    assert str(err.value).startswith("500 corpus violation(s): ")
    assert str(err.value).endswith(" (+497 more)")
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text("start_year=2008\nend_year=2012\n", encoding="utf-8")
    assert main(["validate", str(corpus_dir), "--config", str(run_cfg)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "INVALID: first 100 of 500 violation(s)"
    assert len(out) == 1 + MAX_VIOLATIONS


# Two broken corpora. "cells" has problems that reading finds: bad integer,
# number and bound cells, two in one row, a quoted cell over two lines, a
# short and a long row, an empty and a duplicate key (a row with a bad cell
# is not key-checked, so the later "w1" and "w2" rows do not clash with it),
# a UDA name conflict, a field over the csv module's limit (it ends its
# file) and an undecodable byte. "references" reads cleanly and fails the
# corpus invariants.
BROKEN_CORPORA = {
    "cells": {
        "publications.csv": (
            "pub_id,year,doc_type,subject_categories,citations,n_authors_total\n"
            "w1,20x8,article,C1,4,2\n"
            'w2,2009,"article\nreview",C1,0,1\n'
            "w3,2008,article,C1|C2,99999999999999999999,abc\n"
            "w4,2008,article,C2,2\n"
            " ,2008,article,C2,2,1\n"
            "w2,2010,article,C1,9,1\n"
            "w7,1e3,article,C1,1,1\n"
            "w2,2011,article,C1,-5x,1\n"
            "w1,2008,article,C1,3,1\n"),
        "fields.csv": (
            "sds_code,sds_name,uda_code,uda_name\n"
            "S1,Field one,U1,Discipline one\n"
            "S2,Field two,U1,Discipline uno\n"),
        "salaries.csv": (
            "academic_rank,avg_yearly_salary\n"
            "assistant,1\n"
            "full,nan\n"
            f"dean,{'x' * 140_000}\n"
            "rector,x\n"),
        "professors.csv": (
            "professor_id,university_id,sds_code,academic_rank,years_on_staff\n"
            "p1,A,S1,full,five\n"
            "p2,A,S1,assistant,inf\n"
            "p3,B,S1,assistant,5,extra\n"
            "p4,B,S2,assistant,2.5\n"
            "p4,B,S2,full,3\n"),
        "authorships.csv": b"pub_id,professor_id\nw1,p1\nw2,p\xe92\n",
    },
    "references": {
        "publications.csv": (
            "pub_id,year,doc_type,subject_categories,citations,n_authors_total\n"
            "w1,2008,article,C1,4,2\n"
            "w2,2009,article,C1,0,1\n"
            "w3,2008,article, | ,-3,0\n"),
        "fields.csv": (
            "sds_code,sds_name,uda_code,uda_name\n"
            "S1,Field one,U1,Discipline one\n"),
        "salaries.csv": "academic_rank,avg_yearly_salary\nassistant,1\nfull,0\n",
        "professors.csv": (
            "professor_id,university_id,sds_code,academic_rank,years_on_staff\n"
            'p1,"Uni\nA",S9,full,5\n'
            "p2,A,S1,dean,5\n"
            "p3,B,S1,assistant,7\n"
            "p4,B,S1,assistant,2.5\n"),
        "authorships.csv": (
            "pub_id,professor_id\n"
            "w1,p1\nw9,p2\nw1,GHOST\nw1,p1\nw2,p3\nw2,p4\nw9,NOBODY\n"),
    },
}

BROKEN_REPORTS = {
    "cells": """\
INVALID: 16 violation(s)
  publications.csv:2 [year]: not an integer: '20x8'
  publications.csv:5 [citations]: must be at most 2**53 in magnitude
  publications.csv:5 [n_authors_total]: not an integer: 'abc'
  publications.csv:6 [-]: wrong number of fields: 5, expected 6
  publications.csv:7 [pub_id]: empty
  publications.csv:8 [pub_id]: duplicate key 'w2'
  publications.csv:9 [year]: not an integer: '1e3'
  publications.csv:10 [citations]: not an integer: '-5x'
  fields.csv:3 [uda_name]: conflicting names for UDA 'U1'
  salaries.csv:3 [avg_yearly_salary]: not a finite number: 'nan'
  salaries.csv:4 [-]: field larger than field limit (131072)
  professors.csv:2 [years_on_staff]: not a number: 'five'
  professors.csv:3 [years_on_staff]: not a finite number: 'inf'
  professors.csv:4 [-]: wrong number of fields: 6, expected 5
  professors.csv:6 [professor_id]: duplicate key 'p4'
  authorships.csv:3 [-]: not valid UTF-8 (byte 0xe9)
""",
    "references": """\
INVALID: 13 violation(s)
  publications.csv:4 [subject_categories]: must be non-empty
  publications.csv:4 [citations]: must be >= 0, got -3
  publications.csv:4 [n_authors_total]: must be >= 1, got 0
  professors.csv:3 [sds_code]: unknown SDS 'S9'
  professors.csv:4 [academic_rank]: rank 'dean' missing from salary table
  professors.csv:5 [years_on_staff]: 7.0 exceeds window length 5
  authorships.csv:3 [pub_id]: unknown publication 'w9'
  authorships.csv:4 [professor_id]: unknown professor 'GHOST'
  authorships.csv:5 [authorship]: duplicate pair
  authorships.csv:8 [pub_id]: unknown publication 'w9'
  authorships.csv:8 [professor_id]: unknown professor 'NOBODY'
  publications.csv:3 [n_authors_total]: 2 authorships exceed n_authors_total=1
  salaries.csv:3 [avg_yearly_salary]: must be finite and > 0, got 0.0
""",
}


@pytest.mark.parametrize("case", sorted(BROKEN_CORPORA))
def test_broken_corpus_report_is_pinned(tmp_path, capsys, case):
    """validate lists every problem of a broken corpus by file, then line,
    then column, with the exact text recorded from an earlier reader."""
    data_dir = tmp_path / case
    data_dir.mkdir()
    for name, text in BROKEN_CORPORA[case].items():
        (data_dir / name).write_bytes(
            text if isinstance(text, bytes) else text.encode())
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text("start_year=2008\nend_year=2012\n", encoding="utf-8")
    assert main(["validate", str(data_dir), "--config", str(run_cfg)]) == 1
    assert capsys.readouterr().out == BROKEN_REPORTS[case]


@pytest.mark.parametrize("text, error", [
    ("unit,fss_score,mncs_score\nA,1,1\nB,2,x\nC,y,3\n",
     ":3: mncs_score: not a number: 'x'"),
    ("unit,fss_score,mncs_score\nA,1,1\nA,2,2\nB,x,1\n",
     ":3: unit: duplicate key 'A'"),
], ids=["later_column_first", "key_before_later_cell"])
def test_first_table_problem_is_the_first_by_line(tmp_path, capsys, text,
                                                  error):
    table = tmp_path / "scores.csv"
    table.write_text(text, encoding="utf-8")
    assert main(["compare", "--from-scores", str(table),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {table}{error}\n"


def _boards_and_indexes(data_dir: Path):
    corpus = apply_filters(load_corpus(data_dir, WINDOW), RELAXED_CFG)
    pass_ = professor_pass(corpus, compute_scaling_factors(corpus))
    boards = [scoreboards(pass_, RELAXED_CFG, level) for level in LEVELS]
    pubs_by_professor: dict[str, list[str]] = {}
    for a in records(corpus).authorships:
        pubs_by_professor.setdefault(a.professor_id, []).append(a.pub_id)
    indexes = [{k: sorted(v) for k, v in index.items()}
               for index in (pubs_by_professor, professors_by_pub(corpus))]
    return boards, indexes, sorted(set(corpus.universities)), pass_._asdict()


ROW_ORDER_CORPUS = random_corpus(np.random.default_rng(5), n_universities=6,
                                 n_sds=4, profs_per=(1, 4),
                                 multi_category_share=0.3)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_row_order_changes_no_board_or_index(seed):
    """Shuffling the data rows of all five corpus files, each under its
    header, changes no scoreboard at any level, no index and no field of the
    professor pass."""
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        ordered, shuffled = Path(tmp) / "ordered", Path(tmp) / "shuffled"
        paths = write_corpus_csvs(ROW_ORDER_CORPUS, ordered)
        shuffled.mkdir()
        for path in paths:
            header, *rows = path.read_text(encoding="utf-8").splitlines(True)
            rng.shuffle(rows)
            (shuffled / path.name).write_text(header + "".join(rows),
                                              encoding="utf-8")
        expected = _boards_and_indexes(ordered)
        assert all(board_set.pairs for board_set in expected[0])
        assert _boards_and_indexes(shuffled) == expected


@pytest.mark.parametrize("years, salary", [
    (float("nan"), 1.0), (5.0, float("nan")), (5.0, float("inf")),
], ids=["nan_tenure", "nan_salary", "inf_salary"])
def test_non_finite_values_in_memory(window, years, salary):
    profs = {"p": Professor("p", "A", "S", "r", years)}
    with pytest.raises(CorpusLoadError):
        Corpus.from_records(window, {}, [], profs, FieldScheme({"S": "U"}),
                            {"r": salary})


def test_salary_times_tenure_out_of_range_is_located(corpus_dir, tmp_path,
                                                     capsys, window):
    """A valid salary and a valid tenure whose product underflows to 0,
    overflows or has no finite reciprocal, by which FSS divides, fail the
    load at the professor's row, not at the unit whose score would be nan:
    validate and score exit 1 naming it, with no traceback."""
    for name, plain, changed in [
            ("salaries.csv", "assistant,1\n", "assistant,5e-324\n"),
            ("professors.csv", "p4,B,S2,assistant,2.5",
             "p4,B,S2,assistant,0.5")]:
        text = (corpus_dir / name).read_text(encoding="utf-8")
        assert plain in text
        (corpus_dir / name).write_text(text.replace(plain, changed),
                                       encoding="utf-8")
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text("start_year=2008\nend_year=2012\n"
                       "min_years_on_staff=0\n", encoding="utf-8")
    # p4's product underflows to 0; p2's and p3's, 2.5e-323, have no
    # finite reciprocal
    problems = [f"professors.csv:{line} [years_on_staff]: {years} years at "
                f"salary 5e-324 of rank 'assistant': salary * years must be "
                f"finite and > 0, and so must its reciprocal"
                for line, years in [(3, 5.0), (4, 5.0), (5, 0.5)]]
    corpus = [str(corpus_dir), "--config", str(run_cfg)]
    assert main(["validate", *corpus]) == 1
    assert capsys.readouterr().out == "INVALID: 3 violation(s)\n" + "".join(
        f"  {problem}\n" for problem in problems)
    assert main(["score", *corpus, "--level", "sds",
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == \
        f"INVALID: 3 corpus violation(s): {'; '.join(problems)}\n"
    profs = {"p": Professor("p", "A", "S", "r", 5.0)}
    with pytest.raises(CorpusLoadError, match="salary \\* years must be"):
        Corpus.from_records(window, {}, [], profs, FieldScheme({"S": "U"}),
                            {"r": 1e308})


# ---------------------------------------------------------------------------
# Filtering

def test_filter_short_tenure(tiny_corpus):
    filtered = apply_filters(tiny_corpus, FilterConfig())
    assert "p4" not in filtered.professor_ids       # 2.5 years < 3
    assert filtered.filter_report.professors_removed_tenure == 1


# the year, categories and citations of the meeting abstract w5
W5 = (2010, ("C1",), 9)


def test_filter_excluded_doc_type(tiny_corpus):
    filtered = apply_filters(tiny_corpus, FilterConfig())
    assert "w5" not in filtered.pub_ids             # meeting abstract
    assert W5 not in zip(*filtered.baseline)
    assert filtered.filter_report.publications_removed_doctype == 1


def test_filter_baseline_keeps_doctypes_when_asked(tiny_corpus):
    cfg = FilterConfig(baseline_include_all_doctypes=True)
    filtered = apply_filters(tiny_corpus, cfg)
    assert "w5" not in filtered.pub_ids
    assert W5 in zip(*filtered.baseline)


def test_filter_threshold_zero_is_identity(tiny_corpus):
    cfg = FilterConfig(min_years_on_staff=0, excluded_doc_types=frozenset())
    filtered = apply_filters(tiny_corpus, cfg)
    assert set(filtered.professor_ids) == set(tiny_corpus.professor_ids)
    assert set(filtered.pub_ids) == set(tiny_corpus.pub_ids)


def test_filter_out_of_window_publication(tiny_corpus):
    pubs = dict(records(tiny_corpus).publications)
    pubs["old"] = Publication("old", 1999, "article", ("C1",), 3, 1)
    corpus = rebuilt(tiny_corpus, pubs)
    filtered = apply_filters(corpus, FilterConfig())
    assert "old" not in filtered.pub_ids
    assert filtered.filter_report.publications_removed_window == 1


def test_filtering_idempotent(tiny_corpus):
    """Filtering twice keeps what filtering once keeps, the baseline
    population included, whether excluded doc types stay in it or not."""
    for include_all in (False, True):
        cfg = FilterConfig(baseline_include_all_doctypes=include_all)
        once = apply_filters(tiny_corpus, cfg)
        twice = apply_filters(once, cfg)
        assert set(twice.professor_ids) == set(once.professor_ids)
        assert set(twice.pub_ids) == set(once.pub_ids)
        assert twice.digest() == once.digest()
        assert twice.baseline == once.baseline
        assert (W5 in zip(*twice.baseline)) == include_all
        assert list(compute_scaling_factors(twice).items()) == \
            list(compute_scaling_factors(once).items())


def test_filtered_authorships_reference_survivors():
    rng = np.random.default_rng(7)
    for _ in range(20):
        corpus = random_corpus(rng, n_universities=2, n_sds=2)
        filtered = apply_filters(corpus, FilterConfig())
        for a in records(filtered).authorships:
            assert a.pub_id in filtered.pub_ids
            assert a.professor_id in filtered.professor_ids


# ---------------------------------------------------------------------------
# Eligibility

def _headcount_corpus(window, counts: dict[str, int]) -> Corpus:
    profs = {}
    i = 0
    for univ, n in counts.items():
        for _ in range(n):
            i += 1
            profs[f"p{i}"] = Professor(f"p{i}", univ, "S", "r", 5.0)
    return Corpus.from_records(window, {}, [], profs, FieldScheme({"S": "U"}),
                               {"r": 1.0})


def test_eligible_units_threshold(window):
    corpus = _headcount_corpus(window, {"A": 3, "B": 1, "C": 2})
    units = eligible_ids(corpus, "sds", FilterConfig(min_professors_sds=2))
    assert units == {"S": {"A": ["p1", "p2", "p3"], "C": ["p5", "p6"]}}


def test_overall_threshold_excludes_29(window):
    corpus = _headcount_corpus(window, {"A": 29, "B": 30})
    units = eligible_ids(corpus, "overall", FilterConfig())
    assert list(units) == ["overall"]
    assert list(units["overall"]) == ["B"]


def test_eligibility_monotone_in_threshold(window):
    rng = np.random.default_rng(11)
    for _ in range(20):
        corpus = random_corpus(rng, n_universities=4, n_sds=3)
        for level in ("sds", "uda", "overall"):
            previous = None
            for threshold in (0, 1, 2, 4, 8):
                cfg = FilterConfig(min_professors_sds=threshold,
                                   min_professors_uda=threshold,
                                   min_professors_overall=threshold)
                units = {(univ, scope) for scope, members
                         in eligible_ids(corpus, level, cfg).items()
                         for univ in members}
                if previous is not None:
                    assert units <= previous
                previous = units


def test_unknown_level_rejected(tiny_corpus):
    with pytest.raises(ValueError, match="unknown level"):
        eligible_ids(tiny_corpus, "faculty", FilterConfig())


def test_scope_codes_per_level(tiny_corpus):
    # with zero thresholds, the scopes of the eligible units are the
    # populated scopes, sorted
    cfg = FilterConfig(min_professors_sds=0, min_professors_uda=0,
                       min_professors_overall=0)

    def scope_codes(corpus, level):
        return list(eligible_ids(corpus, level, cfg))

    assert scope_codes(tiny_corpus, "sds") == ["S1", "S2"]
    assert scope_codes(tiny_corpus, "uda") == ["U1"]
    assert scope_codes(tiny_corpus, "overall") == ["overall"]
    # only populated scopes count
    filtered = apply_filters(tiny_corpus, FilterConfig())   # drops p4 (S2)
    assert scope_codes(filtered, "sds") == ["S1"]


def test_scope_of_per_level(tiny_corpus):
    p4 = records(tiny_corpus).professors["p4"]
    assert scope_of(tiny_corpus, p4, "sds") == "S2"
    assert scope_of(tiny_corpus, p4, "uda") == "U1"
    assert scope_of(tiny_corpus, p4, "overall") == "overall"
    with pytest.raises(ValueError, match="unknown level"):
        scope_of(tiny_corpus, p4, "faculty")


def test_filter_config_snapshot_is_json_ready():
    cfg = FilterConfig(excluded_doc_types=frozenset({"reply", "editorial"}))
    snapshot = cfg.as_dict()
    assert json.loads(json.dumps(snapshot)) == snapshot
    assert snapshot["excluded_doc_types"] == ["editorial", "reply"]
    assert len(snapshot) == 7


# ---------------------------------------------------------------------------
# Config file

def test_read_config_full(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# analysis window\n"
        "start_year = 2008\n"
        "end_year = 2012\n"
        "citation_snapshot_label = October 2015\n"
        "min_years_on_staff = 3\n"
        "excluded_doc_types = editorial material, meeting abstract\n"
        "min_professors_sds = 2\n"
        "min_professors_uda = 10\n"
        "min_professors_overall = 30\n"
        "min_units_to_rank = 5\n"
        "baseline_include_all_doctypes = false\n",
        encoding="utf-8")
    cfg = read_config(path)
    assert cfg.window.start_year == 2008
    assert cfg.window.end_year == 2012
    assert cfg.filters.excluded_doc_types == \
        frozenset({"editorial material", "meeting abstract"})
    assert cfg.filters.min_professors_overall == 30


def test_read_config_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("start_year=2008\nend_year=2012\n", encoding="utf-8")
    cfg = read_config(path)
    assert cfg.filters == FilterConfig()


@pytest.mark.parametrize("content,match", [
    ("start_year=2008\n", "end_year"),
    ("start_year=2008\nend_year=2012\nmystery=1\n", "unknown config keys"),
    ("start_year=2008\nend_year=2012\nbaseline_include_all_doctypes=maybe\n",
     "must be boolean"),
    ("just a line\n", "expected key=value"),
    ("start_year=2008\nend_year=2012\nmin_years_on_staff=nan\n",
     r"run\.cfg:3: min_years_on_staff: must be finite"),
    ("start_year=2008\nend_year=2012\nmin_years_on_staff=inf\n",
     r"run\.cfg:3: min_years_on_staff: must be finite"),
    ("start_year=2008\nend_year=2012\nmin_professors_uda=2.5\n",
     r"run\.cfg:3: min_professors_uda: not an integer"),
    ("start_year=2008\nmin_professors_sds=1\nend_year=2012\n"
     "min_professors_sds=2\n", r"run\.cfg:4: min_professors_sds: repeated"),
    ("start_year=2012\nend_year=2008\n",
     r"run\.cfg:2: end_year: window end 2008 precedes start 2012"),
])
def test_read_config_errors(tmp_path, content, match):
    path = tmp_path / "run.cfg"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError, match=match):
        read_config(path)


def test_window_rejects_reversed_years():
    with pytest.raises(ValueError):
        ObservationWindow(2012, 2008)


def test_filterconfig_rejects_negative_threshold():
    with pytest.raises(ValueError):
        FilterConfig(min_professors_sds=-1)
