from __future__ import annotations

import json
import logging
import re
from bisect import bisect_right

import pytest

from rankdiff import (FilterConfig, ObservationWindow, SynthConfig,
                      SynthConfigError, apply_filters,
                      compute_scaling_factors, generate, load_corpus,
                      professor_pass, scoreboards, write_corpus_csvs)
from rankdiff.synth import (DOC_TYPE_WEIGHTS, MAX_PUBS_PER_PROFESSOR,
                            _choice_cdf)
from helpers import (measure_quantity_impact_correlation, professors_by_pub,
                     records, unit_ids)


def small_cfg(seed=7, **overrides) -> SynthConfig:
    base = dict(
        seed=seed, n_universities=6,
        sds_spec=(("SDS/01", "1"), ("SDS/02", "1"), ("SDS/03", "2")),
        professors_per_sds=(2, 5), pubs_per_professor=5.0,
        citation_dispersion=1.0, quantity_impact_corr=0.4,
        salary_levels=(("assistant", 45000.0), ("full", 80000.0)),
        window=ObservationWindow(2008, 2012, "synthetic snapshot"),
    )
    base.update(overrides)
    return SynthConfig(**base)


def multi_uda_cfg(seed=4) -> SynthConfig:
    """Three UDAs of three or four SDS: second categories and co-authors."""
    return SynthConfig(
        seed=seed, n_universities=9,
        sds_spec=tuple((f"SDS/{i:02d}", f"{i % 3 + 1}") for i in range(10)),
        professors_per_sds=(1, 6), pubs_per_professor=7.0,
        citation_dispersion=0.8, quantity_impact_corr=0.3,
        salary_levels=(("assistant", 45000.0), ("associate", 60000.0),
                       ("full", 80000.0)),
        window=ObservationWindow(2006, 2012, "synthetic snapshot"))


def redraw_cfg() -> SynthConfig:
    """Heavy-tailed citations leave populated cells uncited, so
    _ensure_cited_cells re-draws."""
    return small_cfg(seed=1, n_universities=12, pubs_per_professor=8.0,
                     citation_dispersion=1e-3)


def test_same_seed_same_corpus():
    assert generate(small_cfg()).digest() == generate(small_cfg()).digest()


def test_same_seed_byte_identical_files(tmp_path):
    paths_a = write_corpus_csvs(generate(small_cfg()), tmp_path / "a")
    paths_b = write_corpus_csvs(generate(small_cfg()), tmp_path / "b")
    for pa, pb in zip(paths_a, paths_b):
        assert pa.read_bytes() == pb.read_bytes()


# Corpus.digest() values pinned from the generator before its pick lists were
# prebuilt: any change to the random stream or to how draws become records
# changes a digest
@pytest.mark.parametrize("make_cfg, digest", [
    (lambda: small_cfg(seed=1),
     "65a51022d1d34ffb7571d5b33d79c5c4be23d9c5a70ecdfda575791ecc73e6ef"),
    (lambda: small_cfg(seed=2),
     "c967b47dd771020f2b8a3bb5401663b54470b809989dd8777e3e27584d1b0b9f"),
    (lambda: small_cfg(seed=7),
     "77c392353050c3e11ddc20447be41b83c318c0d7f0f30a89e2b5fe0ed9df7fe8"),
    (multi_uda_cfg,
     "4c1d2a0abd5c2ec2cfa4dfe5d4212240683809110cfc696fd77ea4b668f8194d"),
    (redraw_cfg,
     "0004b369858dcc6a81fc9aa7b0380005524e1065e51ff5de9c4f10dc98ac9082"),
], ids=["small_seed1", "small_seed2", "small_seed7", "multi_uda", "redraw"])
def test_stream_pinned(make_cfg, digest):
    assert generate(make_cfg()).digest() == digest


def test_redraw_cfg_reaches_redraw(caplog):
    caplog.set_level(logging.INFO, logger="rankdiff.synth")
    generate(redraw_cfg())
    assert "had no cited publication" in caplog.text


def test_scalar_picks_draw_what_rng_choice_draws():
    import numpy as np
    p = np.array(DOC_TYPE_WEIGHTS)
    cdf = _choice_cdf(p)
    choice_rng, pick_rng = np.random.default_rng(5), np.random.default_rng(5)
    for n in range(1, 300):
        assert bisect_right(cdf, pick_rng.random()) == \
            choice_rng.choice(len(p), p=p)
        assert pick_rng.integers(0, n) == choice_rng.choice(n)


def test_multi_uda_cfg_draws_second_categories_and_coauthors():
    corpus = generate(multi_uda_cfg())
    assert any(len(cats) > 1 for cats in corpus.categories)
    assert any(len(authors) > 1 for authors in professors_by_pub(corpus).values())


def test_different_seed_different_corpus():
    assert generate(small_cfg(seed=1)).digest() != \
        generate(small_cfg(seed=2)).digest()


def test_generated_corpora_validate():
    for seed in range(5):
        corpus = generate(small_cfg(seed=seed))   # Corpus() validates
        assert corpus.counts()["professors"] > 0
        assert corpus.counts()["publications"] > 0


def test_cross_university_coauthorship_and_external_authors():
    corpus = generate(small_cfg(seed=3, n_universities=10,
                                professors_per_sds=(4, 8)))
    rows = records(corpus)
    profs = rows.professors
    by_pub = professors_by_pub(corpus)
    cross = any(
        len({profs[a].university_id for a in authors}) > 1
        for authors in by_pub.values())
    fractional = any(
        len(by_pub.get(pub_id, [])) <
        rows.publications[pub_id].n_authors_total
        for pub_id in rows.publications)
    assert cross
    assert fractional


def test_populated_cells_have_cited_publication():
    corpus = generate(small_cfg(seed=11, n_universities=12,
                                pubs_per_professor=8.0))
    cells: dict[tuple[int, str], list] = {}
    for pub in records(corpus).publications.values():
        for cat in pub.subject_categories:
            cells.setdefault((pub.year, cat), []).append(pub.citations)
    for key, citations in cells.items():
        if len(citations) >= 50:
            assert any(c > 0 for c in citations), key


def test_quantity_impact_correlation_steering():
    cfg = SynthConfig(
        seed=5, n_universities=25,
        sds_spec=tuple((f"SDS/{i:02d}", f"{i % 4 + 1}") for i in range(8)),
        professors_per_sds=(8, 12), pubs_per_professor=8.0,
        citation_dispersion=1.5, quantity_impact_corr=0.6,
        salary_levels=(("assistant", 45000.0), ("associate", 60000.0),
                       ("full", 80000.0)),
        window=ObservationWindow(2008, 2012, "synthetic snapshot"))
    corpus = generate(cfg)
    assert len(corpus.professor_ids) >= 2000
    table = compute_scaling_factors(corpus)
    measured = measure_quantity_impact_correlation(
        professor_pass(corpus, table))
    assert measured == pytest.approx(0.6, abs=0.1)


def test_chemistry_shaped_corpus_runs_all_pipelines():
    # 61 universities, 12 fields in one discipline, ~3174 professors
    cfg = SynthConfig(
        seed=9, n_universities=61,
        sds_spec=tuple((f"CHIM/{i:02d}", "3") for i in range(1, 13)),
        professors_per_sds=(2, 7), pubs_per_professor=4.0,
        citation_dispersion=1.0, quantity_impact_corr=0.5,
        salary_levels=(("assistant", 45000.0), ("associate", 60000.0),
                       ("full", 80000.0)),
        window=ObservationWindow(2008, 2012, "synthetic snapshot"))
    corpus = generate(cfg)
    assert len(corpus.professor_ids) == pytest.approx(3174, rel=0.15)
    filtered = apply_filters(corpus, FilterConfig())
    table = compute_scaling_factors(filtered)
    for level in ("sds", "uda", "overall"):
        board_set = scoreboards(professor_pass(filtered, table),
                                FilterConfig(), level)
        assert board_set.pairs, level
        for pair in board_set.pairs.values():
            assert unit_ids(pair.fss) == unit_ids(pair.mncs)


# ---------------------------------------------------------------------------
# Config validation

@pytest.mark.parametrize("overrides", [
    {"n_universities": 0},
    {"sds_spec": ()},
    {"professors_per_sds": (5, 2)},
    {"pubs_per_professor": -1.0},
    {"citation_dispersion": 0.0},
    {"quantity_impact_corr": 1.0},
    {"salary_levels": ()},
    {"salary_levels": (("assistant", 0.0),)},
    {"pubs_per_professor": float("nan")},
    {"pubs_per_professor": float("inf")},
    {"citation_dispersion": float("nan")},
    {"citation_dispersion": float("inf")},
    {"salary_levels": (("assistant", float("nan")),)},
    {"salary_levels": (("assistant", float("inf")),)},
    {"sds_spec": (("SDS/01", "1"), ("SDS/02", "1"), ("SDS/01", "1"))},
    {"pubs_per_professor": 1e20},
    {"pubs_per_professor": MAX_PUBS_PER_PROFESSOR + 1},
    {"seed": -1},
    {"seed": 1.7},
    {"seed": True},
    {"n_universities": 2.9},
    {"professors_per_sds": "13"},
    {"professors_per_sds": (2, 5.0)},
    {"professors_per_sds": (2, 4, 5)},
    {"window": ObservationWindow(2008.0, 2012)},
    {"window": ObservationWindow(True, 2012)},
])
def test_invalid_config_rejected(overrides):
    with pytest.raises(SynthConfigError):
        small_cfg(**overrides)


def test_pubs_per_professor_bound_is_inclusive():
    assert small_cfg(pubs_per_professor=MAX_PUBS_PER_PROFESSOR) \
        .pubs_per_professor == MAX_PUBS_PER_PROFESSOR


@pytest.mark.parametrize("sds_spec, message", [
    ((("SDS/01", "1"), ("SDS/01", "2")), "SDS code 'SDS/01' is listed twice"),
    # both codes become subject category CAT_A_B
    ((("A/B", "1"), ("A_B", "1")), "SDS codes 'A/B' and 'A_B' share"),
], ids=["repeated", "shared_category"])
def test_sds_code_clash_named(sds_spec, message):
    with pytest.raises(SynthConfigError, match=message):
        small_cfg(sds_spec=sds_spec)


@pytest.mark.parametrize("sds_spec, message", [
    ((("", "1"),), "SDS code '' must be non-empty"),
    ((("SDS/01", "1"), (" A ", "1")), "SDS code ' A ' must be non-empty and "
                                      "have no surrounding spaces"),
    ((("A|B", "1"),), "SDS code 'A|B' must not contain '|'"),
    ((("SDS/01", ""),), "UDA code '' must be non-empty"),
    ((("SDS/01", "1 "),), "UDA code '1 ' must be non-empty and have no "
                          "surrounding spaces"),
], ids=["empty_sds", "padded_sds", "pipe_sds", "empty_uda", "padded_uda"])
def test_code_that_would_not_load_back_rejected(sds_spec, message):
    with pytest.raises(SynthConfigError, match=re.escape(message)):
        small_cfg(sds_spec=sds_spec)


@pytest.mark.parametrize("rank", ["", " full", "full "])
def test_rank_that_would_not_load_back_rejected(rank):
    """A rank is a key of salaries.csv: like a code, it must be non-empty
    and have no surrounding spaces, or the corpus fails its own validate."""
    with pytest.raises(SynthConfigError, match=re.escape(
            f"rank {rank!r} must be non-empty and have no surrounding "
            f"spaces")):
        small_cfg(salary_levels=(("assistant", 45000.0), (rank, 80000.0)))


@pytest.mark.parametrize("salary", [1234567.0, 98765.43, 45000.0, 0.1 + 0.2,
                                    1e22, 1e-300])
def test_synth_salaries_load_back_as_generated(tmp_path, salary):
    """Every salary and tenure in the CSVs reads back equal to the value
    generated: ``:g`` where it keeps the value, its repr where six
    significant digits would round it."""
    corpus = generate(small_cfg(
        n_universities=2, salary_levels=(("assistant", salary),
                                         ("full", 80000.0))))
    paths = write_corpus_csvs(corpus, tmp_path / "corpus")
    loaded = load_corpus(paths, corpus.window)
    assert loaded.salary_table == corpus.salary_table
    assert loaded.years_on_staff == corpus.years_on_staff
    assert loaded.digest() == corpus.digest()


def test_config_from_json(tmp_path):
    payload = {
        "seed": 3,
        "n_universities": 4,
        "sds": [{"sds": "SDS/01", "uda": "1"}, {"sds": "SDS/02", "uda": "2"}],
        "professors_per_sds": [2, 4],
        "pubs_per_professor": 5.0,
        "citation_dispersion": 1.0,
        "quantity_impact_corr": 0.4,
        "salaries": {"assistant": 45000, "full": 80000},
        "window": {"start_year": 2008, "end_year": 2012, "label": "synth"},
    }
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    cfg = SynthConfig.from_json(path, path.read_bytes())
    assert cfg.seed == 3
    assert cfg.sds_spec == (("SDS/01", "1"), ("SDS/02", "2"))
    assert cfg.window.n_years == 5


def test_config_from_json_errors(tmp_path):
    path = tmp_path / "synth.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SynthConfigError, match="invalid JSON"):
        SynthConfig.from_json(path, path.read_bytes())
    path.write_text(json.dumps({"seed": 1}), encoding="utf-8")
    with pytest.raises(SynthConfigError, match="bad synth config"):
        SynthConfig.from_json(path, path.read_bytes())
    with pytest.raises(SynthConfigError, match=re.escape(
            f"{path}: file not found")):
        SynthConfig.from_json(path, None)
    with pytest.raises(SynthConfigError, match=re.escape(
            f"{path}:2: not valid UTF-8 (byte 0xfe)")):
        SynthConfig.from_json(path, b'{\n"seed": "\xfe"}')


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                         ids=["lf", "crlf", "cr"])
def test_config_json_error_counts_one_character_per_newline(newline):
    """A JSON syntax error is placed as in the file read as text: each
    newline, CRLF included, is one character."""
    data = newline.join(["{", ' "seed": 1,', " x}"]).encode()
    with pytest.raises(SynthConfigError) as exc:
        SynthConfig.from_json("synth.json", data)
    assert str(exc.value) == (
        "synth.json: invalid JSON: Expecting property name enclosed in double "
        "quotes: line 3 column 2 (char 15)")
