"""Deterministic synthetic-corpus generator.

Produces corpora with the skewed count distributions typical of publication
data: per-professor output counts are gamma-mixed Poisson, citation counts
are gamma-mixed Poisson on top of per-professor propensity, and a latent
bivariate-normal copula couples a professor's expected output with their
expected citation rate so the sampled quantity-impact correlation can be
steered. Same seed, same bytes.
"""
from __future__ import annotations

import json
import logging
import math
import numbers
from bisect import bisect_right
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .corpus import (Authorship, Checked, Corpus, FieldScheme,
                     ObservationWindow, Professor, Publication, decode,
                     scope_name_problem, slug)
from .errors import InputError, SynthConfigError

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger("rankdiff.synth")

DOC_TYPES = ("article", "review", "meeting abstract", "editorial material")
DOC_TYPE_WEIGHTS = (0.90, 0.04, 0.04, 0.02)
RANK_WEIGHTS = {"assistant": 0.40, "associate": 0.35, "full": 0.25}

BASE_CITATION_MEAN = 6.0
SHORT_TENURE_SHARE = 0.12
COLLAB_SHARE = 0.08
SECOND_CATEGORY_SHARE = 0.15
NATIONAL_EXTRA_SHARE = 0.40
MIN_CELL_FOR_CITED_GUARANTEE = 50
OUTPUT_MIX_SHAPE = 1.8          # gamma shape of the output-rate mixture
CITE_MIX_SHAPE = 1.0            # gamma shape of the citation-propensity mixture
# Upper bound on the configured mean output per professor over the window.
# Real rates are tens of publications; far larger means would build
# millions of publications per professor, and numpy's Poisson sampler
# refuses means near 1e19.
MAX_PUBS_PER_PROFESSOR = 1000.0

# Empirical attenuation between the latent copula correlation and the
# measured count-level correlation (Poisson noise, per-publication citation
# noise, and co-authorship all dilute the coupling).
LATENT_CORR_GAIN = 1.6


class _Synth(NamedTuple):
    seed: int
    n_universities: int
    sds_spec: tuple[tuple[str, str], ...]       # (sds_code, uda_code)
    professors_per_sds: tuple[int, int]         # inclusive range per university
    pubs_per_professor: float                   # mean count over the window
    citation_dispersion: float                  # gamma shape; smaller = heavier tail
    quantity_impact_corr: float                 # target in [0, 1)
    salary_levels: tuple[tuple[str, float], ...]
    window: ObservationWindow


class SynthConfig(Checked, _Synth):
    __slots__ = ()

    def _check(self) -> None:
        if not _is_int(self.seed) or self.seed < 0:
            raise SynthConfigError(
                f"seed must be a non-negative integer, got {self.seed!r}")
        if not _is_int(self.n_universities) or self.n_universities < 1:
            raise SynthConfigError(
                f"n_universities must be an integer >= 1, "
                f"got {self.n_universities!r}")
        _check_years(self.window._asdict())
        if not self.sds_spec:
            raise SynthConfigError("sds_spec must name at least one SDS")
        first_code: dict[str, str] = {}
        uda_named: dict[str, str] = {}
        for code, uda in self.sds_spec:
            _check_name("SDS code", code)
            _check_name("UDA code", uda)
            # '|' separates a publication's categories
            if "|" in code:
                raise SynthConfigError(f"SDS code {code!r} must not contain '|'")
            cat = _primary_category(code)
            if cat in first_code:
                if first_code[cat] == code:
                    raise SynthConfigError(f"SDS code {code!r} is listed twice")
                raise SynthConfigError(
                    f"SDS codes {first_code[cat]!r} and {code!r} share "
                    f"subject category {cat!r}")
            first_code[cat] = code
            # a scope's output files are named by its slug
            other = uda_named.setdefault(slug(uda), uda)
            if other != uda:
                raise SynthConfigError(
                    f"UDA codes {other!r} and {uda!r} share the output name "
                    f"{slug(uda)!r}")
        if (len(self.professors_per_sds) != 2
                or not all(map(_is_int, self.professors_per_sds))):
            raise SynthConfigError(
                f"professors_per_sds must be two integers, "
                f"got {self.professors_per_sds!r}")
        lo, hi = self.professors_per_sds
        if lo < 0 or hi < lo:
            raise SynthConfigError(f"bad professors_per_sds range ({lo}, {hi})")
        if not 0 <= self.pubs_per_professor <= MAX_PUBS_PER_PROFESSOR:
            raise SynthConfigError(
                f"pubs_per_professor must be finite, >= 0 and "
                f"<= {MAX_PUBS_PER_PROFESSOR:g}")
        if not 0 < self.citation_dispersion < math.inf:
            raise SynthConfigError("citation_dispersion must be finite and > 0")
        if not 0 <= self.quantity_impact_corr < 1:
            raise SynthConfigError("quantity_impact_corr must be in [0, 1)")
        if not self.salary_levels:
            raise SynthConfigError("salary_levels must not be empty")
        n_years = self.window.n_years
        for rank, salary in self.salary_levels:
            _check_name("rank", rank)
            if not 0 < salary < math.inf:
                raise SynthConfigError(
                    f"salary for rank {rank!r} must be finite and > 0")
            # FSS divides by salary * tenure, and tenure is drawn in
            # [1, n_years]: the corpus check tests the product both ways
            if not all(0 < salary * t < math.inf and 1 / (salary * t) < math.inf
                       for t in (1, n_years)):
                raise SynthConfigError(
                    f"salary for rank {rank!r} times a tenure of 1 to "
                    f"{n_years} years must be finite and > 0, and so must "
                    f"its reciprocal")

    @classmethod
    def from_json(cls, path: str | Path, data: bytes | None) -> "SynthConfig":
        """The config in ``data``, the bytes ``read_bytes`` returned from
        the JSON file at ``path``."""
        try:
            # newlines translated, as a text file is read
            raw = json.loads(decode(data, path).replace("\r\n", "\n")
                             .replace("\r", "\n"))
        except InputError as exc:       # a missing file or a bad byte
            raise SynthConfigError(str(exc)) from None
        except ValueError as exc:
            raise SynthConfigError(f"{path}: invalid JSON: {exc}") from exc
        try:
            if not isinstance(raw, dict):
                raise SynthConfigError(f"must be a JSON object, got {raw!r}")
            years = raw["window"]
            if not isinstance(years, dict):
                raise SynthConfigError(f"window must be an object, got {years!r}")
            _check_years(years)     # before ObservationWindow compares them
            label = years.get("label", "")
            if not isinstance(label, str):
                raise SynthConfigError(
                    f"window label must be a string, got {label!r}")
            window = ObservationWindow(years["start_year"], years["end_year"],
                                       label)
            salaries = raw["salaries"]
            if not isinstance(salaries, dict):
                raise SynthConfigError(
                    f"salaries must be an object of rank: salary, "
                    f"got {salaries!r}")
            # codes and integer settings keep their JSON type, which
            # SynthConfig checks; _number takes only numbers
            return cls(
                seed=raw["seed"],
                n_universities=raw["n_universities"],
                sds_spec=_sds_spec(raw["sds"]),
                professors_per_sds=tuple(raw["professors_per_sds"]),
                **{name: _number(name, raw[name]) for name in (
                    "pubs_per_professor", "citation_dispersion",
                    "quantity_impact_corr")},
                salary_levels=tuple(sorted(
                    (k, _number(f"salary for rank {k!r}", v))
                    for k, v in salaries.items())),
                window=window,
            )
        except SynthConfigError as exc:
            raise SynthConfigError(f"{path}: {exc}") from exc
        except (KeyError, TypeError, ValueError, IndexError,
                OverflowError) as exc:
            raise SynthConfigError(f"{path}: bad synth config: {exc}") from exc


def _check_name(kind: str, value: object) -> None:
    """A code or rank goes to the corpus CSVs as it is, and a code names a
    scope: it must be a string that keeps the scope-name rule, which the
    corpus check applies to codes when it loads them back."""
    if not isinstance(value, str):
        raise SynthConfigError(f"{kind} {value!r} must be a string")
    problem = scope_name_problem(value)
    if problem:
        raise SynthConfigError(f"{kind} {value!r} {problem}")


def _check_years(window: dict) -> None:
    """Both years of a window, given as a mapping, must be integers."""
    for name in ("start_year", "end_year"):
        if not _is_int(window[name]):
            raise SynthConfigError(
                f"window {name} must be an integer, got {window[name]!r}")


def _sds_spec(entries: object) -> tuple[tuple[object, object], ...]:
    """The ``sds`` setting, a list of objects each with an SDS and a UDA
    code, as (sds, uda) pairs."""
    if not isinstance(entries, list):
        raise SynthConfigError(f"sds must be a list, got {entries!r}")
    for entry in entries:
        if not isinstance(entry, dict):
            raise SynthConfigError(
                f"sds entries must be objects with sds and uda, got {entry!r}")
    return tuple((e["sds"], e["uda"]) for e in entries)


def _number(name: str, value: object) -> float:
    """A number setting as a float: a JSON number, not a boolean or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SynthConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise SynthConfigError(f"{name}: {exc}") from exc


def _is_int(value: object) -> bool:
    """An integer setting: an int (numpy's too), never a bool or a float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _primary_category(sds_code: str) -> str:
    """The one primary subject category of an SDS."""
    return f"CAT_{slug(sds_code)}"


def _gamma_from_normal(z: np.ndarray, shape: float) -> np.ndarray:
    """Mean-1 gamma variates driven by standard-normal draws (copula step)."""
    # ndtr and gammaincinv are the standard normal CDF and the unit-scale
    # gamma inverse CDF, the same numbers as scipy.stats' norm.cdf and
    # gamma.ppf without its ~1 s import; numpy and scipy are imported here
    # and in generate because only synth needs them
    import numpy as np
    from scipy import special
    u = special.ndtr(z)
    # clip away exact 0/1 so the inverse stays finite
    u = np.clip(u, 1e-12, 1 - 1e-12)
    return special.gammaincinv(shape, u) / shape


def _choice_cdf(p: np.ndarray) -> list[float]:
    """The cdf that ``rng.choice(len(p), p=p)`` builds on every call.

    ``bisect_right(cdf, rng.random())`` picks the same index from the same
    one-double draw, without choice's argument checks.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def generate(cfg: SynthConfig) -> Corpus:
    """Build a validated corpus from the config; deterministic per seed."""
    import numpy as np
    rng = np.random.default_rng(cfg.seed)
    # a scalar pick makes the draw rng.choice makes internally, without its
    # per-call argument checks: a uniform pick is rng.integers(0, n) into a
    # list, a weighted pick one rng.random() searched in the cdf choice
    # builds; the stream, and every output byte, stay the same
    window = cfg.window
    years = list(range(window.start_year, window.end_year + 1))
    n_years = len(years)
    doc_type_cdf = _choice_cdf(np.array(DOC_TYPE_WEIGHTS))

    sds_codes = [code for code, _ in cfg.sds_spec]
    scheme = FieldScheme(
        sds_to_uda={code: uda for code, uda in cfg.sds_spec},
        sds_names={code: f"Field {code}" for code, _ in cfg.sds_spec},
        uda_names={uda: f"Discipline {uda}" for _, uda in cfg.sds_spec},
    )
    salary_table = dict(cfg.salary_levels)
    ranks = sorted(salary_table)
    rank_p = np.array([RANK_WEIGHTS.get(r, 1.0) for r in ranks])
    rank_cdf = _choice_cdf(rank_p / rank_p.sum())

    # one primary subject category per SDS; citation behavior varies by field
    primary_of = {code: _primary_category(code) for code in sds_codes}
    cat_factor = {primary_of[code]: float(f)
                  for code, f in zip(sds_codes,
                                     rng.lognormal(0.0, 0.4, len(sds_codes)))}
    # a second category comes from another SDS of the same UDA
    uda_cats: dict[str, list[str]] = {}
    for code, uda in cfg.sds_spec:
        uda_cats.setdefault(uda, []).append(primary_of[code])
    second_choices = {
        code: [c for c in uda_cats[uda] if c != primary_of[code]]
        for code, uda in cfg.sds_spec}
    yr_factor = {y: 1.0 - 0.45 * i / max(1, n_years - 1)
                 for i, y in enumerate(years)}

    universities = [f"UNIV_{i:03d}" for i in range(1, cfg.n_universities + 1)]

    professors: dict[str, Professor] = {}
    prof_sds: dict[str, list[str]] = {code: [] for code in sds_codes}
    lo, hi = cfg.professors_per_sds
    pid = 0
    for univ in universities:
        for code in sds_codes:
            for _ in range(int(rng.integers(lo, hi + 1))):
                pid += 1
                name = f"PROF_{pid:05d}"
                rank_name = ranks[bisect_right(rank_cdf, rng.random())]
                if rng.random() < SHORT_TENURE_SHARE:
                    tenure = round(float(rng.uniform(1.0, n_years)), 1)
                else:
                    tenure = float(n_years)
                professors[name] = Professor(name, univ, code, rank_name, tenure)
                prof_sds[code].append(name)

    prof_ids = sorted(professors)
    n_prof = len(prof_ids)

    # latent copula: output propensity and citation propensity per professor
    latent_r = min(0.995, LATENT_CORR_GAIN * cfg.quantity_impact_corr)
    cov = np.array([[1.0, latent_r], [latent_r, 1.0]])
    uv = rng.multivariate_normal(np.zeros(2), cov, size=n_prof,
                                 method="cholesky")
    out_mult = _gamma_from_normal(uv[:, 0], shape=OUTPUT_MIX_SHAPE)
    cite_mult = _gamma_from_normal(uv[:, 1], shape=CITE_MIX_SHAPE)
    pub_counts = rng.poisson(cfg.pubs_per_professor * out_mult).tolist()
    cite_mults = cite_mult.tolist()

    publications: dict[str, Publication] = {}
    authorships: list[Authorship] = []
    pub_no = 0
    for idx, name in enumerate(prof_ids):
        prof = professors[name]
        pool = prof_sds[prof.sds_code]
        primary = primary_of[prof.sds_code]
        seconds = second_choices[prof.sds_code]
        for _ in range(pub_counts[idx]):
            pub_no += 1
            pub_id = f"PUB_{pub_no:06d}"
            year = years[rng.integers(0, n_years)]
            doc_type = DOC_TYPES[bisect_right(doc_type_cdf, rng.random())]
            cats = [primary]
            if seconds and rng.random() < SECOND_CATEGORY_SHARE:
                cats.append(seconds[rng.integers(0, len(seconds))])
            authors = [name]
            if len(pool) > 1 and rng.random() < COLLAB_SHARE:
                others = [p for p in pool if p != name]
                k = int(rng.integers(1, min(3, len(others)) + 1))
                picked = rng.choice(len(others), size=k, replace=False)
                authors += [others[i] for i in sorted(picked)]
            externals = int(rng.poisson(3.0))
            n_authors = len(authors) + externals
            mean_c = (BASE_CITATION_MEAN * cite_mults[idx]
                      * cat_factor[primary] * yr_factor[year])
            noise = float(rng.gamma(cfg.citation_dispersion,
                                    1.0 / cfg.citation_dispersion))
            citations = int(rng.poisson(mean_c * noise))
            publications[pub_id] = Publication(pub_id, year, doc_type,
                                               tuple(cats), citations, n_authors)
            for author in authors:
                authorships.append(Authorship(pub_id, author))

    # extra national publications with no university author: they widen the
    # baseline population the way non-academic national output would
    n_extra = int(NATIONAL_EXTRA_SHARE * len(publications))
    mean_cite_mult = float(np.mean(cite_mult)) if n_prof else 1.0
    for _ in range(n_extra):
        pub_no += 1
        pub_id = f"PUB_{pub_no:06d}"
        year = years[rng.integers(0, n_years)]
        cat = primary_of[sds_codes[rng.integers(0, len(sds_codes))]]
        mean_c = BASE_CITATION_MEAN * mean_cite_mult * cat_factor[cat] * yr_factor[year]
        noise = float(rng.gamma(cfg.citation_dispersion,
                                1.0 / cfg.citation_dispersion))
        citations = int(rng.poisson(mean_c * noise))
        n_authors = 1 + int(rng.poisson(3.0))
        publications[pub_id] = Publication(pub_id, year, "article", (cat,),
                                           citations, n_authors)

    _ensure_cited_cells(publications, rng)

    corpus = Corpus.from_records(window, publications, authorships,
                                 professors, scheme, salary_table)
    log.info("synthesized corpus (seed %d): %s", cfg.seed, corpus.counts())
    return corpus


def _ensure_cited_cells(publications: dict[str, Publication],
                        rng: np.random.Generator) -> None:
    """Any heavily populated (year, category) cell must hold a cited record."""
    cells: dict[tuple[int, str], list[str]] = {}
    cited: set[tuple[int, str]] = set()
    for pub_id in sorted(publications):
        pub = publications[pub_id]
        for cat in pub.subject_categories:
            key = (pub.year, cat)
            cells.setdefault(key, []).append(pub_id)
            if pub.citations > 0:
                cited.add(key)
    for key in sorted(cells):
        if len(cells[key]) >= MIN_CELL_FOR_CITED_GUARANTEE and key not in cited:
            pub_id = cells[key][int(rng.integers(len(cells[key])))]
            pub = publications[pub_id]
            publications[pub_id] = pub._replace(
                citations=1 + int(rng.poisson(2.0)))
            log.info("cell %s had no cited publication; re-drew %s", key, pub_id)

