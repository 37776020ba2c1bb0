"""Records and results are immutable NamedTuples, equal by value."""
from __future__ import annotations

import pytest

from rankdiff import (FSS, Authorship, ComparisonRow, ComparisonTable,
                      CorpusPaths, DispersionStats, DivergenceSummary,
                      FieldScheme, FilterConfig, FilterReport,
                      ObservationWindow, Professor, Publication,
                      QuartileSummary, RangeSummary, RankEntry, RankedList,
                      RunConfig, ScoreBoard, ScoreboardSet, ScopePair,
                      SynthConfig, SynthConfigError, UnitScore, Violation)


def _synth_cfg() -> SynthConfig:
    return SynthConfig(seed=1, n_universities=2, sds_spec=(("S/01", "1"),),
                       professors_per_sds=(1, 2), pubs_per_professor=2.0,
                       citation_dispersion=1.0, quantity_impact_corr=0.3,
                       salary_levels=(("full", 2.0),),
                       window=ObservationWindow(2008, 2012))


def _board() -> ScoreBoard:
    return ScoreBoard("sds", "S", FSS, [UnitScore("U1", FSS, 1.5, 3)])


def _row() -> ComparisonRow:
    return ComparisonRow("U1", 3, 1.5, 1, 100.0, 0.5, 2, 50.0, -1, -50.0, 1, 2)


# each builds a record from fresh containers: two calls give equal records
RECORDS = [
    lambda: Violation("publications.csv:2", "citations", "must be >= 0"),
    lambda: ObservationWindow(2008, 2012, "snapshot"),
    lambda: Publication("W1", 2008, "article", ("C",), 3, 2),
    lambda: Authorship("W1", "P1"),
    lambda: Professor("P1", "U1", "S", "full", 5.0),
    lambda: FieldScheme({"S": "U"}, {"S": "Field"}, {"U": "Discipline"}),
    lambda: FilterConfig(min_professors_sds=1),
    lambda: FilterReport(1, 2, 3, 4),
    lambda: CorpusPaths.from_dir("corpus"),
    lambda: RunConfig(ObservationWindow(2008, 2012), FilterConfig()),
    lambda: UnitScore("U1", FSS, 1.5, research_staff=3),
    _board,
    lambda: ScopePair("S", _board(), None, ["U2"]),
    lambda: ScoreboardSet("sds", {"S": ScopePair("S", _board(), None, [])},
                          [None], ["a warning"]),
    lambda: RankEntry("U1", 1.5, 1, 100.0),
    lambda: RankedList([RankEntry("U1", 1.5, 1, 100.0)], 1, [], True),
    _row,
    lambda: ComparisonTable([_row()], 2, "S"),
    lambda: DivergenceSummary("S", 2, 100.0, 1.0, 1.0, 1, 100.0, 100.0,
                              100.0, None, None),
    lambda: QuartileSummary("S", 2, 100.0, 1.0, 1, 100.0),
    lambda: DispersionStats("S", FSS, 2, 1.0, 0.5, 0.5),
    lambda: RangeSummary("U", 2, {"pearson": (0.1, 0.9)}),
    _synth_cfg,
]


@pytest.mark.parametrize("make", RECORDS, ids=lambda make: type(make()).__name__)
def test_record_is_immutable_and_equal_by_value(make):
    record = make()
    # an AttributeError, as the FrozenInstanceError of a frozen dataclass was
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert record == make()
    changed = record._replace()
    assert type(changed) is type(record) and changed == record


@pytest.mark.parametrize("make, change, error", [
    (lambda: ObservationWindow(2008, 2012), {"end_year": 2007}, ValueError),
    (FilterConfig, {"min_years_on_staff": float("nan")}, ValueError),
    (FilterConfig, {"min_units_to_rank": -1}, ValueError),
    (_synth_cfg, {"seed": -1}, SynthConfigError),
], ids=["window", "filter_nan", "filter_negative", "synth"])
def test_replace_checks_values_like_construction(make, change, error):
    record = make()
    with pytest.raises(error):
        record._replace(**change)
    with pytest.raises(error):
        type(record)(**{**record._asdict(), **change})


def test_field_scheme_name_maps_default_empty_and_read_only():
    first, second = FieldScheme({"S": "U"}), FieldScheme({"T": "V"})
    assert first.sds_names == {} and first.uda_names == {}
    with pytest.raises(TypeError):
        first.sds_names["S"] = "Field"
    assert second.sds_names == {}
