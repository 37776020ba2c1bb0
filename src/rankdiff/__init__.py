"""rankdiff: FSS/MNCS research-performance indicators and ranking-divergence
analytics over publication/staff corpora."""

from .baselines import (CellStats, ScalingFactorTable, compute_scaling_factors,
                        normalized_impact, scaling_factor)
from .corpus import (Authorship, Corpus, CorpusPaths, FieldScheme,
                     FilterConfig, FilterReport, LEVEL_OVERALL, LEVEL_SDS,
                     LEVEL_UDA, LEVELS, ObservationWindow, Professor,
                     Publication, RunConfig, apply_filters, eligible_units,
                     load_corpus, read_config, write_corpus_csvs)
from .divergence import (DispersionStats, DivergenceSummary, QuartileSummary,
                         RangeSummary, average_ranks, dispersion, pearson,
                         quartile_stats, range_summary, shift_stats, spearman)
from .errors import (CorpusLoadError, DegeneratePopulation,
                     DegenerateVariance, EmptyBoard, MissingBaseline,
                     NoRankableSds, RankdiffError, SynthConfigError,
                     UnitSetMismatch, Violation, ZeroMean)
from .indicators import (BOTH, FSS, MNCS, ProfessorPass, ScoreBoard,
                         ScoreboardSet, ScopePair, UnitScore, impact_map,
                         professor_pass, professor_scores, scoreboards,
                         sds_averages, unit_scores)
from .ranking import (ComparisonRow, ComparisonTable, RankEntry, RankedList,
                      compare, natural_key, percentile, quartile, rank,
                      round_half_away, shift_glyph)
from .synth import (SynthConfig, generate,
                    measure_quantity_impact_correlation)

__version__ = "0.1.0"
