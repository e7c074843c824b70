"""Changepoint detection and evaluation toolkit.

Detectors: binary segmentation, wild binary segmentation (WBS), WBS2 with
steepest-drop selection, and exact penalized-likelihood (BIC / mBIC)
selection, all sharing one CUSUM engine. Evaluation: an assignment-based
distance between changepoint configurations and a Monte-Carlo benchmark
harness with deterministic seeding.
"""

from .binseg import binary_segmentation
from .core import (
    ChangepointConfig,
    TimeSeries,
    gen_null,
    gen_teeth,
    mad_sigma,
    segment_means,
)
from .cusum import cusum_stat, max_cusum
from .distance import config_distance
from .penlik import (
    GaParams,
    PenalizedFit,
    RssTable,
    ga_optimize,
    hybrid_refine,
    segment_rss_table,
    select_bic,
    select_mbic,
)
from .wbs import wbs_detect
from .wbs2 import (
    CandidateEntry,
    SortedCandidateList,
    sdll_select,
    wbs2_candidates,
    wbs2_sdll_detect,
)
from .bench import (
    BenchmarkReport,
    ReportRow,
    TeethSpec,
    run_null_study,
    run_signal_study,
)

__all__ = [
    "TimeSeries",
    "ChangepointConfig",
    "gen_null",
    "gen_teeth",
    "mad_sigma",
    "segment_means",
    "cusum_stat",
    "max_cusum",
    "binary_segmentation",
    "wbs_detect",
    "CandidateEntry",
    "SortedCandidateList",
    "wbs2_candidates",
    "sdll_select",
    "wbs2_sdll_detect",
    "PenalizedFit",
    "RssTable",
    "GaParams",
    "segment_rss_table",
    "select_bic",
    "select_mbic",
    "ga_optimize",
    "hybrid_refine",
    "config_distance",
    "TeethSpec",
    "ReportRow",
    "BenchmarkReport",
    "run_null_study",
    "run_signal_study",
]

__version__ = "0.1.0"
