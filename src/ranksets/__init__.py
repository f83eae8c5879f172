"""Confidence sets for the ranks of multinomial category probabilities.

Given counts ``X ~ Multinomial(n, theta)``, this package builds sets of
ranks for each category of interest that contain the true ranks — all
of them, under ties — with guaranteed or asymptotic probability.  It
offers finite-sample procedures driven by exact pairwise binomial
tests (with Bonferroni or Holm multiplicity control), a
Clopper-Pearson interval-overlap procedure, multinomial bootstrap
procedures (studentized or not), and a naive rank-resampling baseline,
plus projections of the rank sets onto top-tau / bottom-tau category
selections and a Monte Carlo study harness.  The count-table workflow
and command line live in :mod:`ranksets.cli` (``python -m ranksets``).
"""

from ._dispatch import METHOD_NAMES, normalize_method, rank_cs
from .boot import (
    SHAPES,
    BootstrapConfig,
    DifferenceCS,
    boot_rank_cs,
    bootstrap_quantile,
    difference_cs,
    naive_rank_cs,
    resample,
)
from .core import (
    KINDS,
    IndexFamily,
    InvalidTestFamilyError,
    MultinomialSample,
    PairwiseRejections,
    ProbabilityVector,
    RankSet,
    RankTriple,
    build_index_family,
    compute_ranks,
    rankset_from_rejections,
)
from .cp import IntervalBox, clopper_pearson, cp_box, cp_rank_cs
from .exact import (
    PairwisePValueTable,
    bonferroni_reject,
    conditional_pvalue,
    exact_rank_cs,
    holm_reject,
    pairwise_pvalues,
)
from .projections import TauBestSet, tau_best, tau_worst
from .sim import (
    AES_COUNTS,
    AES_N,
    SimCell,
    SimDesign,
    SimReport,
    aes_design,
    aes_theta,
    erratic_coverage_curves,
    erratic_design,
    erratic_theta,
    large_p_study,
    run_design,
    uniform_design,
    uniform_theta,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "KINDS",
    "IndexFamily",
    "InvalidTestFamilyError",
    "MultinomialSample",
    "PairwiseRejections",
    "ProbabilityVector",
    "RankSet",
    "RankTriple",
    "build_index_family",
    "compute_ranks",
    "rankset_from_rejections",
    # exact pairwise tests
    "PairwisePValueTable",
    "bonferroni_reject",
    "conditional_pvalue",
    "exact_rank_cs",
    "holm_reject",
    "pairwise_pvalues",
    # Clopper-Pearson
    "IntervalBox",
    "clopper_pearson",
    "cp_box",
    "cp_rank_cs",
    # bootstrap
    "SHAPES",
    "BootstrapConfig",
    "DifferenceCS",
    "boot_rank_cs",
    "bootstrap_quantile",
    "difference_cs",
    "naive_rank_cs",
    "resample",
    # dispatch
    "METHOD_NAMES",
    "normalize_method",
    "rank_cs",
    # projections
    "TauBestSet",
    "tau_best",
    "tau_worst",
    # simulation harness
    "AES_COUNTS",
    "AES_N",
    "SimCell",
    "SimDesign",
    "SimReport",
    "aes_design",
    "aes_theta",
    "erratic_coverage_curves",
    "erratic_design",
    "erratic_theta",
    "large_p_study",
    "run_design",
    "uniform_design",
    "uniform_theta",
]
