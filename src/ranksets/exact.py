"""Exact conditional pairwise tests and finite-sample rank confidence sets.

The comparison of two multinomial categories reduces, conditional on
the sum of their counts ``s = X_j + X_k``, to a binomial problem:
under the boundary of ``H: theta_j <= theta_k`` the first count is
Binomial(s, 1/2).  The one-sided p-value is therefore an exact
binomial tail, computable in integer arithmetic, and any familywise
error correction over a family of such tests yields rank confidence
sets with finite-sample coverage via the rejection-counting
construction in :mod:`ranksets.core`.

Inference always uses the non-randomized rule "reject iff p-value <=
threshold".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .core import (
    IndexFamily,
    MultinomialSample,
    PairwiseRejections,
    RankSet,
    _check_alpha,
    _target_pairs,
    build_index_family,
    rankset_from_rejections,
)

__all__ = [
    "PairwisePValueTable",
    "conditional_pvalue",
    "pairwise_pvalues",
    "bonferroni_reject",
    "holm_reject",
    "exact_rank_cs",
]

CORRECTIONS = ("bonferroni", "holm")


@lru_cache(maxsize=64)
def _tail_numerator(x: int, s: int) -> int:
    """Integer numerator of P{Bin(s, 1/2) >= x}, i.e. sum_{i=x}^{s} C(s, i).

    Summed by the exact recurrence between neighbouring binomial
    coefficients over the shorter tail, ``O(min(x, s - x))`` integer
    steps for ``x <= s``: upward from ``C(s, s) = 1`` when ``2x > s``,
    otherwise ``2**s`` minus the terms below ``x``.
    """
    if x <= 0:
        return 1 << s
    term = total = 1
    if 2 * x > s:
        for i in range(s, x, -1):  # C(s, i - 1) = C(s, i) * i / (s - i + 1)
            term = term * i // (s - i + 1)
            total += term
        return total
    for i in range(x - 1):  # C(s, i + 1) = C(s, i) * (s - i) / (i + 1)
        term = term * (s - i) // (i + 1)
        total += term
    return (1 << s) - total


# Each entry is one float; the paper's tables (n <= 238) have < 57k pairs.
@lru_cache(maxsize=2**16)
def conditional_pvalue(x_j: int, x_k: int) -> float:
    """Exact one-sided p-value for ``theta_j <= theta_k`` given the counts.

    Parameters
    ----------
    x_j, x_k : int
        Non-negative counts of the two categories.

    Returns
    -------
    float
        ``2**-s * sum_{i=x_j}^{s} C(s, i)`` with ``s = x_j + x_k``,
        evaluated in exact integer arithmetic (the final division is
        correctly rounded).  Always in ``(0, 1]``; a pair with
        ``s = 0`` carries no evidence and returns 1.
    """
    x_j, x_k = int(x_j), int(x_k)
    if x_j < 0 or x_k < 0:
        raise ValueError("counts must be non-negative")
    s = x_j + x_k
    return _tail_numerator(x_j, s) / (1 << s)


# eq=False: == on numpy fields would be elementwise.
@dataclass(frozen=True, eq=False)
class PairwisePValueTable:
    """Exact p-values of an index family as one ``p x p`` array.

    ``pvalues[a, b]`` (read-only) is the p-value of ``theta_a <=
    theta_b``, whose rejection claims ``theta_a > theta_b``; entries
    outside ``family.mask`` are NaN.
    """

    family: IndexFamily
    pvalues: np.ndarray

    def __post_init__(self) -> None:
        pvalues = np.asarray(self.pvalues, dtype=float).view()
        pvalues.flags.writeable = False
        object.__setattr__(self, "pvalues", pvalues)


def pairwise_pvalues(
    sample: MultinomialSample, family: IndexFamily
) -> PairwisePValueTable:
    """Evaluate the conditional test p-value for every family pair.

    The table is shared: ``exactBonf`` and ``exactHolm`` on the same
    counts and family get one table, built once.
    """
    return _pvalue_table(sample.counts, family)


# Bonferroni and Holm on one table run back to back, over every group
# of a dataset in turn; each entry is p x p floats (8 MB at p = 1000).
@lru_cache(maxsize=8)
def _pvalue_table(
    counts: tuple[int, ...], family: IndexFamily
) -> PairwisePValueTable:
    c = np.asarray(counts)
    rows, cols = np.nonzero(family.mask)
    pvalues = np.full(family.mask.shape, np.nan)
    tails = map(conditional_pvalue, c[rows].tolist(), c[cols].tolist())
    pvalues[rows, cols] = list(tails)
    return PairwisePValueTable(family=family, pvalues=pvalues)


def bonferroni_reject(
    table: PairwisePValueTable, alpha: float, scope: str = "simultaneous"
) -> PairwiseRejections:
    """Reject every pair whose p-value is at most ``alpha / m``.

    ``m`` is the number of pairs held to one threshold: the family size
    ``|I|``, or in marginal ``scope`` the size of one target's own family
    (``2(p - 1)`` two-sided, ``p - 1`` one-sided), which is the same for
    every target and so gives one shared threshold.
    """
    _check_alpha(alpha)
    family, pvalues = table.family, table.pvalues
    m = _target_pairs(family, scope)[0].shape[1]
    return PairwiseRejections.at_threshold(
        family, lambda t: pvalues <= t, alpha / m
    )


def holm_reject(
    table: PairwisePValueTable, alpha: float, scope: str = "simultaneous"
) -> PairwiseRejections:
    """Step-down rejection: strictly more powerful than Bonferroni.

    The ``l``-th smallest p-value is rejected iff it and every smaller
    one passed its own threshold ``alpha / (m + 1 - l)``.  The
    thresholds strictly increase, so p-values tied with the first
    failure fail with it, and the rejections are exactly the p-values
    below that failure.  Each row of :func:`~ranksets.core._target_pairs`
    (the whole family, or in marginal ``scope`` each target's own family
    of ``m`` pairs) steps down on its own, and all rows' stops come from
    one row-wise sort.
    """
    _check_alpha(alpha)
    family, pvalues = table.family, table.pvalues
    jj, kk = _target_pairs(family, scope)
    ordered = np.sort(pvalues[jj, kk], axis=1)
    m = ordered.shape[1]
    failed = ordered > alpha / np.arange(m, 0, -1)
    first = failed.argmax(axis=1)
    stop = np.where(
        failed.any(axis=1), ordered[np.arange(len(ordered)), first], np.inf
    )
    return PairwiseRejections.at_threshold(family, lambda t: pvalues < t, stop)


def exact_rank_cs(
    sample: MultinomialSample,
    J0: Iterable[int] | None = None,
    kind: str = "two_sided",
    alpha: float = 0.05,
    correction: str = "holm",
    scope: str = "simultaneous",
) -> RankSet:
    """Finite-sample confidence set for the ranks of selected categories.

    Parameters
    ----------
    sample : MultinomialSample
        Observed counts.
    J0 : iterable of int, optional
        0-based categories of interest; all categories by default.
    kind : {'lower', 'upper', 'two_sided'}
        Sidedness of the rank bounds.
    alpha : float
        One minus the simultaneous coverage level over ``J0``.
    correction : {'bonferroni', 'holm'}
        Familywise error correction for the pairwise tests.
    scope : {'simultaneous', 'marginal'}
        ``'marginal'`` gives each target the interval of its own family
        ``J0 = {j}`` (coverage ``1 - alpha`` per target) from one
        p-value table.

    Returns
    -------
    RankSet
        Rank intervals with simultaneous (or, in marginal scope,
        per-target) finite-sample coverage at least ``1 - alpha``.
    """
    if correction not in CORRECTIONS:
        raise ValueError(
            f"correction must be one of {CORRECTIONS}, got {correction!r}"
        )
    family = build_index_family(kind, J0, sample.p)
    table = pairwise_pvalues(sample, family)
    if correction == "bonferroni":
        rej = bonferroni_reject(table, alpha, scope)
        method = "exactBonf"
    else:
        rej = holm_reject(table, alpha, scope)
        method = "exactHolm"
    return rankset_from_rejections(rej, method=method, alpha=alpha)
