"""Exact conditional pairwise tests and finite-sample rank confidence sets.

The comparison of two multinomial categories reduces, conditional on
the sum of their counts ``s = X_j + X_k``, to a binomial problem:
under the boundary of ``H: theta_j <= theta_k`` the first count is
Binomial(s, 1/2).  The one-sided p-value is therefore an exact
binomial tail, and any familywise error correction over a family of
such tests yields rank confidence sets with finite-sample coverage via
the rejection-counting construction in :mod:`ranksets.core`.

Every p-value is the correctly rounded double of the exact tail.  Up
to ``s = 512`` the tail is summed in exact integers.  Above that, its
shorter side is summed with a fixed-precision term of about 128 bits
and a proven error bound; the p-value is returned when both ends of
the bound round to the same double, and otherwise (rare at 128
bits) the exact integer sum decides.

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

# Up to this total, exact integers cost no more than fixed-precision ones.
_EXACT_MAX_S = 512
# Bits kept in the running term of the fixed-precision tail sum.
_PRECISION_BITS = 128


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


def _short_sum_bounds(t: int, s: int) -> tuple[int, int, int]:
    """``(a, e, g)`` with ``a * 2**g <= S <= (a + e) * 2**g``, ``S = sum_{i<t} C(s, i)``.

    Proven for ``2t <= s + 1``, where the terms only rise, and for ``t <=
    2**(K - 2)`` with ``K = _PRECISION_BITS``.  The terms follow the
    recurrence ``C(s, i + 1) = C(s, i) * (s - i) / (i + 1)`` exactly
    until one passes ``K + 32`` bits; from then on the term and the
    running total are shifted right together to keep ``K`` bits in the
    term, and ``2**g`` is the scale shifted out.  The returned ``e`` is
    0 when nothing was shifted.

    Why the bound holds: after the first shift the term never drops
    below ``2**(K - 1)``, so each of the at most ``2t`` floors (one per
    step, one per shift) loses under one unit, a relative
    ``eps = 2**(1 - K)`` of the term.  By induction the true term is at
    most ``w`` times the one held, ``w = (1 + eps)**(2t) <= 1 + 4t*eps
    <= 3``, and the true total at most ``w * (a + shifts)``, with
    ``shifts <= t``: an excess of at most ``4t*eps*a + 3t``.
    """
    K = _PRECISION_BITS
    cap = 1 << (K + 32)
    term, total, g = 1, 0, 0
    for num, den in zip(range(s, s - t, -1), range(1, t + 1)):
        total += term
        term = term * num // den
        if term >= cap:
            k = term.bit_length() - K
            term >>= k
            total >>= k
            g += k
    if not g:
        return total, 0, 0
    return total, ((4 * t * total) >> (K - 1)) + 3 * t + 1, g


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
        correctly rounded to a double (it underflows to 0 only beyond
        ``s = 1074``); a pair with ``s = 0`` carries no evidence and
        returns 1.  Up to ``s = 512`` the sum is an exact integer.
        Above, the shorter side of the tail is summed in fixed
        precision between proven bounds, and the value is returned when
        both bounds round to it; otherwise the exact integer sum is
        divided out instead.
    """
    x_j, x_k = int(x_j), int(x_k)
    if x_j < 0 or x_k < 0:
        raise ValueError("counts must be non-negative")
    s = x_j + x_k
    # The short side: the upper tail is sum_{i<=x_k} C(s, i) when
    # 2 x_j > s, else the lower tail sum_{i<x_j} C(s, i) is taken from 1.
    upper = 2 * x_j > s
    t = x_k + 1 if upper else x_j
    if s > _EXACT_MAX_S and t <= 1 << (_PRECISION_BITS - 2):
        a, e, g = _short_sum_bounds(t, s)
        scale = 1 << (s - g)
        if upper:
            lo, hi = a / scale, (a + e) / scale
        else:
            lo, hi = (scale - a - e) / scale, (scale - a) / scale
        if lo == hi:
            return lo
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
    # A p-value depends only on the two counts: evaluate each distinct
    # (count, count) cell that a family pair falls in once, then gather.
    values = sorted(set(counts))
    d = len(values)
    index = {x: i for i, x in enumerate(values)}
    inverse = np.array([index[x] for x in counts])
    cell = (inverse[:, None] * d + inverse)[family.mask]
    used = np.zeros(d * d, dtype=bool)
    used[cell] = True
    rows, cols = np.nonzero(used.reshape(d, d))
    x = np.array(values)
    distinct = np.empty(d * d)
    distinct[used] = list(
        map(conditional_pvalue, x[rows].tolist(), x[cols].tolist())
    )
    pvalues = np.full(family.mask.shape, np.nan)
    pvalues[family.mask] = distinct[cell]
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
