"""Exact conditional pairwise tests and finite-sample rank confidence sets.

The comparison of two multinomial categories reduces, conditional on
the sum of their counts ``s = X_j + X_k``, to a binomial problem:
under the boundary of ``H: theta_j <= theta_k`` the first count is
Binomial(s, 1/2).  The one-sided p-value is therefore an exact
binomial tail, and any familywise error correction over a family of
such tests yields rank confidence sets with finite-sample coverage via
the rejection-counting construction in :mod:`ranksets.core`.

Every p-value is the correctly rounded double of the exact tail.  Up
to ``s = 512`` it is read from a triangle of exact tails over ``2**s``,
built lazily from Pascal rows up to the largest ``s`` asked for and
never past row 512 (about 1 MB when full).  A p-value table, or a
stack of them, gathers every cell from it block by block, with ``s``
clipped at 512, and then overwrites its pairs past 512.  There the
shorter side of the tail is summed with a fixed-precision term of about
128 bits and a proven error bound, once per distinct unordered count
pair of all the tables: the walk to ``min(x_j, x_k) + 1`` bounds the
p-values of both directions.  Each is returned
when both ends of its bound round to the same double, and otherwise
(rare at 128 bits) the exact integer sum decides.

Inference always uses the non-randomized rule "reject iff p-value <=
threshold".
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .core import (
    IndexFamily,
    MultinomialSample,
    PairwiseRejections,
    RankSet,
    _BLOCK_BYTES,
    _check_alpha,
    _row_length,
    _target_pairs,
    _whole_number,
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

# Up to this total, p-values are read from a table of exact tails.
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


def _short_sum_bounds(t: int, s: int) -> tuple[int, int, int, int]:
    """``(c, a, e, g)`` bounding the partial sums ``S(u) = sum_{i<u} C(s, i)``.

    ``c * 2**g <= S(t - 1) <= (c + e) * 2**g`` and ``a * 2**g <= S(t) <=
    (a + e) * 2**g``: one walk bounds the sum and the partial sum before
    its last term.  Proven for ``1 <= t``, ``2t <= s + 3``, where the
    terms only rise, and ``t <= 2**(K - 2)`` with ``K = _PRECISION_BITS``.
    The terms follow the recurrence ``C(s, i) = C(s, i - 1) * (s - i + 1)
    / i`` exactly until one passes ``K + 32`` bits; from then on the term
    and the running total are shifted right together to keep ``K`` bits
    in the term, and ``2**g`` is the scale shifted out.  The returned
    ``e`` is 0 when nothing was shifted.

    Why the bound holds: a term ``C(s, i)`` is computed for ``i <= t - 1``
    only, and ``2(t - 1) <= s + 1`` makes each step's ratio at least 1,
    so after the first shift the term never drops below ``2**(K - 1)``.
    Each of the at most ``2t`` floors (one per step, one per shift) then
    loses under one unit, a relative ``eps = 2**(1 - K)`` of the term.
    Every floor rounds down, so no held value exceeds its true one.  By
    induction the true term is at most ``w`` times the one held, ``w =
    (1 + eps)**(2t) <= 1 + 4t*eps <= 3``, and the true running total,
    after any number of terms, at most ``w * (held + shifts)``, with
    ``shifts <= t``: an excess of at most ``4t*eps*held + 3t``.  The last
    term is added after the last shift, so ``c = a - term`` is exactly
    the running total held before it, at the same scale, and ``c <= a``
    makes the excess for ``a`` cover it too.
    """
    K = _PRECISION_BITS
    cap = 1 << (K + 32)
    term, total, g = 1, 1, 0
    for num, den in zip(range(s, s - t + 1, -1), range(1, t)):
        term = term * num // den
        if term >= cap:
            k = term.bit_length() - K
            term >>= k
            total >>= k
            g += k
        total += term
    if not g:
        return total - term, total, 0, 0
    return total - term, total, ((4 * t * total) >> (K - 1)) + 3 * t + 1, g


def _pair_pvalues(a: int, b: int) -> tuple[float, float]:
    """``(P{X >= a}, P{X >= b})`` for ``X ~ Bin(a + b, 1/2)`` and ``a <= b``.

    The two one-sided p-values of the count pair ``{a, b}``.  With ``s =
    a + b`` they are ``1 - S(a) / 2**s`` and, when ``a < b``, ``S(a + 1) /
    2**s`` (the upper tail from ``b`` mirrors the lower tail to ``a``), so
    one :func:`_short_sum_bounds` walk to ``t = a + 1`` gives both.  Each
    is returned when both ends of its bound round to the same double, and
    otherwise divided out of the exact integer tail.
    """
    s = a + b
    t = a + 1
    lower = upper = None
    if t <= 1 << (_PRECISION_BITS - 2):
        c, total, e, g = _short_sum_bounds(t, s)
        scale = 1 << (s - g)
        lo, hi = (scale - c - e) / scale, (scale - c) / scale
        if lo == hi:
            lower = lo
        lo, hi = total / scale, (total + e) / scale
        if lo == hi:
            upper = lo
    if lower is None:
        lower = _tail_numerator(a, s) / (1 << s)
    if a == b:
        return lower, lower
    if upper is None:
        upper = _tail_numerator(b, s) / (1 << s)
    return lower, upper


# (largest s built, Pascal row of that s as ints, flat float64 triangle
# whose entry s * (s + 1) // 2 + x is P{Bin(s, 1/2) >= x}), rebound whole
# so that a reader never sees a row without its table.
_tails: tuple[int, list[int], np.ndarray] = (-1, [], np.empty(0))


def _tail_table(s: int) -> np.ndarray:
    """The correctly rounded tail triangle, grown to hold row ``s``.

    Rows are added from the last Pascal row, and each entry is the exact
    integer tail over ``2**s``, an int/int true division, which Python
    rounds correctly.  At ``s = _EXACT_MAX_S`` the table is about 1 MB.
    """
    global _tails
    top, row, table = _tails
    if s <= top:
        return table
    rows = [table]
    for r in range(top + 1, s + 1):
        row = [1, *map(operator.add, row, row[1:]), 1] if r else [1]
        scale = 1 << r
        tails = list(itertools.accumulate(reversed(row)))
        rows.append(np.array([tail / scale for tail in reversed(tails)]))
    table = np.concatenate(rows)
    _tails = (s, row, table)
    return table


def _table_pvalues(x, s):
    """``P{Bin(s, 1/2) >= x}`` gathered from the tail triangle.

    ``x`` and ``s`` are ints or integer arrays that broadcast together,
    with ``0 <= x <= s <= _EXACT_MAX_S``; the triangle is grown to ``max(s)``.
    """
    return _tail_table(int(np.max(s)))[s * (s + 1) // 2 + x]


# Each entry is one float; the paper's tables (n <= 238) have < 57k pairs.
# Typed, so that True, which hashes and compares as 1, misses and is refused.
@lru_cache(maxsize=2**16, typed=True)
def conditional_pvalue(x_j: int, x_k: int) -> float:
    """Exact one-sided p-value for ``theta_j <= theta_k`` given the counts.

    Parameters
    ----------
    x_j, x_k : int
        Non-negative whole-number counts of the two categories.

    Returns
    -------
    float
        ``2**-s * sum_{i=x_j}^{s} C(s, i)`` with ``s = x_j + x_k``,
        correctly rounded to a double (it underflows to 0 only beyond
        ``s = 1074``); a pair with ``s = 0`` carries no evidence and
        returns 1.  Up to ``s = 512`` the value is read from a table of
        exact tails.  Above, the shorter side of the tail is summed in
        fixed precision between proven bounds, and the value is returned
        when both bounds round to it; otherwise the exact integer sum is
        divided out instead.
    """
    x_j, x_k = _whole_number(x_j, "x_j"), _whole_number(x_k, "x_k")
    if x_j < 0 or x_k < 0:
        raise ValueError("counts must be non-negative")
    s = x_j + x_k
    if s <= _EXACT_MAX_S:
        return float(_table_pvalues(x_j, s))
    if x_j <= x_k:
        return _pair_pvalues(x_j, x_k)[0]
    return _pair_pvalues(x_k, x_j)[1]


# eq=False: == on numpy fields would be elementwise.
@dataclass(frozen=True, eq=False)
class PairwisePValueTable:
    """Exact p-values of an index family as one ``p x p`` array.

    ``pvalues[a, b]`` (read-only) is the p-value of ``theta_a <=
    theta_b``, whose rejection claims ``theta_a > theta_b``; entries
    outside ``family.mask`` are NaN.  Stacked tables hold ``(..., p,
    p)`` p-values, one ``p x p`` array per table.
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

    The table is shared: separate ``exactBonf`` and ``exactHolm`` calls
    on the same counts and family, back to back, get one table, built
    once.
    """
    return _pvalue_table(sample.counts, family)


# One _rank_bounds call scores Bonferroni and Holm from one table; the
# cache serves separate rank_cs calls on one table back to back.  Each
# entry is p x p floats (8 MB at p = 1000).
@lru_cache(maxsize=2)
def _pvalue_table(
    counts: tuple[int, ...], family: IndexFamily
) -> PairwisePValueTable:
    return PairwisePValueTable(family, _pvalue_stack(np.array(counts), family))


#: Cells of one block of :func:`_pvalue_stack`: each of its int64
#: temporaries fills at most ``_BLOCK_BYTES``.
_BLOCK_CELLS = _BLOCK_BYTES // 8


def _cell_blocks(R: int, p: int):
    """``(tables, rows)`` slices tiling ``R`` stacked ``p x p`` grids.

    A block is whole tables when one table fits in ``_BLOCK_CELLS``
    cells, and otherwise rows of one table, about ``_BLOCK_CELLS``
    cells either way.
    """
    rows = max(1, min(p, _BLOCK_CELLS // p))
    tables = max(1, _BLOCK_CELLS // (rows * p))
    for t in range(0, R, tables):
        for j in range(0, p, rows):
            yield slice(t, t + tables), slice(j, j + rows)


def _pvalue_stack(x: np.ndarray, family: IndexFamily) -> np.ndarray:
    """``(..., p, p)`` p-values of the count tables ``x``, shape ``(..., p)``.

    Entry ``[..., a, b]`` is ``conditional_pvalue(x[..., a], x[..., b])``
    on the pairs of ``family.mask`` and NaN elsewhere.  One pass over
    blocks of cells gathers every cell from the tail triangle, with
    ``s`` clipped at its end (``x_a <= s``, so ``x_a`` clipped there is
    within the clipped ``s``), and collects the distinct unordered count
    pairs ``{a <= b}`` of the family past the end, across all tables.
    Each is walked once by :func:`_pair_pvalues`, and a second pass
    writes the walks over those cells: the larger count of a pair reads
    the walk's second p-value.  Memory is the result plus one block of
    cells and the distinct pairs.
    """
    lead, p = x.shape[:-1], family.p
    x = x.reshape(-1, p)
    mask = family.mask
    out = np.empty((len(x), p, p))
    for t, j in _cell_blocks(len(x), p):
        xj = x[t, j, None]
        s = xj + x[t, None, :]
        pvalues = _table_pvalues(
            np.minimum(xj, _EXACT_MAX_S), np.minimum(s, _EXACT_MAX_S)
        )
        out[t, j] = np.where(mask[j], pvalues, np.nan)
    if 2 * int(x.max()) <= _EXACT_MAX_S:
        return out.reshape(lead + (p, p))
    values, rank = np.unique(x, return_inverse=True)
    rank = rank.reshape(x.shape)
    d = len(values)

    def past_pairs(t, j):
        """Cells of the block past the end, their pair keys and directions."""
        past = ((x[t, j, None] + x[t, None, :]) > _EXACT_MAX_S) & mask[j]
        r_j, r_k = np.broadcast_arrays(rank[t, j, None], rank[t, None, :])
        r_j, r_k = r_j[past], r_k[past]
        return past, np.minimum(r_j, r_k) * d + np.maximum(r_j, r_k), r_j > r_k

    pairs = np.unique(np.concatenate(
        [np.unique(past_pairs(t, j)[1]) for t, j in _cell_blocks(len(x), p)]
    ))
    a, b = values[pairs // d].tolist(), values[pairs % d].tolist()
    walks = np.array([_pair_pvalues(*ab) for ab in zip(a, b)]).ravel()
    for t, j in _cell_blocks(len(x), p):
        past, key, larger = past_pairs(t, j)
        if past.any():
            block = out[t, j]
            block[past] = walks[2 * np.searchsorted(pairs, key) + larger]
    return out.reshape(lead + (p, p))


def bonferroni_reject(
    table: PairwisePValueTable, alpha: float, scope: str = "simultaneous"
) -> PairwiseRejections:
    """Reject every pair whose p-value is at most ``alpha / m``.

    ``m`` is the number of pairs held to one threshold: the family size
    ``|I|``, or in marginal ``scope`` the size of one target's own family
    (``2(p - 1)`` two-sided, ``p - 1`` one-sided), which is the same for
    every target and so gives one shared threshold.  A table of stacked
    p-values, ``(..., p, p)``, gives stacked rejections in one comparison.
    """
    _check_alpha(alpha)
    family, pvalues = table.family, table.pvalues
    m = _row_length(family, scope)
    return PairwiseRejections.at_threshold(family, lambda t: pvalues <= t, alpha / m)


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
    one sort along the last axis of the ``(..., T, m)`` p-values, over
    every table of a stacked ``(..., p, p)`` table at once.
    """
    _check_alpha(alpha)
    family, pvalues = table.family, table.pvalues
    jj, kk = _target_pairs(family, scope)
    ordered = np.sort(pvalues[..., jj, kk], axis=-1)
    m = ordered.shape[-1]
    failed = ordered > alpha / np.arange(m, 0, -1)
    # The first failure is the smallest failed p-value; none stops at inf.
    stop = np.where(failed, ordered, np.inf).min(axis=-1)
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
    from ._dispatch import rank_cs  # _dispatch imports this module

    method = "exactBonf" if correction == "bonferroni" else "exactHolm"
    return rank_cs(method, sample, J0, kind, alpha, scope=scope)


def _corrected(
    table: PairwisePValueTable, alpha: float, correction: str, scope: str
) -> PairwiseRejections:
    """The claims of ``correction``, one of ``CORRECTIONS``, on ``table``."""
    if correction == "bonferroni":
        return bonferroni_reject(table, alpha, scope)
    return holm_reject(table, alpha, scope)
