"""Clopper-Pearson probability boxes projected to rank confidence sets.

Each category count is binomial when viewed against the rest, so an
exact Clopper-Pearson interval is available for every ``theta_j``.
Running all p intervals at level ``1 - alpha/p`` yields a simultaneous
box for the whole probability vector, and a rank confidence set
follows by declaring ``theta_j < theta_k`` exactly when the two
intervals are strictly disjoint in that direction.  Coverage of the
box is inherited by the rank set, so the construction is valid in
finite samples, at the price of a cruder pairwise comparison than the
conditional tests in :mod:`ranksets.exact`.

scipy is imported on the first interval computed, not with the module.
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
    _whole_number,
)

__all__ = ["IntervalBox", "clopper_pearson", "cp_box", "cp_rank_cs"]


def clopper_pearson(x: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Exact binomial confidence interval at the given level.

    Parameters
    ----------
    x : int
        Success count, ``0 <= x <= n``.
    n : int
        Number of trials, ``n >= 1``.
    level : float
        Two-sided confidence level in (0, 1).

    Returns
    -------
    (lo, hi) : tuple of float
        Equal-tailed inversion of the exact binomial tails via beta
        quantiles: ``lo`` solves ``P{Bin(n, lo) >= x} = alpha/2`` (0
        when ``x = 0``) and ``hi`` solves ``P{Bin(n, hi) <= x} =
        alpha/2`` (1 when ``x = n``).
    """
    x, n = _whole_number(x, "x"), _whole_number(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (0 <= x <= n):
        raise ValueError(f"x={x} outside [0, {n}]")
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie strictly between 0 and 1")
    lo, hi = _cp_bounds(np.asarray(x), n, level)
    return float(lo), float(hi)


def _cp_bounds(
    x: np.ndarray, n: int, level: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`clopper_pearson` of every count in ``x``, one call per bound."""
    from scipy import special  # here, so importing ranksets does not load scipy

    alpha = 1.0 - level
    # x = 0 and x = n put a zero beta shape in the quantile; its NaN is
    # replaced by the closed end.
    lo = np.where(x == 0, 0.0, special.betaincinv(x, n - x + 1, alpha / 2))
    hi = np.where(x == n, 1.0, special.betaincinv(x + 1, n - x, 1 - alpha / 2))
    return lo, hi


@dataclass(frozen=True)
class IntervalBox:
    """Per-category probability intervals with joint coverage 1 - alpha."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    alpha: float

    def __post_init__(self) -> None:
        for lo, hi in zip(self.lo, self.hi):
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(f"invalid interval [{lo}, {hi}]")

    @property
    def p(self) -> int:
        return len(self.lo)


def _box_bounds(
    x: np.ndarray, n: int, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`cp_box` ends of the count tables ``x``, shape ``(..., p)``.

    Each distinct count is inverted once: stacked tables of one total
    share most of their counts.
    """
    values, inverse = np.unique(x, return_inverse=True)
    lo, hi = _cp_bounds(values, n, 1.0 - alpha / x.shape[-1])
    inverse = inverse.reshape(x.shape)
    return lo[inverse], hi[inverse]


@lru_cache(maxsize=64)
def _cp_box_cached(
    counts: tuple[int, ...], n: int, alpha: float
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    lo, hi = _box_bounds(np.array(counts), n, alpha)
    return tuple(lo.tolist()), tuple(hi.tolist())


def cp_box(sample: MultinomialSample, alpha: float = 0.05) -> IntervalBox:
    """Simultaneous probability box from p Clopper-Pearson intervals.

    The budget ``alpha`` is split evenly, each marginal interval
    running at level ``1 - alpha/p``, so the box covers the whole
    probability vector with probability at least ``1 - alpha``.
    """
    _check_alpha(alpha)
    lo, hi = _cp_box_cached(sample.counts, sample.n, float(alpha))
    return IntervalBox(lo=lo, hi=hi, alpha=alpha)


def cp_rank_cs(
    sample: MultinomialSample,
    J0: Iterable[int] | None = None,
    kind: str = "two_sided",
    alpha: float = 0.05,
) -> RankSet:
    """Rank confidence set from strict non-overlap of the box intervals.

    Parameters
    ----------
    sample : MultinomialSample
        Observed counts.
    J0 : iterable of int, optional
        0-based categories of interest; all categories by default.
    kind : {'lower', 'upper', 'two_sided'}
        Sidedness; one-sided kinds reuse the same box and only read
        off the matching rejection direction.
    alpha : float
        One minus the simultaneous coverage level.

    Returns
    -------
    RankSet
        ``theta_j < theta_k`` is claimed iff ``hi_j < lo_k`` (strictly;
        touching intervals cannot exclude equality), and symmetrically
        for the other direction.
    """
    from ._dispatch import rank_cs  # _dispatch imports this module

    return rank_cs("cp", sample, J0, kind, alpha)


def _box_rejections(
    family: IndexFamily, lo: np.ndarray, hi: np.ndarray
) -> PairwiseRejections:
    """Claims of strictly disjoint box intervals, ``lo_a > hi_b``.

    ``lo`` and ``hi`` are the box ends, ``(..., p)`` for stacked tables.
    """
    return PairwiseRejections.from_claims(
        family, family.mask & (lo[..., :, None] > hi[..., None, :])
    )
