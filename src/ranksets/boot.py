"""Multinomial bootstrap confidence sets for differences and ranks.

Resampling counts from the fitted multinomial gives a bootstrap
distribution of max-type statistics over a family of category pairs.
The quantile of that distribution calibrates simultaneous confidence
intervals for the pairwise probability differences; whether an
interval excludes zero then drives directional claims about the
sign of each difference, which assemble into rank confidence sets
exactly as in :mod:`ranksets.core`.

Calibration reads the resamples category-major: each call copies the
``B x p`` resample matrix once into a ``p x B`` array whose rows are
one category's draws, and for the studentized statistic computes each
category's ``theta*(1 - theta*)`` row once, rather than once per pair.
The maximum over a family of ``m`` pairs (up to ``p(p-1)``) is then
taken block by block over the pairs, gathering whole contiguous rows,
with a running maximum per resample.  Calibration thus holds the
``B x p`` matrix, its ``p x B`` copy and variance terms, and one
cache-sized block, never a ``B x m`` array.  The critical values are
the same bit for bit as from the whole ``B x m`` array at once.

Zero counts need conventions: a bootstrap ratio evaluates ``0/0`` as 0
and ``c/0`` as ``sign(c) * inf``.  Infinities are kept and propagate
— an infinite critical value legitimately produces full-width
intervals, which is observable behavior on sparse data, not an error.

Difference confidence sets scale each pair by its own standard
deviation.  The rank readout instead holds every comparison in the
family to one common threshold — the critical value times the largest
per-pair scale — so a claim is made only when a difference clears the
band that covers all pairs simultaneously.  The band contains each
per-pair interval, so its simultaneous coverage is at least as high.

Marginal scope gives each target its own family ``J0 = {j}``, whose
pairs :mod:`ranksets.core` forms, so each target gets its own
calibration and its own band.  The targets share the estimates and
the category-major resamples, and all critical values are read from
one sort of the ``B x |J0|`` max statistics.

The naive alternative resamples the ranks themselves and reads off
their empirical quantiles; it is included as a comparison baseline and
is known to under-cover when categories are (nearly) tied.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .core import (
    MultinomialSample,
    PairwiseRejections,
    RankSet,
    _categories_of_interest,
    _check_alpha,
    _target_pairs,
    _theta_array,
    build_index_family,
    rankset_from_rejections,
)

__all__ = [
    "SHAPES",
    "BootstrapConfig",
    "DifferenceCS",
    "resample",
    "bootstrap_quantile",
    "difference_cs",
    "boot_rank_cs",
    "naive_rank_cs",
]

#: Interval shapes for difference confidence sets.
SHAPES = ("lower", "upper", "symm", "equi")

_VARIANTS = ("lower", "upper", "symm")


@dataclass(frozen=True)
class BootstrapConfig:
    """The resampling stream of a bootstrap run.

    Every method given one config reads the same resamples; the
    statistic and interval shape computed from them are chosen by the
    method name or the keywords of :func:`difference_cs` and
    :func:`boot_rank_cs`.

    Parameters
    ----------
    B : int
        Number of bootstrap resamples, an integer of at least 1.
    seed : int, optional
        Non-negative integer seed for the resampling stream; ``None``
        draws a seed from fresh entropy once, on construction, and
        stores it, so the config is one stream that ``seed`` replays.
        Numpy integers count as integers and ``bool`` does not.
    """

    B: int = 2000
    seed: int | None = 0

    def __post_init__(self) -> None:
        if not _is_integer(self.B) or self.B < 1:
            raise ValueError(f"B must be an integer of at least 1, got {self.B!r}")
        if self.seed is None:
            seed = int(np.random.SeedSequence().entropy % (2**63))
            object.__setattr__(self, "seed", seed)
        elif not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(
                f"seed must be None or a non-negative integer, got {self.seed!r}"
            )


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def resample(theta_hat, n: int, rng: np.random.Generator) -> MultinomialSample:
    """Draw one bootstrap sample of counts from Multinomial(n, theta_hat)."""
    arr = _theta_array(theta_hat)
    counts = rng.multinomial(int(n), arr)
    return MultinomialSample(counts=tuple(int(c) for c in counts))


@lru_cache(maxsize=8)
def _theta_star_cached(
    counts: tuple[int, ...], n: int, B: int, seed: int
) -> np.ndarray:
    """(B, p) matrix of resampled frequency vectors; cached and frozen.

    The matrix depends only on ``(counts, n, B, seed)``, so every
    method asking for the same configuration shares one set of
    resamples — bootstrap variants stay paired and repeated calls are
    bit-identical.
    """
    rng = np.random.default_rng(seed)
    theta_hat = np.asarray(counts, dtype=float) / n
    star = rng.multinomial(n, theta_hat, size=B) / n
    star.flags.writeable = False
    return star


def _theta_star_matrix(sample: MultinomialSample, config: BootstrapConfig) -> np.ndarray:
    return _theta_star_cached(sample.counts, sample.n, config.B, int(config.seed))


#: Bytes of one ``block x B`` float buffer in :func:`_pair_stats`;
#: small enough that a block's four buffers stay in cache.
_BLOCK_BYTES = 256 * 1024


def _category_major(
    theta_star: np.ndarray, studentize: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """The resamples laid out for :func:`_pair_stats`, built once per call.

    Returns ``rows``, the ``(p, B)`` C-contiguous copy of the ``(B, p)``
    resample matrix, so each category's ``B`` draws are one contiguous
    row, and, when studentizing, ``var = rows * (1 - rows)``, each
    category's variance term (``None`` otherwise).
    """
    rows = np.ascontiguousarray(theta_star.T)
    if not studentize:
        return rows, None
    var = 1.0 - rows
    var *= rows
    return rows, var


def _pair_stats(
    rows: np.ndarray,
    var: np.ndarray | None,
    theta_hat: np.ndarray,
    n: int,
    jj: np.ndarray,
    kk: np.ndarray,
    variant: str,
) -> np.ndarray:
    """(B,) bootstrap max statistics over the pairs ``(jj[i], kk[i])``.

    ``rows`` and ``var`` come from :func:`_category_major`; ``var`` is
    ``None`` for the unstudentized statistic.  ``jj`` and ``kk`` are
    non-empty index arrays of equal length.  The pairs are walked in
    blocks of ``_BLOCK_BYTES`` per ``block x B`` buffer: a block gathers
    the contiguous rows of its pairs' categories into four preallocated
    buffers, is evaluated in place, and folds its maximum over the pair
    axis into a running maximum per resample.  Memory is the ``p x B``
    rows and variance terms plus one block, whatever the number of
    pairs, and the inputs are never written.

    Each element takes ``(tj - tk) - d_hat``, then the variant, then
    either times ``sqrt(n)`` or, studentized, over ``sqrt(v_j + v_k +
    (2 tj) tk) / sqrt(n)``: the operations, in the order, of the
    elementwise formula over all ``B x m`` pairs at once.  With an
    exact maximum, the result is that formula's bit for bit, whatever
    the block size.  Numerator and denominator are finite, so the
    quotient's only NaNs are its ``0/0`` cells, which count as 0, and
    ``c/0`` is ``sign(c) * inf``.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    B = rows.shape[1]
    d_hat = theta_hat[jj] - theta_hat[kk]
    width = min(len(jj), max(1, _BLOCK_BYTES // (8 * B)))
    buf_j, buf_k, buf_num, buf_sd = (np.empty((width, B)) for _ in range(4))
    root_n = math.sqrt(n)
    best = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, len(jj), width):
            j, k = jj[start:start + width], kk[start:start + width]
            w = len(j)
            tj, tk, num = buf_j[:w], buf_k[:w], buf_num[:w]
            # The indices come from the caller's own masks; "clip" lets
            # take write straight into the buffer.
            rows.take(j, axis=0, out=tj, mode="clip")
            rows.take(k, axis=0, out=tk, mode="clip")
            np.subtract(tj, tk, out=num)
            num -= d_hat[start:start + w, None]
            if variant == "upper":
                np.negative(num, out=num)
            elif variant == "symm":
                np.abs(num, out=num)
            if var is None:
                num *= root_n
            else:
                sd = buf_sd[:w]
                tj *= 2.0
                tj *= tk
                var.take(j, axis=0, out=sd, mode="clip")
                var.take(k, axis=0, out=tk, mode="clip")
                sd += tk
                sd += tj
                np.sqrt(sd, out=sd)
                sd /= root_n
                num /= sd
            top = num.max(axis=0)
            if var is not None and np.isnan(top).any():
                np.copyto(num, 0.0, where=np.isnan(num))
                top = num.max(axis=0)
            if best is None:
                best = top
            else:
                np.maximum(best, top, out=best)
    return best


def bootstrap_quantile(values, level: float) -> float:
    """Empirical quantile under the left-continuous-inverse convention.

    Parameters
    ----------
    values : array-like of float
        Bootstrap draws; ``+-inf`` entries are legal and ordered
        normally.
    level : float
        Quantile level in (0, 1].

    Returns
    -------
    float
        The smallest value ``x`` with ``F_B(x) >= level``, i.e. the
        ``ceil(level * B)``-th order statistic (1-indexed).  ``+inf``
        is a legal return.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("values must be a non-empty 1-d collection")
    return float(_quantiles(arr[:, None], level)[0])


def _quantiles(stats: np.ndarray, level: float) -> np.ndarray:
    """:func:`bootstrap_quantile` of each column of a ``(B, k)`` array.

    All columns are read from one sort along the resamples.
    """
    if np.isnan(stats).any():
        raise ValueError("values must not contain NaN")
    if not (0.0 < level <= 1.0):
        raise ValueError("level must lie in (0, 1]")
    # Round before ceil so that an exactly-integer level * B is not
    # bumped up by floating-point fuzz.
    k = math.ceil(round(level * stats.shape[0], 9))
    return np.sort(stats, axis=0)[max(k, 1) - 1]


# eq=False: == on numpy fields would be elementwise.
@dataclass(frozen=True, eq=False)
class DifferenceCS:
    """Simultaneous confidence intervals for pairwise differences.

    ``mask`` (read-only, ``p x p``) marks the covered pairs ``(j, k)``;
    ``lo`` and ``hi`` (read-only ``p x p``, NaN outside the mask) bound
    ``theta_j - theta_k``, and one-sided shapes carry an infinite
    endpoint.  ``crit`` holds the bootstrap critical value(s): one entry
    for ``lower``/``upper``/``symm``, the pair of half-level values for
    ``equi``.  ``sigma`` (same layout) is the per-pair scale of the
    original data (1 for every pair when not studentized).
    """

    mask: np.ndarray
    shape: str
    studentize: bool
    alpha: float
    crit: tuple[float, ...]
    lo: np.ndarray
    hi: np.ndarray
    sigma: np.ndarray

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The covered pairs in row-major order, built on every call."""
        rows, cols = np.nonzero(self.mask)
        return tuple(zip(rows.tolist(), cols.tolist()))

    def interval(self, pair: tuple[int, int]) -> tuple[float, float]:
        """``(lo, hi)`` of a covered pair; ``KeyError`` for any other."""
        j, k = pair
        if not (0 <= min(j, k) and max(j, k) < len(self.mask) and self.mask[j, k]):
            raise KeyError(pair)
        return float(self.lo[j, k]), float(self.hi[j, k])

    def contains(self, pair: tuple[int, int], delta: float) -> bool:
        lo, hi = self.interval(pair)
        return lo <= delta <= hi

    def covers(self, theta) -> bool:
        """Whether each interval contains its difference under the true ``theta``."""
        theta = _theta_array(theta)
        if theta.shape != self.mask.shape[:1]:
            raise ValueError(f"theta must have {self.mask.shape[0]} components")
        delta = (theta[:, None] - theta[None, :])[self.mask]
        lo, hi = self.lo[self.mask], self.hi[self.mask]
        return bool(np.all((lo <= delta) & (delta <= hi)))


def _sigma_hat(theta_hat: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> np.ndarray:
    tj, tk = theta_hat[jj], theta_hat[kk]
    return np.sqrt(tj * (1.0 - tj) + tk * (1.0 - tk) + 2.0 * tj * tk)


def _on_mask(mask: np.ndarray, values) -> np.ndarray:
    """Read-only ``values`` on the cells of ``mask`` (row-major), NaN elsewhere."""
    out = np.full(mask.shape, np.nan)
    out[mask] = values
    out.flags.writeable = False
    return out


def difference_cs(
    sample: MultinomialSample,
    config: BootstrapConfig,
    alpha: float = 0.05,
    mask: np.ndarray | None = None,
    *,
    shape: str = "symm",
    studentize: bool = True,
) -> DifferenceCS:
    """Bootstrap confidence set for all pairwise differences at once.

    Parameters
    ----------
    sample : MultinomialSample
        Observed counts.
    config : BootstrapConfig
        The resampling stream.
    alpha : float
        One minus the simultaneous coverage level over the pairs.
    mask : (p, p) array-like of bool, optional
        Pairs ``(j, k)`` to cover, at least one and none on the
        diagonal; every ordered pair by default.
    shape : {'lower', 'upper', 'symm', 'equi'}
        Interval shape.
    studentize : bool
        Scale each pairwise statistic by its resample standard
        deviation.

    Returns
    -------
    DifferenceCS
        Per-pair intervals ``[d - c * scale, inf)``, ``(-inf, d + c *
        scale]``, ``d +- c * scale``, or the intersection of the two
        one-sided shapes at level ``1 - alpha/2`` (``equi``), where
        ``d`` is the estimated difference and ``scale`` is
        ``sigma_hat / sqrt(n)`` (``1 / sqrt(n)`` unstudentized).
    """
    _check_alpha(alpha)
    if shape not in SHAPES:
        raise ValueError(f"shape must be one of {SHAPES}, got {shape!r}")
    p, n = sample.p, sample.n
    mask = ~np.eye(p, dtype=bool) if mask is None else np.array(mask, dtype=bool)
    if mask.shape != (p, p):
        raise ValueError(f"mask must have shape {(p, p)}, got {mask.shape}")
    if mask.diagonal().any():
        raise ValueError("mask must not mark a diagonal pair (j, j)")
    if not mask.any():
        raise ValueError("pairs must be non-empty")
    mask.flags.writeable = False
    theta_hat = sample.theta_hat
    jj, kk = np.nonzero(mask)
    d_hat = theta_hat[jj] - theta_hat[kk]
    sigma = _sigma_hat(theta_hat, jj, kk) if studentize else np.ones(len(jj))
    scale = sigma / math.sqrt(n)
    rows, var = _category_major(_theta_star_matrix(sample, config), studentize)

    def crit(variant: str, level: float) -> float:
        stats = _pair_stats(rows, var, theta_hat, n, jj, kk, variant)
        return bootstrap_quantile(stats, level)

    if shape == "equi":  # both one-sided shapes at half level
        crits = (crit("lower", 1.0 - alpha / 2), crit("upper", 1.0 - alpha / 2))
    else:
        crits = (crit(shape, 1.0 - alpha),)
    lo = -np.inf if shape == "upper" else d_hat - _scaled(crits[0], scale)
    hi = np.inf if shape == "lower" else d_hat + _scaled(crits[-1], scale)
    return DifferenceCS(
        mask=mask, shape=shape, studentize=studentize,
        alpha=alpha, crit=crits, lo=_on_mask(mask, lo),
        hi=_on_mask(mask, hi), sigma=_on_mask(mask, sigma),
    )


def _scaled(c: float, scale: np.ndarray) -> np.ndarray:
    """``c * scale`` treating an infinite ``c`` times zero scale as zero.

    A zero scale only happens for a pair with both observed
    frequencies zero, whose interval degenerates to the point estimate
    regardless of the critical value.
    """
    with np.errstate(invalid="ignore"):
        out = c * scale
    return np.where(scale == 0.0, 0.0, out)


def _band_half_width(crit, sigma_max, n: int) -> np.ndarray:
    """Common claim threshold for the rank readout of a calibration.

    Every comparison in a calibrated family is held to the same
    half-width: the bootstrap critical value times the largest
    per-pair scale, ``c * max_sigma / sqrt(n)``.  The resulting band
    contains each per-pair interval, so simultaneous coverage carries
    over, and all pairs face an equal hurdle when claims are counted
    into rank bounds.  Without studentization every scale is 1 and the
    band coincides with the per-pair intervals.  Elementwise over
    arrays of calibrations; a zero scale gives a zero half-width even
    when the critical value is infinite.
    """
    return _scaled(crit, np.asarray(sigma_max) / math.sqrt(n))


def boot_rank_cs(
    sample: MultinomialSample,
    J0: Iterable[int] | None = None,
    kind: str = "two_sided",
    alpha: float = 0.05,
    config: BootstrapConfig | None = None,
    scope: str = "simultaneous",
    *,
    studentize: bool = True,
) -> RankSet:
    """Rank confidence set driven by a bootstrap difference band.

    Each row of pairs that :func:`~ranksets.core._target_pairs` holds
    to one threshold (the whole family, or in marginal ``scope`` each
    target's own family) is calibrated on its own.  One-sided kinds
    calibrate the lower-variant max statistic over the row's pairs;
    the two-sided kind calibrates the symmetric variant with each
    unordered pair of the row entering the max once (its mirror gives
    the same statistic and scale, bit for bit).  Either way the claims
    use a constant-width band per row: a comparison is rejected only
    when its estimated difference clears the row's critical value
    times the largest per-pair scale in the row (over ``sqrt(n)``), so
    every pair of the row faces the same threshold.  Without
    studentization all scales equal 1 and the band reduces to the
    per-pair intervals of :func:`difference_cs`.

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
    config : BootstrapConfig, optional
        The resampling stream; ``BootstrapConfig()`` by default.
    scope : {'simultaneous', 'marginal'}
        ``'marginal'`` calibrates each target's own family ``J0 = {j}``
        and gives it its own band, sharing the estimates and the
        resample matrix; all critical values come from one sort of the
        ``B x |J0|`` statistics, one column per target.
    studentize : bool
        Studentize the max statistic (``bootStud``) or not (``boot``).

    Returns
    -------
    RankSet
        Method is ``"bootStud"`` or ``"boot"`` per ``studentize``.
    """
    if config is None:
        config = BootstrapConfig()
    _check_alpha(alpha)
    n = sample.n
    family = build_index_family(kind, J0, sample.p)
    jj, kk = _target_pairs(family, scope)
    variant = "symm" if kind == "two_sided" else "lower"
    if variant == "symm":
        # |d| and sigma of (a, b) equal those of (b, a) bit for bit, so
        # each row calibrates every unordered pair once.
        once = jj < kk
        jj, kk = jj[once].reshape(len(jj), -1), kk[once].reshape(len(kk), -1)
    theta_hat = sample.theta_hat
    rows, var = _category_major(_theta_star_matrix(sample, config), studentize)
    stats = np.column_stack([
        _pair_stats(rows, var, theta_hat, n, j, k, variant) for j, k in zip(jj, kk)
    ])
    if studentize:
        sigma_max = _sigma_hat(theta_hat, jj, kk).max(axis=1)
    else:
        sigma_max = np.ones(len(jj))
    half = _band_half_width(_quantiles(stats, 1.0 - alpha), sigma_max, n)
    diff = theta_hat[:, None] - theta_hat[None, :]
    rej = PairwiseRejections.at_threshold(family, lambda t: diff > t, half)
    return rankset_from_rejections(
        rej, method="bootStud" if studentize else "boot", alpha=alpha
    )


def _best_ranks(theta_star: np.ndarray) -> np.ndarray:
    """(B, p) best ranks ``1 + #{k : theta*_k > theta*_j}`` of each row."""
    order = np.argsort(-theta_star, axis=1)
    desc = np.take_along_axis(theta_star, order, axis=1)
    # In descending order a tie group shares the position of its first member.
    starts = np.ones(desc.shape, dtype=bool)
    starts[:, 1:] = desc[:, 1:] != desc[:, :-1]
    position = np.arange(1, desc.shape[1] + 1)
    sorted_ranks = np.maximum.accumulate(np.where(starts, position, 0), axis=1)
    ranks = np.empty_like(sorted_ranks)
    np.put_along_axis(ranks, order, sorted_ranks, axis=1)
    return ranks


def naive_rank_cs(
    sample: MultinomialSample,
    J0: Iterable[int] | None = None,
    alpha: float = 0.05,
    config: BootstrapConfig | None = None,
) -> RankSet:
    """Rank interval from empirical quantiles of resampled ranks.

    Each resample is re-ranked and category ``j``'s interval runs from
    the ``floor(alpha/2 * B) + 1``-th to the ``ceil((1 - alpha/2) *
    B)``-th order statistic of its ``B`` resampled ranks.  Kept as a
    baseline: with (near-)tied categories the resampled ranks
    concentrate away from the admissible-rank interval and the
    procedure under-covers badly.
    """
    if config is None:
        config = BootstrapConfig()
    _check_alpha(alpha)
    j0 = _categories_of_interest(J0, sample.p)
    star = _theta_star_matrix(sample, config)
    targets = list(j0)
    if len(j0) < math.log2(sample.p):
        # A few targets: count who beats each, with no B x p argsort.
        ranks = 1 + (star[:, :, None] > star[:, None, targets]).sum(axis=1)
    else:
        ranks = _best_ranks(star)[:, targets]
    ranks = np.sort(ranks, axis=0)
    B = config.B
    lo_idx = min(math.floor(round(alpha / 2 * B, 9)) + 1, B)
    hi_idx = max(math.ceil(round((1.0 - alpha / 2) * B, 9)), 1)
    lo = dict(zip(j0, ranks[lo_idx - 1].tolist()))
    hi = dict(zip(j0, ranks[hi_idx - 1].tolist()))
    return RankSet(
        p=sample.p, J0=j0, lo=lo, hi=hi,
        method="naive", alpha=alpha, kind="two_sided",
    )
