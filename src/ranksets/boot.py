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
with a running maximum per resample.  A call may ask for both the
unstudentized (``boot``) and the studentized (``bootStud``) statistic:
one walk of the pairs then takes each block's numerator once, folds
its unstudentized maximum, and studentizes it in place.  Calibration
thus holds the ``B x p`` matrix, its ``p x B`` copy and variance terms,
and one block, never a ``B x m`` array; each of a block's buffers stays
under the 128 KiB at which the allocator would map it afresh on every
call.  The critical values are the same bit for bit as from the whole
``B x m`` array at once, one statistic at a time.

One family's kernel is chosen in one place, :func:`_max_stats`.  A
pair's mirror gives the same symmetric statistic and negates a
one-sided one over the same denominator, bit for bit, so a symmetric
family and a one-sided family closed under transpose (the joint
two-sided readout, the joint one-sided readout over every category,
and ``difference_cs`` over its default mask, every ordered pair, in
any shape) take the symmetric statistic over their unordered pairs.
Over every unordered pair it mostly needs far fewer than its
``p(p-1)/2`` pairs per resample.  Each category gets a deviation score
that bounds every pair it is in; the pairs of a resample's
highest-scoring categories are evaluated exactly, one category per
level, until its running maximum reaches a proven bound on all
remaining pairs.  Blocks of resamples are read as they lie in the ``B
x p`` matrix, most resamples stop after one or two levels, and none
runs more than ``p - 1``, after which every pair has been evaluated.
The maxima are the same bit for bit; see :func:`_all_pairs_symm_stats`.

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

Marginal scope gives each target its own family ``J0 = {j}``, so each
target gets its own calibration and its own band.  Two targets'
families share the pair of the two, one way round or both, so every
kind evaluates each unordered pair once and folds it into the running
maxima of both its ends (:func:`_marginal_stats`): two-sided, the
pair's symmetric statistic into both; one-sided, its statistic into
the row that holds the pair that way round and its mirror, ``0.0 -
x`` bit for bit, into the other.  The targets share the estimates and
the category-major resamples, and all critical values, of each
statistic asked for, are read from one sort of the ``B x S x |J0|``
max statistics.

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
    IndexFamily,
    MultinomialSample,
    PairwiseRejections,
    RankSet,
    _BLOCK_BYTES,
    _check_alpha,
    _is_marginal,
    _theta_array,
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

_VARIANTS = ("lower", "symm")


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


# One rank_cs call scores all its methods from one draw; the cache
# serves separate calls on one table (boot, bootStud, naive) back to
# back.  Each entry is B x p floats (16 MB at p = 1000, B = 2000).
@lru_cache(maxsize=2)
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


def _category_major(
    theta_star: np.ndarray, studentize: bool, order: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The resamples laid out for the pair walks, built once per call.

    Returns ``rows``, a ``(p, B)`` C-contiguous copy of the ``(B, p)``
    resample matrix, so each category's ``B`` draws are one contiguous
    row (row ``i`` is category ``order[i]`` when ``order`` is given),
    and, when studentizing, ``var = rows * (1 - rows)``, each row's
    variance term (``None`` otherwise).
    """
    rows = np.ascontiguousarray(theta_star.T) if order is None else theta_star.T[order]
    if not studentize:
        return rows, None
    var = 1.0 - rows
    var *= rows
    return rows, var


def _statistic_rows(out: np.ndarray, studentize: tuple[bool, ...]):
    """``(plain, stud)``: the rows of ``out`` of each statistic asked for.

    ``studentize`` holds each flag at most once; a statistic it does not
    ask for gets ``None``.
    """
    return tuple(out[studentize.index(s)] if s in studentize else None
                 for s in (False, True))


def _pair_stats(
    rows: np.ndarray,
    var: np.ndarray | None,
    theta_hat: np.ndarray,
    n: int,
    jj: np.ndarray,
    kk: np.ndarray,
    variant: str,
    studentize: tuple[bool, ...],
) -> np.ndarray:
    """(S, B) bootstrap max statistics over the pairs ``(jj[i], kk[i])``.

    Row ``s`` is the studentized statistic if ``studentize[s]`` is true
    and the unstudentized one if not; ``studentize`` holds each flag at
    most once.  ``rows`` and ``var`` come from :func:`_category_major`,
    and ``var`` is needed only for the studentized statistic.  ``jj``
    and ``kk`` are non-empty index arrays of equal length.  The pairs
    are walked in blocks of ``_BLOCK_BYTES`` per ``block x B`` buffer: a
    block gathers the contiguous rows of its pairs' categories into four
    preallocated buffers, takes its numerator once, folds its maximum
    over the pair axis into the unstudentized running maximum per
    resample, then studentizes it in place and folds that maximum into
    the studentized one.  Memory is the ``p x B`` rows and variance
    terms plus one block and one running maximum per statistic, whatever
    the number of pairs, and the inputs are never written.

    Each element takes ``(tj - tk) - d_hat``, then the variant, then
    either times ``sqrt(n)`` or, studentized, over ``sqrt(v_j + v_k +
    (2 tj) tk) / sqrt(n)``: the operations, in the order, of the
    elementwise formula over all ``B x m`` pairs at once.  The
    unstudentized maxima are scaled by ``c = sqrt(n)`` after the max,
    which is the same bit for bit: ``c >= 1`` and the numerators are
    finite, so ``x -> fl(c x)`` is non-decreasing, keeps the sign of
    ``x`` and sends only zeros to zero; if ``x*`` is a largest
    numerator, ``fl(c x*) >= fl(c x)`` for every ``x``, so ``max_i fl(c
    x_i) = fl(c max_i x_i)``, a zero keeping its sign.  With an exact
    maximum, the result is the formula's bit for bit, whatever the block
    size.  Numerator and denominator are finite, so the quotient's only
    NaNs are its ``0/0`` cells, which count as 0, and ``c/0`` is
    ``sign(c) * inf``.  :func:`_max_stats` chooses, for one family,
    between this walk and :func:`_all_pairs_symm_stats`, which gives the
    same result over every unordered pair from far fewer pairs.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    B = rows.shape[1]
    d_hat = theta_hat[jj] - theta_hat[kk]
    width = min(len(jj), max(1, _BLOCK_BYTES // (8 * B)))
    buf_j, buf_k, buf_num, buf_sd = (np.empty((width, B)) for _ in range(4))
    root_n = math.sqrt(n)
    out = np.empty((len(studentize), B))
    out.fill(-np.inf)
    plain, stud = _statistic_rows(out, studentize)
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
            if variant == "symm":
                np.abs(num, out=num)
            if plain is not None:
                np.maximum(plain, num.max(axis=0), out=plain)
            if stud is not None:
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
                if np.isnan(top).any():
                    np.copyto(num, 0.0, where=np.isnan(num))
                    top = num.max(axis=0)
                np.maximum(stud, top, out=stud)
    if plain is not None:
        plain *= root_n
    return out


def _marginal_stats(
    theta_star: np.ndarray,
    studentize: tuple[bool, ...],
    theta_hat: np.ndarray,
    n: int,
    targets,
    kind: str,
) -> np.ndarray:
    """(S, T, B) max statistics of each target's own family of ``kind``.

    ``theta_star`` is the ``(B, p)`` resample matrix, ``targets`` are
    distinct category indices, and statistic ``s`` is studentized if
    ``studentize[s]`` is true (each flag at most once).  Row ``[s, t]``
    is :func:`_pair_stats` over row ``t`` of
    :func:`~ranksets.core._target_pairs` in marginal scope, ``symm``
    two-sided and ``lower`` one-sided, bit for bit and sign for sign.
    The rows are read once, from one :func:`_category_major` copy in
    walk order: the targets, then the other categories.  Each unordered
    pair is evaluated once.  The target ``c`` at walk position ``t``
    takes its pairs with every later position ``k``, a contiguous slice
    of the rows and variance terms, so that a block's rows of later
    targets fold into a contiguous slice of the running maxima and the
    whole block into ``c``'s own (see :func:`_fold_marginal`).  Each
    block's numerator is taken once; its unstudentized maxima are folded
    before it is studentized in place, and scaled by ``sqrt(n)`` after
    the walk (see :func:`_pair_stats`).  Each element takes
    :func:`_pair_stats`'s operations in their order.

    Two-sided, a block holds each pair's ``symm`` statistic, which its
    mirror gives bit for bit (see :func:`_all_pairs_symm_stats`).
    One-sided, it holds the ``lower`` statistic of the pair as the later
    target's row holds it: ``(c, k)`` for ``lower`` (each other category
    above ``k``) and ``(k, c)`` for ``upper`` (``k`` above each other
    category).  ``c``'s own row holds the mirror, the same pair with its
    ends swapped, whose statistic is ``0.0 - x`` bit for bit:
    ``fl(tk - tc) = -fl(tc - tk)``, likewise for the estimates, and ``2
    t`` is exact, so the mirror negates the numerator over the same
    denominator.  A numerator is never ``-0`` (a difference of equal
    values is ``+0`` either way round), so ``0.0 - x`` gives the
    mirror's ``+0`` where ``-x`` would give ``-0``.  The quotient rounds
    symmetrically and ``+0 / sd`` is ``+0`` or a ``0/0`` NaN that counts
    as 0, so the mirror may be taken after studentizing; with the
    unstudentized maxima scaled after the max, as in
    :func:`_pair_stats`, every row is its own walk's.  Blocks are
    ``_BLOCK_BYTES`` per buffer, and the inputs are never written.
    """
    B, p = theta_star.shape
    T = len(targets)
    order = _targets_first(p, targets)
    rows, var = _category_major(theta_star, True in studentize, order)
    hat = theta_hat[order]
    # upper's blocks are the pairs (k, c), the later category first.
    ahead = kind == "upper"
    width = min(p - 1, max(1, _BLOCK_BYTES // (8 * B)))
    buf_num, buf_sd, buf_prod = (np.empty((width, B)) for _ in range(3))
    root_n = math.sqrt(n)
    # Every statistic of a one-sided row can be negative.
    out = np.full((len(studentize), T, B), 0.0 if kind == "two_sided" else -np.inf)
    plain, stud = _statistic_rows(out, studentize)
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(T):
            d_hat = hat[t + 1:] - hat[t] if ahead else hat[t] - hat[t + 1:]
            tc = rows[t]
            two_tc = tc * 2.0
            for start in range(t + 1, p, width):
                stop = min(start + width, p)
                tk, num = rows[start:stop], buf_num[:stop - start]
                np.subtract(*((tk, tc) if ahead else (tc, tk)), out=num)
                num -= d_hat[start - t - 1:stop - t - 1, None]
                if kind == "two_sided":
                    np.abs(num, out=num)
                # The block's rows that are later targets' own pairs.
                later = min(stop, T) - start
                if plain is not None:
                    _fold_marginal(plain, t, start, later, num, kind)
                if stud is not None:
                    sd, prod = buf_sd[:len(num)], buf_prod[:len(num)]
                    np.multiply(two_tc, tk, out=prod)
                    np.add(var[start:stop], var[t], out=sd)
                    sd += prod
                    np.sqrt(sd, out=sd)
                    sd /= root_n
                    num /= sd
                    _fold_marginal(stud, t, start, later, num, kind)
    if plain is not None:
        plain *= root_n
    return out


def _targets_first(p: int, targets) -> np.ndarray:
    """The marginal walk order: ``targets``, then the other categories ascending."""
    other = np.ones(p, dtype=bool)
    other[np.asarray(targets)] = False
    return np.concatenate((targets, np.flatnonzero(other)))


def _fold_marginal(out, t, start, later, num, kind):
    """Fold a block of target ``t``'s pairs into the ``(T, B)`` maxima ``out``.

    Row ``i`` of ``num`` is the pair of ``t`` with walk position ``start
    + i``; its first ``later`` rows are also later targets' own pairs,
    whose rows take them as they are.  Two-sided, every statistic is
    ``+0`` or more, or a ``0/0`` NaN that counts as 0, so the maxima
    start at 0 and fold with ``fmax``, and ``t``'s row takes each
    statistic too.  One-sided, the maxima start at ``-inf``, ``0/0``
    NaNs are cleared to 0 first, as :func:`_pair_stats` does, and
    ``t``'s row takes each mirror ``0.0 - x``, whose largest is ``0.0 -
    num.min(axis=0)`` (see :func:`_marginal_stats`).
    """
    if kind == "two_sided":
        own = np.fmax.reduce(num, axis=0)
    else:
        own = num.min(axis=0)
        if np.isnan(own).any():
            np.copyto(num, 0.0, where=np.isnan(num))
            own = num.min(axis=0)
        np.subtract(0.0, own, out=own)
    np.fmax(out[t], own, out=out[t])
    if later > 0:
        seg = out[start:start + later]
        np.fmax(seg, num[:later], out=seg)


#: Smallest ``p`` at which a symmetric calibration over every unordered
#: pair goes through :func:`_all_pairs_symm_stats`; below it the pair
#: walk is about as fast, and faster on sparse unstudentized tables
#: (``BENCH_14.json``).
_ALL_PAIRS_MIN_P = 30

#: Unit roundoff of float64.
_U = 2.0**-53


def _max_stats(
    theta_star: np.ndarray,
    studentize: tuple[bool, ...],
    theta_hat: np.ndarray,
    n: int,
    mask: np.ndarray,
    variant: str,
) -> np.ndarray:
    """(S, B) max statistics of ``variant`` over the pairs of ``mask``.

    ``theta_star`` is the ``(B, p)`` resample matrix and ``mask`` a
    ``p x p`` bool mask with no diagonal cell and at least one pair; row
    ``s`` is studentized if ``studentize[s]`` is true (each flag at most
    once).  Equal, bit for bit, to :func:`_pair_stats` of ``variant``
    over the mask's pairs on the category-major ``theta_star``; an
    ``upper`` maximum, which the walk has no variant for, equals the
    elementwise ``upper`` formula (the negated ``lower`` numerator)
    except that a zero maximum is ``+0`` where the negation gives
    ``-0``.  This is the one place that chooses the kernel of a single
    family.

    A pair and its mirror give the same ``symm`` statistic, and a pair's
    mirror negates its one-sided statistic over the same denominator,
    bit for bit: ``fl(tk - tj) = -fl(tj - tk)``, likewise for the
    estimates, and ``2 t`` is exact, so ``(k, j)``'s ``lower`` statistic
    is ``(j, k)``'s ``upper`` one, up to the sign of a zero.  So the
    ``symm`` maximum, and a one-sided maximum over a mask closed under
    transpose (the larger of a pair and its mirror is the pair's
    ``symm`` statistic), is the ``symm`` maximum over the unordered
    pairs of ``mask | mask.T``.  When those are every pair of ``p >=
    _ALL_PAIRS_MIN_P`` categories, :func:`_all_pairs_symm_stats` computes
    each statistic, one call each, as its levels follow each statistic's
    own scores; otherwise one :func:`_pair_stats` walk computes every
    statistic.  Any other one-sided mask is walked as ``lower``, an
    ``upper`` one over its transpose.
    """
    p = theta_star.shape[1]
    pairs = mask | mask.T if variant == "symm" else mask
    every = np.count_nonzero(pairs) == p * (p - 1)
    if every or variant == "symm" or np.array_equal(mask, mask.T):
        if every and p >= _ALL_PAIRS_MIN_P:
            return np.stack([_all_pairs_symm_stats(theta_star, s, theta_hat, n)
                             for s in studentize])
        # The pairs j < k; a fifth of np.triu's cost at small p.
        upper = np.less.outer(np.arange(p), np.arange(p))
        jj, kk = np.nonzero(upper if every else upper & pairs)
        variant = "symm"
    else:
        jj, kk = np.nonzero(mask.T if variant == "upper" else mask)
        variant = "lower"
    rows, var = _category_major(theta_star, True in studentize)
    return _pair_stats(rows, var, theta_hat, n, jj, kk, variant, studentize)


def _all_pairs_symm_stats(
    theta_star: np.ndarray,
    studentize: bool,
    theta_hat: np.ndarray,
    n: int,
) -> np.ndarray:
    """:func:`_pair_stats` ``symm`` over every unordered pair, bit for bit.

    ``theta_star`` is the ``(B, p)`` resample matrix and ``theta_hat``
    the estimates.  The resamples are walked in blocks of
    ``_BLOCK_BYTES`` per ``block x p`` buffer, rows as they lie in
    ``theta_star``.  Each category of a resample gets a score ``z``, and
    the larger score of a pair bounds its statistic (below).  Level by
    level, a resample's highest-scoring category not yet taken has
    every pair it is in evaluated, with :func:`_pair_stats`'s
    per-element operations in their order (a pair and its mirror give
    the same statistic bit for bit), into a running maximum.  Every pair
    of two categories not yet taken is at most ``bound = c * z_max``,
    their largest score times ``c = sqrt(2) (1 + 2^-40)`` studentized or
    ``2 (1 + 2^-40)`` not, so a resample whose running maximum reaches
    its bound (an infinite one always does) is done; the others go on
    to the next level, for at most ``p - 1`` levels.  A level costs O(p)
    per resample, so the kernel is O(B p) times the mean level count,
    O(B p^2) in the worst case; memory is one block, no pair index
    arrays are built, and the inputs are never written.

    The score.  With ``a = t - th`` a category's computed deviation
    (``t`` its resampled, ``th`` its estimated frequency), ``v = (1 -
    t) t`` its variance term and ``u = 2^-53`` the unit roundoff, ``w =
    |a| + u (t + th)``; ``z = w`` unstudentized and ``z = w / sqrt(v)``
    studentized (kept squared, ``w^2 / v``, with ``0/0 = 0``, so ``w =
    0`` scores 0 and ``v = 0 < w`` scores ``inf``).  ``u (t + th)``
    covers the rounding of a pair's two differences.

    Proof of the bound.  Frequencies lie in ``[0, 1]`` and are 0 or at
    least ``2^-53`` (``c/n`` with ``n < 2^53``), so nothing below
    underflows and each operation returns the exact result times ``1 +
    e``, ``|e| <= u``; ``sqrt(n)`` is the computed root that the
    statistic and the bound share.  Take a pair ``(j, k)``, ``x = tj - tk``, ``y =
    thj - thk``; ``|x - y| <= (|aj| + |ak|) / (1 - u)`` as each ``a``
    rounds ``t - th``, and ``|x| + |y| <= tj + tk + thj + thk``.  The
    computed numerator ``|fl(x) - fl(y)|``, rounded, is then at most
    ``(1 + u)(|x - y| + u |x| + u |y|) <= (1 + u) / (1 - u) (wj +
    wk)``.  Unstudentized, the statistic is that times ``sqrt(n)``:
    at most ``(1 + u)^2 / (1 - u) 2 max(wj, wk) sqrt(n)``.  Studentized,
    the squared scale ``fl(fl(vj + vk) + fl(2 tj tk))`` is at least
    ``(1 - u)(vj + vk)`` (adding a non-negative term never rounds below
    the other), and its square root, ``/ sqrt(n)`` and the quotient
    round once each, so the statistic is at most ``(1 + u)^2 / (1 -
    u)^3.5 (wj + wk) sqrt(n) / sqrt(vj + vk)``.  By Cauchy-Schwarz,
    ``wj + wk = zj sqrt(vj) + zk sqrt(vk) <= sqrt(2) max(zj, zk)
    sqrt(vj + vk)`` for exact scores ``z = w / sqrt(v)`` (finite scores
    with ``vj + vk = 0`` mean ``wj = wk = 0``: a zero numerator and a
    zero statistic).  The computed score is at least the exact one
    times ``(1 - u)^2`` unstudentized and ``(1 - u)^3`` studentized (its
    square ``(1 - u)^6``), so a pair of two categories not yet taken is
    at most ``(1 + u)^2 (1 - u)^-3 2 sqrt(n) z_max``, or ``(1 + u)^2 (1 -
    u)^-6.5 sqrt(2) sqrt(n) z_max``, in the computed ``z_max``.  The
    computed ``bound`` is at least ``(1 - u)^5 c sqrt(n) z_max``, which
    is larger, as ``(1 + u)^2 (1 - u)^-11.5 < 1 + 2^-40``.  With the
    pairs already evaluated, whose ``0/0`` counts as 0 as in
    :func:`_pair_stats`, the running maximum is then the maximum over
    all pairs.

    Termination.  Each level takes one category not yet taken, so after
    ``p - 1`` levels at most one category of a resample is left, every
    pair has an end taken and has been evaluated, and the running
    maximum is the maximum over all pairs whatever the bound reads.
    """
    B, p = theta_star.shape
    width = min(B, max(1, _BLOCK_BYTES // (8 * p)))
    root_n = math.sqrt(n)
    factor = (math.sqrt(2.0) if studentize else 2.0) * (1.0 + 2.0**-40)
    z_buf, num_buf, sd_buf = (np.empty((width, p)) for _ in range(3))
    if studentize:
        v_buf, prod_buf = np.empty((width, p)), np.empty((width, p))
    out = np.zeros(B)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, B, width):
            t = theta_star[start:start + width]
            z, num, sd = z_buf[:len(t)], num_buf[:len(t)], sd_buf[:len(t)]
            v = None
            if studentize:
                v = v_buf[:len(t)]
                np.subtract(1.0, t, out=v)
                v *= t
            np.add(t, theta_hat, out=z)
            z *= _U
            np.subtract(t, theta_hat, out=num)
            np.abs(num, out=num)
            z += num
            if studentize:
                z *= z
                z /= v
                np.copyto(z, 0.0, where=np.isnan(z))
            active = np.arange(start, start + len(t))
            for _ in range(p - 1):
                m = len(active)
                r = np.arange(m)
                c = z.argmax(axis=1)
                z[r, c] = -1.0
                bound = z.max(axis=1)
                if studentize:
                    np.sqrt(bound, out=bound)
                bound *= root_n
                bound *= factor
                best = _pairs_with(
                    t, v, theta_hat, root_n, r, c, num[:m], sd[:m],
                    prod_buf[:m] if studentize else None,
                )
                np.maximum(best, out[active], out=best)
                out[active] = best
                still = best < bound
                if not still.any():
                    break
                active, t, z = active[still], t[still], z[still]
                if studentize:
                    v = v[still]
    return out


def _pairs_with(t, v, theta_hat, root_n, r, c, num, sd, prod):
    """Max ``symm`` statistic of each resample ``t[r]`` over pairs ``(c[r], j)``.

    ``t`` holds resamples as rows and ``v`` their variance terms
    (``None`` unstudentized); ``num``, ``sd`` and ``prod`` are
    ``t``-shaped buffers.  The operations and their order are those of
    :func:`_pair_stats` on the pair ``(c[r], j)``.  The pair ``(c, c)``
    gives 0 or ``0/0``, which counts as 0, as does every other ``0/0``.
    """
    tc = t[r, c][:, None]
    np.subtract(tc, t, out=num)
    np.subtract(theta_hat[c][:, None], theta_hat, out=sd)
    num -= sd
    np.abs(num, out=num)
    if v is None:
        num *= root_n
        return num.max(axis=1)
    tc *= 2.0
    np.multiply(tc, t, out=prod)
    np.add(v[r, c][:, None], v, out=sd)
    sd += prod
    np.sqrt(sd, out=sd)
    sd /= root_n
    num /= sd
    best = np.fmax.reduce(num, axis=1)
    np.copyto(best, 0.0, where=np.isnan(best))
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

    All columns are read from one partition along the resamples.
    """
    if np.isnan(stats).any():
        raise ValueError("values must not contain NaN")
    if not (0.0 < level <= 1.0):
        raise ValueError("level must lie in (0, 1]")
    # Round before ceil so that an exactly-integer level * B is not
    # bumped up by floating-point fuzz.
    k = max(math.ceil(round(level * stats.shape[0], 9)), 1) - 1
    return np.partition(stats, k, axis=0)[k]


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
    tj, tk = theta_hat[..., jj], theta_hat[..., kk]
    return np.sqrt(tj * (1.0 - tj) + tk * (1.0 - tk) + 2.0 * tj * tk)


def _sigma_max(theta_hat: np.ndarray, targets) -> np.ndarray:
    """Largest :func:`_sigma_hat` of each target's pairs with the other categories.

    ``_sigma_hat`` of ``(j, k)`` equals that of ``(k, j)`` bit for bit,
    so this is the largest scale of every family whose pairs with each
    target ``j`` run one or both ways round.  ``theta_hat`` is ``(...,
    p)``, ``targets`` are distinct and the result is ``(..., T)``.
    Targets are taken in blocks of ``_BLOCK_BYTES`` per ``(..., block,
    p)`` array, with no pair index arrays.  As in
    :func:`_marginal_stats`, a block takes its pairs with the later
    targets and the other categories, and folds each pair with a later
    target into that target's maximum too, so a pair of targets in two
    blocks is evaluated once.  Every scale is ``+0`` or more, so the
    maxima start at 0.
    """
    p, T = theta_hat.shape[-1], len(targets)
    order = _targets_first(p, targets)
    out = np.zeros(theta_hat.shape[:-1] + (T,))
    step = max(1, _BLOCK_BYTES // (8 * theta_hat.size))
    for start in range(0, T, step):
        stop = min(start + step, T)
        # Row i is the target at start + i, column c the category at
        # start + c: the block's own pairs, both ways round, and its
        # pairs with every later category.
        sigma = _sigma_hat(theta_hat, order[start:stop, None], order[None, start:])
        diag = np.arange(stop - start)
        sigma[..., diag, diag] = 0.0  # (j, j) is no pair
        np.maximum(out[..., start:stop], sigma.max(axis=-1), out=out[..., start:stop])
        if stop < T:
            later = out[..., stop:]
            np.maximum(later, sigma[..., diag.size:T - start].max(axis=-2), out=later)
    return out


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

    Each critical value is a quantile of one :func:`_max_stats` maximum.
    A ``symm`` set, or any shape over a mask closed under transpose
    (the default, every ordered pair, is), costs the symmetric
    statistic over its unordered pairs: when those are every pair of
    ``p >= 30`` categories, O(B p) per level of
    :func:`_all_pairs_symm_stats`, and mostly one or two levels; otherwise
    O(B m) over the ``m`` pairs walked.  ``equi`` takes two maxima, or
    one over a mask closed under transpose, where its lower and upper
    maxima are the same symmetric one.  A zero critical value is
    ``+0.0``.

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
    star = _theta_star_cached(sample.counts, n, config.B, int(config.seed))
    # equi is both one-sided shapes at half level; over a mask closed
    # under transpose both take the one symm maximum (see _max_stats).
    variants = ("lower", "upper") if shape == "equi" else (shape,)
    level = 1.0 - alpha / len(variants)
    once = len(variants) == 2 and np.array_equal(mask, mask.T)
    crits = tuple(
        bootstrap_quantile(_max_stats(star, (studentize,), theta_hat, n, mask, v)[0], level)
        for v in variants[:1 if once else 2]
    ) * (2 if once else 1)
    jj, kk = np.nonzero(mask)
    lo, hi, sigma = _difference_bounds(theta_hat, jj, kk, n, crits, shape, studentize)
    return DifferenceCS(
        mask=mask, shape=shape, studentize=studentize,
        alpha=alpha, crit=crits, lo=_on_mask(mask, lo),
        hi=_on_mask(mask, hi), sigma=_on_mask(mask, sigma),
    )


def _difference_bounds(theta_hat, jj, kk, n, crits, shape, studentize):
    """``(lo, hi, sigma)`` of the :func:`difference_cs` intervals of pairs ``(jj, kk)``.

    ``crits`` holds the critical values of ``shape``; for stacked
    tables, ``theta_hat`` is ``(..., p)`` and each critical value
    ``(..., 1)``, and the ends are ``(..., m)``.
    """
    d_hat = theta_hat[..., jj] - theta_hat[..., kk]
    sigma = _sigma_hat(theta_hat, jj, kk) if studentize else np.ones(d_hat.shape)
    scale = sigma / math.sqrt(n)
    lo = -np.inf if shape == "upper" else d_hat - _scaled(crits[0], scale)
    hi = np.inf if shape == "lower" else d_hat + _scaled(crits[-1], scale)
    return lo, hi, sigma


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
    target's own family) is calibrated on its own; when ``boot`` and
    ``bootStud`` are scored in one
    :func:`~ranksets._dispatch._rank_bounds` call, as the command line
    scores its methods, both come from one walk of each row's pairs.
    One-sided kinds calibrate the lower-variant max statistic over the
    row's pairs; the two-sided kind calibrates the symmetric variant
    with each unordered pair of the row entering the max once (its
    mirror gives the same statistic and scale, bit for bit).  In
    marginal scope each unordered pair of two targets is evaluated once
    for both of their rows: a one-sided pair's mirror is ``0.0 - x``
    over the same scale, bit for bit, and the one-sided maxima start at
    ``-inf``, as every statistic of a row can be negative.  Either way
    the claims use a constant-width band per row: a comparison is
    rejected only when its estimated difference clears the row's
    critical value times the largest per-pair scale in the row (over
    ``sqrt(n)``), so every pair of the row faces the same threshold.  Without
    studentization all scales equal 1 and the band reduces to the
    per-pair intervals of :func:`difference_cs`.  The kernel of each
    calibration is chosen by :func:`_band_critical_values`.

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
        Method is ``"bootStud"`` or ``"boot"`` per ``studentize``; the
        same set as :func:`~ranksets.rank_cs` under that name.
    """
    from ._dispatch import rank_cs  # _dispatch imports this module

    method = "bootStud" if studentize else "boot"
    return rank_cs(method, sample, J0, kind, alpha, config, scope)


def _band_critical_values(
    star: np.ndarray,
    theta_hat: np.ndarray,
    n: int,
    family: IndexFamily,
    scope: str,
    studentize: tuple[bool, ...],
    alpha: float,
) -> np.ndarray:
    """``(S, T)`` critical values of each row of :func:`~ranksets.core._target_pairs`.

    ``star`` is one table's ``(B, p)`` resample matrix and ``theta_hat``
    its estimates.  Row ``s`` calibrates the studentized statistic if
    ``studentize[s]`` is true and the unstudentized one if not (each
    flag at most once); every statistic comes from the same walk of the
    pairs, and all are read from one :func:`_quantiles` of the ``(B, S,
    T)`` maxima.

    The joint row is one family, whose kernel :func:`_max_stats`
    chooses.  Marginal rows, of every kind, take their maxima from
    :func:`_marginal_stats`, which evaluates each unordered pair once
    for both of its ends: a one-sided row starts at ``-inf``, as every
    statistic of it can be negative, and takes the mirror ``0.0 - x`` of
    a pair that the other end's row holds the right way round, which is
    the statistic with the ends swapped, bit for bit.  Both kernels give
    the maxima of the pair walk bit for bit; the largest scale of each
    row, read by :func:`_band_rejections`, comes from
    :func:`_sigma_max`, which needs no pair index arrays.
    """
    if not _is_marginal(scope):
        stats = _max_stats(star, studentize, theta_hat, n, family.mask, "lower")[:, None]
    else:
        stats = _marginal_stats(star, studentize, theta_hat, n, family.J0, family.kind)
    return _quantiles(stats.transpose(2, 0, 1), 1.0 - alpha)


def _band_rejections(
    family: IndexFamily,
    theta_hat: np.ndarray,
    crit: np.ndarray,
    n: int,
    scope: str,
    studentize: bool,
) -> PairwiseRejections:
    """Claims of the band readout: ``theta_a - theta_b`` above its row's half-width.

    ``crit`` holds the critical value of each row of
    :func:`~ranksets.core._target_pairs`.  For stacked tables
    ``theta_hat`` is ``(..., p)`` and ``crit`` ``(..., T)``, and one
    pass gives every table's claims.
    """
    if studentize:
        sigma_max = _sigma_max(theta_hat, family.J0)
        if not _is_marginal(scope):
            sigma_max = sigma_max.max(axis=-1, keepdims=True)
    else:
        sigma_max = np.ones(crit.shape)
    half = _band_half_width(crit, sigma_max, n)
    diff = theta_hat[..., :, None] - theta_hat[..., None, :]
    return PairwiseRejections.at_threshold(family, lambda t: diff > t, half)


def _resampled(x, n: int, B: int, seeds, statistics) -> list[np.ndarray]:
    """Each of ``statistics`` on the resamples of every stacked table.

    ``x`` holds ``R`` count tables of total ``n`` as ``(R, p)`` and
    ``seeds`` their ``R`` resampling seeds.  Table ``r``'s ``(B, p)``
    resample matrix comes once from the resample cache, from its own
    seed, and goes with the table's estimates to each
    ``statistic(star, theta_hat)`` in turn, so that the methods of one
    table share one draw however many tables are stacked.  A statistic
    may serve several methods: :func:`_band_critical_values` calibrates
    every band statistic it is asked for in one walk.  Returns, per
    statistic, its ``R`` values stacked along a new first axis.
    """
    values = [[] for _ in statistics]
    for counts, theta_hat, seed in zip(x.tolist(), x / n, seeds):
        star = _theta_star_cached(tuple(counts), n, B, seed)
        for out, statistic in zip(values, statistics):
            out.append(statistic(star, theta_hat))
    return [np.stack(out) for out in values]


def _best_ranks(theta_star: np.ndarray) -> np.ndarray:
    """(p, B) int32 best ranks ``1 + #{k : theta*_k > theta*_j}``, category-major.

    Row ``j`` holds category ``j``'s rank in each of the ``B``
    resamples.  Resamples are ranked in blocks of ``_BLOCK_BYTES`` per
    ``block x p`` temporary: one argsort per block, the sorted values
    gathered and the ranks scattered through flat indices, and the
    ``(B, p)`` input never written.
    """
    B, p = theta_star.shape
    ranks = np.empty((p, B), dtype=np.int32)
    flat_ranks = ranks.reshape(-1)
    position = np.arange(1, p + 1, dtype=np.int32)
    step = max(1, _BLOCK_BYTES // (8 * p))
    for lo in range(0, B, step):
        block = theta_star[lo:lo + step]
        rows = np.arange(len(block))[:, None]
        order = np.argsort(-block, axis=1)
        desc = block.reshape(-1)[order + rows * p]
        # In descending order a tie group shares the position of its first
        # member.  Comparing the flattened rows marks each row's first
        # entry too; it is then set, as every row starts a group.
        starts = np.empty(desc.shape, dtype=bool)
        flat_desc = desc.reshape(-1)
        np.not_equal(flat_desc[1:], flat_desc[:-1], out=starts.reshape(-1)[1:])
        starts[:, 0] = True
        sorted_ranks = np.maximum.accumulate(starts * position, axis=1)
        # Category order[r, i] of resample lo + r sits at flat position
        # order[r, i] * B + lo + r of the category-major ranks.
        order *= B
        order += rows + lo
        flat_ranks[order] = sorted_ranks
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
    from ._dispatch import rank_cs  # _dispatch imports this module

    return rank_cs("naive", sample, J0, alpha=alpha, config=config)


def _naive_bounds(star, theta_hat, j0, alpha: float) -> np.ndarray:
    """``(2, |J0|)`` naive interval ends of each target from one table's resamples.

    ``star`` is the ``(B, p)`` resample matrix; ``theta_hat`` is not
    read, so that the signature is a statistic of :func:`_resampled`.
    Each target's ``B`` ranks are one int32 row of a category-major
    ``(|J0|, B)`` matrix, sorted in place, and the interval ends are
    two of its order statistics.  Up to ``4 log2(p)`` targets count
    who beats each; more take every category's rank from one argsort
    per resample (:func:`_best_ranks`).  Both give the same integers.
    """
    B, p = star.shape
    if len(j0) <= 4 * math.log2(p):
        # Count who beats each target: O(|J0| p B) against the argsort's
        # O(p log p B), over contiguous rows of each category's draws.
        # An int32 count sums about twice as fast as the default int64.
        # Measured at B = 1000, the two cost the same at 20 to 35 targets
        # for p from 30 to 300, close to 4 log2(p).
        cols = np.ascontiguousarray(star.T)
        ranks = 1 + np.stack([(cols > cols[j]).sum(axis=0, dtype=np.int32) for j in j0])
    else:
        # Every category's ranks, category-major; a joint family takes
        # them all in place, as J0 is stored sorted and distinct.
        ranks = _best_ranks(star)
        if len(j0) < p:
            ranks = ranks[list(j0)]
    ranks.sort(axis=1)
    lo_idx = min(math.floor(round(alpha / 2 * B, 9)) + 1, B)
    hi_idx = max(math.ceil(round((1.0 - alpha / 2) * B, 9)), 1)
    return ranks[:, [lo_idx - 1, hi_idx - 1]].T
