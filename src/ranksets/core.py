"""Domain types and rank arithmetic for multinomial rank inference.

A category's rank is one plus the number of categories with strictly
larger success probability, so tied categories share the best rank of
their tie group.  Because ties make the rank ambiguous, each category
also carries the interval of admissible ranks ``[r_lo, r_hi]`` where
``r_hi`` is the worst rank consistent with the ties.

Confidence sets for ranks are integer intervals read off one ``p x p``
boolean claim matrix ``C``, where ``C[a, b]`` claims ``theta_a >
theta_b``.  Every category claimed to beat ``j`` pushes ``j``'s lower
rank bound up by one and every category ``j`` is claimed to beat pulls
its upper bound down by one: ``lo = 1 + C[:, J0].sum(0)`` and ``hi = p
- C[J0, :].sum(1)``.  A procedure only supplies a pairwise statistic
and the threshold at which the statistic turns into claims, restricted
to the ``p x p`` mask of its index family.  The claims hold that
family (:class:`PairwiseRejections`), which is checked once against
it, and the assembly reads ``p``, ``J0`` and the kind from the family
alone.  The assembly is test-agnostic; any family of pairwise tests
with familywise error control at level ``alpha`` yields a confidence
set with simultaneous coverage ``1 - alpha`` over the categories of
interest.

Claims, thresholds and bounds may carry leading axes: ``R`` tables
stacked as ``(R, p, p)`` claims give ``(R, |J0|)`` bounds in one pass
(:func:`_claim_bounds`), with every check run over all of them, and a
single table is the same code with no leading axis.  One table's sums
(:func:`_claim_sums`) are left to :class:`RankSet` to check.  How many
tables go in one stack is the caller's choice (:mod:`ranksets.sim`
sizes its chunks).

Scope says which pairs are held to one threshold.  Simultaneous scope
holds the whole family to one threshold.  Marginal scope gives each
target ``j`` in ``J0`` the set its own family ``J0 = {j}`` would give;
that family is row ``j`` and/or column ``j`` of the joint mask, tested
at ``j``'s own threshold.  :func:`_target_pairs` spells these rows out
as index arrays, one row per threshold, and :func:`_row_length` gives
their length without building them.  A procedure computes its
statistic once and derives one threshold per row, and decides how it
reads its rows: Bonferroni divides by :func:`_row_length`, Holm steps
down the p-values gathered through :func:`_target_pairs`, and the
bootstrap's kernels walk each row's pairs from the mask and ``J0``
(``boot._band_critical_values``).
:meth:`PairwiseRejections.at_threshold` claims rows at ``t[:, None]``
(upper bounds) and columns at ``t[None, :]`` (lower bounds).  With one
shared threshold the two are the same matrix.

Category indices are 0-based throughout the API; rank values are
1-based integers in ``{1, ..., p}``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "KINDS",
    "SCOPES",
    "InvalidTestFamilyError",
    "MultinomialSample",
    "ProbabilityVector",
    "RankTriple",
    "IndexFamily",
    "PairwiseRejections",
    "RankSet",
    "compute_ranks",
    "build_index_family",
    "rankset_from_rejections",
]

#: Valid sidedness kinds for rank confidence sets.
KINDS = ("lower", "upper", "two_sided")

#: Coverage scopes of a rank confidence set over its targets.
SCOPES = ("marginal", "simultaneous")

#: Tolerance on sum-to-one checks for probability vectors.
_SIMPLEX_TOL = 1e-12

#: Most bytes of one scratch buffer in the kernels of :mod:`ranksets.boot`
#: and :mod:`ranksets.exact`.  glibc serves a request of 128 KiB or more
#: (its default mmap threshold, chunk header included) with a fresh
#: mapping that it unmaps on free, so every call faults such buffers in
#: again: one studentized :func:`ranksets.boot._pair_stats` call at
#: B = 2000 over 28 pairs took 218 minor faults and 0.9-1.1 ms with
#: 256 KiB buffers, none and 0.5 ms with these (one 2-vCPU Xeon core).
_BLOCK_BYTES = 127 * 1024

class InvalidTestFamilyError(ValueError):
    """Raised when pairwise rejections are mutually inconsistent.

    A level-alpha family with alpha < 1/2 can never reject both
    directions of the same pair, so a crossing interval (lo > hi)
    indicates a broken test family rather than bad data.
    """


def _whole_number(value, name: str) -> int:
    """``value`` as an int, or a ``ValueError`` unless it is a whole number.

    Integers (numpy's too) and finite real numbers with no fractional part
    pass; ``2.7``, ``nan`` and ``'3'`` are refused rather than truncated,
    and ``True`` rather than read as 1.
    """
    if not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or (
            isinstance(value, numbers.Real)
            and math.isfinite(value)
            and value == int(value)
        )
    ):
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def _as_labels(labels: Sequence[str] | None, p: int) -> tuple[str, ...]:
    if labels is None:
        return tuple(f"cat{i + 1}" for i in range(p))
    return tuple(str(lab) for lab in labels)


@dataclass(frozen=True)
class MultinomialSample:
    """Observed counts for ``p`` mutually exclusive categories.

    Parameters
    ----------
    counts : sequence of int
        Non-negative category counts ``X_1, ..., X_p``; a count (or ``n``)
        that is not a whole number raises ``ValueError``.
    labels : sequence of str, optional
        Unique category names; default ``cat1, ..., catp``.
    n : int, optional
        Total number of observations; must equal ``sum(counts)`` when
        given and is derived from the counts otherwise.
    """

    counts: tuple[int, ...]
    labels: tuple[str, ...] | None = None
    n: int | None = None

    def __post_init__(self) -> None:
        counts = tuple(_whole_number(c, "a count") for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValueError(f"counts must be non-negative, got {counts}")
        if len(counts) < 2:
            raise ValueError("need at least two categories")
        labels = _as_labels(self.labels, len(counts))
        if len(labels) != len(counts):
            raise ValueError(
                f"{len(labels)} labels for {len(counts)} categories"
            )
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels must be unique, got {labels}")
        total = sum(counts)
        n = total if self.n is None else _whole_number(self.n, "n")
        if n != total:
            raise ValueError(f"n={n} does not match sum of counts {total}")
        if n <= 0:
            raise ValueError("total count must be positive")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n", n)

    @property
    def p(self) -> int:
        """Number of categories."""
        return len(self.counts)

    @property
    def theta_hat(self) -> np.ndarray:
        """Empirical success probabilities ``X / n``."""
        return np.asarray(self.counts, dtype=float) / self.n


@dataclass(frozen=True)
class ProbabilityVector:
    """Point on the probability simplex (truth or an estimate of it).

    Parameters
    ----------
    theta : sequence of float
        Components in ``[0, 1]`` summing to one within ``1e-12``.
    """

    theta: tuple[float, ...]

    def __post_init__(self) -> None:
        theta = tuple(float(t) for t in self.theta)
        if len(theta) < 2:
            raise ValueError("need at least two components")
        if any(t < 0.0 or t > 1.0 for t in theta):
            raise ValueError(f"components must lie in [0, 1], got {theta}")
        if abs(sum(theta) - 1.0) > _SIMPLEX_TOL:
            raise ValueError(f"components sum to {sum(theta)!r}, not 1")
        object.__setattr__(self, "theta", theta)

    @property
    def p(self) -> int:
        return len(self.theta)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.theta, dtype=float)


def _theta_array(theta) -> np.ndarray:
    """Coerce a ProbabilityVector, MultinomialSample, or sequence to θ."""
    if isinstance(theta, ProbabilityVector):
        return theta.as_array()
    if isinstance(theta, MultinomialSample):
        return theta.theta_hat
    arr = np.asarray(theta, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("theta must be a 1-d vector with p >= 2")
    return arr


@dataclass(frozen=True)
class RankTriple:
    """Rank of one category together with its admissible-rank interval.

    ``r`` equals ``r_lo``; the two are kept separate so downstream code
    can speak about "the" rank and the tie interval without re-deriving
    either.
    """

    r: int
    r_lo: int
    r_hi: int

    def __post_init__(self) -> None:
        if not (1 <= self.r_lo <= self.r <= self.r_hi):
            raise ValueError(
                f"invalid rank triple r={self.r}, "
                f"r_lo={self.r_lo}, r_hi={self.r_hi}"
            )


def compute_ranks(theta) -> list[RankTriple]:
    """Rank every category of ``theta``, handling ties exactly.

    Parameters
    ----------
    theta : ProbabilityVector, MultinomialSample, or sequence of float
        Success probabilities.  Comparisons are exact on the stored
        floating-point values; no tolerance is applied, so intended
        ties must be constructed bit-exact by the caller.

    Returns
    -------
    list of RankTriple
        Per category: best rank ``r = r_lo = 1 + #{k : theta_k >
        theta_j}`` and worst rank ``r_hi = p - #{k : theta_k <
        theta_j}``.

    Examples
    --------
    >>> [t.r for t in compute_ranks([0.4, 0.1, 0.1, 0.2, 0.2])]
    [1, 4, 4, 2, 2]
    """
    arr = _theta_array(theta)
    p = arr.size
    larger = (arr[None, :] > arr[:, None]).sum(axis=1)
    smaller = (arr[None, :] < arr[:, None]).sum(axis=1)
    return [
        RankTriple(r=int(1 + larger[j]), r_lo=int(1 + larger[j]),
                   r_hi=int(p - smaller[j]))
        for j in range(p)
    ]


@dataclass(frozen=True)
class IndexFamily:
    """Ordered pairs of categories whose comparisons a procedure tests.

    ``mask[a, b]`` (read-only, ``p x p``) marks the pair ``(a, b)``
    whose test can claim ``theta_a > theta_b``.  ``kind`` selects which
    rank bounds the family can move: ``lower`` compares everything
    against the categories of interest (``mask[:, J0]``, raising lower
    bounds), ``upper`` compares the categories of interest against
    everything (``mask[J0, :]``, lowering upper bounds), and
    ``two_sided`` is the union of the two.  The diagonal is never in
    the family.  ``J0`` is stored sorted and de-duplicated; ``None``
    means every category.
    """

    kind: str
    J0: tuple[int, ...]
    p: int
    mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_kind(self.kind)
        j0 = _categories_of_interest(self.J0, self.p)
        mask = np.zeros((self.p, self.p), dtype=bool)
        if self.kind != "upper":
            mask[:, j0] = True
        if self.kind != "lower":
            mask[j0, :] = True
        np.fill_diagonal(mask, False)
        mask.flags.writeable = False
        object.__setattr__(self, "J0", j0)
        object.__setattr__(self, "mask", mask)

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The family's pairs ``(a, b)`` in row-major order.

        Builds and keeps up to ``p(p - 1)`` tuples (106 MiB at p = 1000);
        the library reads ``mask`` and never calls this.
        """
        rows, cols = np.nonzero(self.mask)
        return tuple(zip(rows.tolist(), cols.tolist()))

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))


def _categories_of_interest(J0: Iterable[int] | None, p: int) -> tuple[int, ...]:
    """Sorted, de-duplicated 0-based categories of interest.

    ``None`` means every category.  Anything else must be a non-empty
    subset of ``range(p)``; a ``ValueError`` is raised otherwise.
    """
    if J0 is None:
        return tuple(range(p))
    j0 = tuple(sorted({_whole_number(j, "a J0 entry") for j in J0}))
    if not j0:
        raise ValueError("J0 must be non-empty")
    if j0[0] < 0 or j0[-1] >= p:
        raise ValueError(f"J0={j0} out of range for p={p}")
    return j0


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def _is_marginal(scope: str) -> bool:
    """Whether ``scope`` is marginal; a ``ValueError`` unless in ``SCOPES``."""
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    return scope == "marginal"


def _target_pairs(
    family: IndexFamily, scope: str
) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays ``(jj, kk)``, shape ``(T, m)``, of each threshold's pairs.

    Row ``t`` holds the pairs ``(jj[t, i], kk[t, i])`` of ``family``
    held to threshold ``t``.  Simultaneous scope has one threshold for
    the whole family (``T = 1``, its pairs in row-major order).  Marginal
    scope has one per target ``j`` in ``family.J0``, whose row is ``j``'s
    own family ``J0 = {j}``: row ``j`` of the mask (``j`` above each
    other category) unless the kind is ``lower``, then column ``j``
    (each other category above ``j``) unless it is ``upper``.  ``m`` is
    :func:`_row_length`.  Raises ``ValueError`` for a scope not in
    ``SCOPES``.
    """
    if not _is_marginal(scope):
        jj, kk = np.nonzero(family.mask)
        return jj[None, :], kk[None, :]
    j = np.asarray(family.J0)[:, None]
    k = np.arange(family.p - 1)[None, :]
    k = k + (k >= j)  # the categories other than j, ascending
    j = np.repeat(j, k.shape[1], axis=1)
    if family.kind == "upper":
        return j, k
    if family.kind == "lower":
        return k, j
    return np.hstack([j, k]), np.hstack([k, j])


def _row_length(family: IndexFamily, scope: str) -> int:
    """``m``, the pairs in each row of :func:`_target_pairs`, without them.

    The family size in simultaneous scope; in marginal scope ``p - 1``
    one-sided and ``2(p - 1)`` two-sided.
    """
    if not _is_marginal(scope):
        return len(family)
    return (2 if family.kind == "two_sided" else 1) * (family.p - 1)


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie strictly between 0 and 1")


def build_index_family(
    kind: str, J0: Iterable[int] | None, p: int
) -> IndexFamily:
    """Mask of the comparison pairs for a given sidedness and targets.

    Parameters
    ----------
    kind : {'lower', 'upper', 'two_sided'}
        Which rank bounds the resulting tests are allowed to tighten.
    J0 : iterable of int or None
        0-based categories of interest; non-empty subset of
        ``range(p)``, or ``None`` for all categories.
    p : int
        Total number of categories.

    Returns
    -------
    IndexFamily
        ``lower`` marks ``{(j, k) : j in J, k in J0, j != k}``,
        ``upper`` marks ``{(j, k) : j in J0, k in J, j != k}``, and
        ``two_sided`` their union.  Families are immutable and shared:
        the same arguments return the same (cached) instance.
    """
    # J0 is checked before the cache, whose key would take (True,) for (1,).
    j0 = None if J0 is None else _categories_of_interest(J0, p)
    return _index_family(kind, j0, p)


# A family holds its p x p mask (1 MB at p = 1000); the library never fills pairs.
_index_family = lru_cache(maxsize=32)(IndexFamily)


# eq=False: == on numpy fields would be elementwise.
@dataclass(frozen=True, eq=False)
class PairwiseRejections:
    """Directional claims of a pairwise procedure inside its index family.

    ``claims[a, b]`` (``p x p`` bool) is the claim ``theta_a >
    theta_b`` and must lie inside ``family.mask``, which also rules out
    self-claims.  The family fixes everything else: unless its kind is
    ``upper`` a claim raises ``b``'s lower rank bound, and unless it is
    ``lower`` it lowers ``a``'s upper rank bound; the bounds of the
    categories of interest ``family.J0`` are column and row sums.  A
    ``lower`` family only raises lower bounds (upper bounds stay at
    ``p``, which is what makes best-tau projections valid) and an
    ``upper`` family only lowers upper bounds.

    With one threshold per target (marginal scope) a pair can be
    claimed at one end's threshold and not at the other's.  ``claims``
    then holds each row's claims at the row category's threshold and
    ``column_claims`` each column's claims at the column category's
    threshold; lower bounds count ``column_claims``.  It defaults to
    ``claims``.

    Both matrices may carry the same leading axes, ``(..., p, p)``, one
    claim matrix per stacked table; each check below runs over all of
    them at once.

    Raises ``ValueError`` for a matrix of the wrong shape or with a
    claim outside the family, and ``InvalidTestFamilyError`` when a
    two-sided family claims a target both above and below another
    category.
    """

    family: IndexFamily
    claims: np.ndarray
    column_claims: np.ndarray | None = None

    def __post_init__(self) -> None:
        mask = self.family.mask
        claims = np.asarray(self.claims, dtype=bool)
        columns = claims if self.column_claims is None else np.asarray(
            self.column_claims, dtype=bool
        )
        for matrix in (claims,) if columns is claims else (claims, columns):
            if matrix.shape[-2:] != mask.shape or matrix.shape != claims.shape:
                raise ValueError(
                    f"claims must have shape {claims.shape[:-2] + mask.shape}, "
                    f"got {matrix.shape}"
                )
            # np.count_nonzero is several times cheaper than .any() on
            # the small matrices of the paper's tables.
            outside = matrix & ~mask
            if np.count_nonzero(outside):
                a, b = np.argwhere(outside)[0, -2:].tolist()
                raise ValueError(f"pair ({a}, {b}) is not in the family")
        if self.family.kind == "two_sided":
            # Category j's own family crosses when j is claimed above k
            # at j's threshold and k above j at j's threshold.
            crossed = claims & columns.swapaxes(-1, -2)
            J0 = list(self.family.J0)
            if np.count_nonzero(crossed) and np.count_nonzero(crossed[..., J0, :]):
                crossed = crossed[..., J0, :]
                *table, t = np.argwhere(crossed.any(axis=-1))[0].tolist()
                raise InvalidTestFamilyError(
                    f"category {J0[t]} claimed both smaller and larger "
                    f"than {np.flatnonzero(crossed[(*table, t)]).tolist()}"
                )
        object.__setattr__(self, "claims", claims)
        object.__setattr__(self, "column_claims", columns)

    @classmethod
    def from_claims(
        cls,
        family: IndexFamily,
        claims: np.ndarray,
        column_claims: np.ndarray | None = None,
    ) -> "PairwiseRejections":
        """Claims of ``family``, validated on construction.

        Every procedure builds its rejections through this constructor
        (directly or through :meth:`at_threshold`).
        """
        return cls(family, claims, column_claims)

    @classmethod
    def at_threshold(
        cls, family: IndexFamily, claimed, threshold
    ) -> "PairwiseRejections":
        """Claims of a statistic inside the family at its threshold(s).

        ``claimed`` maps a threshold, broadcast against the ``(..., p,
        p)`` statistic, to the bool matrices of claims it makes.
        ``threshold`` is a scalar shared by every pair, or ``(..., T)``
        with one entry per row of :func:`_target_pairs` for each stacked
        table.  ``T = 1`` holds every pair to it (simultaneous scope, or
        marginal scope with one target).  One threshold per category of
        ``family.J0`` (marginal scope) claims row ``a`` at ``a``'s
        threshold and column ``b`` at ``b``'s.  The rows and columns of
        categories outside ``J0`` are never read; their threshold is
        NaN, which compares false, so they hold no claims.
        """
        t = np.asarray(threshold)
        if t.ndim == 0 or t.shape[-1] == 1:
            return cls.from_claims(family, family.mask & claimed(t[..., None]))
        per_category = np.full(t.shape[:-1] + (family.p,), np.nan)
        per_category[..., list(family.J0)] = t
        return cls.from_claims(
            family,
            family.mask & claimed(per_category[..., :, None]),
            family.mask & claimed(per_category[..., None, :]),
        )


def _claim_bounds(rej: PairwiseRejections) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)``, shape ``(..., |J0|)``: the two sums, checked.

    Raises ``InvalidTestFamilyError`` if some ``lo_j > hi_j``, which a
    sound level-alpha family cannot produce.
    """
    family = rej.family
    return _checked_bounds(*_claim_sums(rej), family.p, family.J0)


def _claim_sums(rej: PairwiseRejections) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)``, shape ``(..., |J0|)``: the two sums, unchecked.

    ``lo_j = 1 + K[..., :, j].sum()`` (``1`` for an ``upper`` family)
    and ``hi_j = p - C[..., j, :].sum()`` (``p`` for a ``lower``
    family), where ``C`` is ``rej.claims`` and ``K`` is
    ``rej.column_claims``, for each ``j`` in ``J0`` of each stacked
    table.
    """
    family = rej.family
    p, J0 = family.p, family.J0
    # J0 is sorted, so J0 of length p indexes every category in order.
    targets = slice(None) if len(J0) == p else list(J0)
    lo = np.ones(rej.claims.shape[:-2] + (len(J0),), dtype=np.int64)
    hi = np.full(lo.shape, p)
    if family.kind != "upper":
        lo += rej.column_claims.sum(axis=-2)[..., targets]
    if family.kind != "lower":
        hi -= rej.claims.sum(axis=-1)[..., targets]
    return lo, hi


def _checked_bounds(
    lo: np.ndarray, hi: np.ndarray, p: int, J0: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` of stacked tables, once every ``1 <= lo <= hi <= p`` holds.

    Column ``t`` belongs to category ``J0[t]``; the first interval that
    is not a sub-interval of ``[1, p]`` raises the error
    :class:`RankSet` raises for it.
    """
    bad = (lo < 1) | (lo > hi) | (hi > p)
    if np.count_nonzero(bad):
        *table, t = np.argwhere(bad)[0].tolist()
        where = (*table, t)
        raise InvalidTestFamilyError(
            f"category {J0[t]}: interval [{lo[where]}, {hi[where]}] is not a "
            f"valid sub-interval of [1, {p}]"
        )
    return lo, hi


@dataclass(frozen=True)
class RankSet:
    """Per-category integer rank intervals plus reporting metadata.

    ``lo[j]`` and ``hi[j]`` bound the rank of category ``j`` for every
    ``j`` in ``J0``; both endpoints are inclusive and live in
    ``{1, ..., p}``.
    """

    p: int
    J0: tuple[int, ...]
    lo: Mapping[int, int]
    hi: Mapping[int, int]
    method: str = ""
    alpha: float = float("nan")
    kind: str = "two_sided"

    def __post_init__(self) -> None:
        for j in self.J0:
            lo, hi = self.lo[j], self.hi[j]
            if not (1 <= lo <= hi <= self.p):
                raise InvalidTestFamilyError(
                    f"category {j}: interval [{lo}, {hi}] is not a valid "
                    f"sub-interval of [1, {self.p}]"
                )

    def interval(self, j: int) -> tuple[int, int]:
        """Inclusive rank bounds ``(lo, hi)`` for category ``j``."""
        return self.lo[j], self.hi[j]

    def length(self, j: int) -> int:
        """Interval length ``hi - lo`` (0 for a singleton)."""
        return self.hi[j] - self.lo[j]

    def covers(self, j: int, r_lo: int, r_hi: int) -> bool:
        """Whether ``[r_lo, r_hi]`` is contained in category j's interval."""
        return self.lo[j] <= r_lo and r_hi <= self.hi[j]

    def contains(self, j: int, rank: int) -> bool:
        """Whether a single rank value lies in category j's interval."""
        return self.lo[j] <= rank <= self.hi[j]


def rankset_from_rejections(
    rej: PairwiseRejections,
    *,
    method: str = "",
    alpha: float = float("nan"),
) -> RankSet:
    """Assemble rank intervals from a claim matrix: two sums.

    Parameters
    ----------
    rej : PairwiseRejections
        Claims of a multiple-testing procedure on one table; its family
        gives the number of categories ``p``, the categories of
        interest ``J0`` and the ``kind`` recorded on the returned set.
    method, alpha
        Metadata recorded on the returned set.

    Returns
    -------
    RankSet
        ``lo_j = 1 + K[:, j].sum()`` (``1`` for an ``upper`` family) and
        ``hi_j = p - C[j, :].sum()`` (``p`` for a ``lower`` family) for
        each ``j`` in ``J0``, where ``C`` is ``rej.claims`` and ``K`` is
        ``rej.column_claims``; see :func:`_claim_sums`, which gives
        the same sums for stacked tables.

    Raises
    ------
    InvalidTestFamilyError
        If some ``lo_j > hi_j``, which a sound level-alpha family
        cannot produce; :class:`RankSet` checks the intervals.
    """
    family = rej.family
    lo, hi = _claim_sums(rej)
    return _rank_set(family.p, family.J0, lo, hi, method, alpha, family.kind)


def _rank_set(p, J0, lo, hi, method, alpha, kind) -> RankSet:
    """The :class:`RankSet` of one table's ``(|J0|,)`` bound arrays."""
    return RankSet(
        p=p, J0=J0, lo=dict(zip(J0, lo.tolist())), hi=dict(zip(J0, hi.tolist())),
        method=method, alpha=alpha, kind=kind,
    )
