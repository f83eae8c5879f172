"""Domain types and rank arithmetic for multinomial rank inference.

A category's rank is one plus the number of categories with strictly
larger success probability, so tied categories share the best rank of
their tie group.  Because ties make the rank ambiguous, each category
also carries the interval of admissible ranks ``[r_lo, r_hi]`` where
``r_hi`` is the worst rank consistent with the ties.

Confidence sets for ranks are integer intervals assembled from
directional rejections of pairwise comparisons: every category claimed
to beat ``j`` pushes ``j``'s lower rank bound up by one, and every
category ``j`` is claimed to beat pulls ``j``'s upper rank bound down
by one.  The assembly is test-agnostic; any family of pairwise tests
with familywise error control at level ``alpha`` yields a confidence
set with simultaneous coverage ``1 - alpha`` over the categories of
interest.

Category indices are 0-based throughout the API; rank values are
1-based integers in ``{1, ..., p}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "KINDS",
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

#: Tolerance on sum-to-one checks for probability vectors.
_SIMPLEX_TOL = 1e-12


class InvalidTestFamilyError(ValueError):
    """Raised when pairwise rejections are mutually inconsistent.

    A level-alpha family with alpha < 1/2 can never reject both
    directions of the same pair, so a crossing interval (lo > hi)
    indicates a broken test family rather than bad data.
    """


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
        Non-negative category counts ``X_1, ..., X_p``.
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
        counts = tuple(int(c) for c in self.counts)
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
        n = total if self.n is None else int(self.n)
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

    ``kind`` selects which rank bounds the family can move: ``lower``
    compares everything against the categories of interest (raising
    lower bounds), ``upper`` compares the categories of interest
    against everything (lowering upper bounds), and ``two_sided`` is
    the union of the two.
    """

    kind: str
    J0: tuple[int, ...]
    p: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if any(j == k for j, k in self.pairs):
            raise ValueError("self-pairs are not allowed")
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError("duplicate pairs are not allowed")

    def __len__(self) -> int:
        return len(self.pairs)


def _categories_of_interest(J0: Iterable[int] | None, p: int) -> tuple[int, ...]:
    """Sorted, de-duplicated 0-based categories of interest.

    ``None`` means every category.  Anything else must be a non-empty
    subset of ``range(p)``; a ``ValueError`` is raised otherwise.
    """
    if J0 is None:
        return tuple(range(p))
    j0 = tuple(sorted({int(j) for j in J0}))
    if not j0:
        raise ValueError("J0 must be non-empty")
    if j0[0] < 0 or j0[-1] >= p:
        raise ValueError(f"J0={j0} out of range for p={p}")
    return j0


def build_index_family(
    kind: str, J0: Iterable[int] | None, p: int
) -> IndexFamily:
    """Enumerate the comparison pairs for a given sidedness and targets.

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
        ``lower`` yields ``{(j, k) : j in J, k in J0, j != k}``,
        ``upper`` yields ``{(j, k) : j in J0, k in J, j != k}``, and
        ``two_sided`` their union; pairs are sorted for determinism.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    j0 = _categories_of_interest(J0, p)
    pairs: set[tuple[int, int]] = set()
    if kind in ("lower", "two_sided"):
        pairs.update((j, k) for k in j0 for j in range(p) if j != k)
    if kind in ("upper", "two_sided"):
        pairs.update((j, k) for j in j0 for k in range(p) if j != k)
    return IndexFamily(kind=kind, J0=j0, p=p, pairs=tuple(sorted(pairs)))


@dataclass(frozen=True)
class PairwiseRejections:
    """Directional rejections of pairwise comparisons.

    For each category of interest ``j``, ``rej_minus[j]`` holds the
    categories claimed to have strictly larger probability than ``j``
    and ``rej_plus[j]`` those claimed strictly smaller.
    """

    J0: tuple[int, ...]
    rej_minus: Mapping[int, frozenset[int]]
    rej_plus: Mapping[int, frozenset[int]]

    def __post_init__(self) -> None:
        for j in self.J0:
            minus = self.rej_minus.get(j, frozenset())
            plus = self.rej_plus.get(j, frozenset())
            if j in minus or j in plus:
                raise ValueError(f"category {j} rejected against itself")
            if minus & plus:
                raise InvalidTestFamilyError(
                    f"category {j} claimed both smaller and larger than "
                    f"{sorted(minus & plus)}"
                )

    @classmethod
    def from_claims(
        cls,
        family: IndexFamily,
        rejected: Iterable[tuple[int, int]],
    ) -> "PairwiseRejections":
        """Route rejected pairs into directional sets.

        Each rejected pair ``(a, b)`` is the claim ``theta_a >
        theta_b``.  The claim lowers ``a``'s upper rank bound when
        ``a`` is a category of interest, and raises ``b``'s lower rank
        bound when ``b`` is.  The family's kind gates the directions: a
        ``lower`` family only raises lower bounds (upper bounds stay at
        ``p``, which is what makes best-tau projections valid) and an
        ``upper`` family only lowers upper bounds, even when a claim
        could speak to both sides.
        """
        minus: dict[int, set[int]] = {j: set() for j in family.J0}
        plus: dict[int, set[int]] = {j: set() for j in family.J0}
        pair_set = set(family.pairs)
        use_minus = family.kind in ("lower", "two_sided")
        use_plus = family.kind in ("upper", "two_sided")
        for a, b in rejected:
            if (a, b) not in pair_set:
                raise ValueError(f"pair ({a}, {b}) is not in the family")
            if use_plus and a in plus:
                plus[a].add(b)
            if use_minus and b in minus:
                minus[b].add(a)
        return cls(
            J0=family.J0,
            rej_minus={j: frozenset(v) for j, v in minus.items()},
            rej_plus={j: frozenset(v) for j, v in plus.items()},
        )


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
    p: int,
    *,
    method: str = "",
    alpha: float = float("nan"),
    kind: str = "two_sided",
) -> RankSet:
    """Assemble rank intervals from directional rejections.

    Parameters
    ----------
    rej : PairwiseRejections
        Directional claims produced by a multiple-testing procedure.
    p : int
        Total number of categories.
    method, alpha, kind
        Metadata recorded on the returned set.

    Returns
    -------
    RankSet
        ``lo_j = |rej_minus[j]| + 1`` and ``hi_j = p - |rej_plus[j]|``
        for each category of interest ``rej.J0``.

    Raises
    ------
    InvalidTestFamilyError
        If some ``lo_j > hi_j``, which a sound level-alpha family
        cannot produce.
    """
    lo = {j: len(rej.rej_minus.get(j, frozenset())) + 1 for j in rej.J0}
    hi = {j: p - len(rej.rej_plus.get(j, frozenset())) for j in rej.J0}
    return RankSet(
        p=p, J0=rej.J0, lo=lo, hi=hi, method=method, alpha=alpha, kind=kind
    )
