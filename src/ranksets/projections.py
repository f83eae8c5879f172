"""Confidence sets for the identities of the best or worst categories.

A simultaneous one-sided rank confidence set projects onto a set of
category identities: if the lower rank bounds are jointly valid, every
category whose true rank is at most ``tau`` appears among those whose
interval still contains ``tau``.  The projection reuses the rank-set
object as-is, so reported rank intervals and membership claims can
never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._dispatch import normalize_method, rank_cs
from .boot import BootstrapConfig
from .core import MultinomialSample, RankSet, _whole_number

__all__ = ["TauBestSet", "tau_best", "tau_worst"]

_PROJECTION_METHODS = ("exactBonf", "exactHolm", "cp", "boot", "bootStud")


@dataclass(frozen=True)
class TauBestSet:
    """Categories whose rank is credibly within the first (last) tau.

    ``members`` lists the 0-based categories that cannot be excluded
    from the top ``tau`` ranks (``direction='best'``) or the bottom
    ``tau`` ranks (``direction='worst'``) at the set's confidence
    level.
    """

    tau: int
    direction: str
    members: frozenset[int]
    method: str
    alpha: float
    rank_set: RankSet

    def __post_init__(self) -> None:
        if self.direction not in ("best", "worst"):
            raise ValueError(
                f"direction must be 'best' or 'worst', got {self.direction!r}"
            )

    def __contains__(self, j: int) -> bool:
        return j in self.members

    def __len__(self) -> int:
        return len(self.members)


def _project(
    sample: MultinomialSample,
    tau: int,
    alpha: float,
    method: str,
    config: BootstrapConfig | None,
    direction: str,
) -> TauBestSet:
    """``{j : rank in j's interval}`` of the simultaneous one-sided rank set.

    ``direction`` ``'best'`` reads the lower bounds at rank ``tau``,
    ``'worst'`` the upper bounds at rank ``p - tau + 1``.
    """
    canonical = normalize_method(method)
    if canonical not in _PROJECTION_METHODS:
        raise ValueError(
            f"method must be one of {_PROJECTION_METHODS}, got {method!r}"
        )
    tau = _whole_number(tau, "tau")
    if not (1 <= tau <= sample.p):
        raise ValueError(f"tau={tau} outside [1, {sample.p}]")
    best = direction == "best"
    kind, rank = ("lower", tau) if best else ("upper", sample.p - tau + 1)
    rs = rank_cs(canonical, sample, J0=None, kind=kind, alpha=alpha, config=config)
    members = frozenset(j for j in rs.J0 if rs.contains(j, rank))
    return TauBestSet(
        tau=tau, direction=direction, members=members,
        method=canonical, alpha=alpha, rank_set=rs,
    )


def tau_best(
    sample: MultinomialSample,
    tau: int,
    alpha: float = 0.05,
    method: str = "exactHolm",
    config: BootstrapConfig | None = None,
) -> TauBestSet:
    """Confidence set for the categories ranked among the top ``tau``.

    Parameters
    ----------
    sample : MultinomialSample
        Observed counts.
    tau : int
        Rank threshold in ``[1, p]``.
    alpha : float
        One minus the coverage level.
    method : str
        One of ``exactBonf``, ``exactHolm``, ``cp``, ``boot``,
        ``bootStud`` (the naive bootstrap has no one-sided variant).
    config : BootstrapConfig, optional
        The resampling stream of the bootstrap methods.

    Returns
    -------
    TauBestSet
        Projection of the simultaneous lower-bound rank set over all
        categories: ``{j : lo_j <= tau}``.  With probability at least
        ``1 - alpha`` it contains every category whose true rank is
        ``<= tau``.
    """
    return _project(sample, tau, alpha, method, config, "best")


def tau_worst(
    sample: MultinomialSample,
    tau: int,
    alpha: float = 0.05,
    method: str = "exactHolm",
    config: BootstrapConfig | None = None,
) -> TauBestSet:
    """Confidence set for the categories ranked among the bottom ``tau``.

    Mirror image of :func:`tau_best`: the upper-bound rank set over
    all categories is kept where the interval still contains rank
    ``p - tau + 1``, so the result covers every category whose true
    rank is ``>= p - tau + 1`` with probability at least ``1 - alpha``.
    """
    return _project(sample, tau, alpha, method, config, "worst")
