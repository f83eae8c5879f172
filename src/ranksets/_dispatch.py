"""Name-based dispatch over the rank confidence-set procedures.

Public method names follow the reporting convention (``exactBonf``,
``exactHolm``, ``cp``, ``boot``, ``bootStud``, ``naive``); snake_case
aliases are accepted for API ergonomics.
"""

from __future__ import annotations

from typing import Iterable

from .boot import BootstrapConfig, boot_rank_cs, naive_rank_cs
from .core import SCOPES, MultinomialSample, RankSet, _is_marginal
from .cp import cp_rank_cs
from .exact import exact_rank_cs

__all__ = ["METHOD_NAMES", "SCOPES", "normalize_method", "rank_cs"]

METHOD_NAMES = ("exactBonf", "exactHolm", "cp", "boot", "bootStud", "naive")

_ALIASES = {
    "exactbonf": "exactBonf",
    "exact_bonf": "exactBonf",
    "exactholm": "exactHolm",
    "exact_holm": "exactHolm",
    "cp": "cp",
    "boot": "boot",
    "bootstud": "bootStud",
    "boot_stud": "bootStud",
    "naive": "naive",
}


def normalize_method(name: str) -> str:
    """Map a method name or alias to its canonical reporting name."""
    try:
        return _ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown method {name!r}; expected one of {METHOD_NAMES}"
        ) from None


def rank_cs(
    method: str,
    sample: MultinomialSample,
    J0: Iterable[int] | None = None,
    kind: str = "two_sided",
    alpha: float = 0.05,
    config: BootstrapConfig | None = None,
    scope: str = "simultaneous",
) -> RankSet:
    """Run one named procedure and return its rank confidence set.

    ``scope='simultaneous'`` covers the ranks of all of ``J0`` at once
    with probability ``1 - alpha``.  ``scope='marginal'`` gives every
    target ``j`` in ``J0`` the interval that ``J0 = (j,)`` would give,
    bit for bit, from one call: each target is tested at its own
    threshold over shared pairwise statistics.  ``cp`` and ``naive``
    claims do not depend on ``J0``, so for them the two scopes agree.

    ``config``, the resampling stream of ``boot``, ``bootStud`` and
    ``naive``, is passed through unchanged; the name alone picks the
    bootstrap statistic (``bootStud`` studentized, ``boot`` not).
    """
    canonical = normalize_method(method)
    _is_marginal(scope)  # cp and naive take no scope but must reject a bad one
    if canonical == "exactBonf":
        return exact_rank_cs(sample, J0, kind, alpha, "bonferroni", scope)
    if canonical == "exactHolm":
        return exact_rank_cs(sample, J0, kind, alpha, "holm", scope)
    if canonical == "cp":
        return cp_rank_cs(sample, J0, kind, alpha)
    if canonical in ("boot", "bootStud"):
        return boot_rank_cs(sample, J0, kind, alpha, config, scope,
                            studentize=canonical == "bootStud")
    # naive
    if kind != "two_sided":
        raise ValueError("the naive bootstrap only supports two-sided sets")
    return naive_rank_cs(sample, J0, alpha, config)
