"""Name-based dispatch over the rank confidence-set procedures.

Public method names follow the reporting convention (``exactBonf``,
``exactHolm``, ``cp``, ``boot``, ``bootStud``, ``naive``); snake_case
aliases are accepted for API ergonomics.

This module alone says what each method is and which requests it
accepts.  ``_CORRECTIONS`` gives the familywise correction of each
exact method and ``_STUDENTIZE`` whether each band bootstrap
studentizes.  :func:`_checked_request` is the one check of a request:
it normalizes the names, validates the scope, kind and alpha, and
refuses ``naive`` with a one-sided kind.  :func:`rank_cs` (one table),
:func:`_rank_bounds` (a stack of tables), the tau projections,
``sim.SimDesign`` and the command line all run it.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .boot import (
    BootstrapConfig,
    _band_critical_values,
    _band_rejections,
    _naive_bounds,
    _resampled,
    boot_rank_cs,
    naive_rank_cs,
)
from .core import (
    SCOPES,
    MultinomialSample,
    RankSet,
    _check_alpha,
    _check_kind,
    _checked_bounds,
    _claim_bounds,
    _is_marginal,
    build_index_family,
)
from .cp import _box_bounds, _box_rejections, cp_rank_cs
from .exact import PairwisePValueTable, _corrected, _pvalue_stack, exact_rank_cs

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


#: Familywise correction of each exact method, one of ``exact.CORRECTIONS``.
_CORRECTIONS = {"exactBonf": "bonferroni", "exactHolm": "holm"}

#: Whether each band bootstrap method studentizes its max statistic.
_STUDENTIZE = {"boot": False, "bootStud": True}


def _checked_request(
    methods: Sequence[str], kind: str, alpha: float, scope: str = "simultaneous"
) -> tuple[str, ...]:
    """Canonical names of ``methods``, once all of them accept the request.

    Raises ``ValueError`` for an unknown name, a scope not in ``SCOPES``,
    a kind not in ``KINDS``, an alpha outside ``(0, 1)``, or ``naive``
    with a one-sided kind.
    """
    canonical = tuple(normalize_method(m) for m in methods)
    _is_marginal(scope)
    _check_kind(kind)
    _check_alpha(alpha)
    if "naive" in canonical and kind != "two_sided":
        raise ValueError("the naive bootstrap only supports two-sided sets")
    return canonical


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
    (canonical,) = _checked_request((method,), kind, alpha, scope)
    if canonical in _CORRECTIONS:
        return exact_rank_cs(sample, J0, kind, alpha, _CORRECTIONS[canonical], scope)
    if canonical == "cp":
        return cp_rank_cs(sample, J0, kind, alpha)
    if canonical in _STUDENTIZE:
        return boot_rank_cs(sample, J0, kind, alpha, config, scope,
                            studentize=_STUDENTIZE[canonical])
    return naive_rank_cs(sample, J0, alpha, config)


def _rank_bounds(
    methods: Sequence[str],
    x: np.ndarray,
    n: int,
    J0: Iterable[int] | None,
    kind: str,
    alpha: float,
    B: int,
    seeds: Sequence[int],
    scope: str = "simultaneous",
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Rank bounds of ``R`` stacked count tables under each method.

    ``x`` holds the tables as ``(R, p)`` counts, each of total ``n``, and
    ``seeds`` their ``R`` bootstrap seeds, each read with ``B``
    resamples as ``BootstrapConfig(B, seed)``.  Returns ``{method: (lo,
    hi)}`` with ``(R, |J0|)`` integer bounds whose row ``r`` is what
    :func:`rank_cs` gives table ``r``, bit for bit, columns in sorted
    ``J0`` order.

    The stack is scored as handed, in one pass; the caller sizes it
    (:mod:`ranksets.sim` hands one chunk at a time).  The exact methods
    share one stacked p-value table, ``cp`` evaluates one stacked box,
    and each table's resamples are drawn once and calibrated for every
    bootstrap method in turn; the claims and bounds of each method are
    then computed once for the whole stack.
    """
    methods = _checked_request(methods, kind, alpha, scope)
    family = build_index_family(kind, J0, x.shape[1])
    out = {}
    exact = [m for m in methods if m in _CORRECTIONS]
    if exact:
        table = PairwisePValueTable(family, _pvalue_stack(x, family))
        for m in exact:
            out[m] = _claim_bounds(_corrected(table, alpha, _CORRECTIONS[m], scope))
    if "cp" in methods:
        lo, hi = _box_bounds(x, n, float(alpha))
        out["cp"] = _claim_bounds(_box_rejections(family, lo, hi))
    resampled = [m for m in methods if m in _STUDENTIZE or m == "naive"]
    statistics = [
        partial(_naive_bounds, j0=family.J0, alpha=alpha) if m == "naive"
        else partial(_band_critical_values, n=n, family=family, scope=scope,
                     studentize=_STUDENTIZE[m], alpha=alpha)
        for m in resampled
    ]
    values = _resampled(x, n, B, seeds, statistics) if resampled else []
    for m, v in zip(resampled, values):
        if m == "naive":
            out[m] = _checked_bounds(v[:, 0], v[:, 1], family.p, family.J0)
        else:
            rej = _band_rejections(family, x / n, v, n, scope, _STUDENTIZE[m])
            out[m] = _claim_bounds(rej)
    return out
