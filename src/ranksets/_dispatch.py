"""Name-based dispatch over the rank confidence-set procedures.

Public method names follow the reporting convention (``exactBonf``,
``exactHolm``, ``cp``, ``boot``, ``bootStud``, ``naive``); snake_case
aliases are accepted for API ergonomics.

This module alone says what each method is and which requests it
accepts.  ``_CORRECTIONS`` gives the familywise correction of each
exact method and ``_STUDENTIZE`` whether each band bootstrap
studentizes.  :func:`_checked_request` is the one check of a request:
it normalizes the names, validates the scope, kind and alpha, and
refuses ``naive`` with a one-sided kind.  :func:`_rank_bounds`, the
tau projections, ``sim.SimDesign`` and the command line all run it.

:func:`_rank_bounds` is the one scoring path: it turns a stack of count
tables into pairwise claims and rank bounds for several methods at
once.  :func:`rank_cs` is its stack of one, the per-method functions
(``exact_rank_cs`` and the others) are names for :func:`rank_cs`, the
command line scores every method of a group in one call, and
:mod:`ranksets.sim` one chunk of replications per call.
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
)
from .core import (
    SCOPES,
    MultinomialSample,
    RankSet,
    _categories_of_interest,
    _check_alpha,
    _check_kind,
    _checked_bounds,
    _claim_bounds,
    _is_marginal,
    _rank_set,
    build_index_family,
)
from .cp import _box_bounds, _box_rejections
from .exact import PairwisePValueTable, _corrected, _pvalue_stack, _pvalue_table

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
    ``naive`` (``BootstrapConfig()`` by default), is read as its ``B``
    and ``seed``; the name alone picks the bootstrap statistic
    (``bootStud`` studentized, ``boot`` not).  The set is
    :func:`_rank_bounds` on a stack of this one table.
    """
    if config is None:
        config = BootstrapConfig()
    # Read J0 once: it may be an iterator.
    J0 = None if J0 is None else tuple(J0)
    bounds = _rank_bounds((method,), np.array(sample.counts)[None], sample.n, J0,
                          kind, alpha, config.B, (config.seed,), scope)
    ((canonical, (lo, hi)),) = bounds.items()
    j0 = _categories_of_interest(J0, sample.p)
    return _rank_set(sample.p, j0, lo[0], hi[0], canonical, alpha, kind)


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
    (:mod:`ranksets.sim` hands one chunk at a time, :func:`rank_cs` and
    the command line one table).  The exact methods share one stacked
    p-value table, ``cp`` evaluates one stacked box, and each table's
    resamples are drawn once: ``boot`` and ``bootStud`` are calibrated
    together, from one walk of each table's pairs that computes both
    statistics, and ``naive`` ranks the same draw.  The claims and
    bounds of each method are then computed once for the whole stack.
    Separate calls on one table share work through caches: a stack of
    one reads its p-value table from ``exact._pvalue_table``, and every
    table its resamples from ``boot._theta_star_cached``.
    """
    methods = _checked_request(methods, kind, alpha, scope)
    family = build_index_family(kind, J0, x.shape[1])
    out = {}
    exact = [m for m in methods if m in _CORRECTIONS]
    if exact:
        pvalues = (_pvalue_table(tuple(x[0].tolist()), family).pvalues[None]
                   if len(x) == 1 else _pvalue_stack(x, family))
        table = PairwisePValueTable(family, pvalues)
        for m in exact:
            out[m] = _claim_bounds(_corrected(table, alpha, _CORRECTIONS[m], scope))
    if "cp" in methods:
        lo, hi = _box_bounds(x, n, float(alpha))
        out["cp"] = _claim_bounds(_box_rejections(family, lo, hi))
    band = [m for m in dict.fromkeys(methods) if m in _STUDENTIZE]
    statistics = []
    if band:
        statistics.append(partial(
            _band_critical_values, n=n, family=family, scope=scope,
            studentize=tuple(_STUDENTIZE[m] for m in band), alpha=alpha,
        ))
    if "naive" in methods:
        statistics.append(partial(_naive_bounds, j0=family.J0, alpha=alpha))
    values = _resampled(x, n, B, seeds, statistics) if statistics else []
    for m in methods:
        if m in _STUDENTIZE:
            crit = values[0][:, band.index(m)]
            rej = _band_rejections(family, x / n, crit, n, scope, _STUDENTIZE[m])
            out[m] = _claim_bounds(rej)
        elif m == "naive":
            v = values[-1]
            out[m] = _checked_bounds(v[:, 0], v[:, 1], family.p, family.J0)
    return out
