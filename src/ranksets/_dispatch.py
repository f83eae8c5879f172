"""Name-based dispatch over the rank confidence-set procedures.

Public method names follow the reporting convention (``exactBonf``,
``exactHolm``, ``cp``, ``boot``, ``bootStud``, ``naive``); snake_case
aliases are accepted for API ergonomics.
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
    _checked_bounds,
    _chunk_rows,
    _claim_bounds,
    _is_marginal,
    build_index_family,
)
from .cp import _box_bounds, _box_rejections, cp_rank_cs
from .exact import (
    PairwisePValueTable,
    _pvalue_stack,
    bonferroni_reject,
    exact_rank_cs,
    holm_reject,
)

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


_CORRECTIONS = {"exactBonf": bonferroni_reject, "exactHolm": holm_reject}


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

    Tables go in chunks of :func:`~ranksets.core._chunk_rows`.  In a
    chunk the exact methods share one stacked p-value table, ``cp``
    evaluates one stacked box, and each table's resamples are drawn once
    and calibrated for every bootstrap method in turn; the claims and
    bounds of each method are then computed once for the whole chunk.
    """
    methods = [normalize_method(m) for m in methods]
    _check_alpha(alpha)
    _is_marginal(scope)
    if "naive" in methods and kind != "two_sided":
        raise ValueError("the naive bootstrap only supports two-sided sets")
    family = build_index_family(kind, J0, x.shape[1])
    step = _chunk_rows(family.p)
    chunks = [
        _chunk_bounds(methods, x[start:start + step], n, family, alpha, B,
                      seeds[start:start + step], scope)
        for start in range(0, len(x), step)
    ]
    if len(chunks) == 1:
        return chunks[0]
    return {
        m: tuple(np.concatenate([c[m][i] for c in chunks]) for i in (0, 1))
        for m in methods
    }


def _chunk_bounds(methods, x, n, family, alpha, B, seeds, scope):
    """:func:`_rank_bounds` of one chunk of stacked tables."""
    out = {}
    exact = [m for m in methods if m in _CORRECTIONS]
    if exact:
        table = PairwisePValueTable(family, _pvalue_stack(x, family))
        for m in exact:
            out[m] = _claim_bounds(_CORRECTIONS[m](table, alpha, scope))
    if "cp" in methods:
        lo, hi = _box_bounds(x, n, float(alpha))
        out["cp"] = _claim_bounds(_box_rejections(family, lo, hi))
    resampled = [m for m in methods if m in ("boot", "bootStud", "naive")]
    statistics = [
        partial(_naive_bounds, j0=family.J0, alpha=alpha) if m == "naive"
        else partial(_band_critical_values, n=n, family=family, scope=scope,
                     studentize=m == "bootStud", alpha=alpha)
        for m in resampled
    ]
    values = _resampled(x, n, B, seeds, statistics) if resampled else []
    for m, v in zip(resampled, values):
        if m == "naive":
            out[m] = _checked_bounds(v[:, 0], v[:, 1], family.p, family.J0)
        else:
            rej = _band_rejections(family, x / n, v, n, scope, m == "bootStud")
            out[m] = _claim_bounds(rej)
    return out
