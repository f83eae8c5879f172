"""Monte Carlo coverage and length studies for the rank procedures.

Three data-generating designs are provided: an election-calibrated
seven-category design interpolating between equal shares and observed
shares, a three-category design with two small tied probabilities that
stresses small-sample behavior, and a uniform design with a growing
number of categories.

Coverage is always coverage of the whole admissible-rank interval
``[r_lo, r_hi]`` — with ties, a confidence set must contain every rank
the tie structure permits, not just one representative.  Every
replication draws one dataset shared by all methods (paired
comparisons), and bootstrap methods within a replication share one
resampling stream; replications get independent substreams spawned
from the master seed, so a report is reproducible from its design.

Replications are scored stacked.  Their counts are drawn in chunks of
:func:`_chunk_rows` replications, sized from ``p`` so that a chunk's
``(R, p, p)`` float arrays stay within a fixed byte budget, and each
method turns a chunk's ``(R, p)`` counts into ``(R, |J0|)`` rank
bounds in one pass through the claim rules that
:func:`~ranksets.rank_cs` applies to one table: one stacked p-value
table for the exact methods, one stacked box for ``cp``, and for the
bootstrap methods each replication's own resamples and calibration
kernel, with only the critical values stacked.  Coverage and length are
counted from the bound arrays; no :class:`~ranksets.RankSet` is built
per replication, and the report is the one that scoring a ``RankSet``
per replication and method would give.

A design is checked once, on construction: its methods, scope and
alpha by the one request check of :func:`~ranksets.rank_cs`, ``B`` as
:class:`~ranksets.BootstrapConfig` checks it, and ``n``, ``reps`` and
``master_seed`` as whole numbers in range.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from ._dispatch import _STUDENTIZE, _checked_request, _rank_bounds, normalize_method
from .boot import (
    BootstrapConfig,
    _band_critical_values,
    _band_rejections,
    _difference_bounds,
    _resampled,
)
from .core import (
    ProbabilityVector,
    _categories_of_interest,
    _check_alpha,
    _claim_bounds,
    _whole_number,
    build_index_family,
    compute_ranks,
)

__all__ = [
    "AES_COUNTS",
    "AES_N",
    "SimDesign",
    "SimCell",
    "SimReport",
    "aes_theta",
    "erratic_theta",
    "uniform_theta",
    "aes_design",
    "erratic_design",
    "uniform_design",
    "run_design",
    "erratic_coverage_curves",
    "large_p_study",
]

#: Greater Melbourne reference counts and sample size the election
#: design is calibrated to; the ratio vector matches the published
#: 3-decimal shares (0.372, 0.321, 0.179, 0.090, 0.026, 0.009, 0.004).
AES_COUNTS = (87, 75, 42, 21, 6, 2, 1)
AES_N = 234

#: Bytes of one ``(chunk, p, p)`` float64 array of stacked replications.
_CHUNK_BYTES = 1 << 22


def _chunk_rows(p: int) -> int:
    """Replications per chunk, so a ``(chunk, p, p)`` float64 array fits
    ``_CHUNK_BYTES`` (one replication when a single one does not)."""
    return max(1, _CHUNK_BYTES // (8 * p * p))


def _positive_whole(value, name: str) -> int:
    """``value`` as an int, or a ``ValueError`` unless it is a whole number >= 1."""
    value = _whole_number(value, name)
    if value < 1:
        raise ValueError(f"{name} must be positive")
    return value


def aes_theta(kappa: float) -> tuple[float, ...]:
    """Election-calibrated probabilities ``(1-kappa)/p + kappa * shares``.

    ``kappa = 0`` gives seven exactly tied categories; ``kappa = 1``
    reproduces the observed share vector; intermediate values
    interpolate.
    """
    if not (0.0 <= kappa <= 1.0):
        raise ValueError("kappa must lie in [0, 1]")
    base = np.asarray(AES_COUNTS, dtype=float) / AES_N
    theta = (1.0 - kappa) * (1.0 / base.size) + kappa * base
    return tuple(float(t) for t in theta)


def erratic_theta(pi: float) -> tuple[float, float, float]:
    """Three categories ``(pi, pi, 1 - 2*pi)`` with a small tied pair."""
    if not (0.0 < pi <= 1.0 / 3.0):
        raise ValueError("pi must lie in (0, 1/3]")
    return (pi, pi, 1.0 - 2.0 * pi)


def uniform_theta(p: int) -> tuple[float, ...]:
    """``p`` exactly tied categories."""
    if p < 2:
        raise ValueError("p must be at least 2")
    return (1.0 / p,) * p


@dataclass(frozen=True)
class SimDesign:
    """One Monte Carlo configuration: a truth, a sample size, methods.

    Parameters
    ----------
    name : str
        Identifier echoed into the report.
    theta : tuple of float
        True success probabilities.
    n : int
        Multinomial sample size per replication.
    methods : tuple of str
        Procedures to run (canonical or snake_case names).
    alpha : float
        One minus the nominal coverage level.
    reps : int
        Monte Carlo replications.
    B : int
        Bootstrap resamples per replication (bootstrap methods only).
    master_seed : int
        Seed from which all replication substreams are spawned.
    scope : {'marginal', 'simultaneous'}
        Marginal gives each tracked category the set of its own family
        (``J0 = {j}``); simultaneous builds a single joint set
        (``J0 = J``) and additionally records joint coverage.
    categories : tuple of int, optional
        0-based categories to track; all of them by default.
    notes : tuple of str
        Free-form remarks recorded into the report (e.g. rounding).
    """

    name: str
    theta: tuple[float, ...]
    n: int
    methods: tuple[str, ...]
    alpha: float = 0.05
    reps: int = 1000
    B: int = 2000
    master_seed: int = 0
    scope: str = "marginal"
    categories: tuple[int, ...] | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        ProbabilityVector(self.theta)  # validates simplex membership
        methods = _checked_request(self.methods, "two_sided", self.alpha, self.scope)
        BootstrapConfig(B=self.B)
        seed = _whole_number(self.master_seed, "master_seed")
        if seed < 0:
            raise ValueError("master_seed must be non-negative")
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "n", _positive_whole(self.n, "n"))
        object.__setattr__(self, "reps", _positive_whole(self.reps, "reps"))
        object.__setattr__(self, "master_seed", seed)
        if self.categories is not None:
            cats = _categories_of_interest(self.categories, len(self.theta))
            object.__setattr__(self, "categories", cats)


def aes_design(
    kappa: float,
    tau_n: float,
    methods: Sequence[str] = ("exactBonf", "exactHolm", "cp", "boot", "bootStud", "naive"),
    categories: Sequence[int] = (0, 3, 6),
    **kwargs,
) -> SimDesign:
    """Election-calibrated design; ``n = round(tau_n * 234)``."""
    if tau_n <= 0:
        raise ValueError("tau_n must be positive")
    exact_n = tau_n * AES_N
    n = round(exact_n)
    notes = ()
    if n != exact_n:
        notes = (f"n rounded from {exact_n} to {n}",)
    return SimDesign(
        name=f"aes(kappa={kappa}, tau_n={tau_n})",
        theta=aes_theta(kappa),
        n=n,
        methods=tuple(methods),
        categories=tuple(categories),
        notes=notes,
        **kwargs,
    )


def erratic_design(
    pi: float,
    n: int,
    methods: Sequence[str] = ("exactBonf", "boot", "bootStud"),
    **kwargs,
) -> SimDesign:
    """Small-probability design tracking the first category."""
    return SimDesign(
        name=f"erratic(pi={pi}, n={n})",
        theta=erratic_theta(pi),
        n=n,
        methods=tuple(methods),
        categories=(0,),
        **kwargs,
    )


def uniform_design(
    p: int,
    n: int,
    methods: Sequence[str] = ("exactHolm", "bootStud", "naive"),
    **kwargs,
) -> SimDesign:
    """All-tied design tracking the first category."""
    return SimDesign(
        name=f"uniform(p={p}, n={n})",
        theta=uniform_theta(p),
        n=n,
        methods=tuple(methods),
        categories=(0,),
        **kwargs,
    )


@dataclass(frozen=True)
class SimCell:
    """Aggregated Monte Carlo results for one (method, category)."""

    method: str
    category: int  # 0-based; -1 denotes the joint (all-categories) row
    coverage: float
    coverage_se: float
    avg_length: float

    @property
    def label(self) -> str:
        return "ALL" if self.category < 0 else f"cat{self.category + 1}"


@dataclass(frozen=True)
class SimReport:
    """Per-(method, category) coverage and length for one design."""

    design: str
    reps: int
    alpha: float
    cells: tuple[SimCell, ...]
    notes: tuple[str, ...] = ()

    def cell(self, method: str, category: int) -> SimCell:
        """Look up one aggregated cell (``category = -1`` for joint)."""
        method = normalize_method(method)
        for c in self.cells:
            if c.method == method and c.category == category:
                return c
        raise KeyError(f"no cell for method={method!r}, category={category}")

    def to_csv(self) -> str:
        """Render the report as CSV."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["design", "method", "category", "coverage", "coverage_se", "avg_length"]
        )
        for c in self.cells:
            writer.writerow(
                [self.design, c.method, c.label,
                 f"{c.coverage:.6f}", f"{c.coverage_se:.6f}", f"{c.avg_length:.6f}"]
            )
        return buf.getvalue()

    def to_json(self) -> str:
        """Render the report as JSON."""
        payload = {
            "design": self.design,
            "reps": self.reps,
            "alpha": self.alpha,
            "notes": list(self.notes),
            "cells": [
                {
                    "method": c.method,
                    "category": c.label,
                    "coverage": c.coverage,
                    "coverage_se": c.coverage_se,
                    "avg_length": c.avg_length,
                }
                for c in self.cells
            ],
        }
        return json.dumps(payload, indent=2)


def _mc_se(freq: float, reps: int) -> float:
    return math.sqrt(freq * (1.0 - freq) / reps)


def _rep_streams(master_seed: int, reps: int):
    """Per-replication (data_rng, bootstrap_seed) pairs.

    Each replication owns an independent substream; the bootstrap seed
    is a deterministic integer, read as ``BootstrapConfig(B, seed)``:
    every method of the replication is calibrated on the one resample
    matrix that :func:`~ranksets._dispatch._rank_bounds` draws from it,
    as ``rank_cs`` does with that config.
    """
    for child in np.random.SeedSequence(master_seed).spawn(reps):
        data_ss, boot_ss = child.spawn(2)
        boot_seed = int(boot_ss.generate_state(1, np.uint64)[0])
        yield np.random.default_rng(data_ss), boot_seed


def _rep_chunks(master_seed: int, reps: int, n: int, theta: np.ndarray):
    """The replications' data as ``(counts, seeds)`` chunks.

    ``counts`` is ``(R, p)``, one multinomial draw per replication from
    its own stream, and ``seeds`` its ``R`` bootstrap seeds; a chunk
    holds :func:`_chunk_rows` replications.
    """
    streams = _rep_streams(master_seed, reps)
    step = _chunk_rows(theta.size)
    for start in range(0, reps, step):
        drawn = [
            (rng.multinomial(n, theta), seed)
            for rng, seed in itertools.islice(streams, step)
        ]
        yield np.array([c for c, _ in drawn]), [seed for _, seed in drawn]


def run_design(design: SimDesign) -> SimReport:
    """Run one Monte Carlo design and aggregate coverage and length.

    Replications are drawn and scored in chunks: every method turns a
    chunk's ``(R, p)`` counts into ``(R, |J0|)`` rank bounds in one pass
    (:func:`~ranksets._dispatch._rank_bounds`), and coverage and length
    are counted from those arrays.

    Returns
    -------
    SimReport
        One cell per (method, tracked category); with
        ``scope='simultaneous'`` an extra joint cell per method
        (category ``-1``) records the frequency with which every
        tracked category was covered at once.  Deterministic given the
        design, including its ``master_seed``.
    """
    theta = np.asarray(design.theta)
    p = theta.size
    cats = _categories_of_interest(design.categories, p)
    # A joint set covers every category, tracked or not.
    targets = cats if design.scope == "marginal" else None
    J0 = _categories_of_interest(targets, p)
    columns = [J0.index(j) for j in cats]
    triples = compute_ranks(theta)
    r_lo = np.array([triples[j].r_lo for j in cats])
    r_hi = np.array([triples[j].r_hi for j in cats])
    # Per (method, tracked category): replications covered, summed
    # lengths; per method: replications covering every tracked category.
    cover = np.zeros((len(design.methods), len(cats)), dtype=np.int64)
    length = np.zeros_like(cover)
    joint = np.zeros(len(design.methods), dtype=np.int64)

    for x, seeds in _rep_chunks(design.master_seed, design.reps, design.n, theta):
        bounds = _rank_bounds(design.methods, x, design.n, targets, "two_sided",
                              design.alpha, design.B, seeds, design.scope)
        # (methods, R, tracked categories)
        lo, hi = (np.stack([bounds[m][i] for m in design.methods])[..., columns]
                  for i in (0, 1))
        covered = (lo <= r_lo) & (r_hi <= hi)
        cover += covered.sum(axis=1)
        length += (hi - lo).sum(axis=1)
        joint += covered.all(axis=2).sum(axis=1)

    cells = []
    for i, m in enumerate(design.methods):
        for t, j in enumerate(cats):
            freq = int(cover[i, t]) / design.reps
            cells.append(SimCell(
                method=m, category=j, coverage=freq,
                coverage_se=_mc_se(freq, design.reps),
                avg_length=int(length[i, t]) / design.reps,
            ))
        if design.scope == "simultaneous":
            freq = int(joint[i]) / design.reps
            cells.append(SimCell(
                method=m, category=-1, coverage=freq,
                coverage_se=_mc_se(freq, design.reps),
                avg_length=float("nan"),
            ))
    return SimReport(
        design=design.name, reps=design.reps, alpha=design.alpha,
        cells=tuple(cells), notes=design.notes,
    )


def erratic_coverage_curves(
    pi_grid: Sequence[float],
    n_grid: Sequence[int],
    alpha: float = 0.05,
    reps: int = 1000,
    B: int = 1000,
    master_seed: int = 0,
) -> list[dict]:
    """Difference-set and rank-set coverage on the small-probability design.

    For each ``(pi, n)`` the symmetric-shape bootstrap confidence set
    for all differences involving the first category (its two-sided
    pair family) is evaluated for simultaneous coverage of the true
    differences, with and without studentization; alongside it, the
    marginal rank sets for the first category from both bootstrap
    variants and the Bonferroni-corrected exact procedure are scored
    for coverage of the admissible-rank interval.  Replications are
    scored in chunks, from stacked arrays, as in :func:`run_design`.

    Returns
    -------
    list of dict
        Rows with keys ``pi``, ``n``, ``diff_cov_stud``,
        ``diff_cov_nonstud``, ``rank_cov_bootStud``, ``rank_cov_boot``,
        ``rank_cov_exactBonf``.
    """
    _check_alpha(alpha)
    reps = _positive_whole(reps, "reps")
    BootstrapConfig(B=B)
    rows = []
    for pi in pi_grid:
        theta = np.asarray(erratic_theta(pi))
        triples = compute_ranks(theta)
        family = build_index_family("two_sided", (0,), theta.size)
        jj, kk = np.nonzero(family.mask)
        delta = theta[jj] - theta[kk]
        for n in n_grid:
            n = int(n)
            diff_cov = dict.fromkeys(_STUDENTIZE.values(), 0)
            rank_cov = dict.fromkeys([*_STUDENTIZE, "exactBonf"], 0)
            for x, seeds in _rep_chunks(master_seed, reps, n, theta):
                theta_hat = x / n
                # The symm difference set of the family's pairs and the
                # joint rank band calibrate the same statistic, each
                # unordered pair once, at the same level.
                crits = _resampled(x, n, B, seeds, [
                    partial(_band_critical_values, n=n, family=family,
                            scope="simultaneous", studentize=s, alpha=alpha)
                    for s in _STUDENTIZE.values()
                ])
                for (m, s), crit in zip(_STUDENTIZE.items(), crits):
                    lo, hi, _ = _difference_bounds(
                        theta_hat, jj, kk, n, (crit,), "symm", s
                    )
                    diff_cov[s] += int(((lo <= delta) & (delta <= hi)).all(axis=1).sum())
                    rej = _band_rejections(family, theta_hat, crit, n,
                                           "simultaneous", s)
                    rank_cov[m] += _covered(_claim_bounds(rej), triples[0])
                exact = _rank_bounds(("exactBonf",), x, n, (0,), "two_sided",
                                     alpha, B, seeds)
                rank_cov["exactBonf"] += _covered(exact["exactBonf"], triples[0])
            rows.append({
                "pi": float(pi),
                "n": n,
                "diff_cov_stud": diff_cov[True] / reps,
                "diff_cov_nonstud": diff_cov[False] / reps,
                "rank_cov_bootStud": rank_cov["bootStud"] / reps,
                "rank_cov_boot": rank_cov["boot"] / reps,
                "rank_cov_exactBonf": rank_cov["exactBonf"] / reps,
            })
    return rows


def _covered(bounds, triple) -> int:
    """Tables whose one-target ``(R, 1)`` bounds cover ``triple``'s ranks."""
    lo, hi = bounds
    return int(((lo[:, 0] <= triple.r_lo) & (triple.r_hi <= hi[:, 0])).sum())


def large_p_study(
    p_grid: Sequence[int],
    n_grid: Sequence[int],
    alpha: float = 0.05,
    reps: int = 500,
    B: int = 1000,
    master_seed: int = 0,
    methods: Sequence[str] = ("exactHolm", "bootStud", "naive"),
) -> list[dict]:
    """Coverage and length on the uniform design as ``p`` grows.

    All categories are exchangeable under the uniform truth, so the
    first category's marginal rank set is tracked per ``(p, n,
    method)``.

    Returns
    -------
    list of dict
        Rows with keys ``p``, ``n``, ``method``, ``coverage``,
        ``coverage_se``, ``avg_length``.
    """
    rows = []
    for p in p_grid:
        for n in n_grid:
            design = uniform_design(
                int(p), int(n), methods=methods, alpha=alpha,
                reps=reps, B=B, master_seed=master_seed,
            )
            report = run_design(design)
            for m in design.methods:
                cell = report.cell(m, 0)
                rows.append({
                    "p": int(p),
                    "n": int(n),
                    "method": m,
                    "coverage": cell.coverage,
                    "coverage_se": cell.coverage_se,
                    "avg_length": cell.avg_length,
                })
    return rows
