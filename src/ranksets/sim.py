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
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._dispatch import SCOPES, normalize_method, rank_cs
from .boot import BootstrapConfig, difference_cs
from .core import (
    MultinomialSample,
    ProbabilityVector,
    _categories_of_interest,
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
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.reps < 1:
            raise ValueError("reps must be positive")
        if self.scope not in SCOPES:
            raise ValueError(f"unknown scope {self.scope!r}")
        object.__setattr__(
            self, "methods", tuple(normalize_method(m) for m in self.methods)
        )
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
    is a deterministic integer so that every method in the replication
    keys into the same cached resample matrix.
    """
    for child in np.random.SeedSequence(master_seed).spawn(reps):
        data_ss, boot_ss = child.spawn(2)
        boot_seed = int(boot_ss.generate_state(1, np.uint64)[0])
        yield np.random.default_rng(data_ss), boot_seed


def run_design(design: SimDesign) -> SimReport:
    """Run one Monte Carlo design and aggregate coverage and length.

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
    triples = compute_ranks(theta)
    cover = {(m, j): 0 for m in design.methods for j in cats}
    length = {(m, j): 0 for m in design.methods for j in cats}
    joint = {m: 0 for m in design.methods}

    for rng, boot_seed in _rep_streams(design.master_seed, design.reps):
        counts = tuple(int(c) for c in rng.multinomial(design.n, theta))
        sample = MultinomialSample(counts=counts)
        config = BootstrapConfig(B=design.B, seed=boot_seed)
        for m in design.methods:
            rs = rank_cs(m, sample, J0=targets, kind="two_sided",
                         alpha=design.alpha, config=config, scope=design.scope)
            all_covered = True
            for j in cats:
                covered = rs.covers(j, triples[j].r_lo, triples[j].r_hi)
                cover[(m, j)] += covered
                length[(m, j)] += rs.length(j)
                all_covered &= covered
            joint[m] += all_covered

    cells = []
    for m in design.methods:
        for j in cats:
            freq = cover[(m, j)] / design.reps
            cells.append(SimCell(
                method=m, category=j, coverage=freq,
                coverage_se=_mc_se(freq, design.reps),
                avg_length=length[(m, j)] / design.reps,
            ))
        if design.scope == "simultaneous":
            freq = joint[m] / design.reps
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
    for coverage of the admissible-rank interval.

    Returns
    -------
    list of dict
        Rows with keys ``pi``, ``n``, ``diff_cov_stud``,
        ``diff_cov_nonstud``, ``rank_cov_bootStud``, ``rank_cov_boot``,
        ``rank_cov_exactBonf``.
    """
    rows = []
    for pi in pi_grid:
        theta = np.asarray(erratic_theta(pi))
        triples = compute_ranks(theta)
        family = build_index_family("two_sided", (0,), theta.size)
        for n in n_grid:
            diff_cov = {True: 0, False: 0}
            rank_cov = {"bootStud": 0, "boot": 0, "exactBonf": 0}
            for rng, boot_seed in _rep_streams(master_seed, reps):
                counts = tuple(int(c) for c in rng.multinomial(int(n), theta))
                sample = MultinomialSample(counts=counts)
                config = BootstrapConfig(B=B, seed=boot_seed)
                for studentize in (True, False):
                    dcs = difference_cs(sample, config, alpha, family.mask,
                                        shape="symm", studentize=studentize)
                    diff_cov[studentize] += dcs.covers(theta)
                for m in rank_cov:
                    rs = rank_cs(m, sample, J0=(0,), kind="two_sided",
                                 alpha=alpha, config=config)
                    rank_cov[m] += rs.covers(0, triples[0].r_lo, triples[0].r_hi)
            rows.append({
                "pi": float(pi),
                "n": int(n),
                "diff_cov_stud": diff_cov[True] / reps,
                "diff_cov_nonstud": diff_cov[False] / reps,
                "rank_cov_bootStud": rank_cov["bootStud"] / reps,
                "rank_cov_boot": rank_cov["boot"] / reps,
                "rank_cov_exactBonf": rank_cov["exactBonf"] / reps,
            })
    return rows


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
