"""End-to-end acceptance gate.

One test per release criterion.  Each test prints a single
``CRITERION n: PASS/FAIL`` verdict line to the real stdout (bypassing
pytest's capture) before asserting, so a logged ``pytest -v`` run
records every verdict even when a bound is missed.
"""

from __future__ import annotations

import math
import sys
import time
from fractions import Fraction

import conftest
import numpy as np
import pytest
from scipy import stats

from ranksets import (
    BootstrapConfig,
    MultinomialSample,
    bootstrap_quantile,
    exact_rank_cs,
    rank_cs,
    tau_best,
)
from ranksets.boot import resample
from ranksets.exact import conditional_pvalue
from ranksets.sim import (
    SimDesign,
    aes_design,
    erratic_coverage_curves,
    large_p_study,
    run_design,
)


def _verdict(criterion: int, ok: bool, details: str) -> None:
    word = "PASS" if ok else "FAIL"
    line = f"CRITERION {criterion}: {word} - {details}"
    conftest.ACCEPTANCE_VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


# --------------------------------------------------------------------
# 1. Conditional pairwise p-value equals the exact rational tail sum.
# --------------------------------------------------------------------

def _rational_pvalue(x_j: int, x_k: int) -> Fraction:
    """Upper tail P{Bin(s, 1/2) >= x_j} computed in exact arithmetic."""
    s = x_j + x_k
    if s == 0:
        return Fraction(1)
    return Fraction(sum(math.comb(s, t) for t in range(x_j, s + 1)), 2 ** s)


def test_criterion_1_pvalue_matches_rational_enumeration():
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for s in range(31):
        for x_j in range(s + 1):
            x_k = s - x_j
            got = conditional_pvalue(x_j, x_k)
            want = float(_rational_pvalue(x_j, x_k))
            worst = max(worst, abs(got - want))
            checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _verdict(1, ok, f"{checked} pairs with x_j + x_k <= 30, max abs error "
                    f"{worst:.2e} (tol 1e-12), {elapsed:.2f}s (< 1s)")
    assert worst <= 1e-12
    assert elapsed < 1.0


# --------------------------------------------------------------------
# 2. Finite-sample methods: simultaneous rank coverage on a grid of
#    truths never drops below 0.95 minus three binomial SEs (0.929).
# --------------------------------------------------------------------

def _coverage_grid_thetas() -> dict[str, tuple[float, ...]]:
    out: dict[str, tuple[float, ...]] = {}
    for p in (3, 5, 7):
        out[f"uniform-p{p}"] = tuple(1.0 / p for _ in range(p))
        rest = 0.5 / (p - 1)
        out[f"dominant-p{p}"] = (0.5,) + tuple(rest for _ in range(p - 1))
        rest = 0.4 / (p - 2)
        out[f"tiedtop-p{p}"] = (0.3, 0.3) + tuple(rest for _ in range(p - 2))
    out["skewed-p3"] = (0.74, 0.25, 0.01)
    out["skewed-p5"] = (0.55, 0.25, 0.12, 0.07, 0.01)
    out["skewed-p7"] = (0.40, 0.24, 0.15, 0.10, 0.06, 0.04, 0.01)
    return out


def test_criterion_2_joint_coverage_floor_on_truth_grid():
    floor = 0.95 - 3 * math.sqrt(0.95 * 0.05 / 1000)  # ~0.929
    worst = (1.0, "none")
    failures = []
    for name, theta in _coverage_grid_thetas().items():
        for n in (30, 117, 234):
            design = SimDesign(
                name=f"{name}-n{n}", theta=theta, n=n,
                methods=("exactBonf", "exactHolm", "cp"),
                categories=tuple(range(len(theta))),
                scope="simultaneous", reps=1000, B=100, master_seed=0,
            )
            report = run_design(design)
            for m in design.methods:
                cov = report.cell(m, -1).coverage
                if cov < worst[0]:
                    worst = (cov, f"{name}/n={n}/{m}")
                if cov < floor:
                    failures.append((name, n, m, cov))
    ok = not failures
    _verdict(2, ok, f"108 cells (12 truths x 3 sample sizes x 3 methods, "
                    f"1000 reps): min joint coverage {worst[0]:.3f} at "
                    f"{worst[1]} (floor {floor:.3f})")
    assert not failures, failures


# --------------------------------------------------------------------
# 3. Survey-calibrated designs reproduce the reference Monte Carlo
#    cells within stated tolerances (1000 reps, B = 2000, seed 0).
# --------------------------------------------------------------------

def test_criterion_3_survey_design_reference_cells():
    d1 = aes_design(kappa=0.0, tau_n=1.0, methods=("exactBonf",),
                    categories=(0,), reps=1000, B=2000, master_seed=0)
    c1 = run_design(d1).cell("exactBonf", 0)

    d2 = aes_design(kappa=1.0, tau_n=1.0, methods=("exactHolm", "bootStud"),
                    categories=(3,), reps=1000, B=2000, master_seed=0)
    r2 = run_design(d2)
    holm = r2.cell("exactHolm", 3)
    stud = r2.cell("bootStud", 3)

    d3 = aes_design(kappa=1.0, tau_n=0.5, methods=("naive",),
                    categories=(6,), reps=1000, B=2000, master_seed=0)
    c3 = run_design(d3).cell("naive", 6)

    checks = [
        ("flat/full-n cat1 exactBonf coverage", c1.coverage, 0.985, 0.03),
        ("flat/full-n cat1 exactBonf length", c1.avg_length, 5.965, 0.10),
        ("sharp/full-n cat4 exactHolm length", holm.avg_length, 0.861, 0.15),
        ("sharp/full-n cat4 bootStud length", stud.avg_length, 3.353, 0.5),
        ("sharp/half-n cat7 naive coverage", c3.coverage, 0.595, 0.06),
    ]
    misses = [f"{label}: {got:.3f} vs {want}+/-{tol}"
              for label, got, want, tol in checks if abs(got - want) > tol]
    if c3.coverage >= 0.75:
        misses.append(f"naive coverage {c3.coverage:.3f} not < 0.75")
    ok = not misses
    _verdict(3, ok, "all 5 reference cells within tolerance "
                    f"(exactBonf cov {c1.coverage:.3f}/len {c1.avg_length:.3f}, "
                    f"exactHolm len {holm.avg_length:.3f}, bootStud len "
                    f"{stud.avg_length:.3f}, naive cov {c3.coverage:.3f})"
             if ok else "; ".join(misses))
    assert not misses, misses


# --------------------------------------------------------------------
# 4. Small-probability design: the studentized difference set's
#    coverage collapses at tiny n while the exact rank set holds.
# --------------------------------------------------------------------

def test_criterion_4_difference_collapse_vs_rank_stability():
    rows = erratic_coverage_curves(pi_grid=(0.01,), n_grid=range(10, 21),
                                   reps=1000, B=1000, master_seed=0)
    min_diff = min(r["diff_cov_stud"] for r in rows)
    min_rank = min(r["rank_cov_exactBonf"] for r in rows)
    ok = min_diff < 0.55 and min_rank >= 0.929
    _verdict(4, ok, f"pi=0.01, n=10..20: min studentized difference "
                    f"coverage {min_diff:.3f} (< 0.55), min exactBonf rank "
                    f"coverage {min_rank:.3f} (>= 0.929)")
    assert min_diff < 0.55
    assert min_rank >= 0.929


# --------------------------------------------------------------------
# 5. Many-category stress grid (uniform truth, small n).
# --------------------------------------------------------------------

def test_criterion_5_many_category_stress():
    rows = large_p_study(p_grid=(20, 50), n_grid=(30, 50, 80), reps=500,
                         B=1000, master_seed=0,
                         methods=("exactHolm", "bootStud", "naive"))
    boot20 = min(r["coverage"] for r in rows
                 if r["p"] == 20 and r["method"] == "bootStud")
    naive50 = min(r["coverage"] for r in rows
                  if r["p"] == 50 and r["method"] == "naive")
    holm_min = min(r["coverage"] for r in rows if r["method"] == "exactHolm")
    ok = boot20 < 0.90 and naive50 < 0.40 and holm_min >= 0.929
    _verdict(5, ok, f"p=20 bootStud min coverage {boot20:.3f} (target < 0.90), "
                    f"p=50 naive min coverage {naive50:.3f} (< 0.40), "
                    f"exactHolm min coverage {holm_min:.3f} (>= 0.929)")
    assert naive50 < 0.40
    assert holm_min >= 0.929
    # The remaining bound asks the studentized bootstrap to UNDER-cover
    # (< 0.90) somewhere on the p = 20 grid.  This implementation reads
    # ranks off one simultaneous band per claim family, so its rank
    # coverage is bounded below by the familywise level by construction;
    # degenerate resampled pairs push the calibrated quantile to
    # infinity long before they can deflate it, and measured coverage
    # stays at 1.0 across this grid (and at 0.975+ out to n = 500).  A
    # raw per-pair readout of the same statistics is the variant exposed
    # to critical-value deflation, but that readout contradicts the
    # reference interval lengths and survey snapshots pinned by the
    # other criteria.  The bound is asserted as stated and fails by
    # design rather than by accident.
    #
    # The other readouts were measured on criterion 3's bootStud cell,
    # this p = 20 grid (500 reps, B = 1000) and criterion 6's snapshot.
    # "band" is the implemented readout, "pair" the per-pair studentized
    # one, "step-down" Romano-Wolf (2005); sigma* is the resampled
    # standard error used now, sigma-hat the original-data one.
    #
    #   readout, sigma    | c3 length      | c5 p = 20 min | c6
    #                     | (3.353 +- 0.5) | cov (< 0.90)  |
    #   band, sigma*      | 3.381 pass     | 1.000 fail    | pass
    #   pair, sigma*      | 0.829 fail     | 0.958 fail    | pass
    #   step-down, sigma* | 0.405 fail     | 0.958 fail    | pass
    #   band, sigma-hat   | 3.301 pass     | 0.998 fail    | fail ({4..7} at 95%)
    #   pair, sigma-hat   | 0.785 fail     | 0.964 fail    | fail
    #   step-down, s-hat  | 0.444 fail     | 0.964 fail    | fail
    #
    # No readout under-covers anywhere on n in {30, 50, 80}; the per-pair
    # readout's coverage falls 1.0 -> 0.992 -> 0.958 as n grows.  No
    # readout passes all eight criteria.
    assert boot20 < 0.90


# --------------------------------------------------------------------
# 6. Survey snapshot readouts at B = 10,000, seed 0 (marginal scope).
# --------------------------------------------------------------------

def test_criterion_6_survey_snapshot_readouts(melbourne):
    cfg = BootstrapConfig(B=10_000, seed=0)
    holm2 = rank_cs("exactHolm", melbourne, J0=(2,)).interval(2)
    holm3 = rank_cs("exactHolm", melbourne, J0=(3,)).interval(3)
    stud95 = [rank_cs("bootStud", melbourne, J0=(j,), alpha=0.05,
                      config=cfg).interval(j) for j in (5, 6)]
    stud90 = [rank_cs("bootStud", melbourne, J0=(j,), alpha=0.10,
                      config=cfg).interval(j) for j in (5, 6)]
    ok = (holm2 == (3, 3) and holm3 == (4, 4)
          and stud95 == [(1, 7), (1, 7)]
          and all(iv != (1, 7) for iv in stud90))
    _verdict(6, ok, f"exactHolm singletons cat3={holm2} cat4={holm3}; "
                    f"bootStud bottom two {stud95} at 95% vs {stud90} at 90%")
    assert holm2 == (3, 3)
    assert holm3 == (4, 4)
    assert stud95 == [(1, 7), (1, 7)]
    for iv in stud90:
        assert iv != (1, 7)


# --------------------------------------------------------------------
# 7. Structural relations: Holm refines Bonferroni, simultaneous
#    weakly widens marginal, top-tau sets grow with tau.
# --------------------------------------------------------------------

def test_criterion_7_structural_relations(melbourne):
    rng = np.random.default_rng(20260817)
    start = time.perf_counter()
    for _ in range(10_000):
        p = int(rng.integers(2, 7))
        theta = rng.dirichlet(np.ones(p))
        n = int(rng.integers(5, 61))
        sample = MultinomialSample(
            counts=tuple(int(c) for c in rng.multinomial(n, theta)))
        bonf = exact_rank_cs(sample, correction="bonferroni")
        holm = exact_rank_cs(sample, correction="holm")
        for j in range(p):
            assert bonf.lo[j] <= holm.lo[j] <= holm.hi[j] <= bonf.hi[j]
    holm_secs = time.perf_counter() - start

    cfg = BootstrapConfig(B=2000, seed=0)
    for method in ("exactBonf", "exactHolm", "cp", "boot", "bootStud",
                   "naive"):
        joint = rank_cs(method, melbourne, config=cfg)
        for j in range(melbourne.p):
            marg = rank_cs(method, melbourne, J0=(j,), config=cfg)
            assert joint.lo[j] <= marg.lo[j] <= marg.hi[j] <= joint.hi[j]

    for _ in range(1000):
        p = int(rng.integers(3, 7))
        theta = rng.dirichlet(np.ones(p))
        n = int(rng.integers(20, 201))
        sample = MultinomialSample(
            counts=tuple(int(c) for c in rng.multinomial(n, theta)))
        prev: frozenset[int] = frozenset()
        for tau in range(1, p + 1):
            cur = tau_best(sample, tau).members
            assert prev <= cur
            prev = cur
        assert prev == frozenset(range(p))
    _verdict(7, True, "Holm inside Bonferroni on 10,000 random tables "
                      f"({holm_secs:.1f}s); simultaneous contains marginal "
                      "for all 6 methods on the survey sample; top-tau sets "
                      "monotone over 1000 random tables")
    assert holm_secs < 60.0


# --------------------------------------------------------------------
# 8. Resampler distributional integrity and quantile definition.
# --------------------------------------------------------------------

def test_criterion_8_resampler_and_quantile_integrity():
    rng = np.random.default_rng(20260817)
    gof_ps = []
    for theta, n, B in (
        ((0.25, 0.25, 0.25, 0.25), 1_000_000, 200),
        ((0.5, 0.3, 0.2), 100_000, 300),
        ((0.7, 0.2, 0.06, 0.03, 0.01), 10_000, 500),
    ):
        pooled = np.zeros(len(theta))
        for _ in range(B):
            pooled += resample(theta, n, rng).counts
        expected = B * n * np.asarray(theta)
        chi2 = float(((pooled - expected) ** 2 / expected).sum())
        gof_ps.append(float(stats.chi2.sf(chi2, len(theta) - 1)))

    def brute(values, level):
        ordered = sorted(values)
        k = math.ceil(round(level * len(ordered), 9))
        return ordered[k - 1]

    hand = [
        (list(range(1, 11)), 0.5), (list(range(1, 11)), 0.55),
        (list(range(1, 11)), 1.0), (list(range(1, 11)), 0.05),
        ([-math.inf, 1.0, 2.0, math.inf], 0.75),
        ([-math.inf, 1.0, 2.0, math.inf], 1.0),
        ([-math.inf, 1.0, 2.0, math.inf], 0.25),
        ([float(v) for v in range(1, 21)], 0.95),
    ]
    for values, level in hand:
        assert bootstrap_quantile(values, level) == brute(values, level)
    for _ in range(200):
        size = int(rng.integers(1, 60))
        values = rng.normal(size=size).tolist()
        ninf = int(rng.integers(0, 3))
        values[:ninf] = [math.inf] * ninf
        level = float(rng.uniform(0.01, 1.0))
        assert bootstrap_quantile(values, level) == brute(values, level)

    ok = min(gof_ps) > 0.001
    _verdict(8, ok, "resampler chi-square GOF p-values "
                    f"{[f'{p:.3f}' for p in gof_ps]} all > 0.001; quantile "
                    "matches smallest-order-statistic rule on censored and "
                    "random inputs")
    assert min(gof_ps) > 0.001
