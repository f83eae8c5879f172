"""Exact binomial intervals, the simultaneous probability box, and its rank sets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from ranksets.core import MultinomialSample
from ranksets.cp import (
    IntervalBox,
    _cp_box_cached,
    clopper_pearson,
    cp_box,
    cp_rank_cs,
)
from ranksets.exact import exact_rank_cs

# ---------------------------------------------------------------------------
# clopper_pearson: closed-form edges and published value


def test_interval_zero_successes_pins_lower_at_zero():
    lo, hi = clopper_pearson(0, 20, 0.95)
    assert lo == 0.0
    # Upper endpoint solves P{Bin(20, hi) = 0} = alpha/2 in closed form.
    assert hi == pytest.approx(1.0 - 0.025 ** (1 / 20), abs=1e-12)


def test_interval_all_successes_pins_upper_at_one():
    lo, hi = clopper_pearson(20, 20, 0.95)
    assert hi == 1.0
    assert lo == pytest.approx(0.025 ** (1 / 20), abs=1e-12)


def test_interval_five_of_ten_matches_published_value():
    lo, hi = clopper_pearson(5, 10, 0.95)
    assert lo == pytest.approx(0.1871, abs=5e-4)
    assert hi == pytest.approx(0.8129, abs=5e-4)
    # Symmetric count, so the interval is symmetric about one half.
    assert lo + hi == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# clopper_pearson: independent bisection oracle on the binomial tails


def _tail_ge(x: int, n: int, q: float) -> float:
    """P{Bin(n, q) >= x} with plain float arithmetic."""
    return sum(
        math.comb(n, i) * q**i * (1.0 - q) ** (n - i) for i in range(x, n + 1)
    )


def _tail_le(x: int, n: int, q: float) -> float:
    return sum(math.comb(n, i) * q**i * (1.0 - q) ** (n - i) for i in range(x + 1))


def _bisect(fn, target: float, increasing: bool) -> float:
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        val = fn(mid)
        if (val < target) == increasing:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _oracle_interval(x: int, n: int, level: float) -> tuple[float, float]:
    alpha = 1.0 - level
    lo = 0.0 if x == 0 else _bisect(lambda q: _tail_ge(x, n, q), alpha / 2, True)
    hi = 1.0 if x == n else _bisect(lambda q: _tail_le(x, n, q), alpha / 2, False)
    return lo, hi


@pytest.mark.parametrize("n", [7, 23, 100])
@pytest.mark.parametrize("level", [0.90, 0.95, 0.99])
def test_interval_matches_tail_bisection_oracle(n, level):
    for x in {0, 1, n // 2, n - 1, n}:
        lo, hi = clopper_pearson(x, n, level)
        olo, ohi = _oracle_interval(x, n, level)
        assert lo == pytest.approx(olo, abs=1e-9)
        assert hi == pytest.approx(ohi, abs=1e-9)
        assert lo <= x / n <= hi


def test_interval_endpoints_carry_stated_tail_mass():
    # Defining property, checked directly: each endpoint puts exactly
    # alpha/2 of binomial tail mass beyond the observed count.
    for x, n, level in [(3, 12, 0.95), (40, 100, 0.90), (1, 30, 0.99)]:
        alpha = 1.0 - level
        lo, hi = clopper_pearson(x, n, level)
        assert _tail_ge(x, n, lo) == pytest.approx(alpha / 2, abs=1e-10)
        assert _tail_le(x, n, hi) == pytest.approx(alpha / 2, abs=1e-10)


@given(
    x=st.integers(min_value=0, max_value=50),
    n=st.integers(min_value=1, max_value=50),
    lev=st.sampled_from([0.8, 0.9, 0.95, 0.99]),
)
@settings(max_examples=60, deadline=None)
def test_interval_nests_as_level_grows(x, n, lev):
    if x > n:
        x = n
    lo1, hi1 = clopper_pearson(x, n, lev)
    lo2, hi2 = clopper_pearson(x, n, lev + 0.009)
    assert lo2 <= lo1 + 1e-12 and hi1 <= hi2 + 1e-12


def test_interval_rejects_bad_inputs():
    with pytest.raises(ValueError):
        clopper_pearson(0, 0)
    with pytest.raises(ValueError):
        clopper_pearson(-1, 10)
    with pytest.raises(ValueError):
        clopper_pearson(11, 10)
    with pytest.raises(ValueError):
        clopper_pearson(5, 10, level=0.0)
    with pytest.raises(ValueError):
        clopper_pearson(5, 10, level=1.0)
    for x, n in ((2.7, 10), (True, 3), ("2", 10), (2, 10.5)):
        with pytest.raises(ValueError, match="whole number"):
            clopper_pearson(x, n)


def test_interval_reads_whole_floats_as_counts():
    assert clopper_pearson(3.0, 10.0) == clopper_pearson(3, 10)


@pytest.mark.parametrize("n", [20, 100])
@pytest.mark.parametrize("theta", [0.05, 0.5])
def test_interval_marginal_coverage_monte_carlo(n, theta):
    rng = np.random.default_rng(20260817)
    reps = 2000
    xs = rng.binomial(n, theta, size=reps)
    hits = sum(
        lo <= theta <= hi for lo, hi in (clopper_pearson(int(x), n) for x in xs)
    )
    # Exact-tail inversion never undercovers, so the empirical rate can
    # only sit below 0.95 by Monte Carlo noise (se ~ 0.005 at 2000 reps).
    assert hits / reps >= 0.935


# ---------------------------------------------------------------------------
# cp_box


def test_box_runs_each_margin_at_split_level():
    sample = MultinomialSample((87, 75, 42, 21, 6, 2, 1))
    alpha = 0.05
    box = cp_box(sample, alpha)
    for j, x in enumerate(sample.counts):
        lo, hi = clopper_pearson(x, sample.n, level=1.0 - alpha / sample.p)
        assert box.lo[j] == lo and box.hi[j] == hi


@pytest.mark.parametrize("n", [1, 2, 7, 50, 81, 234, 238, 5000])
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.3])
def test_box_matches_scalar_beta_quantiles_for_every_count(n, alpha):
    # The box takes one array quantile call per bound; each entry must be
    # the scalar call's double, and x = 0 and x = n the closed ends.
    counts = tuple(range(n + 1))
    lo, hi = _cp_box_cached(counts, n, alpha)
    a = 1.0 - (1.0 - alpha / len(counts))
    assert lo[0] == 0.0 and hi[n] == 1.0
    assert list(lo[1:]) == [
        float(special.betaincinv(x, n - x + 1, a / 2)) for x in counts[1:]
    ]
    assert list(hi[:n]) == [
        float(special.betaincinv(x + 1, n - x, 1 - a / 2)) for x in counts[:n]
    ]


def test_box_rejects_bad_alpha():
    sample = MultinomialSample((5, 5))
    with pytest.raises(ValueError):
        cp_box(sample, alpha=0.0)
    with pytest.raises(ValueError):
        cp_box(sample, alpha=1.0)


def test_interval_box_validates_ordering():
    with pytest.raises(ValueError):
        IntervalBox(lo=(0.4,), hi=(0.2,), alpha=0.05)
    with pytest.raises(ValueError):
        IntervalBox(lo=(-0.1,), hi=(0.5,), alpha=0.05)


# ---------------------------------------------------------------------------
# cp_rank_cs


def test_rank_cs_runaway_leader_is_pinned_first():
    r = cp_rank_cs(MultinomialSample((100, 0, 0)))
    assert r.interval(0) == (1, 1)
    assert r.interval(1) == (2, 3)
    assert r.interval(2) == (2, 3)


def test_rank_cs_balanced_counts_stay_uninformative():
    r = cp_rank_cs(MultinomialSample((10, 10, 10)))
    for j in range(3):
        assert r.interval(j) == (1, 3)


def _box_readout(sample: MultinomialSample, alpha: float = 0.05):
    """Direct rank bounds from pairwise strict non-overlap of box intervals."""
    box = cp_box(sample, alpha)
    p = sample.p
    lo = [1 + sum(box.lo[k] > box.hi[j] for k in range(p) if k != j) for j in range(p)]
    hi = [p - sum(box.hi[k] < box.lo[j] for k in range(p) if k != j) for j in range(p)]
    return list(zip(lo, hi))


def test_rank_cs_matches_direct_box_readout():
    rng = np.random.default_rng(7)
    samples = [MultinomialSample((87, 75, 42, 21, 6, 2, 1))]
    for _ in range(25):
        p = int(rng.integers(2, 8))
        counts = rng.multinomial(int(rng.integers(20, 400)), np.ones(p) / p)
        counts[0] += 1  # guard against an all-zero draw at tiny n
        samples.append(MultinomialSample(tuple(int(c) for c in counts)))
    for sample in samples:
        r = cp_rank_cs(sample)
        assert [r.interval(j) for j in range(sample.p)] == _box_readout(sample)


def test_rank_cs_weakly_wider_than_conditional_tests_on_survey_data():
    sample = MultinomialSample((87, 75, 42, 21, 6, 2, 1))
    crude = cp_rank_cs(sample)
    sharp = exact_rank_cs(sample)
    assert all(crude.length(j) >= sharp.length(j) for j in range(sample.p))


def test_rank_cs_one_sided_kinds_free_the_unclaimed_side():
    sample = MultinomialSample((87, 75, 42, 21, 6, 2, 1))
    lower = cp_rank_cs(sample, kind="lower")
    upper = cp_rank_cs(sample, kind="upper")
    two = cp_rank_cs(sample)
    for j in range(sample.p):
        assert lower.interval(j)[1] == sample.p
        assert upper.interval(j)[0] == 1
        # The one-sided bounds at the same alpha are at least as sharp on
        # their own side, since all of alpha funds that single direction.
        assert lower.interval(j)[0] >= two.interval(j)[0]
        assert upper.interval(j)[1] <= two.interval(j)[1]


def test_rank_cs_restricts_to_requested_categories():
    sample = MultinomialSample((87, 75, 42, 21, 6, 2, 1))
    r = cp_rank_cs(sample, J0=(2, 3))
    full = cp_rank_cs(sample)
    assert set(r.J0) == {2, 3}
    for j in (2, 3):
        assert r.interval(j) == full.interval(j)


def test_rank_cs_alpha_monotone():
    sample = MultinomialSample((87, 75, 42, 21, 6, 2, 1))
    tight = cp_rank_cs(sample, alpha=0.20)
    wide = cp_rank_cs(sample, alpha=0.01)
    for j in range(sample.p):
        lo_w, hi_w = wide.interval(j)
        lo_t, hi_t = tight.interval(j)
        assert lo_w <= lo_t and hi_t <= hi_w
