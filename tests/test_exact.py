"""Exact conditional tests, multiplicity corrections, and their rank sets."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate
from math import comb, isqrt, ldexp
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ranksets.core import (
    MultinomialSample,
    build_index_family,
    rankset_from_rejections,
)
from ranksets import exact
from ranksets.exact import (
    PairwisePValueTable,
    bonferroni_reject,
    conditional_pvalue,
    exact_rank_cs,
    holm_reject,
    pairwise_pvalues,
)
from ranksets.exact import (
    _pair_pvalues,
    _short_sum_bounds,
    _tail_numerator,
    _tail_table,
)

# ---------------------------------------------------------------------------
# conditional p-value


def test_pvalue_zero_successes_is_one():
    assert conditional_pvalue(0, 5) == 1.0


def test_pvalue_three_of_three():
    assert conditional_pvalue(3, 0) == 0.125


def test_pvalue_eight_of_ten():
    assert conditional_pvalue(8, 2) == 56 / 1024


def test_pvalue_empty_pair_is_one():
    assert conditional_pvalue(0, 0) == 1.0


def _pvalue_oracle(x_j: int, x_k: int) -> Fraction:
    s = x_j + x_k
    if s == 0:
        return Fraction(1)
    return Fraction(sum(comb(s, i) for i in range(x_j, s + 1)), 2**s)


def test_pvalue_matches_rational_enumeration_small_s():
    for s in range(0, 21):
        for x in range(0, s + 1):
            got = conditional_pvalue(x, s - x)
            assert abs(got - float(_pvalue_oracle(x, s - x))) <= 1e-12


def test_pvalue_large_s_stays_in_unit_interval_and_monotone():
    prev = None
    for x in range(0, 501):
        p = conditional_pvalue(x, 500 - x)
        assert 0.0 < p <= 1.0
        if prev is not None:
            assert p <= prev  # more successes, smaller tail
        prev = p


def test_tail_numerator_matches_comb_sum_exhaustively():
    for s in range(151):
        for x in range(s + 1):
            assert _tail_numerator(x, s) == sum(comb(s, i) for i in range(x, s + 1))


@st.composite
def _tail_point(draw):
    s = draw(st.integers(0, 4000))
    return draw(st.integers(0, s)), s


@settings(max_examples=200, deadline=None)
@given(_tail_point())
@example((0, 0))
@example((0, 4000))
@example((4000, 4000))
@example((2000, 4000))  # last x summed from below
@example((2001, 4000))  # first x summed from above
@example((1999, 3999))  # odd s: from below
@example((2000, 3999))  # odd s: from above
def test_tail_numerator_obeys_pascal_and_complement(point):
    # Neighbouring tails differ by one binomial coefficient and a tail
    # plus the opposite tail is 2**s; with tail(s, s) == 1 these pin
    # every value, and they mix the two summation directions.
    x, s = point
    tail = _tail_numerator(x, s)
    if x == s:
        assert tail == 1
    else:
        assert tail - _tail_numerator(x + 1, s) == comb(s, x)
    if x == 0:
        assert tail == 1 << s
    else:
        assert tail + _tail_numerator(s + 1 - x, s) == 1 << s


@pytest.mark.parametrize("x_j, x_k", [(1902, 1579), (1579, 1902), (881, 449)])
def test_pvalue_is_correctly_rounded_rational_at_large_s(x_j, x_k):
    assert conditional_pvalue(x_j, x_k) == float(_pvalue_oracle(x_j, x_k))


@st.composite
def _large_s_point(draw):
    # Above the exact regime: near the centre, where the tail is close to
    # 1/2 and the walk is longest, and within 64 of either end.
    s = draw(st.integers(exact._EXACT_MAX_S + 1, 20_000))
    r = 3 * isqrt(s)
    x = draw(st.one_of(
        st.integers(max(0, s // 2 - r), min(s, s // 2 + r)),
        st.sampled_from([0, 1, s - 1, s]),
        st.integers(0, 64),
        st.integers(s - 64, s),
    ))
    return x, s


def _uncached_pvalue(x, s):
    return conditional_pvalue.__wrapped__(x, s - x)


def _exact_pair(a, b):
    s = a + b
    return _tail_numerator(a, s) / (1 << s), _tail_numerator(b, s) / (1 << s)


@settings(max_examples=60, deadline=None)
@given(_large_s_point())
@example((exact._EXACT_MAX_S + 1, exact._EXACT_MAX_S + 1))
@example((1075, 1075))  # 2**-1075 rounds to 0
@example((1074, 1074))  # the smallest subnormal
@example((1075, 2150))  # a = b: both directions are one tail
def test_fixed_precision_pvalue_is_the_rounded_exact_tail(point):
    x, s = point
    assert _uncached_pvalue(x, s) == _tail_numerator(x, s) / (1 << s)
    pair = min(x, s - x), max(x, s - x)
    assert _pair_pvalues(*pair) == _exact_pair(*pair)


def test_tail_table_is_the_rounded_comb_suffix_sum_up_to_the_exact_end():
    # Every entry against math.comb suffix sums rounded another way: a
    # tail below 2**1024 converts to the nearest double, and scaling by
    # 2**-s stays exact above the subnormals.
    table = _tail_table(exact._EXACT_MAX_S)
    assert len(table) >= (exact._EXACT_MAX_S + 1) * (exact._EXACT_MAX_S + 2) // 2
    for s in range(exact._EXACT_MAX_S + 1):
        tails = list(accumulate(comb(s, i) for i in range(s, -1, -1)))[::-1]
        row = table[s * (s + 1) // 2:][:s + 1]
        assert row.tolist() == [ldexp(float(tail), -s) for tail in tails]


def test_import_builds_no_tail_table_row():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    run = subprocess.run(
        [sys.executable, "-c",
         "import ranksets, ranksets.exact as e; print(e._tails[0], e._tails[2].size)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["-1", "0"]


@pytest.mark.parametrize("bits", [8, 16])
def test_low_precision_falls_back_to_the_exact_tail(bits, monkeypatch):
    # Few bits leave the two ends of the bound on different doubles, so
    # the exact sum has to decide; the value must still be the same, in
    # both directions of the pair walk.
    fallbacks = []

    def counted(x, s):
        fallbacks.append((x, s))
        return _tail_numerator(x, s)

    monkeypatch.setattr(exact, "_PRECISION_BITS", bits)
    monkeypatch.setattr(exact, "_tail_numerator", counted)

    @settings(max_examples=40, deadline=None)
    @given(_large_s_point())
    def check(point):
        x, s = point
        assert _uncached_pvalue(x, s) == _tail_numerator(x, s) / (1 << s)
        pair = min(x, s - x), max(x, s - x)
        assert _pair_pvalues(*pair) == _exact_pair(*pair)

    check()
    assert fallbacks


@pytest.mark.parametrize("bits", [8, 16, 24, 128])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_short_sum_bounds_contain_the_exact_sum(bits, data):
    # The bounds are proven for 1 <= t, 2t <= s + 3 and t <= 2**(bits - 2);
    # t = a + 1 for a pair {a <= b} reaches 2t = s + 2 when a = b.
    s = data.draw(st.integers(exact._EXACT_MAX_S + 1, 4000))
    t = data.draw(st.integers(1, min(s // 2 + 1, 1 << (bits - 2))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_PRECISION_BITS", bits)
        c, a, e, g = _short_sum_bounds(t, s)
    assert e >= 0
    before = sum(comb(s, i) for i in range(t - 1))
    assert c << g <= before <= (c + e) << g
    assert a << g <= before + comb(s, t - 1) <= (a + e) << g


def test_pvalue_caches_are_bounded():
    # More distinct (x_j, x_k) pairs than the p-value cache holds.
    side = 257
    assert side * side > conditional_pvalue.cache_info().maxsize
    for x_j in range(side):
        for x_k in range(side):
            conditional_pvalue(x_j, x_k)
    # The p-values above come from the tail table, so the exact-tail cache
    # is filled directly, again with more distinct (x, s) than it holds.
    assert side > _tail_numerator.cache_info().maxsize
    for x in range(side):
        _tail_numerator(x, side)
    for cached in (conditional_pvalue, _tail_numerator):
        info = cached.cache_info()
        assert info.maxsize is not None
        assert 0 < info.currsize <= info.maxsize


@given(st.integers(0, 80), st.integers(0, 80))
def test_pvalue_two_tails_overlap(x_j, x_k):
    # both one-sided tails count the point x_j, so they sum to >= 1
    assert conditional_pvalue(x_j, x_k) + conditional_pvalue(x_k, x_j) >= 1.0


# ---------------------------------------------------------------------------
# corrections


def _table(pvals):
    fam = build_index_family("lower", (0,), len(pvals) + 1)
    pvalues = np.full(fam.mask.shape, np.nan)
    pvalues[fam.mask] = pvals  # row-major: (1, 0), (2, 0), ...
    return PairwisePValueTable(family=fam, pvalues=pvalues)


def test_bonferroni_rejects_only_below_split_level():
    rej = bonferroni_reject(_table([0.001, 0.02, 0.04]), 0.05)
    assert rej.claims.sum() == 1
    assert rej.claims[1, 0]


def test_bonferroni_all_ones_keeps_full_interval():
    rej = bonferroni_reject(_table([1.0, 1.0, 1.0]), 0.05)
    assert not rej.claims.any()
    assert rankset_from_rejections(rej).interval(0) == (1, 4)


def test_bonferroni_single_test_reduces_to_plain_level():
    rej = bonferroni_reject(_table([0.04]), 0.05)
    assert rej.claims[1, 0]
    assert rankset_from_rejections(rej).interval(0) == (2, 2)


def test_holm_steps_through_all_three():
    rej = holm_reject(_table([0.001, 0.02, 0.04]), 0.05)
    assert rej.claims.sum() == 3


def test_holm_stops_at_first_failure():
    rej = holm_reject(_table([0.001, 0.03, 0.04]), 0.05)
    assert rej.claims.sum() == 1
    assert rej.claims[1, 0]


def test_holm_boundary_equalities_all_reject():
    rej = holm_reject(_table([0.05 / 3] * 3), 0.05)
    assert rej.claims.sum() == 3


def _step_down_oracle(table, alpha):
    """Sequential Holm over the family's pairs, ties broken by pair."""
    family, pvalues = table.family, table.pvalues
    m = len(family.pairs)
    ordered = sorted(family.pairs, key=lambda pair: (pvalues[pair], pair))
    claims = np.zeros(family.mask.shape, dtype=bool)
    for idx, pair in enumerate(ordered):
        if pvalues[pair] > alpha / (m - idx):
            break
        claims[pair] = True
    return claims


@st.composite
def _pvalue_table(draw):
    p = draw(st.integers(2, 12))
    J0 = draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p))
    kind = draw(st.sampled_from(["lower", "upper", "two_sided"]))
    family = build_index_family(kind, J0, p)
    alpha = draw(st.sampled_from([0.01, 0.05, 0.1, 0.3]))
    m = len(family)
    if draw(st.booleans()):
        # Exact p-values of a table with zero cells.
        counts = draw(st.lists(st.integers(0, 30), min_size=p, max_size=p))
        if sum(counts) == 0:
            counts[0] = 1
        return pairwise_pvalues(MultinomialSample(tuple(counts)), family), alpha
    # Holm thresholds themselves and a few other values: ties and exact
    # boundary equalities on both sides of the stopping index.
    grid = [alpha / (m - i) for i in range(m)] + [0.0, 1e-4, 0.5, 1.0]
    pvals = draw(st.lists(st.sampled_from(grid), min_size=m, max_size=m))
    pvalues = np.full((p, p), np.nan)
    pvalues[family.mask] = pvals
    # Real p-values of a pair and its mirror sum to more than 1, so both
    # directions are never rejected; keep that by giving mirrors 1.
    mirrored = np.tril(family.mask & family.mask.T)
    pvalues[mirrored] = 1.0
    return PairwisePValueTable(family=family, pvalues=pvalues), alpha


@settings(max_examples=300, deadline=None)
@given(_pvalue_table())
def test_vectorized_corrections_match_sequential_loops(args):
    table, alpha = args
    holm = holm_reject(table, alpha)
    assert np.array_equal(holm.claims, _step_down_oracle(table, alpha))
    family, m = table.family, len(table.family)
    bonf = np.zeros(family.mask.shape, dtype=bool)
    for pair in family.pairs:
        bonf[pair] = table.pvalues[pair] <= alpha / m
    assert np.array_equal(bonferroni_reject(table, alpha).claims, bonf)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 60), min_size=2, max_size=6).filter(
        lambda c: sum(c) > 0
    ),
    st.sampled_from([0.01, 0.05, 0.1, 0.2]),
)
def test_holm_intervals_within_bonferroni(counts, alpha):
    s = MultinomialSample(counts=tuple(counts))
    bonf = exact_rank_cs(s, kind="two_sided", alpha=alpha, correction="bonferroni")
    holm = exact_rank_cs(s, kind="two_sided", alpha=alpha, correction="holm")
    for j in range(s.p):
        assert bonf.lo[j] <= holm.lo[j]
        assert holm.hi[j] <= bonf.hi[j]


# ---------------------------------------------------------------------------
# full construction


def test_election_fixture_pins_middle_categories(melbourne):
    rs3 = exact_rank_cs(melbourne, J0=(2,), alpha=0.05, correction="holm")
    rs4 = exact_rank_cs(melbourne, J0=(3,), alpha=0.05, correction="holm")
    assert rs3.interval(2) == (3, 3)
    assert rs4.interval(3) == (4, 4)


def test_equal_counts_leave_everything_open():
    s = MultinomialSample(counts=(10, 10, 10))
    rs = exact_rank_cs(s, alpha=0.05, correction="holm")
    assert all(rs.interval(j) == (1, 3) for j in range(3))


def test_unanimous_sample_pins_winner():
    s = MultinomialSample(counts=(100, 0, 0))
    rs = exact_rank_cs(s, J0=(0,), alpha=0.05, correction="holm")
    assert rs.interval(0) == (1, 1)


def test_pairwise_pvalues_shares_one_read_only_table():
    s = MultinomialSample(counts=(40, 31, 22, 9, 0))
    fam = build_index_family("two_sided", None, 5)
    table = pairwise_pvalues(s, fam)
    assert pairwise_pvalues(MultinomialSample(counts=(40, 31, 22, 9, 0)), fam) is table
    with pytest.raises(ValueError):
        table.pvalues[0, 1] = 0.0
    rows, cols = np.nonzero(fam.mask)
    fresh = [conditional_pvalue(s.counts[a], s.counts[b]) for a, b in zip(rows, cols)]
    assert table.pvalues[rows, cols].tolist() == fresh
    other = MultinomialSample(counts=(40, 31, 22, 0, 9))
    assert pairwise_pvalues(other, fam) is not table


@st.composite
def _table_with_repeats(draw):
    # Counts from a small pool repeat, include zeros, and sometimes pass
    # the exact regime (s > 512).
    p = draw(st.integers(2, 30))
    pool = draw(st.lists(st.integers(0, 700), min_size=1, max_size=p))
    counts = draw(st.lists(st.sampled_from([0, *pool]), min_size=p, max_size=p))
    if sum(counts) == 0:
        counts[0] = 1
    kind = draw(st.sampled_from(["lower", "upper", "two_sided"]))
    J0 = draw(st.none() | st.sets(st.integers(0, p - 1), min_size=1))
    return tuple(counts), build_index_family(kind, J0, p)


@settings(max_examples=150, deadline=None)
@given(_table_with_repeats())
# Every pair in the tail table, though 2 * 300 is past its end.
@example(((300, 100, 0), build_index_family("two_sided", None, 3)))
# One pair past the table's end, next to pairs in it.
@example(((300, 213, 0), build_index_family("lower", (1,), 3)))
# Tied counts past the end: one a = b walk serves both directions.
@example(((600, 600, 7, 0), build_index_family("two_sided", None, 4)))
# The larger count on the row side picks the walk's second p-value; the
# family also holds a tie past the end and a pair inside the table.
@example(((900, 450, 450, 2), build_index_family("lower", (1,), 4)))
def test_pvalue_table_equals_the_per_pair_map(args):
    counts, fam = args
    table = pairwise_pvalues(MultinomialSample(counts), fam)
    assert np.array_equal(table.pvalues, _per_pair_map(counts, fam), equal_nan=True)


def _per_pair_map(counts, fam):
    rows, cols = np.nonzero(fam.mask)
    expected = np.full(fam.mask.shape, np.nan)
    expected[rows, cols] = [
        conditional_pvalue(counts[a], counts[b]) for a, b in zip(rows, cols)
    ]
    return expected


def test_pvalue_table_never_grows_the_tail_triangle_past_its_end(monkeypatch):
    # The diagonal and several pairs are past 512; gathered unclipped, they
    # would grow the triangle to row 2 * 700 (about 8 MB of floats).
    monkeypatch.setattr(exact, "_tails", (-1, [], np.empty(0)))
    exact._pvalue_table.cache_clear()
    counts = (700, 600, 3, 0)
    fam = build_index_family("two_sided", None, 4)
    table = pairwise_pvalues(MultinomialSample(counts), fam)
    assert 0 <= exact._tails[0] <= exact._EXACT_MAX_S
    assert np.array_equal(table.pvalues, _per_pair_map(counts, fam), equal_nan=True)


def test_zero_zero_pairs_never_reject():
    s = MultinomialSample(counts=(0, 0, 5))
    fam = build_index_family("two_sided", (0, 1, 2), 3)
    table = pairwise_pvalues(s, fam)
    assert table.pvalues[0, 1] == 1.0
    assert table.pvalues[1, 0] == 1.0
    rs = exact_rank_cs(s, alpha=0.05, correction="holm")
    assert rs.interval(0)[1] == 3  # nothing separates the two zero categories


def test_one_sided_kinds_bound_one_side_only(melbourne):
    lower = exact_rank_cs(melbourne, kind="lower", alpha=0.05, correction="holm")
    upper = exact_rank_cs(melbourne, kind="upper", alpha=0.05, correction="holm")
    assert all(lower.hi[j] == melbourne.p for j in range(melbourne.p))
    assert all(upper.lo[j] == 1 for j in range(melbourne.p))


def test_rank_cs_rejects_bad_correction(melbourne):
    with pytest.raises(ValueError):
        exact_rank_cs(melbourne, correction="sidak")


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 50), min_size=2, max_size=6).filter(
        lambda c: sum(c) > 0
    ),
    st.randoms(use_true_random=False),
)
def test_relabeling_permutes_intervals_identically(counts, rnd):
    s = MultinomialSample(counts=tuple(counts))
    perm = list(range(s.p))
    rnd.shuffle(perm)
    permuted = MultinomialSample(counts=tuple(counts[i] for i in perm))
    base = exact_rank_cs(s, alpha=0.05, correction="holm")
    moved = exact_rank_cs(permuted, alpha=0.05, correction="holm")
    for new_pos, old_pos in enumerate(perm):
        assert moved.interval(new_pos) == base.interval(old_pos)


def test_validity_on_small_grid_monte_carlo():
    import numpy as np

    rng = np.random.default_rng(2024)
    for theta in ((0.4, 0.3, 0.3), (0.25, 0.25, 0.25, 0.25), (0.7, 0.2, 0.1)):
        theta = np.asarray(theta)
        from ranksets.core import compute_ranks

        triples = compute_ranks(theta)
        hit = 0
        reps = 1000
        for _ in range(reps):
            counts = tuple(int(c) for c in rng.multinomial(150, theta))
            if sum(counts) == 0:
                continue
            rs = exact_rank_cs(
                MultinomialSample(counts=counts), alpha=0.1, correction="holm"
            )
            hit += all(
                rs.covers(j, triples[j].r_lo, triples[j].r_hi)
                for j in range(theta.size)
            )
        se = (0.1 * 0.9 / reps) ** 0.5
        assert hit / reps >= 0.9 - 3 * se
