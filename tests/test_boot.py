"""Bootstrap difference bands, their rank readouts, and the naive baseline."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ranksets._dispatch as dispatch
import ranksets.boot as boot
from ranksets import rank_cs
from ranksets.boot import (
    SHAPES,
    BootstrapConfig,
    DifferenceCS,
    boot_rank_cs,
    bootstrap_quantile,
    difference_cs,
    naive_rank_cs,
    resample,
)
from ranksets.boot import (
    _ALL_PAIRS_MIN_P,
    _all_pairs_symm_stats,
    _band_critical_values,
    _band_half_width,
    _best_ranks,
    _category_major,
    _marginal_stats,
    _max_stats,
    _pair_stats,
    _pairs_with,
    _sigma_hat,
    _sigma_max,
    _theta_star_cached,
)
from ranksets.core import MultinomialSample, _target_pairs, build_index_family

MELBOURNE = MultinomialSample((87, 75, 42, 21, 6, 2, 1))

# ---------------------------------------------------------------------------
# bootstrap_quantile


def test_quantile_order_statistic_convention():
    vals = list(range(1, 11))
    assert bootstrap_quantile(vals, 0.5) == 5.0
    assert bootstrap_quantile(vals, 0.55) == 6.0
    assert bootstrap_quantile(vals, 1.0) == 10.0
    assert bootstrap_quantile(vals, 0.05) == 1.0


def test_quantile_integer_product_is_not_bumped_by_float_fuzz():
    # 0.95 * 20 must index the 19th order statistic, not slip to the 20th.
    assert bootstrap_quantile(list(range(1, 21)), 0.95) == 19.0


def test_quantile_orders_infinities():
    vals = [1.0, math.inf, -math.inf, 2.0]
    assert bootstrap_quantile(vals, 0.25) == -math.inf
    assert bootstrap_quantile(vals, 1.0) == math.inf


def test_quantile_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bootstrap_quantile([], 0.5)
    with pytest.raises(ValueError):
        bootstrap_quantile([1.0, math.nan], 0.5)
    with pytest.raises(ValueError):
        bootstrap_quantile([1.0], 0.0)
    with pytest.raises(ValueError):
        bootstrap_quantile([1.0], 1.5)
    with pytest.raises(ValueError):
        bootstrap_quantile([[1.0, 2.0], [3.0, 4.0]], 0.5)


def test_quantile_matches_brute_force_on_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(50):
        vals = rng.normal(size=int(rng.integers(1, 40)))
        level = float(rng.uniform(0.01, 1.0))
        k = math.ceil(round(level * vals.size, 9))
        assert bootstrap_quantile(vals, level) == np.sort(vals)[k - 1]


# ---------------------------------------------------------------------------
# _pair_stats (the statistic difference_cs calibrates) and the zero conventions


def _stat(counts, theta_hat, pairs, studentize=True, variant="lower"):
    """Max statistic of the single resample ``counts``."""
    n = sum(counts)
    star = np.asarray(counts, dtype=float)[None, :] / n
    theta = np.asarray(theta_hat, dtype=float)
    jj, kk = np.asarray(pairs).T
    rows, var = _category_major(star, studentize)
    return float(_pair_stats(rows, var, theta, n, jj, kk, variant, (studentize,))[0, 0])


def test_stat_zero_over_zero_is_zero():
    # Both categories empty in the draw and in the data: 0/0 -> 0.
    stat = _stat((5, 0, 0), (1.0, 0.0, 0.0), [(1, 2)])
    assert stat == 0.0


def test_stat_nonzero_over_zero_is_signed_infinity():
    theta_hat = (0.8, 0.2, 0.0)
    # Pair (1, 2): numerator -(0.2 - 0.0), denominator 0; its mirror
    # (2, 1) has numerator 0.2 over the same denominator.
    assert _stat((5, 0, 0), theta_hat, [(1, 2)], variant="lower") == -math.inf
    assert _stat((5, 0, 0), theta_hat, [(2, 1)], variant="lower") == math.inf
    assert _stat((5, 0, 0), theta_hat, [(1, 2)], variant="symm") == math.inf


def test_stat_hand_computed_value():
    stat = _stat((30, 70), (0.5, 0.5), [(0, 1)], variant="lower")
    # numerator (0.3 - 0.7) - 0; sigma*^2 = .3*.7 + .7*.3 + 2*.3*.7 = 0.84
    expected = -0.4 / (math.sqrt(0.84) / math.sqrt(100))
    assert stat == pytest.approx(expected, rel=1e-12)


def test_stat_without_studentizing_uses_sqrt_n_scale():
    stat = _stat((30, 70), (0.5, 0.5), [(0, 1)], studentize=False, variant="symm")
    assert stat == pytest.approx(math.sqrt(100) * abs(2 * (0.3 - 0.5)), rel=1e-12)


def test_stat_takes_max_over_pairs():
    counts = (10, 30, 60)
    theta_hat = (1 / 3, 1 / 3, 1 / 3)
    pairs = [(0, 1), (2, 1), (2, 0)]
    singles = [_stat(counts, theta_hat, [pr], variant="lower") for pr in pairs]
    assert _stat(counts, theta_hat, pairs, variant="lower") == max(singles)


def test_stat_rejects_unknown_variant():
    # upper is lower over the mirrored pairs, which _max_stats walks.
    for variant in ("middle", "upper"):
        with pytest.raises(ValueError):
            _stat((5, 5), (0.5, 0.5), [(0, 1)], variant=variant)


def _one_shot_stats(theta_star, theta_hat, n, pairs, studentize, variant):
    """Oracle: the max statistic from every ``B x m`` array at once."""
    jj = np.asarray([j for j, _ in pairs])
    kk = np.asarray([k for _, k in pairs])
    num = (theta_star[:, jj] - theta_star[:, kk]) - (theta_hat[jj] - theta_hat[kk])
    if variant == "upper":
        num = -num
    elif variant == "symm":
        num = np.abs(num)
    if studentize:
        tj, tk = theta_star[:, jj], theta_star[:, kk]
        sig2 = tj * (1.0 - tj) + tk * (1.0 - tk) + 2.0 * tj * tk
        denom = np.sqrt(sig2) / math.sqrt(n)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = num / denom
        ratios = np.where((num == 0.0) & (denom == 0.0), 0.0, out)
    else:
        ratios = num * math.sqrt(n)
    return ratios.max(axis=1)


@st.composite
def _calibration_case(draw):
    p = draw(st.integers(2, 12))
    counts = draw(st.lists(st.integers(0, 30), min_size=p, max_size=p))
    if sum(counts) == 0:
        counts[draw(st.integers(0, p - 1))] = 1
    B = draw(st.integers(1, 40))
    star = _theta_star_cached.__wrapped__(
        tuple(counts), sum(counts), B, draw(st.integers(0, 2**32 - 1))
    )
    theta_hat = np.asarray(counts, dtype=float) / sum(counts)
    falling = draw(st.booleans())
    if falling:
        # Shift theta_hat so every later category trails by more than
        # any resampled difference: each lower statistic over pairs
        # (j, k) with j < k is negative, and the running max must not
        # start from zero.
        theta_hat = theta_hat + 3.0 * (p - np.arange(p))
        pool = [(j, k) for j in range(p) for k in range(j + 1, p)]
    else:
        pool = [(j, k) for j in range(p) for k in range(p) if j != k]
    pairs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3 * len(pool)))
    variant = "lower" if falling else draw(st.sampled_from(("lower", "symm")))
    return star, theta_hat, sum(counts), pairs, variant, falling


#: The statistics a kernel call can ask for: one alone, or both in one pass.
_STATISTICS = ((False,), (True,), (False, True), (True, False))


@settings(max_examples=200, deadline=None)
@given(_calibration_case(), st.sampled_from(_STATISTICS))
def test_blocked_stats_equal_one_shot_oracle(case, studentize):
    # Column blocks of 1, 2 and 3 pairs, with a ragged last block when the
    # pair count is not a multiple of the width, give the same maximum
    # as the whole B x m array, bit for bit, for each statistic of a
    # one- or two-statistic call.
    star, theta_hat, n, pairs, variant, falling = case
    B = star.shape[0]
    expected = [_one_shot_stats(star, theta_hat, n, pairs, s, variant)
                for s in studentize]
    if falling:
        assert all((e < 0).all() for e in expected)
    jj, kk = np.asarray(pairs).T
    for width in (1, 2, 3, len(pairs)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("ranksets.boot._BLOCK_BYTES", 8 * B * width)
            rows, var = _category_major(star, True in studentize)
            got = _pair_stats(rows, var, theta_hat, n, jj, kk, variant, studentize)
        assert got.shape == (len(studentize), B)
        for row, e in zip(got, expected):
            assert np.array_equal(row, e), width


_ZERO_COLUMNS = (
    # B = 3 draws over p = 5; columns 3 and 4 are zero in every draw.
    np.array([[0.5, 0.5, 0.0, 0.0, 0.0],
              [1.0, 0.0, 0.0, 0.0, 0.0],
              [0.25, 0.5, 0.25, 0.0, 0.0]]),
    np.array([0.5, 0.25, 0.25, 0.0, 0.0]),
    # (3, 4) is 0/0 in every draw, (1, 3) is c/0 and (0, 1) is c/0 in
    # the second draw; pairs repeat.
    [(3, 4), (1, 3), (0, 1), (3, 4), (1, 3), (2, 4)],
)


@pytest.mark.parametrize("case", [
    (np.array([[0.25, 0.75]]), np.array([0.5, 0.5]), [(0, 1), (1, 0)]),
    _ZERO_COLUMNS,
], ids=["p2_B1", "zero_columns"])
@pytest.mark.parametrize("variant", ["lower", "upper", "symm"])
@pytest.mark.parametrize("studentize", [(False,), (True,), (False, True)],
                         ids=["False", "True", "both"])
@pytest.mark.parametrize("one_pair_blocks", [False, True])
def test_pair_stats_never_writes_its_inputs(case, variant, studentize, one_pair_blocks):
    # The kernel evaluates its blocks in place; every write must land
    # in its own buffers, never in the resample rows, the variance
    # terms, the estimates or the indices it was given.  A two-statistic
    # call studentizes the block it has just read the unstudentized
    # maxima from, and each of its rows is the one-statistic call's.  An
    # upper maximum is walked as lower over the mirrored pairs, the way
    # _max_stats walks it.
    star, theta_hat, pairs = case[0].copy(), case[1].copy(), case[2]
    jj, kk = np.asarray(pairs).T
    if variant == "upper":
        jj, kk, variant = kk, jj, "lower"
    n = 4
    rows, var = _category_major(star, True in studentize)
    inputs = [star, theta_hat, jj, kk, rows] + ([var] if True in studentize else [])
    before = [x.copy() for x in inputs]
    with pytest.MonkeyPatch.context() as mp:
        if one_pair_blocks:
            mp.setattr("ranksets.boot._BLOCK_BYTES", 8 * star.shape[0])
        first = _pair_stats(rows, var, theta_hat, n, jj, kk, variant, studentize)
        second = _pair_stats(rows, var, theta_hat, n, jj, kk, variant, studentize)
        alone = [_pair_stats(rows, var, theta_hat, n, jj, kk, variant, (s,))[0]
                 for s in studentize]
    assert np.array_equal(first, second)
    assert np.array_equal(first, np.stack(alone))
    assert not np.isnan(first).any()
    for got, saved in zip(inputs, before):
        assert np.array_equal(got, saved)


@pytest.mark.parametrize("studentize", [(False,), (True,), (False, True)],
                         ids=["False", "True", "both"])
def test_pair_stats_buffers_stay_below_the_mapping_threshold(studentize):
    # Scratch buffers of 128 KiB or more are mapped on every call and
    # faulted in again; four below that, plus the (B,) running and block
    # maxima and the differences of the estimates, are the whole peak.
    # Both statistics in one pass add one more (B,) running maximum.
    B, p = 2048, 20
    counts = tuple(range(1, p + 1))
    star = _theta_star_cached.__wrapped__(counts, sum(counts), B, 0)
    theta_hat = np.asarray(counts, dtype=float) / sum(counts)
    rows, var = _category_major(star, True in studentize)
    jj, kk = np.triu_indices(p, 1)
    tracemalloc.start()
    try:
        _pair_stats(rows, var, theta_hat, sum(counts), jj, kk, "symm", studentize)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    maxima = 3 if len(studentize) == 1 else 4
    assert peak < 4 * 128 * 1024 + maxima * 8 * B + 8 * len(jj)


def _per_target_oracle(star, studentize, theta_hat, n, targets, kind):
    """Each target's own family of ``kind``, one one-statistic
    :func:`_pair_stats` call per row of :func:`_target_pairs`: the
    ``(T, B)`` maxima."""
    family = build_index_family(kind, tuple(int(j) for j in targets), star.shape[1])
    variant = "symm" if kind == "two_sided" else "lower"
    rows, var = _category_major(star, studentize)
    return np.stack([_pair_stats(rows, var, theta_hat, n, j, k, variant, (studentize,))[0]
                     for j, k in zip(*_target_pairs(family, "marginal"))])


@st.composite
def _marginal_case(draw):
    p = draw(st.integers(2, 15))
    counts = draw(st.lists(st.integers(0, 30), min_size=p, max_size=p))
    if sum(counts) == 0:
        counts[draw(st.integers(0, p - 1))] = 1
    star = _theta_star_cached.__wrapped__(
        tuple(counts), sum(counts), draw(st.sampled_from((1, 7, 100, 1000, 2000))),
        draw(st.integers(0, 2**32 - 1)),
    )
    theta_hat = np.asarray(counts, dtype=float) / sum(counts)
    every = draw(st.booleans())
    targets = range(p) if every else draw(st.sets(st.integers(0, p - 1), min_size=1))
    targets = np.asarray(sorted(targets))
    kind = draw(st.sampled_from(("two_sided", "lower", "upper")))
    if kind != "two_sided" and draw(st.booleans()):
        # Falling estimates: the first target trails (lower) or leads
        # (upper) every other category by more than any resampled
        # difference, so each statistic of its row is negative and a
        # running maximum must not start from zero.
        rank = (np.arange(p) - targets[0]) % p
        theta_hat = theta_hat + 3.0 * (rank if kind == "lower" else p - rank)
    return star, theta_hat, sum(counts), targets, kind


def _zero_columns_case(targets, kind):
    return _ZERO_COLUMNS[0], _ZERO_COLUMNS[1], 4, np.asarray(targets), kind


@settings(max_examples=200, deadline=None)
@given(_marginal_case(), st.sampled_from(_STATISTICS), st.sampled_from((1, 2, 3, None)))
@example((np.array([[0.25, 0.75]]), np.array([0.5, 0.5]), 4, np.arange(2), "two_sided"),
         (True,), None)
@example((np.array([[0.25, 0.75]]), np.array([0.5, 0.5]), 4, np.arange(2), "two_sided"),
         (False, True), None)
@example(_zero_columns_case(range(5), "two_sided"), (True,), None)
@example(_zero_columns_case(range(5), "two_sided"), (True, False), 1)
@example(_zero_columns_case((1, 3, 4), "two_sided"), (False,), None)
@example(_zero_columns_case((1, 3, 4), "two_sided"), (False, True), 2)
@example(_zero_columns_case(range(5), "lower"), (True, False), 1)
@example(_zero_columns_case((1, 3, 4), "lower"), (False, True), None)
@example(_zero_columns_case(range(5), "upper"), (False, True), 3)
@example(_zero_columns_case((1, 3, 4), "upper"), (True,), None)
def test_marginal_kernel_equals_per_target_pair_stats(case, studentize, width):
    # Every kind, zero cells (0/0 and c/0 pairs), all-zero columns,
    # falling estimates, partial and full target sets, one resample or
    # many, blocks of 1, 2 or 3 pairs or the default width: evaluating
    # each unordered pair once and folding it, or its mirror, into both
    # ends' maxima gives every target's own calibration, bit for bit and
    # sign for sign, for each statistic of a one- or two-statistic call.
    star, theta_hat, n, targets, kind = case
    with pytest.MonkeyPatch.context() as mp:
        if width is not None:
            mp.setattr("ranksets.boot._BLOCK_BYTES", 8 * star.shape[0] * width)
        got = _marginal_stats(star, studentize, theta_hat, n, targets, kind)
    assert got.shape == (len(studentize), len(targets), star.shape[0])
    falling = kind != "two_sided" and np.ptp(theta_hat) > 1.0
    for row, s in zip(got, studentize):
        expected = _per_target_oracle(star, s, theta_hat, n, targets, kind)
        if falling:
            assert (expected[0] < 0).all()
        assert np.array_equal(row, expected)
        assert np.array_equal(np.signbit(row), np.signbit(expected))


def _drawn_counts(draw, p):
    """Counts of ``p`` cells: drawn with zeros, all tied, or one non-zero cell."""
    shape = draw(st.sampled_from(("drawn", "uniform", "single")))
    if shape == "drawn":
        counts = draw(st.lists(st.integers(0, 60), min_size=p, max_size=p))
        if sum(counts) == 0:
            counts[draw(st.integers(0, p - 1))] = 1
    elif shape == "uniform":
        counts = [draw(st.integers(1, 30))] * p
    else:
        counts = [0] * p
        counts[draw(st.integers(0, p - 1))] = draw(st.integers(1, 50))
    return counts


@st.composite
def _band_case(draw):
    p = draw(st.integers(2, 40))
    counts = _drawn_counts(draw, p)
    star = _theta_star_cached.__wrapped__(
        tuple(counts), sum(counts), draw(st.sampled_from((1, 7, 2000))),
        draw(st.integers(0, 2**32 - 1)),
    )
    J0 = draw(st.sampled_from(("every", "all_but_one", "subset")))
    if J0 == "every":
        J0 = None
    elif J0 == "all_but_one":
        J0 = tuple(j for j in range(p) if j != draw(st.integers(0, p - 1))) or None
    else:
        J0 = tuple(sorted(draw(st.sets(st.integers(0, p - 1), min_size=1))))
    kind = draw(st.sampled_from(("two_sided", "lower", "upper")))
    scope = draw(st.sampled_from(("simultaneous", "marginal")))
    return star, counts, build_index_family(kind, J0, p), scope


@settings(max_examples=150, deadline=None)
@given(_band_case(), st.sampled_from(_STATISTICS))
def test_band_calibration_equals_one_statistic_pair_walk(case, studentize):
    # p on both sides of the all-pairs crossover, zero cells, ties, a
    # single non-zero cell, J0 subsets, both scopes, all three kinds and
    # B at and across block edges: every statistic of a one- or
    # two-statistic calibration has the maxima, bit for bit, of one
    # one-statistic pair walk per row of the family.
    star, counts, family, scope = case
    n = sum(counts)
    theta_hat = np.asarray(counts, dtype=float) / n
    seen = []
    quantiles = boot._quantiles

    def recorded(stats, level):
        seen.append(stats)
        return quantiles(stats, level)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("ranksets.boot._quantiles", recorded)
        crit = _band_critical_values(star, theta_hat, n, family, scope, studentize, 0.05)
    (stats,) = seen
    jj, kk = _target_pairs(family, scope)
    variant = "symm" if family.kind == "two_sided" else "lower"
    assert crit.shape == (len(studentize), len(jj))
    for i, s in enumerate(studentize):
        rows, var = _category_major(star, s)
        expected = np.stack([_pair_stats(rows, var, theta_hat, n, j, k, variant, (s,))[0]
                             for j, k in zip(jj, kk)], axis=1)
        assert np.array_equal(stats[:, i], expected)
        assert np.array_equal(np.signbit(stats[:, i]), np.signbit(expected))
        assert np.array_equal(crit[i], quantiles(expected, 0.95))


_KERNELS = ("_category_major", "_pair_stats", "_marginal_stats",
            "_all_pairs_symm_stats")


@pytest.mark.parametrize("p, kind, scope, J0, calls", [
    (8, "two_sided", "marginal", None, {"_category_major": 1, "_marginal_stats": 1}),
    (8, "two_sided", "simultaneous", None, {"_category_major": 1, "_pair_stats": 1}),
    (8, "two_sided", "simultaneous", (0, 2, 5), {"_category_major": 1, "_pair_stats": 1}),
    (8, "lower", "simultaneous", None, {"_category_major": 1, "_pair_stats": 1}),
    (8, "upper", "simultaneous", (1, 3), {"_category_major": 1, "_pair_stats": 1}),
    (8, "lower", "marginal", (0, 2, 5), {"_category_major": 1, "_marginal_stats": 1}),
    (8, "upper", "marginal", None, {"_category_major": 1, "_marginal_stats": 1}),
    (30, "two_sided", "simultaneous", None, {"_all_pairs_symm_stats": 2}),
    (30, "upper", "simultaneous", None, {"_all_pairs_symm_stats": 2}),
], ids=["marginal", "joint", "joint-subset", "lower-every", "upper-subset",
        "lower-marginal", "upper-marginal", "wide-joint", "wide-upper-every"])
def test_band_methods_share_one_copy_and_one_kernel_call_per_table(
    p, kind, scope, J0, calls, monkeypatch
):
    # boot and bootStud together make one category-major copy per table
    # and one kernel call per row of the family, asking for both
    # statistics; only the all-pairs kernel, whose levels follow one
    # statistic's scores, runs once per statistic.
    R = 3
    x = np.random.default_rng(p).multinomial(60 * p, np.full(p, 1.0 / p), size=R)
    seen = {name: [] for name in _KERNELS}
    for name in _KERNELS:
        def counted(*args, _name=name, _real=getattr(boot, name)):
            seen[_name].append(args[1] if _name != "_pair_stats" else args[7])
            return _real(*args)
        monkeypatch.setattr(boot, name, counted)
    together = dispatch._rank_bounds(("boot", "bootStud"), x, 60 * p, J0, kind,
                                     0.05, 50, (0, 1, 2), scope)
    assert {name: len(args) for name, args in seen.items() if args} == {
        name: R * count for name, count in calls.items()
    }
    for name in ("_pair_stats", "_marginal_stats"):
        assert all(args == (False, True) for args in seen[name])
    for method in ("boot", "bootStud"):
        alone = dispatch._rank_bounds((method,), x, 60 * p, J0, kind, 0.05, 50,
                                      (0, 1, 2), scope)
        for got, expected in zip(together[method], alone[method]):
            assert np.array_equal(got, expected)


def _sigma_max_oracle(theta_hat, targets):
    # Every ordered pair of each target evaluated, (j, k) and (k, j) alike.
    p = theta_hat.shape[-1]
    others = np.arange(p)
    j = np.asarray(targets)[:, None]
    sigma = _sigma_hat(theta_hat, j, others[None, :])
    sigma[..., j == others] = 0.0
    return sigma.max(axis=-1)


@pytest.mark.parametrize("p", [2, 3, 7, 30, 100, 300])
@pytest.mark.parametrize("R", [None, 1, 5])
def test_sigma_max_evaluates_each_pair_once_bit_for_bit(p, R):
    # Zero cells, every target, a proper subset, the last category alone
    # and stacked tables, in blocks of 1, 2 and 3 targets and in the
    # default blocks: folding each pair of two targets into both ends'
    # maxima gives the full evaluation's scales bit for bit.
    rng = np.random.default_rng(p)
    counts = rng.integers(1, 6, size=(p,) if R is None else (R, p))
    if p > 3:  # at p <= 3 a zero cell can leave every scale 0
        counts[..., ::3] = 0
    theta_hat = counts / counts.sum(axis=-1, keepdims=True)
    subsets = [np.arange(p), np.arange(0, p, 2), np.array([p - 1]),
               np.sort(rng.choice(p, size=max(1, p // 3), replace=False))]
    for targets in subsets:
        expected = _sigma_max_oracle(theta_hat, targets)
        for width in (1, 2, 3, None):
            with pytest.MonkeyPatch.context() as mp:
                if width is not None:
                    mp.setattr("ranksets.boot._BLOCK_BYTES", 8 * theta_hat.size * width)
                got = _sigma_max(theta_hat, targets)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected), (targets, width)
            assert not np.signbit(got).any()


# ---------------------------------------------------------------------------
# _all_pairs_symm_stats (every unordered pair, exact pairs around the most
# deviant categories and a proven bound on the rest)


@st.composite
def _all_pairs_case(draw, max_p=40):
    p = draw(st.integers(2, max_p))
    counts = _drawn_counts(draw, p)
    scale = draw(st.sampled_from((1, 1, 1, 1000, 10**5)))
    counts = [c * scale for c in counts]
    star = _theta_star_cached.__wrapped__(
        tuple(counts), sum(counts), draw(st.integers(1, 60)),
        draw(st.integers(0, 2**32 - 1)),
    )
    theta_hat = np.asarray(counts, dtype=float) / sum(counts)
    jj, kk = np.triu_indices(p, 1)
    return star, theta_hat, sum(counts), jj, kk


def _symm_oracle(star, studentize, theta_hat, n, jj, kk):
    rows, var = _category_major(star, studentize)
    return _pair_stats(rows, var, theta_hat, n, jj, kk, "symm", (studentize,))[0]


def _fixed_all_pairs_case(counts, B, seed):
    n, p = sum(counts), len(counts)
    star = _theta_star_cached.__wrapped__(counts, n, B, seed)
    return (star, np.asarray(counts, dtype=float) / n, n, *np.triu_indices(p, 1))


@settings(max_examples=200, deadline=None)
@given(_all_pairs_case(), st.booleans())
# Tied tables on which some resample of seed 0 runs all p - 1 levels.
@example(_fixed_all_pairs_case((30,) * 5, 200, 0), False)
@example(_fixed_all_pairs_case((30,) * 5, 200, 0), True)
@example(_fixed_all_pairs_case((2, 1, 1), 200, 0), False)
@example(_fixed_all_pairs_case((2, 1, 1), 200, 0), True)
def test_all_pairs_kernel_equals_pair_stats(case, studentize):
    # Zero cells (0/0 and c/0 pairs), ties, single-cell tables and n
    # from 1 to over 1e8.
    star, theta_hat, n, jj, kk = case
    expected = _symm_oracle(star, studentize, theta_hat, n, jj, kk)
    got = _all_pairs_symm_stats(star, studentize, theta_hat, n)
    assert np.array_equal(got, expected)


@settings(max_examples=60, deadline=None)
@given(_all_pairs_case(), st.booleans())
def test_all_pairs_kernel_is_block_size_invariant(case, studentize):
    # Blocks of 1, 2 and 3 resamples, with a ragged last block, and one
    # block of all of them give the same statistics bit for bit.
    star, theta_hat, n, jj, kk = case
    B, p = star.shape
    expected = _symm_oracle(star, studentize, theta_hat, n, jj, kk)
    for width in (1, 2, 3, B):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("ranksets.boot._BLOCK_BYTES", 8 * p * width)
            got = _all_pairs_symm_stats(star, studentize, theta_hat, n)
        assert np.array_equal(got, expected), width


@pytest.mark.parametrize("studentize", [False, True])
@pytest.mark.parametrize("one_resample_blocks", [False, True])
def test_all_pairs_kernel_never_writes_its_inputs(studentize, one_resample_blocks):
    # Zero cells give 0/0 and c/0 pairs.  Every write lands in the
    # kernel's own buffers.
    counts = (9, 0, 4, 4, 1, 0, 7, 2, 0, 3, 1, 1, 5, 0, 2, 6, 1, 1, 0, 3)
    n, p = sum(counts), len(counts)
    star = _theta_star_cached.__wrapped__(counts, n, 40, 5).copy()
    theta_hat = np.asarray(counts, dtype=float) / n
    jj, kk = np.triu_indices(p, 1)
    inputs = [star, theta_hat, jj, kk]
    before = [x.copy() for x in inputs]
    with pytest.MonkeyPatch.context() as mp:
        if one_resample_blocks:
            mp.setattr("ranksets.boot._BLOCK_BYTES", 8 * p)
        first = _all_pairs_symm_stats(star, studentize, theta_hat, n)
        second = _all_pairs_symm_stats(star, studentize, theta_hat, n)
    assert np.array_equal(first, second)
    assert np.array_equal(first, _symm_oracle(star, studentize, theta_hat, n, jj, kk))
    for got, saved in zip(inputs, before):
        assert np.array_equal(got, saved)


@pytest.mark.parametrize("counts", [(30,) * 5, (2, 1, 1)], ids=["p5", "p3"])
@pytest.mark.parametrize("studentize", [False, True])
def test_all_pairs_kernel_never_calls_the_pair_walk(studentize, counts, monkeypatch):
    # On these tied tables the block of 200 resamples stays open until
    # level p - 1, when every pair has an end taken: the running maxima
    # are then exact with no walk over all pairs.
    star, theta_hat, n, jj, kk = _fixed_all_pairs_case(counts, 200, 0)
    expected = _symm_oracle(star, studentize, theta_hat, n, jj, kk)
    levels = []

    def counted(*args):
        levels.append(len(args[4]))
        return _pairs_with(*args)

    def refused(*args):
        raise AssertionError("the kernel walked every pair")

    monkeypatch.setattr("ranksets.boot._pairs_with", counted)
    monkeypatch.setattr("ranksets.boot._pair_stats", refused)
    monkeypatch.setattr("ranksets.boot._category_major", refused)
    got = _all_pairs_symm_stats(star, studentize, theta_hat, n)
    assert len(levels) == len(counts) - 1  # one block, every level
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("studentize", [False, True])
def test_joint_symm_calibrations_use_the_all_pairs_kernel(studentize, monkeypatch):
    # The joint two-sided readout and a symm difference set over a mask
    # whose pairs, either way round, are every pair go through the
    # kernel, and equi over every ordered pair through it once for both
    # one-sided shapes; a J0 that leaves out a pair, marginal rows and p
    # below the crossover do not.
    calls = []
    kernel = _all_pairs_symm_stats

    def recorded(theta_star, *args):
        calls.append(theta_star.shape[1])
        return kernel(theta_star, *args)

    monkeypatch.setattr("ranksets.boot._all_pairs_symm_stats", recorded)
    p = _ALL_PAIRS_MIN_P
    sample = MultinomialSample(tuple(range(3, 3 + p)))
    cfg = BootstrapConfig(B=50, seed=0)
    boot_rank_cs(sample, config=cfg, studentize=studentize)
    difference_cs(sample, cfg, mask=np.triu(np.ones((p, p), dtype=bool), 1),
                  studentize=studentize)
    assert calls == [p, p]
    boot_rank_cs(sample, range(p - 2), config=cfg, studentize=studentize)
    boot_rank_cs(sample, config=cfg, scope="marginal", studentize=studentize)
    boot_rank_cs(MultinomialSample(tuple(range(3, 2 + p))), config=cfg,
                 studentize=studentize)
    assert calls == [p, p]
    difference_cs(sample, cfg, shape="equi", studentize=studentize)
    assert calls == [p, p, p]


@settings(max_examples=120, deadline=None)
@given(_all_pairs_case(max_p=59), st.sampled_from(("lower", "upper")),
       st.sampled_from(_STATISTICS))
def test_joint_one_sided_maxima_over_every_ordered_pair_are_symmetric(
    case, kind, studentize
):
    # A one-sided family whose J0 is every category holds every ordered
    # pair, and a pair's mirror negates its lower statistic over the same
    # denominator, so the lower maxima are the symm maxima over every
    # unordered pair, bit for bit: zero cells (0/0 and c/0), ties and
    # single-cell tables, p from 2 to 59 (from 30 through the all-pairs
    # kernel).
    star, theta_hat, n, _, _ = case
    p = star.shape[1]
    mask = build_index_family(kind, None, p).mask
    jj, kk = np.nonzero(mask)
    assert len(jj) == p * (p - 1)
    got = _max_stats(star, studentize, theta_hat, n, mask, "lower")
    for row, s in zip(got, studentize):
        rows, var = _category_major(star, s)
        expected = _pair_stats(rows, var, theta_hat, n, jj, kk, "lower", (s,))[0]
        assert np.array_equal(row, expected)
        assert np.array_equal(np.signbit(row), np.signbit(expected))


def test_all_pairs_kernel_memory_is_one_block_at_p_100():
    # One joint calibration at p = 100, B = 1000 holds blocks of
    # resamples, never the p x B category-major copies that the pair
    # walk needs: its traced peak stays within 1 MiB of the walk's.
    weights = 1.0 / np.arange(1, 101) ** 0.5
    counts = np.random.default_rng(0).multinomial(5_000, weights / weights.sum())
    counts = tuple(int(c) for c in counts)
    star = _theta_star_cached.__wrapped__(counts, 5_000, 1_000, 0)
    theta_hat = np.asarray(counts, dtype=float) / 5_000
    jj, kk = np.triu_indices(100, 1)
    peaks = []
    for calibrate in (lambda: _symm_oracle(star, True, theta_hat, 5_000, jj, kk),
                      lambda: _all_pairs_symm_stats(star, True, theta_hat, 5_000)):
        tracemalloc.start()
        try:
            calibrate()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**20


# ---------------------------------------------------------------------------
# resample


def test_resample_degenerate_vector_is_deterministic():
    rng = np.random.default_rng(0)
    for _ in range(5):
        boot = resample((1.0, 0.0, 0.0), 50, rng)
        assert boot.counts == (50, 0, 0)
        assert boot.n == 50


def test_resample_mean_matches_expectation_within_four_sigma():
    rng = np.random.default_rng(123)
    n, theta = 1000, (0.3, 0.7)
    draws = np.array([resample(theta, n, rng).counts[0] for _ in range(2000)])
    se_mean = math.sqrt(n * 0.3 * 0.7 / 2000)
    assert abs(draws.mean() - 300.0) <= 4 * se_mean


def test_resample_goodness_of_fit_smoke():
    rng = np.random.default_rng(42)
    theta = (0.5, 0.3, 0.2)
    boot = resample(theta, 10_000, rng)
    chi2 = sum(
        (obs - 10_000 * t) ** 2 / (10_000 * t) for obs, t in zip(boot.counts, theta)
    )
    assert chi2 < 20.0  # df = 2; far beyond any plausible quantile


# ---------------------------------------------------------------------------
# difference_cs


def test_difference_cs_sigma_uses_plugin_variance_of_a_difference():
    dcs = difference_cs(MELBOURNE, BootstrapConfig(B=50, seed=0))
    th = MELBOURNE.theta_hat
    for j, k in zip(*np.nonzero(dcs.mask)):
        expected = math.sqrt(
            th[j] * (1 - th[j]) + th[k] * (1 - th[k]) + 2 * th[j] * th[k]
        )
        assert dcs.sigma[j, k] == pytest.approx(expected, rel=1e-12)
    assert np.isnan(dcs.sigma[~dcs.mask]).all()
    assert not dcs.sigma.flags.writeable


def test_difference_cs_defaults_to_all_ordered_pairs():
    dcs = difference_cs(MELBOURNE, BootstrapConfig(B=50, seed=0))
    assert np.count_nonzero(dcs.mask) == 7 * 6
    assert (dcs.mask == ~np.eye(7, dtype=bool)).all()
    assert dcs.pairs == tuple(
        (j, k) for j in range(7) for k in range(7) if j != k
    )


def test_difference_cs_symm_width_without_studentizing_is_constant():
    cfg = BootstrapConfig(B=400, seed=2)
    dcs = difference_cs(MELBOURNE, cfg, shape="symm", studentize=False)
    width = 2 * dcs.crit[0] / math.sqrt(MELBOURNE.n)
    th = MELBOURNE.theta_hat
    d_hat = (th[:, None] - th[None, :])[dcs.mask]
    lo, hi = dcs.lo[dcs.mask], dcs.hi[dcs.mask]
    assert hi - lo == pytest.approx(np.full(42, width), rel=1e-12)
    assert ((lo <= d_hat) & (d_hat <= hi)).all()


def test_difference_cs_one_sided_shapes_leave_one_end_infinite():
    cfg = BootstrapConfig(B=200, seed=5)
    lo_cs = difference_cs(MELBOURNE, cfg, shape="lower")
    up_cs = difference_cs(MELBOURNE, cfg, shape="upper")
    assert (lo_cs.hi[lo_cs.mask] == math.inf).all()
    assert (up_cs.lo[up_cs.mask] == -math.inf).all()


def test_difference_cs_equi_is_intersection_of_half_level_one_sided():
    cfg = BootstrapConfig(B=500, seed=3)
    equi = difference_cs(MELBOURNE, cfg, alpha=0.10, shape="equi")
    one_lo = difference_cs(MELBOURNE, cfg, alpha=0.05, shape="lower")
    one_up = difference_cs(MELBOURNE, cfg, alpha=0.05, shape="upper")
    assert np.array_equal(equi.lo, one_lo.lo, equal_nan=True)
    assert np.array_equal(equi.hi, one_up.hi, equal_nan=True)
    assert equi.crit == (one_lo.crit[0], one_up.crit[0])


def test_difference_cs_zero_frequency_pair_degenerates_to_a_point():
    deg = MultinomialSample((5, 0, 0))
    dcs = difference_cs(deg, BootstrapConfig(B=100, seed=1))
    # Every bootstrap ratio is 0/0 -> 0, so the critical value is 0, and
    # the (1, 2) pair has zero scale: its interval is the single point 0.
    assert dcs.crit == (0.0,)
    assert dcs.interval((1, 2)) == (0.0, 0.0)
    assert dcs.interval((0, 1)) == (1.0, 1.0)


def test_difference_cs_zero_critical_value_is_positive_zero():
    # A pair of two empty cells has an unstudentized statistic of zero in
    # every resample; its upper critical value was once -0.0, from the
    # negated lower statistic, and is +0.0 as the lower one is.
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 2] = True
    for shape in ("upper", "equi"):
        dcs = difference_cs(MultinomialSample((5, 0, 0)), BootstrapConfig(B=20, seed=0),
                            mask=mask, shape=shape, studentize=False)
        assert all(c == 0.0 and math.copysign(1.0, c) > 0 for c in dcs.crit)
        assert dcs.hi[1, 2] == 0.0


def test_difference_cs_contains_and_covers():
    dcs = difference_cs(MELBOURNE, BootstrapConfig(B=300, seed=9))
    th = MELBOURNE.theta_hat
    assert dcs.covers(th)  # symm intervals are centered on d_hat
    assert dcs.contains((0, 1), th[0] - th[1])


def test_difference_cs_rejects_bad_alpha():
    with pytest.raises(ValueError):
        difference_cs(MELBOURNE, BootstrapConfig(B=10, seed=0), alpha=0.0)
    with pytest.raises(ValueError):
        difference_cs(MELBOURNE, BootstrapConfig(B=10, seed=0), alpha=1.0)


def test_difference_cs_rejects_empty_pairs():
    with pytest.raises(ValueError, match="pairs must be non-empty"):
        difference_cs(
            MELBOURNE, BootstrapConfig(B=10, seed=0), mask=np.zeros((7, 7), bool)
        )


def _mask_with(*pairs, p=7):
    mask = np.zeros((p, p), dtype=bool)
    for j, k in pairs:
        mask[j, k] = True
    return mask


@pytest.mark.parametrize(
    "mask, match",
    [
        (np.ones((7, 6), dtype=bool), "shape"),
        (_mask_with((0, 1), p=8), "shape"),
        ([(-1, 0)], "shape"),  # a pair list, which once wrapped to (6, 0)
        ([(0, 7)], "shape"),  # a pair list, which once raised IndexError
        (_mask_with((0, 1), (2, 2)), "diagonal"),
        (np.eye(7, dtype=bool), "diagonal"),
        (np.zeros((7, 7), dtype=bool), "pairs must be non-empty"),
    ],
    ids=["7x6", "8x8", "pair-list-negative", "pair-list-out-of-range",
         "one-diagonal-cell", "identity", "empty"],
)
def test_difference_cs_rejects_bad_masks(mask, match):
    with pytest.raises(ValueError, match=match):
        difference_cs(MELBOURNE, BootstrapConfig(B=10, seed=0), mask=mask)


def test_difference_cs_pair_outside_mask_raises_key_error():
    mask = _mask_with((0, 1), (1, 0))
    dcs = difference_cs(MELBOURNE, BootstrapConfig(B=10, seed=0), mask=mask)
    assert dcs.pairs == ((0, 1), (1, 0))
    lo, hi = dcs.interval((0, 1))
    assert (lo, hi) == (-dcs.hi[1, 0], -dcs.lo[1, 0])  # symm is mirror-symmetric
    for pair in [(0, 2), (2, 2), (-7, 1), (6, 0), (0, 7)]:
        with pytest.raises(KeyError):
            dcs.interval(pair)
        with pytest.raises(KeyError):
            dcs.contains(pair, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_difference_cs_covers_equals_per_pair_loop(data):
    # covers(theta) is one vectorized check; the per-pair loop over
    # contains() is the reference.  theta is a perturbed estimate, so
    # both outcomes occur.
    p = data.draw(st.integers(2, 8))
    counts = data.draw(st.lists(st.integers(0, 30), min_size=p, max_size=p))
    counts[data.draw(st.integers(0, p - 1))] += 1
    sample = MultinomialSample(tuple(counts))
    cells = data.draw(st.lists(st.booleans(), min_size=p * p, max_size=p * p))
    mask = np.array(cells).reshape(p, p) & ~np.eye(p, dtype=bool)
    mask[0, 1] = True
    shape = data.draw(st.sampled_from(["lower", "upper", "symm", "equi"]))
    cfg = BootstrapConfig(B=30, seed=data.draw(st.integers(0, 99)))
    dcs = difference_cs(sample, cfg, 0.1, mask, shape=shape)
    noise = np.array(data.draw(st.lists(st.floats(0.0, 0.2), min_size=p, max_size=p)))
    theta = (sample.theta_hat + noise) / (1.0 + noise.sum())
    loop = all(dcs.contains((j, k), theta[j] - theta[k]) for j, k in dcs.pairs)
    assert dcs.covers(theta) == loop
    with pytest.raises(ValueError):
        dcs.covers(np.full(p + 1, 1.0 / (p + 1)))


_MASK_KINDS = ("full", "closed", "arbitrary", "upper", "lower")


def _drawn_mask(draw, p, kind):
    """A ``p x p`` mask of ``kind``: every ordered pair, closed under
    transpose, any pairs, or pairs above or below the diagonal (at times
    all of them)."""
    if kind == "full":
        return None
    # Cells from a drawn seed and density: p * p drawn booleans would
    # outgrow hypothesis' buffer at p = 59.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((p, p)) < draw(st.sampled_from((0.05, 0.5, 0.95)))
    np.fill_diagonal(mask, False)
    if kind == "closed":
        mask |= mask.T
    elif kind in ("upper", "lower"):
        mask = np.triu(np.ones((p, p), dtype=bool) if draw(st.booleans()) else mask, 1)
        if kind == "lower":
            mask = mask.T.copy()
    if not mask.any():
        mask[0, 1] = True
        if kind == "closed":
            mask[1, 0] = True
    return mask


def _difference_cs_oracle(sample, cfg, alpha, mask, shape, studentize):
    """``(crit, lo, hi, sigma)`` of :func:`difference_cs` from the one-shot
    formula over the mask's ordered pairs, once per one-sided shape."""
    n, theta_hat = sample.n, sample.theta_hat
    star = _theta_star_cached(sample.counts, n, cfg.B, cfg.seed)
    pairs = list(zip(*np.nonzero(mask)))
    variants = ("lower", "upper") if shape == "equi" else (shape,)
    crit = tuple(
        bootstrap_quantile(
            _one_shot_stats(star, theta_hat, n, pairs, studentize, v),
            1.0 - alpha / len(variants),
        )
        for v in variants
    )
    jj, kk = np.nonzero(mask)
    ends = boot._difference_bounds(theta_hat, jj, kk, n, crit, shape, studentize)
    return (crit,) + tuple(boot._on_mask(mask, end) for end in ends)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", _MASK_KINDS)
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_difference_cs_equals_the_pair_walk_over_every_ordered_pair(kind, shape, data):
    # Every shape and statistic over full, transpose-closed, arbitrary
    # and triangular masks, p from 2 to 59 (across the all-pairs
    # crossover), zero cells, ties and single-cell tables, B of 1 and 7:
    # the kernel chooser gives the intervals of the one-shot formula over
    # the mask's ordered pairs bit for bit, and critical values equal to
    # its, a zero one being +0.
    p = data.draw(st.integers(2, 59))
    sample = MultinomialSample(tuple(_drawn_counts(data.draw, p)))
    mask = _drawn_mask(data.draw, p, kind)
    studentize = data.draw(st.booleans())
    cfg = BootstrapConfig(B=data.draw(st.sampled_from((1, 7))),
                          seed=data.draw(st.integers(0, 2**32 - 1)))
    got = difference_cs(sample, cfg, 0.1, mask, shape=shape, studentize=studentize)
    crit, *ends = _difference_cs_oracle(sample, cfg, 0.1, got.mask, shape, studentize)
    assert got.crit == crit
    assert not any(c == 0.0 and math.copysign(1.0, c) < 0 for c in got.crit)
    for end, expected in zip((got.lo, got.hi, got.sigma), ends):
        assert np.array_equal(end, expected, equal_nan=True)
        assert np.array_equal(np.signbit(end), np.signbit(expected))


def test_one_sided_statistics_never_walk_a_transpose_closed_pair_set(monkeypatch):
    # A pair's mirror negates its one-sided statistic, so a one-sided
    # maximum over a pair set closed under transpose is the symm one and
    # must not reach the pair walk as a one-sided variant: the rank band
    # (every kind and scope, J0 every category and subsets) and
    # difference_cs (every shape, every kind of mask).
    walked = []
    pair_stats = boot._pair_stats

    def guarded(rows, var, theta_hat, n, jj, kk, variant, studentize):
        if variant != "symm":
            pairs = set(zip(jj.tolist(), kk.tolist()))
            assert pairs != {(k, j) for j, k in pairs}, "one-sided walk of a closed set"
            walked.append(variant)
        return pair_stats(rows, var, theta_hat, n, jj, kk, variant, studentize)

    monkeypatch.setattr(boot, "_pair_stats", guarded)
    rng = np.random.default_rng(0)
    for p in (2, 8, _ALL_PAIRS_MIN_P + 1):
        sample = MultinomialSample(tuple(int(c) for c in rng.integers(0, 40, p)) + (1,))
        cfg = BootstrapConfig(B=20, seed=int(rng.integers(100)))
        q = sample.p
        for J0 in (None, tuple(range(q - 1)), (0,), (1, q - 1)):
            for kind in ("two_sided", "lower", "upper"):
                for scope in ("simultaneous", "marginal"):
                    for method in ("boot", "bootStud"):
                        rank_cs(method, sample, J0, kind, 0.05, cfg, scope)
        closed = rng.random((q, q)) < 0.3
        closed |= closed.T
        for mask in (None, closed, rng.random((q, q)) < 0.3,
                     np.triu(np.ones((q, q), dtype=bool), 1)):
            if mask is not None:
                np.fill_diagonal(mask, False)
                mask[0, 1] = mask[1, 0] = True
            for shape in SHAPES:
                difference_cs(sample, cfg, 0.05, mask, shape=shape, studentize=True)
    assert {"lower"} == set(walked)


def test_difference_cs_memory_is_bounded_at_p_1000():
    # Every ordered pair at p = 1000 is 999,000 pairs.  Intervals and
    # scales are p x p arrays over the mask, so the result holds no
    # pair tuples or per-pair dicts (which once peaked at 363 MiB here).
    weights = 1.0 / np.arange(1, 1001) ** 0.5
    counts = np.random.default_rng(0).multinomial(2_000, weights / weights.sum())
    sample = MultinomialSample(tuple(int(c) for c in counts))
    _theta_star_cached.cache_clear()
    tracemalloc.start()
    try:
        dcs = difference_cs(sample, BootstrapConfig(B=200, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
    assert dcs.lo.shape == (1000, 1000)


@pytest.mark.parametrize("kind", ["two_sided", "lower"])
def test_calibration_memory_is_bounded_at_p_200(kind):
    # p = 200 calibrates 19,900 (two-sided) or 39,800 (lower) pairs; a
    # B x m float array of them alone would be 80 or 159 MB at B = 500.
    # Walking the pairs in blocks keeps the traced peak, which covers
    # numpy's buffers, to O(B * p) plus the per-pair results.
    weights = 1.0 / np.arange(1, 201) ** 0.5
    counts = np.random.default_rng(0).multinomial(100_000, weights / weights.sum())
    sample = MultinomialSample(tuple(int(c) for c in counts))
    _theta_star_cached.cache_clear()
    tracemalloc.start()
    try:
        rank_cs("bootStud", sample, kind=kind, config=BootstrapConfig(B=500, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_joint_readout_memory_is_bounded_at_p_1000():
    # The joint readout calibrates 499,500 unordered pairs.  It reads
    # only the critical value and the largest scale, so it keeps index
    # arrays, never a list of pair tuples or per-pair dicts (which
    # once held about 240 MB here).
    weights = 1.0 / np.arange(1, 1001) ** 0.5
    counts = np.random.default_rng(0).multinomial(100_000, weights / weights.sum())
    sample = MultinomialSample(tuple(int(c) for c in counts))
    _theta_star_cached.cache_clear()
    tracemalloc.start()
    try:
        rank_cs("bootStud", sample, config=BootstrapConfig(B=200, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20


def test_difference_cs_marginal_coverage_two_categories():
    # p = 2, theta = (.5, .5), n = 2000: the studentized symmetric band
    # should cover the zero true difference at close to nominal rate.
    rng = np.random.default_rng(77)
    reps, n = 400, 2000
    hits = 0
    for i in range(reps):
        x = int(rng.binomial(n, 0.5))
        x = min(max(x, 1), n - 1)
        sample = MultinomialSample((x, n - x))
        dcs = difference_cs(sample, BootstrapConfig(B=400, seed=1_000 + i))
        hits += dcs.contains((0, 1), 0.0)
    assert abs(hits / reps - 0.95) <= 0.04


# ---------------------------------------------------------------------------
# boot_rank_cs: the constant-width band readout


def test_rank_cs_band_threshold_is_crit_times_largest_scale():
    # Two-sided sets calibrate the symmetric shape on the pairs anchored
    # at J0; one-sided sets calibrate the lower shape on their own family.
    th = MELBOURNE.theta_hat
    for J0 in (None, (0,), (3, 6)):
        targets = tuple(range(7)) if J0 is None else J0
        for kind in ("two_sided", "lower", "upper"):
            if kind == "two_sided":
                calibrated = build_index_family("upper", targets, 7)
                shape = "symm"
            else:
                calibrated, shape = build_index_family(kind, targets, 7), "lower"
            cfg = BootstrapConfig(B=500, seed=0)
            dcs = difference_cs(MELBOURNE, cfg, 0.05, calibrated.mask, shape=shape)
            half = _band_half_width(
                dcs.crit[0], np.nanmax(dcs.sigma), MELBOURNE.n
            )
            assert half == pytest.approx(
                dcs.crit[0] * np.nanmax(dcs.sigma) / math.sqrt(MELBOURNE.n),
                rel=1e-12,
            )
            manual = []
            for j in targets:
                beaten_by = sum(th[k] - th[j] > half for k in range(7) if k != j)
                beats = sum(th[j] - th[k] > half for k in range(7) if k != j)
                lo = 1 if kind == "upper" else 1 + beaten_by
                hi = 7 if kind == "lower" else 7 - beats
                manual.append((lo, hi))
            rs = boot_rank_cs(
                MELBOURNE, J0, kind, config=BootstrapConfig(B=500, seed=0)
            )
            assert rs.J0 == targets
            assert [rs.interval(j) for j in targets] == manual, (J0, kind)


@st.composite
def _table_and_targets(draw):
    p = draw(st.integers(2, 12))
    counts = draw(st.lists(st.integers(0, 40), min_size=p, max_size=p))
    if sum(counts) == 0:
        counts[draw(st.integers(0, p - 1))] = 1
    J0 = draw(st.sets(st.integers(0, p - 1), min_size=1))
    return MultinomialSample(tuple(counts)), tuple(sorted(J0))


@settings(max_examples=100, deadline=None)
@given(_table_and_targets(), st.booleans(), st.integers(0, 2**32 - 1))
def test_symm_calibration_counts_each_unordered_pair_once(table, studentize, seed):
    # The symmetric statistic and the scale of (a, b) equal those of
    # (b, a) bit for bit, so dropping one of each mirrored pair from the
    # anchored family leaves the critical value and the largest scale
    # exactly as they were.  Zero cells give c/0 = +-inf ratios.
    sample, J0 = table
    full = build_index_family("upper", J0, sample.p).mask
    once = full & (np.triu(full) | ~full.T)
    cfg = BootstrapConfig(B=200, seed=seed)
    kw = dict(shape="symm", studentize=studentize)
    full_cs = difference_cs(sample, cfg, 0.05, full, **kw)
    once_cs = difference_cs(sample, cfg, 0.05, once, **kw)
    assert once_cs.crit == full_cs.crit
    assert np.nanmax(once_cs.sigma) == np.nanmax(full_cs.sigma)
    if len(J0) == sample.p:
        assert 2 * np.count_nonzero(once) == np.count_nonzero(full)
    # The rank readout equals the one read off the full family.
    half = _band_half_width(full_cs.crit[0], np.nanmax(full_cs.sigma), sample.n)
    th, p = sample.theta_hat, sample.p
    rs = boot_rank_cs(sample, J0, config=cfg, studentize=studentize)
    for j in J0:
        lo = 1 + sum(th[k] - th[j] > half for k in range(p) if k != j)
        hi = p - sum(th[j] - th[k] > half for k in range(p) if k != j)
        assert rs.interval(j) == (lo, hi)


def test_rank_cs_without_studentizing_band_equals_per_pair_readout():
    # All scales are 1, so the common band and the per-pair intervals
    # make identical claims: a difference is asserted iff its interval
    # excludes zero.
    cfg = BootstrapConfig(B=3000, seed=0)
    rs = boot_rank_cs(MELBOURNE, config=cfg, studentize=False)
    anchored = build_index_family("upper", tuple(range(7)), 7)
    dcs = difference_cs(
        MELBOURNE, cfg, 0.05, anchored.mask, shape="symm", studentize=False
    )
    for j in range(7):
        lo = 1 + sum(dcs.hi[j, k] < 0 for k in range(7) if k != j)
        hi = 7 - sum(dcs.lo[j, k] > 0 for k in range(7) if k != j)
        assert rs.interval(j) == (lo, hi)


def test_rank_cs_survey_per_category_readouts():
    # Per-category (marginal) calibration at B = 10,000, seed 0.  The
    # two rarest categories hit an infinite studentized critical value
    # at the 95% level -- their resamples empty both categories with
    # probability just under 0.05 per draw -- so their sets are the
    # full range; dropping to 90% brings the quantile back to finite.
    cfg = BootstrapConfig(B=10_000, seed=0)
    stud = [boot_rank_cs(MELBOURNE, J0=(j,), config=cfg).interval(j) for j in range(7)]
    assert stud == [(1, 2), (1, 2), (3, 4), (3, 7), (4, 7), (1, 7), (1, 7)]
    plain = [
        boot_rank_cs(MELBOURNE, J0=(j,), config=cfg, studentize=False).interval(j)
        for j in range(7)
    ]
    assert plain == [(1, 2), (1, 2), (3, 4), (3, 7), (4, 7), (5, 7), (5, 7)]
    stud90 = [
        boot_rank_cs(MELBOURNE, J0=(j,), alpha=0.10, config=cfg).interval(j)
        for j in range(7)
    ]
    assert stud90[5] == (4, 7) and stud90[6] == (4, 7)


def test_rank_cs_joint_calibration_is_weakly_wider_than_per_category():
    cfg = BootstrapConfig(B=2000, seed=0)
    joint = boot_rank_cs(MELBOURNE, config=cfg)
    for j in range(7):
        solo = boot_rank_cs(MELBOURNE, J0=(j,), config=cfg)
        lo_j, hi_j = joint.interval(j)
        lo_s, hi_s = solo.interval(j)
        assert lo_j <= lo_s and hi_s <= hi_j


def test_rank_cs_one_sided_kinds_bound_one_side_only():
    cfg = BootstrapConfig(B=500, seed=0)
    lower = boot_rank_cs(MELBOURNE, kind="lower", config=cfg)
    upper = boot_rank_cs(MELBOURNE, kind="upper", config=cfg)
    for j in range(7):
        assert lower.interval(j)[1] == 7
        assert upper.interval(j)[0] == 1


def test_rank_cs_method_label_tracks_studentization():
    cfg = BootstrapConfig(B=50, seed=0)
    assert boot_rank_cs(MELBOURNE, config=cfg).method == "bootStud"
    assert boot_rank_cs(MELBOURNE, config=cfg, studentize=False).method == "boot"


@pytest.mark.parametrize("method, studentize", [("boot", False), ("bootStud", True)])
@pytest.mark.parametrize("kind", ["two_sided", "lower", "upper"])
@pytest.mark.parametrize("scope", ["simultaneous", "marginal"])
def test_rank_cs_names_pick_the_studentization(method, studentize, kind, scope):
    # The name alone picks the statistic: the same config gives the
    # interval of boot_rank_cs with the matching studentize keyword.
    cfg = BootstrapConfig(B=300, seed=4)
    via_name = rank_cs(method, MELBOURNE, (0, 3, 5), kind, 0.1, cfg, scope)
    direct = boot_rank_cs(MELBOURNE, (0, 3, 5), kind, 0.1, cfg, scope,
                          studentize=studentize)
    assert via_name.method == direct.method == method
    assert via_name.lo == direct.lo and via_name.hi == direct.hi


@pytest.mark.parametrize("method", ["boot", "bootStud", "naive"])
def test_rank_cs_passes_the_config_through_unchanged(method, monkeypatch):
    # The draw reads the config's own B and seed, once.
    seen = []
    real = dispatch._resampled

    def spy(x, n, B, seeds, statistics):
        seen.append((B, tuple(seeds)))
        return real(x, n, B, seeds, statistics)

    monkeypatch.setattr(dispatch, "_resampled", spy)
    cfg = BootstrapConfig(B=20, seed=1)
    rank_cs(method, MELBOURNE, config=cfg)
    assert seen == [(cfg.B, (cfg.seed,))]


def test_rank_cs_is_deterministic_for_a_seed():
    a = boot_rank_cs(MELBOURNE, config=BootstrapConfig(B=800, seed=31))
    b = boot_rank_cs(MELBOURNE, config=BootstrapConfig(B=800, seed=31))
    assert [a.interval(j) for j in range(7)] == [b.interval(j) for j in range(7)]


def test_rank_cs_fresh_entropy_does_not_poison_the_seeded_cache():
    boot_rank_cs(MELBOURNE, config=BootstrapConfig(B=800, seed=None))
    a = boot_rank_cs(MELBOURNE, config=BootstrapConfig(B=800, seed=31))
    b = boot_rank_cs(MELBOURNE, config=BootstrapConfig(B=800, seed=31))
    assert [a.interval(j) for j in range(7)] == [b.interval(j) for j in range(7)]


def test_unseeded_config_is_one_stream_that_its_seed_replays():
    # seed=None draws its seed once, on construction: every call on the
    # config reads the same resamples, and the stored seed replays them.
    cfg = BootstrapConfig(B=200, seed=None)
    assert isinstance(cfg.seed, int)
    runs = [
        rank_cs("naive", MELBOURNE, config=config)
        for config in (cfg, cfg, BootstrapConfig(B=200, seed=cfg.seed))
    ]
    assert len({tuple(rs.interval(j) for j in range(7)) for rs in runs}) == 1


def test_rank_cs_three_category_coverage():
    # theta = (.5, .3, .2), n = 2000: ranks are well separated, and the
    # studentized band should cover the true ranks (1, 2, 3) at close
    # to (or above) the nominal 95% per category.
    rng = np.random.default_rng(5)
    reps = 300
    hits = np.zeros(3)
    for i in range(reps):
        counts = rng.multinomial(2000, (0.5, 0.3, 0.2))
        sample = MultinomialSample(tuple(int(c) for c in counts))
        for j, true_rank in enumerate((1, 2, 3)):
            rs = boot_rank_cs(
                sample, J0=(j,), config=BootstrapConfig(B=400, seed=9_000 + i)
            )
            hits[j] += rs.covers(j, true_rank, true_rank)
    assert (hits / reps >= 0.92).all()


# ---------------------------------------------------------------------------
# naive_rank_cs


def test_naive_counts_order_statistics_of_resampled_ranks():
    cfg = BootstrapConfig(B=10_000, seed=0)
    rs = naive_rank_cs(MELBOURNE, config=cfg)
    assert [rs.interval(j) for j in range(7)] == [
        (1, 2), (1, 2), (3, 3), (4, 4), (5, 6), (5, 7), (6, 7),
    ]
    assert rs.method == "naive"


def test_naive_undercovers_with_tied_categories():
    # Seven equally likely categories: every admissible rank interval
    # is the full range [1, 7], which the naive quantile interval very
    # rarely spans, so its set coverage collapses far below nominal.
    rng = np.random.default_rng(17)
    reps, hits = 200, 0
    theta = np.ones(7) / 7
    for i in range(reps):
        counts = rng.multinomial(234, theta)
        sample = MultinomialSample(tuple(int(c) for c in counts))
        rs = naive_rank_cs(sample, config=BootstrapConfig(B=400, seed=20_000 + i))
        hits += rs.covers(0, 1, 7)
    assert hits / reps <= 0.60


def test_naive_restricts_to_requested_categories():
    rs = naive_rank_cs(MELBOURNE, J0=(1, 4), config=BootstrapConfig(B=200, seed=0))
    assert set(rs.J0) == {1, 4}
    full = naive_rank_cs(MELBOURNE, config=BootstrapConfig(B=200, seed=0))
    for j in (1, 4):
        assert rs.interval(j) == full.interval(j)
    # At p = 40, 21 targets count who beats each and all 40 sort each
    # resample; small counts give ties and zero cells.
    counts = np.random.default_rng(5).multinomial(120, np.ones(40) / 40)
    wide = MultinomialSample(tuple(int(c) for c in counts))
    cfg = BootstrapConfig(B=300, seed=0)
    few = naive_rank_cs(wide, J0=range(21), config=cfg)
    full = naive_rank_cs(wide, config=cfg)
    assert [few.interval(j) for j in range(21)] == [full.interval(j) for j in range(21)]


@pytest.mark.parametrize("p, n, B", [
    *(pytest.param(p, n, 300, id=f"{p}-{n}")
      for p, n in [(7, 234), (20, 50), (100, 5000), (3, 5), (2, 1)]),
    (100, 5000, 1000),  # seven row blocks, the last one partial
])
def test_best_ranks_match_pairwise_count(p, n, B):
    # Small n gives many ties and zero cells in every resample.
    rng = np.random.default_rng(p * 1000 + n)
    star = rng.multinomial(n, rng.dirichlet(np.ones(p)), size=B) / n
    greater = star[:, None, :] > star[:, :, None]
    assert np.array_equal(_best_ranks(star), (1 + greater.sum(axis=2)).T)


def _naive_oracle(star, j0, alpha):
    """``(2, |J0|)`` order statistics of each target's ranks from the
    ``B x p x p`` comparison cube."""
    B = star.shape[0]
    ranks = np.sort(1 + (star[:, None, :] > star[:, :, None]).sum(2), axis=0)
    lo = min(math.floor(round(alpha / 2 * B, 9)) + 1, B)
    hi = max(math.ceil(round((1.0 - alpha / 2) * B, 9)), 1)
    return ranks[[lo - 1, hi - 1]][:, list(j0)]


@st.composite
def _naive_case(draw):
    """A cached resample matrix, targets on one side of the ``4 log2(p)``
    rule, and an alpha near 0, in the middle or near 1."""
    p = draw(st.integers(2, 120))
    n = draw(st.integers(1, 5000))
    B = draw(st.integers(1, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = tuple(rng.multinomial(n, rng.dirichlet(np.ones(p))).tolist())
    star = _theta_star_cached.__wrapped__(counts, n, B, draw(st.integers(0, 2**32 - 1)))
    counted = min(p, math.floor(4 * math.log2(p)))
    if counted < p and draw(st.booleans()):
        size = draw(st.integers(counted + 1, p))
    else:
        size = draw(st.integers(1, counted))
    j0 = tuple(sorted(draw(st.permutations(range(p)))[:size]))
    alpha = draw(st.one_of(st.floats(1e-9, 0.01), st.sampled_from([0.05, 0.1, 0.5, 0.9]),
                           st.floats(0.99, 1 - 1e-9)))
    return star, j0, alpha


@settings(max_examples=80, deadline=None)
@given(_naive_case(), st.sampled_from(["default", "one-row", "partial"]))
@example((_theta_star_cached.__wrapped__((0, 3, 0, 2) * 30, 150, 700, 1), tuple(range(120)),
          0.05), "partial")
@example((_theta_star_cached.__wrapped__((5, 0) * 10, 50, 9, 2), (0, 1, 2, 3, 5, 8, 13, 17),
          0.999), "one-row")
def test_naive_bounds_equal_the_pairwise_count(case, blocks):
    # Small n gives ties and zero cells; both the counting and the argsort
    # path, and any block size, give the oracle's integers, and the
    # read-only cached resamples are left as they were.
    star, j0, alpha = case
    B, p = star.shape
    width = {"default": None, "one-row": 1, "partial": max(1, 2 * B // 3)}[blocks]
    before = star.copy()
    with pytest.MonkeyPatch.context() as mp:
        if width is not None:
            mp.setattr("ranksets.boot._BLOCK_BYTES", 8 * p * width)
        got = boot._naive_bounds(star, None, j0, alpha)
    assert np.array_equal(got, _naive_oracle(star, j0, alpha))
    assert not star.flags.writeable
    assert np.array_equal(star, before)


def test_naive_argsort_path_memory_is_under_six_bytes_per_cell():
    # The ranks are one int32 (p, B) matrix sorted in place, beside one
    # block of temporaries; the (B, p) input is not counted.
    p, B = 1000, 2000
    rng = np.random.default_rng(27)
    counts = tuple(rng.multinomial(5000, rng.dirichlet(np.ones(p))).tolist())
    star = _theta_star_cached.__wrapped__(counts, 5000, B, 0)
    tracemalloc.start()
    try:
        boot._naive_bounds(star, None, tuple(range(p)), 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * B * p


def test_naive_rejects_bad_alpha():
    with pytest.raises(ValueError):
        naive_rank_cs(MELBOURNE, alpha=0.0, config=BootstrapConfig(B=10, seed=0))


# ---------------------------------------------------------------------------
# BootstrapConfig validation


def test_config_rejects_bad_knobs():
    with pytest.raises(ValueError):
        BootstrapConfig(B=0)


@pytest.mark.parametrize("knobs", [
    {"B": 2.5}, {"B": True}, {"seed": 1.7}, {"seed": -3}, {"seed": True},
])
def test_config_rejects_non_integer_or_negative_values(knobs):
    with pytest.raises(ValueError):
        BootstrapConfig(**knobs)


def test_config_accepts_numpy_integers():
    config = BootstrapConfig(B=np.int64(20), seed=np.uint32(3))
    a = naive_rank_cs(MELBOURNE, config=config)
    b = naive_rank_cs(MELBOURNE, config=BootstrapConfig(B=20, seed=3))
    assert (a.lo, a.hi) == (b.lo, b.hi)


def test_config_is_the_resampling_stream_only():
    assert [f.name for f in dataclasses.fields(BootstrapConfig)] == ["B", "seed"]


def test_difference_cs_rejects_an_unknown_shape():
    with pytest.raises(ValueError, match="shape must be one of"):
        difference_cs(MELBOURNE, BootstrapConfig(B=10, seed=0), shape="round")
