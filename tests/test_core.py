"""Rank definitions, index families, and rank-set assembly."""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranksets import cli, sim
from ranksets._dispatch import METHOD_NAMES, SCOPES, rank_cs
from ranksets.boot import BootstrapConfig, boot_rank_cs
from ranksets.core import (
    KINDS,
    IndexFamily,
    InvalidTestFamilyError,
    MultinomialSample,
    PairwiseRejections,
    ProbabilityVector,
    RankSet,
    _index_family,
    _target_pairs,
    build_index_family,
    compute_ranks,
    rankset_from_rejections,
)
from ranksets.exact import (
    bonferroni_reject,
    conditional_pvalue,
    exact_rank_cs,
    holm_reject,
    pairwise_pvalues,
)

# ---------------------------------------------------------------------------
# ranks


def test_ranks_of_textbook_vector():
    triples = compute_ranks((0.4, 0.1, 0.1, 0.2, 0.2))
    assert [t.r for t in triples] == [1, 4, 4, 2, 2]
    assert [t.r_lo for t in triples] == [1, 4, 4, 2, 2]
    assert [t.r_hi for t in triples] == [1, 5, 5, 3, 3]


def test_ranks_of_full_tie():
    triples = compute_ranks((0.5, 0.5))
    assert [t.r for t in triples] == [1, 1]
    assert [t.r_hi for t in triples] == [2, 2]


def test_ranks_all_tied_uniform():
    triples = compute_ranks((0.2,) * 5)
    assert all(t.r_lo == 1 and t.r_hi == 5 for t in triples)


def test_unique_max_gets_rank_one():
    triples = compute_ranks((0.1, 0.6, 0.3))
    assert triples[1].r == 1


def _rank_oracle(theta):
    theta = np.asarray(theta, dtype=float)
    p = theta.size
    out = []
    for j in range(p):
        bigger = sum(1 for k in range(p) if theta[k] > theta[j])
        smaller = sum(1 for k in range(p) if theta[k] < theta[j])
        out.append((1 + bigger, 1 + bigger, p - smaller))
    return out


def test_ranks_match_bruteforce_oracle_on_random_vectors():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        p = int(rng.integers(2, 11))
        raw = rng.dirichlet(np.ones(p))
        # force occasional exact ties
        if rng.random() < 0.3 and p >= 3:
            raw[1] = raw[0]
            raw = raw / raw.sum()
        triples = compute_ranks(raw)
        assert [(t.r, t.r_lo, t.r_hi) for t in triples] == _rank_oracle(raw)


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8, unique=True))
def test_no_ties_collapses_rank_range(vals):
    theta = np.asarray(vals) / np.sum(vals)
    if len(set(theta.tolist())) < len(vals):  # normalization induced a tie
        return
    for t in compute_ranks(theta):
        assert t.r_lo == t.r_hi == t.r


def test_rank_triple_orders_r_between_bounds():
    for t in compute_ranks((0.25, 0.25, 0.3, 0.2)):
        assert t.r_lo <= t.r <= t.r_hi


# ---------------------------------------------------------------------------
# index families


def test_lower_family_anchored_at_first_category():
    fam = build_index_family("lower", (0,), 3)
    assert set(fam.pairs) == {(1, 0), (2, 0)}


def test_two_sided_family_single_anchor():
    fam = build_index_family("two_sided", (0,), 3)
    assert set(fam.pairs) == {(1, 0), (2, 0), (0, 1), (0, 2)}


def test_two_sided_family_full_size():
    fam = build_index_family("two_sided", range(7), 7)
    assert len(fam.pairs) == 42
    assert len(set(fam.pairs)) == 42


def test_upper_family_orients_anchor_first():
    fam = build_index_family("upper", (1,), 4)
    assert set(fam.pairs) == {(1, 0), (1, 2), (1, 3)}


def test_family_rejects_empty_j0():
    with pytest.raises(ValueError):
        build_index_family("lower", (), 3)


def test_family_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_index_family("sideways", (0,), 3)


def test_family_rejects_out_of_range_anchor():
    with pytest.raises(ValueError):
        build_index_family("lower", (5,), 3)


def test_family_none_means_every_category():
    fam = build_index_family("lower", None, 4)
    assert fam.J0 == (0, 1, 2, 3)
    assert fam == build_index_family("lower", (3, 1, 2, 0, 1), 4)


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_every_method_rejects_bad_j0(method):
    sample = MultinomialSample((87, 75, 42, 21, 6, 2, 1))
    cfg = BootstrapConfig(B=50, seed=0)
    for scope in SCOPES:
        for J0 in [(-1,), (sample.p,), ()]:
            with pytest.raises(ValueError):
                rank_cs(method, sample, J0=J0, config=cfg, scope=scope)


@pytest.mark.parametrize("J0", [(1.7,), "03", (0, float("nan")), ("1",)],
                         ids=["fraction", "string", "nan", "str-entry"])
def test_j0_entries_that_are_not_whole_numbers_are_refused(J0):
    # int() used to truncate these: (1.7,) ran on (1,), "03" on (0, 3).
    sample = MultinomialSample((87, 75, 42, 21, 6, 2, 1))
    with pytest.raises(ValueError, match="whole number"):
        rank_cs("exactHolm", sample, J0=J0)
    with pytest.raises(ValueError, match="whole number"):
        sim.SimDesign(name="bad", theta=(0.5, 0.5), n=10, methods=("cp",),
                      categories=J0)


def test_j0_of_any_integer_type_is_accepted():
    for J0 in (np.array([3, 0], dtype=np.int64), range(0, 4, 3), (3.0, np.int32(0))):
        assert build_index_family("lower", J0, 4).J0 == (0, 3)
    design = sim.SimDesign(name="ok", theta=(0.25,) * 4, n=10, methods=("cp",),
                           categories=np.array([3, 0]))
    assert design.categories == (0, 3)
    assert all(type(j) is int for j in design.categories)


def test_unknown_scope_is_rejected_everywhere():
    sample = MultinomialSample((87, 75, 42, 21, 6, 2, 1))
    for method in METHOD_NAMES:
        with pytest.raises(ValueError, match="scope"):
            rank_cs(method, sample, scope="joint")
    table = pairwise_pvalues(sample, build_index_family("two_sided", None, 7))
    for reject in (bonferroni_reject, holm_reject):
        with pytest.raises(ValueError, match="scope"):
            reject(table, 0.05, scope="joint")
    with pytest.raises(ValueError, match="scope"):
        exact_rank_cs(sample, scope="joint")
    with pytest.raises(ValueError, match="scope"):
        boot_rank_cs(sample, config=BootstrapConfig(B=50), scope="joint")
    with pytest.raises(cli.DataError, match="scope"):
        cli.analyze(cli.Dataset({"g": sample}), "cp", scope="joint")
    with pytest.raises(ValueError, match="scope"):
        sim.uniform_design(p=3, n=10, scope="joint")
    assert cli.SCOPES is SCOPES and sim.SCOPES is SCOPES


_METHOD_KINDS = [
    (method, kind)
    for method in METHOD_NAMES
    for kind in (("two_sided",) if method == "naive" else KINDS)
]


@st.composite
def _table_targets_alpha(draw):
    p = draw(st.integers(2, 12))
    counts = draw(st.lists(st.integers(0, 40), min_size=p, max_size=p))
    if sum(counts) == 0:
        counts[draw(st.integers(0, p - 1))] = 1
    J0 = tuple(sorted(draw(st.sets(st.integers(0, p - 1), min_size=1))))
    alpha = draw(st.sampled_from((0.05, 0.1, 0.2)))
    config = BootstrapConfig(B=draw(st.integers(1, 60)),
                             seed=draw(st.integers(0, 2**32 - 1)))
    return MultinomialSample(tuple(counts)), J0, alpha, config


@pytest.mark.parametrize("method,kind", _METHOD_KINDS)
@settings(max_examples=100, deadline=None)
@given(_table_targets_alpha())
def test_marginal_scope_equals_per_target_loop(method, kind, case):
    # One marginal call gives every target the interval of its own
    # family J0 = {j}: Holm steps down per target, Bonferroni divides by
    # one target's family size, and the bootstrap calibrates one
    # critical value and one band per target.  The per-target loop is
    # the oracle.
    sample, J0, alpha, config = case

    def run(targets, scope):
        return rank_cs(method, sample, J0=targets, kind=kind, alpha=alpha,
                       config=config, scope=scope)

    expected = {j: run((j,), "simultaneous").interval(j) for j in J0}
    marginal = run(J0, "marginal")
    assert marginal.J0 == J0
    assert {j: marginal.interval(j) for j in J0} == expected


@given(
    st.integers(2, 8).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.sets(st.integers(0, p - 1), min_size=1, max_size=p),
            st.sampled_from(["lower", "upper", "two_sided"]),
        )
    )
)
def test_family_never_contains_self_pairs_or_duplicates(args):
    p, j0, kind = args
    fam = build_index_family(kind, sorted(j0), p)
    assert all(j != k for j, k in fam.pairs)
    assert len(set(fam.pairs)) == len(fam.pairs)
    if kind == "two_sided" and len(j0) == p:
        assert len(fam.pairs) == p * (p - 1)


def _pair_set(jj, kk):
    return set(zip(jj.tolist(), kk.tolist()))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.sets(st.integers(0, p - 1), min_size=1, max_size=p),
            st.sampled_from(KINDS),
        )
    )
)
def test_target_pairs_rows_are_each_thresholds_own_family(args):
    p, j0, kind = args
    family = build_index_family(kind, j0, p)
    jj, kk = _target_pairs(family, "simultaneous")
    assert jj.shape == kk.shape == (1, len(family))
    assert _pair_set(jj[0], kk[0]) == _pair_set(*np.nonzero(family.mask))
    jj, kk = _target_pairs(family, "marginal")
    m = (p - 1) * (2 if kind == "two_sided" else 1)
    assert jj.shape == kk.shape == (len(family.J0), m)
    for row, j in enumerate(family.J0):
        own = build_index_family(kind, (j,), p).mask
        assert _pair_set(jj[row], kk[row]) == _pair_set(*np.nonzero(own))
    with pytest.raises(ValueError, match="scope"):
        _target_pairs(family, "joint")


# ---------------------------------------------------------------------------
# rank-set assembly


def _rejections(p, j, n_minus, n_plus):
    others = [k for k in range(p) if k != j]
    claims = np.zeros((p, p), dtype=bool)
    claims[others[:n_minus], j] = True
    claims[j, others[n_minus:n_minus + n_plus]] = True
    family = build_index_family("two_sided", (j,), p)
    return PairwiseRejections.from_claims(family, claims)


def test_interval_formula_counts_rejections():
    rs = rankset_from_rejections(_rejections(5, 0, 2, 1))
    assert rs.interval(0) == (3, 4)


def test_no_rejections_gives_full_interval():
    rs = rankset_from_rejections(_rejections(5, 2, 0, 0))
    assert rs.interval(2) == (1, 5)


def test_beating_everyone_pins_first_place():
    rs = rankset_from_rejections(_rejections(4, 1, 0, 3))
    assert rs.interval(1) == (1, 1)


def test_adding_rejections_tightens_monotonically():
    p = 6
    for m in range(p - 1):
        for q in range(p - 1 - m):
            rs = rankset_from_rejections(_rejections(p, 0, m, q))
            lo, hi = rs.interval(0)
            assert lo == m + 1
            assert hi == p - q
            if m + q < p - 1:
                wider = rankset_from_rejections(_rejections(p, 0, m, q))
                assert wider.lo[0] <= rs.lo[0] and wider.hi[0] >= rs.hi[0]


def _claims(p, *pairs):
    claims = np.zeros((p, p), dtype=bool)
    for a, b in pairs:
        claims[a, b] = True
    return claims


def test_conflicting_directions_rejected():
    fam = build_index_family("two_sided", (0,), 3)
    with pytest.raises(InvalidTestFamilyError):
        PairwiseRejections.from_claims(fam, _claims(3, (0, 1), (1, 0)))


def test_self_claims_rejected():
    fam = build_index_family("two_sided", (0,), 3)
    with pytest.raises(ValueError):
        PairwiseRejections.from_claims(fam, _claims(3, (0, 0)))


def test_rejections_hold_their_family_and_claims_only():
    assert [f.name for f in dataclasses.fields(PairwiseRejections)] == [
        "family", "claims", "column_claims",
    ]
    assert list(inspect.signature(rankset_from_rejections).parameters) == [
        "rej", "method", "alpha",
    ]


def test_from_claims_routes_both_directions():
    fam = build_index_family("two_sided", (0, 1), 3)
    rej = PairwiseRejections.from_claims(fam, _claims(3, (0, 1), (0, 2)))
    assert rej.family.kind == "two_sided"
    assert rej.family.J0 == (0, 1)
    rs = rankset_from_rejections(rej)
    assert rs.interval(0) == (1, 1)
    assert rs.interval(1) == (2, 3)


def test_from_claims_lower_kind_only_raises_lower_bounds():
    # (0, 1) is in the lower family of J0 = (0, 1): it raises 1's lower
    # bound but must leave 0's upper bound at p.
    fam = build_index_family("lower", (0, 1), 3)
    rej = PairwiseRejections.from_claims(fam, _claims(3, (0, 1)))
    assert rej.family.kind == "lower"
    rs = rankset_from_rejections(rej)
    assert rs.interval(0) == (1, 3)
    assert rs.interval(1) == (2, 3)


def test_from_claims_rejects_pair_outside_family():
    fam = build_index_family("lower", (0,), 3)
    with pytest.raises(ValueError, match=r"\(1, 2\) is not in the family"):
        PairwiseRejections.from_claims(fam, _claims(3, (1, 2)))
    with pytest.raises(ValueError):
        PairwiseRejections.from_claims(fam, _claims(4, (1, 0)))
    with pytest.raises(ValueError, match=r"\(1, 2\) is not in the family"):
        PairwiseRejections.from_claims(
            fam, _claims(3, (1, 0)), column_claims=_claims(3, (1, 2))
        )
    # The raw constructor runs the same check: no claim outside J0's family.
    with pytest.raises(ValueError, match=r"\(1, 2\) is not in the family"):
        PairwiseRejections(build_index_family("two_sided", (0,), 3), _claims(3, (1, 2)))


def test_assembly_reads_p_j0_and_kind_from_the_family():
    # A lower family assembles to a lower set over its own p and J0.
    fam = build_index_family("lower", (2,), 3)
    rej = PairwiseRejections.from_claims(fam, _claims(3, (0, 2)))
    rs = rankset_from_rejections(rej)
    assert (rs.p, rs.J0, rs.kind) == (3, (2,), "lower")
    assert rs.interval(2) == (2, 3)


def test_column_claims_raise_lower_bounds_and_cross_per_target():
    # Marginal scope: rows are claimed at the row category's threshold
    # and columns at the column category's, so the matrices can differ.
    rows = _claims(3, (0, 1), (1, 0))
    fam = build_index_family("two_sided", (0, 1), 3)
    rej = PairwiseRejections.from_claims(fam, rows, column_claims=_claims(3, (2, 0)))
    rs = rankset_from_rejections(rej)
    # 0 beats 1 at 0's threshold, 2 beats 0 at 0's threshold; 1 beats
    # 0 at 1's threshold, which says nothing about 0's lower bound.
    assert (rs.interval(0), rs.interval(1)) == ((2, 2), (1, 2))
    # 1 beats 0 at 0's threshold while 0 beats 1 at 0's: crossing.
    fam = build_index_family("two_sided", (0,), 3)
    with pytest.raises(InvalidTestFamilyError, match="category 0"):
        PairwiseRejections.from_claims(fam, rows, column_claims=_claims(3, (1, 0)))
    with pytest.raises(ValueError, match="shape"):
        PairwiseRejections.from_claims(fam, rows, column_claims=_claims(4))


def _family_oracle(kind, J0, p):
    pairs = set()
    if kind in ("lower", "two_sided"):
        pairs.update((j, k) for k in J0 for j in range(p) if j != k)
    if kind in ("upper", "two_sided"):
        pairs.update((j, k) for j in J0 for k in range(p) if j != k)
    return sorted(pairs)


def _routed_oracle(family, claims):
    """Per-pair routing of claims into directional sets, then the counts."""
    minus = {j: set() for j in family.J0}
    plus = {j: set() for j in family.J0}
    for a, b in _family_oracle(family.kind, family.J0, family.p):
        if not claims[a, b]:
            continue
        if family.kind in ("upper", "two_sided") and a in plus:
            plus[a].add(b)
        if family.kind in ("lower", "two_sided") and b in minus:
            minus[b].add(a)
    if any(minus[j] & plus[j] for j in family.J0):
        return None
    return {j: (1 + len(minus[j]), family.p - len(plus[j])) for j in family.J0}


@st.composite
def _family_and_claims(draw):
    p = draw(st.integers(2, 12))
    J0 = draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p))
    kind = draw(st.sampled_from(["lower", "upper", "two_sided"]))
    family = build_index_family(kind, J0, p)
    if draw(st.booleans()):
        # Claims from a count table with zero cells: consistent directions.
        counts = np.asarray(draw(st.lists(st.integers(0, 4), min_size=p, max_size=p)))
        gap = draw(st.integers(0, 3))
        claims = counts[:, None] - counts[None, :] > gap
    else:
        # Arbitrary claims, crossing ones included.
        bits = draw(st.lists(st.booleans(), min_size=p * p, max_size=p * p))
        claims = np.asarray(bits).reshape(p, p)
    return family, family.mask & claims


@settings(max_examples=300, deadline=None)
@given(_family_and_claims())
def test_claim_matrix_bounds_match_per_pair_routing(args):
    family, claims = args
    assert family.pairs == tuple(_family_oracle(family.kind, family.J0, family.p))
    assert len(family) == len(family.pairs)
    expected = _routed_oracle(family, claims)
    if expected is None:
        with pytest.raises(InvalidTestFamilyError):
            rankset_from_rejections(PairwiseRejections.from_claims(family, claims))
        return
    rs = rankset_from_rejections(PairwiseRejections.from_claims(family, claims))
    assert {j: rs.interval(j) for j in family.J0} == expected
    assert (rs.p, rs.J0, rs.kind) == (family.p, family.J0, family.kind)


def test_family_is_cached_and_read_only():
    fam = build_index_family("two_sided", (2, 0), 5)
    assert fam is build_index_family("two_sided", (2, 0), 5)
    assert fam == build_index_family("two_sided", [0, 2], 5)
    assert fam.J0 == (0, 2)
    assert not fam.mask.flags.writeable
    with pytest.raises(ValueError):
        fam.mask[0, 1] = False


def test_no_method_builds_the_pair_tuples_of_a_family():
    # Methods read the p x p mask; IndexFamily.pairs would add p(p - 1)
    # tuples to a family that stays cached.
    p = 50
    rng = np.random.default_rng(5)
    for method in METHOD_NAMES:
        sample = MultinomialSample(tuple(int(c) for c in rng.integers(0, 40, p)))
        _index_family.cache_clear()
        rank_cs(method, sample, config=BootstrapConfig(B=50, seed=0))
        for kind in KINDS:
            for J0 in (None, tuple(range(p))):
                family = build_index_family(kind, J0, p)
                assert "pairs" not in family.__dict__, (method, kind, J0)


def test_rank_set_rejects_inverted_interval():
    with pytest.raises(InvalidTestFamilyError):
        RankSet(p=3, J0=(0,), lo={0: 3}, hi={0: 1})


def test_rank_set_covers_uses_set_containment():
    rs = RankSet(p=5, J0=(0,), lo={0: 2}, hi={0: 4})
    assert rs.covers(0, 2, 4)
    assert rs.covers(0, 3, 3)
    assert not rs.covers(0, 1, 4)
    assert not rs.covers(0, 4, 5)
    assert rs.length(0) == 2
    assert rs.contains(0, 3)
    assert not rs.contains(0, 5)


# ---------------------------------------------------------------------------
# samples and probability vectors


def test_sample_validates_and_derives_n():
    s = MultinomialSample(counts=(3, 4, 5))
    assert s.n == 12 and s.p == 3
    assert np.isclose(s.theta_hat.sum(), 1.0)


def test_sample_rejects_negative_counts():
    with pytest.raises(ValueError):
        MultinomialSample(counts=(3, -1))


def test_sample_rejects_zero_total():
    with pytest.raises(ValueError):
        MultinomialSample(counts=(0, 0, 0))


def test_sample_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        MultinomialSample(counts=(1, 2), labels=("a", "a"))


def test_sample_rejects_inconsistent_n():
    with pytest.raises(ValueError):
        MultinomialSample(counts=(1, 2), n=5)


_NOT_WHOLE = {
    "counts-2.7-3-0.9": lambda: MultinomialSample(counts=(2.7, 3, 0.9)),
    "counts-2.7-3-n-5.9": lambda: MultinomialSample(counts=(2.7, 3), n=5.9),
    "n-5.9": lambda: MultinomialSample(counts=(2, 3), n=5.9),
    "count-nan": lambda: MultinomialSample(counts=(float("nan"), 3)),
    "n-nan": lambda: MultinomialSample(counts=(2, 3), n=float("nan")),
    "count-inf": lambda: MultinomialSample(counts=(float("inf"), 3)),
    "count-str": lambda: MultinomialSample(counts=("3", 2)),
    "n-str": lambda: MultinomialSample(counts=(3, 2), n="5"),
    "pvalue-2.9-1.2": lambda: conditional_pvalue(2.9, 1.2),
    "pvalue-2-1.2": lambda: conditional_pvalue(2, 1.2),
    "pvalue-nan": lambda: conditional_pvalue(float("nan"), 1),
    "pvalue-str": lambda: conditional_pvalue("3", 1),
}


@pytest.mark.parametrize("make", _NOT_WHOLE.values(), ids=_NOT_WHOLE.keys())
def test_counts_that_are_not_whole_numbers_are_refused(make):
    # int() used to truncate these, e.g. (2.7, 3, 0.9) into (2, 3, 0).
    with pytest.raises(ValueError, match="whole number"):
        make()


def test_whole_number_counts_of_any_numeric_type_are_accepted():
    arr = MultinomialSample(counts=np.array([2, 3, 0], dtype=np.int64))
    assert arr.counts == (2, 3, 0) and arr.n == 5
    s = MultinomialSample(counts=(2.0, np.int32(3), np.float64(0.0)), n=5.0)
    assert s.counts == (2, 3, 0) and s.n == 5
    assert all(type(c) is int for c in (*s.counts, s.n))
    assert conditional_pvalue(2.0, np.int64(1)) == conditional_pvalue(2, 1)


def test_probability_vector_must_sum_to_one():
    with pytest.raises(ValueError):
        ProbabilityVector((0.5, 0.6))
    with pytest.raises(ValueError):
        ProbabilityVector((1.2, -0.2))


@settings(max_examples=150)
@given(
    st.lists(st.integers(0, 40), min_size=2, max_size=7).filter(
        lambda c: sum(c) > 0
    ),
    st.randoms(use_true_random=False),
)
def test_rank_computation_commutes_with_relabeling(counts, rnd):
    s = MultinomialSample(counts=tuple(counts))
    perm = list(range(s.p))
    rnd.shuffle(perm)
    permuted = MultinomialSample(counts=tuple(counts[i] for i in perm))
    base = compute_ranks(s.theta_hat)
    moved = compute_ranks(permuted.theta_hat)
    for new_pos, old_pos in enumerate(perm):
        assert (moved[new_pos].r, moved[new_pos].r_lo, moved[new_pos].r_hi) == (
            base[old_pos].r, base[old_pos].r_lo, base[old_pos].r_hi
        )
