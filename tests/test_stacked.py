"""Stacked tables give, bound for bound, what one table at a time gives.

``_rank_bounds`` turns ``R`` count tables stacked as ``(R, p)`` into
``(R, |J0|)`` rank bounds per method, in one pass; row ``r`` must be
table ``r`` scored alone, bit for bit: for the exact methods and
``cp`` by the public pieces (p-values, correction, box, claims), for
the bootstrap methods by :func:`rank_cs`.  ``run_design`` scores
coverage from those arrays, one chunk of replications at a time, and
must report what scoring one :class:`RankSet` per replication reports.
Memory of the stacked paths is bounded by a chunk, not by the number of
replications.  Separate ``rank_cs`` calls on one table, each a stack of
one, share its p-value table and resamples through caches that keep two
tables.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ranksets.sim as sim
from ranksets import boot, exact
from ranksets._dispatch import METHOD_NAMES, _rank_bounds, rank_cs
from ranksets.boot import BootstrapConfig
from ranksets.cli import main
from ranksets.core import (
    KINDS, SCOPES, MultinomialSample, PairwiseRejections, build_index_family,
    compute_ranks, rankset_from_rejections,
)
from ranksets.cp import cp_box
from ranksets.exact import bonferroni_reject, holm_reject, pairwise_pvalues
from ranksets.projections import tau_best, tau_worst
from ranksets.sim import SimCell, SimDesign, SimReport, _mc_se, _rep_streams, run_design, uniform_design


_REJECT = {"exactBonf": bonferroni_reject, "exactHolm": holm_reject}


def _reference(method, sample, J0, kind, alpha, config, scope):
    """The set of ``method`` on one table.

    The exact methods and ``cp`` are built from the public pieces: the
    p-value table and its correction, or the Clopper-Pearson box read
    by strict non-overlap, then assembled from the claims.  The
    bootstrap methods are :func:`rank_cs`.
    """
    if method not in _REJECT and method != "cp":
        return rank_cs(method, sample, J0, kind, alpha, config, scope)
    family = build_index_family(kind, J0, sample.p)
    if method == "cp":
        box = cp_box(sample, alpha)
        lo, hi = np.array(box.lo), np.array(box.hi)
        rej = PairwiseRejections.from_claims(
            family, family.mask & (lo[:, None] > hi[None, :])
        )
    else:
        rej = _REJECT[method](pairwise_pvalues(sample, family), alpha, scope)
    return rankset_from_rejections(rej, method=method, alpha=alpha)


def _one_at_a_time(method, x, J0, kind, alpha, B, seeds, scope):
    """``(lo, hi)`` of each table scored alone, or the ``ValueError`` text."""
    lo, hi = [], []
    for counts, seed in zip(x.tolist(), seeds):
        try:
            rs = _reference(method, MultinomialSample(tuple(counts)), J0, kind,
                            alpha, BootstrapConfig(B=B, seed=seed), scope)
        except ValueError as exc:
            return str(exc)
        lo.append([rs.lo[j] for j in rs.J0])
        hi.append([rs.hi[j] for j in rs.J0])
    return np.array(lo), np.array(hi)


@st.composite
def _stacks(draw):
    p = draw(st.integers(2, 9))
    R = draw(st.integers(1, 7))
    n = draw(st.sampled_from([1, 7, 40, 300, 1500]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = rng.dirichlet(np.ones(p))
    theta[rng.random(p) < 0.3] = 0.0  # zero cells
    theta = theta / theta.sum() if theta.sum() > 0 else np.full(p, 1.0 / p)
    x = rng.multinomial(n, theta, size=R)
    J0 = draw(st.none() | st.sets(st.integers(0, p - 1), min_size=1, max_size=p))
    return (
        x,
        J0,
        draw(st.sampled_from(KINDS)),
        draw(st.sampled_from([0.05, 0.2])),
        draw(st.integers(1, 60)),
        [int(s) for s in rng.integers(0, 2**63, R)],
        draw(st.sampled_from(SCOPES)),
    )


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_stacks())
# Counts past the tail table's end (s > 512), repeated across tables.
@example((np.array([[700, 600, 3, 0], [600, 700, 0, 3], [700, 600, 3, 0]]),
          None, "two_sided", 0.05, 20, [1, 2, 3], "simultaneous"))
@example((np.array([[900, 450, 450, 2], [450, 900, 2, 450]]),
          {1, 2}, "lower", 0.05, 20, [4, 5], "marginal"))
def test_stacked_bounds_equal_one_table_at_a_time(args):
    x, J0, kind, alpha, B, seeds, scope = args
    for method in METHOD_NAMES:
        expected = _one_at_a_time(method, x, J0, kind, alpha, B, seeds, scope)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match="two-sided"):
                _rank_bounds((method,), x, int(x[0].sum()), J0, kind, alpha,
                             B, seeds, scope)
            continue
        lo, hi = _rank_bounds((method,), x, int(x[0].sum()), J0, kind, alpha,
                              B, seeds, scope)[method]
        np.testing.assert_array_equal(lo, expected[0], err_msg=method)
        np.testing.assert_array_equal(hi, expected[1], err_msg=method)
    if kind == "two_sided":
        # All methods at once share each table's draw and p-values.
        together = _rank_bounds(METHOD_NAMES, x, int(x[0].sum()), J0, kind,
                                alpha, B, seeds, scope)
        for method in METHOD_NAMES:
            expected = _one_at_a_time(method, x, J0, kind, alpha, B, seeds, scope)
            np.testing.assert_array_equal(together[method][0], expected[0])
            np.testing.assert_array_equal(together[method][1], expected[1])


_REFUSED = [
    ("exactHolm", dict(alpha=1.5)),
    ("exactHolm", dict(scope="global")),
    ("exactHolm", dict(kind="both")),
    ("naive", dict(kind="lower")),
    ("naive", dict(kind="upper")),
]


def test_stacked_bounds_refuse_what_rank_cs_refuses(tmp_path, capsys):
    x = np.array([[3, 2, 1], [1, 2, 3]])
    for method, bad in _REFUSED:
        args = dict(J0=None, kind="two_sided", alpha=0.05, scope="simultaneous") | bad
        with pytest.raises(ValueError) as one_table:
            rank_cs(method, MultinomialSample((3, 2, 1)), args["J0"], args["kind"],
                    args["alpha"], BootstrapConfig(B=10), args["scope"])
        with pytest.raises(ValueError, match=re.escape(str(one_table.value))):
            _rank_bounds((method,), x, 6, args["J0"], args["kind"],
                         args["alpha"], 10, [0, 1], args["scope"])
    # The tau projections and the command line refuse one-sided naive alike.
    refusal = "the naive bootstrap only supports two-sided sets"
    for select in (tau_best, tau_worst):
        with pytest.raises(ValueError, match=refusal):
            select(MultinomialSample((3, 2, 1)), 1, method="naive")
    data = tmp_path / "t.csv"
    data.write_text("group,category,count\ng,a,3\ng,b,2\ng,c,1\n")
    for argv in (["analyze", str(data), "--method", "naive", "--kind", "lower"],
                 ["tau-best", str(data), "--tau", "1", "--method", "naive"]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == f"error: {refusal}\n", argv


def _per_replication_report(design):
    """``run_design`` as one RankSet per replication and method scores it."""
    theta = np.asarray(design.theta)
    cats = design.categories or tuple(range(theta.size))
    targets = cats if design.scope == "marginal" else None
    triples = compute_ranks(theta)
    cover = {(m, j): 0 for m in design.methods for j in cats}
    length = dict(cover)
    joint = {m: 0 for m in design.methods}
    for rng, seed in _rep_streams(design.master_seed, design.reps):
        sample = MultinomialSample(tuple(int(c) for c in rng.multinomial(design.n, theta)))
        config = BootstrapConfig(B=design.B, seed=seed)
        for m in design.methods:
            rs = rank_cs(m, sample, targets, "two_sided", design.alpha, config,
                         design.scope)
            covered = [rs.covers(j, triples[j].r_lo, triples[j].r_hi) for j in cats]
            for j, c in zip(cats, covered):
                cover[m, j] += c
                length[m, j] += rs.length(j)
            joint[m] += all(covered)
    cells = []
    for m in design.methods:
        for j in cats:
            freq = cover[m, j] / design.reps
            cells.append(SimCell(m, j, freq, _mc_se(freq, design.reps),
                                 length[m, j] / design.reps))
        if design.scope == "simultaneous":
            freq = joint[m] / design.reps
            cells.append(SimCell(m, -1, freq, _mc_se(freq, design.reps), float("nan")))
    return SimReport(design.name, design.reps, design.alpha, tuple(cells), design.notes)


@pytest.mark.parametrize("scope", SCOPES)
def test_run_design_reports_what_one_rank_set_per_replication_reports(scope, monkeypatch):
    monkeypatch.setattr(sim, "_CHUNK_BYTES", 3 * 8 * 5 * 5)  # three per chunk
    design = SimDesign(name="x", theta=(0.3, 0.3, 0.2, 0.15, 0.05), n=60,
                       methods=METHOD_NAMES, categories=(0, 2, 4), scope=scope,
                       reps=20, B=80, master_seed=9)
    assert run_design(design).to_csv() == _per_replication_report(design).to_csv()


def test_pvalue_table_memory_is_the_table_plus_one_block():
    # Every pair of this p = 300 table is past the tail table's end; the
    # gather and the walk write-back used to hold several p x p int64
    # temporaries (6.2 MiB here).
    exact._tail_table(exact._EXACT_MAX_S)
    counts = tuple(int(c) for c in
                   np.random.default_rng(0).choice([600, 610, 640, 700], 300))
    family = build_index_family("two_sided", None, 300)
    tracemalloc.start()
    try:
        table = exact._pvalue_table.__wrapped__(counts, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * table.pvalues.nbytes


@pytest.mark.parametrize("method", ["exactHolm", "cp"])
def test_run_design_memory_does_not_grow_with_reps(method):
    def peak(reps):
        design = uniform_design(200, 1000, methods=(method,), reps=reps, B=10,
                                master_seed=1)
        run_design(design)  # fills the tail table and the caches
        tracemalloc.start()
        try:
            run_design(design)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak(16), peak(256)
    assert abs(many - few) <= 0.1 * few, (few, many)


def test_separate_calls_on_one_table_share_the_per_table_caches():
    exact._pvalue_table.cache_clear()
    boot._theta_star_cached.cache_clear()
    sample = MultinomialSample((86, 72, 38, 22, 9, 5, 4, 2))
    config = BootstrapConfig(B=200, seed=0)
    for method in ("exactBonf", "exactHolm", "boot", "bootStud", "naive"):
        rank_cs(method, sample, config=config)
    assert exact._pvalue_table.cache_info()[:2] == (1, 1)  # hits, misses
    assert boot._theta_star_cached.cache_info()[:2] == (2, 1)


@pytest.mark.parametrize("method, cache", [
    ("exactHolm", exact._pvalue_table),  # a 1000 x 1000 p-value table
    ("boot", boot._theta_star_cached),  # 1000 resamples of 1000 shares
])
def test_per_table_caches_keep_two_tables_at_p_1000(method, cache):
    # Each entry is 8 MB; only the last two tables stay cached.
    entry = 1000 * 1000 * 8
    weights = 1.0 / np.arange(1, 1001) ** 0.5
    config = BootstrapConfig(B=1000, seed=0)
    exact._tail_table(exact._EXACT_MAX_S)
    build_index_family("two_sided", None, 1000)
    cache.cache_clear()
    tracemalloc.start()
    try:
        for seed in range(5):
            counts = np.random.default_rng(seed).multinomial(5_000, weights / weights.sum())
            rank_cs(method, MultinomialSample(tuple(counts.tolist())), config=config)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cache.cache_info().currsize == 2
    assert 2 * entry <= kept < 2.5 * entry, kept / entry
