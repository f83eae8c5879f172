"""Projections of one-sided rank sets onto best/worst category identities."""

import numpy as np
import pytest

from ranksets._dispatch import rank_cs
from ranksets.boot import BootstrapConfig
from ranksets.core import MultinomialSample
from ranksets.projections import TauBestSet, tau_best, tau_worst

MELBOURNE = MultinomialSample((87, 75, 42, 21, 6, 2, 1))


def test_tau_equal_to_p_keeps_everything():
    best = tau_best(MELBOURNE, tau=7)
    worst = tau_worst(MELBOURNE, tau=7)
    assert best.members == frozenset(range(7))
    assert worst.members == frozenset(range(7))


def test_runaway_leader_is_the_whole_top_one_set():
    sample = MultinomialSample((100, 0, 0))
    best = tau_best(sample, tau=1)
    assert best.members == frozenset({0})
    assert 0 in best and 1 not in best
    assert len(best) == 1


def test_runaway_leader_bottom_two_are_the_rest():
    sample = MultinomialSample((100, 0, 0))
    worst = tau_worst(sample, tau=1)
    # Ranks 2 and 3 are indistinguishable between the two empty
    # categories, so neither can be excluded from the bottom one.
    assert worst.members == frozenset({1, 2})


def test_balanced_counts_keep_every_category():
    sample = MultinomialSample((10, 10, 10))
    assert tau_best(sample, tau=1).members == frozenset({0, 1, 2})
    assert tau_worst(sample, tau=1).members == frozenset({0, 1, 2})


def test_members_are_exactly_the_intervals_containing_tau():
    # The projection must agree with the one-sided rank set it reuses.
    for direction, fn, kind in (
        ("best", tau_best, "lower"),
        ("worst", tau_worst, "upper"),
    ):
        for tau in (1, 2, 4, 7):
            ts = fn(MELBOURNE, tau=tau, method="exactHolm")
            rs = rank_cs("exactHolm", MELBOURNE, kind=kind)
            threshold = tau if direction == "best" else MELBOURNE.p - tau + 1
            expected = frozenset(
                j for j in range(MELBOURNE.p) if rs.contains(j, threshold)
            )
            assert ts.members == expected
            assert ts.rank_set.kind == kind
            assert ts.direction == direction


def test_membership_is_monotone_in_tau():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = int(rng.integers(2, 8))
        counts = rng.multinomial(int(rng.integers(30, 300)), np.ones(p) / p)
        counts[0] += 1
        sample = MultinomialSample(tuple(int(c) for c in counts))
        for fn in (tau_best, tau_worst):
            prev: frozenset[int] = frozenset()
            for tau in range(1, p + 1):
                cur = fn(sample, tau=tau).members
                assert prev <= cur
                prev = cur
            assert prev == frozenset(range(p))


def test_melbourne_top_two_and_bottom_sets():
    best2 = tau_best(MELBOURNE, tau=2)
    assert best2.members == frozenset({0, 1})
    worst1 = tau_worst(MELBOURNE, tau=1)
    assert worst1.members == frozenset({4, 5, 6})
    # Category 3 (21 respondents) cannot be excluded from the bottom
    # three: its one-sided upper rank bound still reaches rank 5.
    worst3 = tau_worst(MELBOURNE, tau=3)
    assert worst3.members == frozenset({3, 4, 5, 6})


@pytest.mark.parametrize("method", ["exactBonf", "exactHolm", "cp"])
def test_methods_dispatch_without_bootstrap_config(method):
    ts = tau_best(MELBOURNE, tau=2, method=method)
    assert ts.method == method
    assert {0, 1} <= ts.members


@pytest.mark.parametrize("method", ["boot", "bootStud"])
def test_bootstrap_methods_accept_a_config(method):
    cfg = BootstrapConfig(B=500, seed=0)
    ts = tau_best(MELBOURNE, tau=2, method=method, config=cfg)
    assert ts.method == method
    assert {0, 1} <= ts.members
    again = tau_best(MELBOURNE, tau=2, method=method, config=cfg)
    assert ts.members == again.members


def test_snake_case_method_aliases_are_canonicalized():
    ts = tau_best(MELBOURNE, tau=2, method="exact_holm")
    assert ts.method == "exactHolm"


def test_naive_method_is_rejected():
    with pytest.raises(ValueError):
        tau_best(MELBOURNE, tau=2, method="naive")


def test_tau_out_of_range_is_rejected():
    with pytest.raises(ValueError):
        tau_best(MELBOURNE, tau=0)
    with pytest.raises(ValueError):
        tau_best(MELBOURNE, tau=8)
    with pytest.raises(ValueError):
        tau_worst(MELBOURNE, tau=-1)


@pytest.mark.parametrize("project", [tau_best, tau_worst])
def test_tau_that_is_not_a_whole_number_is_rejected(project):
    # tau_best(s, 2.5) used to read members at "rank 2.5".
    for tau in (2.5, float("nan"), "2"):
        with pytest.raises(ValueError, match="whole number"):
            project(MELBOURNE, tau=tau)
    whole = project(MELBOURNE, tau=2.0)
    assert type(whole.tau) is int and whole == project(MELBOURNE, tau=np.int64(2))


def test_direction_field_is_validated():
    with pytest.raises(ValueError):
        TauBestSet(
            tau=1,
            direction="sideways",
            members=frozenset(),
            method="exactHolm",
            alpha=0.05,
            rank_set=rank_cs("exactHolm", MELBOURNE, kind="lower"),
        )


def test_projection_coverage_smoke():
    # theta = (.5, .3, .2): the top-1 set should contain category 0 in
    # almost every replication (one-sided validity at 95%).
    rng = np.random.default_rng(8)
    reps, hits = 200, 0
    for _ in range(reps):
        counts = rng.multinomial(500, (0.5, 0.3, 0.2))
        sample = MultinomialSample(tuple(int(c) for c in counts))
        hits += 0 in tau_best(sample, tau=1)
    assert hits / reps >= 0.93
