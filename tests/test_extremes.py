"""Every method at the input extremes: tiny, empty-ish, sparse and huge tables."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ranksets import rank_cs
from ranksets.boot import BootstrapConfig
from ranksets.core import MultinomialSample

METHODS = ("exactBonf", "exactHolm", "cp", "boot", "bootStud", "naive")
CFG = BootstrapConfig(B=50, seed=0)


def _two_categories():
    return st.lists(st.integers(0, 60), min_size=2, max_size=2).filter(any)


@st.composite
def _single_cell(draw, count=st.integers(1, 500)):
    p = draw(st.integers(2, 20))
    counts = [0] * p
    counts[draw(st.integers(0, p - 1))] = draw(count)
    return counts


@st.composite
def _sparse_wide(draw):
    counts = [0] * 300
    cells = draw(st.sets(st.integers(0, 299), min_size=1, max_size=10))
    for j in cells:
        counts[j] = draw(st.integers(1, 50))
    return counts


@st.composite
def _table_and_target(draw, counts):
    sample = MultinomialSample(tuple(draw(counts)))
    target = draw(st.none() | st.integers(0, sample.p - 1))
    return sample, None if target is None else (target,)


def _check(sample, J0, methods):
    sets = {m: rank_cs(m, sample, J0=J0, config=CFG) for m in methods}
    for rs in sets.values():
        for j in rs.J0:
            lo, hi = rs.interval(j)
            assert 1 <= lo <= hi <= sample.p, (rs.method, j, lo, hi)
    if "exactHolm" in sets:
        holm, bonf = sets["exactHolm"], sets["exactBonf"]
        for j in holm.J0:
            assert bonf.lo[j] <= holm.lo[j] <= holm.hi[j] <= bonf.hi[j]


@settings(max_examples=60, deadline=None)
@given(
    _table_and_target(
        st.one_of(
            _two_categories(),
            _single_cell(),
            _single_cell(count=st.just(1)),  # n = 1
            _sparse_wide(),
        )
    )
)
def test_every_method_gives_valid_bounds_at_the_extremes(case):
    sample, J0 = case
    _check(sample, J0, METHODS)


@settings(max_examples=30, deadline=None)
@given(
    _table_and_target(
        st.lists(
            st.integers(0, 8) | st.integers(2**31 - 1000, 2**31 + 1000),
            min_size=2,
            max_size=8,
        ).filter(any)
    )
)
def test_counts_near_two_to_the_31_give_valid_bounds(case):
    # The exact tests are left out: their tails walk the shorter side
    # of the binomial sum, O(s) terms per pair, so a pair of counts
    # near 2**31 would walk about 2**31 terms and not finish.
    sample, J0 = case
    _check(sample, J0, ("cp", "boot", "bootStud", "naive"))
