"""Every rank confidence-set path gives the same intervals, bit for bit.

Each of the 36 ``(method, kind, scope)`` paths of :func:`rank_cs` runs
on the same 200 seeded random tables (``p`` from 2 to 12, zero cells,
random ``J0``, ``alpha``, ``B`` and bootstrap seed), and the path's
outputs hash to the pinned 16-hex sha256 prefix below.  An output is
``(p, J0, kind, method, alpha, intervals)``, or the ``ValueError`` text
for the one-sided ``naive`` paths, which do not exist.

The p-value digest pins the bits of every exact p-value in the
two-sided p-value tables of :func:`pairwise_pvalues` on seeded tables
with pair totals ``s`` from 0 to about 2e4, on both sides of the exact
table's end at ``s = 512``.

The wide digests pin the joint two-sided ``boot`` and ``bootStud``
intervals (``J0`` all) and the ``symm`` intervals of
:func:`difference_cs` on twelve tables with ``p`` from 17 to 150,
where the calibration maximum runs over thousands of pairs.  The tied
wide digest pins the same readouts, and each resample's calibration
maximum, on three p = 1000 tables of tied or small counts, where
resamples of the joint calibration stay open for hundreds of levels.

The Monte Carlo digest pins the ``SimReport.to_csv`` bytes of
:func:`run_design` on reduced-replication versions of the acceptance
criteria 2-5 designs, and the rows of :func:`erratic_coverage_curves`.

A refactor that claims bit-identical outputs keeps these digests; a
change that means to alter outputs says why and re-pins them from
``_digests()``.  They pin the resampling stream of this numpy and the
Clopper-Pearson quantiles of this scipy, as ``bench/reference.json``
does: a numpy whose multinomial sampler draws differently changes the
bootstrap digests, not the code's correctness.
"""

import functools
import hashlib

import numpy as np
import pytest

import ranksets.boot as boot
from ranksets import METHOD_NAMES, rank_cs
from ranksets.boot import BootstrapConfig, difference_cs
from ranksets.core import KINDS, SCOPES, MultinomialSample, build_index_family
from ranksets.exact import pairwise_pvalues

PATHS = [(m, k, s) for m in METHOD_NAMES for k in KINDS for s in SCOPES]

DIGESTS = {
    "exactBonf/lower/marginal": "c31be4f82554992e",
    "exactBonf/lower/simultaneous": "3b42a19987c38509",
    "exactBonf/upper/marginal": "1486318dee92d4d6",
    "exactBonf/upper/simultaneous": "0b36fc423772f520",
    "exactBonf/two_sided/marginal": "91ffb2a7af684da8",
    "exactBonf/two_sided/simultaneous": "9948c71d8506b4f0",
    "exactHolm/lower/marginal": "fc407b698cac358b",
    "exactHolm/lower/simultaneous": "aaa45f392206f382",
    "exactHolm/upper/marginal": "e626cd346ecd2d22",
    "exactHolm/upper/simultaneous": "cc0c3a4ab2f6e454",
    "exactHolm/two_sided/marginal": "d519148d2282109a",
    "exactHolm/two_sided/simultaneous": "64538caced1ec112",
    "cp/lower/marginal": "91d315a0444662fa",
    "cp/lower/simultaneous": "91d315a0444662fa",
    "cp/upper/marginal": "19284d80cd9e0ec9",
    "cp/upper/simultaneous": "19284d80cd9e0ec9",
    "cp/two_sided/marginal": "9247b231ecbf6225",
    "cp/two_sided/simultaneous": "9247b231ecbf6225",
    "boot/lower/marginal": "71a4cf49e6a2cb43",
    "boot/lower/simultaneous": "35e0e1c0f3e9a8c7",
    "boot/upper/marginal": "ff7ccee271462ba7",
    "boot/upper/simultaneous": "7adc5ef9d086ffb1",
    "boot/two_sided/marginal": "999ce73ac01d8abc",
    "boot/two_sided/simultaneous": "e873e21c4ae0fa4a",
    "bootStud/lower/marginal": "c4c73f54e6b1a5ae",
    "bootStud/lower/simultaneous": "7818253f048c2a85",
    "bootStud/upper/marginal": "3086bf409968ca18",
    "bootStud/upper/simultaneous": "c15d2343f2cf2a91",
    "bootStud/two_sided/marginal": "6f494f334b971ee6",
    "bootStud/two_sided/simultaneous": "6f8489842a2d26aa",
    "naive/lower/marginal": "ce16fb43a82fd7f1",
    "naive/lower/simultaneous": "ce16fb43a82fd7f1",
    "naive/upper/marginal": "ce16fb43a82fd7f1",
    "naive/upper/simultaneous": "ce16fb43a82fd7f1",
    "naive/two_sided/marginal": "9301568d261b4b89",
    "naive/two_sided/simultaneous": "9301568d261b4b89",
}


def _tables(count=200, seed=20240611):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = int(rng.integers(2, 13))
        theta = rng.dirichlet(np.ones(p))
        theta[rng.random(p) < 0.25] = 0.0
        theta = theta / theta.sum() if theta.sum() > 0 else np.full(p, 1.0 / p)
        counts = rng.multinomial(int(rng.integers(1, 300)), theta)
        J0 = rng.choice(p, int(rng.integers(1, p + 1)), replace=False)
        yield (
            MultinomialSample(tuple(int(c) for c in counts)),
            tuple(int(j) for j in J0),
            round(float(rng.uniform(0.01, 0.3)), 3),
            BootstrapConfig(B=int(rng.integers(10, 200)),
                            seed=int(rng.integers(0, 2**31))),
        )


@functools.lru_cache(maxsize=1)
def _digests() -> dict[str, str]:
    hashes = {path: hashlib.sha256() for path in PATHS}
    for sample, J0, alpha, config in _tables():
        for method, kind, scope in PATHS:
            try:
                rs = rank_cs(method, sample, J0, kind, alpha, config, scope)
            except ValueError as exc:
                assert method == "naive" and kind != "two_sided", exc
                out = str(exc)
            else:
                intervals = tuple((int(rs.lo[j]), int(rs.hi[j])) for j in rs.J0)
                out = repr((rs.p, rs.J0, rs.kind, rs.method, rs.alpha, intervals))
            hashes[method, kind, scope].update(out.encode())
    return {"/".join(path): h.hexdigest()[:16] for path, h in hashes.items()}


@pytest.mark.parametrize("path", ["/".join(path) for path in PATHS])
def test_outputs_match_pinned_digest(path):
    assert _digests()[path] == DIGESTS[path]


# ---------------------------------------------------------------------------
# Wide joint bootstrap: every unordered pair of p = 17 to 150 categories


def _zipf(p: int, s: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, p + 1) ** s
    return weights / weights.sum()


def _wide_tables(seed=20261019):
    """Seeded wide tables ``(sample, config)``.

    Dense Zipf shares, sparse tables with many zero cells, uniform ties,
    single-cell tables, ``n`` from 1 to 1e7 and ``B`` from 1 to 1000.
    """
    rng = np.random.default_rng(seed)
    drawn = [  # (shares, n, B)
        (_zipf(17, 1.0), 1_000, 200),
        (_zipf(40, 0.5), 5_000, 1),
        (_zipf(100, 0.5), 5_000, 1_000),
        (_zipf(150, 0.8), 20_000, 150),
        (_zipf(100, 0.5), 10**7, 100),
        (rng.dirichlet(np.full(60, 0.3)), 40, 300),
        (rng.dirichlet(np.full(150, 0.5)), 300, 120),
        (rng.dirichlet(np.ones(33)), 2, 50),
    ]
    for shares, n, B in drawn:
        counts = rng.multinomial(n, shares)
        yield MultinomialSample(tuple(int(c) for c in counts)), B
    single_30 = [0] * 30
    single_30[11] = 7
    fixed = [  # (counts, B)
        ((20,) * 50, 400),  # uniform ties
        ((1,) * 120, 60),  # uniform ties, every resample sparse
        (tuple(single_30), 40),  # single-cell table
        ((1,) + (0,) * 24, 1),  # single-cell table, n = 1, B = 1
    ]
    for counts, B in fixed:
        yield MultinomialSample(counts), B


@functools.lru_cache(maxsize=1)
def _wide_digests() -> dict[str, str]:
    hashes = {key: hashlib.sha256() for key in WIDE_DIGESTS}
    mask_rng = np.random.default_rng(7)
    for i, (sample, B) in enumerate(_wide_tables()):
        config = BootstrapConfig(B=B, seed=1000 + i)
        for method in ("boot", "bootStud"):
            rs = rank_cs(method, sample, None, "two_sided", 0.05, config,
                         "simultaneous")
            intervals = tuple((int(rs.lo[j]), int(rs.hi[j])) for j in rs.J0)
            hashes[f"wide/{method}"].update(repr(intervals).encode())
        p = sample.p
        # Every unordered pair in one random orientation, and a partial mask.
        upper = np.triu(np.ones((p, p), dtype=bool), 1)
        flip = mask_rng.random((p, p)) < 0.5
        oriented = (upper & flip) | (upper & ~flip).T
        partial = (mask_rng.random((p, p)) < 0.3) & ~np.eye(p, dtype=bool)
        partial[0, 1] = True
        for studentize in (False, True):
            h = hashes[f"wide/difference_cs/{'stud' if studentize else 'raw'}"]
            for mask in (None, oriented, partial):
                dcs = difference_cs(sample, config, 0.1, mask, shape="symm",
                                    studentize=studentize)
                h.update(repr(dcs.crit).encode())
                h.update(dcs.lo.tobytes())
                h.update(dcs.hi.tobytes())
    return {key: h.hexdigest()[:16] for key, h in hashes.items()}


WIDE_DIGESTS = {
    "wide/boot": "d88cd034c6f9a916",
    "wide/bootStud": "8c9035ed429476c1",
    "wide/difference_cs/raw": "cbe2336165677d44",
    "wide/difference_cs/stud": "4d5e1232ece4ad2d",
}


@pytest.mark.parametrize("key", list(WIDE_DIGESTS))
def test_wide_joint_bootstrap_matches_pinned_digest(key):
    assert _wide_digests()[key] == WIDE_DIGESTS[key]


def _tied_wide_digest() -> str:
    """Joint two-sided ``boot`` and ``bootStud`` on p = 1000 tied tables.

    Every count 5, every count 1, and one count of 5000 beside 999
    ones.  Tied intervals barely depend on the critical value, so the
    calibration's maximum statistic of every resample is pinned too.
    """
    h = hashlib.sha256()
    maxima, kernel = [], boot._symm_stats

    def recorded(*args):
        maxima.append(kernel(*args))
        return maxima[-1]

    tables = ((5,) * 1000, (1,) * 1000, (5_000,) + (1,) * 999)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boot, "_symm_stats", recorded)
        for i, counts in enumerate(tables):
            config = BootstrapConfig(B=25, seed=2000 + i)
            for method in ("boot", "bootStud"):
                rs = rank_cs(method, MultinomialSample(counts), None, "two_sided",
                             0.05, config, "simultaneous")
                intervals = tuple((int(rs.lo[j]), int(rs.hi[j])) for j in rs.J0)
                h.update(repr(intervals).encode())
                h.update(maxima.pop().tobytes())
    return h.hexdigest()[:16]


TIED_WIDE_DIGEST = "d945764430aab94f"


def test_tied_wide_joint_bootstrap_matches_pinned_digest():
    assert _tied_wide_digest() == TIED_WIDE_DIGEST


# ---------------------------------------------------------------------------
# Exact p-value bits: pair totals s from 0 to about 2e4


def _pvalue_tables(seed=20261020):
    """Seeded count tables for the p-value digest.

    The survey's seven shares at n = 600, 5000 and 20000, Zipf(0.5) at
    p = 100 and n = 5000, tables with zero cells, and pairs that sit on
    either side of s = 512 or reach s = 19990.
    """
    rng = np.random.default_rng(seed)
    deep = np.asarray((87, 75, 42, 21, 6, 2, 1), dtype=float) / 234
    for n in (600, 5_000, 20_000):
        for _ in range(3):
            yield tuple(int(c) for c in rng.multinomial(n, deep))
    for _ in range(2):
        yield tuple(int(c) for c in rng.multinomial(5_000, _zipf(100, 0.5)))
    sparse = rng.multinomial(900, rng.dirichlet(np.full(40, 0.3)))
    yield tuple(int(c) for c in sparse)
    yield (0, 0, 1)
    yield (0, 7, 0, 0)
    yield (256, 256, 257, 0, 1, 513, 511, 1200)
    yield (10_000, 9_990, 0, 5, 2_000, 10_001)


@functools.lru_cache(maxsize=1)
def _pvalue_digest() -> str:
    h = hashlib.sha256()
    for counts in _pvalue_tables():
        family = build_index_family("two_sided", None, len(counts))
        table = pairwise_pvalues(MultinomialSample(counts), family)
        h.update(table.pvalues.tobytes())
    return h.hexdigest()[:16]


PVALUE_DIGEST = "55ff25517ccc19c1"


def test_exact_pvalues_match_pinned_digest():
    assert _pvalue_digest() == PVALUE_DIGEST


# ---------------------------------------------------------------------------
# Monte Carlo reports: the criteria 2-5 designs at reduced replications


def _monte_carlo_reports():
    """Seeded designs of the acceptance criteria 2-5, at few replications.

    The election design with all six methods in marginal scope, a
    skewed five-category truth with all six methods in simultaneous
    scope (joint cells), the uniform design at p = 20 and 50, and an
    erratic design with its coverage curves.
    """
    from ranksets.sim import (
        SimDesign, aes_design, erratic_coverage_curves, erratic_design,
        run_design, uniform_design,
    )
    six = METHOD_NAMES
    designs = (
        aes_design(0.5, 1.0, methods=six, reps=60, B=200, master_seed=3),
        SimDesign(name="skewed-p5", theta=(0.55, 0.25, 0.12, 0.07, 0.01),
                  n=117, methods=six, categories=tuple(range(5)),
                  scope="simultaneous", reps=60, B=100, master_seed=0),
        uniform_design(20, 50, reps=30, B=200, master_seed=5),
        uniform_design(50, 30, reps=20, B=200, master_seed=6),
        erratic_design(0.05, 60, reps=60, B=150, master_seed=11),
    )
    for design in designs:
        yield run_design(design).to_csv()
    rows = erratic_coverage_curves(pi_grid=(0.01, 0.05), n_grid=(10, 20),
                                   reps=60, B=150, master_seed=4)
    yield repr(rows)


@functools.lru_cache(maxsize=1)
def _monte_carlo_digest() -> str:
    h = hashlib.sha256()
    for text in _monte_carlo_reports():
        h.update(text.encode())
    return h.hexdigest()[:16]


MONTE_CARLO_DIGEST = "f51917cb61094e01"


def test_monte_carlo_reports_match_pinned_digest():
    assert _monte_carlo_digest() == MONTE_CARLO_DIGEST
