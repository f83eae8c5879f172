"""Every rank confidence-set path gives the same intervals, bit for bit.

Each of the 36 ``(method, kind, scope)`` paths of :func:`rank_cs` runs
on the same 200 seeded random tables (``p`` from 2 to 12, zero cells,
random ``J0``, ``alpha``, ``B`` and bootstrap seed), and the path's
outputs hash to the pinned 16-hex sha256 prefix below.  An output is
``(p, J0, kind, method, alpha, intervals)``, or the ``ValueError`` text
for the one-sided ``naive`` paths, which do not exist.

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

from ranksets import METHOD_NAMES, rank_cs
from ranksets.boot import BootstrapConfig
from ranksets.core import KINDS, SCOPES, MultinomialSample

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
