"""What the benchmark's tracer reads from the package still exists.

``bench/tracing.py`` wraps package functions by module and attribute
name, reads ``lru_cache`` statistics and counts pairs from results.  A
rename inside the package would make ``--trace 1`` runs fail or read
zero; these tests catch it here.  The tracer is only read, never
installed, so no package function is wrapped for the other tests.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from ranksets.boot import DifferenceCS
from ranksets.core import IndexFamily

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


def _attribute(module_name, attr):
    importlib.import_module(module_name)
    owner, name = tracing._resolve(module_name, attr)
    return getattr(owner, name)


@pytest.mark.parametrize("layer, target", [
    (layer, target)
    for layer, targets in tracing.LAYERS.items()
    for target in targets
])
def test_every_traced_layer_resolves_to_a_callable(layer, target):
    assert callable(_attribute(*target)), layer


@pytest.mark.parametrize("cache, target", sorted(tracing.CACHES.items()))
def test_every_traced_cache_reports_cache_info(cache, target):
    info = _attribute(*target).cache_info()
    assert info.maxsize is not None, cache


def test_counted_results_keep_their_pairs():
    # The pair counters read ``.pairs`` from build_index_family's and
    # difference_cs's results.
    assert isinstance(DifferenceCS.pairs, property)
    assert hasattr(IndexFamily, "pairs")
