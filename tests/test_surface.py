"""The package's public names, and the program names the benchmark's traced run wraps."""

import os

import minsimplex
from minsimplex import extremal, geometry, matroid

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_exported_name_resolves():
    for module in (minsimplex, extremal):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], (module.__name__, missing)


def test_traced_benchmark_run_finds_every_name_it_wraps(monkeypatch):
    # perfbench/tracing.py swaps wrappers in by name, so entering it raises
    # AttributeError for a program name that was deleted or renamed
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    originals = geometry.enumerate_affine_simplexes, matroid.enumerate_circuits
    with tracing.installed(tracing.Tracer()):
        assert geometry.enumerate_affine_simplexes is not originals[0]
        assert matroid.enumerate_circuits is not originals[1]
    assert (geometry.enumerate_affine_simplexes, matroid.enumerate_circuits) == originals
