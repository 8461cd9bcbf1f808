"""The names that perfbench's tracer patches and reads exist in the package.

A rename that breaks them would otherwise show only in a traced benchmark run
(`--trace 1`); here it fails the test suite.  The bytes the tracer counts at
`cli.dumps_canonical` must be every byte a command writes.  No file under
perfbench/ is changed: the test imports its tracer as the benchmark worker does.
"""

import io
import sys
from pathlib import Path

import pytest

from orbev import orbifold_engine, sln_formula
from orbev.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("argv, cached, nonzero, exact", [
    # SL(3)/Z3 has three classes: compute makes one class term each, mirror-check a primal and a dual one.
    (["compute", "--group", "sl", "3", "3", "--space", "mixed"], (orbifold_engine.orbifold_e_polynomial,),
     (), {"orbifold_engine.classes": 3}),
    (["mirror-check", "--group", "sl", "3", "3", "--space", "mixed"], (orbifold_engine.mirror_check,),
     (), {"orbifold_engine.classes": 6}),
    (["duality-check", "--group", "classical", "B", "3", "sc"],
     (orbifold_engine.duality_check, orbifold_engine._fixed_data, orbifold_engine._key_histogram),
     ("lattice_core.fixed_data_s", "lattice_core.pi0_count_calls"), {}),
    (["closed-form", "--n", "6", "--m", "2", "--surface", "abelian"],
     (sln_formula._grouped_partition_sums, sln_formula.partitions, sln_formula.tau),
     ("sln_formula.closed_form_self_s",), {}),
], ids=["compute", "mirror-check", "duality-check", "closed-form"])
def test_tracer_installs_reads_caches_and_uninstalls(monkeypatch, argv, cached, nonzero, exact):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    from tracing import Tracer, cache_counters

    originals = dict(vars(orbifold_engine))
    for cache in cached:
        cache.cache_clear()
    before = cache_counters()
    tracer = Tracer()
    tracer.install()
    try:
        assert orbifold_engine.class_contribution is not originals["class_contribution"]
        assert orbifold_engine.torsion_of_cokernel is not originals["torsion_of_cokernel"]
        assert main(argv, out=io.StringIO()) == 0
    finally:
        tracer.uninstall()
    assert all(vars(orbifold_engine)[name] is value for name, value in originals.items())
    metrics = tracer.layer_metrics(before, cache_counters())
    assert all(metrics[metric][0] > 0 for metric in nonzero)
    assert {metric: metrics[metric][0] for metric in exact} == exact
    # Every π₀ lookup, a memo hit or a miss, goes through the name the tracer wraps.
    assert metrics["lattice_core.pi0_count_calls"][0] == metrics["orbifold_engine.pi0_fixed_count_cache_calls"][0]
    for cache in ("orbifold_engine.restricted_action", "orbifold_engine.pi0_fixed_count",
                  "epoly.factor_e_character", "epoly.char_poly"):
        assert f"{cache}_cache_hit_ratio" in metrics


@pytest.mark.parametrize("argv", [
    ["mirror-check", "--group", "classical", "B", "2", "ad", "--space", "mixed"],
    ["closed-form", "--n", "4", "--m", "2", "--surface", "abelian"],
], ids=["mirror-check", "closed-form"])
def test_traced_output_bytes_are_every_byte_written(monkeypatch, argv):
    """Every byte of stdout goes through cli.dumps_canonical, where the tracer counts it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    from tracing import Tracer, cache_counters

    before = cache_counters()
    out = io.StringIO()
    tracer = Tracer()
    tracer.install()
    try:
        main(argv, out=out)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(before, cache_counters())
    assert metrics["cli.output_bytes"] == (len(out.getvalue().encode("utf-8")), "bytes")
    assert metrics["cli.output_bytes"][0] > 0
