"""The names that perfbench's tracer patches and reads exist in the package.

A rename that breaks them would otherwise show only in a traced benchmark run
(`--trace 1`); here it fails the test suite.  No file under perfbench/ is
changed: the test imports its tracer as the benchmark worker does.
"""

import io
import sys
from pathlib import Path

from orbev import orbifold_engine
from orbev.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_reads_caches_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    from tracing import Tracer, cache_counters

    originals = dict(vars(orbifold_engine))
    orbifold_engine.orbifold_e_polynomial.cache_clear()
    before = cache_counters()
    tracer = Tracer()
    tracer.install()
    try:
        assert orbifold_engine.class_contribution is not originals["class_contribution"]
        assert main(["compute", "--group", "sl", "3", "3", "--space", "mixed"], out=io.StringIO()) == 0
    finally:
        tracer.uninstall()
    assert all(vars(orbifold_engine)[name] is value for name, value in originals.items())
    metrics = tracer.layer_metrics(before, cache_counters())
    assert metrics["orbifold_engine.classes"][0] > 0
    for cache in ("orbifold_engine.restricted_action", "orbifold_engine.pi0_fixed_count",
                  "epoly.factor_e_character", "epoly.char_poly"):
        assert f"{cache}_cache_hit_ratio" in metrics
