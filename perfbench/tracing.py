"""Spans around the calls into each orbev module, installed from outside the package.

Each public function is wrapped by replacing the module attribute its caller
looks it up by (the engine calls `solve_right_integer` through
`orbifold_engine.solve_right_integer`, the CLI calls `closed_form_eorb`
through `cli.closed_form_eorb`), so no code under `src/` changes.  A span
records its name, the operation it belongs to, its parent span, its start and
end, and the time its child spans cover; self time is the duration minus that
child time.  `BivariatePolynomial.__mul__` gets counters instead of a span:
one `mirror-sweep` round makes about 170 000 products.  Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from time import perf_counter

SPAN_FIELDS = ("name", "op", "parent", "start", "end", "child")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            record = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = record[4] = perf_counter()
                stack.pop()
                if stack:
                    spans[stack[-1]][5] += end - record[3]
            if count is not None:
                count(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def install(self) -> None:
        from orbev import cli, epoly, orbifold_engine, sln_formula
        from orbev.lattice_core import IntegerMatrix

        counts = self.counts

        def add(key, size):
            def count(result):
                counts[key] += size(result)

            return count

        engine_calls = {
            "generate_group": ("weyl.generate_group", add("weyl.group_elements", lambda g: g.order)),
            "conjugacy_classes": ("weyl.conjugacy_classes", None),
            "centralizer": ("weyl.centralizer", add("weyl.centralizer_elements", lambda g: g.order)),
            "fixed_sublattice": ("lattice_core.fixed_sublattice", None),
            "torsion_of_cokernel": ("lattice_core.torsion_of_cokernel", None),
            "solve_right_integer": ("lattice_core.solve_right_integer", None),
            "induced_automorphism": ("lattice_core.induced_automorphism", None),
            "fixed_count": ("lattice_core.fixed_count", None),
            "factor_e_character": ("epoly.factor_e_character", None),
            "class_contribution": ("orbifold_engine.class_contribution", None),
            "dual_datum": ("root_data.dual_datum", None),
        }
        for attr, (name, count) in engine_calls.items():
            self.patch(orbifold_engine, attr, name, count)
        self.patch(IntegerMatrix, "inverse_unimodular", "lattice_core.inverse_unimodular")
        self.patch(IntegerMatrix, "inverse_transpose", "lattice_core.inverse_transpose")
        self.patch(epoly, "char_poly", "epoly.char_poly")
        self.patch(sln_formula, "exact_divide", "epoly.exact_divide")
        self.patch(sln_formula, "sym_e_polynomial", "sln_formula.sym_e_polynomial")
        self.patch(sln_formula, "tau", "sln_formula.tau")
        self.patch(cli, "tau", "sln_formula.tau")
        self.patch(cli, "closed_form_eorb", "sln_formula.closed_form_eorb")
        for attr in ("sl_quotient_datum", "classical_datum", "custom_datum"):
            self.patch(cli, attr, f"root_data.{attr}")
        self.patch(cli, "dumps_canonical", "cli.dumps_canonical", add("cli.output_bytes", lambda s: len(s.encode())))

        mul = epoly.BivariatePolynomial.__mul__
        self._restore.append((epoly.BivariatePolynomial, "__mul__", mul))

        def counted_mul(a, b):
            terms_a, terms_b = len(a.coeffs), len(b.coeffs)
            counts["epoly.poly_mul_calls"] += 1
            counts["epoly.poly_mul_term_pairs"] += terms_a * terms_b
            counts["epoly.poly_mul_max_terms"] = max(counts["epoly.poly_mul_max_terms"], terms_a, terms_b)
            return mul(a, b)

        epoly.BivariatePolynomial.__mul__ = counted_mul

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write_spans(self, path, origin: float) -> None:
        """One JSON list per span, times in seconds from origin, then self time."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write(json.dumps({"fields": [*SPAN_FIELDS, "self"]}) + "\n")
            for name, op, parent, start, end, child in self.spans:
                row = [name, op, parent, round(start - origin, 7), round(end - origin, 7), round(child, 7)]
                f.write(json.dumps(row + [round(end - start - child, 7)]) + "\n")

    def layer_metrics(self, cache_before: dict, cache_after: dict) -> dict[str, tuple[float, str]]:
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, _, _, start, end, child in self.spans:
            self_s[name] += end - start - child
            calls[name] += 1

        def seconds(*names):
            return sum(self_s[n] for n in names), "s"

        c = self.counts
        metrics = {
            "weyl.generate_group_s": seconds("weyl.generate_group"),
            "weyl.conjugacy_classes_s": seconds("weyl.conjugacy_classes"),
            "weyl.centralizer_s": seconds("weyl.centralizer"),
            "weyl.group_elements": (c["weyl.group_elements"], "count"),
            "weyl.centralizer_elements": (c["weyl.centralizer_elements"], "count"),
            "lattice_core.fixed_data_s": seconds("lattice_core.fixed_sublattice", "lattice_core.torsion_of_cokernel"),
            "lattice_core.solve_s": seconds("lattice_core.solve_right_integer"),
            "lattice_core.solve_calls": (calls["lattice_core.solve_right_integer"], "count"),
            "lattice_core.pi0_count_s": seconds("lattice_core.induced_automorphism", "lattice_core.fixed_count"),
            "lattice_core.pi0_count_calls": (calls["lattice_core.fixed_count"], "count"),
            "lattice_core.inverse_s": seconds("lattice_core.inverse_unimodular", "lattice_core.inverse_transpose"),
            # inverse_transpose calls inverse_unimodular, so this counts each inversion once.
            "lattice_core.inverse_calls": (calls["lattice_core.inverse_unimodular"], "count"),
            "epoly.char_poly_s": seconds("epoly.char_poly"),
            "epoly.char_poly_calls": (calls["epoly.char_poly"], "count"),
            "epoly.factor_e_character_s": seconds("epoly.factor_e_character"),
            "epoly.factor_e_character_calls": (calls["epoly.factor_e_character"], "count"),
            "epoly.poly_mul_calls": (c["epoly.poly_mul_calls"], "count"),
            "epoly.poly_mul_term_pairs": (c["epoly.poly_mul_term_pairs"], "count"),
            "epoly.poly_mul_max_terms": (c["epoly.poly_mul_max_terms"], "count"),
            "epoly.exact_divide_s": seconds("epoly.exact_divide"),
            "orbifold_engine.class_contribution_self_s": seconds("orbifold_engine.class_contribution"),
            "orbifold_engine.classes": (calls["orbifold_engine.class_contribution"], "count"),
            "sln_formula.sym_e_polynomial_s": seconds("sln_formula.sym_e_polynomial"),
            "sln_formula.tau_s": seconds("sln_formula.tau"),
            "sln_formula.closed_form_self_s": seconds("sln_formula.closed_form_eorb"),
            "root_data.datum_s": seconds(*(n for n in self_s if n.startswith("root_data."))),
            "cli.serialise_s": seconds("cli.dumps_canonical"),
            "cli.output_bytes": (c["cli.output_bytes"], "bytes"),
            "trace.unattributed_s": seconds("cli.main"),
            "trace.spans": (len(self.spans), "count"),
        }
        for key, (hits_before, misses_before) in cache_before.items():
            hits_after, misses_after = cache_after[key]
            hits = hits_after - hits_before
            total = hits + misses_after - misses_before
            metrics[f"{key}_cache_hits"] = (hits, "count")
            metrics[f"{key}_cache_calls"] = (total, "count")
            metrics[f"{key}_cache_hit_ratio"] = (hits / total if total else 0.0, "ratio")
        return metrics


def cache_counters() -> dict[str, tuple[int, int]]:
    """(hits, misses) of the engine's process-wide caches, read through cache_info().

    Read while no wrapper is installed: `epoly.char_poly` is one while tracing.
    """
    from orbev import epoly, orbifold_engine

    caches = {
        "orbifold_engine.restricted_action": orbifold_engine._restricted_action,
        "orbifold_engine.pi0_fixed_count": orbifold_engine._pi0_fixed_count,
        "epoly.factor_e_character": epoly.factor_e_character,
        "epoly.char_poly": epoly.char_poly,
    }
    return {key: (fn.cache_info().hits, fn.cache_info().misses) for key, fn in caches.items()}
