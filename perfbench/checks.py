"""Output checks, run after the timed interval on the JSON each operation printed.

Expected values are computed here apart from the engine: group orders and
class counts from their formulas, partition and bipartition counts, π₀ orders
from the gcd of maximal minors with a fraction-free determinant, τ counts by
plain enumeration, and the symmetries every result must have.  Where a check
compares against the program's other computation path (the type-A closed
form against the engine, and back), that reference is computed after the
timed interval through `orbev.cli.main`.

Each check function returns a defaultdict(list) of {operation index: [failure messages]}.
An operation whose stdout is not JSON has None for its document and is skipped here.
"""

from __future__ import annotations

import io
import json
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial, gcd

from workloads import REBASED, identity, matmul


# --- counts from formulas ----------------------------------------------------


@lru_cache(maxsize=None)
def partitions(n: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Partitions of n with parts ≤ largest, in descending order of parts."""
    largest = n if largest is None else largest
    if n == 0:
        return ((),)
    return tuple(
        (part,) + rest for part in range(min(n, largest), 0, -1) for rest in partitions(n - part, part)
    )


def bipartitions(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return [(a, b) for k in range(n + 1) for a in partitions(k) for b in partitions(n - k)]


def class_count(family: str, n: int) -> int:
    """Conjugacy classes of W: S_n by cycle type, W(B_n) by signed cycle type.

    A W(B_n) class lies in W(D_n) when its negative cycles are even in number;
    it splits in two when there are no negative cycles and every cycle is even.
    """
    if family == "A":
        return len(partitions(n))
    if family in ("B", "C"):
        return len(bipartitions(n))
    if family == "D":
        kept = sum(1 for _, neg in bipartitions(n) if len(neg) % 2 == 0)
        return kept + sum(1 for a in partitions(n) if all(p % 2 == 0 for p in a))
    if family == "G2":
        return 6
    raise ValueError(family)


def weyl_order(family: str, n: int) -> int:
    return {"A": factorial(n), "B": 2**n * factorial(n), "C": 2**n * factorial(n),
            "D": 2 ** (n - 1) * factorial(n), "G2": 12}[family]


def family_of(selector: list[str]) -> tuple[str, int]:
    """(family, n) of a group selector; re-based files keep their built-in's group."""
    if selector[0] == "sl":
        return "A", int(selector[1])
    if selector[0] == "classical":
        return selector[1], int(selector[2])
    path = selector[1]
    if path.endswith("g2.datum"):
        return "G2", 2
    built_in = REBASED[int(path.rsplit("rebased-", 1)[1].split(".")[0])][0]
    return family_of(list(built_in))


# --- integer linear algebra --------------------------------------------------


def bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; every division is exact."""
    a = [row[:] for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def torsion_order(m: list[list[int]]) -> int:
    """|Tor(Z^r / m·Z^r)|: the gcd of the nonzero minors of the largest size."""
    n = len(m)
    for k in range(n, 0, -1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                g = gcd(g, bareiss_det([[m[i][j] for j in cols] for i in rows]))
        if g:
            return g
    return 1


def minus_identity(w) -> list[list[int]]:
    return [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(w)]


def inverse_by_order(w):
    """w⁻¹ as the power w^(ord w - 1) of a finite-order matrix."""
    one = identity(len(w))
    power, previous = w, one
    while power != one:
        previous, power = power, matmul(power, w)
    return previous


def tau_count(l: int, m: int, g: int, d: int) -> int:
    """#{(r, s) : (m,g)·r = 0 = (l,g)·s in Z_g^d, r·s ≡ 0 mod g}, by enumeration."""
    mg, lg = gcd(m, g), gcd(l, g)
    r_box = [tuple(x * (g // mg) for x in r) for r in product(range(mg), repeat=d)]
    s_box = [tuple(x * (g // lg) for x in s) for s in product(range(lg), repeat=d)]
    return sum(1 for r in r_box for s in s_box if sum(a * b for a, b in zip(r, s)) % g == 0)


# --- polynomials as JSON term lists ------------------------------------------


def poly(terms: list[dict]) -> dict[tuple[int, int], Fraction]:
    return {(t["p"], t["q"]): Fraction(t["coeff"]) for t in terms}


def reference(*argv: str) -> dict | None:
    """The JSON that `orbev.cli.main` prints for argv, or None when it fails."""
    from orbev.cli import main

    buf = io.StringIO()
    try:
        rc = main(list(argv), out=buf)
        return json.loads(buf.getvalue()) if rc == 0 else None
    except Exception:  # a broken reference fails the checks that need it
        return None


# --- per-workload checks -----------------------------------------------------


def check_mirror(ops, docs) -> dict[int, list[str]]:
    bad = defaultdict(list)
    totals = {}
    for i, (argv, doc) in enumerate(zip(ops, docs)):
        if doc is None:
            continue
        selector, space = argv[2:-2], argv[-1]
        totals[(tuple(selector), space)] = doc["total"]
        family, n = family_of(selector)
        order = weyl_order(family, n)
        if doc["verdict"] is not True:
            bad[i].append("verdict is not true")
        if any(p["difference"] for p in doc["pair_diffs"]):
            bad[i].append("a class pair differs")
        sizes = [c["class_size"] for c in doc["classes"]]
        if sum(sizes) != order:
            bad[i].append(f"class sizes sum to {sum(sizes)}, |W| = {order}")
        if any(c["class_size"] * c["centralizer_order"] != order for c in doc["classes"]):
            bad[i].append("class size × centralizer order ≠ |W|")
        if len(sizes) != class_count(family, n):
            bad[i].append(f"{len(sizes)} classes, expected {class_count(family, n)}")
        if selector[0] == "sl" and space in ("betti", "abelian-surface"):
            surface = "betti" if space == "betti" else "abelian"
            closed = reference("closed-form", "--n", selector[1], "--m", selector[2], "--surface", surface)
            if closed is None or poly(closed["total"]) != poly(doc["total"]):
                bad[i].append("total differs from the closed form")
    for i, argv in enumerate(ops):
        if argv[2] == "custom" and "rebased-" in argv[3] and docs[i] is not None:
            built_in, space = REBASED[int(argv[3].rsplit("rebased-", 1)[1].split(".")[0])]
            expected = totals.get((built_in, space))
            if expected is None or poly(expected) != poly(docs[i]["total"]):
                bad[i].append(f"re-based total differs from {' '.join(built_in)} on {space}")
    return bad


def _datum_generators(selector: list[str]):
    from orbev.root_data import classical_datum, sl_quotient_datum

    if selector[0] == "sl":
        datum = sl_quotient_datum(int(selector[1]), int(selector[2]))
    else:
        form = {"sc": "simply_connected", "ad": "adjoint"}[selector[3]]
        datum = classical_datum(selector[1], int(selector[2]), form)
    return [g.entries for g in datum.generators]


def _conjugacy_orbit(w, pairs) -> set:
    orbit, frontier = {w}, [w]
    while frontier:
        x = frontier.pop()
        for g, g_inv in pairs:
            y = matmul(matmul(g, x), g_inv)
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def check_duality(ops, docs) -> dict[int, list[str]]:
    bad = defaultdict(list)
    for i, (argv, doc) in enumerate(zip(ops, docs)):
        if doc is None:
            continue
        selector = argv[2:]
        family, n = family_of(selector)
        order = weyl_order(family, n)
        if doc["verdict"] is not True:
            bad[i].append("verdict is not true")
        if not all(r["orders_agree"] and r["fixed_counts_agree"] for r in doc["classes"]):
            bad[i].append("a class row disagrees")
        if len(doc["classes"]) != class_count(family, n):
            bad[i].append(f"{len(doc['classes'])} classes, expected {class_count(family, n)}")
        # Conjugation orbits of the representatives, under the datum's generators,
        # must be disjoint and exhaust |W|.
        pairs = [(g, inverse_by_order(g)) for g in _datum_generators(selector)]
        covered = set()
        for row in doc["classes"]:
            orbit = _conjugacy_orbit(tuple(map(tuple, row["class_rep"])), pairs)
            if covered & orbit:
                bad[i].append("two representatives are conjugate")
            covered |= orbit
        if len(covered) != order:
            bad[i].append(f"class orbits cover {len(covered)} elements, |W| = {order}")
        for row in doc["classes"]:
            w = tuple(map(tuple, row["class_rep"]))
            dual = tuple(zip(*inverse_by_order(w)))
            for key, matrix in (("pi0_primal", w), ("pi0_dual", dual)):
                got = 1
                for d in row[key]:
                    got *= d
                if got != torsion_order(minus_identity(matrix)):
                    bad[i].append(f"{key} order {got} ≠ gcd of maximal minors")
    return bad


def check_closed_form(ops, docs) -> dict[int, list[str]]:
    bad = defaultdict(list)
    totals = {}
    for i, (argv, doc) in enumerate(zip(ops, docs)):
        if doc is None:
            continue
        n, m, surface = int(argv[2]), int(argv[4]), argv[6]
        d = 2 if surface == "betti" else 4
        total = poly(doc["total"])
        totals[(n, m, surface)] = total
        if any(c.denominator != 1 for c in total.values()):
            bad[i].append("non-integer coefficient")
        top = 2 * (n - 1)
        if any(total.get((top - p, top - q)) != c for (p, q), c in total.items()):
            bad[i].append(f"not palindromic in degree {top}")
        if surface == "abelian":
            if any(c * (-1) ** (p + q) <= 0 for (p, q), c in total.items()):
                bad[i].append("a coefficient's sign is not (-1)^(p+q)")
            if any(total.get((q, p)) != c for (p, q), c in total.items()):
                bad[i].append("not symmetric under u <-> v")
        expected_parts = [list(a) for a in partitions(n)]
        if [c["partition"] for c in doc["classes"]] != expected_parts:
            bad[i].append("partition list differs")
        for c in doc["classes"]:
            g = 0
            for part in c["partition"]:
                g = gcd(g, part)
            if c["tau"] != tau_count(n // m, m, g, d):
                bad[i].append(f"tau for {c['partition']} differs from enumeration")
            if c["shift"] != n - len(c["partition"]):
                bad[i].append(f"shift for {c['partition']} is wrong")
        if n <= 4:
            space = "betti" if surface == "betti" else "abelian-surface"
            engine = reference("compute", "--group", "sl", str(n), str(m), "--space", space)
            if engine is None or poly(engine["total"]) != total:
                bad[i].append("total differs from the engine")
    for i, argv in enumerate(ops):
        n, m, surface = int(argv[2]), int(argv[4]), argv[6]
        mine, mirrored = totals.get((n, m, surface)), totals.get((n, n // m, surface))
        if mine is not None and mine != mirrored:
            bad[i].append(f"total changes under m <-> n/m = {n // m}")
    return bad


CHECKS = {"mirror-sweep": check_mirror, "duality-sweep": check_duality, "closed-form": check_closed_form}
