"""Brute-force reference computations that the tests compare orbev against.

Each oracle takes a path independent of the one the package uses, so that a
test can check the package's result against it:

- direct_shift_oracle: fermionic shifts from the eigenvalue angles of w,
  against orbifold_engine.fermionic_shift (the rank of w - 1).
- direct_sym_oracle: E(Sym^a A) by averaging over all of S_a, against the
  generating function of sln_formula.sym_e_polynomial.
- datum_equivalent: equality of root data up to a change of basis, against
  the explicit dual pairs that root_data builds.
- matrix_group_oracle: group elements, conjugacy classes and centralizers by
  IntegerMatrix products alone, against weyl's permutation keys.
- per_element_class_oracle: a class term summed element by element, against
  the key histogram of orbifold_engine.class_contribution.
- per_element_duality_oracle: a duality_check row rebuilt element by element
  from induced automorphisms, against the engine's per-w π₀ projections.

`rebased` and `rank_four_data` are test data, not oracles: a datum in a
seeded new basis, and the built-ins of rank <= 4 with two more data.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from pathlib import Path

from orbev.epoly import (
    DUAL,
    BivariatePolynomial,
    SpaceDescriptor,
    char_poly,
    factor_dimension,
    factor_e_character,
)
from orbev.lattice_core import (
    InexactSolveError,
    IntegerMatrix,
    fixed_count,
    fixed_sublattice,
    induced_automorphism,
    solve_exact,
    solve_right_integer,
    torsion_of_cokernel,
)
from orbev.orbifold_engine import EngineError
from orbev.root_data import RootDatum, _congruence, classical_datum, custom_datum, sl_quotient_datum
from orbev.sln_formula import FormulaError

G2_PATH = Path(__file__).parent / "data" / "g2.datum"


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Integer coefficients of Φ_d(t), low degree first."""
    # Φ_d = (t^d - 1) / Π_{e | d, e < d} Φ_e
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly = _poly_exact_div(poly, list(_cyclotomic(e)))
    return tuple(poly)


def _poly_exact_div(p: list[int], q: list[int]) -> list[int]:
    """Exact division of integer polynomials (q monic), low degree first."""
    p = p[:]
    out = [0] * (len(p) - len(q) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = p[k + len(q) - 1]
        out[k] = c
        if c:
            for i, qc in enumerate(q):
                p[k + i] -= c * qc
    if any(p[: len(q) - 1]):
        raise EngineError("polynomial division was not exact")
    return out


def direct_shift_oracle(w: IntegerMatrix) -> int:
    """Fermionic shift from first principles: eigenvalue angles of w.

    Factors the characteristic polynomial into cyclotomics, sums the angles
    k/d ∈ [0,1) of each primitive d-th root of unity with exact Fractions,
    doubles the sum (the tangent space is two copies of the lattice for every
    supported family), and asserts integrality.
    """
    coeffs = list(char_poly(w))
    n = len(coeffs) - 1
    doubled = Fraction(0)
    d = 1
    limit = 4 * n * n + 30
    while len(coeffs) > 1:
        if d > limit:
            raise EngineError("matrix is not of finite order")
        phi = list(_cyclotomic(d))
        while len(coeffs) >= len(phi):
            try:
                quotient = _poly_exact_div(coeffs, phi)
            except EngineError:
                break
            coeffs = quotient
            angle_sum = sum((Fraction(k, d) for k in range(1, d) if gcd(k, d) == 1), Fraction(0))
            doubled += 2 * angle_sum
        d += 1
    if doubled.denominator != 1:
        raise EngineError("eigenvalue angles do not sum to an integer")
    return int(doubled)


def direct_sym_oracle(e_a: BivariatePolynomial, a: int) -> BivariatePolynomial:
    """bar E_{S_a}(A^a) by literal averaging over all a! permutations.

    Each permutation contributes Π_{cycles of length i} E_A(u^i, v^i); the
    average must equal sym_e_polynomial.  Enumeration-bound: a <= 5.
    """
    if not 0 <= a <= 5:
        raise FormulaError("direct oracle enumerates S_a only for a <= 5")
    total = BivariatePolynomial.zero()
    for perm in itertools.permutations(range(a)):
        term = BivariatePolynomial.one()
        seen = [False] * a
        for start in range(a):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            term = term * e_a.substitute_powers(length, length)
        total = total + term
    return total.scale(Fraction(1, factorial(a)))


def datum_equivalent(d1: RootDatum, d2: RootDatum, up_to_gram_scale: bool = False) -> bool:
    """Same ambient lattice, same generator set, and matching gram form.

    The comparison allows for a change of basis: it finds the integral basis
    change T with basis2/den2 = (basis1/den1)·T, requires it to be unimodular
    in both directions, and compares generator sets and gram forms through T.
    With up_to_gram_scale the gram forms may differ by a positive rational
    factor.
    """
    if d1.rank != d2.rank or d1.ambient_dim != d2.ambient_dim:
        return False
    if d1.rank == 0:
        return True
    try:
        x12 = solve_exact(d1.basis, d2.basis)
        x21 = solve_exact(d2.basis, d1.basis)
    except InexactSolveError:
        return False
    scale12 = Fraction(d1.denominator, d2.denominator)
    scale21 = Fraction(d2.denominator, d1.denominator)
    t12 = [[x * scale12 for x in row] for row in x12]
    t21 = [[x * scale21 for x in row] for row in x21]
    if any(x.denominator != 1 for row in t12 for x in row):
        return False
    if any(x.denominator != 1 for row in t21 for x in row):
        return False
    t = IntegerMatrix.from_rows([[int(x) for x in row] for row in t12], cols=d1.rank)
    if not t.is_unimodular():
        return False
    tinv = t.inverse_unimodular()
    gens1 = set(d1.generators)
    gens2 = {t * h * tinv for h in d2.generators}
    if gens1 != gens2:
        return False
    transported = _congruence(t, d1.gram)
    if transported == d2.gram:
        return True
    if up_to_gram_scale:
        base = next((x for row in transported for x in row if x != 0), None)
        other = next((x for row in d2.gram for x in row if x != 0), None)
        if base is None or other is None:
            return False
        ratio = other / base
        if ratio <= 0:
            return False
        return all(
            transported[i][j] * ratio == d2.gram[i][j]
            for i in range(d2.rank)
            for j in range(d2.rank)
        )
    return False


def matrix_group_oracle(generators) -> tuple[list, list, list, list]:
    """(elements, class representatives, class sizes, centralizers) by matrix products.

    Elements come in the breadth-first order of x·g over the distinct
    generators sorted by their entries; a class is the orbit of its first
    element in that order under conjugation by the generators; a centralizer
    lists the elements commuting with the representative, in element order.
    """
    gens = sorted(set(generators), key=lambda g: g.entries)
    elements = [IntegerMatrix.identity(gens[0].rows)]
    seen = set(elements)
    for x in elements:  # grows while it is read
        for g in gens:
            y = x * g
            if y not in seen:
                seen.add(y)
                elements.append(y)
    pairs = [(g, g.inverse_unimodular()) for g in gens]
    classes: dict[IntegerMatrix, int] = {}
    representatives, sizes = [], []
    for seed in elements:
        if seed in classes:
            continue
        classes[seed] = len(representatives)
        orbit = [seed]
        for x in orbit:
            for g, ginv in pairs:
                y = g * x * ginv
                if y not in classes:
                    classes[y] = len(representatives)
                    orbit.append(y)
        representatives.append(seed)
        sizes.append(len(orbit))
    centralizers = [[c for c in elements if c * w == w * c] for w in representatives]
    return elements, representatives, sizes, centralizers


def per_element_class_oracle(space: SpaceDescriptor, w: IntegerMatrix, cent) -> tuple:
    """(average, weighted, shift, pi0_divisors) of w's class, one element at a time.

    Each c in the centralizer contributes the product over the space's factors
    of the E-character of c on the factor's Λ^w times Fix(c, π₀(T^w))^d, with
    every piece computed afresh: a dual-side matrix by Bareiss inversion, the
    restricted action by a solve on the fixed basis, the fixed count from the
    induced automorphism.  The shift comes from eigenvalue angles and (uv)^F is
    a power of uv.  No engine cache, key read or histogram is used.
    """
    cent = tuple(cent)
    eye = IntegerMatrix.identity(w.rows)
    total = BivariatePolynomial.zero()
    for c in cent:
        term = BivariatePolynomial.one()
        for kind, side in space.factors:
            ws, cs = (w.inverse_transpose(), c.inverse_transpose()) if side == DUAL else (w, c)
            basis = fixed_sublattice(ws)
            term = term * factor_e_character(kind, char_poly(solve_right_integer(basis, cs * basis)))
            term = term.scale(fixed_count(induced_automorphism(cs, ws - eye)) ** factor_dimension(kind))
        total = total + term
    average = total.scale(Fraction(1, len(cent)))
    shift = direct_shift_oracle(w)
    weighted = average * BivariatePolynomial.monomial(1, 1) ** shift
    return average, weighted, shift, torsion_of_cokernel(w - eye).divisors


def per_element_duality_oracle(w: IntegerMatrix, cent) -> tuple:
    """(pi0_primal, pi0_dual, orders_agree, fixed_counts_agree) of w's duality row.

    Every count is fixed_count of a fresh induced automorphism, and the dual
    side is w and each c inverted and transposed by Bareiss.
    """
    eye = IntegerMatrix.identity(w.rows)
    dual_w = w.inverse_transpose()
    primal, dual = torsion_of_cokernel(w - eye), torsion_of_cokernel(dual_w - eye)
    counts_agree = all(
        fixed_count(induced_automorphism(c, w - eye))
        == fixed_count(induced_automorphism(c.inverse_transpose(), dual_w - eye))
        for c in cent
    )
    return primal.divisors, dual.divisors, primal.order == dual.order, counts_agree


def rank_four_data() -> list[RootDatum]:
    """Every built-in of rank <= 4 in both forms, the G2 datum file and C3_ad re-based."""
    data = [sl_quotient_datum(n, m) for n in range(2, 6) for m in range(1, n + 1) if n % m == 0]
    forms = ("simply_connected", "adjoint")
    data += [classical_datum(f, n, form) for f in "BC" for n in (2, 3, 4) for form in forms]
    data += [classical_datum("D", n, form) for n in (3, 4) for form in forms]
    data.append(custom_datum(G2_PATH))
    data.append(rebased(classical_datum("C", 3, "adjoint"), seed=7))
    return data


def rebased(d: RootDatum, seed: int) -> RootDatum:
    """d in the basis basis·T for a seeded unimodular T."""
    rng = random.Random(seed)
    rows = [[int(i == j) for j in range(d.rank)] for i in range(d.rank)]
    for _ in range(4):
        i, j = rng.sample(range(d.rank), 2)
        k = rng.choice((-1, 1))
        for row in rows:
            row[j] += k * row[i]
    t = IntegerMatrix.from_rows(rows, cols=d.rank)
    t_inv = t.inverse_unimodular()
    out = RootDatum(
        rank=d.rank,
        basis=d.basis * t,
        denominator=d.denominator,
        gram=_congruence(t, d.gram),
        generators=tuple(t_inv * g * t for g in d.generators),
        label="rebased",
    )
    out.validate()
    return out
