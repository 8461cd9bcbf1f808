"""Brute-force reference computations that the tests compare orbev against.

Each oracle takes a path independent of the one the package uses, so that a
test can check the package's result against it:

- direct_shift_oracle: fermionic shifts from the eigenvalue angles of w,
  against orbifold_engine.fermionic_shift (the rank of w - 1).
- direct_sym_oracle: E(Sym^a A) by averaging over all of S_a, against the
  generating function of sln_formula.sym_e_polynomial.
- datum_equivalent: equality of root data up to a change of basis, against
  the explicit dual pairs that root_data builds.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

from orbev.epoly import BivariatePolynomial, char_poly
from orbev.lattice_core import InexactSolveError, IntegerMatrix, solve_exact
from orbev.orbifold_engine import EngineError
from orbev.root_data import RootDatum, _congruence
from orbev.sln_formula import FormulaError


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
