"""Acceptance gate: one test per criterion, each printing a single pass/fail line.

The heavy mirror computations are cached module-wide, so criterion 1 pays the
full cost and later criteria reuse its reports.
"""

import dataclasses
import time
from fractions import Fraction
from itertools import product
from math import gcd

from orbev.epoly import SPACES, BivariatePolynomial
from orbev.lattice_core import IntegerMatrix
from orbev.orbifold_engine import (
    duality_check,
    fermionic_shift,
    mirror_check,
    orbifold_e_polynomial,
)
from orbev.root_data import classical_datum, sl_quotient_datum
from orbev.sln_formula import (
    closed_form_eorb,
    partitions,
    sym_e_polynomial,
    tau,
)
from orbev.weyl import generate_group
from oracles import direct_shift_oracle, direct_sym_oracle

P = BivariatePolynomial
ONE = P.one()
U = P.monomial(1, 0)
V = P.monomial(0, 1)
UV = P.monomial(1, 1)

E_TORUS2 = (UV - ONE) ** 2
E_ABELIAN = ((ONE - U) * (ONE - V)) ** 2

SL_PAIRS = [(n, m) for n in range(2, 7) for m in range(1, n + 1) if n % m == 0]

MIRROR_DATA = (
    [sl_quotient_datum(n, m) for n, m in SL_PAIRS]
    + [classical_datum(f, n, "simply_connected") for f in "BC" for n in (2, 3, 4)]
    + [classical_datum("D", n, form) for n in (3, 4) for form in ("simply_connected", "adjoint")]
)

BUILTINS_RANK_LE_4 = (
    [sl_quotient_datum(n, m) for n in range(2, 6) for m in range(1, n + 1) if n % m == 0]
    + [classical_datum(f, n, form) for f in "BC" for n in (2, 3, 4)
       for form in ("simply_connected", "adjoint")]
    + [classical_datum("D", n, form) for n in (3, 4) for form in ("simply_connected", "adjoint")]
)


def all_mirror_reports():
    for datum in MIRROR_DATA:
        for space in SPACES.values():
            yield datum, space, mirror_check(datum, space)


def test_criterion_1_mirror_equality_under_two_minutes():
    """E_orb(X/W) = E_orb(X-hat/W) for every dual pair on all space descriptors."""
    start = time.monotonic()
    for datum, space, report in all_mirror_reports():
        assert report.equal, f"mirror totals differ for {datum.label} on {space.name}"
        assert (report.primal.total - report.dual.total).is_zero()
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"mirror sweep took {elapsed:.1f}s, budget is 120s"


def test_criterion_2_term_by_term_equality():
    """Each matched conjugacy-class pair agrees exactly, not just the totals."""
    for datum, space, report in all_mirror_reports():
        assert report.term_by_term, f"class pair differs for {datum.label} on {space.name}"
        for pair in report.pairs:
            assert pair.difference.is_zero()


def test_criterion_3_dual_path_agreement():
    """Closed form equals the general engine on type A, Betti and abelian surface."""
    for n, m in SL_PAIRS:
        datum = sl_quotient_datum(n, m)
        for space_name, d, e_a in [("betti", 2, E_TORUS2), ("abelian-surface", 4, E_ABELIAN)]:
            engine = orbifold_e_polynomial(datum, SPACES[space_name]).total
            closed = closed_form_eorb(n, m, d, e_a)
            assert engine == closed, f"paths disagree for n={n} m={m} on {space_name}"


def test_criterion_4_tau_properties():
    """tau symmetry, the coprime closed rule, and the pinned 2,2,2,2 count."""
    for l, m, g, d in product(range(1, 7), range(1, 7), range(1, 7), range(0, 5)):
        t = tau(l, m, g, d)
        assert t == tau(m, l, g, d)
        if gcd(l, g) == 1:
            assert t == gcd(m, g) ** d
    # independent literal enumeration of tau_{2,2}^{2,2}
    count = sum(
        1
        for r in product(range(2), repeat=2)
        for s in product(range(2), repeat=2)
        if sum(x * y for x, y in zip(r, s)) % 2 == 0
    )
    assert count == 10
    assert tau(2, 2, 2, 2) == 10


def cycle_type_element(n, parts):
    """Permutation with the given cycle type, restricted to the SL(n) lattice."""
    perm = [0] * n
    pos = 0
    for part in parts:
        block = list(range(pos, pos + part))
        for i, j in zip(block, block[1:] + block[:1]):
            perm[i] = j
        pos += part
    cols = []
    for j in range(n):
        col = [0] * n
        col[perm[j]] = 1
        cols.append(col)
    ambient = IntegerMatrix.from_columns(cols, rows=n)
    datum = sl_quotient_datum(n, 1)
    from orbev.lattice_core import solve_right_integer

    return solve_right_integer(datum.basis, ambient * datum.basis)


def test_criterion_5_fermionic_shifts():
    """Shift = oracle exhaustively; = n - |alpha| for S_n; equal across duality."""
    for datum in BUILTINS_RANK_LE_4:
        for w in generate_group(datum.generators):
            shift = fermionic_shift(w)
            assert shift == direct_shift_oracle(w)
            assert shift == fermionic_shift(w.inverse_transpose())
    for n in range(2, 8):
        for alpha in partitions(n):
            w = cycle_type_element(n, alpha.parts)
            assert fermionic_shift(w) == n - alpha.size


def test_criterion_6_component_group_duality():
    """Torsion orders and centralizer fixed counts agree on both lattice sides."""
    for datum in BUILTINS_RANK_LE_4:
        report = duality_check(datum)
        assert report.equal, f"duality check failed for {datum.label}"
        for row in report.rows:
            assert row.orders_agree and row.fixed_counts_agree


def test_criterion_7_symmetric_product_oracle():
    """Generating-function symmetric powers match the S_a averaging oracle."""
    groups = [ONE, UV - ONE, E_TORUS2, (ONE - U) * (ONE - V), E_ABELIAN]
    for e_a in groups:
        for a in range(6):
            assert sym_e_polynomial(e_a, a) == direct_sym_oracle(e_a, a)
    assert sym_e_polynomial(UV - ONE, 2) == UV * (UV - ONE)


def test_criterion_8_pinned_sl2_value_three_paths():
    """(uv)^2 + 4uv + 1 by hand enumeration, general engine, and closed form."""
    # hand path over W = Z/2 on the rank-1 lattice: identity class averages
    # the two centralizer characters, the negation class contributes its four
    # fixed components shifted by one
    identity_term = ((UV - ONE) ** 2 + (UV + ONE) ** 2).scale(Fraction(1, 2))
    negation_term = UV.scale(4)
    hand = identity_term + negation_term
    engine = orbifold_e_polynomial(sl_quotient_datum(2, 1), SPACES["betti"]).total
    closed = closed_form_eorb(2, 1, 2, E_TORUS2)
    expected = P.monomial(2, 2) + UV.scale(4) + ONE
    assert hand == engine == closed == expected


def test_criterion_9_integrality_and_invariance():
    """Integer totals, gram-rescale invariance, positive count at u = v = 1."""
    for datum, space, report in all_mirror_reports():
        assert report.primal.total.has_integer_coefficients()
        assert report.dual.total.has_integer_coefficients()
    for factor in (Fraction(2), Fraction(1, 3)):
        for datum in [sl_quotient_datum(3, 1), classical_datum("B", 2, "simply_connected")]:
            scaled_gram = tuple(tuple(x * factor for x in row) for row in datum.gram)
            scaled = dataclasses.replace(datum, gram=scaled_gram)
            scaled.validate()
            for space in SPACES.values():
                assert (
                    orbifold_e_polynomial(scaled, space).total
                    == orbifold_e_polynomial(datum, space).total
                )
    for datum in [sl_quotient_datum(4, 2), classical_datum("C", 3, "adjoint")]:
        for space_name in ("betti", "abelian-surface"):
            value = orbifold_e_polynomial(datum, SPACES[space_name]).total.evaluate(1, 1)
            assert value.denominator == 1 and value > 0
