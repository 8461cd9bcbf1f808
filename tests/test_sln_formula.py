"""Partition/tau combinatorics and the type-A closed form."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from orbev.epoly import SPACES, BivariatePolynomial
from orbev.orbifold_engine import orbifold_e_polynomial
from orbev.root_data import sl_quotient_datum
from orbev.sln_formula import (
    FormulaError,
    Partition,
    closed_form_eorb,
    partitions,
    sym_e_polynomial,
    tau,
)
from oracles import direct_sym_oracle

P = BivariatePolynomial
ONE = P.one()
U = P.monomial(1, 0)
V = P.monomial(0, 1)
UV = P.monomial(1, 1)

E_POINT = ONE
E_CSTAR = UV - ONE
E_TORUS2 = (UV - ONE) ** 2
E_ELLIPTIC = (ONE - U) * (ONE - V)
E_ABELIAN = ((ONE - U) * (ONE - V)) ** 2
FIVE_GROUPS = [E_POINT, E_CSTAR, E_TORUS2, E_ELLIPTIC, E_ABELIAN]


class TestPartitions:
    def test_n2(self):
        parts = {p.parts for p in partitions(2)}
        assert parts == {(2,), (1, 1)}

    def test_counts(self):
        assert len(partitions(5)) == 7
        assert len(partitions(10)) == 42

    def test_fields(self):
        alpha = Partition((4, 2, 2))
        assert alpha.n == 8
        assert alpha.size == 3
        assert alpha.g == 2
        assert alpha.multiplicities() == {4: 1, 2: 2}

    def test_g_divides_all_parts(self):
        for alpha in partitions(8):
            assert all(part % alpha.g == 0 for part in alpha.parts)

    def test_deterministic_order_single_row_first(self):
        assert partitions(4)[0].parts == (4,)
        assert partitions(4) == partitions(4)

    def test_rejects_bad_input(self):
        with pytest.raises(FormulaError):
            partitions(0)
        with pytest.raises(FormulaError):
            Partition((1, 2))


def tau_naive(l, m, g, d):
    """Literal enumeration over all of Z_g^d x Z_g^d."""
    count = 0
    mg, lg = gcd(m, g), gcd(l, g)
    for r in product(range(g), repeat=d):
        if any((mg * x) % g for x in r):
            continue
        for s in product(range(g), repeat=d):
            if any((lg * x) % g for x in s):
                continue
            if sum(x * y for x, y in zip(r, s)) % g == 0:
                count += 1
    return count


class TestTau:
    def test_2222_is_10(self):
        assert tau(2, 2, 2, 2) == 10
        assert tau_naive(2, 2, 2, 2) == 10

    def test_coprime_case(self):
        for l, m, g, d in product([1, 2, 3, 5], [1, 2, 4, 6], [1, 2, 3, 4], [0, 1, 2, 3]):
            if gcd(l, g) == 1:
                assert tau(l, m, g, d) == gcd(m, g) ** d

    def test_matches_naive_enumeration(self):
        for l, m, g in product([1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3, 4, 5, 6]):
            for d in (0, 1, 2, 3, 4):
                assert tau(l, m, g, d) == tau_naive(l, m, g, d)

    def test_symmetry_spot(self):
        for l, m, g, d in [(2, 3, 6, 2), (4, 6, 4, 3), (3, 5, 6, 1)]:
            assert tau(l, m, g, d) == tau(m, l, g, d)

    def test_d_zero(self):
        assert tau(5, 4, 3, 0) == 1

    def test_rejects_bad_input(self):
        with pytest.raises(FormulaError):
            tau(0, 1, 1, 1)
        with pytest.raises(FormulaError):
            tau(1, 1, 1, -1)


class TestSymEPolynomial:
    def test_a0_and_a1(self):
        for e_a in FIVE_GROUPS:
            assert sym_e_polynomial(e_a, 0) == ONE
            assert sym_e_polynomial(e_a, 1) == e_a

    def test_sym2_cstar(self):
        # Sym^2 C^x fibers over C^x with affine line fibers
        assert sym_e_polynomial(E_CSTAR, 2) == UV * (UV - ONE)

    def test_sym2_torus(self):
        # the direct S_2 average (E^2 + E(u^2,v^2))/2 in closed form
        assert sym_e_polynomial(E_TORUS2, 2) == (UV - ONE) ** 2 * (P.monomial(2, 2) + ONE)

    def test_sym2_is_s2_average(self):
        for e_a in FIVE_GROUPS:
            avg = (e_a * e_a + e_a.substitute_powers(2, 2)).scale(Fraction(1, 2))
            assert sym_e_polynomial(e_a, 2) == avg

    def test_point(self):
        for a in range(6):
            assert sym_e_polynomial(E_POINT, a) == ONE

    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_matches_direct_oracle(self, a):
        for e_a in FIVE_GROUPS:
            assert sym_e_polynomial(e_a, a) == direct_sym_oracle(e_a, a)

    def test_oracle_validates_range(self):
        with pytest.raises(FormulaError):
            direct_sym_oracle(E_CSTAR, 6)


class TestDirectSymOracle:
    def test_a1(self):
        assert direct_sym_oracle(E_ELLIPTIC, 1) == E_ELLIPTIC

    def test_a2_cstar_two_term_average(self):
        expected = ((UV - ONE) ** 2 + (P.monomial(2, 2) - ONE)).scale(Fraction(1, 2))
        assert direct_sym_oracle(E_CSTAR, 2) == expected
        assert expected == UV * (UV - ONE)

    def test_a3_abelian_surface(self):
        assert direct_sym_oracle(E_ABELIAN, 3) == sym_e_polynomial(E_ABELIAN, 3)


class TestClosedForm:
    def test_sl2_betti(self):
        total = closed_form_eorb(2, 1, 2, E_TORUS2)
        expected = P.monomial(2, 2) + UV.scale(4) + ONE
        assert total == expected

    def test_n1_is_one(self):
        assert closed_form_eorb(1, 1, 2, E_TORUS2) == ONE
        assert closed_form_eorb(1, 1, 4, E_ABELIAN) == ONE

    def test_m_swap_symmetry(self):
        for n, m in [(2, 1), (4, 2), (6, 2), (6, 3)]:
            for d, e_a in [(2, E_TORUS2), (4, E_ABELIAN)]:
                assert closed_form_eorb(n, m, d, e_a) == closed_form_eorb(n, n // m, d, e_a)

    def test_against_engine_sl3(self):
        engine = orbifold_e_polynomial(sl_quotient_datum(3, 1), SPACES["betti"]).total
        assert closed_form_eorb(3, 1, 2, E_TORUS2) == engine

    def test_against_engine_abelian(self):
        engine = orbifold_e_polynomial(sl_quotient_datum(3, 3), SPACES["abelian-surface"]).total
        assert closed_form_eorb(3, 3, 4, E_ABELIAN) == engine

    def test_rejects_bad_input(self):
        with pytest.raises(FormulaError):
            closed_form_eorb(3, 2, 2, E_TORUS2)
        with pytest.raises(FormulaError):
            closed_form_eorb(0, 1, 2, E_TORUS2)

    def test_inexact_division_signalled(self):
        # uv + 1 is not the E-polynomial of any torus; the division by E(A)
        # cannot come out exact
        with pytest.raises(FormulaError):
            closed_form_eorb(2, 1, 2, UV + ONE)
