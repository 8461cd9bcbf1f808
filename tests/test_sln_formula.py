"""Partition/tau combinatorics and the type-A closed form."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbev import sln_formula
from orbev.cli import SURFACES
from orbev.epoly import SPACES, BivariatePolynomial, PolynomialError
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
from oracles import binomial_sym_series, direct_sym_oracle, divided, per_partition_closed_form, substitute_powers

P = BivariatePolynomial
ONE = P.one()
U = P.monomial(1, 0)
V = P.monomial(0, 1)
UV = P.monomial(1, 1)

E_POINT = ONE
E_CSTAR = UV - ONE
E_TORUS2 = SURFACES["betti"][0]
E_ELLIPTIC = (ONE - U) * (ONE - V)
E_ABELIAN = SURFACES["abelian"][0]
FIVE_GROUPS = [E_POINT, E_CSTAR, E_TORUS2, E_ELLIPTIC, E_ABELIAN]
# (E(A), d): d is the number of U(1) factors of A.
PAIRS = list(dict.fromkeys([(e_a, d) for e_a, d, _ in SURFACES.values()] + list(zip(FIVE_GROUPS, [0, 1, 2, 2, 4]))))
# Nonzero integer E(A) of u- and v-degree <= 2 with coefficients in -3..3: most are
# no E-polynomial, and many have a lex-leading coefficient of ±2 or ±3.
RANDOM_E_A = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), min_size=1).map(P).filter(bool)
# Nonzero integer E(A) in ℤ[uv]: terms u^k v^k with k <= 3, which take the layout with D = 0.
RANDOM_UV_E_A = (
    st.dictionaries(st.integers(0, 3), st.integers(-3, 3), min_size=1)
    .map(lambda coeffs: P({(k, k): c for k, c in coeffs.items()}))
    .filter(bool)
)


def assert_matches_per_partition_oracle(n, d, e_a):
    """closed_form_eorb equals per_partition_closed_form for every m | n, or both raise FormulaError."""
    for m in range(1, n + 1):
        if n % m == 0:
            try:
                expected = per_partition_closed_form(n, m, d, e_a)
            except FormulaError:
                with pytest.raises(FormulaError):
                    closed_form_eorb(n, m, d, e_a)
            else:
                assert closed_form_eorb(n, m, d, e_a) == expected


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
            avg = divided(e_a * e_a + substitute_powers(e_a, 2, 2), 2)
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

    @pytest.mark.parametrize("a", range(11))
    def test_recurrence_matches_binomial_series(self, a):
        # E_TORUS2 and E_ABELIAN carry the exponents -2 and 4.
        for e_a in FIVE_GROUPS:
            assert sym_e_polynomial(e_a, a) == binomial_sym_series(e_a, a)

    @settings(max_examples=100, deadline=None)
    @given(RANDOM_UV_E_A)
    def test_uv_only_layout_matches_binomial_series(self, e_a):
        for a in range(6):
            assert sym_e_polynomial(e_a, a) == binomial_sym_series(e_a, a)

    def test_rejects_non_integer_exponents(self):
        # E(A) holds ints only, so a rational exponent is refused when E(A) is built.
        with pytest.raises(PolynomialError):
            sym_e_polynomial(P({(1, 1): Fraction(1, 2)}), 2)


class TestDirectSymOracle:
    def test_a1(self):
        assert direct_sym_oracle(E_ELLIPTIC, 1) == E_ELLIPTIC

    def test_a2_cstar_two_term_average(self):
        expected = divided((UV - ONE) ** 2 + (P.monomial(2, 2) - ONE), 2)
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
        with pytest.raises(FormulaError):
            closed_form_eorb(2, 1, -1, E_TORUS2)

    def test_inexact_division_signalled(self):
        # uv + 1 is not the E-polynomial of any torus; the division by E(A)
        # cannot come out exact
        with pytest.raises(FormulaError):
            closed_form_eorb(2, 1, 2, UV + ONE)
        with pytest.raises(FormulaError):
            per_partition_closed_form(2, 1, 2, UV + ONE)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_per_partition_oracle(self, n):
        for e_a, d in PAIRS:
            for m in range(1, n + 1):
                if n % m == 0:
                    assert closed_form_eorb(n, m, d, e_a) == per_partition_closed_form(n, m, d, e_a)

    def test_grouped_sums_built_once_per_n_and_surface(self, monkeypatch):
        runs = []
        original = sln_formula._packed_series

        def counting(e_a, a, width_u, bits):
            runs.append((e_a, a))
            return original(e_a, a, width_u, bits)

        monkeypatch.setattr(sln_formula, "_packed_series", counting)
        sln_formula._grouped_partition_sums.cache_clear()
        for e_a, d in [(E_TORUS2, 2), (E_ABELIAN, 4)]:
            for m in (1, 2, 3, 6):
                closed_form_eorb(6, m, d, e_a)
        # One run of the series up to a = n per surface, and nothing rebuilt for later m.
        assert runs == [(E_TORUS2, 6), (E_ABELIAN, 6)]
        assert sln_formula._grouped_partition_sums.cache_info().misses == 2

    @settings(max_examples=200, deadline=None)
    @given(RANDOM_E_A, st.integers(1, 5), st.integers(0, 4))
    # Not exact, but the image divides with digits that fit: only the u-degree check refuses
    # the quotient, whose u^(D-1) term times u wraps onto v.
    @example((ONE + U).scale(-3), 4, 0)
    def test_packed_path_matches_per_partition_oracle(self, e_a, n, d):
        assert_matches_per_partition_oracle(n, d, e_a)

    @settings(max_examples=100, deadline=None)
    @given(RANDOM_UV_E_A, st.integers(1, 6), st.integers(0, 4))
    # uv + 1 is the inexact case of test_inexact_division_signalled.
    @example(UV + ONE, 2, 2)
    def test_uv_only_layout_matches_per_partition_oracle(self, e_a, n, d):
        assert sln_formula._layout(n, e_a, d)[0] == 0
        assert_matches_per_partition_oracle(n, d, e_a)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_layout_width(self, n):
        # (uv - 1)^2 lies in ℤ[uv]: one digit per power of uv.  The abelian surface needs D above
        # the u-degree 2n of every term of the sum.
        assert sln_formula._layout(n, E_TORUS2, 2)[0] == 0
        assert sln_formula._layout(n, E_ABELIAN, 4)[0] == 2 * n + 1

    def test_totals_come_out_in_term_order(self):
        for e_a, d, _ in SURFACES.values():
            for n in range(1, 11):
                for m in range(1, n + 1):
                    if n % m == 0:
                        total = closed_form_eorb(n, m, d, e_a)
                        assert list(total.coeffs) == sorted(total.coeffs)

    def test_exact_divide_runs_only_when_the_proof_check_fails(self, monkeypatch):
        calls = []
        original = sln_formula.exact_divide

        def counting(p, q):
            calls.append((p, q))
            return original(p, q)

        monkeypatch.setattr(sln_formula, "exact_divide", counting)
        sln_formula._grouped_partition_sums.cache_clear()
        for e_a, d, _ in SURFACES.values():
            for n in range(1, 11):
                for m in range(1, n + 1):
                    if n % m == 0:
                        closed_form_eorb(n, m, d, e_a)
        assert calls == []

        # The fewest digit bits that still hold the total: the quotient fails the check.
        n, m, d, e_a = 6, 2, 4, E_ABELIAN
        expected = per_partition_closed_form(n, m, d, e_a)
        total = expected * e_a
        bits = 1 + max(abs(c) for c in total.coeffs.values()).bit_length()
        norm = sum(abs(c) for c in e_a.coeffs.values())
        assert max(abs(c) for c in expected.coeffs.values()) * norm >= 1 << (bits - 1)
        layout = sln_formula._layout
        monkeypatch.setattr(sln_formula, "_layout", lambda n, e_a, d: (layout(n, e_a, d)[0], bits))
        sln_formula._grouped_partition_sums.cache_clear()
        try:
            assert closed_form_eorb(n, m, d, e_a) == expected
        finally:
            sln_formula._grouped_partition_sums.cache_clear()
        assert calls == [(total, e_a)]
