"""Bivariate polynomials and factor E-characters, with an exterior-algebra oracle."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbev.epoly import (
    AFFINE_LINE,
    C_STAR,
    ELLIPTIC,
    SPACES,
    BivariatePolynomial,
    InexactDivisionError,
    PolynomialError,
    SpaceDescriptor,
    char_poly,
    char_poly_product,
    exact_divide,
    factor_e_character,
)
from orbev.lattice_core import IntegerMatrix
from orbev.root_data import classical_datum, sl_quotient_datum
from orbev.weyl import conjugacy_classes, generate_group

P = BivariatePolynomial
ONE = P.one()
U = P.monomial(1, 0)
V = P.monomial(0, 1)
UV = P.monomial(1, 1)


def M(rows):
    return IntegerMatrix.from_rows(rows, cols=len(rows[0]))


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=5
).map(P)
points = st.fractions(min_value=-3, max_value=3, max_denominator=4)


class TestArithmetic:
    def test_basics(self):
        p = UV - ONE
        assert p * p == UV * UV - UV.scale(2) + ONE
        assert (p + ONE) == UV
        assert -p == ONE - UV
        assert p ** 0 == ONE
        assert p ** 3 == p * p * p

    def test_no_zero_coefficients_stored(self):
        p = UV - UV
        assert p.is_zero()
        assert p.sorted_terms() == []

    def test_negative_exponents_rejected(self):
        with pytest.raises(PolynomialError):
            P.monomial(-1, 0)
        with pytest.raises(PolynomialError):
            (ONE + U).times_monomial(0, -1)

    @settings(max_examples=40, deadline=None)
    @given(polys, st.integers(0, 4), st.integers(0, 4))
    def test_times_monomial_is_a_product(self, p, i, j):
        assert p.times_monomial(i, j) == p * P.monomial(i, j)

    def test_substitute_powers(self):
        p = UV - ONE
        assert p.substitute_powers(2, 2) == P.monomial(2, 2) - ONE
        q = U + V.scale(3)
        assert q.substitute_powers(2, 3) == P.monomial(2, 0) + P.monomial(0, 3).scale(3)

    def test_substitute_zero_powers_adds_colliding_terms(self):
        assert (ONE + U).substitute_powers(0, 0) == P.constant(2)
        assert (U + V + UV).substitute_powers(0, 1) == ONE + V.scale(2)

    @settings(max_examples=60, deadline=None)
    @given(polys, polys, points, points)
    def test_evaluation_commutes_with_arithmetic(self, p, q, x, y):
        assert (p + q).evaluate(x, y) == p.evaluate(x, y) + q.evaluate(x, y)
        assert (p * q).evaluate(x, y) == p.evaluate(x, y) * q.evaluate(x, y)
        assert (p - q).evaluate(x, y) == p.evaluate(x, y) - q.evaluate(x, y)

    @settings(max_examples=40, deadline=None)
    @given(polys, st.integers(0, 4), st.integers(0, 4), points, points)
    def test_evaluation_commutes_with_substitution(self, p, i, j, x, y):
        assert p.substitute_powers(i, j).evaluate(x, y) == p.evaluate(x**i, y**j)


class TestExactDivide:
    def test_square_by_factor(self):
        p = (UV - ONE) ** 2
        assert exact_divide(p, UV - ONE) == UV - ONE

    def test_difference_of_squares(self):
        p = P.monomial(2, 2) - ONE
        assert exact_divide(p, UV - ONE) == UV + ONE

    def test_inexact_signals(self):
        with pytest.raises(InexactDivisionError):
            exact_divide(UV, ONE - U)

    def test_zero_divisor_rejected(self):
        with pytest.raises(PolynomialError):
            exact_divide(UV, P.zero())

    @settings(max_examples=60, deadline=None)
    @given(polys, polys)
    def test_multiply_then_divide_round_trips(self, p, q):
        if q.is_zero():
            return
        assert exact_divide(p * q, q) == p


def is_exact(c):
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def fraction_terms(p):
    return {k: Fraction(c) for k, c in p.coeffs.items()}


def fraction_product(a, b):
    out = {}
    for (p1, q1), c1 in a.items():
        for (p2, q2), c2 in b.items():
            key = (p1 + p2, q1 + q2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: c for k, c in out.items() if c}


def fraction_sum(a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Fraction(0)) + sign * c
    return {k: c for k, c in out.items() if c}


exact_scalars = st.one_of(st.integers(-(2**70), 2**70), st.fractions(max_denominator=12))
exact_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), exact_scalars, max_size=6
).map(P)


class TestExactness:
    def test_wide_integer_division_is_exact(self):
        # with int coefficients, `/` would round (P + 3u)(1 + u) through floats
        big = 2**60 + 1
        a = P.constant(big) + U.scale(3)
        q = exact_divide(a * (ONE + U), ONE + U)
        assert q == a
        assert q.coeffs == {(0, 0): big, (1, 0): 3}
        assert all(type(c) is int for c in q.coeffs.values())

    def test_integral_values_are_stored_as_int(self):
        p = P({(0, 0): Fraction(6, 3), (1, 1): 0.5, (2, 0): 2.0})
        assert p.coeffs == {(0, 0): 2, (1, 1): Fraction(1, 2), (2, 0): 2}
        assert [type(c) for _, _, c in p.sorted_terms()] == [int, Fraction, int]
        assert type(UV.scale(Fraction(1, 2)).scale(2).coeffs[(1, 1)]) is int
        assert type(UV.scale(1.5).coeffs[(1, 1)]) is Fraction

    @settings(max_examples=150, deadline=None)
    @given(exact_polys, exact_polys, exact_scalars)
    def test_arithmetic_matches_fraction_reference(self, p, q, c):
        fp, fq = fraction_terms(p), fraction_terms(q)
        results = {
            "add": (p + q, fraction_sum(fp, fq)),
            "sub": (p - q, fraction_sum(fp, fq, -1)),
            "mul": (p * q, fraction_product(fp, fq)),
            "scale": (p.scale(c), {k: v * c for k, v in fp.items() if v * c}),
        }
        if q:
            results["divide"] = (exact_divide(p * q, q), fp)
        for name, (got, want) in results.items():
            assert got.coeffs == want, name
            assert all(is_exact(v) for v in got.coeffs.values()), name


class TestSerialization:
    def test_json_terms_sorted(self):
        p = P.monomial(2, 0) + P.monomial(0, 1) + P.monomial(1, 1).scale(Fraction(1, 2))
        terms = p.to_json_terms()
        assert [(t["p"], t["q"]) for t in terms] == [(0, 1), (1, 1), (2, 0)]
        assert terms[1]["coeff"] == "1/2"

    @settings(max_examples=80, deadline=None)
    @given(polys)
    def test_json_round_trip(self, p):
        assert P.from_json_terms(p.to_json_terms()) == p

    @settings(max_examples=80, deadline=None)
    @given(polys)
    def test_text_round_trip(self, p):
        assert P.from_text(p.to_text()) == p

    def test_text_format(self):
        p = UV.scale(4) + ONE
        assert p.to_text() == "1*u^0*v^0 + 4*u^1*v^1"
        assert P.zero().to_text() == "0"


class TestCharPoly:
    def test_char_poly_convention(self):
        # det(tI - m) as coefficients (c_0, ..., c_n), leading c_n = 1
        assert char_poly(M([[2]])) == (-2, 1)
        assert char_poly(IntegerMatrix.identity(2)) == (1, -2, 1)
        assert char_poly(IntegerMatrix.zero(0, 0)) == (1,)

    def test_identity_2x2_in_u(self):
        assert char_poly_product(char_poly(IntegerMatrix.identity(2)), (1, 0)) == (ONE - U) ** 2

    def test_negation_rank1_in_uv(self):
        assert char_poly_product(char_poly(M([[-1]])), (1, 1)) == ONE + UV

    def test_swap_in_u(self):
        swap = M([[0, 1], [1, 0]])
        assert char_poly_product(char_poly(swap), (1, 0)) == ONE - P.monomial(2, 0)


def exterior_power_matrix(c, k):
    """Matrix of c acting on the k-th exterior power, rows/cols indexed by
    k-subsets in lexicographic order; entries are k x k minors."""
    n = c.rows
    subsets = list(combinations(range(n), k))
    rows = []
    for rows_idx in subsets:
        row = []
        for cols_idx in subsets:
            minor = IntegerMatrix.from_rows(
                [[c[i, j] for j in cols_idx] for i in rows_idx], cols=k
            )
            row.append(minor.det() if k else 1)
        rows.append(row)
    return IntegerMatrix.from_rows(rows, cols=len(subsets))


def trace(m):
    return sum(m[i, i] for i in range(m.rows))


def elliptic_oracle(c):
    n = c.rows
    out = P.zero()
    for a in range(n + 1):
        for b in range(n + 1):
            coeff = (-1) ** (a + b) * trace(exterior_power_matrix(c, a)) * trace(
                exterior_power_matrix(c, b)
            )
            out = out + P.monomial(a, b, coeff)
    return out


def c_star_oracle(c):
    n = c.rows
    out = P.zero()
    for k in range(n + 1):
        coeff = (-1) ** (n - k) * trace(exterior_power_matrix(c, n - k))
        out = out + P.monomial(k, k, coeff)
    return out


def sample_weyl_elements():
    out = []
    for datum in [sl_quotient_datum(3, 1), classical_datum("B", 2, "adjoint"),
                  classical_datum("C", 3, "simply_connected")]:
        group = generate_group(datum.generators)
        if group.order <= 8:
            out.extend(group)
        else:
            out.extend(conjugacy_classes(group).representatives)
    return out


class TestFactorECharacter:
    def test_c_star_identity_rank1(self):
        assert factor_e_character(C_STAR, char_poly(IntegerMatrix.identity(1))) == UV - ONE

    def test_c_star_negation_rank1(self):
        assert factor_e_character(C_STAR, char_poly(M([[-1]]))) == UV + ONE

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_identity_values(self, r):
        eye = IntegerMatrix.identity(r)
        assert factor_e_character(ELLIPTIC, char_poly(eye)) == ((ONE - U) * (ONE - V)) ** r
        assert factor_e_character(C_STAR, char_poly(eye)) == (UV - ONE) ** r
        assert factor_e_character(AFFINE_LINE, char_poly(eye)) == P.monomial(r, r)

    def test_rank_zero(self):
        empty = IntegerMatrix.zero(0, 0)
        assert factor_e_character(ELLIPTIC, char_poly(empty)) == ONE
        assert factor_e_character(C_STAR, char_poly(empty)) == ONE
        assert factor_e_character(AFFINE_LINE, char_poly(empty)) == ONE

    def test_exterior_algebra_oracle(self):
        for c in sample_weyl_elements():
            assert factor_e_character(ELLIPTIC, char_poly(c)) == elliptic_oracle(c)
            assert factor_e_character(C_STAR, char_poly(c)) == c_star_oracle(c)

    def test_integer_coefficients(self):
        for c in sample_weyl_elements():
            for kind in (ELLIPTIC, C_STAR, AFFINE_LINE):
                assert factor_e_character(kind, char_poly(c)).has_integer_coefficients()


def space_character(space, c):
    """Product of factor_e_character over the factors of the space, all acted on by c."""
    out = ONE
    for kind, _ in space.factors:
        out = out * factor_e_character(kind, char_poly(c))
    return out


class TestSpaceDescriptors:
    def test_builtin_names(self):
        assert set(SPACES) == {"betti", "dolbeault", "derham", "abelian-surface", "mixed"}

    def test_derham_shares_dolbeault_factors(self):
        assert SPACES["derham"].factors == SPACES["dolbeault"].factors

    def test_only_mixed_uses_dual(self):
        assert SPACES["mixed"].uses_dual
        for name in ("betti", "dolbeault", "derham", "abelian-surface"):
            assert not SPACES[name].uses_dual

    def test_empty_descriptor_rejected(self):
        with pytest.raises(PolynomialError):
            SpaceDescriptor("empty", ())

    def test_betti_identity_rank1(self):
        eye = IntegerMatrix.identity(1)
        assert space_character(SPACES["betti"], eye) == (UV - ONE) ** 2

    @pytest.mark.parametrize("r", [1, 2])
    def test_dolbeault_identity(self, r):
        eye = IntegerMatrix.identity(r)
        expected = P.monomial(r, r) * ((ONE - U) * (ONE - V)) ** r
        assert space_character(SPACES["dolbeault"], eye) == expected

    def test_abelian_surface_negation_rank1(self):
        neg = M([[-1]])
        expected = ((ONE + U) * (ONE + V)) ** 2
        assert space_character(SPACES["abelian-surface"], neg) == expected
