"""Coweight lattice construction, duality, validation, and the datum file format."""

from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbev.lattice_core import IntegerMatrix, solve_right_integer
from orbev.root_data import (
    DatumError,
    DatumFormatError,
    classical_datum,
    custom_datum,
    datum_to_text,
    dual_datum,
    parse_datum_text,
    sl_quotient_datum,
)
from orbev.weyl import generate_group
from oracles import datum_equivalent

G2_PATH = str(Path(__file__).parent / "data" / "g2.datum")


def weyl_order(datum):
    return generate_group(datum.generators).order


class TestSlQuotientDatum:
    def test_sl2(self):
        d = sl_quotient_datum(2, 1)
        assert d.rank == 1
        assert d.ambient_dim == 2
        # generated by (1, -1): standard form restricts to <2>
        assert d.gram == ((Fraction(2),),)
        assert weyl_order(d) == 2

    def test_pgl2_basis_is_half_integral(self):
        d = sl_quotient_datum(2, 2)
        vec = [Fraction(d.basis[i, 0], d.denominator) for i in range(2)]
        assert sorted(vec) == [Fraction(-1, 2), Fraction(1, 2)]
        assert d.gram == ((Fraction(1, 2),),)

    def test_sl3_is_a2_root_lattice(self):
        d = sl_quotient_datum(3, 1)
        assert d.rank == 2
        assert weyl_order(d) == 6
        # A2 gram: diagonal 2, off-diagonal -1 (up to basis choice the
        # determinant of the form is 3)
        det = d.gram[0][0] * d.gram[1][1] - d.gram[0][1] * d.gram[1][0]
        assert det == 3

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_group_order_is_factorial(self, n):
        for m in [k for k in range(1, n + 1) if n % k == 0]:
            assert weyl_order(sl_quotient_datum(n, m)) == factorial(n)

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (4, 2), (6, 3)])
    def test_quotient_index_is_m(self, n, m):
        sc = sl_quotient_datum(n, 1)
        quot = sl_quotient_datum(n, m)
        # express the simply connected basis in the quotient basis; the
        # change of basis is integral with determinant +-m
        scaled_sc = sc.basis.scale(quot.denominator)
        scaled_q = quot.basis.scale(sc.denominator)
        t = solve_right_integer(scaled_q, scaled_sc)
        assert abs(t.det()) == m

    def test_rejects_bad_input(self):
        with pytest.raises(DatumError):
            sl_quotient_datum(4, 3)
        with pytest.raises(DatumError):
            sl_quotient_datum(1, 1)

    def test_validate_passes(self):
        for n in range(2, 6):
            for m in [k for k in range(1, n + 1) if n % k == 0]:
                sl_quotient_datum(n, m).validate()


class TestClassicalDatum:
    @pytest.mark.parametrize(
        "family,n,expected",
        [("B", 2, 8), ("C", 2, 8), ("B", 3, 48), ("C", 3, 48), ("B", 4, 384), ("D", 3, 24), ("D", 4, 192)],
    )
    def test_group_orders(self, family, n, expected):
        for form in ["simply_connected", "adjoint"]:
            d = classical_datum(family, n, form)
            d.validate()
            assert weyl_order(d) == expected

    def test_c2_simply_connected_is_standard_lattice(self):
        d = classical_datum("C", 2, "simply_connected")
        assert d.denominator == 1
        assert abs(d.basis.det()) == 1  # Z^2 itself

    def test_b_simply_connected_is_index_two(self):
        d = classical_datum("B", 3, "simply_connected")
        assert d.denominator == 1
        assert abs(d.basis.det()) == 2  # even coordinate-sum sublattice

    def test_rejects_out_of_range(self):
        with pytest.raises(DatumError):
            classical_datum("B", 1, "adjoint")
        with pytest.raises(DatumError):
            classical_datum("D", 2, "adjoint")
        with pytest.raises(DatumError):
            classical_datum("E", 8, "adjoint")
        with pytest.raises(DatumError):
            classical_datum("B", 2, "bogus")


ALL_BUILTINS = (
    [sl_quotient_datum(n, m) for n in range(2, 6) for m in range(1, n + 1) if n % m == 0]
    + [classical_datum(f, n, form) for f in "BC" for n in (2, 3) for form in ("simply_connected", "adjoint")]
    + [classical_datum("D", n, form) for n in (3, 4) for form in ("simply_connected", "adjoint")]
)


class TestDualDatum:
    def test_involution_exact(self):
        for d in ALL_BUILTINS:
            assert dual_datum(dual_datum(d)) == d

    def test_dual_validates(self):
        for d in ALL_BUILTINS:
            dual_datum(d).validate()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_dual_of_sl_is_pgl(self, n):
        assert datum_equivalent(dual_datum(sl_quotient_datum(n, 1)), sl_quotient_datum(n, n))

    def test_dual_pairs_sl_quotients(self):
        assert datum_equivalent(dual_datum(sl_quotient_datum(6, 2)), sl_quotient_datum(6, 3))
        assert datum_equivalent(dual_datum(sl_quotient_datum(4, 2)), sl_quotient_datum(4, 2))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_b_and_c_are_dual(self, n):
        b_sc = classical_datum("B", n, "simply_connected")
        c_sc = classical_datum("C", n, "simply_connected")
        assert datum_equivalent(dual_datum(b_sc), classical_datum("C", n, "adjoint"))
        assert datum_equivalent(dual_datum(c_sc), classical_datum("B", n, "adjoint"))

    @pytest.mark.parametrize("n", [3, 4])
    def test_d_is_self_dual(self, n):
        d_sc = classical_datum("D", n, "simply_connected")
        assert datum_equivalent(dual_datum(d_sc), classical_datum("D", n, "adjoint"))

    def test_dual_generators_are_inverse_transposes(self):
        d = sl_quotient_datum(3, 1)
        dd = dual_datum(d)
        assert dd.generators == tuple(g.inverse_transpose() for g in d.generators)

    def test_rank_of_w_minus_one_matches_dual(self):
        for d in ALL_BUILTINS[:8]:
            group = generate_group(d.generators)
            eye = IntegerMatrix.identity(d.rank)
            for w in group:
                w_hat = w.inverse_transpose()
                assert (w - eye).rank() == (w_hat - eye).rank()

    def test_gram_of_dual_is_inverse_restriction(self):
        d = sl_quotient_datum(2, 1)
        assert dual_datum(d).gram == ((Fraction(1, 2),),)


class TestDatumEquivalent:
    def test_reflexive(self):
        for d in ALL_BUILTINS[:6]:
            assert datum_equivalent(d, d)

    def test_distinguishes_forms(self):
        assert not datum_equivalent(
            classical_datum("B", 2, "simply_connected"), classical_datum("B", 2, "adjoint")
        )

    def test_gram_scale_flag(self):
        d = sl_quotient_datum(3, 1)
        scaled = parse_datum_text(
            datum_to_text(d).replace("gram\n2 -1\n-1 2", "gram\n6 -3\n-3 6")
        )
        assert not datum_equivalent(d, scaled)
        assert datum_equivalent(d, scaled, up_to_gram_scale=True)


class TestDatumFiles:
    def test_g2_fixture_loads(self):
        g2 = custom_datum(G2_PATH)
        assert g2.label == "G2"
        assert g2.rank == 2
        assert weyl_order(g2) == 12
        g2.validate()

    def test_round_trip_builtin(self):
        for d in [sl_quotient_datum(3, 1), classical_datum("B", 2, "adjoint")]:
            assert parse_datum_text(datum_to_text(d)) == d

    def test_file_reproducing_sl3(self):
        d = sl_quotient_datum(3, 1)
        text = datum_to_text(d)
        assert parse_datum_text(text) == d

    def test_comments_and_blank_lines_ignored(self):
        text = """
# a comment
rank 1
label X  # trailing comment
basis
1 -1
gram
2
generators
-1
"""
        d = parse_datum_text(text)
        assert d.label == "X"
        assert d.rank == 1

    def test_non_unimodular_generator_named(self):
        text = "rank 1\nbasis\n1\ngram\n1\ngenerators\n2\n"
        with pytest.raises(DatumError, match="generator 1 is not unimodular"):
            parse_datum_text(text)

    def test_non_orthogonal_generator_named(self):
        text = "rank 2\nbasis\n1 0\n0 1\ngram\n1 0\n0 2\ngenerators\n1 0\n0 -1\n\n0 1\n1 0\n"
        with pytest.raises(DatumError, match="generator 2 does not preserve the gram form"):
            parse_datum_text(text)

    def test_indefinite_form_rejected(self):
        text = "rank 1\nbasis\n1\ngram\n-1\ngenerators\n1\n"
        with pytest.raises(DatumError, match="not positive definite"):
            parse_datum_text(text)

    def test_malformed_file_rejected(self):
        with pytest.raises(DatumFormatError):
            parse_datum_text("rank x\n")
        with pytest.raises(DatumFormatError):
            parse_datum_text("basis\n1\n")  # section before rank
        with pytest.raises(DatumFormatError):
            parse_datum_text("rank 1\nbasis\n1\n")  # missing gram
        with pytest.raises(DatumFormatError):
            parse_datum_text("rank 2\nbasis\n1 0\ngram")  # basis ends early


# Tokens a damaged datum file might hold: keywords, numbers of every shape the
# parser reads, and text that is none of them.
_TOKENS = st.sampled_from(
    ["rank", "denominator", "label", "basis", "gram", "generators", "#", "0", "1", "-1",
     "2", "3", "-3", "2/3", "1/0", "0/0", "-", "/", "1.5", "1e3", "1_0", "nan", "x",
     "\u0663", "99999999999999999999"]
)


@st.composite
def mutated_g2_text(draw):
    """g2.datum with lines and tokens dropped, duplicated or replaced."""
    lines = Path(G2_PATH).read_text(encoding="utf-8").splitlines()
    for _ in range(draw(st.integers(1, 4))):  # the file has 18 lines, so some stay
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "replace"]))
        if draw(st.booleans()):  # act on the whole line
            if op == "drop":
                del lines[i]
            elif op == "duplicate":
                lines.insert(i, lines[i])
            else:
                lines[i] = " ".join(draw(st.lists(_TOKENS, max_size=4)))
            continue
        tokens = lines[i].split(" ")
        j = draw(st.integers(0, len(tokens) - 1))
        if op == "drop":
            del tokens[j]
        elif op == "duplicate":
            tokens.insert(j, tokens[j])
        else:
            tokens[j] = draw(_TOKENS)
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(mutated_g2_text())
def test_mutated_datum_text_parses_or_fails_cleanly(text):
    try:
        datum = parse_datum_text(text)
    except DatumError:  # DatumFormatError is a DatumError
        return
    datum.validate()
