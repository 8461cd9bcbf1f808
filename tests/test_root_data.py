"""Coweight lattice construction, duality, validation, and the datum file format."""

from fractions import Fraction
from functools import lru_cache
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbev.lattice_core import IntegerMatrix, solve_right_integer
from orbev.root_data import (
    DatumError,
    DatumFormatError,
    _is_positive_definite,
    _preserves_form,
    _restrict_ambient_actions,
    _scaled_gram,
    classical_datum,
    custom_datum,
    dual_datum,
    parse_datum_text,
    sl_quotient_datum,
)
from orbev.weyl import generate_group
from oracles import _congruence, datum_equivalent, datum_to_text, elements

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


@lru_cache(maxsize=None)
def all_builtins() -> tuple:
    """Every built-in datum of rank <= 4, built on first use, so a broken builder fails only the tests that read it."""
    return tuple(
        [sl_quotient_datum(n, m) for n in range(2, 6) for m in range(1, n + 1) if n % m == 0]
        + [classical_datum(f, n, form) for f in "BC" for n in (2, 3) for form in ("simply_connected", "adjoint")]
        + [classical_datum("D", n, form) for n in (3, 4) for form in ("simply_connected", "adjoint")]
    )


def ambient_generators(family: str, n: int) -> list[IntegerMatrix]:
    """The ambient Weyl generators, spelled out: adjacent swaps, then for B and C the sign
    of the last coordinate and for D the reflection in e_{n-1} + e_n."""
    def matrix(image, signs):
        return IntegerMatrix.from_rows([[signs[i] * (image[j] == i) for j in range(n)] for i in range(n)])

    out = []
    for i in range(n - 1):
        image = list(range(n))
        image[i], image[i + 1] = i + 1, i
        out.append(matrix(image, [1] * n))
    if family in "BC":
        out.append(matrix(list(range(n)), [1] * (n - 1) + [-1]))
    elif family == "D":
        out.append(matrix(list(range(n - 2)) + [n - 1, n - 2], [1] * (n - 2) + [-1, -1]))
    return out


RANK_SIX_BUILTINS = (  # (family, n, m or form), built in the test so that a failing builder fails one case
    [("A", n, m) for n in range(2, 8) for m in range(1, n + 1) if n % m == 0]
    + [(f, n, form) for f in "BC" for n in range(2, 7) for form in ("simply_connected", "adjoint")]
    + [("D", n, form) for n in range(3, 7) for form in ("simply_connected", "adjoint")]
)


class TestDatumLayer:
    @pytest.mark.parametrize("family, n, kind", RANK_SIX_BUILTINS)
    def test_one_batched_solve_gives_the_per_generator_solves(self, family, n, kind):
        datum = sl_quotient_datum(n, kind) if family == "A" else classical_datum(family, n, kind)
        ambient = ambient_generators(family, n)
        assert datum.generators == tuple(solve_right_integer(datum.basis, g * datum.basis) for g in ambient)
        assert _restrict_ambient_actions(datum.basis, ambient) == datum.generators

    @pytest.mark.parametrize("basis, action", [
        (IntegerMatrix.from_columns([[1, -1, 0], [0, 1, -1]]), [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]),  # leaves Σx = 0
        (IntegerMatrix.from_columns([[2, 0], [1, 1]]), [[1, 1], [0, 1]]),  # (1, 1/2) is not in Z² + Z(1/2, 1/2)
    ], ids=["inconsistent", "not-integral"])
    def test_an_action_leaving_the_lattice_is_refused(self, basis, action):
        good = IntegerMatrix.identity(basis.rows)
        for actions in ([IntegerMatrix.from_rows(action)], [good, IntegerMatrix.from_rows(action)]):
            with pytest.raises(DatumError, match="^ambient action does not preserve the lattice$"):
                _restrict_ambient_actions(basis, actions)

    @pytest.mark.parametrize("rows, definite", [
        ([[0, 1], [1, 0]], False),  # Δ₁ = 0: the pass would need a row exchange
        ([[0, 0, 0], [0, 1, 0], [0, 0, 1]], False),
        ([[1, 0, 0], [0, 0, 0], [0, 0, 1]], False),
        ([[1, 2], [2, 1]], False),  # indefinite, Δ₂ = -3
        ([[-1, 0], [0, -1]], False),
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], True),
        ([], True),
    ])
    def test_sylvester_pass_on_hand_cases(self, rows, definite):
        assert _is_positive_definite(IntegerMatrix.from_rows(rows, cols=len(rows))) is definite

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=n * n, max_size=n * n))))
    def test_sylvester_pass_agrees_with_the_leading_minors(self, case):
        """The pass says definite exactly when every leading principal minor of the gram is positive."""
        n, entries = case
        gram = tuple(tuple(entries[min(i, j) * n + max(i, j)] for j in range(n)) for i in range(n))
        scaled, scale = _scaled_gram(gram)
        assert scaled.entries == tuple(tuple(int(x * scale) for x in row) for row in gram)
        minors = [IntegerMatrix.from_rows([row[:k] for row in scaled.entries[:k]]).det() for k in range(1, n + 1)]
        assert _is_positive_definite(scaled) == all(m > 0 for m in minors)

    @pytest.mark.parametrize("change, message", [
        (dict(gram=((Fraction(2), Fraction(-1, 2)), (Fraction(-1), Fraction(2)))), "gram matrix is not symmetric"),
        (dict(gram=((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))), "gram matrix is not positive definite"),
        (dict(gram=((Fraction(1, 3), Fraction(1)), (Fraction(1), Fraction(1, 3)))), "gram matrix is not positive definite"),
        (dict(generators=(IntegerMatrix.from_rows([[2, 0], [0, 1]]),)), "generator 1 is not unimodular"),
        (dict(generators=(IntegerMatrix.identity(2), IntegerMatrix.from_rows([[1, 1], [0, 1]]))),
         "generator 2 does not preserve the gram form"),
    ], ids=["symmetric", "definite-zero-minor", "definite-scaled", "unimodular", "preserve"])
    def test_validation_messages(self, change, message):
        with pytest.raises(DatumError, match=f"^{message}$"):
            sl_quotient_datum(3, 1)._replace(**change).validate()


class TestDualDatum:
    def test_involution_exact(self):
        for d in all_builtins():
            assert dual_datum(dual_datum(d)) == d

    def test_dual_validates(self):
        for d in all_builtins():
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
        for d in all_builtins()[:8]:
            group = generate_group(d.generators)
            eye = IntegerMatrix.identity(d.rank)
            for w in elements(group):
                w_hat = w.inverse_transpose()
                assert (w - eye).rank() == (w_hat - eye).rank()

    def test_gram_of_dual_is_inverse_restriction(self):
        d = sl_quotient_datum(2, 1)
        assert dual_datum(d).gram == ((Fraction(1, 2),),)


class TestDatumEquivalent:
    def test_reflexive(self):
        for d in all_builtins()[:6]:
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

    def test_keyword_lines_split_on_any_whitespace(self):
        tabbed = Path(G2_PATH).read_text(encoding="utf-8").replace(" ", "\t")
        assert "rank\t2" in tabbed and "label\tG2" in tabbed
        assert parse_datum_text(tabbed, default_label="g2") == custom_datum(G2_PATH)

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

    @pytest.mark.parametrize("entry", ["1e9999999", "1.5", "1_0", "0x10", "\u0663", "inf", "1/-2", "1/0"])
    def test_gram_entries_other_than_p_or_p_over_q_rejected(self, entry):
        with pytest.raises(DatumFormatError, match="malformed gram row"):
            parse_datum_text(f"rank 1\nbasis\n1\ngram\n{entry}\ngenerators\n-1\n")

    @pytest.mark.parametrize("entry, value", [("2", Fraction(2)), ("+4/2", Fraction(2)), ("-1/2", Fraction(-1, 2))])
    def test_gram_entries_p_and_p_over_q(self, entry, value):
        text = f"rank 1\nbasis\n1\ngram\n{entry}\ngenerators\n-1\n"
        if value > 0:
            assert parse_datum_text(text).gram == ((value,),)
        else:
            with pytest.raises(DatumError, match="not positive definite"):
                parse_datum_text(text)

    @pytest.mark.parametrize("keyword, text", [
        ("rank", "rank 1\nrank 1\nbasis\n1\ngram\n1\n"),
        ("denominator", "denominator 1\nrank 1\ndenominator 2\nbasis\n1\ngram\n1\n"),
        ("label", "label A\nrank 1\nlabel B\nbasis\n1\ngram\n1\n"),
        ("basis", "rank 1\nbasis\n1\nbasis\n2\ngram\n1\n"),
        ("gram", "rank 1\nbasis\n1\ngram\n1\ngram\n4\n"),
    ], ids=["rank", "denominator", "label", "basis", "gram"])
    def test_repeated_section_rejected(self, keyword, text):
        with pytest.raises(DatumFormatError, match=f"^{keyword} appears twice$"):
            parse_datum_text(text)

    def test_generators_may_come_in_several_sections(self):
        text = "rank 1\nbasis\n1\ngram\n1\ngenerators\n-1\ngenerators\n1\n"
        assert [g.entries for g in parse_datum_text(text).generators] == [((-1,),), ((1,),)]

    def test_a_datum_file_is_validated_once_per_distinct_text(self, tmp_path):
        path = tmp_path / "x.datum"
        path.write_text(Path(G2_PATH).read_text(encoding="utf-8"), encoding="utf-8")
        first = custom_datum(path)
        assert custom_datum(str(path)) is first
        assert first.label == "G2"
        path.write_text("rank 1\nbasis\n1\ngram\n2\ngenerators\n-1\n", encoding="utf-8")
        edited = custom_datum(path)
        assert edited.label == "x" and edited.rank == 1
        other = tmp_path / "y.datum"
        other.write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
        assert custom_datum(other).label == "y"  # the same text under another stem is another datum
        path.write_text("rank 1\nbasis\n1\ngram\n-1\n", encoding="utf-8")
        for _ in range(2):
            with pytest.raises(DatumError, match="not positive definite"):
                custom_datum(path)
        path.write_text("rank x\n", encoding="utf-8")
        for _ in range(2):
            with pytest.raises(DatumFormatError, match="malformed rank"):
                custom_datum(path)

    def test_generator_rows_at_rank_zero_rejected(self):
        with pytest.raises(DatumFormatError, match="rank 0"):
            parse_datum_text("rank 0\nbasis\ngram\ngenerators\n1 2 3\n7\n")


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


@st.composite
def form_and_unimodular(draw):
    """(G, g, invariant): a rational symmetric G and a unimodular g, with G made g-invariant when invariant.

    g is T⁻¹·P·T for a signed permutation P and a unimodular T built from
    row additions, so it has finite order; an invariant G is the sum of
    (gᵏ)ᵀ·G₀·gᵏ over that order.
    """
    n = draw(st.integers(1, 4))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    p = IntegerMatrix.from_rows([[signs[i] * (perm[i] == j) for j in range(n)] for i in range(n)], cols=n)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        k = draw(st.integers(-2, 2))
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    t = IntegerMatrix.from_rows(rows, cols=n)
    g = t.inverse_unimodular() * p * t
    ratio = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    upper = {(i, j): draw(ratio) for i in range(n) for j in range(i, n)}
    gram = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))
    invariant = draw(st.booleans())
    if invariant:
        total, h, eye = gram, g, IntegerMatrix.identity(n)
        while h != eye:
            term = _congruence(h, gram)
            total = tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(total, term))
            h = h * g
        gram = total
    return gram, g, invariant


@settings(max_examples=300, deadline=None)
@given(form_and_unimodular())
def test_integer_gram_check_agrees_with_fraction_congruence(case):
    gram, g, invariant = case
    verdict = _preserves_form(g, _scaled_gram(gram)[0])
    assert verdict == (_congruence(g, gram) == gram)
    if invariant:
        assert verdict
