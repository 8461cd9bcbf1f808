"""Orbifold E-polynomial assembly: shifts, class terms, totals, mirror and duality."""

import io
import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbev import orbifold_engine
from orbev.cli import main
from orbev.epoly import SPACES, BivariatePolynomial, char_poly, factor_e_character
from orbev.lattice_core import (
    IntegerMatrix,
    LatticeError,
    NonCentralizingError,
    fixed_count,
    fixed_sublattice,
    induced_automorphism,
    smith_normal_form,
    solve_right_integer,
    torsion_of_cokernel,
)
from orbev.orbifold_engine import (
    EngineError,
    _class_records,
    _dual_records,
    _duality_row,
    _fixed_data,
    _group_data,
    _key_histogram,
    _newton,
    _pi0_reader,
    _record,
    _space_character,
    _trace_reader,
    class_contribution,
    duality_check,
    fermionic_shift,
    mirror_check,
    orbifold_e_polynomial,
)
from orbev.root_data import RootDatum, classical_datum, custom_datum, dual_datum, sl_quotient_datum
from orbev.weyl import (
    DEFAULT_CAP,
    ConjugacyClassTable,
    GroupError,
    MatrixGroup,
    centralizer,
    conjugacy_classes,
    dual_class_table,
    dual_group,
    generate_group,
)
from oracles import (
    G2_PATH,
    class_of,
    direct_shift_oracle,
    divided,
    dual_group_data,
    dual_group_report,
    elements,
    evaluate,
    orbifold_euler_oracle,
    per_element_class_oracle,
    per_element_duality_oracle,
    rank_four_data,
    rebased,
)

P = BivariatePolynomial
ONE = P.one()
UV = P.monomial(1, 1)


def M(rows):
    return IntegerMatrix.from_rows(rows, cols=len(rows[0]))


TRIVIAL = RootDatum(rank=0, basis=IntegerMatrix.zero(0, 0), denominator=1, gram=(), generators=(), label="trivial")
ENGINE_CACHES = (mirror_check, orbifold_e_polynomial, _group_data, _class_records, _dual_records, _key_histogram)


@pytest.fixture
def cleared_engine_caches():
    """The engine's report, group, record and histogram caches, empty before the test and after it.

    A test that patches the engine fills them with what the patch returned; the
    clearing afterwards keeps those entries from reaching later tests.
    """
    for cached in ENGINE_CACHES:
        cached.cache_clear()
    yield
    for cached in ENGINE_CACHES:
        cached.cache_clear()


def term(space, w, cent):
    """The class term of w read on cent, which is C(w) unless a test says otherwise."""
    return class_contribution(_record(w, cent), SPACES[space])


def xpoly(coeffs):
    """Polynomial in x = uv from low-degree coefficient list."""
    out = P.zero()
    for k, c in enumerate(coeffs):
        out = out + P.monomial(k, k, c)
    return out


def n_cycle_on_sl(n):
    """The n-cycle of S_n restricted to the SL(n) coweight lattice."""
    datum = sl_quotient_datum(n, 1)
    group = generate_group(datum.generators)
    eye = IntegerMatrix.identity(n - 1)
    for w in elements(group):
        # an n-cycle has no nonzero fixed vector on the sum-zero lattice
        if (w - eye).rank() == n - 1 and _order(w) == n:
            return datum, group, w
    raise AssertionError("no n-cycle found")


def _order(w):
    eye = IntegerMatrix.identity(w.rows)
    k, x = 1, w
    while x != eye:
        x = x * w
        k += 1
    return k


class TestFermionicShift:
    def test_identity(self):
        assert fermionic_shift(IntegerMatrix.identity(3)) == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_n_cycle(self, n):
        _, _, w = n_cycle_on_sl(n)
        assert fermionic_shift(w) == n - 1

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_negation(self, r):
        assert fermionic_shift(IntegerMatrix.identity(r).scale(-1)) == r

    def test_equals_oracle_on_w_b3(self):
        group = generate_group(classical_datum("B", 3, "adjoint").generators)
        assert group.order == 48
        for w in elements(group):
            assert fermionic_shift(w) == direct_shift_oracle(w)

    def test_oracle_examples(self):
        assert direct_shift_oracle(IntegerMatrix.identity(2)) == 0
        _, _, three_cycle = n_cycle_on_sl(3)
        assert direct_shift_oracle(three_cycle) == 2

    def test_shift_duality(self):
        for datum in [sl_quotient_datum(4, 1), classical_datum("C", 2, "simply_connected")]:
            for w in elements(generate_group(datum.generators)):
                assert fermionic_shift(w) == fermionic_shift(w.inverse_transpose())


def pi0_divisors(w):
    return torsion_of_cokernel(w - IntegerMatrix.identity(w.rows))


class TestFixedPointData:
    def test_identity(self):
        w = IntegerMatrix.identity(2)
        assert fermionic_shift(w) == 0
        assert pi0_divisors(w) == ()
        assert fixed_sublattice(w).cols == 2

    def test_sl2_negation(self):
        w = M([[-1]])
        assert pi0_divisors(w) == (2,)
        assert fermionic_shift(w) == 1
        assert fixed_sublattice(w).cols == 0

    def test_sl3_three_cycle(self):
        _, _, w = n_cycle_on_sl(3)
        assert pi0_divisors(w) == (3,)
        assert fermionic_shift(w) == 2

    @pytest.mark.parametrize("datum", rank_four_data(), ids=lambda d: d.label)
    def test_fixed_data_on_every_element_of_both_lattices(self, datum):
        """dim Λ^w and π₀(T^w) read off one Smith form, against the fixed sublattice and the cokernel."""
        group = generate_group(datum.generators)
        for key in group.keys:
            for w in (group.matrix(key), group.dual_matrix(key)):
                dim, pi0 = _fixed_data(w)
                assert dim == fixed_sublattice(w).cols
                assert pi0 == torsion_of_cokernel(w - IntegerMatrix.identity(w.rows))
                with pytest.raises(LatticeError):
                    _fixed_data(w.scale(2))

    def test_fixed_data_rejects_non_unimodular_and_non_square(self):
        for w in (M([[2, 0], [0, 1]]), M([[1, 1], [1, 1]]), M([[1, 0, 0], [0, 1, 0]])):
            with pytest.raises(LatticeError):
                _fixed_data(w)


class TestClassContribution:
    def test_sl2_betti_identity_class(self):
        d = sl_quotient_datum(2, 1)
        group = generate_group(d.generators)
        w = IntegerMatrix.identity(1)
        contrib = term("betti", w, centralizer(group, w))
        # average of (uv-1)^2 and (uv+1)^2 over W = Z/2
        assert contrib.average == xpoly([1, 0, 1])
        assert contrib.weighted == contrib.average

    def test_sl2_betti_negation_class(self):
        d = sl_quotient_datum(2, 1)
        group = generate_group(d.generators)
        w = M([[-1]])
        contrib = term("betti", w, centralizer(group, w))
        # 4 order-2 points of (C^x)^2 survive, each contributing 1, shift 1
        assert contrib.average == P.constant(4)
        assert contrib.weighted == UV.scale(4)
        assert contrib.shift == 1

    def test_conjugation_invariance(self):
        d = sl_quotient_datum(4, 1)
        group = generate_group(d.generators)
        table = conjugacy_classes(group)
        for i, rep in enumerate(table.representatives):
            twins = [x for x in elements(group) if class_of(table, x) == i][:2]
            results = [term("abelian-surface", w, centralizer(group, w)) for w in twins]
            assert all(r.average == results[0].average for r in results)
            assert all(r.weighted == results[0].weighted for r in results)


# golden values, each derived by hand enumeration over the small Weyl group
SL2_GOLDEN = {
    # identity class: avg[(uv-1)^2, (uv+1)^2] = (uv)^2 + 1
    # negation class: 4 fixed points, shift 1 -> 4uv
    "betti": xpoly([1, 4, 1]),
    # identity class: uv * avg[(1-u)(1-v), (1+u)(1+v)] = uv + (uv)^2
    # negation class: pi0 = Z/2 squared on the elliptic factor -> 4uv
    "dolbeault": xpoly([0, 5, 1]),
    "derham": xpoly([0, 5, 1]),
}
# identity class: avg[((1-u)(1-v))^2, ((1+u)(1+v))^2] = 1 + u^2 + v^2 + 4uv + (uv)^2
# negation class: pi0 = Z/2 with d = 2 per elliptic factor gives 2^2 * 2^2 = 16
#   fixed components, each a point, shift 1 -> 16uv; totals to 20uv in the middle
SL2_ABELIAN = (
    ONE
    + P.monomial(2, 0)
    + P.monomial(0, 2)
    + UV.scale(20)
    + P.monomial(2, 2)
)


class TestOrbifoldEPolynomial:
    def test_sl2_betti_golden(self):
        report = orbifold_e_polynomial(sl_quotient_datum(2, 1), SPACES["betti"])
        assert report.total == SL2_GOLDEN["betti"]

    def test_sl2_dolbeault_golden(self):
        report = orbifold_e_polynomial(sl_quotient_datum(2, 1), SPACES["dolbeault"])
        assert report.total == SL2_GOLDEN["dolbeault"]

    def test_sl2_abelian_surface_golden(self):
        report = orbifold_e_polynomial(sl_quotient_datum(2, 1), SPACES["abelian-surface"])
        assert report.total == SL2_ABELIAN

    def test_sl2_mixed_equals_abelian_value(self):
        report = orbifold_e_polynomial(sl_quotient_datum(2, 1), SPACES["mixed"])
        assert report.total == SL2_ABELIAN

    def test_derham_equals_dolbeault(self):
        for datum in [sl_quotient_datum(3, 1), classical_datum("B", 2, "adjoint")]:
            a = orbifold_e_polynomial(datum, SPACES["derham"]).total
            b = orbifold_e_polynomial(datum, SPACES["dolbeault"]).total
            assert a == b
        # Equal factors are one cache entry, so de Rham reuses the Dolbeault report.
        d = sl_quotient_datum(3, 1)
        assert orbifold_e_polynomial(d, SPACES["derham"]) is orbifold_e_polynomial(d, SPACES["dolbeault"])

    def test_sl3_betti_hand_value(self):
        # identity class: (1/6)[(x-1)^4 + 3(x^2-1)^2 + 2(x^2+x+1)^2] = x^4 + x^2 + 1
        # transposition class: rank-1 fixed lattice, both centralizer elements
        #   act trivially on it -> (x-1)^2 * x
        # 3-cycle class: pi0 = Z/3 fixed pointwise by C(w) -> 9 * x^2
        report = orbifold_e_polynomial(sl_quotient_datum(3, 1), SPACES["betti"])
        assert report.total == xpoly([1, 1, 8, 1, 1])

    def test_rank_zero_datum(self):
        report = orbifold_e_polynomial(TRIVIAL, SPACES["betti"])
        assert report.total == ONE

    def test_non_integral_class_average_raises(self, monkeypatch):
        # One more element in the identity class's histogram: (1/|C(w)|)·Σ_c leaves a remainder.
        _, table, cents = _group_data(sl_quotient_datum(3, 1).generators, DEFAULT_CAP)
        w, cent = table.representatives[0], cents[0]
        assert w == IntegerMatrix.identity(2)
        rows = _key_histogram(cent, cent.key(w), (cent.action.dual,))
        bumped = ((*rows[0][:2], rows[0][2] + 1),) + rows[1:]
        assert term("betti", w, cent).average == xpoly([1, 0, 1, 0, 1])
        monkeypatch.setattr(orbifold_engine, "_key_histogram", lambda *args: bumped)
        with pytest.raises(EngineError, match="non-integer"):
            term("betti", w, cent)

    def test_totals_are_hodge_and_poincare_symmetric(self):
        # E(u, v) = E(v, u) on every space; on the compact ones, of dimension 2r,
        # E(u, v) = (uv)^{2r}·E(1/u, 1/v), so (p, q) and (2r - p, 2r - q) agree.
        for datum in rank_four_data():
            top = 2 * datum.rank
            for space in SPACES.values():
                report = mirror_check(datum, space)
                for total in (report.primal.total, report.dual.total):
                    assert total.coeffs == {(q, p): c for (p, q), c in total.coeffs.items()}
                    if space.name in ("abelian-surface", "mixed"):
                        assert total.coeffs == {(top - p, top - q): c for (p, q), c in total.coeffs.items()}

    def test_euler_number_matches_commuting_pair_oracle(self):
        cases = 0
        for datum in rank_four_data():
            if datum.rank <= 3:
                for space in SPACES.values():
                    total = orbifold_e_polynomial(datum, space).total
                    assert evaluate(total, 1, 1) == orbifold_euler_oracle(datum, space), (datum.label, space.name)
                    cases += 1
        assert cases == 95

    def test_class_count_matches_group(self):
        d = sl_quotient_datum(4, 1)
        report = orbifold_e_polynomial(d, SPACES["betti"])
        group = generate_group(d.generators)
        assert report.group_order == group.order == 24
        assert len(report.contributions) == conjugacy_classes(group).count
        assert sum(c.class_size for c in report.contributions) == 24

    def test_gram_rescale_changes_nothing(self):
        import dataclasses

        d = sl_quotient_datum(3, 1)
        for factor in (Fraction(2), Fraction(1, 3)):
            scaled_gram = tuple(tuple(x * factor for x in row) for row in d.gram)
            scaled = dataclasses.replace(d, gram=scaled_gram)
            scaled.validate()
            for space in ("betti", "abelian-surface"):
                assert (
                    orbifold_e_polynomial(scaled, SPACES[space]).total
                    == orbifold_e_polynomial(d, SPACES[space]).total
                )
            assert mirror_check(scaled, SPACES["betti"]).equal

    def test_euler_specialization_positive(self):
        for datum in [sl_quotient_datum(3, 1), classical_datum("B", 2, "simply_connected")]:
            for space in ("betti", "abelian-surface"):
                value = evaluate(orbifold_e_polynomial(datum, SPACES[space]).total, 1, 1)
                assert value.denominator == 1
                assert value > 0


class TestMirrorCheck:
    def test_sl2_all_spaces(self):
        d = sl_quotient_datum(2, 1)
        for space in SPACES.values():
            report = mirror_check(d, space)
            assert report.equal
            assert report.term_by_term
            assert all(p.difference.is_zero() for p in report.pairs)

    def test_self_dual_quotient(self):
        report = mirror_check(sl_quotient_datum(4, 2), SPACES["betti"])
        assert report.equal and report.term_by_term

    def test_b2_against_c2(self):
        report = mirror_check(classical_datum("B", 2, "simply_connected"), SPACES["abelian-surface"])
        assert report.equal and report.term_by_term

    def test_pairs_form_bijection(self):
        report = mirror_check(sl_quotient_datum(3, 1), SPACES["betti"])
        primal_indices = sorted(p.primal_class for p in report.pairs)
        dual_indices = sorted(p.dual_class for p in report.pairs)
        n = len(report.primal.contributions)
        assert primal_indices == list(range(n))
        assert dual_indices == list(range(n))

    def test_dual_total_matches_direct_dual_run(self):
        d = sl_quotient_datum(3, 1)
        report = mirror_check(d, SPACES["betti"])
        direct = orbifold_e_polynomial(dual_datum(d), SPACES["betti"])
        assert report.dual.total == direct.total

    def test_dual_report_is_labelled_without_building_the_dual_datum(self, monkeypatch):
        """The dual report's label is the dual datum's, read off the primal label alone, at rank 0 too."""
        data = rank_four_data() + [TRIVIAL]
        expected = {d.label: dual_datum(d).label for d in data}
        calls = []
        monkeypatch.setattr(orbifold_engine, "dual_datum", lambda d: calls.append(d) or dual_datum(d))
        mirror_check.cache_clear()
        for d in data:
            assert mirror_check(d, SPACES["betti"]).dual.datum_label == expected[d.label]
        assert calls == []
        assert expected["trivial"] == "dual(trivial)"

    def test_dual_terms_take_the_primal_polynomials_when_their_inputs_match(self):
        """Every pair of every rank <= 4 datum on every space: one polynomial object, difference zero."""
        for datum in rank_four_data():
            for space in SPACES.values():
                report = mirror_check(datum, space)
                for pair in report.pairs:
                    primal = report.primal.contributions[pair.primal_class]
                    dual = report.dual.contributions[pair.dual_class]
                    assert (dual.average, dual.weighted) == (primal.average, primal.weighted)
                    assert dual.weighted is primal.weighted and pair.difference.is_zero()

    def test_dual_term_assembles_its_own_polynomial_when_its_fixed_counts_differ(self, monkeypatch,
                                                                                cleared_engine_caches):
        """SL(3)/Z3's 3-cycle class, made to fix all of π₀ on Λ and only the identity on Λ̂.

        The primal term on betti reads Λ's counts and the dual term Λ̂'s, so
        their weights differ: the dual term must assemble its own average,
        from the swapped weights, and the pair must not cancel.
        """
        datum, space = sl_quotient_datum(3, 3), SPACES["betti"]
        records = _class_records(datum.generators, DEFAULT_CAP)
        (i, target), = [(i, r) for i, r in enumerate(records) if r.pi0_divisors]
        histogram = orbifold_engine._key_histogram
        real = histogram(target.centralizer, target.key, (False, True))
        rows = tuple((poly, (fixes[0], 1), n) for poly, fixes, n in real)
        assert all(fixes == (3, 1) for _, fixes, _ in rows)

        def patched(cent, key, inverses, polys=True):
            return rows if (key, inverses) == (target.key, (False, True)) else histogram(cent, key, inverses, polys)

        monkeypatch.setattr(orbifold_engine, "_key_histogram", patched)
        report = mirror_check(datum, space)
        pair = next(p for p in report.pairs if p.primal_class == i)
        primal, dual = report.primal.contributions[i], report.dual.contributions[pair.dual_class]
        by_hand = P.zero()
        for poly, (_, dual_fixes), n in rows:
            by_hand = by_hand + _space_character(space.factors, poly).scale(n * dual_fixes ** 2)
        assert primal.average == P.constant(9)
        assert dual.average == divided(by_hand, target.centralizer.order) == ONE
        assert pair.difference == UV.scale(8) * UV
        assert not pair.difference.is_zero()
        assert not report.term_by_term and not report.equal
        others = [p for p in report.pairs if p is not pair]
        assert others and all(p.difference.is_zero() for p in others)

    def test_d3_simply_connected_matches_sl4(self):
        # rank-3 coincidence: the D-type double cover agrees with SL(4),
        # certified here through equal orbifold series on every space
        d3 = classical_datum("D", 3, "simply_connected")
        a3 = sl_quotient_datum(4, 1)
        for space in SPACES.values():
            assert orbifold_e_polynomial(d3, space).total == orbifold_e_polynomial(a3, space).total


RANK_TWO_OR_THREE = [d for d in rank_four_data() if d.rank in (2, 3)]


def class_terms(report):
    """The multiset of what a report says of each class, representatives aside."""
    terms = report.contributions
    return Counter((c.class_size, c.centralizer_order, c.shift, c.pi0_divisors, c.average) for c in terms)


class TestBasisChangeInvariance:
    @settings(max_examples=100, deadline=None)
    @given(datum=st.sampled_from(RANK_TWO_OR_THREE), seed=st.integers(0, 2**32))
    def test_mirror_check_is_unchanged_by_a_change_of_basis(self, datum, seed):
        """A re-based datum's mirror reports agree with the datum's on every space, class by class."""
        moved = rebased(datum, seed)
        for space in SPACES.values():
            a, b = mirror_check(datum, space), mirror_check(moved, space)
            assert (b.primal.total, b.dual.total, b.equal, b.term_by_term) == (
                a.primal.total, a.dual.total, a.equal, a.term_by_term)
            assert class_terms(b.primal) == class_terms(a.primal)
            assert class_terms(b.dual) == class_terms(a.dual)


class TestEngineChecks:
    """Each consistency check of the class records and terms, made to fire."""

    def test_empty_centralizer(self):
        group = generate_group(sl_quotient_datum(3, 1).generators)
        with pytest.raises(EngineError, match="at least the identity"):
            _record(IntegerMatrix.identity(2), MatrixGroup(group.action, (), (), ()))

    def test_shift_disagreement_on_a_space_that_uses_the_dual(self):
        record = _class_records(sl_quotient_datum(3, 1).generators, DEFAULT_CAP)[1]
        wrong = replace(record, shift=record.shift + 1)
        assert class_contribution(wrong, SPACES["betti"]).shift == record.shift + 1
        with pytest.raises(EngineError, match="fermionic shift differs"):
            class_contribution(wrong, SPACES["mixed"])

    def test_orbit_stabilizer_mismatch(self, monkeypatch, cleared_engine_caches):
        monkeypatch.setattr(orbifold_engine, "centralizer", lambda group, w: group)
        with pytest.raises(EngineError, match="orbit-stabilizer"):
            orbifold_e_polynomial(sl_quotient_datum(3, 1), SPACES["betti"])

    def test_class_matching_that_is_not_a_bijection(self, monkeypatch, cleared_engine_caches):
        def collapsed(table):
            return ConjugacyClassTable(table.group, (table.keys[0],) * table.count, table.sizes, table.class_index)

        monkeypatch.setattr(orbifold_engine, "dual_class_table", collapsed)
        with pytest.raises(EngineError, match="not a bijection"):
            mirror_check(sl_quotient_datum(3, 1), SPACES["betti"])


class TestDualityCheck:
    def test_sl2(self):
        report = duality_check(sl_quotient_datum(2, 1))
        assert report.equal
        by_rep = {row.representative: row for row in report.rows}
        neg = M([[-1]])
        assert by_rep[neg].pi0_primal == (2,)
        assert by_rep[neg].pi0_dual == (2,)

    def test_sl3_three_cycle_orders(self):
        d, _, w = n_cycle_on_sl(3)
        report = duality_check(d)
        row = next(r for r in report.rows if fermionic_shift(r.representative) == 2)
        assert row.pi0_primal == (3,)
        assert row.pi0_dual == (3,)
        assert row.orders_agree and row.fixed_counts_agree

    def test_identity_row_trivial(self):
        report = duality_check(sl_quotient_datum(3, 1))
        row = next(r for r in report.rows if fermionic_shift(r.representative) == 0)
        assert row.pi0_primal == ()
        assert row.pi0_dual == ()

    def test_builtins(self):
        for datum in [sl_quotient_datum(4, 2), classical_datum("C", 2, "adjoint"),
                      classical_datum("D", 3, "adjoint")]:
            assert duality_check(datum).equal


def oracle_data():
    """Every built-in of rank <= 3 in both forms, then the G2 datum file."""
    data = [sl_quotient_datum(n, m) for n in range(2, 5) for m in range(1, n + 1) if n % m == 0]
    forms = ("simply_connected", "adjoint")
    data += [classical_datum(f, n, form) for f in "BC" for n in (2, 3) for form in forms]
    data += [classical_datum("D", 3, form) for form in forms]
    data.append(custom_datum(G2_PATH))
    return data


def assert_report_matches_oracle(report, group, space):
    table = conjugacy_classes(group)
    assert len(report.contributions) == table.count
    for rep, contribution in zip(table.representatives, report.contributions):
        assert contribution.representative == rep
        expected = per_element_class_oracle(space, rep, centralizer(group, rep))
        got = (contribution.average, contribution.weighted, contribution.shift, contribution.pi0_divisors)
        assert got == expected


def histogram_inverses(space):
    """The lattice sides class_contribution reads for space, on a group that reads keys directly."""
    return (False, True) if space.uses_dual else (False,)


class TestKeyHistogram:
    @pytest.mark.parametrize("datum", oracle_data(), ids=lambda d: d.label)
    @pytest.mark.parametrize("space", list(SPACES), ids=str)
    def test_primal_and_dual_reports_match_per_element_oracle(self, datum, space):
        report = mirror_check(datum, SPACES[space])
        group = generate_group(datum.generators)
        assert_report_matches_oracle(report.primal, group, SPACES[space])
        assert_report_matches_oracle(report.dual, dual_group(group), SPACES[space])
        assert report.dual == dual_group_report(datum, SPACES[space])

    def test_rebased_c3_adjoint_on_mixed_matches_oracle(self):
        datum = rebased(classical_datum("C", 3, "adjoint"), seed=7)
        report = mirror_check(datum, SPACES["mixed"])
        group = generate_group(datum.generators)
        assert_report_matches_oracle(report.primal, group, SPACES["mixed"])
        assert_report_matches_oracle(report.dual, dual_group(group), SPACES["mixed"])
        assert report.dual == dual_group_report(datum, SPACES["mixed"])
        assert report.equal and report.term_by_term

    @pytest.mark.parametrize("space", ["betti", "mixed"])
    def test_multiplicities_sum_to_centralizer_order(self, space):
        for datum in oracle_data():
            group = generate_group(datum.generators)
            table = conjugacy_classes(group)
            for key, w in zip(table.keys, table.representatives):
                cent = centralizer(group, w)
                rows = _key_histogram(cent, key, histogram_inverses(SPACES[space]))
                assert sum(count for _, _, count in rows) == cent.order
                assert len({(poly, fixes) for poly, fixes, _ in rows}) == len(rows)

    @staticmethod
    def count_reads(monkeypatch):
        """Counters of the trace tables, π₀ tables, class scans and centralizer scans the engine makes."""
        reads = {"traces": Counter(), "pi0": Counter(), "classes": [], "centralizers": []}
        trace_reader, pi0_reader = orbifold_engine._trace_reader, orbifold_engine._pi0_reader
        classes, cent_scan = orbifold_engine.conjugacy_classes, orbifold_engine.centralizer
        monkeypatch.setattr(orbifold_engine, "_trace_reader",
                            lambda cent, key: reads["traces"].update([key]) or trace_reader(cent, key))
        monkeypatch.setattr(orbifold_engine, "_pi0_reader", lambda cent, key, inverse:
                            reads["pi0"].update([(key, inverse)]) or pi0_reader(cent, key, inverse))
        monkeypatch.setattr(orbifold_engine, "conjugacy_classes",
                            lambda group: reads["classes"].append(group) or classes(group))
        monkeypatch.setattr(orbifold_engine, "centralizer",
                            lambda group, w: reads["centralizers"].append(group) or cent_scan(group, w))
        for cached in ENGINE_CACHES:
            cached.cache_clear()
        return reads

    def test_mirror_check_walks_each_class_once_for_both_reports(self, monkeypatch):
        """The five spaces of one datum, primal and dual, share one walk per class with both lattice sides.

        A walk reads one trace table, and one π₀ table per side.  Ŵ's class
        table is read off W's, so only W is scanned for classes and centralizers.
        """
        reads = self.count_reads(monkeypatch)
        datum = classical_datum("B", 3, "simply_connected")
        for space in SPACES.values():
            assert mirror_check(datum, space).equal
        group, table, _ = _group_data(datum.generators, DEFAULT_CAP)
        assert reads["traces"] == Counter({key: 1 for key in table.keys})
        assert reads["pi0"] == Counter({(key, inverse): 1 for key in table.keys for inverse in (False, True)})
        assert reads["classes"] == [group]
        assert reads["centralizers"] == [group] * table.count

    def test_single_side_spaces_read_no_dual_table(self, monkeypatch):
        """compute of a space on Λ alone walks each class once and reads no Λ̂ π₀ table."""
        reads = self.count_reads(monkeypatch)
        datum = classical_datum("B", 3, "simply_connected")
        for space in SPACES.values():
            if not space.uses_dual:
                orbifold_e_polynomial(datum, space)
        keys = _group_data(datum.generators, DEFAULT_CAP)[1].keys
        assert reads["traces"] == Counter({key: 1 for key in keys})
        assert reads["pi0"] == Counter({(key, False): 1 for key in keys})

    def test_space_order_does_not_change_reports(self):
        data = [sl_quotient_datum(4, 2), classical_datum("B", 3, "simply_connected"),
                rebased(classical_datum("C", 3, "adjoint"), seed=7)]
        runs = []
        for spaces in (list(SPACES.values()), list(SPACES.values())[::-1]):
            for cached in (mirror_check, orbifold_e_polynomial, _group_data, _class_records, _dual_records, _fixed_data,
                           _key_histogram, fixed_count, _space_character,
                           factor_e_character, char_poly):
                cached.cache_clear()
            runs.append({(d.label, s.name): mirror_check(d, s) for d in data for s in spaces})
        assert runs[0] == runs[1]

    def test_matrix_caches_hold_only_representatives_and_generators(self):
        datum = classical_datum("B", 4, "simply_connected")
        for cached in (mirror_check, orbifold_e_polynomial, _group_data, _class_records, _dual_records):
            cached.cache_clear()
        mirror_check(datum, SPACES["mixed"])
        group, table, cents = _group_data(datum.generators, DEFAULT_CAP)
        allowed = set(table.keys) | set(dual_class_table(table).keys) | set(group.generator_keys)
        built = set(group.action.matrices) | set(group.action.flipped().matrices)
        assert built <= allowed
        assert sum(cent.order for cent in cents) > len(allowed)


class TestSharedGroupData:
    """Data with equal generators share one group, class table, centralizers and key histograms."""

    def test_c3_simply_connected_reuses_b3_adjoint_work(self, monkeypatch):
        for cached in (duality_check, _group_data, _class_records, _dual_records, _key_histogram):
            cached.cache_clear()
        b3 = duality_check(classical_datum("B", 3, "adjoint"))
        calls = []
        monkeypatch.setattr(orbifold_engine, "generate_group",
                            lambda generators, cap: calls.append(generators) or generate_group(generators, cap))
        misses = _key_histogram.cache_info().misses
        c3 = duality_check(classical_datum("C", 3, "simply_connected"))
        assert calls == []
        assert _key_histogram.cache_info().misses == misses
        assert (b3.datum_label, c3.datum_label) == ("B3_ad", "C3_sc")
        assert c3.rows == b3.rows
        assert replace(c3, datum_label=b3.datum_label) == b3

    def test_records_are_built_once_per_generator_set(self, cleared_engine_caches):
        """B3_sc's five mirror checks: the first builds every record, Smith form and fixed datum; the rest none."""
        for cached in (_fixed_data, smith_normal_form):
            cached.cache_clear()
        caches = (_fixed_data, smith_normal_form, _class_records, _dual_records)
        datum = classical_datum("B", 3, "simply_connected")
        misses = []
        for space in SPACES.values():
            assert mirror_check(datum, space).equal
            misses.append(tuple(cached.cache_info().misses for cached in caches))
        assert misses[0][2:] == (1, 1) and min(misses[0]) > 0
        assert misses == [misses[0]] * len(SPACES)

    def test_c2_simply_connected_builds_no_records_after_b2_adjoint(self, cleared_engine_caches):
        b2, c2 = classical_datum("B", 2, "adjoint"), classical_datum("C", 2, "simply_connected")
        assert b2.generators == c2.generators and b2 != c2
        builds = []
        for datum in (b2, c2):
            for space in SPACES.values():
                assert mirror_check(datum, space).equal
            builds.append([cached.cache_info().misses for cached in (_group_data, _class_records, _dual_records)])
        assert builds == [[1, 1, 1], [1, 1, 1]]

    def test_b2_adjoint_and_c2_simply_connected_print_one_mirror_body(self):
        bodies = []
        for selector in (["B", "2", "ad"], ["C", "2", "sc"]):
            out = io.StringIO()
            assert main(["mirror-check", "--group", "classical", *selector, "--space", "mixed"], out=out) == 0
            doc = json.loads(out.getvalue())
            assert doc.pop("config_echo")["group"] == ["classical", *selector]
            bodies.append(doc)
        assert bodies[0] == bodies[1]


class TestLatticeProjections:
    """The per-w projections against the per-element primitives they replace."""

    @pytest.mark.parametrize("datum", rank_four_data(), ids=lambda d: d.label)
    def test_key_reads_match_per_element_primitives(self, datum):
        """Trace polynomials and π₀ blocks read from keys, on Λ and Λ̂, for every element of every class."""
        group = generate_group(datum.generators)
        table = conjugacy_classes(group)
        for key, w in zip(table.keys, table.representatives):
            cent = centralizer(group, w)
            order, traces = _trace_reader(cent, key)
            sides = [(False, w, elements(cent)), (True, cent.dual_matrix(key), tuple(map(cent.dual_matrix, cent.keys)))]
            for inverse, ws, matrices in sides:
                eye = IntegerMatrix.identity(ws.rows)
                basis = fixed_sublattice(ws)
                divisors, block = _pi0_reader(cent, key, inverse)
                for c, cs in zip(cent.keys, matrices):
                    assert _newton(traces(c), order) == char_poly(solve_right_integer(basis, cs * basis))
                    assert (divisors, block(c) if divisors else ()) == induced_automorphism(cs, ws - eye)
        report = duality_check(datum)
        assert len(report.rows) == table.count
        for row, w in zip(report.rows, table.representatives):
            assert row.representative == w
            got = (row.pi0_primal, row.pi0_dual, row.orders_agree, row.fixed_counts_agree)
            assert got == per_element_duality_oracle(w, centralizer(group, w))

    def test_fixed_count_runs_once_per_distinct_block(self, monkeypatch):
        """The engine reaches π₀ counts only through its `fixed_count` name, whose memo computes each block once."""
        blocks = []
        monkeypatch.setattr(orbifold_engine, "fixed_count", lambda d, b: blocks.append((d, b)) or fixed_count(d, b))
        for cached in (duality_check, _key_histogram, fixed_count):
            cached.cache_clear()
        duality_check(sl_quotient_datum(4, 4))
        info = fixed_count.cache_info()
        assert 0 < info.misses == len(set(blocks)) < info.hits + info.misses == len(blocks)


class TestKeysAndShifts:
    """The table key and the shift that class_contribution reads, against a fresh scan and rank."""

    @pytest.mark.parametrize("datum", rank_four_data(), ids=lambda d: d.label)
    def test_keys_and_shifts_on_both_lattices(self, datum):
        for group, table, cents in (_group_data(datum.generators, DEFAULT_CAP), dual_group_data(datum)):
            for key, w, cent in zip(table.keys, table.representatives, cents):
                assert fermionic_shift(w) == (w - IntegerMatrix.identity(w.rows)).rank()
                # w was built by the group's action, fresh was not: a lookup and a scan
                fresh = IntegerMatrix.from_rows([list(row) for row in w.entries], cols=w.cols)
                assert cent.key(w) == cent.key(fresh) == key
                with pytest.raises(GroupError):
                    cent.key(w.scale(2))
                outside = next((k for k in group.keys if k not in cent.index), None)
                if outside is not None:
                    with pytest.raises(GroupError):
                        cent.key(group.matrix(outside))


def reflection_in_sl3():
    datum = sl_quotient_datum(3, 1)
    group = generate_group(datum.generators)
    w = datum.generators[0]
    assert fermionic_shift(w) == 1
    return datum, group, w


class TestCentralizerGuard:
    def test_class_contribution_rejects_non_commuting_elements(self):
        _, group, w = reflection_in_sl3()
        for space in ("betti", "mixed"):
            with pytest.raises(NonCentralizingError):
                term(space, w, group)

    def test_duality_row_rejects_non_commuting_elements(self):
        _, group, w = reflection_in_sl3()
        with pytest.raises(NonCentralizingError):
            _duality_row(group, group.key(w))
