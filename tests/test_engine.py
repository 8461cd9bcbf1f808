"""Orbifold E-polynomial assembly: shifts, class terms, totals, mirror and duality."""

from collections import Counter
from fractions import Fraction

import pytest

from orbev import orbifold_engine
from orbev.epoly import SPACES, BivariatePolynomial, char_poly, factor_e_character
from orbev.lattice_core import (
    IntegerMatrix,
    NonCentralizingError,
    fixed_count,
    fixed_sublattice,
    induced_automorphism,
    solve_right_integer,
    torsion_of_cokernel,
)
from orbev.orbifold_engine import (
    _block_fixed_count,
    _duality_row,
    _dual_group_data,
    _fixed_data,
    _group_data,
    _key_histogram,
    _newton,
    _pi0_reader,
    _report,
    _space_character,
    _trace_reader,
    class_contribution,
    duality_check,
    fermionic_shift,
    mirror_check,
    orbifold_e_polynomial,
)
from orbev.root_data import RootDatum, classical_datum, custom_datum, dual_datum, sl_quotient_datum
from orbev.weyl import DEFAULT_CAP, GroupError, centralizer, conjugacy_classes, dual_group, generate_group
from oracles import (
    G2_PATH,
    direct_shift_oracle,
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
    for w in group:
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
        for w in group:
            assert fermionic_shift(w) == direct_shift_oracle(w)

    def test_oracle_examples(self):
        assert direct_shift_oracle(IntegerMatrix.identity(2)) == 0
        _, _, three_cycle = n_cycle_on_sl(3)
        assert direct_shift_oracle(three_cycle) == 2

    def test_shift_duality(self):
        for datum in [sl_quotient_datum(4, 1), classical_datum("C", 2, "simply_connected")]:
            for w in generate_group(datum.generators):
                assert fermionic_shift(w) == fermionic_shift(w.inverse_transpose())


def pi0_divisors(w):
    return torsion_of_cokernel(w - IntegerMatrix.identity(w.rows)).divisors


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


class TestClassContribution:
    def test_sl2_betti_identity_class(self):
        d = sl_quotient_datum(2, 1)
        group = generate_group(d.generators)
        w = IntegerMatrix.identity(1)
        contrib = class_contribution(d, SPACES["betti"], w, centralizer(group, w))
        # average of (uv-1)^2 and (uv+1)^2 over W = Z/2
        assert contrib.average == xpoly([1, 0, 1])
        assert contrib.weighted == contrib.average

    def test_sl2_betti_negation_class(self):
        d = sl_quotient_datum(2, 1)
        group = generate_group(d.generators)
        w = M([[-1]])
        contrib = class_contribution(d, SPACES["betti"], w, centralizer(group, w))
        # 4 order-2 points of (C^x)^2 survive, each contributing 1, shift 1
        assert contrib.average == P.constant(4)
        assert contrib.weighted == UV.scale(4)
        assert contrib.shift == 1

    def test_conjugation_invariance(self):
        d = sl_quotient_datum(4, 1)
        group = generate_group(d.generators)
        table = conjugacy_classes(group)
        for i, rep in enumerate(table.representatives):
            twins = [x for x in group if table.class_of(x) == i][:2]
            results = [
                class_contribution(d, SPACES["abelian-surface"], w, centralizer(group, w))
                for w in twins
            ]
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
        trivial = RootDatum(
            rank=0,
            basis=IntegerMatrix.zero(0, 0),
            denominator=1,
            gram=(),
            generators=(),
            label="trivial",
        )
        report = orbifold_e_polynomial(trivial, SPACES["betti"])
        assert report.total == ONE

    def test_totals_have_integer_coefficients(self):
        for datum in [sl_quotient_datum(4, 2), classical_datum("D", 3, "simply_connected")]:
            for space in SPACES.values():
                report = orbifold_e_polynomial(datum, space)
                assert report.total.has_integer_coefficients()

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
                value = orbifold_e_polynomial(datum, SPACES[space]).total.evaluate(1, 1)
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

    def test_d3_simply_connected_matches_sl4(self):
        # rank-3 coincidence: the D-type double cover agrees with SL(4),
        # certified here through equal orbifold series on every space
        d3 = classical_datum("D", 3, "simply_connected")
        a3 = sl_quotient_datum(4, 1)
        for space in SPACES.values():
            assert orbifold_e_polynomial(d3, space).total == orbifold_e_polynomial(a3, space).total


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

    def test_rebased_c3_adjoint_on_mixed_matches_oracle(self):
        datum = rebased(classical_datum("C", 3, "adjoint"), seed=7)
        report = mirror_check(datum, SPACES["mixed"])
        group = generate_group(datum.generators)
        assert_report_matches_oracle(report.primal, group, SPACES["mixed"])
        assert_report_matches_oracle(report.dual, dual_group(group), SPACES["mixed"])
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

    def test_spaces_walk_each_class_and_side_set_once(self, monkeypatch):
        """The five spaces of one datum share one walk per (class, lattice side set).

        A walk reads one trace table, and one π₀ table per side: four spaces
        read Λ alone and `mixed` reads Λ and Λ̂.
        """
        traces, pi0 = Counter(), Counter()
        trace_reader, pi0_reader = orbifold_engine._trace_reader, orbifold_engine._pi0_reader
        monkeypatch.setattr(orbifold_engine, "_trace_reader",
                            lambda cent, key: traces.update([key]) or trace_reader(cent, key))
        monkeypatch.setattr(orbifold_engine, "_pi0_reader",
                            lambda cent, key, inverse: pi0.update([(key, inverse)]) or pi0_reader(cent, key, inverse))
        datum = classical_datum("B", 3, "simply_connected")
        group_data = _group_data(datum, DEFAULT_CAP)
        _key_histogram.cache_clear()
        for space in SPACES.values():
            _report(datum, space, group_data)
        keys = group_data[1].keys
        assert traces == Counter({key: 2 for key in keys})
        assert pi0 == Counter({**{(key, False): 2 for key in keys}, **{(key, True): 1 for key in keys}})

    def test_space_order_does_not_change_reports(self):
        data = [sl_quotient_datum(4, 2), classical_datum("B", 3, "simply_connected"),
                rebased(classical_datum("C", 3, "adjoint"), seed=7)]
        runs = []
        for spaces in (list(SPACES.values()), list(SPACES.values())[::-1]):
            for cached in (mirror_check, orbifold_e_polynomial, _group_data, _dual_group_data, _fixed_data,
                           _key_histogram, _block_fixed_count, _space_character,
                           factor_e_character, char_poly):
                cached.cache_clear()
            runs.append({(d.label, s.name): mirror_check(d, s) for d in data for s in spaces})
        assert runs[0] == runs[1]

    def test_matrix_caches_hold_only_representatives_and_generators(self):
        datum = classical_datum("B", 4, "simply_connected")
        for cached in (mirror_check, orbifold_e_polynomial, _group_data, _dual_group_data):
            cached.cache_clear()
        mirror_check(datum, SPACES["mixed"])
        group, table, cents = _group_data(datum, DEFAULT_CAP)
        allowed = set(table.keys) | set(_dual_group_data(datum, DEFAULT_CAP)[1].keys) | set(group.generator_keys)
        built = set(group.action.matrices) | set(group.action.flipped().matrices)
        assert built <= allowed
        assert sum(cent.order for cent in cents) > len(allowed)


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
            sides = [(False, w, cent.elements), (True, cent.dual_matrix(key), tuple(map(cent.dual_matrix, cent.keys)))]
            for inverse, ws, elements in sides:
                eye = IntegerMatrix.identity(ws.rows)
                basis = fixed_sublattice(ws)
                divisors, block = _pi0_reader(cent, key, inverse)
                for c, cs in zip(cent.keys, elements):
                    assert _newton(traces(c), order) == char_poly(solve_right_integer(basis, cs * basis))
                    aut = induced_automorphism(cs, ws - eye)
                    assert divisors == aut.group.divisors
                    if divisors:
                        assert block(c) == sum(aut.matrix.entries, ())
                        assert _block_fixed_count(divisors, block(c)) == fixed_count(aut)
        report = duality_check(datum)
        assert len(report.rows) == table.count
        for row, w in zip(report.rows, table.representatives):
            assert row.representative == w
            got = (row.pi0_primal, row.pi0_dual, row.orders_agree, row.fixed_counts_agree)
            assert got == per_element_duality_oracle(w, centralizer(group, w).elements)

    def test_fixed_count_runs_once_per_distinct_block(self, monkeypatch):
        autos = []
        monkeypatch.setattr(orbifold_engine, "fixed_count", lambda aut: autos.append(aut) or fixed_count(aut))
        for cached in (duality_check, _key_histogram, _block_fixed_count):
            cached.cache_clear()
        duality_check(sl_quotient_datum(4, 4))
        blocks = [(aut.group.divisors, aut.matrix) for aut in autos]
        assert 0 < len(set(blocks)) == len(blocks)


class TestKeysAndShifts:
    """The table key and the shift that class_contribution reads, against a fresh scan and rank."""

    @pytest.mark.parametrize("datum", rank_four_data(), ids=lambda d: d.label)
    def test_keys_and_shifts_on_both_lattices(self, datum):
        for group, table, cents in (_group_data(datum, DEFAULT_CAP), _dual_group_data(datum, DEFAULT_CAP)):
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
        datum, group, w = reflection_in_sl3()
        for space in ("betti", "mixed"):
            with pytest.raises(NonCentralizingError):
                class_contribution(datum, SPACES[space], w, group)

    def test_duality_row_rejects_non_commuting_elements(self):
        _, group, w = reflection_in_sl3()
        with pytest.raises(NonCentralizingError):
            _duality_row(group, group.key(w))
