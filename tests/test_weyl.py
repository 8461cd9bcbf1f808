"""Finite matrix group generation, conjugacy classes, centralizers."""

from math import factorial

import pytest

from oracles import class_of, datum_to_text, elements, matrix_group_oracle, rank_four_data
from orbev import lattice_core, weyl
from orbev.lattice_core import IntegerMatrix
from orbev.root_data import (
    classical_datum,
    dual_datum,
    parse_datum_text,
    sl_quotient_datum,
)
from orbev.sln_formula import partitions
from orbev.weyl import (
    CapExceededError,
    GroupError,
    centralizer,
    conjugacy_classes,
    dual_class_order,
    generate_group,
    schreier_sims_order,
)


def M(rows):
    return IntegerMatrix.from_rows(rows, cols=len(rows[0]))


class TestGenerateGroup:
    def test_s3_on_a2(self):
        d = sl_quotient_datum(3, 1)
        g = generate_group(d.generators)
        assert g.order == 6
        eye = IntegerMatrix.identity(2)
        assert eye in elements(g)
        for x in elements(g):
            assert x * x.inverse_unimodular() == eye

    def test_w_b2(self):
        d = classical_datum("B", 2, "adjoint")
        assert generate_group(d.generators).order == 8

    def test_closure_under_product(self):
        g = generate_group(sl_quotient_datum(3, 1).generators)
        members = set(elements(g))
        for a in members:
            for b in members:
                assert a * b in members

    def test_deterministic_element_order(self):
        gens = sl_quotient_datum(4, 1).generators
        assert elements(generate_group(gens)) == elements(generate_group(gens))

    def test_infinite_group_hits_cap(self):
        # unipotent matrix generates an infinite cyclic group
        shear = M([[1, 1], [0, 1]])
        with pytest.raises(CapExceededError) as info:
            generate_group((shear,), cap=10_000)
        assert info.value.partial_count >= 10_000

    def test_trivial_group(self):
        g = generate_group((IntegerMatrix.identity(2),))
        assert g.order == 1

    def test_non_unimodular_generator_refused_before_the_orbit(self, monkeypatch):
        # 2·I has an unbounded orbit, so it must be refused before the orbit is walked
        monkeypatch.setattr(weyl, "_orbit", lambda *args: pytest.fail("the orbit was walked"))
        with pytest.raises(GroupError, match="generators must be unimodular"):
            generate_group((IntegerMatrix.identity(2), IntegerMatrix.identity(2).scale(2)))

    def test_each_generator_determinant_is_computed_once(self):
        """A parsed datum's generators are checked by validation and by generate_group with one det each."""
        text = datum_to_text(classical_datum("C", 3, "adjoint")).replace("label C3_ad", "label fresh")
        lattice_core._det.cache_clear()
        datum = parse_datum_text(text)
        misses = lattice_core._det.cache_info().misses
        generate_group(datum.generators)
        assert lattice_core._det.cache_info().misses == misses


class TestConjugacyClasses:
    def test_s3_class_sizes(self):
        g = generate_group(sl_quotient_datum(3, 1).generators)
        table = conjugacy_classes(g)
        assert table.count == 3
        assert sorted(table.sizes) == [1, 2, 3]

    def test_w_b2_has_five_classes(self):
        g = generate_group(classical_datum("B", 2, "adjoint").generators)
        table = conjugacy_classes(g)
        assert table.count == 5
        assert sum(table.sizes) == 8

    def test_trivial_group_single_class(self):
        g = generate_group((IntegerMatrix.identity(1),))
        table = conjugacy_classes(g)
        assert table.count == 1
        assert table.sizes == (1,)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_type_a_class_count_is_partition_count(self, n):
        g = generate_group(sl_quotient_datum(n, 1).generators)
        assert conjugacy_classes(g).count == len(partitions(n))

    def test_class_index_consistent(self):
        g = generate_group(sl_quotient_datum(3, 1).generators)
        table = conjugacy_classes(g)
        for x in elements(g):
            i = class_of(table, x)
            # conjugates land in the same class
            for y in elements(g):
                conj = y * x * y.inverse_unimodular()
                assert class_of(table, conj) == i

    def test_representative_is_in_its_class(self):
        g = generate_group(classical_datum("C", 3, "adjoint").generators)
        table = conjugacy_classes(g)
        for i, rep in enumerate(table.representatives):
            assert class_of(table, rep) == i


class TestCentralizer:
    def test_identity_centralizer_is_whole_group(self):
        g = generate_group(sl_quotient_datum(3, 1).generators)
        c = centralizer(g, IntegerMatrix.identity(2))
        assert c.order == g.order

    def test_orders_in_s3(self):
        g = generate_group(sl_quotient_datum(3, 1).generators)
        table = conjugacy_classes(g)
        by_size = {size: rep for rep, size in zip(table.representatives, table.sizes)}
        # transposition class has size 3, centralizer order 2
        assert centralizer(g, by_size[3]).order == 2
        # 3-cycle class has size 2, centralizer order 3
        assert centralizer(g, by_size[2]).order == 3

    def test_orbit_stabilizer(self):
        for datum in [sl_quotient_datum(4, 2), classical_datum("B", 3, "simply_connected")]:
            g = generate_group(datum.generators)
            table = conjugacy_classes(g)
            for rep, size in zip(table.representatives, table.sizes):
                assert centralizer(g, rep).order * size == g.order

    def test_membership_required(self):
        g = generate_group(sl_quotient_datum(3, 1).generators)
        outsider = M([[1, 1], [0, 1]])
        with pytest.raises(Exception):
            centralizer(g, outsider)

    def test_all_elements_commute_with_w(self):
        g = generate_group(classical_datum("B", 2, "adjoint").generators)
        table = conjugacy_classes(g)
        for rep in table.representatives:
            for c in elements(centralizer(g, rep)):
                assert c * rep == rep * c


class TestOrderBeforeEnumeration:
    @pytest.mark.parametrize(
        "family, n, order",
        [("B", 12, 2**12 * factorial(12)), ("C", 7, 2**7 * factorial(7)), ("D", 9, 2**8 * factorial(9))],
    )
    def test_schreier_sims_order_of_large_weyl_groups(self, family, n, order):
        # W acting on ±e_1..±e_n: point i is e_{i+1}, point n + i is -e_{i+1}.
        def perm(images):
            p = list(range(2 * n))
            for i, j in images.items():
                p[i], p[(i + n) % (2 * n)] = j, (j + n) % (2 * n)
            return tuple(p)

        swaps = [perm({i: i + 1, i + 1: i}) for i in range(n - 1)]
        if family == "D":  # e_{n-1} ↔ -e_n
            last = perm({n - 2: 2 * n - 1, n - 1: 2 * n - 2})
        else:  # e_n ↔ -e_n
            last = perm({n - 1: 2 * n - 1})
        identity = tuple(range(2 * n))  # dropped, like any repeated generator
        assert schreier_sims_order(swaps + [last, identity, last], 2 * n) == order

    def test_order_matches_enumeration(self):
        for d in (sl_quotient_datum(5, 1), classical_datum("D", 4, "adjoint")):
            g = generate_group(d.generators)
            assert schreier_sims_order(g.generator_keys, len(g.action.points)) == g.order

    def test_cap_at_the_order_passes_one_below_refuses(self):
        gens = sl_quotient_datum(4, 1).generators
        assert generate_group(gens, cap=24).order == 24
        with pytest.raises(CapExceededError) as info:
            generate_group(gens, cap=23)
        assert info.value.partial_count == 24

    def test_oversized_group_refused_by_its_order(self):
        with pytest.raises(CapExceededError) as info:
            generate_group(classical_datum("B", 12, "simply_connected").generators)
        assert info.value.partial_count == 2**12 * factorial(12)


def assert_matches_oracle(group, generators):
    matrices, representatives, sizes, centralizers = matrix_group_oracle(generators)
    table = conjugacy_classes(group)
    assert list(elements(group)) == matrices
    assert list(table.representatives) == representatives
    assert list(table.sizes) == sizes
    assert [list(elements(centralizer(group, w))) for w in table.representatives] == centralizers


@pytest.mark.parametrize("datum", rank_four_data(), ids=lambda d: d.label)
class TestAgainstMatrixOracle:
    def test_group_classes_and_centralizers(self, datum):
        assert_matches_oracle(generate_group(datum.generators), datum.generators)

    def test_dual_class_order_equals_dual_scan(self, datum):
        """Ŵ's classes read off W's keys, against Ŵ generated from the dual generators and scanned in itself."""
        group = generate_group(datum.generators)
        table = conjugacy_classes(group)
        dual = generate_group(dual_datum(datum).generators)
        scanned = conjugacy_classes(dual)
        order = dual_class_order(table)
        assert [group.dual_matrix(k) for k in order.values()] == list(scanned.representatives)
        assert [table.sizes[i] for i in order] == list(scanned.sizes)
        # each class, read through w ↦ (w⁻¹)ᵀ, is the Ŵ class it is listed as
        for j, i in enumerate(order):
            members = {dual.key(group.dual_matrix(k)) for k, c in table.class_index.items() if c == i}
            assert members == {k for k, c in scanned.class_index.items() if c == j}


class TestKeys:
    def test_dual_matrix_is_the_inverse_transpose_read_from_its_cache(self):
        group = generate_group(classical_datum("C", 3, "adjoint").generators)
        for k in group.keys:
            m = group.dual_matrix(k)
            assert m == group.matrix(k).inverse_transpose()
            # a group and its centralizers share one action, and its cache of (w⁻¹)ᵀ
            assert group.dual_matrix(k) is m is centralizer(group, group.matrix(k)).dual_matrix(k)
            # only the matrices w are looked up by identity
            assert id(m) not in group.action.matrix_keys

    @pytest.mark.parametrize("datum, walks", [
        (classical_datum("B", 3, "simply_connected"), 0),
        (sl_quotient_datum(4, 2), 1),
    ], ids=["B3_sc", "SL4/Z2"])
    def test_dual_class_order_walks_only_when_generators_sort_differently(self, monkeypatch, datum, walks):
        group = generate_group(datum.generators)
        table = conjugacy_classes(group)
        calls, consumed = [], []
        breadth_first = weyl._breadth_first

        def counted(*args):
            calls.append(args)
            for k in breadth_first(*args):
                consumed.append(k)
                yield k

        monkeypatch.setattr(weyl, "_breadth_first", counted)
        order = dual_class_order(table)
        assert len(calls) == walks
        assert sorted(order) == list(range(table.count))
        if walks:
            # the walk stops at the first key of the last class it meets
            assert consumed[-1] == list(order.values())[-1]
            assert len(consumed) < group.order == len(tuple(breadth_first(*calls[0])))
        else:
            # the same search: Ŵ's first keys are W's representatives, in W's order
            assert tuple(order.values()) == table.keys

    def test_matrix_outside_the_orbit_is_not_a_member(self):
        g = generate_group(sl_quotient_datum(3, 1).generators)
        with pytest.raises(GroupError):
            g.key(M([[2, 0], [0, 1]]))
        assert M([[1, 0], [0, 1]]) in elements(g)
        assert M([[-1, 0], [0, -1]]) not in elements(g)  # permutes the roots of A2 but is not in W
