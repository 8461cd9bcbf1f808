"""Exact integer linear algebra: Smith forms, cokernels, fixed sublattices."""

import itertools
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbev import lattice_core
from orbev.lattice_core import (
    InexactSolveError,
    IntegerMatrix,
    LatticeError,
    NonCentralizingError,
    column_span_basis,
    fixed_count,
    fixed_sublattice,
    induced_automorphism,
    smith_normal_form,
    solve_exact,
    solve_right_integer,
    torsion_of_cokernel,
)


def M(rows):
    return IntegerMatrix.from_rows(rows, cols=len(rows[0]) if rows else 0)


def entries_matrix(rows, cols):
    return st.lists(
        st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda r: IntegerMatrix.from_rows(r, cols=cols))


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(lambda c: entries_matrix(r, c))
)
square_matrices = st.integers(1, 3).flatmap(lambda r: entries_matrix(r, r))


class TestIntegerMatrix:
    def test_arithmetic(self):
        a = M([[1, 2], [3, 4]])
        b = M([[0, 1], [1, 0]])
        assert a + b == M([[1, 3], [4, 4]])
        assert a - b == M([[1, 1], [2, 4]])
        assert a * b == M([[2, 1], [4, 3]])
        assert (-a) == a.scale(-1)
        assert a.transpose() == M([[1, 3], [2, 4]])

    def test_det_rank(self):
        assert M([[1, 2], [3, 4]]).det() == -2
        assert M([[2, 4], [1, 2]]).rank() == 1
        assert IntegerMatrix.identity(3).det() == 1
        assert IntegerMatrix.zero(2, 3).rank() == 0

    def test_unimodular_inverse(self):
        w = M([[2, 1], [1, 1]])
        assert w.is_unimodular()
        assert w * w.inverse_unimodular() == IntegerMatrix.identity(2)
        assert w.inverse_transpose() == w.inverse_unimodular().transpose()
        with pytest.raises(InexactSolveError):
            M([[2, 0], [0, 1]]).inverse_unimodular()
        assert IntegerMatrix.identity(0).inverse_unimodular() == IntegerMatrix.identity(0)

    def test_inverse_unimodular_rejects_non_square_singular_and_det_two(self):
        for m in (M([[1, 0, 0], [0, 1, 0]]), M([[1, 0], [0, 1], [0, 0]])):
            with pytest.raises(LatticeError) as info:
                m.inverse_unimodular()
            assert not isinstance(info.value, InexactSolveError)
        for m in (M([[1, 2], [2, 4]]), M([[1, 1], [1, -1]]), M([[0, 2, 0], [1, 0, 0], [0, 0, 1]]), M([[0]])):
            with pytest.raises(InexactSolveError):
                m.inverse_unimodular()

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), max_size=4))
    def test_rank_mod_p_is_the_rank_of_the_reduced_matrix(self, p, rows):
        """rank_𝔽p(M) = 4 - log_p |ker(M mod p)|, the kernel counted by brute force over 𝔽_p^4."""
        m = M(rows) if rows else IntegerMatrix.zero(0, 4)
        kernel = sum(
            1 for x in itertools.product(range(p), repeat=4)
            if all(sum(a * b for a, b in zip(row, x)) % p == 0 for row in m.entries)
        )
        assert p ** (4 - m.rank_mod(p)) == kernel

    def test_hashable_and_ordered_entries(self):
        a = M([[1, 2], [3, 4]])
        assert a == M([[1, 2], [3, 4]])
        assert len({a, M([[1, 2], [3, 4]])}) == 1

    def test_identity_is_built_once_and_rejects_negative_size(self):
        assert IntegerMatrix.identity(4) is IntegerMatrix.identity(4)
        assert IntegerMatrix.identity(2).entries == ((1, 0), (0, 1))
        assert IntegerMatrix.identity(0).entries == ()
        with pytest.raises(LatticeError):
            IntegerMatrix.identity(-1)

    def test_from_columns(self):
        assert IntegerMatrix.from_columns([[1, 2], [3, 4]]) == M([[1, 3], [2, 4]])
        assert IntegerMatrix.from_columns([[Fraction(2)]]).entries == ((2,),)
        empty = IntegerMatrix.from_columns([], rows=2)
        assert (empty.rows, empty.cols, empty.entries) == (2, 0, ((), ()))

    @pytest.mark.parametrize("columns", [[[1.5]], [[Fraction(1, 2)]], [[1], [2, 3]], [[1, 2], [3]]],
                             ids=["float", "fraction", "longer-column", "shorter-column"])
    def test_from_columns_validates_as_the_constructor_does(self, columns):
        with pytest.raises(LatticeError):
            IntegerMatrix.from_columns(columns)
        with pytest.raises(LatticeError):
            IntegerMatrix.from_rows(columns)

    def test_empty_matrix(self):
        e = IntegerMatrix.zero(2, 0)
        assert e.rank() == 0
        assert (M([[1, 0], [0, 1]]) * e).cols == 0


class TestSolvers:
    def test_solve_exact(self):
        a = M([[2, 0], [0, 3]])
        b = M([[1], [1]])
        x = solve_exact(a, b)
        assert x == ((Fraction(1, 2),), (Fraction(1, 3),))

    def test_solve_exact_inconsistent(self):
        with pytest.raises(InexactSolveError):
            solve_exact(M([[1], [1]]), M([[1], [2]]))

    def test_solve_right_integer(self):
        a = M([[1, 0], [0, 2]])
        assert solve_right_integer(a, M([[3], [4]])) == M([[3], [2]])
        with pytest.raises(InexactSolveError):
            solve_right_integer(a, M([[0], [1]]))


class TestSmithNormalForm:
    def test_negative_scalar(self):
        # sign normalization forces the nonnegative divisor
        d = smith_normal_form(M([[-2]]))
        assert d.divisors == (2,)

    def test_identity(self):
        d = smith_normal_form(IntegerMatrix.identity(4))
        assert d.D == IntegerMatrix.identity(4)

    def test_diag_2_3(self):
        m = M([[2, 0], [0, 3]])
        d = smith_normal_form(m)
        assert d.divisors == (1, 6)
        assert d.U * m * d.V == d.D

    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_decomposition_properties(self, m):
        d = smith_normal_form(m)
        assert d.U * m * d.V == d.D
        assert d.U * d.U_inverse == IntegerMatrix.identity(m.rows)
        assert d.U_inverse == d.U.inverse_unimodular()
        assert abs(d.U.det()) == 1
        assert abs(d.V.det()) == 1
        diag = [d.D[i, i] for i in range(min(m.rows, m.cols))]
        assert all(x >= 0 for x in diag)
        for i in range(len(diag) - 1):
            if diag[i] != 0:
                assert diag[i + 1] % diag[i] == 0
            else:
                assert diag[i + 1] == 0
        for i in range(m.rows):
            for j in range(m.cols):
                if i != j:
                    assert d.D[i, j] == 0

    @settings(max_examples=50, deadline=None)
    @given(small_matrices)
    def test_deterministic(self, m):
        assert smith_normal_form(m) == smith_normal_form(m)


def brute_force_order_multiset(m):
    """Element orders of Z^r/im(m) for nonsingular m, each coset counted once.

    L = |det m| annihilates the quotient (L·x = m·adj(m)·x), so residues in
    [0,L)^r cover every coset with equal multiplicity L^(r-1).  The order of
    x + im(m) is the least k with k·m⁻¹x integral.
    """
    r = m.rows
    det = m.det()
    assert det != 0
    L = abs(det)
    inv = solve_exact(m, IntegerMatrix.identity(r))

    def order_of(vec):
        q = [sum(inv[i][j] * vec[j] for j in range(r)) for i in range(r)]
        return lcm(*(x.denominator for x in q)) if r else 1

    counts: dict[int, int] = {}
    stack = [[]]
    for _ in range(r):
        stack = [s + [t] for s in stack for t in range(L)]
    for vec in stack:
        k = order_of(vec)
        counts[k] = counts.get(k, 0) + 1
    multiplicity = L ** (r - 1)
    assert all(c % multiplicity == 0 for c in counts.values())
    return {k: c // multiplicity for k, c in counts.items()}


def group_order_multiset(divisors):
    """Element orders of the sum of the Z/d over divisors, each element counted once."""
    counts: dict[int, int] = {}
    for el in itertools.product(*map(range, divisors)):
        k = 1
        for x, d in zip(el, divisors):
            if x:
                k = lcm(k, d // gcd(d, x))
        counts[k] = counts.get(k, 0) + 1
    return counts


class TestTorsionOfCokernel:
    def test_inversion_on_z(self):
        assert torsion_of_cokernel(M([[-2]])) == (2,)

    def test_identity_action(self):
        assert torsion_of_cokernel(IntegerMatrix.zero(2, 2)) == ()

    def test_swap_on_z2(self):
        # fixed set of the coordinate swap on U(1)^2 is the connected diagonal
        assert torsion_of_cokernel(M([[-1, 1], [1, -1]])) == ()

    def test_rank_deficient_hand_values(self):
        assert torsion_of_cokernel(M([[2, 0], [0, 0]])) == (2,)
        assert torsion_of_cokernel(M([[2, 2], [2, 2]])) == (2,)
        assert torsion_of_cokernel(M([[1, 1], [1, 1]])) == ()

    @settings(max_examples=120, deadline=None)
    @given(square_matrices)
    def test_against_coset_enumeration(self, m):
        det = m.det()
        if det == 0 or abs(det) > 30:
            return
        # full quotient is finite, so its torsion part is the whole cokernel
        divisors = torsion_of_cokernel(m)
        free_rank = m.rows - m.rank()
        assert free_rank == 0
        assert prod(divisors) == abs(det)
        assert group_order_multiset(divisors) == brute_force_order_multiset(m)


class TestFixedSublattice:
    def test_identity(self):
        w = IntegerMatrix.identity(3)
        k = fixed_sublattice(w)
        assert k.cols == 3
        assert abs(k.det()) == 1

    def test_negation(self):
        assert fixed_sublattice(M([[-1]])).cols == 0

    def test_swap(self):
        k = fixed_sublattice(M([[0, 1], [1, 0]]))
        assert k.cols == 1
        a, b = k[0, 0], k[1, 0]
        assert (a, b) in {(1, 1), (-1, -1)}

    def test_order_three_rotation(self):
        w = M([[0, -1], [1, -1]])
        assert fixed_sublattice(w).cols == 0

    @settings(max_examples=80, deadline=None)
    @given(st.permutations(list(range(4))), st.lists(st.booleans(), min_size=4, max_size=4))
    def test_saturated_for_signed_permutations(self, perm, signs):
        cols = []
        for j, i in enumerate(perm):
            col = [0] * 4
            col[i] = -1 if signs[j] else 1
            cols.append(col)
        w = IntegerMatrix.from_columns(cols, rows=4)
        k = fixed_sublattice(w)
        assert w * k == k
        if k.cols:
            # saturation: the quotient by the span is torsion free
            assert smith_normal_form(k).divisors == (1,) * k.cols
        # rank matches the kernel of w - 1
        assert k.cols == 4 - (w - IntegerMatrix.identity(4)).rank()


class TestColumnSpanBasis:
    def test_simple(self):
        b = column_span_basis(M([[2, 1], [0, 0]]))
        assert b.cols == 1
        assert abs(b[0, 0]) == 1 and b[1, 0] == 0

    @settings(max_examples=80, deadline=None)
    @given(small_matrices)
    def test_span_is_preserved(self, m):
        b = column_span_basis(m)
        assert b.cols == m.rank()
        # every original column is an integer combination of the basis
        for j in range(m.cols):
            col = IntegerMatrix.from_columns([[m[i, j] for i in range(m.rows)]], rows=m.rows)
            if b.cols == 0:
                assert all(m[i, j] == 0 for i in range(m.rows))
            else:
                solve_right_integer(b, col)
        # and the basis columns lie in the span of the original columns
        for j in range(b.cols):
            col = [[b[i, j]] for i in range(b.rows)]
            if m.rank() > 0:
                solve_exact(m, M(col))


class TestInducedAutomorphism:
    def test_identity_on_z2(self):
        assert induced_automorphism(IntegerMatrix.identity(1), M([[2]])) == ((2,), (1,))

    def test_negation_mod_2_is_identity(self):
        aut = induced_automorphism(M([[-1]]), M([[2]]))
        assert aut == ((2,), (1,))
        assert fixed_count(*aut) == 2

    def test_negation_on_z3(self):
        aut = induced_automorphism(M([[-1]]), M([[3]]))
        assert aut == ((3,), (2,))
        assert fixed_count(*aut) == 1

    def test_negation_on_z4(self):
        aut = induced_automorphism(M([[-1]]), M([[4]]))
        assert fixed_count(*aut) == 2

    def test_identity_always_fixes_everything(self):
        divisors, block = induced_automorphism(IntegerMatrix.identity(2), M([[2, 0], [0, 6]]))
        assert divisors == (2, 6)
        assert fixed_count(divisors, block) == prod(divisors) == 12

    def test_u_inverse_computed_once_per_decomposition(self, monkeypatch):
        """The Smith elimination builds U⁻¹ itself, so neither it nor the readers of U⁻¹ invert anything."""
        inverse = IntegerMatrix.inverse_unimodular
        calls = []
        monkeypatch.setattr(
            IntegerMatrix, "inverse_unimodular", lambda m: calls.append(m) or inverse(m)
        )
        smith_normal_form.cache_clear()
        m = M([[0, 6, 0], [10, 0, 0], [0, 0, 15]])
        for c in (IntegerMatrix.identity(3), IntegerMatrix.identity(3).scale(-1)):
            induced_automorphism(c, m)
            induced_automorphism(c, m)
        column_span_basis(m)
        assert calls == []

    def test_rejects_non_preserving(self):
        # c does not map im(M) = 2Z x Z into itself
        c = M([[0, 1], [1, 0]])
        m = M([[2, 0], [0, 1]])
        with pytest.raises(NonCentralizingError):
            induced_automorphism(c, m)


def brute_force_fixed_count(divisors, block):
    """Elements x of the sum of the Z/dᵢ with B·x = x, by enumerating them all."""
    k = len(divisors)
    rows = [block[i * k : i * k + k] for i in range(k)]
    return sum(
        1 for x in itertools.product(*map(range, divisors))
        if all(sum(a * b for a, b in zip(row, x)) % d == xi for row, d, xi in zip(rows, divisors, x))
    )


def endomorphism_blocks(divisors):
    """Flattened blocks of the endomorphisms of the sum of the Z/dᵢ.

    Entry (i, j) maps Z/dⱼ to Z/dᵢ, so it is a multiple of dᵢ / gcd(dᵢ, dⱼ), taken mod dᵢ.
    """
    steps = [di // gcd(di, dj) for di in divisors for dj in divisors]
    mods = [di for di in divisors for _ in divisors]
    return st.tuples(*(st.integers(0, m // s - 1).map(lambda x, s=s: x * s) for s, m in zip(steps, mods)))


class TestFixedCount:
    @pytest.mark.parametrize("divisors", [
        (2,), (2, 2), (2, 2, 2), (3,), (3, 3), (5,), (5, 5), (4,), (2, 4), (3, 9), (6,),
    ], ids=str)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_enumeration(self, divisors, data):
        block = data.draw(endomorphism_blocks(divisors))
        assert fixed_count(divisors, block) == brute_force_fixed_count(divisors, block)

    def test_single_prime_chains_use_the_rank_and_other_chains_the_smith_form(self, monkeypatch):
        routes = []
        rank_mod, smith = IntegerMatrix.rank_mod, lattice_core.smith_normal_form
        monkeypatch.setattr(IntegerMatrix, "rank_mod", lambda m, p: routes.append("rank") or rank_mod(m, p))
        monkeypatch.setattr(lattice_core, "smith_normal_form", lambda m: routes.append("smith") or smith(m))
        cases = [
            ((2, 2, 2), (0, 1, 0, 1, 0, 0, 0, 0, 1), 4, "rank"),
            ((5,), (4,), 1, "rank"),
            ((4,), (3,), 2, "smith"),
            ((2, 4), (1, 0, 0, 3), 4, "smith"),
        ]
        for divisors, block, count, route in cases:
            routes.clear()
            assert fixed_count.__wrapped__(divisors, block) == count
            assert routes == [route]

    def test_trivial_group_and_rank_deficient_lattice(self):
        assert fixed_count((), ()) == 1
        with pytest.raises(LatticeError):
            fixed_count((2, 0), (1, 0, 0, 1))
