"""The exact elimination kernel and its users against sympy as an independent oracle.

sympy is a test-time oracle only; without it this module is skipped.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

from orbev.epoly import char_poly  # noqa: E402
from orbev.lattice_core import (  # noqa: E402
    InexactSolveError,
    IntegerMatrix,
    smith_normal_form,
    solve_exact,
)


def grid(rows, cols, bound=9):
    return st.lists(
        st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


def low_rank(rows, cols):
    """rows x cols products of rows x k and k x cols factors, singular for k < min(rows, cols)."""

    def product(pair):
        left, right = pair
        k = len(right)
        return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(cols)] for i in range(rows)]

    return st.integers(0, min(rows, cols)).flatmap(
        lambda k: st.tuples(grid(rows, k, 3), grid(k, cols, 3)).map(product)
    )


def integer_matrices(rows, cols):
    return st.one_of(grid(rows, cols), low_rank(rows, cols)).map(
        lambda e: IntegerMatrix(rows, cols, e)
    )


dims = st.integers(0, 6)
matrices = st.tuples(dims, dims).flatmap(lambda rc: integer_matrices(*rc))
square_matrices = dims.flatmap(lambda n: integer_matrices(n, n))
systems = st.tuples(dims, dims, st.integers(0, 3)).flatmap(
    lambda s: st.tuples(integer_matrices(s[0], s[1]), integer_matrices(s[0], s[2]))
)


def sym(m: IntegerMatrix):
    return sympy.Matrix(m.rows, m.cols, [x for row in m.entries for x in row])


@st.composite
def unimodular(draw):
    """Product of elementary matrices: row additions, row swaps and sign flips."""
    n = draw(st.integers(1, 6))
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            k = draw(st.integers(-3, 3))
            a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        elif op == "swap":
            a[i], a[j] = a[j], a[i]
        elif op == "negate":
            a[i] = [-x for x in a[i]]
    return IntegerMatrix(n, n, a)


@settings(max_examples=200, deadline=None)
@given(square_matrices)
def test_det_matches_sympy(m):
    assert m.det() == sym(m).det()


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_rank_matches_sympy(m):
    assert m.rank() == sym(m).rank()


@settings(max_examples=200, deadline=None)
@given(systems)
def test_solve_exact_matches_sympy(system):
    a, b = system
    sa, sb = sym(a), sym(b)
    if sa.rank() != sa.row_join(sb).rank():
        with pytest.raises(InexactSolveError):
            solve_exact(a, b)
        return
    x = solve_exact(a, b)
    sx = sympy.Matrix(a.cols, b.cols, [sympy.Rational(v.numerator, v.denominator) for row in x for v in row])
    assert sa * sx == sb
    # Free columns of a are solved as 0, which makes the solution unique.
    pivots = set(sa.rref()[1])
    assert all(v == 0 for i, row in enumerate(x) if i not in pivots for v in row)
    if sa.rows == sa.cols == sa.rank():
        assert sx == sa.LUsolve(sb)


@settings(max_examples=150, deadline=None)
@given(unimodular())
def test_inverse_unimodular_matches_sympy(m):
    assert sym(m.inverse_unimodular()) == sym(m).inv()


@settings(max_examples=200, deadline=None)
@given(square_matrices)
def test_char_poly_matches_sympy(m):
    coeffs = sym(m).charpoly(sympy.Symbol("t")).all_coeffs()
    assert char_poly(m) == tuple(int(c) for c in reversed(coeffs))


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_smith_divisors_match_sympy(m):
    expected = tuple(abs(int(f)) for f in invariant_factors(sym(m), domain=sympy.ZZ) if f != 0)
    assert smith_normal_form(m).divisors == expected
