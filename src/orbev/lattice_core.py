"""Exact integer-matrix and lattice algebra.

Smith normal form with unimodular transforms, saturated fixed sublattices,
torsion of cokernels as finite abelian groups, and induced automorphisms of
those groups with exact fixed-point counts.  Every exact elimination
goes through one fraction-free integer kernel, `_bareiss`; Smith normal form
keeps its own, because it needs the unimodular transforms.  There is no
floating point in this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, Sequence


class LatticeError(Exception):
    """Base error for lattice computations."""


class InexactSolveError(LatticeError):
    """A linear system has no solution of the required exactness."""


class NonCentralizingError(LatticeError):
    """A matrix does not preserve the image lattice it was asked to act through."""


class IntegerMatrix:
    """Immutable integer matrix; rows and cols may be zero (empty basis)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence[int]]):
        if rows < 0 or cols < 0:
            raise LatticeError("matrix dimensions must be nonnegative")
        ents = tuple(tuple(int(x) for x in row) for row in entries)
        if len(ents) != rows or any(len(r) != cols for r in ents):
            raise LatticeError("entry grid inconsistent with declared dimensions")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ents)

    @classmethod
    def _of(cls, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> "IntegerMatrix":
        """A matrix from entries already known to be int tuples of the right shape, without re-checking."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", entries)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("IntegerMatrix is immutable")

    @staticmethod
    def from_rows(entries: Sequence[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        rows = len(entries)
        if rows == 0:
            if cols is None:
                cols = 0
            return IntegerMatrix(0, cols, ())
        return IntegerMatrix(rows, len(entries[0]), entries)

    @staticmethod
    def identity(n: int) -> "IntegerMatrix":
        if n < 0:
            raise LatticeError("matrix dimensions must be nonnegative")
        return IntegerMatrix._of(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntegerMatrix":
        if rows < 0 or cols < 0:
            raise LatticeError("matrix dimensions must be nonnegative")
        return IntegerMatrix._of(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def from_columns(columns: Sequence[Sequence[int]], rows: int | None = None) -> "IntegerMatrix":
        if not columns:
            return IntegerMatrix(rows if rows is not None else 0, 0, tuple(() for _ in range(rows or 0)))
        rows = len(columns[0])
        return IntegerMatrix._of(rows, len(columns), tuple(tuple(c[i] for c in columns) for i in range(rows)))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntegerMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"IntegerMatrix({list(map(list, self.entries))!r})"

    def __add__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        self._check_same_shape(other)
        return IntegerMatrix._of(
            self.rows,
            self.cols,
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        self._check_same_shape(other)
        return IntegerMatrix._of(
            self.rows,
            self.cols,
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "IntegerMatrix":
        return IntegerMatrix._of(self.rows, self.cols, tuple(tuple(-a for a in row) for row in self.entries))

    def __mul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise LatticeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        bt = other.transpose().entries
        return IntegerMatrix._of(
            self.rows,
            other.cols,
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bt) for row in self.entries),
        )

    def scale(self, k: int) -> "IntegerMatrix":
        return IntegerMatrix._of(self.rows, self.cols, tuple(tuple(k * a for a in row) for row in self.entries))

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix._of(self.cols, self.rows, tuple(zip(*self.entries)) if self.entries else tuple(() for _ in range(self.cols)))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_identity(self) -> bool:
        return self.is_square() and all(
            self.entries[i][j] == (1 if i == j else 0) for i in range(self.rows) for j in range(self.cols)
        )

    def det(self) -> int:
        if not self.is_square():
            raise LatticeError("determinant requires a square matrix")
        _, pivots, d, sign = _bareiss(self.entries, self.cols)
        return sign * d if len(pivots) == self.rows else 0

    def is_unimodular(self) -> bool:
        return self.is_square() and abs(self.det()) == 1

    def rank(self) -> int:
        """Rank over the rationals."""
        return len(_bareiss(self.entries, self.cols)[1])

    def inverse_unimodular(self) -> "IntegerMatrix":
        """Exact inverse; requires |det| = 1 so the inverse is integral."""
        sol = solve_exact(self, IntegerMatrix.identity(self.rows))
        return _fraction_grid_to_integer(sol, self.rows, "matrix is not unimodular")

    def inverse_transpose(self) -> "IntegerMatrix":
        return self.inverse_unimodular().transpose()

    def hstack(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.rows != other.rows:
            raise LatticeError("row count mismatch in hstack")
        return IntegerMatrix._of(
            self.rows, self.cols + other.cols, tuple(ra + rb for ra, rb in zip(self.entries, other.entries))
        )

    def _check_same_shape(self, other: "IntegerMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise LatticeError("shape mismatch")


def _bareiss(
    entries: Sequence[Sequence[int]], ncols: int
) -> tuple[list[list[int]], list[tuple[int, int]], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968).

    Pivots are taken in the first ncols columns, the top nonzero entry of each
    column in turn.  Every row is reduced against each pivot p with the exact
    division (p·x - f·y) // prev by the previous pivot, so all entries stay
    integer minors of the input.  Returns the reduced rows, the (row, col)
    pivots, the last pivot d and the sign of the row swaps.  Every pivot column
    ends up zero except at its own row, where it holds d; with full rank d is
    the determinant of the row-swapped matrix.
    """
    a = [list(row) for row in entries]
    pivots: list[tuple[int, int]] = []
    prev = sign = 1
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        p, pivot_row = a[r][c], a[r]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        pivots.append((r, c))
        prev = p
        if r + 1 == len(a):
            break
    return a, pivots, prev, sign


def solve_exact(a: IntegerMatrix, b: IntegerMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Solve a·X = b exactly over Q; raises InexactSolveError if inconsistent.

    Requires the solution to be unique on the span involved: free columns of a
    are only tolerated when the corresponding solution entries can be taken 0.
    Returns X as a grid of Fractions with a.cols rows and b.cols columns.
    """
    if a.rows != b.rows:
        raise LatticeError("incompatible shapes in solve_exact")
    cols = a.cols
    rows, pivots, d, _ = _bareiss([ra + rb for ra, rb in zip(a.entries, b.entries)], cols)
    if any(x != 0 for row in rows[len(pivots) :] for x in row[cols:]):
        raise InexactSolveError("linear system is inconsistent")
    x = [(Fraction(0),) * b.cols] * cols
    for r_i, c_i in pivots:
        x[c_i] = tuple(Fraction(v, d) for v in rows[r_i][cols:])
    return tuple(x)


def _fraction_grid_to_integer(grid: tuple[tuple[Fraction, ...], ...], cols: int, message: str) -> IntegerMatrix:
    if any(f.denominator != 1 for row in grid for f in row):
        raise InexactSolveError(message)
    return IntegerMatrix.from_rows([[int(f) for f in row] for row in grid], cols=cols)


def solve_right_integer(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    """Integer X with a·X = b; raises InexactSolveError if none exists."""
    return _fraction_grid_to_integer(solve_exact(a, b), b.cols, "solution is not integral")


@dataclass(frozen=True)
class SmithDecomposition:
    """U·M·V = D with U, V unimodular and D diagonal.

    Nonzero diagonal entries come first, are positive, and each divides the
    next; the remaining diagonal entries are zero.
    """

    U: IntegerMatrix
    D: IntegerMatrix
    V: IntegerMatrix

    @cached_property
    def U_inverse(self) -> IntegerMatrix:
        """U⁻¹, computed on first use and kept with the cached decomposition."""
        return self.U.inverse_unimodular()

    @property
    def divisors(self) -> tuple[int, ...]:
        """Nonzero diagonal entries, in divisibility order."""
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(n) if self.D[i, i] != 0)


@lru_cache(maxsize=None)
def smith_normal_form(m: IntegerMatrix) -> SmithDecomposition:
    rows, cols = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [list(row) for row in IntegerMatrix.identity(rows).entries]
    v = [list(row) for row in IntegerMatrix.identity(cols).entries]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        # row dst += k * row src
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, k):
        for row in a:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # Deterministic pivot: smallest |value|, then lowest (row, col).
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0:
                    key = (abs(a[i][j]), i, j)
                    if pivot is None or key < pivot[0]:
                        pivot = (key, i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                add_row(t, i, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                add_col(t, j, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # Pivot must divide the rest of the submatrix for the divisor chain.
        stray = next(
            ((i, j) for i in range(t + 1, rows) for j in range(t + 1, cols) if a[i][j] % a[t][t] != 0),
            None,
        )
        if stray is not None:
            add_row(stray[0], t, 1)
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    # Every entry is an int by construction, so the results skip re-validation.
    d = IntegerMatrix._of(rows, cols, tuple(map(tuple, a)))
    um = IntegerMatrix._of(rows, rows, tuple(map(tuple, u)))
    vm = IntegerMatrix._of(cols, cols, tuple(map(tuple, v)))
    return SmithDecomposition(um, d, vm)


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct sum of Z/d_i with 2 <= d_1 | d_2 | ...; trivial when empty."""

    divisors: tuple[int, ...]

    def __post_init__(self):
        for d in self.divisors:
            if d < 2:
                raise LatticeError("elementary divisors must be at least 2")
        for d1, d2 in zip(self.divisors, self.divisors[1:]):
            if d2 % d1 != 0:
                raise LatticeError("elementary divisors must form a divisibility chain")

    @property
    def order(self) -> int:
        n = 1
        for d in self.divisors:
            n *= d
        return n

    def elements(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(d) for d in self.divisors))


def torsion_of_cokernel(m: IntegerMatrix) -> FiniteAbelianGroup:
    """Torsion subgroup of Z^r / im(m) as sum of Z/d over SNF divisors d >= 2."""
    if not m.is_square():
        raise LatticeError("torsion_of_cokernel expects a square matrix")
    divisors = tuple(d for d in smith_normal_form(m).divisors if d >= 2)
    return FiniteAbelianGroup(divisors)


def fixed_sublattice(w: IntegerMatrix) -> IntegerMatrix:
    """Basis (as columns) of the saturated sublattice ker(w - 1) in Z^r.

    The kernel of an integer matrix is automatically saturated; the basis is
    read off the V factor of the Smith decomposition of w - 1, whose columns
    at zero divisors extend to a basis of Z^r.
    """
    if not w.is_square():
        raise LatticeError("fixed_sublattice expects a square matrix")
    if not w.is_unimodular():
        raise LatticeError("fixed_sublattice expects a unimodular matrix")
    n = w.rows
    snf = smith_normal_form(w - IntegerMatrix.identity(n))
    zero_cols = [j for j in range(n) if snf.D[j, j] == 0] if n else []
    return IntegerMatrix.from_columns([snf.V.column(j) for j in zero_cols], rows=n)


def column_span_basis(m: IntegerMatrix) -> IntegerMatrix:
    """Basis (as columns) of the lattice generated by the columns of m."""
    snf = smith_normal_form(m)
    cols = [tuple(d * x for x in snf.U_inverse.column(i)) for i, d in enumerate(snf.divisors)]
    return IntegerMatrix.from_columns(cols, rows=m.rows)


@dataclass(frozen=True)
class GroupAutomorphism:
    """Automorphism of a FiniteAbelianGroup given in elementary-divisor coordinates."""

    group: FiniteAbelianGroup
    matrix: IntegerMatrix

    def __post_init__(self):
        k = len(self.group.divisors)
        if self.matrix.rows != k or self.matrix.cols != k:
            raise LatticeError("automorphism matrix has wrong shape")
        for i, di in enumerate(self.group.divisors):
            for j, dj in enumerate(self.group.divisors):
                if (self.matrix[i, j] * dj) % di != 0:
                    raise LatticeError("matrix does not define an endomorphism of the group")

    def apply(self, element: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            sum(self.matrix[i, j] * x for j, x in enumerate(element)) % d
            for i, d in enumerate(self.group.divisors)
        )


def induced_automorphism(c: IntegerMatrix, m: IntegerMatrix) -> GroupAutomorphism:
    """Action of c on Tor(Z^r / im(m)) in elementary-divisor coordinates.

    Requires c·im(m) ⊆ im(m); violations signal a non-centralizing element.
    """
    if not m.is_square() or c.rows != c.cols or c.rows != m.rows:
        raise LatticeError("induced_automorphism expects square matrices of equal size")
    snf = smith_normal_form(m)
    n = m.rows
    diag = [snf.D[i, i] for i in range(n)]
    a = snf.U * c * snf.U_inverse
    for i in range(n):
        for j in range(n):
            target = a[i, j] * diag[j]
            if diag[i] == 0:
                ok = target == 0
            else:
                ok = target % diag[i] == 0
            if not ok:
                raise NonCentralizingError("matrix does not preserve the image lattice")
    torsion = [i for i in range(n) if diag[i] >= 2]
    group = FiniteAbelianGroup(tuple(diag[i] for i in torsion))
    block = IntegerMatrix.from_rows(
        [[a[i, j] % diag[i] for j in torsion] for i in torsion], cols=len(torsion)
    )
    return GroupAutomorphism(group, block)


def fixed_count(aut: GroupAutomorphism) -> int:
    """Number of elements fixed by aut.

    Fixed points of x -> Ax on ⊕ Z/d_i are the kernel of A - 1, whose order
    equals the index [Z^k : (A-1)Z^k + D Z^k], read off the Smith divisors of
    the block matrix [A-1 | D].
    """
    k = len(aut.group.divisors)
    if k == 0:
        return 1
    d = IntegerMatrix._of(
        k, k, tuple(tuple(aut.group.divisors[i] if i == j else 0 for j in range(k)) for i in range(k))
    )
    stacked = (aut.matrix - IntegerMatrix.identity(k)).hstack(d)
    divisors = smith_normal_form(stacked).divisors
    if len(divisors) != k:
        raise LatticeError("lattice (A-1)Z^k + DZ^k must have full rank")
    count = 1
    for x in divisors:
        count *= x
    return count
