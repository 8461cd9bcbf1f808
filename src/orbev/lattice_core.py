"""Exact integer-matrix and lattice algebra.

Smith normal form with unimodular transforms, saturated fixed sublattices,
and the component-group data the engine compares: the torsion of a cokernel
as its divisors d₁ | d₂ | ..., an induced automorphism of ⊕ ℤ/dᵢ as a
flattened block, and its fixed-point count, over 𝔽_p when every dᵢ is one
prime p and by a Smith form otherwise.  Every exact elimination over
ℤ or ℚ goes through one fraction-free integer kernel, `_bareiss`: rank,
determinant, solves, and the inverse of a unimodular matrix, read in integers
off the reduced [M | 1] with no Fraction; Smith normal form keeps its own,
because it needs the unimodular transforms, and builds U⁻¹ in the same steps,
so the readers of U⁻¹ invert nothing.  `rank_mod` eliminates over 𝔽_p.
There is no floating point in this module.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod
from operator import add, mul, sub
from typing import NamedTuple, Sequence


class LatticeError(Exception):
    """Base error for lattice computations."""


class InexactSolveError(LatticeError):
    """A linear system has no solution of the required exactness."""


class NonCentralizingError(LatticeError):
    """A matrix does not preserve the image lattice it was asked to act through."""


def _integer(x) -> int:
    """x as an int; LatticeError when x is not integral (1.5, Fraction(1, 2)), where int() would truncate."""
    n = int(x)
    if n != x:
        raise LatticeError(f"matrix entry {x!r} is not an integer")
    return n


class IntegerMatrix:
    """Immutable integer matrix; rows and cols may be zero (empty basis)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence[int]]):
        if rows < 0 or cols < 0:
            raise LatticeError("matrix dimensions must be nonnegative")
        ents = tuple(tuple(map(_integer, row)) for row in entries)
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

    def __reduce__(self):
        return IntegerMatrix, (self.rows, self.cols, self.entries)

    @staticmethod
    def from_rows(entries: Sequence[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        rows = len(entries)
        if rows == 0:
            if cols is None:
                cols = 0
            return IntegerMatrix(0, cols, ())
        return IntegerMatrix(rows, len(entries[0]), entries)

    @staticmethod
    @lru_cache(maxsize=None)
    def identity(n: int) -> "IntegerMatrix":
        """The n×n identity, built once per n and shared, as an IntegerMatrix is immutable."""
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
        """The matrix with these columns, checked as the constructor checks rows; rows is needed for no columns."""
        if rows is None:
            rows = len(columns[0]) if columns else 0
        return IntegerMatrix(len(columns), rows, columns).transpose()

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
        rows = map(map, itertools.repeat(add), self.entries, other.entries)
        return IntegerMatrix._of(self.rows, self.cols, tuple(map(tuple, rows)))

    def __sub__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        self._check_same_shape(other)
        rows = map(map, itertools.repeat(sub), self.entries, other.entries)
        return IntegerMatrix._of(self.rows, self.cols, tuple(map(tuple, rows)))

    def __neg__(self) -> "IntegerMatrix":
        return IntegerMatrix._of(self.rows, self.cols, tuple(tuple(-a for a in row) for row in self.entries))

    def __mul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise LatticeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        bt = other.transpose().entries
        return IntegerMatrix._of(
            self.rows,
            other.cols,
            tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in self.entries),
        )

    def scale(self, k: int) -> "IntegerMatrix":
        return IntegerMatrix._of(self.rows, self.cols, tuple(tuple(k * a for a in row) for row in self.entries))

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix._of(self.cols, self.rows, tuple(zip(*self.entries)) if self.entries else tuple(() for _ in range(self.cols)))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def det(self) -> int:
        if not self.is_square():
            raise LatticeError("determinant requires a square matrix")
        return _det(self.entries)

    def is_unimodular(self) -> bool:
        return self.is_square() and abs(self.det()) == 1

    def rank(self) -> int:
        """Rank over the rationals."""
        return len(_bareiss(self.entries, self.cols, reduce_above=False)[1])

    def rank_mod(self, p: int) -> int:
        """Rank over the field 𝔽_p, p prime, by Gaussian elimination mod p."""
        rows = [[x % p for x in row] for row in self.entries]
        rank = 0
        while rows:
            pivot_row = rows.pop()
            j = next((j for j, x in enumerate(pivot_row) if x), None)
            if j is None:
                continue
            rank += 1
            inv = pow(pivot_row[j], -1, p)
            rows = [
                [(x - f * y) % p for x, y in zip(row, pivot_row)] if (f := row[j] * inv) else row for row in rows
            ]
        return rank

    def inverse_unimodular(self) -> "IntegerMatrix":
        """Exact inverse; requires |det| = 1 so the inverse is integral.

        `_bareiss` reduces [M | 1] to [d·1 | d·M⁻¹], d the last pivot; with
        full rank and d = ±1, M⁻¹ is d times the right block.
        """
        if not self.is_square():
            raise LatticeError("inverse_unimodular requires a square matrix")
        n = self.rows
        rows, pivots, d, _ = _bareiss([row + e for row, e in zip(self.entries, IntegerMatrix.identity(n).entries)], n)
        if len(pivots) != n or d not in (1, -1):
            raise InexactSolveError("matrix is not unimodular")
        return IntegerMatrix._of(n, n, tuple(tuple(d * x for x in row[n:]) for row in rows))

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
    entries: Sequence[Sequence[int]], ncols: int, reduce_above: bool = True
) -> tuple[list[list[int]], list[tuple[int, int]], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968).

    Pivots are taken in the first ncols columns, the top nonzero entry of each
    column in turn.  Every row is reduced against each pivot p with the exact
    division (p·x - f·y) // prev by the previous pivot, so all entries stay
    integer minors of the input.  Returns the reduced rows, the (row, col)
    pivots, the last pivot d and the sign of the row swaps.  Every pivot column
    ends up zero except at its own row, where it holds d; with full rank d is
    the determinant of the row-swapped matrix.  With reduce_above false only
    the rows below each pivot are reduced, a fraction-free echelon form with
    the same pivots and d, which is all that rank and det read.
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
        for i in range(0 if reduce_above else r + 1, len(a)):
            if i != r:
                f, row = a[i][c], a[i]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        pivots.append((r, c))
        prev = p
        if r + 1 == len(a):
            break
    return a, pivots, prev, sign


@lru_cache(maxsize=None)
def _det(entries: tuple[tuple[int, ...], ...]) -> int:
    """The determinant of the square matrix with these rows, once per distinct matrix.

    A datum's generators are checked for unimodularity when the datum is
    validated and again by `generate_group`; the second check is a lookup.
    """
    _, pivots, d, sign = _bareiss(entries, len(entries), reduce_above=False)
    return sign * d if len(pivots) == len(entries) else 0


def _solve(a: IntegerMatrix, b: IntegerMatrix) -> tuple[list[list[int]], list[tuple[int, int]], int]:
    """[a | b] reduced by `_bareiss`, its pivots and last pivot d; raises InexactSolveError if inconsistent.

    Row r of a pivot (r, c) then reads d·X[c] in its b columns.
    """
    if a.rows != b.rows:
        raise LatticeError("incompatible shapes in solve_exact")
    rows, pivots, d, _ = _bareiss([ra + rb for ra, rb in zip(a.entries, b.entries)], a.cols)
    if any(x != 0 for row in rows[len(pivots) :] for x in row[a.cols :]):
        raise InexactSolveError("linear system is inconsistent")
    return rows, pivots, d


def solve_exact(a: IntegerMatrix, b: IntegerMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Solve a·X = b exactly over Q; raises InexactSolveError if inconsistent.

    Requires the solution to be unique on the span involved: free columns of a
    are only tolerated when the corresponding solution entries can be taken 0.
    Returns X as a grid of Fractions with a.cols rows and b.cols columns.
    """
    rows, pivots, d = _solve(a, b)
    x = [(Fraction(0),) * b.cols] * a.cols
    for r_i, c_i in pivots:
        x[c_i] = tuple(Fraction(v, d) for v in rows[r_i][a.cols :])
    return tuple(x)


def solve_right_integer(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    """Integer X with a·X = b, as `solve_exact` with integer division; raises InexactSolveError if none exists."""
    rows, pivots, d = _solve(a, b)
    x = [(0,) * b.cols] * a.cols
    for r_i, c_i in pivots:
        quotients = [divmod(v, d) for v in rows[r_i][a.cols :]]
        if any(rem for _, rem in quotients):
            raise InexactSolveError("solution is not integral")
        x[c_i] = tuple(q for q, _ in quotients)
    return IntegerMatrix._of(a.cols, b.cols, tuple(x))


class SmithDecomposition(NamedTuple):
    """U·M·V = D with U, V unimodular and D diagonal, and U⁻¹, built by the same elimination.

    Nonzero diagonal entries come first, are positive, and each divides the
    next; the remaining diagonal entries are zero.
    """

    U: IntegerMatrix
    D: IntegerMatrix
    V: IntegerMatrix
    U_inverse: IntegerMatrix

    @property
    def divisors(self) -> tuple[int, ...]:
        """Nonzero diagonal entries, in divisibility order."""
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(n) if self.D[i, i] != 0)


@lru_cache(maxsize=None)
def smith_normal_form(m: IntegerMatrix) -> SmithDecomposition:
    """The Smith decomposition of m, once per distinct matrix.

    Each row operation on U is the inverse column operation on U⁻¹: a swap
    swaps the same two columns, row dst += k·row src is column src -= k·column
    dst, and a negated row negates the same column.  U⁻¹ is held by columns,
    as the rows of u_inv_t, so that each of these is one list operation.
    """
    rows, cols = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [list(row) for row in IntegerMatrix.identity(rows).entries]
    u_inv_t = [list(row) for row in IntegerMatrix.identity(rows).entries]
    v = [list(row) for row in IntegerMatrix.identity(cols).entries]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        u_inv_t[i], u_inv_t[j] = u_inv_t[j], u_inv_t[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        # row dst += k * row src
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]
        u_inv_t[src] = [x - k * y for x, y in zip(u_inv_t[src], u_inv_t[dst])]

    def add_col(src, dst, k):
        for row in a:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        u_inv_t[i] = [-x for x in u_inv_t[i]]

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
        # Pivot must divide the rest of the submatrix for the divisor chain; a unit pivot does.
        p = a[t][t]
        stray = None if p in (1, -1) else next(
            ((i, j) for i in range(t + 1, rows) for j in range(t + 1, cols) if a[i][j] % p != 0), None
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
    um_inv = IntegerMatrix._of(rows, rows, tuple(map(tuple, u_inv_t))).transpose()
    return SmithDecomposition(um, d, vm, um_inv)


def torsion_of_cokernel(m: IntegerMatrix) -> tuple[int, ...]:
    """The divisors d >= 2 of m's Smith form: Tor(Z^r / im(m)) is the sum of the Z/d."""
    if not m.is_square():
        raise LatticeError("torsion_of_cokernel expects a square matrix")
    return tuple(d for d in smith_normal_form(m).divisors if d >= 2)


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


def induced_automorphism(c: IntegerMatrix, m: IntegerMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The action of c on Tor(Z^r / im(m)), as (divisors, block) in elementary-divisor coordinates.

    With U·m·V = D, the divisors are D's entries dᵢ >= 2, and the block is
    U·c·U⁻¹ at their rows and columns, flattened by rows with row i reduced
    mod dᵢ.  Requires c·im(m) ⊆ im(m); a violation signals a non-centralizing
    element.
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
    return tuple(diag[i] for i in torsion), tuple(a[i, j] % diag[i] for i in torsion for j in torsion)


@lru_cache(maxsize=None)
def fixed_count(divisors: tuple[int, ...], block: tuple[int, ...]) -> int:
    """Fixed points of the automorphism of ⊕ Z/dᵢ with this flattened block B, once per distinct block.

    The fixed points are the kernel of B - 1.  When every dᵢ is one prime p
    the group is the 𝔽_p-vector space 𝔽_p^k, so the count is
    p^(k - rank_𝔽p(B - 1)).  Otherwise the kernel's order is the index
    [Z^k : (B-1)Z^k + D Z^k], read off the Smith divisors of [B-1 | D].
    """
    k = len(divisors)
    if k == 0:
        return 1
    b_minus_1 = IntegerMatrix._of(k, k, tuple(block[i * k : i * k + k] for i in range(k))) - IntegerMatrix.identity(k)
    p = divisors[0]
    if divisors[-1] == p and all(p % q for q in range(2, isqrt(p) + 1)):
        return p ** (k - b_minus_1.rank_mod(p))
    d = IntegerMatrix._of(k, k, tuple(tuple(divisors[i] if i == j else 0 for j in range(k)) for i in range(k)))
    smith = smith_normal_form(b_minus_1.hstack(d)).divisors
    if len(smith) != k:
        raise LatticeError("lattice (B-1)Z^k + DZ^k must have full rank")
    return prod(smith)
