"""Coweight lattices with Weyl actions, invariant forms, and Langlands duals.

A RootDatum stores a lattice Λ through an integral basis in a fixed rational
ambient space (an integer matrix of scaled coordinates plus one common
denominator), the Weyl generators as integer matrices acting in that basis,
and a W-invariant positive definite rational form on the basis.  Every
downstream computation uses only the basis representation; the ambient
coordinates exist so that Λ and its dual Λ̂ = Hom(Λ, Z) live in one space and
can be compared.  A RootDatum is a named tuple, immutable and equal and hashed
by its fields, so the built-in constructors and `dual_datum` are memoized and
their callers share one instance per argument; `d._replace(field=value)` gives
a modified copy, which `validate()` checks.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from pathlib import Path
from typing import NamedTuple, Sequence

from .lattice_core import (
    IntegerMatrix,
    InexactSolveError,
    LatticeError,
    _bareiss,
    column_span_basis,
    solve_exact,
    solve_right_integer,
)

FractionMatrix = tuple[tuple[Fraction, ...], ...]


class DatumError(LatticeError):
    """A root datum violates one of its invariants."""


class DatumFormatError(DatumError):
    """A datum file is malformed."""


class RootDatum(NamedTuple):
    rank: int
    basis: IntegerMatrix  # ambient_dim x rank; true basis vectors are columns / denominator
    denominator: int
    gram: FractionMatrix  # rank x rank, in basis coordinates
    generators: tuple[IntegerMatrix, ...]  # rank x rank, acting in basis coordinates
    label: str

    @property
    def ambient_dim(self) -> int:
        return self.basis.rows

    def validate(self) -> None:
        _validate_datum(self)


def _fractions(rows: Sequence[Sequence[Fraction | int]]) -> FractionMatrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _scaled_gram(gram: FractionMatrix) -> tuple[IntegerMatrix, int]:
    """(L·gram, L) with L the lcm of the denominators, so that L·gram is integral; gram must be square."""
    scale = lcm(1, *(x.denominator for row in gram for x in row))
    entries = tuple(tuple(x.numerator * (scale // x.denominator) for x in row) for row in gram)
    return IntegerMatrix._of(len(gram), len(gram), entries), scale


def _gram_inverse(gram: FractionMatrix) -> FractionMatrix:
    """gram⁻¹ = L·(L·gram)⁻¹."""
    scaled, scale = _scaled_gram(gram)
    try:
        inverse = solve_exact(scaled, IntegerMatrix.identity(len(gram)))
    except InexactSolveError:
        raise DatumError("gram matrix is singular") from None
    return tuple(tuple(x * scale for x in row) for row in inverse)


def _is_positive_definite(scaled: IntegerMatrix) -> bool:
    """Whether the gram form with scaled gram L·G is positive definite.

    Sylvester: all leading principal minors positive; scaling by L > 0 keeps
    their signs.  They are the pivots of one fraction-free pass with no row
    exchange (Bareiss 1968), which stops at the first that is not positive.
    """
    return len(_bareiss(scaled.entries, scaled.rows, reduce_above=False, exchange=False)[1]) == scaled.rows


def _preserves_form(g: IntegerMatrix, scaled: IntegerMatrix) -> bool:
    """gᵀ·G·g = G, checked as gᵀ·(L·G)·g = L·G in integers for the scaled gram L·G, L > 0."""
    return g.transpose() * scaled * g == scaled


def _validate_datum(d: RootDatum) -> None:
    if d.rank < 0:
        raise DatumError("rank must be nonnegative")
    if d.denominator < 1:
        raise DatumError("denominator must be a positive integer")
    if d.basis.cols != d.rank:
        raise DatumError("basis must have one column per lattice rank")
    if d.rank > 0 and d.basis.rank() != d.rank:
        raise DatumError("basis columns are linearly dependent")
    if len(d.gram) != d.rank or any(len(row) != d.rank for row in d.gram):
        raise DatumError("gram matrix must be rank x rank")
    scaled = _scaled_gram(d.gram)[0]
    if tuple(zip(*scaled.entries)) != scaled.entries:
        raise DatumError("gram matrix is not symmetric")
    if not _is_positive_definite(scaled):
        raise DatumError("gram matrix is not positive definite")
    for idx, g in enumerate(d.generators, start=1):
        if g.rows != d.rank or g.cols != d.rank:
            raise DatumError(f"generator {idx} is not a rank x rank matrix")
        if not g.is_unimodular():
            raise DatumError(f"generator {idx} is not unimodular")
        if not _preserves_form(g, scaled):
            raise DatumError(f"generator {idx} does not preserve the gram form")


def _normalized_basis(basis: IntegerMatrix, denominator: int) -> tuple[IntegerMatrix, int]:
    """Reduce (basis, denominator) to lowest terms for exact double duality."""
    content = 0
    for row in basis.entries:
        for x in row:
            content = gcd(content, x)
    g = gcd(content, denominator)
    if g > 1:
        basis = IntegerMatrix.from_rows(
            [[x // g for x in row] for row in basis.entries], cols=basis.cols
        )
        denominator //= g
    return basis, denominator


def _make_datum(
    basis: IntegerMatrix,
    denominator: int,
    gram: FractionMatrix,
    generators: Sequence[IntegerMatrix],
    label: str,
) -> RootDatum:
    basis, denominator = _normalized_basis(basis, denominator)
    d = RootDatum(
        rank=basis.cols,
        basis=basis,
        denominator=denominator,
        gram=gram,
        generators=tuple(generators),
        label=label,
    )
    d.validate()
    return d


def _gram_from_ambient(basis: IntegerMatrix, denominator: int) -> FractionMatrix:
    """Standard Euclidean form of the ambient space, restricted to the basis."""
    bt_b = basis.transpose() * basis
    den2 = denominator * denominator
    return tuple(
        tuple(Fraction(bt_b[i, j], den2) for j in range(basis.cols)) for i in range(basis.cols)
    )


def _restrict_ambient_actions(basis: IntegerMatrix, actions: Sequence[IntegerMatrix]) -> tuple[IntegerMatrix, ...]:
    """Matrices of ambient lattice automorphisms in the given basis coordinates, from one solve.

    B·X = [g₁·B | g₂·B | …] is solved once and X is cut into r×r blocks.  The
    pivots are taken in B's columns only, so each block is the X that
    `solve_right_integer(B, g·B)` gives alone.
    """
    r = basis.cols
    rows = zip(*((g * basis).entries for g in actions))
    images = IntegerMatrix._of(basis.rows, r * len(actions), tuple(sum(row, ()) for row in rows))
    try:
        x = solve_right_integer(basis, images).entries
    except InexactSolveError as exc:
        raise DatumError("ambient action does not preserve the lattice") from exc
    return tuple(IntegerMatrix._of(r, r, tuple(row[k : k + r] for row in x)) for k in range(0, r * len(actions), r))


def _permutation_matrix(image: Sequence[int]) -> IntegerMatrix:
    """The matrix sending basis vector j to basis vector image[j]."""
    n = len(image)
    return IntegerMatrix._of(n, n, tuple(tuple(int(image[j] == i) for j in range(n)) for i in range(n)))


def _adjacent_swap(n: int, i: int) -> IntegerMatrix:
    image = list(range(n))
    image[i], image[i + 1] = image[i + 1], image[i]
    return _permutation_matrix(image)


@lru_cache(maxsize=None)
def sl_quotient_datum(n: int, m: int) -> RootDatum:
    """Coweight datum of SL(n)/Z_m: Λ = {x ∈ Z^n + Z·(1/m,…,1/m) : Σx_j = 0}.

    S_n permutes the ambient coordinates; the gram form is the restriction of
    the standard form on Q^n.
    """
    if n < 2:
        raise DatumError("sl_quotient_datum requires n >= 2")
    if m < 1 or n % m != 0:
        raise DatumError(f"m = {m} does not divide n = {n}")
    # Scaled generators of m·Λ inside Z^n.
    cols = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        cols[i][i] = m
        cols[i][i + 1] = -m
    cols[n - 1] = [1] * n
    cols[n - 1][n - 1] = 1 - n
    basis = column_span_basis(IntegerMatrix.from_columns(cols, rows=n))
    if basis.cols != n - 1:
        raise DatumError("the root lattice basis must have n - 1 columns")
    generators = _restrict_ambient_actions(basis, [_adjacent_swap(n, i) for i in range(n - 1)])
    label = f"SL({n})" if m == 1 else f"SL({n})/Z{m}"
    return _make_datum(basis, m, _gram_from_ambient(basis, m), generators, label)


_FORMS = {"simply_connected": "sc", "adjoint": "ad"}


@lru_cache(maxsize=None)
def classical_datum(family: str, n: int, form: str) -> RootDatum:
    """Coweight data for types B, C, D in ambient Z^n coordinates.

    Bourbaki conventions: B_n short roots e_i, C_n long roots 2e_i, D_n roots
    ±e_i±e_j.  "simply_connected" means the coroot lattice, "adjoint" the full
    coweight lattice (dual of the root lattice).  W consists of all signed
    permutations for B and C and of evenly-signed permutations for D.
    """
    if family not in ("B", "C", "D"):
        raise DatumError(f"unknown classical family {family!r}")
    if form not in _FORMS:
        raise DatumError(f"unknown form {form!r}; use simply_connected or adjoint")
    if family in ("B", "C") and n < 2:
        raise DatumError(f"type {family} requires rank >= 2")
    if family == "D" and n < 3:
        raise DatumError("type D requires rank >= 3")

    def even_sum_basis() -> tuple[IntegerMatrix, int]:
        cols = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            cols[i][i] = 1
            cols[i][i + 1] = -1
        cols[n - 1][n - 2] = 1
        cols[n - 1][n - 1] = 1
        return IntegerMatrix.from_columns(cols, rows=n), 1

    def standard_basis() -> tuple[IntegerMatrix, int]:
        return IntegerMatrix.identity(n), 1

    def half_sum_basis() -> tuple[IntegerMatrix, int]:
        cols = [[2 if i == j else 0 for i in range(n)] for j in range(n)] + [[1] * n]
        return column_span_basis(IntegerMatrix.from_columns(cols, rows=n)), 2

    lattice = {
        ("B", "simply_connected"): even_sum_basis,
        ("B", "adjoint"): standard_basis,
        ("C", "simply_connected"): standard_basis,
        ("C", "adjoint"): half_sum_basis,
        ("D", "simply_connected"): even_sum_basis,
        ("D", "adjoint"): half_sum_basis,
    }[(family, form)]
    basis, denominator = lattice()

    ambient_gens = [_adjacent_swap(n, i) for i in range(n - 1)]
    if family in ("B", "C"):
        flip = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        flip[n - 1][n - 1] = -1
        ambient_gens.append(IntegerMatrix.from_rows(flip, cols=n))
    else:
        # Reflection in e_{n-1} + e_n: swap the last two coordinates, negated.
        refl = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        refl[n - 2][n - 2] = refl[n - 1][n - 1] = 0
        refl[n - 2][n - 1] = refl[n - 1][n - 2] = -1
        ambient_gens.append(IntegerMatrix.from_rows(refl, cols=n))

    generators = _restrict_ambient_actions(basis, ambient_gens)
    label = f"{family}{n}_{_FORMS[form]}"
    return _make_datum(basis, denominator, _gram_from_ambient(basis, denominator), generators, label)


@lru_cache(maxsize=None)
def dual_datum(d: RootDatum) -> RootDatum:
    """Langlands-dual datum: Λ̂ = Hom(Λ, Z) realized via the gram pairing.

    The dual basis vectors are b̂_j = Σ_k (gram⁻¹)_{kj} b_k, the generators are
    replaced by their inverse transposes, and the gram form by its inverse.
    """
    if d.rank == 0:
        return d._replace(label=_dual_label(d.label))
    ginv = _gram_inverse(d.gram)
    # Ambient coordinates of the dual basis: (basis/denominator) · gram⁻¹.
    frac_cols = [
        [
            sum(Fraction(d.basis[i, k], d.denominator) * ginv[k][j] for k in range(d.rank))
            for i in range(d.ambient_dim)
        ]
        for j in range(d.rank)
    ]
    denominator = 1
    for col in frac_cols:
        for x in col:
            denominator = lcm(denominator, x.denominator)
    basis = IntegerMatrix.from_columns(
        [[int(x * denominator) for x in col] for col in frac_cols], rows=d.ambient_dim
    )
    generators = tuple(g.inverse_transpose() for g in d.generators)
    return _make_datum(basis, denominator, ginv, generators, _dual_label(d.label))


def _dual_label(label: str) -> str:
    if label.startswith("dual(") and label.endswith(")"):
        return label[len("dual(") : -1]
    return f"dual({label})"


# --- datum file format -------------------------------------------------------
#
# Line-oriented UTF-8 text; '#' starts a comment; blank lines are ignored.
#   rank N
#   denominator N          (optional, default 1)
#   label NAME             (optional, default: file stem)
#   basis                  (then `rank` rows of ambient integer coordinates,
#                           one basis vector per row, scaled by denominator)
#   gram                   (then `rank` rows of `rank` rationals, `p/q` or `p`)
#   generators             (then any number of rank x rank integer blocks,
#                           one matrix row per line)

_KEYWORDS = {"rank", "denominator", "label", "basis", "gram", "generators"}


_GRAM_ENTRY = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _gram_entry(tok: str) -> Fraction:
    """`p` or `p/q` in decimal digits; ValueError for any other form, before any number is built."""
    if _GRAM_ENTRY.fullmatch(tok) is None:
        raise ValueError(f"gram entry {tok!r} is not p or p/q")
    return Fraction(tok)


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def custom_datum(path: str | Path) -> RootDatum:
    """Load and validate a RootDatum from a datum file, read on every call and parsed as `parse_datum_text` says."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise DatumFormatError(f"datum file is not UTF-8 text: {path}") from None
    return parse_datum_text(text, default_label=path.stem)


@lru_cache(maxsize=None)
def parse_datum_text(text: str, default_label: str = "custom") -> RootDatum:
    """Parse and validate a datum text, once per distinct (text, default_label) and process.

    The datum is shared by later calls; a malformed text keeps nothing, so it raises on every call.
    """
    lines = _content_lines(text)
    rank: int | None = None
    denominator = 1
    label = default_label
    basis_rows: list[list[int]] | None = None
    gram_rows: list[list[Fraction]] | None = None
    generator_rows: list[list[int]] = []
    seen: set[str] = set()
    pos = 0

    def parse_int_row(line: str, what: str) -> list[int]:
        try:
            return [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise DatumFormatError(f"malformed {what} row: {line!r}") from exc

    while pos < len(lines):
        head, *rest = lines[pos].split(maxsplit=1)  # a keyword, then its value after any whitespace
        rest = "".join(rest)
        if head not in _KEYWORDS:
            raise DatumFormatError(f"unexpected line: {lines[pos]!r}")
        if head in seen:
            raise DatumFormatError(f"{head} appears twice")
        if head != "generators":  # generator blocks may come in several sections
            seen.add(head)
        pos += 1
        if head == "rank":
            try:
                rank = int(rest)
            except ValueError as exc:
                raise DatumFormatError(f"malformed rank: {rest!r}") from exc
        elif head == "denominator":
            try:
                denominator = int(rest)
            except ValueError as exc:
                raise DatumFormatError(f"malformed denominator: {rest!r}") from exc
        elif head == "label":
            if not rest.strip():
                raise DatumFormatError("label line is missing a value")
            label = rest.strip()
        else:
            if rank is None:
                raise DatumFormatError(f"{head} section appears before rank")
            if head == "basis":
                basis_rows = []
                for _ in range(rank):
                    if pos >= len(lines):
                        raise DatumFormatError("basis section ends early")
                    basis_rows.append(parse_int_row(lines[pos], "basis"))
                    pos += 1
                widths = {len(r) for r in basis_rows}
                if len(widths) > 1:
                    raise DatumFormatError("basis rows have inconsistent lengths")
            elif head == "gram":
                gram_rows = []
                for _ in range(rank):
                    if pos >= len(lines):
                        raise DatumFormatError("gram section ends early")
                    try:
                        gram_rows.append([_gram_entry(tok) for tok in lines[pos].split()])
                    except (ValueError, ZeroDivisionError) as exc:
                        raise DatumFormatError(f"malformed gram row: {lines[pos]!r}") from exc
                    pos += 1
            else:  # generators
                while pos < len(lines) and lines[pos].split(maxsplit=1)[0] not in _KEYWORDS:
                    generator_rows.append(parse_int_row(lines[pos], "generator"))
                    pos += 1

    if rank is None:
        raise DatumFormatError("missing rank")
    if basis_rows is None:
        raise DatumFormatError("missing basis section")
    if gram_rows is None:
        raise DatumFormatError("missing gram section")
    if any(len(r) != rank for r in gram_rows):
        raise DatumFormatError("gram rows must each have `rank` entries")
    if rank == 0 and generator_rows:
        raise DatumFormatError("generator rows given for a rank 0 datum")
    if len(generator_rows) % max(rank, 1) != 0:
        raise DatumFormatError("generators section is not a whole number of rank-row blocks")

    # Basis vectors are file rows; internally they are columns.
    basis = IntegerMatrix.from_rows(basis_rows, cols=len(basis_rows[0]) if basis_rows else 0).transpose()
    generators = []
    for k in range(0, len(generator_rows), max(rank, 1)):
        block = generator_rows[k : k + rank]
        if any(len(r) != rank for r in block):
            raise DatumFormatError(f"generator {k // max(rank, 1) + 1} is not a rank x rank matrix")
        generators.append(IntegerMatrix.from_rows(block, cols=rank))

    d = RootDatum(
        rank=rank,
        basis=basis,
        denominator=denominator,
        gram=_fractions(gram_rows),
        generators=tuple(generators),
        label=label,
    )
    d.validate()
    return d
