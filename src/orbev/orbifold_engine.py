"""Orbifold E-polynomial assembly.

E_orb(X/W) = Σ_{classes {w}} bar E_{C(w)}(X^w) · (uv)^{F(w)}, where the bar is
the average over the centralizer C(w) (dimension of invariants), F(w) is the
fermionic shift, and X is described by a SpaceDescriptor whose factors are
tensored with the primal lattice Λ or its dual Λ̂.

Per centralizer element c, a factor contributes Fix(c, π₀(T^w))^d(kind) times
the E-character of c restricted to the factor's fixed sublattice Λ^w: the
component group of (A ⊗ Λ)^w is π₀(T^w)^d(kind) with π₀(T^w) = Tor(Λ/(w-1)Λ),
and components fixed by c contribute the identity-component character because
translations act trivially on cohomology.

Key histogram.  A factor's E-character of c depends only on the
characteristic polynomial of c on Λ^w, so the average needs only a histogram
of keys: per lattice side the space uses, the characteristic polynomial of c
on that side's Λ^w and the π₀ fixed count, with the number of elements of
C(w) that have the key.  A space's average is one E-character product per
distinct key, weighted by the key's count and fixed counts, divided once by
|C(w)|, and (uv)^F(w) is an exponent shift.  The per-element data a key is
made of are cached per matrix, so a later space of the same datum in one
process rebuilds its histogram from cache hits.  The dual-side matrices
(c⁻¹)ᵀ are read from the group's orbit action by key.

Per-w projections.  The lattice work on an element c is a projection that is
built once per w from the cached Smith form U·(w - 1)·V = D and then applied
to every c.  On π₀(T^w), c acts by the block U_T·c·U⁻¹_T, with U_T the rows
of U and U⁻¹_T the columns of U⁻¹ at the divisors dᵢ ≥ 2 and row i reduced
mod dᵢ; its fixed count is 1 when π₀(T^w) is trivial and is otherwise
computed once per distinct block.  On Λ^w, with B the columns of V at the
zero divisors and P the same rows of V⁻¹ (so P·B = 1), c acts by P·(c·B).
Both need c to commute with w, which is checked once per class on keys; a
non-commuting element raises NonCentralizingError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import epoly
from .epoly import (
    DUAL,
    BivariatePolynomial,
    SpaceDescriptor,
    factor_dimension,
    factor_e_character,
)
from .lattice_core import (
    FiniteAbelianGroup,
    GroupAutomorphism,
    IntegerMatrix,
    LatticeError,
    NonCentralizingError,
    fixed_count,
    fixed_sublattice,
    smith_normal_form,
    torsion_of_cokernel,
)
# No longer called here; imported because perfbench's tracer wraps them in this module.
from .lattice_core import induced_automorphism, solve_right_integer
from .root_data import RootDatum, dual_datum
from .weyl import DEFAULT_CAP, Key, MatrixGroup, centralizer, conjugacy_classes, dual_group, generate_group


class EngineError(LatticeError):
    """Internal consistency failure in the orbifold engine."""


@dataclass(frozen=True)
class ClassContribution:
    representative: IntegerMatrix
    class_size: int
    centralizer_order: int
    shift: int
    pi0_divisors: tuple[int, ...]
    average: BivariatePolynomial  # bar E_{C(w)}(X^w)
    weighted: BivariatePolynomial  # average · (uv)^{F(w)}


@dataclass(frozen=True)
class OrbifoldReport:
    datum_label: str
    group_order: int
    contributions: tuple[ClassContribution, ...]
    total: BivariatePolynomial


@dataclass(frozen=True)
class MirrorPair:
    primal_class: int
    dual_class: int
    difference: BivariatePolynomial


@dataclass(frozen=True)
class MirrorReport:
    primal: OrbifoldReport
    dual: OrbifoldReport
    pairs: tuple[MirrorPair, ...]
    term_by_term: bool
    equal: bool


@dataclass(frozen=True)
class DualityRow:
    representative: IntegerMatrix
    pi0_primal: tuple[int, ...]
    pi0_dual: tuple[int, ...]
    orders_agree: bool
    fixed_counts_agree: bool


@dataclass(frozen=True)
class DualityReport:
    datum_label: str
    rows: tuple[DualityRow, ...]
    equal: bool


def fermionic_shift(w: IntegerMatrix) -> int:
    """F(w) = rank(w - 1) over Q.

    For the doubled tangent spaces of the supported space families, the sum of
    the eigenvalue angles of w equals the number of eigenvalues different from
    1, which is this rank.  The tests check it against a direct sum of the
    eigenvalue angles.
    """
    if not w.is_square():
        raise EngineError("fermionic_shift requires a square matrix")
    return (w - IntegerMatrix.identity(w.rows)).rank()


@lru_cache(maxsize=None)
def _fixed_data(w: IntegerMatrix) -> tuple[IntegerMatrix, FiniteAbelianGroup]:
    """Basis of the fixed sublattice Λ^w and the component group π₀(T^w)."""
    return fixed_sublattice(w), torsion_of_cokernel(w - IntegerMatrix.identity(w.rows))


@lru_cache(maxsize=None)
def _fixed_projection(w: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix]:
    """The fixed basis B of Λ^w and the integer P with P·B = 1.

    B is the columns of V at the zero divisors of U·(w - 1)·V = D, and P the
    same rows of V⁻¹.  For c commuting with w, c·B = B·X, so X = P·(c·B).
    """
    basis = _fixed_data(w)[0]
    snf = smith_normal_form(w - IntegerMatrix.identity(w.rows))
    inverse = snf.V.inverse_unimodular().entries
    zero = [j for j in range(w.rows) if snf.D[j, j] == 0]
    projection = IntegerMatrix._of(len(zero), w.rows, tuple(inverse[j] for j in zero))
    if not (projection * basis).is_identity():
        raise EngineError("fixed basis is not the zero-divisor columns of the Smith transform")
    return basis, projection


@lru_cache(maxsize=None)
def _pi0_projection(w: IntegerMatrix) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """π₀(T^w)'s divisors dᵢ, the rows U_T of U at them, and the columns U⁻¹_T of U⁻¹.

    c acts on π₀(T^w) = Tor(Λ/(w - 1)Λ) by the block U_T·c·U⁻¹_T with row i
    taken mod dᵢ; this is induced_automorphism's block, read without the rest
    of U·c·U⁻¹.
    """
    divisors = _fixed_data(w)[1].divisors
    if not divisors:
        return divisors, (), ()
    snf = smith_normal_form(w - IntegerMatrix.identity(w.rows))
    torsion = [i for i in range(w.rows) if snf.D[i, i] >= 2]
    return divisors, tuple(snf.U.entries[i] for i in torsion), tuple(snf.U_inverse.column(j) for j in torsion)


@lru_cache(maxsize=None)
def _restricted_action(w: IntegerMatrix, c: IntegerMatrix) -> IntegerMatrix:
    """Matrix of c on the fixed sublattice Λ^w, in the fixed basis; c must commute with w."""
    basis, projection = _fixed_projection(w)
    return projection * (c * basis)


@lru_cache(maxsize=None)
def _pi0_fixed_count(w: IntegerMatrix, c: IntegerMatrix) -> int:
    """Fix(c, π₀(T^w)) for c commuting with w: 1 when π₀(T^w) is trivial, else one memo per block."""
    divisors = _pi0_projection(w)[0]
    return _block_fixed_count(divisors, _pi0_block(w, c)) if divisors else 1


def _pi0_block(w: IntegerMatrix, c: IntegerMatrix) -> tuple[tuple[int, ...], ...]:
    """The entries of c on π₀(T^w): U_T·c·U⁻¹_T with row i mod dᵢ."""
    divisors, rows, columns = _pi0_projection(w)
    image = [tuple(sum(a * b for a, b in zip(row, col)) for row in c.entries) for col in columns]
    return tuple(tuple(sum(a * b for a, b in zip(row, v)) % d for v in image) for row, d in zip(rows, divisors))


@lru_cache(maxsize=None)
def _block_fixed_count(divisors: tuple[int, ...], block: tuple[tuple[int, ...], ...]) -> int:
    """Fixed points of the automorphism of ⊕ Z/dᵢ with this block, once per distinct block."""
    k = len(divisors)
    return fixed_count(GroupAutomorphism(FiniteAbelianGroup(divisors), IntegerMatrix._of(k, k, block)))


def _require_centralizer(cent: MatrixGroup, key: Key) -> None:
    """NonCentralizingError unless every element of cent commutes with the element w that key names.

    c·w = w·c is compared on the first r points, which are the columns.  On
    Λ this gives c·Λ^w ⊆ Λ^w and c·im(w - 1) ⊆ im(w - 1), on Λ̂ the same for
    (c⁻¹)ᵀ and (w⁻¹)ᵀ, which the per-w projections need.
    """
    points = range(cent.action.rank)
    for c in cent.keys:
        for i in points:
            if c[key[i]] != key[c[i]]:
                raise NonCentralizingError("centralizer element does not commute with w")


def _class_histogram(lattices: list[tuple[IntegerMatrix, tuple[IntegerMatrix, ...]]]):
    """The key histogram of C(w) on the lattice sides in `lattices`.

    Each side is (w, the elements of C(w)) as matrices on that side's
    lattice, with the elements in one order on every side.  An element's key
    is, per side, the characteristic polynomial of its action on Λ^w and its
    π₀ fixed count.  Returns one (restricted actions, fixed counts, count)
    row per distinct key, with the restricted actions of the first element
    that has it.
    """
    rows: dict[tuple, list] = {}
    for cs in zip(*(elements for _, elements in lattices)):
        restricted = tuple(_restricted_action(w, c) for (w, _), c in zip(lattices, cs))
        fixes = tuple(_pi0_fixed_count(w, c) for (w, _), c in zip(lattices, cs))
        # Looked up in epoly at call time, so a wrapper on epoly.char_poly sees the call.
        key = (tuple(map(epoly.char_poly, restricted)), fixes)
        row = rows.get(key)
        if row is None:
            rows[key] = [restricted, fixes, 1]
        else:
            row[2] += 1
    return rows.values()


def class_contribution(
    datum: RootDatum,
    space: SpaceDescriptor,
    w: IntegerMatrix,
    cent: MatrixGroup,
    class_size: int = 1,
) -> ClassContribution:
    """One conjugacy-class term: average over C(w), then shift by (uv)^F(w)."""
    order = cent.order
    if not order:
        raise EngineError("centralizer must contain at least the identity")
    key = cent.key(w)
    _require_centralizer(cent, key)
    shift = fermionic_shift(w)
    lattices = [(w, cent.elements)]
    if space.uses_dual:
        dual_w = cent.dual_matrix(key)
        if fermionic_shift(dual_w) != shift:
            raise EngineError("fermionic shift differs between the lattice and its dual")
        lattices.append((dual_w, tuple(map(cent.dual_matrix, cent.keys))))

    total: dict[tuple[int, int], int] = {}
    for restricted, fixes, count in _class_histogram(lattices):
        product, weight = None, count
        for kind, side in space.factors:
            i = 1 if side == DUAL else 0
            character = factor_e_character(kind, restricted[i])
            product = character if product is None else product * character
            weight *= fixes[i] ** factor_dimension(kind)
        for term, c in product.coeffs.items():
            total[term] = total.get(term, 0) + weight * c
    average = BivariatePolynomial({term: Fraction(c, order) for term, c in total.items()})
    return ClassContribution(
        representative=w,
        class_size=class_size,
        centralizer_order=order,
        shift=shift,
        pi0_divisors=_fixed_data(w)[1].divisors,
        average=average,
        weighted=average.times_monomial(shift, shift),
    )


def _class_data(group: MatrixGroup):
    table = conjugacy_classes(group)
    cents = tuple(centralizer(group, rep) for rep in table.representatives)
    return group, table, cents


@lru_cache(maxsize=None)
def _group_data(datum: RootDatum, cap: int):
    return _class_data(generate_group(datum.generators, cap))


@lru_cache(maxsize=None)
def _dual_group_data(datum: RootDatum, cap: int):
    """Group data of dual_datum(datum), read off the primal group's keys."""
    return _class_data(dual_group(_group_data(datum, cap)[0]))


def _rank_zero_report(datum: RootDatum) -> OrbifoldReport:
    one = BivariatePolynomial.one()
    contribution = ClassContribution(
        representative=IntegerMatrix.identity(0),
        class_size=1,
        centralizer_order=1,
        shift=0,
        pi0_divisors=(),
        average=one,
        weighted=one,
    )
    return OrbifoldReport(datum.label, 1, (contribution,), one)


@lru_cache(maxsize=None)
def orbifold_e_polynomial(
    datum: RootDatum, space: SpaceDescriptor, cap: int = DEFAULT_CAP
) -> OrbifoldReport:
    """Sum of weighted class contributions; total must have integer coefficients."""
    if datum.rank == 0:
        return _rank_zero_report(datum)
    return _report(datum, space, _group_data(datum, cap))


def _report(datum: RootDatum, space: SpaceDescriptor, group_data) -> OrbifoldReport:
    group, table, cents = group_data
    if any(cent.order * size != group.order for size, cent in zip(table.sizes, cents)):
        raise EngineError("orbit-stabilizer mismatch in class table")
    contributions = [
        class_contribution(datum, space, rep, cent, class_size=size)
        for rep, size, cent in zip(table.representatives, table.sizes, cents)
    ]
    total = BivariatePolynomial.zero()
    for contribution in contributions:
        total = total + contribution.weighted
    if not total.has_integer_coefficients():
        raise EngineError("orbifold E-polynomial has non-integer coefficients")
    return OrbifoldReport(datum.label, group.order, tuple(contributions), total)


@lru_cache(maxsize=None)
def mirror_check(datum: RootDatum, space: SpaceDescriptor, cap: int = DEFAULT_CAP) -> MirrorReport:
    """Compare E_orb on (Λ, W) and (Λ̂, Ŵ), matching classes by w ↔ (w⁻¹)ᵀ.

    A key names w in W and (w⁻¹)ᵀ in Ŵ, so the matching is a lookup of each
    primal representative's key in the dual class table.
    """
    primal = orbifold_e_polynomial(datum, space, cap)
    if datum.rank == 0:
        dual = orbifold_e_polynomial(dual_datum(datum), space, cap)
        pair = MirrorPair(0, 0, BivariatePolynomial.zero())
        return MirrorReport(primal, dual, (pair,), True, True)
    primal_table = _group_data(datum, cap)[1]
    dual_data = _dual_group_data(datum, cap)
    dual = _report(dual_datum(datum), space, dual_data)
    dual_table = dual_data[1]
    pairs = []
    seen_dual = set()
    for i, (key, contribution) in enumerate(zip(primal_table.keys, primal.contributions)):
        j = dual_table.class_index[key]
        seen_dual.add(j)
        difference = contribution.weighted - dual.contributions[j].weighted
        pairs.append(MirrorPair(i, j, difference))
    if len(seen_dual) != len(dual.contributions):
        raise EngineError("class matching w ↔ (w⁻¹)ᵀ is not a bijection")
    term_by_term = all(p.difference.is_zero() for p in pairs)
    equal = primal.total == dual.total
    return MirrorReport(primal, dual, tuple(pairs), term_by_term, equal)


@lru_cache(maxsize=None)
def duality_check(datum: RootDatum, cap: int = DEFAULT_CAP) -> DualityReport:
    """π₀ duality: torsion orders and centralizer fixed counts agree on Λ and Λ̂."""
    if datum.rank == 0:
        return DualityReport(datum.label, (), True)
    _, table, cents = _group_data(datum, cap)
    rows = tuple(_duality_row(cent, key) for key, cent in zip(table.keys, cents))
    equal = all(r.orders_agree and r.fixed_counts_agree for r in rows)
    return DualityReport(datum.label, rows, equal)


def _duality_row(cent: MatrixGroup, key: Key) -> DualityRow:
    """The class of the element w that key names, with cent = C(w): w on Λ against (w⁻¹)ᵀ on Λ̂."""
    _require_centralizer(cent, key)
    rep, dual_rep = cent.matrix(key), cent.dual_matrix(key)
    pi0_primal = _fixed_data(rep)[1]
    pi0_dual = _fixed_data(dual_rep)[1]
    counts_agree = all(
        _pi0_fixed_count(rep, cent.matrix(k)) == _pi0_fixed_count(dual_rep, cent.dual_matrix(k)) for k in cent.keys
    )
    return DualityRow(rep, pi0_primal.divisors, pi0_dual.divisors, pi0_primal.order == pi0_dual.order, counts_agree)
