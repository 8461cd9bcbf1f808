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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .epoly import (
    DUAL,
    UV,
    BivariatePolynomial,
    SpaceDescriptor,
    factor_dimension,
    factor_e_character,
)
from .lattice_core import (
    FiniteAbelianGroup,
    IntegerMatrix,
    LatticeError,
    fixed_count,
    fixed_sublattice,
    induced_automorphism,
    solve_right_integer,
    torsion_of_cokernel,
)
from .root_data import RootDatum, dual_datum
from .weyl import DEFAULT_CAP, MatrixGroup, centralizer, conjugacy_classes, dual_group, generate_group


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
def _dual(m: IntegerMatrix) -> IntegerMatrix:
    """(m⁻¹)ᵀ, the action of m on the dual lattice, computed once per matrix."""
    return m.inverse_transpose()


@lru_cache(maxsize=None)
def _restricted_action(w: IntegerMatrix, c: IntegerMatrix) -> IntegerMatrix:
    """Matrix of c on the fixed sublattice Λ^w, in the fixed basis."""
    basis = _fixed_data(w)[0]
    return solve_right_integer(basis, c * basis)


@lru_cache(maxsize=None)
def _pi0_fixed_count(w: IntegerMatrix, c: IntegerMatrix) -> int:
    aut = induced_automorphism(c, w - IntegerMatrix.identity(w.rows))
    return fixed_count(aut)


def class_contribution(
    datum: RootDatum,
    space: SpaceDescriptor,
    w: IntegerMatrix,
    cent: MatrixGroup | tuple[IntegerMatrix, ...],
    class_size: int = 1,
) -> ClassContribution:
    """One conjugacy-class term: average over C(w), then shift by (uv)^F(w)."""
    cent_elements = tuple(cent)
    if not cent_elements:
        raise EngineError("centralizer must contain at least the identity")
    shift = fermionic_shift(w)
    if space.uses_dual and fermionic_shift(_dual(w)) != shift:
        raise EngineError("fermionic shift differs between the lattice and its dual")

    total = BivariatePolynomial.zero()
    for c in cent_elements:
        term = BivariatePolynomial.one()
        for kind, side in space.factors:
            w_side, c_side = (_dual(w), _dual(c)) if side == DUAL else (w, c)
            term = term * factor_e_character(kind, _restricted_action(w_side, c_side))
            d = factor_dimension(kind)
            if d:
                fix = _pi0_fixed_count(w_side, c_side)
                if fix != 1:
                    term = term.scale(fix**d)
        total = total + term
    average = total.scale(Fraction(1, len(cent_elements)))
    weighted = average * UV**shift
    return ClassContribution(
        representative=w,
        class_size=class_size,
        centralizer_order=len(cent_elements),
        shift=shift,
        pi0_divisors=_fixed_data(w)[1].divisors,
        average=average,
        weighted=weighted,
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
        class_contribution(datum, space, rep, cent.elements, class_size=size)
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
    group, table, cents = _group_data(datum, cap)
    dual = dual_group(group)
    rows = []
    for key, rep, cent in zip(table.keys, table.representatives, cents):
        dual_rep = dual.matrix(key)
        pi0_primal = _fixed_data(rep)[1]
        pi0_dual = _fixed_data(dual_rep)[1]
        orders_agree = pi0_primal.order == pi0_dual.order
        counts_agree = all(
            _pi0_fixed_count(rep, c) == _pi0_fixed_count(dual_rep, dual.matrix(k))
            for k, c in zip(cent.keys, cent.elements)
        )
        rows.append(
            DualityRow(rep, pi0_primal.divisors, pi0_dual.divisors, orders_agree, counts_agree)
        )
    equal = all(r.orders_agree and r.fixed_counts_agree for r in rows)
    return DualityReport(datum.label, tuple(rows), equal)
