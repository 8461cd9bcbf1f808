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

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .epoly import (
    DUAL,
    UV,
    BivariatePolynomial,
    SpaceDescriptor,
    char_poly,
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
from .weyl import DEFAULT_CAP, MatrixGroup, centralizer, conjugacy_classes, generate_group


class EngineError(LatticeError):
    """Internal consistency failure in the orbifold engine."""


@dataclass(frozen=True)
class FixedPointData:
    w: IntegerMatrix
    fixed_basis: IntegerMatrix  # columns span the saturated sublattice Λ^w
    pi0: FiniteAbelianGroup  # Tor(Λ/(w-1)Λ) = π₀(T^w)
    shift: int  # F(w) = rank(w - 1)


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
    1, which is this rank; see direct_shift_oracle for the angle computation.
    """
    if not w.is_square():
        raise EngineError("fermionic_shift requires a square matrix")
    return (w - IntegerMatrix.identity(w.rows)).rank()


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Integer coefficients of Φ_d(t), low degree first."""
    # Φ_d = (t^d - 1) / Π_{e | d, e < d} Φ_e
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly = _poly_exact_div(poly, list(_cyclotomic(e)))
    return tuple(poly)


def _poly_exact_div(p: list[int], q: list[int]) -> list[int]:
    """Exact division of integer polynomials (q monic), low degree first."""
    p = p[:]
    out = [0] * (len(p) - len(q) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = p[k + len(q) - 1]
        out[k] = c
        if c:
            for i, qc in enumerate(q):
                p[k + i] -= c * qc
    if any(p[: len(q) - 1]):
        raise EngineError("polynomial division was not exact")
    return out


def direct_shift_oracle(w: IntegerMatrix) -> int:
    """Fermionic shift from first principles: eigenvalue angles of w.

    Factors the characteristic polynomial into cyclotomics, sums the angles
    k/d ∈ [0,1) of each primitive d-th root of unity with exact Fractions,
    doubles the sum (the tangent space is two copies of the lattice for every
    supported family), and asserts integrality.
    """
    coeffs = list(char_poly(w))
    n = len(coeffs) - 1
    doubled = Fraction(0)
    d = 1
    limit = 4 * n * n + 30
    while len(coeffs) > 1:
        if d > limit:
            raise EngineError("matrix is not of finite order")
        phi = list(_cyclotomic(d))
        while len(coeffs) >= len(phi):
            try:
                quotient = _poly_exact_div(coeffs, phi)
            except EngineError:
                break
            coeffs = quotient
            angle_sum = sum((Fraction(k, d) for k in range(1, d) if gcd(k, d) == 1), Fraction(0))
            doubled += 2 * angle_sum
        d += 1
    if doubled.denominator != 1:
        raise EngineError("eigenvalue angles do not sum to an integer")
    return int(doubled)


@lru_cache(maxsize=None)
def _fixed_data(w: IntegerMatrix) -> tuple[IntegerMatrix, FiniteAbelianGroup, int]:
    f = w - IntegerMatrix.identity(w.rows)
    return fixed_sublattice(w), torsion_of_cokernel(f), f.rank()


def fixed_point_data(datum: RootDatum, w: IntegerMatrix) -> FixedPointData:
    """Fixed sublattice, component group, and fermionic shift of w on Λ."""
    if w.rows != datum.rank or w.cols != datum.rank:
        raise EngineError("matrix size does not match the datum rank")
    basis, pi0, shift = _fixed_data(w)
    return FixedPointData(w=w, fixed_basis=basis, pi0=pi0, shift=shift)


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


@lru_cache(maxsize=None)
def _group_data(datum: RootDatum, cap: int):
    group = generate_group(datum.generators, cap)
    table = conjugacy_classes(group)
    cents = tuple(centralizer(group, rep) for rep in table.representatives)
    return group, table, cents


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
    group, table, cents = _group_data(datum, cap)
    if any(len(cent.elements) * size != group.order for size, cent in zip(table.sizes, cents)):
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
    """Compare E_orb on (Λ, W) and (Λ̂, Ŵ), matching classes by w ↔ (w⁻¹)ᵀ."""
    primal = orbifold_e_polynomial(datum, space, cap)
    dual = orbifold_e_polynomial(dual_datum(datum), space, cap)
    if datum.rank == 0:
        pair = MirrorPair(0, 0, BivariatePolynomial.zero())
        return MirrorReport(primal, dual, (pair,), True, True)
    _, dual_table, _ = _group_data(dual_datum(datum), cap)
    pairs = []
    seen_dual = set()
    for i, contribution in enumerate(primal.contributions):
        dual_rep = _dual(contribution.representative)
        j = dual_table.class_of(dual_rep)
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
    rows = []
    for rep, cent in zip(table.representatives, cents):
        dual_rep = _dual(rep)
        pi0_primal = _fixed_data(rep)[1]
        pi0_dual = _fixed_data(dual_rep)[1]
        orders_agree = pi0_primal.order == pi0_dual.order
        counts_agree = all(
            _pi0_fixed_count(rep, c) == _pi0_fixed_count(dual_rep, _dual(c))
            for c in cent.elements
        )
        rows.append(
            DualityRow(rep, pi0_primal.divisors, pi0_dual.divisors, orders_agree, counts_agree)
        )
    equal = all(r.orders_agree and r.fixed_counts_agree for r in rows)
    return DualityReport(datum.label, tuple(rows), equal)
