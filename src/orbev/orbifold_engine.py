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
characteristic polynomial of c on Λ^w, which is the same on the dual side,
so the average needs only a histogram of keys: that polynomial and the π₀
fixed count per lattice side the space uses, with the number of elements of
C(w) that have the key.  C(w) is walked once per class and side set, on its
permutation keys with no matrix per element, and the histogram serves every
later space of the datum in the process.  A space's average is one
E-character product per distinct polynomial, weighted by the counts and
fixed counts, divided once by |C(w)|, and (uv)^F(w) is an exponent shift.

Per-w tables.  The power traces tr(c^k | Λ^w) are r lookups each in a table
built from Σ_j w^j, and Newton's identities give the polynomial over ℤ.  On
π₀(T^w), c acts by the block U_T·c·U⁻¹_T, with U·(w - 1)·V = D the cached
Smith form, U_T the rows of U and U⁻¹_T the columns of U⁻¹ at the divisors
dᵢ ≥ 2 and row i reduced mod dᵢ; the block is a sum of r table entries, and
its fixed count is computed once per distinct block.  Both tables need c to
commute with w, which the walk checks; a non-commuting element raises
NonCentralizingError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import getitem, mod, mul

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
    """F(w) = rank(w - 1) over Q, read as r - dim Λ^w from the cached fixed data of w.

    For the doubled tangent spaces of the supported space families, the sum of
    the eigenvalue angles of w equals the number of eigenvalues different from
    1, which is this rank.  The tests check it against a direct sum of the
    eigenvalue angles.  w must be unimodular, as every group element is.
    """
    if not w.is_square():
        raise EngineError("fermionic_shift requires a square matrix")
    return w.rows - _fixed_data(w)[0].cols


@lru_cache(maxsize=None)
def _fixed_data(w: IntegerMatrix) -> tuple[IntegerMatrix, FiniteAbelianGroup]:
    """Basis of the fixed sublattice Λ^w and the component group π₀(T^w)."""
    return fixed_sublattice(w), torsion_of_cokernel(w - IntegerMatrix.identity(w.rows))


def _pi0_reader(cent: MatrixGroup, key: Key, inverse: bool):
    """π₀(T^w)'s divisors on one lattice side, and a map from the key of c to c's block there.

    The side reads a key c as the matrix with columns O[c[i]] (inverse false)
    or as its inverse transpose, whose rows are O[c⁻¹[i]].  The block
    U_T·c·U⁻¹_T, flattened row by row, is then a sum over i < r of outer
    products: of U_T·O[c[i]] with row i of U⁻¹_T, or of column i of U_T with
    O[c⁻¹[i]]·U⁻¹_T.  A table per w holds them for every i and orbit point.
    This is induced_automorphism's block, read without the rest of U·c·U⁻¹.
    """
    action = cent.action if cent.action.dual == inverse else cent.action.flipped()
    w, r, points = action.matrix(key), action.rank, action.points
    divisors = _fixed_data(w)[1].divisors
    if not divisors:
        return divisors, None
    snf = smith_normal_form(w - IntegerMatrix.identity(r))
    torsion = [i for i in range(r) if snf.D[i, i] >= 2]
    rows, columns = [snf.U.entries[i] for i in torsion], [snf.U_inverse.column(j) for j in torsion]
    if inverse:
        right = [tuple(sum(map(mul, p, col)) for col in columns) for p in points]
        table = [[tuple(a * b for a in left for b in v) for v in right] for left in zip(*rows)]
    else:
        left = [tuple(sum(map(mul, row, p)) for row in rows) for p in points]
        table = [[tuple(a * b for a in v for b in right) for v in left] for right in zip(*columns)]
    mods = tuple(d for d in divisors for _ in divisors)

    def block(c: Key) -> tuple[int, ...]:
        heads = map(c.index, range(r)) if inverse else c
        return tuple(map(mod, map(sum, zip(*map(getitem, table, heads))), mods))

    return divisors, block


@lru_cache(maxsize=None)
def _block_fixed_count(divisors: tuple[int, ...], block: tuple[int, ...]) -> int:
    """Fixed points of the automorphism of ⊕ Z/dᵢ with this flattened block, once per distinct block."""
    k = len(divisors)
    rows = tuple(block[i * k : i * k + k] for i in range(k))
    return fixed_count(GroupAutomorphism(FiniteAbelianGroup(divisors), IntegerMatrix._of(k, k, rows)))


def _exact(a: int, b: int, message: str) -> int:
    """a / b, or EngineError(message) when b does not divide a."""
    q, rem = divmod(a, b)
    if rem:
        raise EngineError(message)
    return q


def _trace_reader(cent: MatrixGroup, key: Key):
    """ord w, and a map from the key of c ∈ C(w) to ord w·tr(c^k | Λ^w) for k = 1..dim Λ^w.

    (1/ord w)·Σ_j w^j projects onto Λ^w ⊗ ℚ and commutes with c (Serre,
    §2.6), so with Q = Σ_j w^j, ord w·tr(g | Λ^w) = tr(g·Q) = Σ_i O[g[i]]·Q[i]
    for g in C(w), Q[i] being row i of Q: r lookups in a table of O[p]·Q[i].
    The traces are the same on Λ̂: there g reads as (g⁻¹)ᵀ, and a finite-order
    integer matrix has the trace of its inverse.
    """
    r, points = cent.action.rank, cent.action.points
    powers = [tuple(range(r))]
    while (h := tuple(map(key.__getitem__, powers[-1]))) != powers[0]:
        powers.append(h)
    # Column a of Q is Σ_j O[w^j[a]].
    q_columns = [tuple(map(sum, zip(*(points[h[a]] for h in powers)))) for a in range(r)]
    table = [[sum(map(mul, p, row)) for p in points] for row in zip(*q_columns)]
    dim = _exact(sum(table[i][i] for i in range(r)), len(powers), "tr(Σ_j w^j) is not divisible by ord w")

    def traces(c: Key) -> tuple[int, ...]:
        out, h = [], c[:r]
        for _ in range(dim):
            out.append(sum(map(getitem, table, h)))
            h = tuple(map(c.__getitem__, h))
        return tuple(out)

    return len(powers), traces


def _newton(traces: tuple[int, ...], order: int) -> tuple[int, ...]:
    """(c_0, ..., c_n) of det(t·1 - c) on Λ^w from ord w times its power traces pₖ.

    Newton's identities k·eₖ = Σ_{i=1..k} (-1)^(i-1)·e_{k-i}·pᵢ give the
    coefficients c_{n-k} = (-1)^k·eₖ (Macdonald, I §2), with exact divisions.
    """
    e, p = [1], []
    for k, s in enumerate(traces, 1):
        p.append(_exact(s, order, "a power trace is not divisible by ord w"))
        newton_sum = sum((-1) ** i * e[k - 1 - i] * p[i] for i in range(k))
        e.append(_exact(newton_sum, k, "Newton's identities left a remainder"))
    return tuple((-1) ** k * e[k] for k in range(len(p), -1, -1))


@lru_cache(maxsize=None)
def _key_histogram(cent: MatrixGroup, key: Key, inverses: tuple[bool, ...], polys: bool = True):
    """The key histogram of C(w) = cent, for the element w that key names, in one walk of its keys.

    An element's key is its characteristic polynomial on Λ^w (None unless
    polys) and its π₀ fixed count on each lattice side in `inverses`, which
    read keys as `_pi0_reader` says.  Returns one (characteristic polynomial,
    fixed counts, count) row per distinct key.  Every element must commute
    with w, which the per-w tables need: c·w = w·c is compared on the first
    r points, which are the columns.
    """
    r = cent.action.rank
    head = key[:r]
    readers = [_pi0_reader(cent, key, inverse) for inverse in inverses]
    order, traces = _trace_reader(cent, key) if polys else (1, None)
    counts: dict[tuple, int] = {}
    for c in cent.keys:
        if tuple(map(c.__getitem__, head)) != tuple(map(key.__getitem__, c[:r])):
            raise NonCentralizingError("centralizer element does not commute with w")
        fixes = tuple(_block_fixed_count(divisors, block(c)) if divisors else 1 for divisors, block in readers)
        item = (traces(c) if polys else None, fixes)
        counts[item] = counts.get(item, 0) + 1
    return tuple((_newton(t, order) if polys else None, fixes, n) for (t, fixes), n in counts.items())


# perfbench's cache_counters reads cache_info() under these names: the restricted actions
# and per-element π₀ counts they named are now the class histograms and the block memo.
_restricted_action, _pi0_fixed_count = _key_histogram, _block_fixed_count


@lru_cache(maxsize=None)
def _space_character(factors: tuple[tuple[str, str], ...], poly: tuple[int, ...]) -> BivariatePolynomial:
    """The product of the factors' E-characters of an element whose polynomial on Λ^w (and on Λ̂) is poly."""
    product = factor_e_character(factors[0][0], poly)
    for kind, _ in factors[1:]:
        product = product * factor_e_character(kind, poly)
    return product


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
    shift = fermionic_shift(w)
    inverses = (cent.action.dual,)
    if space.uses_dual:
        if fermionic_shift(cent.dual_matrix(key)) != shift:
            raise EngineError("fermionic shift differs between the lattice and its dual")
        inverses += (not cent.action.dual,)

    weights: dict[tuple[int, ...], int] = {}
    for poly, fixes, weight in _key_histogram(cent, key, inverses):
        for kind, side in space.factors:
            weight *= fixes[side == DUAL] ** factor_dimension(kind)
        weights[poly] = weights.get(poly, 0) + weight
    total: dict[tuple[int, int], int] = {}
    for poly, weight in weights.items():
        for term, c in _space_character(space.factors, poly).coeffs.items():
            total[term] = total.get(term, 0) + weight * c
    average = BivariatePolynomial._of(
        {term: c // order if c % order == 0 else Fraction(c, order) for term, c in total.items()}
    )
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
    rep, dual_rep = cent.matrix(key), cent.dual_matrix(key)
    pi0_primal = _fixed_data(rep)[1]
    pi0_dual = _fixed_data(dual_rep)[1]
    rows = _key_histogram(cent, key, (cent.action.dual, not cent.action.dual), False)
    counts_agree = all(primal == dual for _, (primal, dual), _ in rows)
    return DualityRow(rep, pi0_primal.divisors, pi0_dual.divisors, pi0_primal.order == pi0_dual.order, counts_agree)
