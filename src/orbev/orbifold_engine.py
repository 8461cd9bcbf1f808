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

Group data.  W, its class table, one centralizer per class and the class
records, each holding what a class term reads of its class (w, the class
size, C(w) and a key in it, F(w) and π₀'s divisors), depend on a datum's
generators alone, so they are cached per generator set, where the
orbit-stabilizer and w ↔ (w⁻¹)ᵀ bijection checks run; of the datum itself the
engine reads only its rank and label.  Data with equal generators share all
of these and, through the shared centralizers, every key histogram and π₀
table.  Among the built-ins, B_n adjoint and C_n simply connected share them
(ℤⁿ with signed permutations), and so do SL(2) and SL(2)/Z2 (both act by -1).

Key histogram.  A factor's E-character of c depends only on the
characteristic polynomial of c on Λ^w, which is the same on the dual side,
so the average needs only a histogram of keys: that polynomial and the π₀
fixed count per lattice side read, with the number of elements of C(w) that
have the key.  C(w) is walked once per class and side set, on its
permutation keys with no matrix per element (`weyl` holds a key as bytes for
an orbit of at most 256 points and as an int tuple beyond; indexing gives an
int either way), and the histogram serves every later space of the datum in
the process.  `compute` reads Λ alone for a space on Λ and both sides for
`mixed`.  The mirror check reads both sides for every space, and one walk
per class serves both of its reports: Ŵ's classes are W's, listed in Ŵ's
order (`weyl.dual_class_order`), and a dual class term, a class function, is
read at W's representative with the π₀ sides swapped.  A space's average is
one E-character product per distinct polynomial, weighted by the counts and
fixed counts, divided once by |C(w)|, and (uv)^F(w) is an exponent shift.
That division is exact, since each coefficient of the average is the
dimension of a space of invariants; a remainder raises EngineError.  Both
are built once per process per reading (factors, weights, |C(w)|, F(w)), so
a dual term that weighs the histogram as its primal did shares its objects.

Per-w tables.  Everything the engine reads of w itself comes from one
cached Smith form U·(w - 1)·V = D: dim Λ^w is the number of zero diagonal
entries of D, F(w) = r - dim Λ^w, and π₀(T^w) is ⊕ ℤ/dᵢ over the divisors
dᵢ ≥ 2, held as the tuple of the dᵢ.  The power traces tr(c^k | Λ^w) are r
lookups each in a table built from Σ_j w^j, and Newton's identities give the
polynomial over ℤ.  On π₀(T^w), c acts by the block U_T·c·U⁻¹_T, with U_T
the rows of U and U⁻¹_T the columns of U⁻¹ at the divisors dᵢ ≥ 2 and row i
reduced mod dᵢ; U⁻¹ is built by the Smith elimination alongside U.  The
block is a sum of r table entries, flattened by rows as
`induced_automorphism` gives it, and `lattice_core.fixed_count` counts its
fixed points once per distinct block.  Both tables need c to commute with w,
which the walk checks; a non-commuting element raises NonCentralizingError.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import attrgetter, getitem, mod, mul
from typing import NamedTuple

from .epoly import (
    DUAL,
    BivariatePolynomial,
    SpaceDescriptor,
    factor_dimension,
    factor_e_character,
)
from .lattice_core import (
    IntegerMatrix,
    LatticeError,
    NonCentralizingError,
    fixed_count,
    smith_normal_form,
    torsion_of_cokernel,
)
# No longer called here; imported because perfbench's tracer wraps them in this module.
from .lattice_core import fixed_sublattice, induced_automorphism, solve_right_integer
# dual_datum is no longer called here; imported because perfbench's tracer wraps it in this module.
from .root_data import RootDatum, _dual_label, dual_datum
from .weyl import (
    DEFAULT_CAP,
    Key,
    MatrixGroup,
    centralizer,
    commutes_with,
    conjugacy_classes,
    dual_class_order,
    generate_group,
)


class EngineError(LatticeError):
    """Internal consistency failure in the orbifold engine."""


class ClassContribution(NamedTuple):
    representative: IntegerMatrix
    class_size: int
    centralizer_order: int
    shift: int
    pi0_divisors: tuple[int, ...]
    average: BivariatePolynomial  # bar E_{C(w)}(X^w)
    weighted: BivariatePolynomial  # average · (uv)^{F(w)}


class ClassRecord(NamedTuple):
    """What a class term reads of its class: the key histogram of centralizer, a subgroup of W, read at key.

    match is None for w ∈ W on Λ, named by key, and for a Ŵ record the W class of x, where its representative
    (x⁻¹)ᵀ acts on Λ̂ and key names x: match also says the lattice side.  shift is F(w).
    """

    representative: IntegerMatrix
    class_size: int
    centralizer: MatrixGroup
    key: Key
    shift: int
    pi0_divisors: tuple[int, ...]
    match: int | None = None


class OrbifoldReport(NamedTuple):
    datum_label: str
    group_order: int
    contributions: tuple[ClassContribution, ...]
    total: BivariatePolynomial


class MirrorPair(NamedTuple):
    primal_class: int
    dual_class: int
    difference: BivariatePolynomial


class MirrorReport(NamedTuple):
    primal: OrbifoldReport
    dual: OrbifoldReport
    pairs: tuple[MirrorPair, ...]
    term_by_term: bool
    equal: bool


class DualityRow(NamedTuple):
    representative: IntegerMatrix
    pi0_primal: tuple[int, ...]
    pi0_dual: tuple[int, ...]
    orders_agree: bool
    fixed_counts_agree: bool


class DualityReport(NamedTuple):
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
    return w.rows - _fixed_data(w)[0]


@lru_cache(maxsize=None)
def _fixed_data(w: IntegerMatrix) -> tuple[int, tuple[int, ...]]:
    """dim Λ^w and the divisors of π₀(T^w), both read off the one Smith form of w - 1.

    With U·(w - 1)·V = D, the columns of V at D's zero diagonal entries are a
    basis of the saturated sublattice Λ^w (`fixed_sublattice`), so dim Λ^w
    is their number, and π₀(T^w) = Tor(Λ/(w - 1)Λ) = ⊕ ℤ/dᵢ over the divisors
    dᵢ >= 2 that `torsion_of_cokernel` reads off the same cached Smith form.
    w must be unimodular.
    """
    if not w.is_unimodular():
        raise LatticeError("the fixed data of w need a unimodular w")
    w_minus_1 = w - IntegerMatrix.identity(w.rows)
    pi0 = torsion_of_cokernel(w_minus_1)
    d = smith_normal_form(w_minus_1).D
    return sum(1 for i in range(w.rows) if d[i, i] == 0), pi0


def _pi0_reader(cent: MatrixGroup, key: Key, inverse: bool):
    """π₀(T^w)'s divisors on one lattice side, and a map from the key of c to c's block there.

    The side reads a key c as the matrix with columns O[c[i]] (inverse false)
    or as its inverse transpose, whose rows are O[c⁻¹[i]]: the one action of W
    and its centralizers reads a key either way, so Λ̂ needs no group of its
    own.  The block U_T·c·U⁻¹_T, flattened row by row, is then a sum over
    i < r of outer products: of U_T·O[c[i]] with row i of U⁻¹_T, or of column
    i of U_T with O[c⁻¹[i]]·U⁻¹_T.  A table per w holds them for every i and orbit point.
    This is induced_automorphism's block, read without the rest of U·c·U⁻¹.
    """
    w, r, points = cent.action.matrix(key, inverse), cent.action.rank, cent.action.points
    divisors = _fixed_data(w)[1]
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
    with w, which the per-w tables need (`commutes_with`).
    """
    commutes = commutes_with(cent.action, key)
    readers = [_pi0_reader(cent, key, inverse) for inverse in inverses]
    order, traces = _trace_reader(cent, key) if polys else (1, None)
    counts: dict[tuple, int] = {}
    for c in cent.keys:
        if not commutes(c):
            raise NonCentralizingError("centralizer element does not commute with w")
        fixes = tuple(fixed_count(divisors, block(c)) if divisors else 1 for divisors, block in readers)
        item = (traces(c) if polys else None, fixes)
        counts[item] = counts.get(item, 0) + 1
    return tuple((_newton(t, order) if polys else None, fixes, n) for (t, fixes), n in counts.items())


# perfbench's cache_counters reads cache_info() under these names: the restricted actions
# and per-element π₀ counts they named are now the class histograms and fixed_count's memo.
_restricted_action, _pi0_fixed_count = _key_histogram, fixed_count


@lru_cache(maxsize=None)
def _space_character(factors: tuple[tuple[str, str], ...], poly: tuple[int, ...]) -> BivariatePolynomial:
    """The product of the factors' E-characters of an element whose polynomial on Λ^w (and on Λ̂) is poly."""
    product = factor_e_character(factors[0][0], poly)
    for kind, _ in factors[1:]:
        product = product * factor_e_character(kind, poly)
    return product


@lru_cache(maxsize=None)
def _columns(space: SpaceDescriptor, own: bool, both_sides: bool):
    """Whether space uses Λ̂, the sides a term of w on side own reads, and their powers in a row's weight.

    A PRIMAL factor reads w's own side, a DUAL one the other.
    """
    sides = (False, True) if both_sides or space.uses_dual else (own,)
    powers = tuple(sum(factor_dimension(k) for k, side in space.factors if (own != (side == DUAL)) == s) for s in sides)
    return space.uses_dual, sides, powers


def _weights(rows, powers: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Each characteristic polynomial's count in the histogram rows, times its fixed counts' powers."""
    weights: dict[tuple[int, ...], int] = {}
    for poly, fixes, n in rows:
        weights[poly] = weights.get(poly, 0) + n * prod(map(pow, fixes, powers))
    return weights


@lru_cache(maxsize=None)
def _class_polynomials(factors: tuple[tuple[str, str], ...], weights: frozenset, order: int, shift: int):
    """(average, weighted) of every class term that reads weights, |C(w)| = order and F(w) = shift."""
    total: dict[tuple[int, int], int] = {}
    for poly, weight in weights:
        for term, c in _space_character(factors, poly).coeffs.items():
            total[term] = total.get(term, 0) + weight * c
    for term, c in total.items():
        total[term], rem = divmod(c, order)
        if rem:
            raise EngineError("a centralizer average has a non-integer coefficient")
    average = BivariatePolynomial._of(total)
    return average, average.times_monomial(shift, shift)


def class_contribution(record: ClassRecord, space: SpaceDescriptor, both_sides: bool = False) -> ClassContribution:
    """One conjugacy-class term: average over the record's centralizer, then shift by (uv)^F(w).

    The average is read from the key histogram at the record's key, on w's
    own lattice side and, when the space uses Λ̂, the other one too; with
    both_sides it reads both in any case, so that the mirror check's two
    reports share one walk.  `_class_polynomials`, keyed by what the term
    reads, gives a term that reads as an earlier one did (a dual term that
    weighs the histogram as its primal did) that term's polynomial objects.
    """
    cent, key, own, shift = record.centralizer, record.key, record.match is not None, record.shift
    uses_dual, sides, powers = _columns(space, own, both_sides)
    if uses_dual and fermionic_shift(cent.action.matrix(key, not own)) != shift:
        raise EngineError("fermionic shift differs between the lattice and its dual")
    weights = frozenset(_weights(_key_histogram(cent, key, sides), powers).items())
    polys = _class_polynomials(space.factors, weights, cent.order, shift)
    return ClassContribution(record.representative, record.class_size, cent.order, shift, record.pi0_divisors, *polys)


def _record(w: IntegerMatrix, cent: MatrixGroup, size: int = 1, at: Key | None = None, match: int | None = None):
    """w's ClassRecord, read at w on cent = C(w), or for a match at key `at` on cent = C(x), x named by `at`."""
    if not cent.order:
        raise EngineError("centralizer must contain at least the identity")
    dim, pi0 = _fixed_data(w)
    key = cent.key(w) if match is None else at
    return ClassRecord(w, size, cent, key, w.rows - dim, pi0, match)


@lru_cache(maxsize=None)
def _group_data(generators: tuple[IntegerMatrix, ...], cap: int):
    """W, its class table and one centralizer per class, once per generator set.

    Pass a datum's generators: data with equal generators, such as B_n
    adjoint and C_n simply connected, then share one group, one class table
    and one set of centralizers (see the module docstring).
    """
    group = generate_group(generators, cap)
    table = conjugacy_classes(group)
    return group, table, tuple(centralizer(group, rep) for rep in table.representatives)


@lru_cache(maxsize=None)
def _class_records(generators: tuple[IntegerMatrix, ...], cap: int) -> tuple[ClassRecord, ...]:
    """W's class records, once per generator set, each read at its representative."""
    group, table, cents = _group_data(generators, cap)
    if any(cent.order * size != group.order for size, cent in zip(table.sizes, cents)):
        raise EngineError("orbit-stabilizer mismatch in class table")
    return tuple(map(_record, table.representatives, cents, table.sizes))


@lru_cache(maxsize=None)
def _dual_records(generators: tuple[IntegerMatrix, ...], cap: int) -> tuple[ClassRecord, ...]:
    """Ŵ's class records, once per generator set, each read at the key of its W class by w ↔ (w⁻¹)ᵀ."""
    group, table, cents = _group_data(generators, cap)
    first = dual_class_order(table)
    if sorted(first) != list(range(table.count)):
        raise EngineError("class matching w ↔ (w⁻¹)ᵀ is not a bijection")
    return tuple(_record(group.dual_matrix(k), cents[i], table.sizes[i], table.keys[i], i) for i, k in first.items())


def _rank_zero_report(label: str) -> OrbifoldReport:
    one = BivariatePolynomial.one()
    return OrbifoldReport(label, 1, (ClassContribution(IntegerMatrix.identity(0), 1, 1, 0, (), one, one),), one)


@lru_cache(maxsize=None)
def orbifold_e_polynomial(
    datum: RootDatum, space: SpaceDescriptor, cap: int = DEFAULT_CAP
) -> OrbifoldReport:
    """Sum of weighted class contributions, each with integer coefficients."""
    if datum.rank == 0:
        return _rank_zero_report(datum.label)
    return _report(datum.label, space, _class_records(datum.generators, cap))


def _report(label: str, space: SpaceDescriptor, records, both_sides: bool = False) -> OrbifoldReport:
    return _summed(label, [class_contribution(record, space, both_sides) for record in records])


def _summed(label: str, contributions: list[ClassContribution]) -> OrbifoldReport:
    total: dict[tuple[int, int], int] = {}
    for contribution in contributions:
        for term, c in contribution.weighted.coeffs.items():
            total[term] = total.get(term, 0) + c
    group_order = sum(c.class_size for c in contributions)
    return OrbifoldReport(label, group_order, tuple(contributions), BivariatePolynomial._of(total))


@lru_cache(maxsize=None)
def mirror_check(datum: RootDatum, space: SpaceDescriptor, cap: int = DEFAULT_CAP) -> MirrorReport:
    """Compare E_orb on (Λ, W) and (Λ̂, Ŵ), matching classes by w ↔ (w⁻¹)ᵀ.

    A key names w in W and (w⁻¹)ᵀ in Ŵ, so Ŵ's classes are W's in Ŵ's order
    (`dual_class_order`), and each of Ŵ's class records holds the index of
    the W class it matches.  Each class is walked once, with both lattice
    sides: the primal term reads the histogram of C(w), and the dual term
    reads the same histogram at W's representative with its sides swapped;
    when it weighs the histogram alike, `_class_polynomials` gives it the
    primal term's objects, so the pair's difference needs no subtraction.
    Ŵ needs no group, class scan, centralizer or walk of its own, and the dual
    report's label is read off the primal one, so no dual datum is built.
    """
    if datum.rank == 0:
        primal, dual = _rank_zero_report(datum.label), _rank_zero_report(_dual_label(datum.label))
        return MirrorReport(primal, dual, (MirrorPair(0, 0, BivariatePolynomial.zero()),), True, True)
    primal = _report(datum.label, space, _class_records(datum.generators, cap), both_sides=True)
    terms, records = primal.contributions, _dual_records(datum.generators, cap)
    dual = _summed(_dual_label(datum.label), [class_contribution(r, space, True) for r in records])
    pairs = []
    for j, (record, term) in enumerate(zip(records, dual.contributions)):
        a, b = terms[record.match].weighted, term.weighted
        pairs.append(MirrorPair(record.match, j, BivariatePolynomial.zero() if a is b else a - b))
    pairs.sort(key=attrgetter("primal_class"))
    term_by_term = all(p.difference.is_zero() for p in pairs)
    return MirrorReport(primal, dual, tuple(pairs), term_by_term, primal.total == dual.total)


@lru_cache(maxsize=None)
def duality_check(datum: RootDatum, cap: int = DEFAULT_CAP) -> DualityReport:
    """π₀ duality: torsion orders and centralizer fixed counts agree on Λ and Λ̂."""
    if datum.rank == 0:
        return DualityReport(datum.label, (), True)
    _, table, cents = _group_data(datum.generators, cap)
    rows = tuple(_duality_row(cent, key) for key, cent in zip(table.keys, cents))
    equal = all(r.orders_agree and r.fixed_counts_agree for r in rows)
    return DualityReport(datum.label, rows, equal)


def _duality_row(cent: MatrixGroup, key: Key) -> DualityRow:
    """The class of the element w that key names, with cent = C(w): w on Λ against (w⁻¹)ᵀ on Λ̂."""
    rep, dual_rep = cent.matrix(key), cent.dual_matrix(key)
    pi0_primal = _fixed_data(rep)[1]
    pi0_dual = _fixed_data(dual_rep)[1]
    rows = _key_histogram(cent, key, (False, True), False)
    counts_agree = all(primal == dual for _, (primal, dual), _ in rows)
    return DualityRow(rep, pi0_primal, pi0_dual, prod(pi0_primal) == prod(pi0_dual), counts_agree)
