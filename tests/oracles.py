"""Brute-force reference computations that the tests compare orbev against.

Each oracle takes a path independent of the one the package uses, so that a
test can check the package's result against it:

- direct_shift_oracle: fermionic shifts from the eigenvalue angles of w,
  against orbifold_engine.fermionic_shift (the rank of w - 1).
- direct_sym_oracle: E(Sym^a A) by averaging over all of S_a, against the
  generating function of sln_formula.sym_e_polynomial.
- binomial_sym_series: E(Sym^a A) by convolving the whole binomial series of
  each factor (1 - u^p v^q t)^{-e}, against the packed-integer recurrence of
  sln_formula.sym_e_polynomial.
- scan_exact_divide: long division that finds the leading remainder term by
  a scan of the whole remainder, against the heap of epoly.exact_divide.
- per_partition_closed_form: the closed form summed one partition at a time,
  each with its own product of symmetric powers, against the packed-integer
  grouped sums and divmod of sln_formula.closed_form_eorb.
- datum_equivalent: equality of root data up to a change of basis, against
  the explicit dual pairs that root_data builds.
- _congruence: gᵀ·G·g in Fractions, against root_data's integer check of
  gᵀ·(L·G)·g on the scaled gram.
- matrix_group_oracle: group elements, conjugacy classes and centralizers by
  IntegerMatrix products alone, against weyl's permutation keys.
- per_element_class_oracle: a class term summed element by element, against
  the key histogram that orbifold_engine.class_contribution reads.
- dual_group_report: E_orb on (Λ̂, Ŵ) from Ŵ's own class scan, centralizers
  and key walks, against mirror_check's dual report, whose class table is
  read off W's and whose terms are read off W's walks.
- per_element_duality_oracle: a duality_check row rebuilt element by element
  from induced automorphisms, against the engine's per-w π₀ projections.
- orbifold_euler_oracle: E_orb(1, 1) summed over the commuting pairs of W
  (Dixon–Harvey–Vafa–Witten), from the minors of [g−1 | h−1], against the
  engine's total evaluated at u = v = 1.

`rebased` and `rank_four_data` are test data, not oracles: a datum in a
seeded new basis, and the built-ins of rank <= 4 with two more data.  The
functions after them are tools that tests read and the package never needs:
a group's matrices, an element's class, exact division of a polynomial by an
int, polynomial substitution, evaluation and parsing, and a datum written
back as a datum file.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, prod
from pathlib import Path

from orbev.epoly import (
    DUAL,
    BivariatePolynomial,
    InexactDivisionError,
    PolynomialError,
    SpaceDescriptor,
    char_poly,
    factor_dimension,
    factor_e_character,
)
from orbev.lattice_core import (
    InexactSolveError,
    IntegerMatrix,
    fixed_count,
    fixed_sublattice,
    induced_automorphism,
    solve_exact,
    solve_right_integer,
    torsion_of_cokernel,
)
from orbev.orbifold_engine import EngineError, OrbifoldReport, _record, _report
from orbev.root_data import FractionMatrix, RootDatum, classical_datum, custom_datum, dual_datum, sl_quotient_datum
from orbev.sln_formula import FormulaError, partitions, tau
from orbev.weyl import centralizer, conjugacy_classes, dual_group, generate_group

G2_PATH = Path(__file__).parent / "data" / "g2.datum"


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


def direct_sym_oracle(e_a: BivariatePolynomial, a: int) -> BivariatePolynomial:
    """bar E_{S_a}(A^a) by literal averaging over all a! permutations.

    Each permutation contributes Π_{cycles of length i} E_A(u^i, v^i); the
    average must equal sym_e_polynomial.  Enumeration-bound: a <= 5.
    """
    if not 0 <= a <= 5:
        raise FormulaError("direct oracle enumerates S_a only for a <= 5")
    total = BivariatePolynomial.zero()
    for perm in itertools.permutations(range(a)):
        term = BivariatePolynomial.one()
        seen = [False] * a
        for start in range(a):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            term = term * substitute_powers(e_a, length, length)
        total = total + term
    return divided(total, factorial(a))


@lru_cache(maxsize=None)
def binomial_sym_series(e_a: BivariatePolynomial, a: int) -> BivariatePolynomial:
    """E(Sym^a A) as the t^a coefficient of Π_{p,q} (1 - u^p v^q t)^{-e^{p,q}(A)}.

    Each factor is expanded in full and convolved into the series truncated at
    t^a: a positive exponent e as the binomial series Σ_j C(e+j-1, j) x^j t^j,
    a negative one as the finite binomial (1 - x t)^{|e|}.
    """
    if a < 0:
        raise FormulaError("symmetric power requires a >= 0")
    series = [BivariatePolynomial.one()] + [BivariatePolynomial.zero() for _ in range(a)]
    for (p, q), e in sorted(e_a.coeffs.items()):
        mono = BivariatePolynomial.monomial(p, q)
        factor: list[BivariatePolynomial] = []
        power = BivariatePolynomial.one()
        if e > 0:
            for j in range(a + 1):
                factor.append(power.scale(comb(e + j - 1, j)))
                power = power * mono
        else:
            for j in range(min(-e, a) + 1):
                factor.append(power.scale((-1) ** j * comb(-e, j)))
                power = power * mono
            factor += [BivariatePolynomial.zero()] * (a + 1 - len(factor))
        series = [
            sum((series[i] * factor[k - i] for i in range(k + 1)), BivariatePolynomial.zero())
            for k in range(a + 1)
        ]
    return series[a]


def scan_exact_divide(p: BivariatePolynomial, q: BivariatePolynomial) -> BivariatePolynomial:
    """r with r·q = p by long division that scans the remainder for its lex-leading term.

    Raises InexactDivisionError when a leading term is not an integer multiple
    of q's.
    """
    if q.is_zero():
        raise PolynomialError("division by the zero polynomial")
    remainder = dict(p.coeffs)
    q_lead = max(q.coeffs)
    q_lead_coeff = q.coeffs[q_lead]
    quotient = {}
    while remainder:
        r_lead = max(remainder)
        dp, dq = r_lead[0] - q_lead[0], r_lead[1] - q_lead[1]
        if dp < 0 or dq < 0:
            raise InexactDivisionError("division is not exact")
        a = remainder[r_lead]
        c, rem = divmod(a, q_lead_coeff)
        if rem:
            raise InexactDivisionError("division is not exact over the integers")
        quotient[(dp, dq)] = c
        for (p2, q2), c2 in q.coeffs.items():
            key = (p2 + dp, q2 + dq)
            s = remainder.pop(key, 0) - c * c2
            if s:
                remainder[key] = s
    return BivariatePolynomial(quotient)


def per_partition_closed_form(n: int, m: int, d: int, e_a: BivariatePolynomial) -> BivariatePolynomial:
    """Σ_α τ·(uv)^{n-|α|}·Π_i E(Sym^{α_i} A), one partition α at a time, divided by E(A).

    Symmetric powers come from binomial_sym_series and the division from
    scan_exact_divide; an inexact division raises FormulaError.
    """
    if n < 1:
        raise FormulaError("closed_form_eorb requires n >= 1")
    if m < 1 or n % m != 0:
        raise FormulaError(f"m = {m} does not divide n = {n}")
    total = BivariatePolynomial.zero()
    for alpha in partitions(n):
        term = BivariatePolynomial.constant(tau(n // m, m, alpha.g, d))
        term = term * BivariatePolynomial.monomial(n - alpha.size, n - alpha.size)
        for _, mult in sorted(alpha.multiplicities().items()):
            term = term * binomial_sym_series(e_a, mult)
        total = total + term
    try:
        return scan_exact_divide(total, e_a)
    except InexactDivisionError as exc:
        raise FormulaError("division by E(A) is not exact") from exc


def _congruence(g: IntegerMatrix, gram: FractionMatrix) -> FractionMatrix:
    """g^T · gram · g for an integer matrix g, in Fractions."""
    n = g.rows
    gt_gram = [
        [sum(Fraction(g[k, i]) * gram[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return tuple(
        tuple(sum(gt_gram[i][k] * g[k, j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def datum_equivalent(d1: RootDatum, d2: RootDatum, up_to_gram_scale: bool = False) -> bool:
    """Same ambient lattice, same generator set, and matching gram form.

    The comparison allows for a change of basis: it finds the integral basis
    change T with basis2/den2 = (basis1/den1)·T, requires it to be unimodular
    in both directions, and compares generator sets and gram forms through T.
    With up_to_gram_scale the gram forms may differ by a positive rational
    factor.
    """
    if d1.rank != d2.rank or d1.ambient_dim != d2.ambient_dim:
        return False
    if d1.rank == 0:
        return True
    try:
        x12 = solve_exact(d1.basis, d2.basis)
        x21 = solve_exact(d2.basis, d1.basis)
    except InexactSolveError:
        return False
    scale12 = Fraction(d1.denominator, d2.denominator)
    scale21 = Fraction(d2.denominator, d1.denominator)
    t12 = [[x * scale12 for x in row] for row in x12]
    t21 = [[x * scale21 for x in row] for row in x21]
    if any(x.denominator != 1 for row in t12 for x in row):
        return False
    if any(x.denominator != 1 for row in t21 for x in row):
        return False
    t = IntegerMatrix.from_rows([[int(x) for x in row] for row in t12], cols=d1.rank)
    if not t.is_unimodular():
        return False
    tinv = t.inverse_unimodular()
    gens1 = set(d1.generators)
    gens2 = {t * h * tinv for h in d2.generators}
    if gens1 != gens2:
        return False
    transported = _congruence(t, d1.gram)
    if transported == d2.gram:
        return True
    if up_to_gram_scale:
        base = next((x for row in transported for x in row if x != 0), None)
        other = next((x for row in d2.gram for x in row if x != 0), None)
        if base is None or other is None:
            return False
        ratio = other / base
        if ratio <= 0:
            return False
        return all(
            transported[i][j] * ratio == d2.gram[i][j]
            for i in range(d2.rank)
            for j in range(d2.rank)
        )
    return False


def matrix_group_oracle(generators) -> tuple[list, list, list, list]:
    """(elements, class representatives, class sizes, centralizers) by matrix products.

    Elements come in the breadth-first order of x·g over the distinct
    generators sorted by their entries; a class is the orbit of its first
    element in that order under conjugation by the generators; a centralizer
    lists the elements commuting with the representative, in element order.
    """
    gens = sorted(set(generators), key=lambda g: g.entries)
    elements = [IntegerMatrix.identity(gens[0].rows)]
    seen = set(elements)
    for x in elements:  # grows while it is read
        for g in gens:
            y = x * g
            if y not in seen:
                seen.add(y)
                elements.append(y)
    pairs = [(g, g.inverse_unimodular()) for g in gens]
    classes: dict[IntegerMatrix, int] = {}
    representatives, sizes = [], []
    for seed in elements:
        if seed in classes:
            continue
        classes[seed] = len(representatives)
        orbit = [seed]
        for x in orbit:
            for g, ginv in pairs:
                y = g * x * ginv
                if y not in classes:
                    classes[y] = len(representatives)
                    orbit.append(y)
        representatives.append(seed)
        sizes.append(len(orbit))
    centralizers = [[c for c in elements if c * w == w * c] for w in representatives]
    return elements, representatives, sizes, centralizers


def per_element_class_oracle(space: SpaceDescriptor, w: IntegerMatrix, cent) -> tuple:
    """(average, weighted, shift, pi0_divisors) of w's class, one element at a time.

    Each c in the centralizer contributes the product over the space's factors
    of the E-character of c on the factor's Λ^w times Fix(c, π₀(T^w))^d, with
    every piece computed afresh: a dual-side matrix by Bareiss inversion, the
    restricted action by a solve on the fixed basis, the fixed count from the
    induced automorphism.  The shift comes from eigenvalue angles and (uv)^F is
    a power of uv.  No engine cache, key read or histogram is used; the engine
    shares only fixed_count's memo, which test_lattice_core checks against
    enumeration.
    """
    cent = elements(cent)
    eye = IntegerMatrix.identity(w.rows)
    total = BivariatePolynomial.zero()
    for c in cent:
        term = BivariatePolynomial.one()
        for kind, side in space.factors:
            ws, cs = (w.inverse_transpose(), c.inverse_transpose()) if side == DUAL else (w, c)
            basis = fixed_sublattice(ws)
            term = term * factor_e_character(kind, char_poly(solve_right_integer(basis, cs * basis)))
            term = term.scale(fixed_count(*induced_automorphism(cs, ws - eye)) ** factor_dimension(kind))
        total = total + term
    average = divided(total, len(cent))
    shift = direct_shift_oracle(w)
    weighted = average * BivariatePolynomial.monomial(1, 1) ** shift
    return average, weighted, shift, torsion_of_cokernel(w - eye)


def dual_group_data(datum: RootDatum) -> tuple:
    """(Ŵ, its class table, its centralizers) for Ŵ = dual_group(W), each scanned in Ŵ itself."""
    group = dual_group(generate_group(datum.generators))
    table = conjugacy_classes(group)
    return group, table, tuple(centralizer(group, rep) for rep in table.representatives)


def dual_group_report(datum: RootDatum, space: SpaceDescriptor) -> OrbifoldReport:
    """E_orb of (A ⊗ Λ̂)/Ŵ for Λ̂ = dual_datum(datum), on the group data of dual_group_data.

    Each class term is read at Ŵ's own representative from a walk of Ŵ's own
    centralizer, with the lattice sides the space uses.
    """
    _, table, cents = dual_group_data(datum)
    records = tuple(map(_record, table.representatives, cents, table.sizes))
    return _report(dual_datum(datum).label, space, records)


def per_element_duality_oracle(w: IntegerMatrix, cent) -> tuple:
    """(pi0_primal, pi0_dual, orders_agree, fixed_counts_agree) of w's duality row.

    Every count is fixed_count of a fresh induced automorphism, and the dual
    side is w and each c of the centralizer cent inverted and transposed by
    Bareiss.
    """
    eye = IntegerMatrix.identity(w.rows)
    dual_w = w.inverse_transpose()
    primal, dual = torsion_of_cokernel(w - eye), torsion_of_cokernel(dual_w - eye)
    counts_agree = all(
        fixed_count(*induced_automorphism(c, w - eye))
        == fixed_count(*induced_automorphism(c.inverse_transpose(), dual_w - eye))
        for c in elements(cent)
    )
    return primal, dual, prod(primal) == prod(dual), counts_agree


def orbifold_euler_oracle(datum: RootDatum, space: SpaceDescriptor) -> int:
    """The orbifold Euler number E_orb(1, 1) by the commuting-pair formula (DHVW).

    e = (1/|W|)·Σ_{gh=hg} Π_factors χ_f(g, h), where χ_f is the Euler number of
    the points of the factor that g and h both fix.  On an affine line it is 1.
    On a factor with d = factor_dimension(kind) > 0 it is (Π Smith divisors of
    [g−1 | h−1])^d when that r × 2r block has r of them, and 0 otherwise (a
    fixed torus of positive dimension).  A DUAL factor reads g and h as (g⁻¹)ᵀ
    and (h⁻¹)ᵀ.  See _commuting_pairs for how the pairs are enumerated.
    """
    order, pairs = _commuting_pairs(datum.generators)
    total = sum(
        size * prod((dual if side == DUAL else primal) ** factor_dimension(kind) for kind, side in space.factors)
        for size, primal, dual in pairs
    )
    e, rem = divmod(total, order)
    if rem:
        raise EngineError("the commuting-pair sum is not divisible by |W|")
    return e


@lru_cache(maxsize=None)
def _commuting_pairs(generators) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """|W|, and (class size, χ on Λ, χ on Λ̂) for each class representative g and h in C(g).

    χ(g, h) is unchanged when g and h are conjugated together, so the pairs
    with g in one class add up to the class size times those with g its
    representative.  Classes and centralizers come from matrix_group_oracle,
    and χ from _common_fixed_points; no characteristic polynomial, π₀ block or
    key histogram is used.
    """
    group, representatives, sizes, centralizers = matrix_group_oracle(generators)
    pairs = tuple(
        (size, _common_fixed_points(g, h), _common_fixed_points(g.inverse_transpose(), h.inverse_transpose()))
        for g, size, cent in zip(representatives, sizes, centralizers)
        for h in cent
    )
    return len(group), pairs


def _common_fixed_points(g: IntegerMatrix, h: IntegerMatrix) -> int:
    """|Λ/((g−1)Λ + (h−1)Λ)|, or 0 when it is infinite.

    That is the product of the Smith divisors of [g−1 | h−1] when there are r
    of them, which is the gcd of the block's r × r minors; the gcd is 0
    exactly when the block has rank below r.
    """
    eye = IntegerMatrix.identity(g.rows)
    columns = list(zip(*(g - eye).hstack(h - eye).entries))
    divisor = 0
    for minor in itertools.combinations(columns, g.rows):
        divisor = gcd(divisor, _laplace_det(minor))
        if divisor == 1:
            break
    return divisor


def _laplace_det(rows) -> int:
    """The determinant of a square matrix given by rows, expanded along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * _laplace_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


def rank_four_data() -> list[RootDatum]:
    """Every built-in of rank <= 4 in both forms, the G2 datum file and C3_ad re-based."""
    data = [sl_quotient_datum(n, m) for n in range(2, 6) for m in range(1, n + 1) if n % m == 0]
    forms = ("simply_connected", "adjoint")
    data += [classical_datum(f, n, form) for f in "BC" for n in (2, 3, 4) for form in forms]
    data += [classical_datum("D", n, form) for n in (3, 4) for form in forms]
    data.append(custom_datum(G2_PATH))
    data.append(rebased(classical_datum("C", 3, "adjoint"), seed=7))
    return data


def rebased(d: RootDatum, seed: int) -> RootDatum:
    """d in the basis basis·T for a seeded unimodular T."""
    rng = random.Random(seed)
    rows = [[int(i == j) for j in range(d.rank)] for i in range(d.rank)]
    for _ in range(4):
        i, j = rng.sample(range(d.rank), 2)
        k = rng.choice((-1, 1))
        for row in rows:
            row[j] += k * row[i]
    t = IntegerMatrix.from_rows(rows, cols=d.rank)
    t_inv = t.inverse_unimodular()
    out = RootDatum(
        rank=d.rank,
        basis=d.basis * t,
        denominator=d.denominator,
        gram=_congruence(t, d.gram),
        generators=tuple(t_inv * g * t for g in d.generators),
        label="rebased",
    )
    out.validate()
    return out


def elements(group) -> tuple[IntegerMatrix, ...]:
    """The matrices of a MatrixGroup, in the order of its keys."""
    return tuple(map(group.matrix, group.keys))


def class_of(table, m: IntegerMatrix) -> int:
    """The index in a ConjugacyClassTable of the class of the group element m."""
    return table.class_index[table.group.key(m)]


def divided(p: BivariatePolynomial, k: int) -> BivariatePolynomial:
    """p / k, coefficient by coefficient; raises InexactDivisionError when k leaves a remainder."""
    out = {}
    for key, c in p.coeffs.items():
        out[key], rem = divmod(c, k)
        if rem:
            raise InexactDivisionError(f"{k} does not divide the coefficient {c}")
    return BivariatePolynomial(out)


def substitute_powers(p: BivariatePolynomial, i: int, j: int) -> BivariatePolynomial:
    """p(u^i, v^j)."""
    out: dict[tuple[int, int], int] = {}
    for (a, b), c in p.coeffs.items():
        out[(a * i, b * j)] = out.get((a * i, b * j), 0) + c
    return BivariatePolynomial(out)


def evaluate(p: BivariatePolynomial, u: Fraction | int, v: Fraction | int) -> Fraction:
    """p(u, v), exactly."""
    u, v = Fraction(u), Fraction(v)
    return sum((c * u**a * v**b for (a, b), c in p.coeffs.items()), Fraction(0))


def json_terms(p: BivariatePolynomial) -> list[dict]:
    """The plain JSON form of p that the CLI writes: its terms in sorted (p, q) order."""
    return [{"p": a, "q": b, "coeff": str(c)} for a, b, c in p.sorted_terms()]


def from_json_terms(terms) -> BivariatePolynomial:
    """The polynomial whose plain JSON form is terms."""
    return BivariatePolynomial({(int(t["p"]), int(t["q"])): int(t["coeff"]) for t in terms})


def from_text(text: str) -> BivariatePolynomial:
    """The polynomial that BivariatePolynomial.to_text wrote as text."""
    text = text.strip()
    coeffs: dict[tuple[int, int], int] = {}
    for term in text.split(" + ") if text != "0" else ():
        c, up, vq = term.split("*")
        key = (int(up.removeprefix("u^")), int(vq.removeprefix("v^")))
        coeffs[key] = coeffs.get(key, 0) + int(c)
    return BivariatePolynomial(coeffs)


def datum_to_text(d: RootDatum) -> str:
    """d as a datum file that root_data.parse_datum_text reads back."""
    lines = [f"rank {d.rank}", f"denominator {d.denominator}", f"label {d.label}", "basis"]
    lines += [" ".join(map(str, row)) for row in d.basis.transpose().entries]
    lines.append("gram")
    lines += [" ".join(map(str, row)) for row in d.gram]
    lines.append("generators")
    for g in d.generators:
        lines += [" ".join(map(str, row)) for row in g.entries]
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
