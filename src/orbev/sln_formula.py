"""Closed form for E_orb((A ⊗ Λ)/S_n) on SL(n)/Z_m coweight data.

    E_orb = (1/E(A)) · Σ_{α ∈ P(n)} τ_{l,m}^{g(α),d} · (uv)^{n-|α|} · Π_i E(Sym^{α_i} A)

with l = n/m, g(α) the gcd of the part lengths of α, d the number of U(1)
factors of A, and τ the count of pairs in the g-torsion of (A, Â) annihilated
by (m,g) and (l,g) respectively whose pairing is trivial.  Only τ depends on m,
and only through g(α), so the sum is taken in the grouped form

    E_orb = (1/E(A)) · Σ_g τ_{l,m}^{g,d} · S_g(n),
    S_g(n) = Σ_{α : g(α) = g} (uv)^{n-|α|} · Π_i E(Sym^{α_i} A),

with each S_g(n) built once per (n, E(A), d) and shared by every m | n.  This
module is the independent oracle for the general conjugacy-class engine on
type A.

Every polynomial of the sum is held as one int, its Kronecker image: the value
at u = X, v = X^D with X = 2^K.  P ↦ P(X, X^D) is a ring map, so sums,
products and monomial shifts on the images are exact whatever their size; a
polynomial with u-degree below D and every coefficient in [-2^(K-1), 2^(K-1))
is read back from its image as signed K-bit digits, the digit at p + D·q being
the coefficient of u^p v^q.  The layout is fixed per (n, E(A), d):

- D = 0 when every term of E(A) has p = q, as for (uv - 1)^2: then every
  polynomial of the sum lies in ℤ[uv], the image is P(X, 1), still a ring
  map, and digit i is read back as the coefficient of u^i v^i;
- otherwise D = n·max(1, deg_u E(A)) + 1, above the u-degree of every term of
  the sum;
- K = 2 + the bit length of M = Σ_α g(α)^{2d} · Π_i C(N + α_i - 1, α_i) with
  N = ‖E(A)‖₁.  The t^a coefficient of Π (1 - x·t)^{∓e} is majorised by that of
  (1 - t)^{-N}, and τ ≤ g^{2d}, so M bounds the τ-weighted total's L1 norm.

The series step s_k ± x·s_{k-1} is then a shift and an add, a partition
product one `*`, (uv)^s a shift by s·(1 + D) digits, Σ_g τ·S_g integer
arithmetic and the division by E(A) one divmod.  Its decoded quotient Q' is
returned only when the remainder is 0, max|Q'|·‖E(A)‖₁ < 2^(K-1) and, for
D > 0, deg_u Q' + deg_u E(A) < D.  Then every coefficient of Q'·E(A) lies in
[-2^(K-1), 2^(K-1)).  For D > 0 its u-degree lies below D, so no term wraps
onto the next v-row; for D = 0, Q' and E(A) lie in ℤ[uv], where no term can
wrap, so the u-degree condition has nothing to check.  Q'·E(A) is thus read
back from its image, which is the total's, as the total is: they are equal,
and Q' is the quotient exact_divide returns.  Otherwise the total is decoded
and divided by exact_divide, which raises when the division is not exact.

A decoded polynomial's terms come out in (p, q) order, the order in which the
writer and `to_text` list them: for D > 0 by u-degree p, each as the digits
p + D·q for ascending q; for D = 0 by ascending digit.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd, prod

from .epoly import BivariatePolynomial, InexactDivisionError, PolynomialError, exact_divide


class FormulaError(PolynomialError):
    """Invalid closed-form input."""


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n as tuples of descending positive parts, in reverse-lexicographic order, (n) first.

    For a partition α, g(α) is gcd(*α), |α| is len(α), and the multiplicity α_i
    of part length i is α.count(i).
    """
    if n < 1:
        raise FormulaError("partitions(n) requires n >= 1")

    def gen(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    return tuple(gen(n, n, ()))


@lru_cache(maxsize=None)
def tau(l: int, m: int, g: int, d: int) -> int:
    """#{(r, s) ∈ Z_g^d × Z_g^d : (m,g)·r = 0 = (l,g)·s, Σ r_j s_j ≡ 0 mod g}.

    r ranges over the multiples of g/(m,g) (a box of side (m,g)) and s over the
    multiples of g/(l,g).  Summing the characters x ↦ ζ^(t·x) of Z_g over t
    counts the pairs with trivial pairing: τ = (1/g)·Σ_{t mod g} N(t)^d, where
    N(t) = Σ_{r, s} ζ^(t·r·s) over one coordinate is (m,g) times the number of
    s with t·s·(g/(m,g)) ≡ 0 mod g.
    """
    if g < 1 or d < 0 or l < 1 or m < 1:
        raise FormulaError("tau requires l, m, g >= 1 and d >= 0")
    mg = gcd(m, g)
    lg = gcd(l, g)
    step = (g // mg) * (g // lg)
    total = sum((mg * sum(1 for j in range(lg) if t * j * step % g == 0)) ** d for t in range(g))
    count, rem = divmod(total, g)
    if rem:
        raise FormulaError("character sum is not divisible by g")
    return count


def _deg_u(poly: BivariatePolynomial) -> int:
    return max((p for p, _ in poly.coeffs), default=0)


def _layout(n: int, e_a: BivariatePolynomial, d: int) -> tuple[int, int]:
    """(D, K) of the closed form's sum for n on (E(A), d); see the module docstring."""
    if d < 0:
        raise FormulaError("the number d of U(1) factors must be >= 0")
    norm = sum(abs(c) for c in e_a.coeffs.values())
    majorant = sum(
        gcd(*alpha) ** (2 * d) * prod(comb(norm + k - 1, k) for k in map(alpha.count, set(alpha)))
        for alpha in partitions(n)
    )
    width_u = 0 if all(p == q for p, q in e_a.coeffs) else n * max(1, _deg_u(e_a)) + 1
    return width_u, 2 + majorant.bit_length()


def _pack(poly: BivariatePolynomial, width_u: int, bits: int) -> int:
    """poly(X, X^D) with X = 2^K, D = width_u and K = bits."""
    return sum(c << bits * (p + width_u * q) for (p, q), c in poly.coeffs.items())


def _unpack(packed: int, width_u: int, bits: int) -> BivariatePolynomial:
    """The polynomial whose coefficients are packed's signed K-bit digits, in [-2^(K-1), 2^(K-1)).

    Adding 2^(K-1) to every digit makes them all nonnegative, so they are the
    K-character slices of one binary string; a slice equal to 2^(K-1) is a zero.
    Digit i is u^p v^q with i = p + D·q, or u^i v^i when D = 0.  The terms are
    emitted in (p, q) order: for D > 0 the digits p, p + D, p + 2D, ... for
    each p in turn.
    """
    half = 1 << (bits - 1)
    count = packed.bit_length() // bits + 2
    bias = half * (((1 << bits * count) - 1) // ((1 << bits) - 1))
    text = format(packed + bias, "b").zfill(bits * count)
    zero = format(half, "b")
    digits = [text[end - bits : end] for end in range(len(text), 0, -bits)]
    coeffs: dict[tuple[int, int], int] = {}
    if not width_u:
        for i, chunk in enumerate(digits):
            if chunk != zero:
                coeffs[(i, i)] = int(chunk, 2) - half
    for p in range(width_u):
        for q, chunk in enumerate(digits[p::width_u]):
            if chunk != zero:
                coeffs[(p, q)] = int(chunk, 2) - half
    return BivariatePolynomial._of(coeffs)


def _packed_series(e_a: BivariatePolynomial, a: int, width_u: int, bits: int) -> list[int]:
    """s_0, ..., s_a of Π_{p,q} (1 - u^p v^q t)^{-e^{p,q}(A)}, each packed.

    The series starts at 1 and takes, for each term e·x of E(A) with
    x = u^p v^q, the factor (1 - x·t)^{-1} e times when e > 0 (s_k += x·s_{k-1}
    for ascending k) or (1 - x·t) |e| times when e < 0, as for the odd-weight
    classes (s_k -= x·s_{k-1} for descending k).  Each step is a shift and an add.
    """
    series = [1] + [0] * a
    for (p, q), e in e_a.coeffs.items():
        shift = bits * (p + width_u * q)
        for _ in range(abs(e)):
            if e > 0:
                for k in range(1, a + 1):
                    series[k] += series[k - 1] << shift
            else:
                for k in range(a, 0, -1):
                    series[k] -= series[k - 1] << shift
    return series


def sym_e_polynomial(e_a: BivariatePolynomial, a: int) -> BivariatePolynomial:
    """E(Sym^a A) as the t^a coefficient of Π_{p,q} (1 - u^p v^q t)^{-e^{p,q}(A)}.

    s_a is read off the packed series in the layout of the closed form for
    n = a and d = 0, whose sum has s_a as the term of α = (1^a).
    """
    if a < 0:
        raise FormulaError("symmetric power requires a >= 0")
    width_u, bits = _layout(max(a, 1), e_a, 0)
    return _unpack(_packed_series(e_a, a, width_u, bits)[a], width_u, bits)


@lru_cache(maxsize=None)
def _grouped_partition_sums(n: int, e_a: BivariatePolynomial, d: int) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """(D, K, ((g, S_g(n) packed), ...)) with the g that occur in ascending order.

    One run of the packed series up to a = n gives every E(Sym^a A).
    Π_i E(Sym^{α_i} A) depends only on the multiplicities α_i, so it is built
    once per prefix of their sorted tuple and shared between partitions; that
    dict of products is dropped when the call returns.
    """
    width_u, bits = _layout(n, e_a, d)
    series = _packed_series(e_a, n, width_u, bits)
    products = {(): 1}
    sums: dict[int, int] = {}
    for alpha in partitions(n):
        mults = tuple(sorted(map(alpha.count, set(alpha))))
        for k in range(1, len(mults) + 1):
            if mults[:k] not in products:
                products[mults[:k]] = products[mults[: k - 1]] * series[mults[k - 1]]
        shift = n - len(alpha)
        g = gcd(*alpha)
        sums[g] = sums.get(g, 0) + (products[mults] << bits * shift * (1 + width_u))
    return width_u, bits, tuple(sorted(sums.items()))


def closed_form_eorb(n: int, m: int, d: int, e_a: BivariatePolynomial) -> BivariatePolynomial:
    """The assembled closed form; division by E(A) must be exact."""
    if n < 1:
        raise FormulaError("closed_form_eorb requires n >= 1")
    if m < 1 or n % m != 0:
        raise FormulaError(f"m = {m} does not divide n = {n}")
    l = n // m
    width_u, bits, sums = _grouped_partition_sums(n, e_a, d)
    total = sum(tau(l, m, g, d) * s_g for g, s_g in sums)
    packed_e = _pack(e_a, width_u, bits)
    if packed_e:
        packed_q, rem = divmod(total, packed_e)
        if not rem:
            quotient = _unpack(packed_q, width_u, bits)
            # Then Q'·E(A) fits the layout, as the total does, and has its image: it is the total.
            norm = sum(abs(c) for c in e_a.coeffs.values())
            if max(map(abs, quotient.coeffs.values()), default=0) * norm < 1 << (bits - 1) and (
                not width_u or _deg_u(quotient) + _deg_u(e_a) < width_u
            ):
                return quotient
    try:
        return exact_divide(_unpack(total, width_u, bits), e_a)
    except InexactDivisionError as exc:
        raise FormulaError(
            "division by E(A) is not exact; the (E_A, d) pair is inconsistent"
        ) from exc
