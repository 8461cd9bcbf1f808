"""Exact bivariate polynomials in u, v and the E-characters of space factors.

Every E-computation in the package is valued in BivariatePolynomial: a map
from (degree_u, degree_v) to a nonzero int coefficient.  An E-polynomial
counts Hodge numbers, so its coefficients are integers, and so is each
centralizer average the engine forms (a dimension of invariants); a division
that leaves a remainder raises where it happens, and nothing rational is
carried.

A SpaceDescriptor is an ordered list of factors (elliptic | c_star |
affine_line, each tensored with the primal or dual lattice); the E-character
of a finite-order lattice automorphism c on each factor kind is a
characteristic-polynomial expression:

    elliptic:     det(1 - u·c) · det(1 - v·c)
    c_star:       det(uv·1 - c)
    affine_line:  (uv)^rank
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from typing import Mapping, Sequence

from .lattice_core import IntegerMatrix, LatticeError


class PolynomialError(LatticeError):
    """Invalid polynomial operation."""


class InexactDivisionError(PolynomialError):
    """Polynomial division left a nonzero remainder."""


class BivariatePolynomial:
    """Polynomial in u, v; each exponent is an int, each coefficient a nonzero int (a bool, Fraction or float raises)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], int] | None = None):
        cleaned: dict[tuple[int, int], int] = {}
        if coeffs:
            for (p, q), c in coeffs.items():
                if type(c) is not int:
                    raise PolynomialError(f"coefficients must be int, not {type(c).__name__}")
                if type(p) is not int or type(q) is not int:
                    raise PolynomialError(f"exponents must be int: {(p, q)!r}")
                if c:
                    if p < 0 or q < 0:
                        raise PolynomialError("negative exponents are not supported")
                    cleaned[(p, q)] = c
        object.__setattr__(self, "coeffs", cleaned)

    @staticmethod
    def _of(coeffs: dict[tuple[int, int], int]) -> "BivariatePolynomial":
        """Wrap arithmetic on valid terms, dropping zeros."""
        out = object.__new__(BivariatePolynomial)
        object.__setattr__(out, "coeffs", {k: c for k, c in coeffs.items() if c})
        return out

    def __setattr__(self, name, value):
        raise AttributeError("BivariatePolynomial is immutable")

    def __reduce__(self):
        return BivariatePolynomial, (self.coeffs,)

    @staticmethod
    def zero() -> "BivariatePolynomial":
        return BivariatePolynomial()

    @staticmethod
    def one() -> "BivariatePolynomial":
        return BivariatePolynomial({(0, 0): 1})

    @staticmethod
    def constant(c: int) -> "BivariatePolynomial":
        return BivariatePolynomial({(0, 0): c})

    @staticmethod
    def monomial(p: int, q: int, c: int = 1) -> "BivariatePolynomial":
        return BivariatePolynomial({(p, q): c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if type(other) is int:
            other = BivariatePolynomial.constant(other)
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return BivariatePolynomial._of(out)

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return self + (-other)

    def __neg__(self) -> "BivariatePolynomial":
        return BivariatePolynomial._of({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) == 1 or len(b) == 1:
            # A one-term factor moves every exponent of the other: no two terms collide.
            if len(b) != 1:
                a, b = b, a
            ((p2, q2), c2), = b.items()
            return BivariatePolynomial._of({(p1 + p2, q1 + q2): c1 * c2 for (p1, q1), c1 in a.items()})
        out: dict[tuple[int, int], int] = {}
        for (p1, q1), c1 in a.items():
            for (p2, q2), c2 in b.items():
                key = (p1 + p2, q1 + q2)
                out[key] = out.get(key, 0) + c1 * c2
        return BivariatePolynomial._of(out)

    def __pow__(self, n: int) -> "BivariatePolynomial":
        if n < 0:
            raise PolynomialError("negative powers are not supported")
        result = BivariatePolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c: int) -> "BivariatePolynomial":
        return self * BivariatePolynomial.constant(c)

    def times_monomial(self, p: int, q: int) -> "BivariatePolynomial":
        """self · u^p v^q, by moving every exponent.

        The coefficients are self's, which are valid already, so they are not re-scanned.
        """
        if p < 0 or q < 0:
            raise PolynomialError("negative exponents are not supported")
        out = object.__new__(BivariatePolynomial)
        object.__setattr__(out, "coeffs", {(a + p, b + q): c for (a, b), c in self.coeffs.items()})
        return out

    def sorted_terms(self) -> list[tuple[int, int, int]]:
        return [(p, q, self.coeffs[(p, q)]) for p, q in sorted(self.coeffs)]

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*u^{p}*v^{q}" for p, q, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"BivariatePolynomial({self.to_text()})"


def exact_divide(p: BivariatePolynomial, q: BivariatePolynomial) -> BivariatePolynomial:
    """r with r·q = p; raises InexactDivisionError when no such polynomial exists.

    Long division on lex-leading terms, (degree_u, degree_v) compared in that
    order.  The remainder's leading key comes from a max-heap (keys negated);
    a key whose coefficient has cancelled stays in the heap and is skipped when
    it surfaces.  Every key a step adds is below the one it removes, so no
    popped key comes back.  Quotient coefficients come from divmod (`/` on ints
    would round through a float), and a leading coefficient that q's does not
    divide raises InexactDivisionError, since the quotient must be integral.
    """
    if q.is_zero():
        raise PolynomialError("division by the zero polynomial")
    remainder = dict(p.coeffs)
    heap = [(-a, -b) for a, b in remainder]
    heapify(heap)
    q_lead = max(q.coeffs)
    q_lead_coeff = q.coeffs[q_lead]
    # c·q_lead_coeff equals the leading coefficient exactly, so that term just goes.
    q_rest = [(key, c) for key, c in q.coeffs.items() if key != q_lead]
    quotient: dict[tuple[int, int], int] = {}
    while heap:
        neg_p, neg_q = heappop(heap)
        a = remainder.pop((-neg_p, -neg_q), 0)
        if not a:
            continue
        dp, dq = -neg_p - q_lead[0], -neg_q - q_lead[1]
        if dp < 0 or dq < 0:
            raise InexactDivisionError("division is not exact")
        c, rem = divmod(a, q_lead_coeff)
        if rem:
            raise InexactDivisionError("division is not exact over the integers")
        quotient[(dp, dq)] = c
        for (p2, q2), c2 in q_rest:
            key = (p2 + dp, q2 + dq)
            old = remainder.pop(key, None)
            s = (0 if old is None else old) - c * c2
            if s:
                remainder[key] = s
                if old is None:
                    heappush(heap, (-key[0], -key[1]))
    return BivariatePolynomial._of(quotient)


# The engine reads characteristic polynomials from traces; the tests' oracles call this
# one, and perfbench's tracer wraps it and reads its cache_info().
@lru_cache(maxsize=None)
def char_poly(m: IntegerMatrix) -> tuple[int, ...]:
    """Coefficients (c_0, ..., c_n) of det(t·1 - m) = Σ c_k t^k.

    Faddeev-LeVerrier recursion over the integers: tr(m·M_k) is divisible by
    k for an integer matrix m, so every division is exact.
    """
    if not m.is_square():
        raise PolynomialError("characteristic polynomial requires a square matrix")
    n = m.rows
    a = m.entries
    coeffs = [0] * n + [1]
    mk = a  # m·M_1 with M_1 = 1
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        if rem:
            raise PolynomialError("Faddeev-LeVerrier trace is not divisible by k")
        coeffs[n - k] = ck
        if k < n:  # m·M_{k+1} with M_{k+1} = m·M_k + c_{n-k}·1
            aux = ([x + ck if i == j else x for j, x in enumerate(row)] for i, row in enumerate(mk))
            aux_cols = tuple(zip(*aux))
            mk = [[sum(x * y for x, y in zip(row, col)) for col in aux_cols] for row in a]
    return tuple(coeffs)


def char_poly_product(coeffs: tuple[int, ...], x_monomial: tuple[int, int]) -> BivariatePolynomial:
    """det(1 - x·c) where x is the monomial u^a v^b and det(t·1 - c) = Σ coeffs[k]·t^k."""
    a, b = x_monomial
    n = len(coeffs) - 1
    # det(1 - x·c) = x^n · det((1/x)·1 - c) = Σ_k c_k x^(n-k)
    out: dict[tuple[int, int], int] = {}
    for k, ck in enumerate(coeffs):
        if ck:
            key = ((n - k) * a, (n - k) * b)
            out[key] = out.get(key, 0) + ck
    return BivariatePolynomial(out)


ELLIPTIC = "elliptic"
C_STAR = "c_star"
AFFINE_LINE = "affine_line"
PRIMAL = "primal"
DUAL = "dual"

_FACTOR_DIMENSION = {ELLIPTIC: 2, C_STAR: 1, AFFINE_LINE: 0}


def factor_dimension(kind: str) -> int:
    """Number of U(1) factors of the group A_kind (A = R^c × U(1)^d)."""
    try:
        return _FACTOR_DIMENSION[kind]
    except KeyError:
        raise PolynomialError(f"unknown factor kind {kind!r}") from None


class SpaceDescriptor:
    """Ordered factor list; each factor is (kind, lattice_side), held as a tuple of pairs.

    Equality and hashing use the factors only, so descriptors with the same
    factors share every engine cache entry whatever their names.
    """

    __slots__ = ("name", "factors")

    def __init__(self, name: str, factors: Sequence[tuple[str, str]]):
        factors = tuple((kind, side) for kind, side in factors)
        if not factors:
            raise PolynomialError("a space descriptor needs at least one factor")
        for kind, side in factors:
            factor_dimension(kind)
            if side not in (PRIMAL, DUAL):
                raise PolynomialError(f"unknown lattice side {side!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("SpaceDescriptor is immutable")

    def __reduce__(self):
        return SpaceDescriptor, (self.name, self.factors)

    def __eq__(self, other) -> bool:
        return isinstance(other, SpaceDescriptor) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"SpaceDescriptor({self.name!r}, {self.factors!r})"

    @property
    def uses_dual(self) -> bool:
        return any(side == DUAL for _, side in self.factors)


# The de Rham space is a Zariski-locally-trivial affine-line bundle over the
# elliptic-curve factor, so its E-character data coincide with Dolbeault's.
SPACES: dict[str, SpaceDescriptor] = {
    "betti": SpaceDescriptor("betti", ((C_STAR, PRIMAL), (C_STAR, PRIMAL))),
    "dolbeault": SpaceDescriptor("dolbeault", ((ELLIPTIC, PRIMAL), (AFFINE_LINE, PRIMAL))),
    "derham": SpaceDescriptor("derham", ((ELLIPTIC, PRIMAL), (AFFINE_LINE, PRIMAL))),
    "abelian-surface": SpaceDescriptor("abelian-surface", ((ELLIPTIC, PRIMAL), (ELLIPTIC, PRIMAL))),
    "mixed": SpaceDescriptor("mixed", ((ELLIPTIC, DUAL), (ELLIPTIC, PRIMAL))),
}


@lru_cache(maxsize=None)
def factor_e_character(kind: str, poly: tuple[int, ...]) -> BivariatePolynomial:
    """E-polynomial-valued trace of c on the identity component A_kind ⊗ M.

    c is a finite-order automorphism of the lattice M (for the engine: a fixed
    sublattice Λ^w), given by its characteristic polynomial det(t·1 - c) =
    Σ poly[k]·t^k, which is all the character depends on.  At c = identity
    this is the plain E-polynomial of the factor: (1-u)^r (1-v)^r, (uv-1)^r,
    and (uv)^r respectively.
    """
    if not poly or poly[-1] != 1:
        raise PolynomialError("factor_e_character requires a monic characteristic polynomial")
    if kind == ELLIPTIC:
        return char_poly_product(poly, (1, 0)) * char_poly_product(poly, (0, 1))
    if kind == C_STAR:
        # det(uv·1 - c) = Σ_k c_k (uv)^k with c_k the characteristic coefficients.
        return BivariatePolynomial({(k, k): ck for k, ck in enumerate(poly) if ck})
    if kind == AFFINE_LINE:
        return BivariatePolynomial.monomial(len(poly) - 1, len(poly) - 1)
    raise PolynomialError(f"unknown factor kind {kind!r}")
