"""Closed form for E_orb((A ⊗ Λ)/S_n) on SL(n)/Z_m coweight data.

    E_orb = (1/E(A)) · Σ_{α ∈ P(n)} τ_{l,m}^{g(α),d} · (uv)^{n-|α|} · Π_i E(Sym^{α_i} A)

with l = n/m, g(α) the gcd of the part lengths of α, d the number of U(1)
factors of A, and τ the count of pairs in the g-torsion of (A, Â) annihilated
by (m,g) and (l,g) respectively whose pairing is trivial.  This module is the
independent oracle for the general conjugacy-class engine on type A.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd

from .epoly import BivariatePolynomial, InexactDivisionError, PolynomialError, exact_divide


class FormulaError(PolynomialError):
    """Invalid closed-form input."""


@dataclass(frozen=True)
class Partition:
    """Partition stored as parts in descending order."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise FormulaError("a partition needs positive parts")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise FormulaError("parts must be in descending order")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def size(self) -> int:
        """|α| = number of parts (total multiplicity)."""
        return len(self.parts)

    @property
    def g(self) -> int:
        """gcd of the part lengths that occur."""
        out = 0
        for p in self.parts:
            out = gcd(out, p)
        return out

    def multiplicities(self) -> dict[int, int]:
        """α_i = number of parts of length i."""
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if n < 1:
        raise FormulaError("partitions(n) requires n >= 1")

    def gen(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield Partition(prefix)
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


@lru_cache(maxsize=None)
def sym_e_polynomial(e_a: BivariatePolynomial, a: int) -> BivariatePolynomial:
    """E(Sym^a A) as the t^a coefficient of Π_{p,q} (1 - u^p v^q t)^{-e^{p,q}(A)}.

    Positive exponents e expand as truncated geometric/binomial series; the
    negative exponents of odd-weight classes give honest polynomial factors
    (1 - u^p v^q t)^{|e|}.
    """
    if a < 0:
        raise FormulaError("symmetric power requires a >= 0")
    # Series in t, truncated at degree a; coefficients are polynomials in u, v.
    series: list[BivariatePolynomial] = [BivariatePolynomial.one()] + [
        BivariatePolynomial.zero() for _ in range(a)
    ]
    for (p, q), e in sorted(e_a.coeffs.items()):
        if type(e) is not int:
            raise FormulaError("E-polynomial exponents e^{p,q} must be integers")
        mono = BivariatePolynomial.monomial(p, q)
        factor: list[BivariatePolynomial] = []
        if e > 0:
            # (1 - x t)^{-e} = Σ_j C(e+j-1, j) x^j t^j
            power = BivariatePolynomial.one()
            for j in range(a + 1):
                factor.append(power.scale(comb(e + j - 1, j)))
                power = power * mono
        else:
            # (1 - x t)^{|e|}, a finite binomial
            k = -e
            power = BivariatePolynomial.one()
            for j in range(min(k, a) + 1):
                factor.append(power.scale((-1) ** j * comb(k, j)))
                power = power * mono
            factor += [BivariatePolynomial.zero()] * (a + 1 - len(factor))
        series = [
            sum(
                (series[i] * factor[k - i] for i in range(k + 1)),
                BivariatePolynomial.zero(),
            )
            for k in range(a + 1)
        ]
    return series[a]


def closed_form_eorb(n: int, m: int, d: int, e_a: BivariatePolynomial) -> BivariatePolynomial:
    """The assembled closed form; division by E(A) must be exact."""
    if n < 1:
        raise FormulaError("closed_form_eorb requires n >= 1")
    if m < 1 or n % m != 0:
        raise FormulaError(f"m = {m} does not divide n = {n}")
    l = n // m
    total = BivariatePolynomial.zero()
    for alpha in partitions(n):
        term = BivariatePolynomial.constant(tau(l, m, alpha.g, d))
        term = term * BivariatePolynomial.monomial(n - alpha.size, n - alpha.size)
        for _, mult in sorted(alpha.multiplicities().items()):
            term = term * sym_e_polynomial(e_a, mult)
        total = total + term
    try:
        return exact_divide(total, e_a)
    except InexactDivisionError as exc:
        raise FormulaError(
            "division by E(A) is not exact; the (E_A, d) pair is inconsistent"
        ) from exc
