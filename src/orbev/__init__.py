"""Exact orbifold E-polynomials of torus quotients by Weyl groups.

The package computes, in exact integer arithmetic, orbifold E-polynomials of
quotients (A ⊗ Λ)/W where A is a one-dimensional abelian algebraic group
factor (elliptic curve, C^×, or affine line), Λ is a coweight lattice of a
reductive group, and W is its Weyl group.  It verifies mechanically that
Langlands-dual pairs of root data produce equal orbifold E-polynomials, both
through the general conjugacy-class engine and through an independent closed
form for type A.
"""

from .epoly import SPACES, BivariatePolynomial, SpaceDescriptor
from .orbifold_engine import duality_check, mirror_check, orbifold_e_polynomial
from .root_data import (
    DatumError,
    DatumFormatError,
    RootDatum,
    classical_datum,
    custom_datum,
    sl_quotient_datum,
)
from .sln_formula import closed_form_eorb

__version__ = "0.1.0"

__all__ = [
    "BivariatePolynomial",
    "DatumError",
    "DatumFormatError",
    "RootDatum",
    "SPACES",
    "SpaceDescriptor",
    "classical_datum",
    "closed_form_eorb",
    "custom_datum",
    "duality_check",
    "mirror_check",
    "orbifold_e_polynomial",
    "sl_quotient_datum",
]
