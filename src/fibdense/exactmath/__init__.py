"""Exact arithmetic kernel: rationals, polynomials, quadratic number fields, Q(t)."""

from .poly import (
    Poly,
    divide_out_roots,
    format_poly,
    poly,
    poly_gcd,
    rational_roots,
    resultant_bivariate,
    squarefree_decompose,
    squarefree_part,
)
from .numfield import NumField, NumFieldElement, quadratic_field
from .ratfn import RatFn, ratfn
from .rationals import (
    Rat,
    enumerate_rationals,
    is_square,
    rat_from_string,
    rat_height,
    rat_sqrt,
    rat_to_string,
)

__all__ = [
    "Poly",
    "divide_out_roots",
    "format_poly",
    "poly",
    "poly_gcd",
    "rational_roots",
    "resultant_bivariate",
    "squarefree_decompose",
    "squarefree_part",
    "NumField",
    "NumFieldElement",
    "quadratic_field",
    "RatFn",
    "ratfn",
    "Rat",
    "enumerate_rationals",
    "is_square",
    "rat_from_string",
    "rat_height",
    "rat_sqrt",
    "rat_to_string",
]
