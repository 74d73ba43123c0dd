"""Exact gamma-filtration computations for lambda-ring models.

The package represents rings that are finitely generated as abelian groups
by structure constants over a canonical basis, equips them with exterior
power operations given by truncated series, and computes the associated
descending filtration, its graded pieces, and the quotient by hyperbolic
classes.  Builtin models cover points, projective spaces, punctured affine
spaces, and a product surface; everything is exact integer arithmetic.
"""

from .abelian import GroupPresentation, Subgroup
from .filtration import (
    FiltrationResult,
    gamma_filtration,
    witt_filtration,
    witt_quotient,
)
from .lambdaring import (
    RingElement,
    RingModel,
    gamma_k,
    gamma_total,
    lambda_k,
    lambda_total,
    psi_k,
    validate_model,
    verify_special_pair,
)
from .milnor import F2Poly, omega, top_class_product, top_class_sum
from .models import (
    BUILTINS,
    gw_point,
    gw_projective,
    gw_punctured_a5,
    gw_punctured_line,
    gw_surface_cxp1,
    line_elements,
)
from .series import TruncSeries

__all__ = [
    "BUILTINS",
    "F2Poly",
    "FiltrationResult",
    "GroupPresentation",
    "RingElement",
    "RingModel",
    "Subgroup",
    "TruncSeries",
    "gamma_filtration",
    "gamma_k",
    "gamma_total",
    "gw_point",
    "gw_projective",
    "gw_punctured_a5",
    "gw_punctured_line",
    "gw_surface_cxp1",
    "lambda_k",
    "lambda_total",
    "line_elements",
    "omega",
    "psi_k",
    "top_class_product",
    "top_class_sum",
    "validate_model",
    "verify_special_pair",
    "witt_filtration",
    "witt_quotient",
]
