"""Exact and rigorous inverses of geometric Vandermonde matrices.

The Vandermonde matrix at the geometric nodes 1, b, b^2, ..., b^(n-1) has an
inverse whose entries are signed ratios of power sums and node-gap products.
This package computes those entries exactly (rational bases) or as certified
enclosures (algebraic constant bases), locates the largest entry, evaluates
the large-n entry limits through convergent infinite products, and verifies
the structural facts that make the localization work.

Quick start::

    >>> from fractions import Fraction
    >>> import vangeo
    >>> gv = vangeo.GeometricVandermonde(vangeo.BaseSpec.rational(2), 2)
    >>> vangeo.inverse_matrix(gv).entries
    ((Fraction(2, 1), Fraction(-1, 1)), (Fraction(-1, 1), Fraction(1, 1)))
"""

from .errors import (DomainError, ParseError, SizeError, UndecidableComparisonError,
                     VangeoError)
from .extremal import (BoxCheckReport, MaxReport, conjecture_scan, max_entry, n_zero,
                       verify_argmax_box, verify_leading_diagonal_max)
from .limits import (LimitReport, LimitValue, classify_regime, limit_entry,
                     limit_max)
from .scalar import (ALPHA_POLYNOMIAL, DEFAULT_PRECISION_BITS,
                     DEFAULT_PRECISION_CEILING, TAU_POLYNOMIAL, BaseSpec,
                     RigorousReal, evaluate_base, fraction_to_decimal,
                     fraction_to_sci, resolve_precision_ceiling)
from .symfunc import elementary_symmetric, sigma_finite
from .vandinv import (GeometricVandermonde, InverseMatrix, gaussian_inverse,
                      inverse_matrix, pi_product, residual_norm)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_POLYNOMIAL", "BaseSpec", "BoxCheckReport",
    "DEFAULT_PRECISION_BITS", "DEFAULT_PRECISION_CEILING",
    "DomainError",
    "GeometricVandermonde", "InverseMatrix", "LimitReport", "LimitValue",
    "MaxReport", "ParseError", "RigorousReal",
    "SizeError", "TAU_POLYNOMIAL", "UndecidableComparisonError",
    "VangeoError", "classify_regime",
    "conjecture_scan", "elementary_symmetric", "evaluate_base",
    "fraction_to_decimal", "fraction_to_sci",
    "gaussian_inverse", "inverse_matrix", "limit_entry", "limit_max",
    "max_entry", "n_zero", "pi_product", "residual_norm",
    "resolve_precision_ceiling", "sigma_finite",
    "verify_argmax_box", "verify_leading_diagonal_max", "__version__",
]
