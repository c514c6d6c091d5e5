"""Exact computer algebra for chain (Weitzenboeck) derivations.

Core pieces: sparse rational polynomials (`poly`), the down-shift
derivation and its known kernel generators (`derivation`), exact graded
nullspace computation and completeness certificates (`kernel`), and the
classical covariant calculus of linear binary forms (`covariants`).
"""

from .covariants import Covariant, jacobian, linear_form, tau, transvectant
from .derivation import GeneratorSet, WeitzenboeckDerivation, generators
from .errors import (
    AmbientMismatch,
    IndexOutOfRange,
    InvalidKey,
    NegativeOrder,
    NonHomogeneous,
    NonHomogeneousOrder,
    NotInKernel,
    NotInSpan,
    ParseError,
    UnknownLabel,
    UnknownVariable,
    UnsupportedK,
)
from .kernel import (
    CompletenessReport,
    GradedPieceKey,
    PieceReport,
    Product,
    completeness_check,
    evaluate_combination,
    express_in_generators,
    generator_products,
    graded_monomials,
    kernel_basis,
    kernel_dim,
    kernel_piece_basis,
    piece_keys,
    span_dimension,
)
from .poly import (
    COV_X,
    COV_Y,
    Ambient,
    Polynomial,
    Variable,
    parse,
    ring_var,
    x,
    y,
    z,
)

__all__ = [
    "Ambient",
    "AmbientMismatch",
    "COV_X",
    "COV_Y",
    "CompletenessReport",
    "Covariant",
    "GeneratorSet",
    "GradedPieceKey",
    "IndexOutOfRange",
    "InvalidKey",
    "NegativeOrder",
    "NonHomogeneous",
    "NonHomogeneousOrder",
    "NotInKernel",
    "NotInSpan",
    "ParseError",
    "PieceReport",
    "Polynomial",
    "Product",
    "UnknownLabel",
    "UnknownVariable",
    "UnsupportedK",
    "Variable",
    "WeitzenboeckDerivation",
    "completeness_check",
    "evaluate_combination",
    "express_in_generators",
    "generator_products",
    "generators",
    "graded_monomials",
    "jacobian",
    "kernel_basis",
    "kernel_dim",
    "kernel_piece_basis",
    "linear_form",
    "parse",
    "piece_keys",
    "ring_var",
    "span_dimension",
    "tau",
    "transvectant",
    "x",
    "y",
    "z",
]

__version__ = "0.1.0"
