"""Exact computer algebra for chain (Weitzenboeck) derivations.

Core pieces: sparse rational polynomials (`poly`), the down-shift
derivation and its known kernel generators (`derivation`), exact graded
kernel dimensions, bases and completeness certificates, whose ranks,
bases and `express` combinations come from one fraction-free forward
elimination (`kernel`), and the classical covariant calculus of linear
binary forms (`covariants`).
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
    completeness_check,
    evaluate_combination,
    express_in_generators,
    generator_products,
    graded_monomials,
    kernel_basis,
    kernel_dim,
    kernel_piece_basis,
    piece_keys,
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
    "tau",
    "transvectant",
    "x",
    "y",
    "z",
]

__version__ = "0.1.0"
