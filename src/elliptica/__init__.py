"""Exact-arithmetic rational homotopy: Sullivan and Quillen models, their
Whitehead exact sequences, and the elliptic invariants chi, rho, and eta."""

from .commutative import Algebra, Element, Generator
from .dsl import catalog, catalog_spec, parse, parse_file, serialize
from .errors import (BadParameter, DegreeError, EllipticaError,
                     ExactnessFailure, ModelSyntaxError,
                     NotEllipticWithinBound, OddSquareError, UnboundedGamma,
                     UnknownCatalogEntry, UnknownGenerator, ValidationError)
from .invariants import (InvariantReport, QuillenAnalysis, SullivanAnalysis,
                         TheoremLedger, analysis, compare_models, full_ledger,
                         invariant_report, is_pure)
from .lie import FreeLie, LieElement, LieGenerator
from .quillen import DGLModel, eta, gamma, whitehead_sequence_dgl
from .randmodels import (random_models, random_nonelliptic_model,
                         random_nonpure_model, random_pure_model)
from .sullivan import SullivanModel, tensor_product, whitehead_sequence

__all__ = [
    "Algebra", "Element", "Generator",
    "catalog", "catalog_spec", "parse", "parse_file", "serialize",
    "BadParameter", "DegreeError", "EllipticaError", "ExactnessFailure",
    "ModelSyntaxError", "NotEllipticWithinBound", "OddSquareError",
    "UnboundedGamma", "UnknownCatalogEntry", "UnknownGenerator",
    "ValidationError",
    "InvariantReport", "QuillenAnalysis", "SullivanAnalysis", "TheoremLedger",
    "analysis", "compare_models", "full_ledger", "invariant_report", "is_pure",
    "FreeLie", "LieElement", "LieGenerator",
    "DGLModel", "eta", "gamma", "whitehead_sequence_dgl",
    "random_models", "random_nonelliptic_model", "random_nonpure_model",
    "random_pure_model",
    "SullivanModel", "tensor_product", "whitehead_sequence",
]

__version__ = "0.1.0"
