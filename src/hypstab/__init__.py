"""Exact stability analysis of projective hypersurfaces.

Decides or bounds GIT stability: verifies destabilization certificates in
exact rational arithmetic, searches for torus-destabilizing weight vectors
by exact linear programming over the support, and evaluates closed-form
sufficient criteria from singularity data (multiplicity, singular-locus
dimension, Hessian rank).
"""

__version__ = "0.1.0"

from .certificates import Certificate, CertificateError, verify_certificate
from .criteria import (
    SingularityProfile,
    combined_verdict,
    compare_bounds,
    evaluate_degree_bound,
    evaluate_hessian_corank_bound,
    evaluate_hessian_rank_bound,
    evaluate_mordant,
    evaluate_multiplicity_bound,
    literature_lookup,
)
from .families import family_certificate, family_poly, family_weights
from .linalg import RationalMatrix, apply_linear_change
from .local_analysis import (
    LocalData,
    ProjectivePoint,
    analyze_point,
    essential_variable_count,
    scan_singular_points,
)
from .polynomials import (
    HomogeneousPoly,
    PolyError,
    PolyParseError,
    format_poly,
    parse_poly,
    parse_poly_infer,
)
from .report import AnalysisOptions, AnalysisReport, analyze
from .search import SearchConfig, SearchOutcome, search_destabilization
from .torus import TorusDecision, enumerate_weight_oracle, torus_destabilize
from .verdicts import Reason, StabilityVerdict, Status
from .weights import WeightVector, membership, weight_of

__all__ = [
    "AnalysisOptions",
    "AnalysisReport",
    "Certificate",
    "CertificateError",
    "HomogeneousPoly",
    "LocalData",
    "PolyError",
    "PolyParseError",
    "ProjectivePoint",
    "RationalMatrix",
    "Reason",
    "SearchConfig",
    "SearchOutcome",
    "SingularityProfile",
    "StabilityVerdict",
    "Status",
    "TorusDecision",
    "WeightVector",
    "analyze",
    "analyze_point",
    "apply_linear_change",
    "combined_verdict",
    "compare_bounds",
    "enumerate_weight_oracle",
    "essential_variable_count",
    "evaluate_degree_bound",
    "evaluate_hessian_corank_bound",
    "evaluate_hessian_rank_bound",
    "evaluate_mordant",
    "evaluate_multiplicity_bound",
    "family_certificate",
    "family_poly",
    "family_weights",
    "format_poly",
    "literature_lookup",
    "membership",
    "parse_poly",
    "parse_poly_infer",
    "scan_singular_points",
    "search_destabilization",
    "torus_destabilize",
    "verify_certificate",
    "weight_of",
]
