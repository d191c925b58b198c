"""Exact matroid log-concavity toolkit.

Matroid generating polynomials, exact Hessian inertia, degree-1
Lefschetz/Hodge-Riemann point checks, matroid-morphism degeneracy, and
exhaustive verification surveys over all labeled matroids on small ground
sets.  Everything is arbitrary-precision rational; nothing here floats.
"""

from .lefschetz import (
    gradient_rank,
    hessian_inertia,
    lorentzian_decide,
    lorentzian_witness,
)
from .linalg import Inertia, char_poly, inertia, matrix_rank
from .matroids import (
    EmptyBasesError,
    ExchangeViolationError,
    Matroid,
    MatroidError,
    NotAFlatError,
    ParallelDecomposition,
    UnequalCardinalityError,
    catalog,
    contract,
    delete,
    direct_sum,
    elems_of,
    from_json_dict,
    graphic,
    mask_of,
    restrict,
    simplify,
    truncate,
    uniform,
    validate_bases,
)
from .morphisms import (
    AnnihilatorCheckFailed,
    DegeneracyVerdict,
    EurHuhEntry,
    FlatPreimageViolation,
    ImageRankDeficient,
    MatroidMorphism,
    MorphismBases,
    MorphismError,
    basis_family,
    degeneracy_class,
    enumerate_morphisms,
    eur_huh_profile,
    morphism_bases,
    morphism_from_json_dict,
    morphism_poly,
    validate_morphism,
)
from .polynomials import (
    HessianPlan,
    HomogPoly,
    basis_poly,
    evaluate,
    gradient_matrix,
    hessian_matrix,
    indep_poly,
    linear_apply,
    partial,
    poly_json,
    poly_str,
    reduced_indep_poly,
)
from .sampling import SplitMix64, derive, seeded_point
from .verify import (
    MasonBasisReport,
    MasonIndepReport,
    SurveyReport,
    mason_basis_check,
    mason_indep_check,
    morphism_suite,
    survey,
    theorem_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
