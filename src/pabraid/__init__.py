"""Exact-arithmetic toolkit for the dilatations of two families of
pseudo-Anosov braids: polynomials, transition matrices, certified root
enclosures, unit-circle statistics and horseshoe orbit codes."""

from .poly import (
    IntPolynomial,
    SalemBoydSpec,
    Sign,
    SymmetryClass,
    reciprocal,
    salem_boyd,
    symmetry_class,
)
from .linalg import IntMatrix, bareiss_determinant, char_poly, is_irreducible, perron_root
from .spectral import (
    ConvergenceError,
    NoRealRootError,
    RootApprox,
    RootEnclosure,
    UnitCircleCensus,
    all_roots,
    count_outside_unit,
    largest_real_root,
    mahler_measure,
)
from .families import (
    DilatationResult,
    Family,
    FamilyParams,
    MinimizerReport,
    OracleMismatchError,
    Provenance,
    SingularityData,
    TNKind,
    classify,
    closed_form_poly,
    dilatation,
    kernel_vector,
    minimizer,
    orientable_lift,
    r_matrix,
    r_poly,
    singularity_data,
    transition_matrix,
)
from .horseshoe import CodeOrbit, FamilyMatch, canonicalize, code_to_family, family_to_codes

__version__ = "0.1.0"
