"""Exact computational engine for a-regularity of reductive pairs.

Decides whether a pair (g, h) of a classical semisimple Lie algebra and a
reductive subalgebra is a-regular -- equivalently, whether the orthogonal
complement of h under the Killing form meets the regular locus of g -- by
several independent exact/certified-randomized criteria, cross-checks the
embedded classification tables, and constructs regular Slodowy slices.
"""

from .exact_linalg import Subspace, kernel, solve_linear
from .lie_core import LieAlgebra, SimpleFactorDescriptor, UnsupportedTypeError, build_algebra
from .subalgebras import (
    Embedding,
    GenericStabilizerReport,
    IdealDecomposition,
    decompose_reductive,
    embed,
    generic_stabilizer,
    perp,
    stabilizer,
)
from .criteria import (
    DecisionConfig,
    RouteDisagreementError,
    Verdict,
    decide,
    decide_abelian_stabilizer,
    decide_numerical,
    decide_regular_element,
    knop_invariants,
    satake_route,
)
from .decomposition import PairFactorization, combined_verdict, is_strictly_indecomposable, split_pair
from .catalog import Catalog, CatalogRow, default_catalog, verify_row
from .slodowy import (
    Sl2Triple,
    SlodowySlice,
    principal_sl2,
    slice_nonempty,
    slice_regularity_check,
    slice_representative_sl,
    slodowy_slice,
)

__all__ = [
    "Subspace",
    "kernel",
    "solve_linear",
    "LieAlgebra",
    "SimpleFactorDescriptor",
    "UnsupportedTypeError",
    "build_algebra",
    "Embedding",
    "GenericStabilizerReport",
    "IdealDecomposition",
    "decompose_reductive",
    "embed",
    "generic_stabilizer",
    "perp",
    "stabilizer",
    "DecisionConfig",
    "RouteDisagreementError",
    "Verdict",
    "decide",
    "decide_abelian_stabilizer",
    "decide_numerical",
    "decide_regular_element",
    "knop_invariants",
    "satake_route",
    "PairFactorization",
    "combined_verdict",
    "is_strictly_indecomposable",
    "split_pair",
    "Catalog",
    "CatalogRow",
    "default_catalog",
    "verify_row",
    "Sl2Triple",
    "SlodowySlice",
    "principal_sl2",
    "slice_nonempty",
    "slice_regularity_check",
    "slice_representative_sl",
    "slodowy_slice",
]

__version__ = "0.1.0"
