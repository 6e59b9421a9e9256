"""Combinatorial Hodge theory on simplicial complexes.

Simplicial complexes, boundary matrices over GF(2) and the oriented reals,
Betti numbers, Hodge Laplacians and decomposition, simplicial Fourier
transforms and polynomial filters, and cellular sheaves with their
coboundaries, cohomology, and Laplacians.
"""

from .chains import (
    Cochain,
    Field,
    SparseMatrix,
    add,
    apply,
    boundary_matrix,
    coboundary_matrix,
    compose,
    transpose,
)
from .complex import Simplex, SimplicialComplex, build_complex
from .errors import HodgekitError
from .filters import FilterSpec, apply_filter, build_filter, filter_signal, shift
from .hodge import (
    HodgeOperators,
    InnerProductWeights,
    adjoint_boundary,
    gradient,
    harmonic_basis,
    hodge_decompose,
    hodge_laplacian,
    hodge_spectrum,
    inner_product,
)
from .homology import (
    RankProfile,
    betti,
    connected_components,
    rank_gf2,
    rank_real,
    replay_gf2_ops,
    snf_gf2,
)
from .sheaf import (
    Assignment,
    Sheaf,
    check_consistency,
    constant_sheaf,
    sheaf_coboundary,
    sheaf_cohomology_dims,
    sheaf_laplacian,
)
from .spectral import (
    SpectraReport,
    SpectralBasis,
    compare_spectra,
    eigendecompose,
    eigenvalues,
    inverse_sft,
    sft,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "Cochain",
    "Field",
    "FilterSpec",
    "HodgeOperators",
    "HodgekitError",
    "InnerProductWeights",
    "RankProfile",
    "Sheaf",
    "Simplex",
    "SimplicialComplex",
    "SparseMatrix",
    "SpectraReport",
    "SpectralBasis",
    "add",
    "adjoint_boundary",
    "apply",
    "apply_filter",
    "betti",
    "boundary_matrix",
    "build_complex",
    "build_filter",
    "check_consistency",
    "coboundary_matrix",
    "compare_spectra",
    "compose",
    "connected_components",
    "constant_sheaf",
    "eigendecompose",
    "eigenvalues",
    "filter_signal",
    "gradient",
    "harmonic_basis",
    "hodge_decompose",
    "hodge_laplacian",
    "hodge_spectrum",
    "inner_product",
    "inverse_sft",
    "rank_gf2",
    "rank_real",
    "replay_gf2_ops",
    "sft",
    "sheaf_coboundary",
    "sheaf_cohomology_dims",
    "sheaf_laplacian",
    "shift",
    "snf_gf2",
    "transpose",
]
