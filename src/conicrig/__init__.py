"""Infinitesimal rigidity of pseudo-range (conic) frameworks."""

from .decompose import (
    CrossCheckError,
    DecompositionInvariantError,
    DecompositionTrace,
    decompose,
    initial_decomposition,
)
from .flexcurves import (
    ConicCurveFlex,
    build_flex_curve,
    locate_second_intersection,
    sample_flex,
)
from .frameworks import (
    Configuration,
    ConicFramework,
    Decomposition,
    arc_pseudo_ranges,
    conic_class,
    is_decomposition_of,
    orient,
    pseudo_range,
    random_generic_configuration,
    union,
)
from .graphs import (
    ConicGraph,
    DirectedGraph,
    EuclideanGraph,
    connected_components,
    normalize_edge,
)
from .matroid import (
    RigidityOracle,
    extend_to_minimally_rigid,
    fundamental_circuit,
    swap,
)
from .onedim import flex_witness_1d, is_rigid_1d, split_arcs
from .rigidity import (
    RankReport,
    RigidityVerdict,
    conic_rigidity_matrix,
    euclidean_rigidity_matrix,
    is_infinitesimally_rigid,
    nontrivial_flex,
    numeric_rank,
    s_conic,
    s_euclidean,
    trivial_space_basis,
)

__version__ = "0.1.0"

__all__ = [
    "Configuration",
    "ConicCurveFlex",
    "ConicFramework",
    "ConicGraph",
    "CrossCheckError",
    "Decomposition",
    "DecompositionInvariantError",
    "DecompositionTrace",
    "DirectedGraph",
    "EuclideanGraph",
    "RankReport",
    "RigidityOracle",
    "RigidityVerdict",
    "arc_pseudo_ranges",
    "build_flex_curve",
    "conic_class",
    "conic_rigidity_matrix",
    "connected_components",
    "decompose",
    "euclidean_rigidity_matrix",
    "extend_to_minimally_rigid",
    "flex_witness_1d",
    "fundamental_circuit",
    "initial_decomposition",
    "is_decomposition_of",
    "is_infinitesimally_rigid",
    "is_rigid_1d",
    "locate_second_intersection",
    "nontrivial_flex",
    "normalize_edge",
    "numeric_rank",
    "orient",
    "pseudo_range",
    "random_generic_configuration",
    "sample_flex",
    "s_conic",
    "s_euclidean",
    "split_arcs",
    "swap",
    "trivial_space_basis",
    "union",
]
