"""Wiener polynomials of connected graphs and the location of their roots."""

from .graph_core import (
    DisconnectedGraphError,
    EnumerationStats,
    Graph,
    Graph6Error,
    diameter,
    distance_distribution,
    distance_distributions,
    enumerate_connected_distributions,
    enumerate_trees,
    from_edge_list,
    load_fixture,
    parse_graph6,
)
from .polynomial import (
    Annulus,
    ComplexRoot,
    PurelyImaginaryRoot,
    RootFindingError,
    WienerPolynomial,
    enestrom_kakeya,
    evaluate,
    evaluate_gaussian,
    purely_imaginary_roots,
    roots,
    roots_batch,
    wiener_index,
)
from .families import (
    FamilySpec,
    dense_construct,
    family_graph,
    family_polynomial,
    leaf_augment,
    parse_family_spec,
    tree_dense_construct,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
