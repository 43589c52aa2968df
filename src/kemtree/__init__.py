"""Exact Kemeny's constant and Wiener index computations on trees and graphs.

The package exports are resolved lazily (PEP 562): `kemtree.Tree` imports
`kemtree.graphs` on first read and caches the value here, so a program
loads only the submodules whose names it uses. `from kemtree import
prufer_oracle_count` loads `enumeration` and `errors`, not `graphs`,
`invariants`, `linalg`, `sparse` or `transforms`.
"""

# submodule -> the names it exports
_EXPORTS = {
    "errors": (
        "DisconnectedError",
        "InputError",
        "KemtreeError",
        "NotABridgeConfigError",
        "NotATreeError",
        "ParseError",
        "PathTooShortError",
        "ResourceLimitError",
        "RouteRequiresTreeError",
        "TheoremViolationError",
    ),
    "graphs": (
        "DistanceMatrix",
        "Graph",
        "Tree",
        "all_pairs_distances",
        "leaf_center_distances",
        "parse_edge_list",
        "tree_from_edges",
        "tree_from_graph",
    ),
    "linalg": ("det_exact", "laplacian", "spanning_tree_count", "two_forest_count"),
    "invariants": (
        "InvariantReport",
        "KemenyRoute",
        "WeightedEdgeMap",
        "compute_invariants",
        "format_exact",
        "format_rational",
        "gutman_index",
        "kemeny_edge_cut_route",
        "kemeny_forest_route",
        "kemeny_from_wiener",
        "kemeny_wiener_route",
        "omega_weights",
        "wiener_distance_route",
        "wiener_edge_cut_route",
    ),
    "sparse": ("kemeny_sparse_route",),
    "enumeration": (
        "CanonicalCode",
        "TreeEntry",
        "TreeFamily",
        "canonical_code",
        "census_line",
        "enumerate_trees",
        "family",
        "parse_census_line",
        "prufer_oracle_count",
    ),
    "transforms": (
        "CoverWitness",
        "MatePair",
        "PathDecomposition",
        "apply_op1",
        "apply_op2",
        "covers",
        "decompose_path",
        "generate_mates_op1",
        "maximal_elements",
        "op1_delta_formula",
        "op2_delta_formula",
        "theorem_leaf_filter",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # the __import__ builtin, unlike importlib, shows in `python -X importtime`
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
