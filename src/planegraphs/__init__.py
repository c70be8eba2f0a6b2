"""Exact plane-graph enumeration and verification on small integer point sets.

The public names below resolve on first use (a module ``__getattr__``, PEP
562): ``from planegraphs import count_plane_graphs`` or
``planegraphs.count_plane_graphs`` imports the submodule that defines the
name, and nothing else.  A command-line run of ``count`` therefore never
loads the verifiers, the charging audit, the constructions or mpmath.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "geometry": (
        "COORD_LIMIT", "GeneralPositionError", "PointSet", "PtsFormatError", "convex_hull",
        "is_triangular_hull", "load_pts", "orientation", "parse_pts", "save_pts",
    ),
    "crossings": (
        "CrossingSets", "SEGMENT_INDEXING", "SegmentTable", "build_crossing_sets",
        "build_segment_table",
    ),
    "enumeration": (
        "DegreeExpectation", "EnumerationLimitError", "SelfCheckError", "TriangulationRecord",
        "TriangulationStats", "count_plane_graphs", "enumerate_plane_graphs",
        "enumerate_triangulations", "expected_degree_vector", "is_triangulation",
    ),
    "charging": (
        "charge_audit", "family_census", "family_charge_profile", "graph_charge_v0",
        "lp_charge_cap", "max_family_charge", "visibility",
    ),
    "constructions": (
        "ConstructionSpec", "flajolet_noy_approx", "gen_cap_with_apex", "gen_convex_chain",
        "gen_triangular_hull_random",
    ),
    "verify": (
        "VerificationReport", "run_claims", "verify_graph_charge_cap", "verify_previous_lower",
        "verify_product_law", "verify_triangulation_degree_lemmas", "verify_v0_upper",
        "verify_vi_upper", "verify_visibility_lemma", "verify_zero_ving_recurrence",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "certified", "reports")

__all__ = list(_HOME)


def __getattr__(name: str):
    """The public name `name` from its submodule, or a submodule itself."""
    module = _HOME.get(name)
    if module is not None:
        return getattr(import_module(f"{__name__}.{module}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
