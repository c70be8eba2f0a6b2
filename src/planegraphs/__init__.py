"""Exact plane-graph enumeration and verification on small integer point sets."""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    COORD_LIMIT,
    GeneralPositionError,
    Orientation,
    Point,
    PointSet,
    PtsFormatError,
    convex_hull,
    general_position_violations,
    is_triangular_hull,
    load_pts,
    orientation,
    parse_pts,
    save_pts,
    segments_cross,
)
from .crossings import (  # noqa: F401
    CrossingSets,
    SEGMENT_INDEXING,
    SegmentTable,
    build_crossing_sets,
    build_segment_table,
)
from .enumeration import (  # noqa: F401
    DegreeExpectation,
    EnumerationLimitError,
    TriangulationRecord,
    TriangulationStats,
    containing_triangulation,
    count_plane_graphs,
    enumerate_plane_graphs,
    enumerate_triangulations,
    expected_degree_vector,
    is_triangulation,
)
from .charging import (  # noqa: F401
    charge_audit,
    family_census,
    family_charge_profile,
    family_members,
    family_root,
    graph_charge_v0,
    lp_charge_cap,
    max_family_charge,
    potential,
    visibility,
)
from .constructions import (  # noqa: F401
    ConstructionSpec,
    flajolet_noy_approx,
    gen_cap_with_apex,
    gen_convex_chain,
    gen_triangular_hull_random,
)
from .verify import (  # noqa: F401
    VerificationReport,
    run_claims,
    verify_graph_charge_cap,
    verify_previous_lower,
    verify_product_law,
    verify_triangulation_degree_lemmas,
    verify_v0_upper,
    verify_vi_upper,
    verify_visibility_lemma,
    verify_zero_ving_recurrence,
)
