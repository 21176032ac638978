"""Critical toric fibers from moment-polytope data.

Given a rational polytope {x : <x, v_i> >= c_i} with integer inward normals,
this package builds the superpotential of the associated toric fiber family
over a truncated Novikov ring, locates fibers carrying critical points of
that potential (with lifting certificates), and certifies displaceability of
other fibers through lattice probes.  A disk-counting cross-check and a
report/rendering layer sit on top.
"""

from .disks import (
    BlaschkeData,
    blaschke_data,
    blaschke_eval,
    boundary_class,
    disk_area,
    index_two_classes,
    maslov_index,
    potential_from_disks,
)
from .errors import (
    DegenerateDirection,
    DimensionMismatch,
    DimensionUnsupported,
    EmptyInterior,
    Inconsistent,
    InternalInconsistency,
    NegativeValuation,
    NoConvergence,
    NotAUnit,
    NotInterior,
    NotTransverse,
    SchemaError,
    SingularLeadingHessian,
    ToricFiberError,
    TruncationMismatch,
    UnboundedPolytope,
    ValidationError,
    ZeroComponent,
)
from .novikov import (
    NovikovSeries,
    constant_series,
    monomial,
    nov_close,
    nov_exp,
    nov_inverse,
    nov_pow,
    one,
    series,
    series_from_json,
    series_to_json,
    val,
    zero_series,
)
from .polytope import (
    Facet,
    MomentPolytope,
    bounding_box,
    enumerate_vertices,
    facet_values,
    is_bounded,
    is_interior,
    make_polytope,
    parse_polytope,
    polytope_to_json,
    primitive_normal,
)
from .potential import (
    Potential,
    PotentialTerm,
    build_potential,
    eval_gradient,
    eval_hessian,
    eval_potential,
    specialize_q,
    term_table,
)
from .probes import (
    Probe,
    Verdict,
    displaceable_by_probe,
    integrally_transverse,
    probe_scan,
    probe_through,
)
from .report import (
    BULK_CAVEAT,
    TOOL_VERSION,
    AnalysisReport,
    analyze,
    certificate_to_json,
    probe_to_json,
    render_svg,
    report_to_json,
    report_to_text,
    write_svg,
)
from .solver import (
    CriticalCertificate,
    LeadingSystem,
    TropicalCandidate,
    certificates_at_fiber,
    find_critical_fibers,
    graded_lift,
    leading_system,
    newton_lift,
    solve_leading,
    tropical_candidates,
)

__version__ = TOOL_VERSION
