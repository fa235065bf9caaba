"""Exact combinatorics toolkit for generalized Bratteli diagrams.

Lazily evaluable infinite incidence rules, exact big-integer path
counting, certified structural probes (irreducibility, period,
connectedness, bounded-size geometry), tail-equivalence orbit probes
with machine-checkable verdicts, and the constructive relabelings that
force or break irreducibility.
"""

from .bijections import (
    VertexBijectionSeq,
    builtin_bijection,
    cone_shift,
    fill_sequence,
    identity,
    interleave,
    level_shift,
    partial_sequence,
    relabel,
)
from .catalog import CATALOG, catalog_names, make_diagram
from .diagram import (
    BandedFlag,
    BoundedSizeFlag,
    ColumnSupport,
    DiagramHandle,
    ExplicitLevelsFlag,
    FullOutColumnFlag,
    InfiniteOutDegreesFlag,
    TriangularFlag,
)
from .dot import render_dot
from .dynamics import (
    cylinders_ending_in,
    metric_dist,
    minimality_certificate,
    orbit_visits_cylinder,
    tail_equivalent,
    trace_trisection,
    transitivity_probe,
)
from .errors import (
    ConflictError,
    EmptyWindowError,
    GbdError,
    IndexingMismatchError,
    InvalidEdgeError,
    InvalidVertexError,
    InvariantError,
    NoBoundedSizeFlagError,
    NotStationaryError,
    ParseError,
    SchemaError,
    UndeclaredRowError,
    UnknownKindError,
    UnsupportedLevelError,
    WindowTooLargeError,
    WindowTooSmallError,
)
from .generators import (
    PathGenerator,
    alternating_from,
    climbing,
    cylinder_at,
    leftmost_slant_from,
    make_generator,
    parse_generator,
    prefix_from_trace,
    vertical_from,
)
from .indexing import VertexIndexing, one_sided, two_sided
from .iso import (
    IsoWitness,
    NoneWithinBudget,
    iso_search,
    verify_permutation_identity,
    verify_witness,
)
from .paths import (
    Edge,
    FinitePath,
    backward_reach_set,
    count_paths,
    enumerate_paths,
)
from .probes import (
    IrreducibilityClass,
    bounded_size_params,
    classify_irreducibility_type,
    compact_cylinder_check,
    cone_bound,
    connected_probe,
    invariant_certificate,
    irreducible_probe,
    period_of_index,
    recheck_period,
)
from .reenumerate import (
    AssignmentLog,
    ForcedAssignment,
    cone_flatten,
    dense_orbit_reenumeration,
    pin_for_level,
    toeplitz_reenumeration,
    triangular_sequence,
)
from .specfmt import (
    explicit_spec_of_window,
    load_spec,
    load_spec_file,
    parse_bijection,
    to_text,
    witness_text,
)
from .verdicts import NonReachInvariant, Verdict, find_invariants
from .windows import LevelWindow

__version__ = "0.1.0"
