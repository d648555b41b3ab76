"""Space-efficient query structures for finite partial lattices.

Parse or generate a covering-relation DAG, then build indexes: an order
index for constant-time "x <= y?" tests, a two-level meet/join engine with
a space-time tradeoff, or degree-bounded join structures that win on
lattices whose nodes cover few elements.  A brute-force oracle provides
ground truth, and the metrics module counts every stored entry and every
probe so the advertised bounds can be checked empirically.
"""

from .decomposition import (
    BlockDecomposition,
    DecompositionTree,
    SubblockEntry,
    block_decompose,
    build_decomposition_tree,
    cover_decompose,
    dump_blocks,
    subblock_decompose,
    verify_block_decomposition,
)
from .degree_index import (
    DegreeStats,
    RecursiveJoinIndex,
    SimpleJoinIndex,
    build_recursive_join_index,
    build_simple_join_index,
    max_degree,
    recursive_join,
)
from .generators import (
    FAMILIES,
    FamilySpec,
    GenerationLimitError,
    enumerate_small_lattices,
    generate,
    spec_for_target,
)
from .meet_engine import MeetIndex, build_meet_index
from .metrics import QueryStats, ScalingFit, SpaceReport, fit_scaling, space_report
from .oracle import (
    ClosureMatrix,
    LatticeViolation,
    NotALatticeError,
    is_partial_lattice,
    oracle_join,
    oracle_meet,
    sublattice_violation,
    transitive_closure,
)
from .order_index import OrderIndex, build_order_index
from .trg import (
    TRG,
    LinearExtension,
    ParseError,
    ReductionReport,
    StructureError,
    downset,
    flip,
    format_trg,
    linear_extension,
    parse_trg,
    to_dot,
    upset,
    validate_reduction,
    with_top,
)

__version__ = "0.1.0"

__all__ = [
    "TRG", "LinearExtension", "ParseError", "StructureError", "ReductionReport",
    "parse_trg", "format_trg", "to_dot", "linear_extension", "downset", "upset",
    "flip", "with_top", "validate_reduction",
    "ClosureMatrix", "LatticeViolation", "NotALatticeError",
    "transitive_closure", "oracle_meet", "oracle_join", "is_partial_lattice",
    "sublattice_violation",
    "BlockDecomposition", "SubblockEntry",
    "DecompositionTree", "block_decompose", "subblock_decompose",
    "cover_decompose", "build_decomposition_tree", "dump_blocks",
    "verify_block_decomposition",
    "OrderIndex", "build_order_index",
    "MeetIndex", "build_meet_index",
    "DegreeStats", "SimpleJoinIndex", "RecursiveJoinIndex", "max_degree",
    "build_simple_join_index", "build_recursive_join_index", "recursive_join",
    "FAMILIES", "FamilySpec", "GenerationLimitError", "generate",
    "spec_for_target", "enumerate_small_lattices",
    "QueryStats", "SpaceReport", "ScalingFit", "space_report", "fit_scaling",
]
