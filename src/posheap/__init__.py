"""posheap: position-heap text index with on-line linear-time construction."""

from .heap import (
    PositionHeap,
    build,
    index,
    oracle_build,
    h_oracle,
    is_ancestor_walk,
    recover_text,
    structurally_equal,
    to_bytes,
)
from .bitvec import BitVector, ParenSequence, parens_from_heap
from .augmented import AugmentedHeap, MrpBits, augment, naive_mrp_nodes
from .search import (
    SegmentDecomposition,
    SearchStats,
    count,
    decompose,
    find_all,
    find_all_naive,
)

__version__ = "0.1.0"

__all__ = [
    "PositionHeap",
    "build",
    "index",
    "oracle_build",
    "h_oracle",
    "is_ancestor_walk",
    "recover_text",
    "structurally_equal",
    "to_bytes",
    "BitVector",
    "ParenSequence",
    "parens_from_heap",
    "AugmentedHeap",
    "MrpBits",
    "augment",
    "naive_mrp_nodes",
    "SegmentDecomposition",
    "SearchStats",
    "count",
    "decompose",
    "find_all",
    "find_all_naive",
    "__version__",
]
