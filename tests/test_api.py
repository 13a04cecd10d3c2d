"""The public surface, pinned: a change to it has to be made on purpose."""

import posheap
from posheap import AugmentedHeap, PositionHeap


def _public(cls):
    return sorted(name for name in dir(cls) if not name.startswith("_"))


def test_all_names():
    assert posheap.__all__ == [
        "PositionHeap",
        "NodeView",
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
    assert all(hasattr(posheap, name) for name in posheap.__all__)


def test_position_heap_methods():
    assert _public(PositionHeap) == [
        "active_node",
        "active_position",
        "append",
        "child",
        "children_lists",
        "children_of",
        "copy",
        "creations",
        "depth",
        "extend",
        "finalize",
        "finalized",
        "in_letter",
        "n",
        "node",
        "node_count",
        "parent",
        "path_label",
        "primary",
        "secondary",
        "suffix_link",
        "text_bytes",
        "tree_depth",
    ]


def test_augmented_heap_methods():
    assert _public(AugmentedHeap) == [
        "encode_mrp",
        "is_ancestor",
        "longest_rep_prefix",
        "mrp_depths",
        "mrp_node",
        "node_of",
        "parens",
        "subtree_nodes",
    ]
