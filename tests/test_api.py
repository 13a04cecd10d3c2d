"""The public surface, pinned: a change to it has to be made on purpose."""

import posheap
from posheap import AugmentedHeap, BitVector, MrpBits, ParenSequence, PositionHeap


def _public(cls):
    return sorted(name for name in dir(cls) if not name.startswith("_"))


def test_all_names():
    assert posheap.__all__ == [
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
        "subtree_nodes",
    ]


def test_bit_vector_members():
    assert _public(BitVector) == [
        "bit",
        "n_ones",
        "n_zeros",
        "nbits",
        "rank0",
        "rank1",
        "select0",
        "select1",
        "to01",
        "words",
    ]


def test_paren_sequence_members():
    assert _public(ParenSequence) == [
        "bits",
        "excess",
        "find_close",
        "is_ancestor",
        "open_of",
    ]


def test_mrp_bits_members():
    assert _public(MrpBits) == [
        "bits",
        "from_depths",
        "from_values",
        "mrp_depth",
        "n",
    ]
