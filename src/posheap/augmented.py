"""Augmented position heap: the query-side structures.

On top of a finalized heap this adds, in one linear pass each:

* a preorder number and subtree size per node
  (``PositionHeap._preorder``, two passes over the parent array;
  children in id order, which containment does not care about), giving
  O(1) ancestor tests by containment in [pre, pre + size) and subtrees
  as slices of ``by_pre``.  Since a primary position is its node's id,
  a slice of ``by_pre`` is also the list of the primary positions
  stored in that subtree.  ``bitvec.parens_from_heap`` encodes the
  same preorder as balanced parentheses, an alternative ancestor
  structure that callers build themselves;
* the h secondary positions node_count()..n: their nodes in one h-entry
  array (``sec_node``), filled in the pass that checks each is stored
  once and orders them by their node's preorder number (``sec_pre``,
  ``sec_pos``; O(h log h)), so a subtree's secondaries are the range
  found by two bisections.  ``node_of`` of a smaller position is the
  position itself;
* maximal-reach targets (``PositionHeap._reach``): for every position i,
  the node of the longest prefix of T[i..n] that is represented in the
  heap, by a single read head along the suffix links in O(n).

Node depths come from the heap (``PositionHeap._depths``), derived from
its parent array; this module never reads the heap's edge tables.

``MrpBits`` packs the reach depths into exactly 2n bits: writing m_1 and
then the deltas m_i - m_{i-1} + 1 in unary, each value followed by a 0.
The chain never drops by more than one per position, so every delta is
nonnegative, and the depths sum so that the vector holds exactly n ones.
Position i's code ends with its zero at bit m_i + 2(i - 1) (0-based), so
the encoder starts from all ones and clears those n bits.  Depth
recovery is rank1(select0(i)) - i + 1.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from operator import add

from .bitvec import BitVector
from .heap import PositionHeap


class AugmentedHeap:
    """Read-only query structures over a finalized PositionHeap."""

    def __init__(self, heap: PositionHeap):
        if not heap.finalized:
            raise ValueError("augment requires a finalized heap")
        self.heap = heap
        self.n = heap.n
        self.pre, self.size, self._by_pre = heap._preorder()
        self._index_secondaries()
        self._mrp = heap._reach()

    # ------------------------------------------------------------------

    def _index_secondaries(self):
        secondary = self.heap._secondary
        first = self.heap.node_count()
        h = self.n + 1 - first
        # positions first..n must each be stored once, as a secondary
        if len(secondary) != h:
            raise AssertionError("position->node map has holes")
        sec_node = array("i", bytes(4 * h))
        pre = self.pre
        pairs = []
        for v, pos in secondary.items():
            i = pos - first
            if not 0 <= i < h or sec_node[i]:
                raise AssertionError(f"secondary position {pos} out of range or stored twice")
            sec_node[i] = v
            pairs.append((pre[v], pos))
        # (pre of the storing node, position) for every secondary, by pre
        pairs.sort()
        self._sec_node = sec_node
        self._sec_pre = array("i", [p for p, _ in pairs])
        self._sec_pos = array("i", [pos for _, pos in pairs])

    # ------------------------------------------------------------------
    # queries

    def node_of(self, i: int) -> int:
        """Node storing position i (as primary or secondary)."""
        self._check_pos(i)
        first = self.heap.node_count()
        return i if i < first else self._sec_node[i - first]

    def mrp_node(self, i: int) -> int:
        """Node of the longest represented prefix of T[i..n]."""
        self._check_pos(i)
        return self._mrp[i]

    def longest_rep_prefix(self, i: int) -> tuple[int, int]:
        """(node, length) of the longest represented prefix of T[i..n]."""
        self._check_pos(i)
        v = self._mrp[i]
        return v, self.heap.depth(v)

    def is_ancestor(self, u: int, v: int) -> bool:
        """Ancestor-or-self test by preorder range containment; O(1)."""
        self.heap._check_node(u)
        self.heap._check_node(v)
        pu = self.pre[u]
        return pu <= self.pre[v] < pu + self.size[u]

    def subtree_nodes(self, v: int):
        """All nodes in v's subtree (preorder slice; O(size))."""
        self.heap._check_node(v)
        pv = self.pre[v]
        return self._by_pre[pv:pv + self.size[v]]

    def encode_mrp(self) -> "MrpBits":
        return MrpBits.from_depths(self.mrp_depths())

    def mrp_depths(self) -> array:
        depth = self.heap._depths()
        mrp = self._mrp
        return array("i", (depth[mrp[i]] for i in range(1, self.n + 1)))

    def _check_pos(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"position out of range: {i}")


class MrpBits:
    """2n-bit unary encoding of the maximal-reach depths."""

    __slots__ = ("bits", "n")

    def __init__(self, bits: BitVector, n: int):
        self.bits = bits
        self.n = n

    @classmethod
    def from_depths(cls, depths) -> "MrpBits":
        n = len(depths)
        return cls(_unary(map(add, depths, range(0, 2 * n, 2)), 2 * n), n)

    @classmethod
    def from_values(cls, values) -> "MrpBits":
        """Encode an explicit (m1, delta2, ..., deltan) vector; for tests."""
        n = len(values)
        zeros = map(add, accumulate(values), range(n))
        return cls(_unary(zeros, sum(values) + n), n)

    def mrp_depth(self, i: int) -> int:
        """Depth of the maximal-reach node of position i, from bits alone."""
        if not 1 <= i <= self.n:
            raise ValueError(f"position out of range: {i}")
        return self.bits.rank1(self.bits.select0(i)) - i + 1


def _unary(zeros, nbits: int) -> BitVector:
    """nbits bits, all ones except at the 0-based indices in zeros.

    The zeros must rise strictly, or some unary value would be negative
    (a reach chain that drops by more than one); the last must be bit
    nbits - 1, or the values do not sum as the caller says.
    """
    out = bytearray(b"\x01") * nbits
    last = -1
    for z in zeros:
        if z <= last:
            raise ValueError(
                f"negative unary value: zero at bit {z} after bit {last}"
                " (a maximal-reach chain may drop by at most one)"
            )
        # a zero past the end fails the check below, unless a later drop raises
        if z < nbits:
            out[z] = 0
        last = z
    if last != nbits - 1:
        raise AssertionError(
            f"unary code needs {last + 1} bits, not {nbits}; depth sum must equal n"
        )
    return BitVector(out)


def augment(heap: PositionHeap) -> AugmentedHeap:
    """Build all query structures for a finalized heap."""
    return AugmentedHeap(heap)


def naive_mrp_nodes(heap: PositionHeap) -> list[int]:
    """Per-position maximal reach by independent root walks; quadratic oracle."""
    data = heap.text_bytes()
    n = len(data)
    out = [0] * (n + 1)
    for i in range(1, n + 1):
        cur = 0
        for j in range(i - 1, n):
            nxt = heap.child(cur, data[j])
            if nxt is None:
                break
            cur = nxt
        out[i] = cur
    return out
