"""Augmented position heap: the query-side structures.

On top of a finalized heap this adds, in one linear pass each:

* ``node_of``: position -> node holding it (primary or secondary slot);
* a preorder range [pre, last] per node (``PositionHeap._preorder``,
  two passes over the parent array; children in id order, which
  containment does not care about), giving O(1) ancestor tests by
  interval containment and subtrees as slices of ``by_pre``.  Since a
  primary position is its node's id, a slice of ``by_pre`` is also the
  list of the primary positions stored in that subtree.  The
  balanced-parenthesis encoding of the same preorder (``parens``), an
  alternative ancestor structure, is built on first use;
* the secondary positions ordered by the preorder number of their node
  (``sec_pre``, ``sec_pos``; sorted once, O(h log h) for h secondaries),
  so the secondaries of a subtree are the range found by two bisections;
* maximal-reach targets: for every position i, the node of the longest
  prefix of T[i..n] that is represented in the heap.  Computed with a
  single read head that never moves backwards: extend the current match
  while an edge exists, record the node, follow its suffix link, repeat.
  Each inner step advances the read head, so the whole pass is O(n).
  The loop keeps the current depth, which tells it whether the next
  edge sits in ``l3`` (a depth-2 parent of a flat heap, keyed by the text
  bytes just read) or in the per-letter dicts, the same split the
  builder uses.

``MrpBits`` packs the reach depths into exactly 2n bits: writing m_1 and
then the deltas m_i - m_{i-1} + 1 in unary, each value followed by a 0.
The chain never drops by more than one per position, so every delta is
nonnegative, and the depths sum so that the vector holds exactly n ones.
Depth recovery is rank1(select0(i)) - i + 1.
"""

from __future__ import annotations

from array import array
from functools import cached_property

from .bitvec import BitVector, ParenSequence, parens_from_heap
from .heap import PositionHeap


class AugmentedHeap:
    """Read-only query structures over a finalized PositionHeap."""

    def __init__(self, heap: PositionHeap):
        if not heap.finalized:
            raise ValueError("augment requires a finalized heap")
        self.heap = heap
        self.n = heap.n
        self._build_node_of()
        self.pre, self.last, self._by_pre = heap._preorder()
        self._sort_secondaries()
        self._compute_mrp()

    # ------------------------------------------------------------------

    def _build_node_of(self):
        n = self.n
        n_nodes = self.heap.node_count()
        # primary position == node id; the rest is filled from secondaries
        node_of = array("i", range(n_nodes))
        node_of.frombytes(bytes(4 * (n + 1 - n_nodes)))
        for v, pos in self.heap._secondary.items():
            node_of[pos] = v
        # every position must be covered exactly once: only slot 0 is 0
        if node_of.count(0) != 1:
            raise AssertionError("position->node map has holes")
        self._node_of = node_of

    def _sort_secondaries(self):
        # (pre of the storing node, position) for every secondary, by pre
        pre = self.pre
        pairs = sorted((pre[v], pos) for v, pos in self.heap._secondary.items())
        self._sec_pre = array("i", [p for p, _ in pairs])
        self._sec_pos = array("i", [pos for _, pos in pairs])

    @cached_property
    def parens(self) -> ParenSequence:
        """Balanced-parenthesis encoding of the heap's preorder."""
        return parens_from_heap(self.heap)

    def _compute_mrp(self):
        heap = self.heap
        n = self.n
        data = heap.text_bytes()
        suffix = heap._suffix
        mrp = array("i", bytes(4 * (n + 1)))
        cur = 0
        rh = 1  # read head, 1-based; never reset
        # every edge sits in one table: l3 for parents of depth d3
        d3 = 2 if heap._flat else -2
        l3 = heap._l3
        deep = heap._deep
        dep = 0
        for i in range(1, n + 1):
            while rh <= n:
                c = data[rh - 1]
                if dep != d3:
                    nxt = deep[c].get(cur)
                else:
                    nxt = l3[(data[rh - 3] << 16) | (data[rh - 2] << 8) | c]
                if not nxt:
                    break
                cur = nxt
                dep += 1
                rh += 1
            mrp[i] = cur
            cur = suffix[cur]
            dep -= 1
        self._mrp = mrp

    # ------------------------------------------------------------------
    # queries

    def node_of(self, i: int) -> int:
        """Node storing position i (as primary or secondary)."""
        self._check_pos(i)
        return self._node_of[i]

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
        return self.pre[u] <= self.pre[v] <= self.last[u]

    def subtree_nodes(self, v: int):
        """All nodes in v's subtree (preorder slice; O(size))."""
        self.heap._check_node(v)
        return self._by_pre[self.pre[v]:self.last[v] + 1]

    def encode_mrp(self) -> "MrpBits":
        return MrpBits.from_depths(self.mrp_depths())

    def mrp_depths(self) -> array:
        depth = self.heap._materialize()[2]
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
        out = bytearray()
        prev = None
        for m in depths:
            d = m if prev is None else m - prev + 1
            if d < 0:
                raise ValueError(
                    f"maximal-reach chain dropped by more than one ({prev} -> {m})"
                )
            out.extend(b"\x01" * d)
            out.append(0)
            prev = m
        bits = BitVector(out)
        if bits.nbits != 2 * n:
            raise AssertionError(
                f"encoding is {bits.nbits} bits for n={n}; depth sum must equal n"
            )
        return cls(bits, n)

    @classmethod
    def from_values(cls, values) -> "MrpBits":
        """Encode an explicit (m1, delta2, ..., deltan) vector; for tests."""
        out = bytearray()
        for d in values:
            if d < 0:
                raise ValueError("unary encoding needs nonnegative values")
            out.extend(b"\x01" * d)
            out.append(0)
        return cls(BitVector(out), len(values))

    def mrp_depth(self, i: int) -> int:
        """Depth of the maximal-reach node of position i, from bits alone."""
        if not 1 <= i <= self.n:
            raise ValueError(f"position out of range: {i}")
        return self.bits.rank1(self.bits.select0(i)) - i + 1


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
