"""Position heap construction.

The position heap of a text T[1..n] is the sequence hash tree of the
suffixes of T inserted in descending length order: each suffix adds one
node at its shortest unrepresented prefix, or, when the whole suffix is
already represented, attaches its starting position as a *secondary*
position of the existing node.  Every node therefore stores one primary
position and at most one secondary position ("double nodes").

``build`` runs the on-line left-to-right construction: it keeps an
active node / active position cursor and per-node suffix links (the
link from the node of a*w to the node of w), creating exactly one node
per inner loop pass, which gives linear total work.  ``oracle_build``
is the quadratic definitional construction used as an independent
reference in tests and ``posheap verify``.

Positions are 1-based everywhere in the public API.  Letters are bytes
(ints 0..255).  Node ids are dense ints with 0 reserved for the root;
nodes are created in increasing primary-position order, so a non-root
node's id is its primary position.  This is an invariant that callers
rely on (``augmented``, ``search``, ``recover_text``, ``index_dot``).

The builder records each node's parent at creation (``_parent``;
parent(w) < w).  With the text it fixes the node's place in the tree,
so nothing more is stored for that.  Node w's path label is
T[w..w+depth(w)-1], a prefix of its own suffix, so its in-letter
T[w+depth(w)-1] is read from the text.  The depths are one cached array
(``_depths``) that construction never needs: a depth-3 node is the one
whose great-grandparent is the root.

Edges live in ``_deep``, one {parent: child} dict per letter.  As in
Ukkonen's algorithm, the virtual bottom (node -1, the root's suffix link)
has an edge to the root on every letter, so each dict starts as
``{-1: 0}``.  Once the text reaches ``_FLAT_THRESHOLD`` the edges out of
depth-2 parents move into ``l3``, a flat table keyed by the 3-byte path
label of the child; each edge sits in exactly one table, so both sizes
share one construction loop, one reach loop (``_reach``) and one pattern
walk (``_walk``), each with one two-way dispatch on the parent's depth.
No other module reads the edge tables.
"""

from __future__ import annotations

import mmap
from array import array
from dataclasses import dataclass

# Construction moves the edges of depth-2 parents into ``l3`` once the
# text is at least this long.  Below it the level-3 map's pages would
# outweigh the heap: a 6 KiB text streamed into a flat heap took 289
# minor faults instead of 145, about 580 KiB more per live heap.
_FLAT_THRESHOLD = 1 << 18

_MAX_TEXT = 2**31 - 2  # node ids are stored in int32 arrays

_L3_BYTES = 4 << 24  # one int32 per 3-byte code


def _zeroed_l3() -> memoryview:
    """Writable int32 view over 64 MiB of anonymous zero pages.

    The OS maps a page on its first write, so a text pays only for the
    pages its 3-byte codes fall in (12 for 320 KiB of acgt, 237 for
    288 KiB of words) instead of zeroing and faulting in all 16,384
    pages up front.
    """
    return memoryview(mmap.mmap(-1, _L3_BYTES)).cast("i")


def to_bytes(text) -> bytes:
    """Coerce str/bytes/bytearray input to bytes, one letter per byte.

    Strings are encoded latin-1 so that one character maps to exactly
    one letter; code points above 255 are rejected by the codec.
    """
    if isinstance(text, bytes):
        return text
    if isinstance(text, (bytearray, memoryview)):
        return bytes(text)
    if isinstance(text, str):
        return text.encode("latin-1")
    raise TypeError(f"expected str or bytes-like text, got {type(text).__name__}")


@dataclass(frozen=True)
class NodeView:
    """Snapshot of one node, for inspection and serialization."""

    id: int
    parent: int | None
    in_letter: int | None
    suffix_link: int | None
    depth: int
    primary: int | None
    secondary: int | None
    children: dict[int, int]


class PositionHeap:
    """Trie over the positions of a byte text, built on-line.

    The builder is single-writer: no queries should run concurrently
    with ``append``/``extend``/``finalize``.  After ``finalize`` the
    structure is immutable and safe for any number of readers.
    """

    def __init__(self):
        self._text = bytearray()
        self._suffix = [-1]          # suffix_link per node; -1 = virtual bottom
        self._parent = [-1]          # parent per node, recorded at creation
        self._secondary = {}         # node -> secondary position, set by finalize
        self._active = 0
        self._finalized = False
        # per-letter {parent: child}, seeded with the virtual bottom's edge
        # to the root; in flat mode no parent of depth 2
        self._deep = [{-1: 0} for _ in range(256)]
        self._flat = False
        self._l3 = None              # flat mode: children of depth-2 nodes, by 3-byte code
        # lazily derived depth and preorder arrays
        self._dep = None
        self._dep_nodes = -1
        self._pre = None
        self._pre_nodes = -1

    # ------------------------------------------------------------------
    # basic accessors

    @property
    def n(self) -> int:
        """Length of the text appended so far."""
        return len(self._text)

    @property
    def finalized(self) -> bool:
        return self._finalized

    @property
    def active_node(self) -> int:
        return self._active

    @property
    def active_position(self) -> int:
        # positions [1..s-1] are primary, [s..n] secondary; one node per
        # primary position plus the root makes s equal the node count
        return len(self._suffix)

    @property
    def creations(self) -> int:
        """Total nodes created, which equals the inner-loop pass count."""
        return len(self._suffix) - 1

    def node_count(self) -> int:
        return len(self._suffix)

    def text_bytes(self) -> bytes:
        return bytes(self._text)

    def __len__(self) -> int:
        return len(self._suffix)

    # ------------------------------------------------------------------
    # construction

    def append(self, letter: int) -> None:
        """Process one more letter of the text (on-line step)."""
        if self._finalized:
            raise ValueError("heap is finalized; cannot append")
        if not 0 <= letter <= 255:
            raise ValueError(f"letter out of byte range: {letter!r}")
        if len(self._text) >= _MAX_TEXT:
            raise ValueError("text too long for this index")
        self._step(letter)
        if not self._flat and len(self._text) >= _FLAT_THRESHOLD:
            self._migrate_to_flat()

    def extend(self, data) -> None:
        """Process a chunk of text; equivalent to appending each byte."""
        if self._finalized:
            raise ValueError("heap is finalized; cannot extend")
        data = to_bytes(data)
        if len(self._text) + len(data) > _MAX_TEXT:
            raise ValueError("text too long for this index")
        if not self._flat and len(self._text) + len(data) >= _FLAT_THRESHOLD:
            self._migrate_to_flat()
        self._extend(data)

    def finalize(self) -> None:
        """Recover secondary positions and freeze the heap.

        Walks the suffix-link chain from the active node, handing out
        positions s, s+1, ..., n one per visited node (the root gets
        none).  Idempotent.
        """
        if self._finalized:
            return
        v = self._active
        pos = self.active_position
        suffix = self._suffix
        sec = self._secondary
        while v != 0:
            sec[v] = pos
            pos += 1
            v = suffix[v]
        if pos != len(self._text) + 1:
            raise AssertionError("suffix chain length disagrees with text length")
        self._finalized = True

    # ------------------------------------------------------------------
    # construction steps
    #
    # Every edge lives in one table.  Below _FLAT_THRESHOLD all of them
    # sit in ``_deep``, one {parent: child} dict per letter, the virtual
    # bottom's included.  In flat mode the edges out of depth-2 parents
    # sit in ``l3`` instead, so the two modes differ only in ``d3``, the
    # parent depth read from ``l3`` (-2, which no parent has, when small).
    #
    # Every node probed along the suffix-link chain stores the pending
    # secondary position p, so its path label is literally T[p..k], a
    # suffix of the text read so far.  A probe at a depth-2 node for the
    # next letter c can therefore be keyed by the last two text bytes
    # plus c, a flat array read instead of a dict probe.  With p equal to
    # the node count, those bytes start at text index p - 1.

    def _migrate_to_flat(self) -> None:
        self._l3 = self._level3()
        deep = self._deep
        parent = self._parent
        text = self._text
        for w in self._depth3():
            del deep[text[w + 1]][parent[w]]
        self._flat = True

    def _depth3(self):
        """Ids of the depth-3 nodes, found by their parent chains."""
        parent = self._parent
        for w in range(1, len(parent)):
            p = parent[w]
            # the root's parent is -1, so a depth-2 w fails the test
            if p and not parent[parent[p]]:
                yield w

    def _level3(self) -> memoryview:
        """l3 filled with every depth-3 node w, keyed by its path label T[w..w+2]."""
        l3 = _zeroed_l3()
        text = self._text
        for w in self._depth3():
            l3[(text[w - 1] << 16) | (text[w] << 8) | text[w + 1]] = w
        return l3

    def _step(self, c: int) -> None:
        suffix = self._suffix
        parent = self._parent
        text = self._text
        # every probe of this step reads the same letter
        dc = self._deep[c]
        d3 = 2 if self._flat else -2
        cur = self._active
        n_nodes = len(suffix)
        dep = len(text) + 1 - n_nodes
        text.append(c)
        prev = -1
        while True:
            if dep != d3:
                nxt = dc.setdefault(cur, n_nodes)
                if nxt != n_nodes:
                    break
            else:
                i3 = (text[-3] << 16) | (text[-2] << 8) | c
                nxt = self._l3[i3]
                if nxt:
                    break
                self._l3[i3] = n_nodes
            suffix.append(0)
            parent.append(cur)
            if prev >= 0:
                suffix[prev] = n_nodes
            prev = n_nodes
            n_nodes += 1
            cur = suffix[cur]
            dep -= 1
        if prev >= 0:
            suffix[prev] = nxt
        self._active = nxt

    def _extend(self, data: bytes) -> None:
        suffix = self._suffix
        parent = self._parent
        l3 = self._l3
        deep = self._deep
        d3 = 2 if self._flat else -2
        cur = self._active
        n_nodes = len(suffix)
        text = self._text
        # depth of the active node is k+1-s with s the active position;
        # dep + n_nodes stays fixed while a letter's chain is walked
        dep = len(text) + 1 - n_nodes
        text.extend(data)
        # at most dep + len(data) + 1 creations in this call, plus a
        # scratch slot ``dump`` that stands in for "no node created yet
        # for this letter", so chain links are stored without a test
        spare = dep + len(data) + 2
        suffix += [0] * spare
        parent += [0] * spare
        dump = len(suffix) - 1
        for c in data:
            dc = deep[c]
            prev = dump
            while True:
                if dep != d3:
                    nxt = dc.setdefault(cur, n_nodes)
                    if nxt != n_nodes:
                        break
                else:
                    i3 = (text[n_nodes - 1] << 16) | (text[n_nodes] << 8) | c
                    nxt = l3[i3]
                    if nxt:
                        break
                    l3[i3] = n_nodes
                parent[n_nodes] = cur
                suffix[prev] = n_nodes
                prev = n_nodes
                n_nodes += 1
                cur = suffix[cur]
                dep -= 1
            suffix[prev] = nxt
            cur = nxt
            dep += 1
        del suffix[n_nodes:]
        del parent[n_nodes:]
        self._active = cur

    # ------------------------------------------------------------------
    # derived arrays and queries

    def _depths(self) -> array:
        """Depth of every node, cached per node count.

        One pass in id order, since parents precede their children.
        """
        n_nodes = len(self._suffix)
        if self._dep_nodes == n_nodes:
            return self._dep
        parent = self._parent
        depth = array("i", bytes(4 * n_nodes))
        for w in range(1, n_nodes):
            depth[w] = depth[parent[w]] + 1
        self._dep = depth
        self._dep_nodes = n_nodes
        return depth

    def _preorder(self):
        """(pre, last, by_pre) arrays, cached per node count.

        Node v's subtree is the preorder range [pre[v], last[v]] and
        by_pre[pre[v]] == v.  A reverse pass sums subtree sizes and a
        forward pass hands each child the next free preorder slot of its
        parent (parents precede children), so no DFS is needed; siblings
        come in id order.
        """
        n_nodes = len(self._suffix)
        if self._pre_nodes == n_nodes:
            return self._pre
        parent = self._parent
        size = array("i", [1]) * n_nodes
        for w in range(n_nodes - 1, 0, -1):
            size[parent[w]] += size[w]
        pre = array("i", bytes(4 * n_nodes))
        last = array("i", bytes(4 * n_nodes))
        by_pre = array("i", bytes(4 * n_nodes))
        last[0] = n_nodes - 1
        # size[v] becomes the next free preorder slot for v's children
        size[0] = 1
        for w in range(1, n_nodes):
            p = parent[w]
            slot = size[p]
            sz = size[w]
            pre[w] = slot
            last[w] = slot + sz - 1
            by_pre[slot] = w
            size[p] = slot + sz
            size[w] = slot + 1
        self._pre = (pre, last, by_pre)
        self._pre_nodes = n_nodes
        return self._pre

    def child(self, v: int, letter: int) -> int | None:
        """Target of the letter-edge out of v, or None."""
        self._check_node(v)
        if not 0 <= letter <= 255:
            raise ValueError(f"letter out of byte range: {letter!r}")
        parent = self._parent
        # v has depth 2 iff its grandparent is the root (whose parent is -1);
        # then its path label T[v..v+1] keys its row of l3
        if self._flat and v and not parent[parent[v]]:
            text = self._text
            return self._l3[(text[v - 1] << 16) | (text[v] << 8) | letter] or None
        return self._deep[letter].get(v)

    def _walk(self, data: bytes, pos: int) -> tuple[int, int]:
        """Follow the longest represented prefix of data[pos:] from the root.

        Returns (node, end): the node reached and the index just past the
        consumed prefix (end == pos when data[pos] labels no root edge).
        The node reached at offset d has path label data[pos:pos+d], so in
        flat mode the depth-2 step (i == pos + 2) reads ``l3`` keyed by the
        data's own bytes; every other step probes ``_deep``.
        """
        end = len(data)
        deep = self._deep
        l3 = self._l3
        at3 = pos + (2 if self._flat else -2)
        cur = 0
        i = pos
        while i < end:
            if i != at3:
                nxt = deep[data[i]].get(cur)
            else:
                nxt = l3[(data[i - 2] << 16) | (data[i - 1] << 8) | data[i]]
            if not nxt:
                break
            cur = nxt
            i += 1
        return cur, i

    def _reach(self) -> array:
        """Per position i (index 0 unused), the node of the longest
        represented prefix of T[i..n].

        One read head that never moves back: extend the match while an edge
        exists, record the node, follow its suffix link; O(n) in all.  The
        depth kept tells whether the next edge is in ``l3`` or ``_deep``.
        """
        data = self.text_bytes()
        n = len(data)
        suffix = self._suffix
        mrp = array("i", bytes(4 * (n + 1)))
        cur = 0
        rh = 1  # read head, 1-based; never reset
        # every edge sits in one table: l3 for parents of depth d3
        d3 = 2 if self._flat else -2
        l3 = self._l3
        deep = self._deep
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
        return mrp

    def children_of(self, v: int) -> list[tuple[int, int]]:
        """(letter, child) pairs of v in increasing letter order."""
        self._check_node(v)
        child = self.child
        return [(c, w) for c in range(256) if (w := child(v, c)) is not None]

    def children_lists(self) -> list[list[tuple[int, int]]]:
        """Letter-sorted adjacency for all nodes; built per call."""
        parent = self._parent
        depth = self._depths()
        text = self._text
        kids: list[list[tuple[int, int]]] = [[] for _ in range(len(parent))]
        for w in range(1, len(parent)):
            kids[parent[w]].append((text[w + depth[w] - 2], w))
        for lst in kids:
            if len(lst) > 1:
                lst.sort()
        return kids

    def parent(self, v: int) -> int | None:
        self._check_node(v)
        if v == 0:
            return None
        return self._parent[v]

    def in_letter(self, v: int) -> int | None:
        self._check_node(v)
        if v == 0:
            return None
        return self._text[v + self._depths()[v] - 2]

    def suffix_link(self, v: int) -> int | None:
        """f(v); None for the root, whose link goes to the virtual bottom."""
        self._check_node(v)
        if v == 0:
            return None
        return self._suffix[v]

    def depth(self, v: int) -> int:
        self._check_node(v)
        return self._depths()[v]

    def tree_depth(self) -> int:
        return max(self._depths())

    def primary(self, v: int) -> int | None:
        """Primary position stored at v (None for the root)."""
        self._check_node(v)
        return v if v else None

    def secondary(self, v: int) -> int | None:
        self._check_node(v)
        return self._secondary.get(v)

    def path_label(self, v: int) -> bytes:
        """Edge letters from the root down to v, by a walk up the parent
        chain; its node u at depth d has in-letter T[u+d-1]."""
        self._check_node(v)
        parent = self._parent
        chain = []
        while v != 0:
            chain.append(v)
            v = parent[v]
        chain.reverse()
        text = self._text
        return bytes(text[u + d - 2] for d, u in enumerate(chain, 1))

    def node(self, v: int) -> NodeView:
        self._check_node(v)
        return NodeView(
            id=v,
            parent=self.parent(v),
            in_letter=self.in_letter(v),
            suffix_link=self.suffix_link(v),
            depth=self.depth(v),
            primary=self.primary(v),
            secondary=self.secondary(v),
            children=dict(self.children_of(v)),
        )

    def copy(self) -> "PositionHeap":
        """Deep snapshot; used to test prefix consistency of the builder."""
        h = PositionHeap()
        h._text = bytearray(self._text)
        h._suffix = list(self._suffix)
        h._parent = list(self._parent)
        h._secondary = dict(self._secondary)
        h._active = self._active
        h._finalized = self._finalized
        h._deep = [dict(d) for d in self._deep]
        h._flat = self._flat
        if self._flat:
            # refilled rather than copied, so that only the pages of l3
            # the text's 3-byte codes fall in are written
            h._l3 = h._level3()
        return h

    def _check_node(self, v: int) -> None:
        if not 0 <= v < len(self._suffix):
            raise ValueError(f"no such node: {v}")


def build(text) -> PositionHeap:
    """On-line construction over the whole text; not finalized."""
    h = PositionHeap()
    h.extend(to_bytes(text))
    return h


def index(text) -> PositionHeap:
    """build + finalize in one go."""
    h = build(text)
    h.finalize()
    return h


# ----------------------------------------------------------------------
# definitional oracle and brute-force helpers


def oracle_build(text) -> PositionHeap:
    """Definitional construction: insert suffixes longest-first.

    For each suffix, walk from the root as far as represented; if the
    whole suffix is represented the start position becomes a secondary
    position of the reached node, otherwise one child is created for
    the shortest unrepresented prefix.  Quadratic, independent of the
    on-line builder, and returns a finalized heap (suffix links are
    filled definitionally by walking labels).
    """
    data = to_bytes(text)
    n = len(data)
    h = PositionHeap()
    h._text = bytearray(data)
    deep = h._deep
    suffix = h._suffix
    parent = h._parent
    first_secondary = n + 1
    active = 0
    for i in range(1, n + 1):
        cur = 0
        j = i - 1
        while j < n:
            nxt = deep[data[j]].get(cur)
            if nxt is None:
                break
            cur = nxt
            j += 1
        if j == n:
            # whole suffix already represented
            if cur == 0 or cur in h._secondary:
                raise AssertionError("oracle: secondary slot conflict")
            h._secondary[cur] = i
            if i < first_secondary:
                first_secondary = i
                active = cur
        else:
            w = len(suffix)
            if w != i:
                raise AssertionError("oracle: creation order broke primary==id")
            deep[data[j]][cur] = w
            suffix.append(0)
            parent.append(cur)
    # definitional suffix links: node of a*w maps to node of w
    for v in range(1, len(suffix)):
        label = h.path_label(v)
        cur = 0
        for c in label[1:]:
            cur = deep[c][cur]
        suffix[v] = cur
    h._active = active
    h._finalized = True
    return h


def h_oracle(text) -> int:
    """Brute-force h(T): the longest |w| with at least |w| (possibly
    overlapping) occurrences of some substring w.  0 for empty text."""
    data = to_bytes(text)
    n = len(data)
    best = 0
    for length in range(1, n + 1):
        seen = set()
        ok = False
        for start in range(0, n - length + 1):
            w = data[start:start + length]
            if w in seen:
                continue
            seen.add(w)
            count = 0
            at = data.find(w)
            while at != -1:
                count += 1
                if count >= length:
                    break
                at = data.find(w, at + 1)
            if count >= length:
                ok = True
                break
        if ok:
            best = length
        else:
            break
    return best


def is_ancestor_walk(heap: PositionHeap, u: int, v: int) -> bool:
    """Parent-chain ancestor-or-self test; the slow reference."""
    # ancestors have smaller ids: parent(w) < w
    parent = heap._parent
    while v > u:
        v = parent[v]
    return u == v


def recover_text(heap: PositionHeap) -> bytes:
    """Reconstruct the text from a finalized heap.

    T[i] is the first letter on the root path of the node storing
    position i; every position is stored somewhere once the heap is
    finalized, so the whole text is recoverable.
    """
    if not heap.finalized:
        raise ValueError("heap must be finalized to recover the text")
    parent = heap._parent
    n_nodes = heap.node_count()
    # first letters come from the root's edges, not from the stored text
    first = bytearray(n_nodes)
    for c, w in heap.children_of(0):
        first[w] = c
    for w in range(1, n_nodes):
        p = parent[w]
        if p:
            first[w] = first[p]
    # node v holds primary position v; secondaries hold the rest
    out = first[1:] + bytes(heap.n + 1 - n_nodes)
    for v, pos in heap._secondary.items():
        out[pos - 1] = first[v]
    return bytes(out)


def structurally_equal(a: PositionHeap, b: PositionHeap) -> str | None:
    """Compare two heaps node by node; returns a diff string or None.

    Both heaps derive each node's in-letter from the text and the parent
    array they recorded at creation, so each node is also looked up
    through both heaps' edge tables, which are what queries walk.
    Suffix links are deliberately excluded: the oracle assigns them by
    definition, the on-line builder by chaining, and their soundness is
    checked against path labels elsewhere.
    """
    if a.text_bytes() != b.text_bytes():
        return "texts differ"
    if a.node_count() != b.node_count():
        return f"node counts differ: {a.node_count()} vs {b.node_count()}"
    if a.active_position != b.active_position:
        return f"active positions differ: {a.active_position} vs {b.active_position}"
    if a.finalized and b.finalized and a._active != b._active:
        return f"active nodes differ: {a._active} vs {b._active}"
    pa, pb = a._parent, b._parent
    # while the parents agree up to v, so do the depths and in-letters
    depth = a._depths()
    text = a._text
    for v in range(1, a.node_count()):
        if pa[v] != pb[v]:
            return f"node {v}: parents differ ({pa[v]} vs {pb[v]})"
        c = text[v + depth[v] - 2]
        if a.child(pa[v], c) != v or b.child(pa[v], c) != v:
            return f"node {v}: edge ({pa[v]}, {c}) does not lead to it"
    if a._secondary != b._secondary:
        return f"secondary maps differ: {sorted(a._secondary.items())} vs {sorted(b._secondary.items())}"
    return None
