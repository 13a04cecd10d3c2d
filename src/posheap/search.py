"""Pattern matching over the augmented heap, plus the naive scan oracle.

The matcher first splits the pattern into maximal represented segments:
walk from the root consuming the longest represented prefix of what is
left, repeatedly.  If at some point not even one letter can be consumed,
that letter does not occur in the text at all and there is nothing to
report.

With one segment, the pattern is a node u: every position stored in u's
subtree matches, and a position i at a proper ancestor of u matches iff
u is an ancestor-or-self of i's maximal-reach node.  The subtree is the
preorder range [pre[u], last[u]], so its primary positions (a primary
position is its node's id) are one slice of ``by_pre``, and its
secondary positions one slice of the secondaries sorted by preorder,
found by two bisections; neither visits the subtree node by node.

With several segments, a candidate start q for the tail beginning at
segment j must be stored on the root-to-u_j path with its maximal reach
exactly u_j (a longer reach would contradict the segment's maximality
against the text), and q + len_j must match from segment j+1.  Segments
are processed last to first, keeping the survivor set of each stage;
stage sets are bounded by twice the segment length, path scans by the
segment length, and subtree reporting by the output plus O(log h) for
h secondaries, which gives O(m + occ + log h) work overall.  ``find_all``
then sorts the occurrences; ``count`` only measures them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .augmented import AugmentedHeap
from .heap import to_bytes


@dataclass
class SegmentDecomposition:
    """Pattern split into maximal represented prefixes."""

    segments: list[tuple[int, int]]  # (node, length) per segment
    complete: bool                   # False: some letter absent from the text


@dataclass
class SearchStats:
    """Work counters of ``find_all``; they accumulate across calls.

    ``candidates`` counts the positions whose maximal reach was tested:
    those stored on the ancestor walk of a one-segment pattern and on
    the root paths of the multi-segment stages.
    """

    steps: int = 0
    segments: int = 0
    occurrences: int = 0
    candidates: int = 0


def _pattern_bytes(pattern) -> bytes:
    pattern = to_bytes(pattern)
    if not pattern:
        raise ValueError("empty pattern")
    return pattern


def _decompose(heap, pattern: bytes) -> SegmentDecomposition:
    walk = heap._walk
    segments = []
    pos = 0
    m = len(pattern)
    while pos < m:
        node, end = walk(pattern, pos)
        if end == pos:
            return SegmentDecomposition(segments, False)
        segments.append((node, end - pos))
        pos = end
    return SegmentDecomposition(segments, True)


def decompose(aug: AugmentedHeap, pattern) -> SegmentDecomposition:
    """Split the pattern into maximal represented segments."""
    return _decompose(aug.heap, _pattern_bytes(pattern))


def _occurrences(aug: AugmentedHeap, pattern, stats: SearchStats | None) -> list[int]:
    """All start positions of the pattern, unsorted."""
    pattern = _pattern_bytes(pattern)
    d = _decompose(aug.heap, pattern)
    if stats is not None:
        stats.steps += len(pattern)
        stats.segments += len(d.segments)
    if not d.complete:
        return []
    segs = d.segments
    k = len(segs)
    heap = aug.heap
    mrp = aug._mrp
    pre = aug.pre
    last = aug.last
    n = aug.n
    secondary = heap._secondary
    parent = heap._parent

    if k == 1:
        u, length = segs[0]
        pu, lu = pre[u], last[u]
        out = aug._by_pre[pu:lu + 1].tolist()  # primary position == node id
        sec_pre = aug._sec_pre
        out += aug._sec_pos[bisect_left(sec_pre, pu):bisect_right(sec_pre, lu)]
        if stats is not None:
            stats.steps += len(out) + length
        # positions at proper ancestors match iff their reach passes u
        v = parent[u]
        while v > 0:
            for q in (v, secondary.get(v)):
                if q is not None:
                    w = mrp[q]
                    if pu <= pre[w] <= lu:
                        out.append(q)
            if stats is not None:
                stats.steps += 1
                stats.candidates += 1 + (v in secondary)
            v = parent[v]
        if stats is not None:
            stats.occurrences += len(out)
        return out

    # several segments: filter candidates from the last stage backwards
    survivors: set[int] = set()
    for j in range(k - 2, -1, -1):
        u, length = segs[j]
        last_stage = j == k - 2
        if last_stage:
            uk = segs[k - 1][0]
            puk, luk = pre[uk], last[uk]
        stage: set[int] = set()
        v = u
        while v > 0:
            for q in (v, secondary.get(v)):
                if q is None or mrp[q] != u:
                    continue
                nq = q + length
                if nq > n:
                    continue
                if last_stage:
                    w = mrp[nq]
                    if puk <= pre[w] <= luk:
                        stage.add(q)
                elif nq in survivors:
                    stage.add(q)
            if stats is not None:
                stats.steps += 1
                stats.candidates += 1 + (v in secondary)
            v = parent[v]
        survivors = stage
    out = list(survivors)
    if stats is not None:
        stats.steps += len(out)
        stats.occurrences += len(out)
    # a pattern that is not fully represented cannot occur more often
    # than the length of its first segment
    if len(out) > segs[0][1]:
        raise AssertionError(
            f"occurrence bound violated: {len(out)} > {segs[0][1]}"
        )
    return out


def find_all(aug: AugmentedHeap, pattern, stats: SearchStats | None = None) -> list[int]:
    """All start positions of the pattern in the indexed text, sorted."""
    out = _occurrences(aug, pattern, stats)
    out.sort()
    return out


def count(aug: AugmentedHeap, pattern) -> int:
    """Number of occurrences; the work of ``find_all`` without its sort."""
    return len(_occurrences(aug, pattern, None))


def find_all_naive(text, pattern) -> list[int]:
    """Independent oracle: sliding comparison over the raw text."""
    text = to_bytes(text)
    pattern = _pattern_bytes(pattern)
    out = []
    at = text.find(pattern)
    while at != -1:
        out.append(at + 1)
        at = text.find(pattern, at + 1)
    return out
