"""Plain bit vector with rank/select, and a balanced-parenthesis tree encoding.

Bits are addressed 1-based so the maximal-reach decoding formula
rank1(select0(i)) - i + 1 can be used verbatim.  Storage is a native-order
``array("Q")`` of 64-bit words, least significant bit first, packed from
the input in one conversion (the bits as one base-2 integer); the last
word is padded with zeros.  Rank uses two-level counts (superblocks of
512 bits, per-word counts inside) and is O(1); select binary-searches the
superblock counts and finishes with a word scan and a byte table, O(log)
worst case.

ParenSequence encodes a heap's tree shape in preorder: each node's open
bit, then its subtree, then its close bit.
Matching-close queries walk a per-word excess summary plus a range-min
tree over words, O(log) worst case, which is enough for constant-time
ancestor tests at desk scale.  Every word is read whole: the last word's
zero padding reads as closes.  In a balanced sequence the excess after
an open at depth d is d + 1 and falls to 0 at the last real bit, one step
at a time, so the first position where it reaches d comes at or before
that bit; a match in the padding only happens for unbalanced input, and
``find_close`` rejects it.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from itertools import accumulate

_WORD = 64
_SUPER_WORDS = 8          # 512 bits per superblock
_SUPER_BITS = _SUPER_WORDS * _WORD
_FULL = (1 << 64) - 1
_TO01 = b"0" + b"1" * 255  # bytes.translate table: any nonzero byte is a 1

# per-byte helpers, LSB-first bit order
_POP = [b.bit_count() for b in range(256)]
_SELECT_BYTE = [[j for j in range(8) if b >> j & 1] for b in range(256)]
_BYTE_DELTA = [2 * _POP[b] - 8 for b in range(256)]


def _byte_minpre(b: int) -> int:
    e = m = 0
    for j in range(8):
        e += 1 if b >> j & 1 else -1
        if e < m:
            m = e
    return m


_BYTE_MINPRE = [_byte_minpre(b) for b in range(256)]


class BitVector:
    """Immutable bit sequence with O(1) rank and O(log) select.

    ``bits`` is a string of '0' and '1', or bytes or an iterable of ints
    in 0..255, where any nonzero value is a one.
    """

    __slots__ = ("nbits", "words", "n_ones", "_sup", "_blk")

    def __init__(self, bits):
        if isinstance(bits, str):
            if bits.strip("01"):
                raise ValueError(f"bit string may hold only '0' and '1': {bits!r}")
            raw = bits.encode("ascii")
        else:
            # bytes() would copy any other buffer (array("i"), say) as raw
            # bytes, not one byte per value, so everything else is iterated
            raw = bytes(bits if isinstance(bits, (bytes, bytearray)) else iter(bits))
            raw = raw.translate(_TO01)
        self.nbits = len(raw)
        # bit 1 is the integer's least significant bit; its little-endian
        # bytes are the words in order, each swapped on a big-endian host
        packed = int(raw[::-1] or b"0", 2).to_bytes(8 * ((len(raw) + 63) >> 6), "little")
        self.words = words = array("Q", packed)
        if sys.byteorder == "big":
            words.byteswap()
        # ones before each word; rank index: ones before each superblock
        # (plus a total sentinel) and before each word within its superblock
        cum = list(accumulate((w.bit_count() for w in words), initial=0))
        self._sup = cum[:-1:_SUPER_WORDS] + [cum[-1]]
        self._blk = array("H", [c - cum[i - i % _SUPER_WORDS] for i, c in enumerate(cum[:-1])])
        self.n_ones = cum[-1]

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.nbits

    @property
    def n_zeros(self) -> int:
        return self.nbits - self.n_ones

    def bit(self, i: int) -> int:
        """Value of the i-th bit, 1-based."""
        if not 1 <= i <= self.nbits:
            raise ValueError(f"bit position out of range: {i}")
        return self.words[(i - 1) >> 6] >> ((i - 1) & 63) & 1

    def to01(self) -> str:
        return "".join(format(w, "064b")[::-1] for w in self.words)[:self.nbits]

    def rank1(self, i: int) -> int:
        """Number of ones among bits 1..i; rank1(0) = 0."""
        if not 0 <= i <= self.nbits:
            raise ValueError(f"rank position out of range: {i}")
        if i == 0:
            return 0
        wi = (i - 1) >> 6
        off = (i - 1) & 63
        r = self._sup[wi >> 3] + self._blk[wi]
        return r + (self.words[wi] & ((1 << (off + 1)) - 1)).bit_count()

    def rank0(self, i: int) -> int:
        return i - self.rank1(i)

    def select1(self, k: int) -> int:
        """Position of the k-th one, 1-based."""
        if not 1 <= k <= self.n_ones:
            raise ValueError(f"select1 argument out of range: {k}")
        return self._select(k, True)

    def select0(self, k: int) -> int:
        """Position of the k-th zero, 1-based."""
        if not 1 <= k <= self.n_zeros:
            raise ValueError(f"select0 argument out of range: {k}")
        return self._select(k, False)

    def _select(self, k: int, ones: bool) -> int:
        # superblock b has sup[b] ones and 512*b - sup[b] zeros before it;
        # find the last one with fewer than k before it
        sup = self._sup
        before = sup.__getitem__ if ones else (lambda b: b * _SUPER_BITS - sup[b])
        b = bisect_left(range(len(sup) - 1), k, key=before) - 1
        rem = k - before(b)
        words = self.words
        wi = b * _SUPER_WORDS
        while True:
            # the last word's padding reads as zeros, but the k-th zero
            # (k <= n_zeros) comes before it
            w = words[wi] if ones else ~words[wi] & _FULL
            c = w.bit_count()
            if rem <= c:
                return wi * _WORD + self._select_in_word(w, rem) + 1
            rem -= c
            wi += 1

    @staticmethod
    def _select_in_word(w: int, k: int) -> int:
        # offset (0-based) of the k-th set bit of w; caller guarantees it exists
        off = 0
        while True:
            b = w & 0xFF
            c = _POP[b]
            if k <= c:
                return off + _SELECT_BYTE[b][k - 1]
            k -= c
            w >>= 8
            off += 8


class ParenSequence:
    """Balanced-parenthesis encoding of a heap's tree shape.

    One open bit (1) per node in preorder, and a close bit (0) after
    its subtree.
    ``open_of`` maps node ids to their opening bit position.
    """

    __slots__ = ("bits", "open_of", "_P", "_tmin", "_tdelta")

    def __init__(self, bits: BitVector, open_of):
        self.bits = bits
        self.open_of = open_of
        self._build_excess_index()

    def _build_excess_index(self):
        # range tree over words: per segment, total delta and min prefix
        # excess; leaves are whole words, the padding read as closes
        words = self.bits.words
        P = 1
        while P < len(words):
            P <<= 1
        tmin = [1 << 30] * (2 * P)
        tdelta = [0] * (2 * P)
        for leaf, w in enumerate(words, P):
            e = m = 0
            for b in w.to_bytes(8, "little"):
                if e + _BYTE_MINPRE[b] < m:
                    m = e + _BYTE_MINPRE[b]
                e += _BYTE_DELTA[b]
            tmin[leaf] = m
            tdelta[leaf] = e
        for v in range(P - 1, 0, -1):
            l, r = 2 * v, 2 * v + 1
            tdelta[v] = tdelta[l] + tdelta[r]
            tmin[v] = min(tmin[l], tdelta[l] + tmin[r])
        self._P = P
        self._tmin = tmin
        self._tdelta = tdelta

    def __len__(self) -> int:
        return self.bits.nbits

    def excess(self, i: int) -> int:
        """Opens minus closes among bits 1..i."""
        return 2 * self.bits.rank1(i) - i

    def find_close(self, i: int) -> int:
        """Position of the close matching the open at position i."""
        bits = self.bits
        if bits.bit(i) != 1:
            raise ValueError(f"bit {i} is not an opening parenthesis")
        e = self.excess(i)
        target = e - 1
        # scan the remainder of i's word
        wi = (i - 1) >> 6
        pos = self._scan_word(wi, i - wi * _WORD, e, target)
        if pos is None:
            # excess at the end of word wi, its padding read as closes
            end = (wi + 1) * _WORD
            e = 2 * bits.rank1(min(end, bits.nbits)) - end
            hit = self._next_word_reaching(wi, e, target)
            if hit is not None:
                pos = self._scan_word(hit[0], 0, hit[1], target)
                if pos is None:
                    raise ValueError("excess summary inconsistent with word scan")
        if pos is None or pos > bits.nbits:
            raise ValueError(f"no matching close for open at {i}: sequence unbalanced")
        return pos

    def _scan_word(self, wi: int, off: int, e: int, target: int):
        """First position after bit offset ``off`` of word wi (0 = start of
        word) where the running excess e hits target; byte-accelerated."""
        w = self.bits.words[wi] >> off
        j = off
        while j < _WORD:
            b = w & 0xFF
            span = min(8, _WORD - j)
            if span == 8 and e + _BYTE_MINPRE[b] > target:
                e += _BYTE_DELTA[b]
                w >>= 8
                j += 8
                continue
            for t in range(span):
                e += 1 if b >> t & 1 else -1
                if e == target:
                    return wi * _WORD + j + t + 1
            w >>= 8
            j += 8
        return None

    def _next_word_reaching(self, wi: int, e: int, target: int):
        """First word after wi whose running min prefix excess reaches
        target; returns (word index, excess before it)."""
        P = self._P
        tmin = self._tmin
        tdelta = self._tdelta
        node = P + wi
        while node != 1:
            if node % 2 == 0:
                sib = node + 1
                if e + tmin[sib] <= target:
                    node = sib
                    while node < P:
                        l = 2 * node
                        if e + tmin[l] <= target:
                            node = l
                        else:
                            e += tdelta[l]
                            node = l + 1
                    return node - P, e
                e += tdelta[sib]
            node >>= 1
        return None

    def is_ancestor(self, u: int, v: int) -> bool:
        """Ancestor-or-self test via parenthesis containment."""
        for x in (u, v):
            if not 0 <= x < len(self.open_of):
                raise ValueError(f"no such node: {x}")
        ou = self.open_of[u]
        ov = self.open_of[v]
        if ou > ov:
            return False
        if ou == ov:
            return True
        return self.find_close(ov) <= self.find_close(ou)


def parens_from_heap(heap) -> ParenSequence:
    """Balanced parentheses of the heap's preorder (siblings in id order).

    Node v opens at bit 2*pre(v) - depth(v) + 1: of the pre(v) nodes
    opened before it, its depth(v) proper ancestors are still open and
    the others are already closed.  Every other bit is a close.
    """
    if not heap.finalized:
        raise ValueError("heap must be finalized")
    pre = heap._preorder()[0]
    depth = heap._depths()
    open_of = array("i", [2 * p - d + 1 for p, d in zip(pre, depth)])
    bits = bytearray(2 * len(open_of))
    for o in open_of:
        bits[o - 1] = 1
    return ParenSequence(BitVector(bits), open_of)
