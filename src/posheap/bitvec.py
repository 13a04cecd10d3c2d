"""Plain bit vector with rank/select, and a balanced-parenthesis tree encoding.

Bits are addressed 1-based so the maximal-reach decoding formula
rank1(select0(i)) - i + 1 can be used verbatim.  Storage is a list of
64-bit words, least significant bit first.  Rank uses two-level counts
(superblocks of 512 bits, per-word counts inside) and is O(1); select
binary-searches the superblock counts and finishes with a word scan and
a byte table, O(log) worst case.

ParenSequence encodes a heap's tree shape in preorder: each node's open
bit, then its subtree, then its close bit.
Matching-close queries walk a per-word excess summary plus a range-min
tree over words, O(log) worst case, which is enough for constant-time
ancestor tests at desk scale.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right

_WORD = 64
_SUPER_WORDS = 8          # 512 bits per superblock
_FULL = (1 << 64) - 1

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
    """Immutable bit sequence with O(1) rank and O(log) select."""

    __slots__ = ("nbits", "words", "n_ones", "_sup", "_blk")

    def __init__(self, bits):
        if isinstance(bits, str):
            if bits.strip("01"):
                raise ValueError(f"bit string may hold only '0' and '1': {bits!r}")
            bits = [ch == "1" for ch in bits]
        words = []
        w = 0
        off = 0
        n = 0
        for bit in bits:
            if bit:
                w |= 1 << off
            off += 1
            n += 1
            if off == _WORD:
                words.append(w)
                w = 0
                off = 0
        if off:
            words.append(w)
        self.nbits = n
        self.words = words
        self._build_rank_index()

    def _build_rank_index(self):
        sup = [0]
        blk = array("H", bytes(2 * len(self.words)))
        ones = 0
        within = 0
        for i, w in enumerate(self.words):
            if i % _SUPER_WORDS == 0:
                if i:
                    sup.append(ones)
                within = 0
            blk[i] = within
            c = w.bit_count()
            within += c
            ones += c
        sup.append(ones)  # sentinel: total ones
        self._sup = sup
        self._blk = blk
        self.n_ones = ones

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
        return "".join(str(self.bit(i)) for i in range(1, self.nbits + 1))

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
        sup = self._sup
        b = bisect_right(sup, k - 1, 1, len(sup) - 1) - 1
        rem = k - sup[b]
        wi = b * _SUPER_WORDS
        while True:
            c = self.words[wi].bit_count()
            if rem <= c:
                break
            rem -= c
            wi += 1
        return wi * _WORD + self._select_in_word(self.words[wi], rem) + 1

    def select0(self, k: int) -> int:
        """Position of the k-th zero, 1-based."""
        if not 1 <= k <= self.n_zeros:
            raise ValueError(f"select0 argument out of range: {k}")
        sup = self._sup
        nsup = len(sup) - 1  # number of superblocks (last entry is the total)
        lo, hi = 0, nsup - 1
        # zeros before superblock b: 512*b - sup[b+?]; sup[b] is ones before it
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            zeros_before = mid * _SUPER_WORDS * _WORD - sup[mid]
            if zeros_before <= k - 1:
                lo = mid
            else:
                hi = mid - 1
        b = lo
        rem = k - (b * _SUPER_WORDS * _WORD - sup[b])
        wi = b * _SUPER_WORDS
        while True:
            width = self._word_width(wi)
            z = width - self.words[wi].bit_count()
            if rem <= z:
                break
            rem -= z
            wi += 1
        comp = ~self.words[wi] & ((1 << self._word_width(wi)) - 1)
        return wi * _WORD + self._select_in_word(comp, rem) + 1

    def _word_width(self, wi: int) -> int:
        if wi == len(self.words) - 1:
            r = self.nbits - wi * _WORD
            return r
        return _WORD

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

    __slots__ = ("bits", "open_of", "_wdelta", "_wmin", "_P", "_tmin", "_tdelta")

    def __init__(self, bits: BitVector, open_of):
        self.bits = bits
        self.open_of = open_of
        self._build_excess_index()

    def _build_excess_index(self):
        bits = self.bits
        nw = len(bits.words)
        wdelta = array("i", bytes(4 * max(nw, 1)))
        wmin = array("i", bytes(4 * max(nw, 1)))
        for i, w in enumerate(bits.words):
            width = bits._word_width(i)
            e = m = 0
            off = 0
            while off < width:
                b = w >> off & 0xFF
                if off + 8 <= width:
                    m = min(m, e + _BYTE_MINPRE[b])
                    e += _BYTE_DELTA[b]
                else:
                    for j in range(width - off):
                        e += 1 if b >> j & 1 else -1
                        if e < m:
                            m = e
                off += 8
            wdelta[i] = e
            wmin[i] = m
        self._wdelta = wdelta
        self._wmin = wmin
        # range tree over words: per segment, total delta and min prefix excess
        P = 1
        while P < max(nw, 1):
            P <<= 1
        INF = 1 << 30
        tmin = [INF] * (2 * P)
        tdelta = [0] * (2 * P)
        for i in range(nw):
            tmin[P + i] = wmin[i]
            tdelta[P + i] = wdelta[i]
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
        target = self.excess(i) - 1
        # scan the remainder of i's word
        wi = (i - 1) >> 6
        e = self.excess(i)
        pos = self._scan_word(wi, i - wi * _WORD, e, target)
        if pos is not None:
            return pos
        # excess at the end of word wi
        e = self.excess(min((wi + 1) * _WORD, bits.nbits))
        w = self._next_word_reaching(wi, e, target)
        if w is None:
            raise ValueError(f"no matching close for open at {i}: sequence unbalanced")
        wj, e = w
        pos = self._scan_word(wj, 0, e, target)
        if pos is None:
            raise ValueError("excess summary inconsistent with word scan")
        return pos

    def _scan_word(self, wi: int, off: int, e: int, target: int):
        """First position after bit offset ``off`` of word wi (0 = start of
        word) where the running excess e hits target; byte-accelerated."""
        bits = self.bits
        width = bits._word_width(wi)
        if off >= width:
            return None
        w = bits.words[wi] >> off
        j = off
        while j < width:
            b = w & 0xFF
            span = min(8, width - j)
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
    depth = heap._materialize()[2]
    open_of = array("i", [2 * p - d + 1 for p, d in zip(pre, depth)])
    bits = bytearray(2 * len(open_of))
    for o in open_of:
        bits[o - 1] = 1
    return ParenSequence(BitVector(bits), open_of)
