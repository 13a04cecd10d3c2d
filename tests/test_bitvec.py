import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posheap import BitVector, index, is_ancestor_walk, parens_from_heap

bitlists = st.lists(st.integers(0, 1), max_size=600)


# naive scan oracles -----------------------------------------------------

def rank_naive(bits, val, i):
    return sum(1 for b in bits[:i] if b == val)


def select_naive(bits, val, k):
    seen = 0
    for pos, b in enumerate(bits, start=1):
        if b == val:
            seen += 1
            if seen == k:
                return pos
    raise ValueError


def find_close_naive(bits01, i):
    e = 0
    for pos in range(i, len(bits01) + 1):
        e += 1 if bits01[pos - 1] else -1
        if e == 0 and pos > i:
            return pos
    raise ValueError


# ------------------------------------------------------------------------

def test_known_vector_rank_select():
    b = BitVector("10110011100100")
    assert b.to01() == "10110011100100"
    assert b.rank1(7) == 4
    assert b.rank1(0) == 0
    assert b.rank1(14) + b.rank0(14) == 14
    # zeros sit at positions 2,5,6,10,11,13,14
    assert b.select0(3) == 6
    assert b.select1(1) == 1
    assert b.select1(7) == 12


def test_rank_select_bounds():
    b = BitVector("1010")
    with pytest.raises(ValueError):
        b.rank1(5)
    with pytest.raises(ValueError):
        b.rank1(-1)
    with pytest.raises(ValueError):
        b.select1(0)
    with pytest.raises(ValueError):
        b.select1(3)
    with pytest.raises(ValueError):
        b.select0(3)
    with pytest.raises(ValueError):
        b.bit(0)


def test_bit_string_rejects_other_characters():
    for bad in ("1021", "10 1", "1x"):
        with pytest.raises(ValueError):
            BitVector(bad)


def test_empty_vector():
    b = BitVector("")
    assert len(b) == 0
    assert b.rank1(0) == 0
    with pytest.raises(ValueError):
        b.select1(1)


@given(bitlists)
def test_rank_matches_naive(bits):
    b = BitVector(bits)
    for i in range(len(bits) + 1):
        assert b.rank1(i) == rank_naive(bits, 1, i)
        assert b.rank0(i) == rank_naive(bits, 0, i)


@given(bitlists)
def test_select_matches_naive(bits):
    b = BitVector(bits)
    for k in range(1, b.n_ones + 1):
        assert b.select1(k) == select_naive(bits, 1, k)
    for k in range(1, b.n_zeros + 1):
        assert b.select0(k) == select_naive(bits, 0, k)


@given(bitlists)
def test_rank_select_inverse_identities(bits):
    b = BitVector(bits)
    for k in range(1, b.n_ones + 1):
        assert b.rank1(b.select1(k)) == k
    for i in range(1, len(bits) + 1):
        r = b.rank1(i)
        if r:
            assert b.select1(r) <= i


def test_large_random_vector_rank_select():
    rng = random.Random(5)
    bits = [rng.randint(0, 1) for _ in range(50_000)]
    b = BitVector(bits)
    for _ in range(300):
        i = rng.randint(0, len(bits))
        assert b.rank1(i) == rank_naive(bits, 1, i)
    ones = b.n_ones
    zeros = b.n_zeros
    for _ in range(300):
        k = rng.randint(1, ones)
        assert b.rank1(b.select1(k)) == k
        assert b.bit(b.select1(k)) == 1
        k = rng.randint(1, zeros)
        assert b.bit(b.select0(k)) == 0
        assert b.rank0(b.select0(k)) == k


# parenthesis sequences --------------------------------------------------

def test_parens_trivial_shapes():
    p = parens_from_heap(index(b""))
    assert p.bits.to01() == "10"
    assert p.find_close(1) == 2

    # "aaa" yields the chain root -> a -> aa ("aa" alone would stop at
    # two nodes: its second suffix is already represented)
    p = parens_from_heap(index(b"aaa"))
    assert p.bits.to01() == "111000"
    assert p.find_close(2) == 5
    assert p.find_close(1) == 6
    assert p.find_close(3) == 4


def test_parens_reference_heap(ref_heap):
    p = parens_from_heap(ref_heap)
    assert len(p) == 24
    assert p.bits.n_ones == 12
    # excess at each open equals depth + 1
    for v in range(12):
        assert p.excess(p.open_of[v]) == ref_heap.depth(v) + 1


def test_parens_find_close_requires_open():
    p = parens_from_heap(index(b"aaa"))
    with pytest.raises(ValueError):
        p.find_close(4)  # a close bit


def test_parens_ancestor_reference(ref_heap, node_by_label):
    p = parens_from_heap(ref_heap)
    assert p.is_ancestor(node_by_label[b"b"], node_by_label[b"baa"])
    assert not p.is_ancestor(node_by_label[b"ab"], node_by_label[b"aab"])
    for v in range(12):
        assert p.is_ancestor(0, v)
        assert p.is_ancestor(v, v)


def test_parens_ancestor_rejects_unknown_nodes(ref_heap):
    p = parens_from_heap(ref_heap)
    for u, v in ((-1, 11), (0, -1), (12, 0), (0, 12)):
        with pytest.raises(ValueError):
            p.is_ancestor(u, v)


@given(st.binary(max_size=60))
def test_parens_matches_naive_and_walk(s):
    h = index(s)
    p = parens_from_heap(h)
    bits01 = [p.bits.bit(i) for i in range(1, len(p) + 1)]
    assert sum(bits01) * 2 == len(bits01)
    n = h.node_count()
    for v in range(n):
        o = p.open_of[v]
        assert p.find_close(o) == find_close_naive(bits01, o)
    rng = random.Random(len(s))
    for _ in range(min(80, n * n)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        assert p.is_ancestor(u, v) == is_ancestor_walk(h, u, v)


def test_find_close_long_chain():
    # degenerate deep tree: aaaa...a gives a two-strand chain
    h = index(b"a" * 500)
    p = parens_from_heap(h)
    bits01 = [p.bits.bit(i) for i in range(1, len(p) + 1)]
    for v in range(h.node_count()):
        o = p.open_of[v]
        assert p.find_close(o) == find_close_naive(bits01, o)


def test_find_close_deep_tree_sampled():
    h = index(b"a" * 5000)
    p = parens_from_heap(h)
    bits01 = [p.bits.bit(i) for i in range(1, len(p) + 1)]
    rng = random.Random(1)
    nodes = [0, 1, h.node_count() - 1] + [rng.randrange(h.node_count()) for _ in range(200)]
    for v in nodes:
        o = p.open_of[v]
        assert p.find_close(o) == find_close_naive(bits01, o)


def _random_tree_bits(rng, budget):
    # preorder random tree: open, children recursively, close
    out = [1]
    budget[0] -= 1
    while budget[0] > 0 and rng.random() < 0.6:
        out.extend(_random_tree_bits(rng, budget))
    out.append(0)
    return out


def test_find_close_random_trees():
    from posheap.bitvec import BitVector, ParenSequence

    rng = random.Random(6)
    for trial in range(300):
        budget = [rng.randint(1, 160)]
        bits01 = _random_tree_bits(rng, budget)
        p = ParenSequence(BitVector(bits01), open_of=[1])
        for pos, bit in enumerate(bits01, start=1):
            if bit:
                assert p.find_close(pos) == find_close_naive(bits01, pos), (
                    trial, pos, "".join(map(str, bits01)))
