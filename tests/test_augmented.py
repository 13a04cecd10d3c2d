import random
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posheap import (
    MrpBits,
    augment,
    build,
    index,
    is_ancestor_walk,
    naive_mrp_nodes,
    parens_from_heap,
)

from conftest import REF_MRP_DEEP, REF_TEXT, all_strings, fibonacci_word

texts = st.binary(min_size=1, max_size=48) | st.text(alphabet="ab", min_size=1, max_size=32).map(
    lambda s: s.encode()
)


def test_augment_requires_finalized():
    with pytest.raises(ValueError):
        augment(build(b"ab"))


def test_augment_rejects_uncovered_position():
    # a secondary position lost after finalize leaves a hole in node_of
    h = index(REF_TEXT)
    assert augment(h).node_of(len(REF_TEXT)) in h._secondary
    h._secondary.popitem()
    with pytest.raises(AssertionError, match="holes"):
        augment(h)


@pytest.mark.parametrize("kind", ["duplicated", "primary", "past-end", "zero"])
def test_augment_rejects_misplaced_secondary(kind):
    # one of REF_TEXT's two secondaries moved onto a position that is
    # already stored or that no secondary may hold
    h = index(REF_TEXT)
    (_, first), (v, _) = sorted(h._secondary.items())
    h._secondary[v] = {
        "duplicated": first,
        "primary": h.node_count() - 1,  # would index the h-entry array at -1
        "past-end": len(REF_TEXT) + 1,
        "zero": 0,
    }[kind]
    with pytest.raises(AssertionError, match="out of range or stored twice"):
        augment(h)


@pytest.mark.parametrize(
    "text",
    [b"a" * 32768, b"abc" * 10923, fibonacci_word(20000),
     random.Random(3).randbytes(5000)],
    ids=["unary", "periodic", "fibonacci", "random"],
)
@pytest.mark.parametrize("flat_threshold", [1 << 18, 4], ids=["small", "flat"])
def test_node_of_matches_stored_positions(text, flat_threshold, monkeypatch):
    import posheap.heap as hp

    monkeypatch.setattr(hp, "_FLAT_THRESHOLD", flat_threshold)
    h = hp.index(text)
    assert h._flat == (len(text) >= flat_threshold)
    owner = {}
    for v in range(1, h.node_count()):
        for pos in (h.primary(v), h.secondary(v)):
            if pos is not None:
                assert pos not in owner
                owner[pos] = v
    assert sorted(owner) == list(range(1, len(text) + 1))
    a = augment(h)
    assert [a.node_of(i) for i in range(1, len(text) + 1)] == [
        owner[i] for i in range(1, len(text) + 1)
    ]


def test_node_of_reference(ref_heap, node_by_label):
    a = augment(ref_heap)
    assert a.node_of(12) == node_by_label[b"ab"]
    assert a.node_of(4) == node_by_label[b"abb"]
    # bijection: all 13 positions covered, double nodes twice
    owners = [a.node_of(i) for i in range(1, 14)]
    assert sorted(set(owners)) == list(range(1, 12))


def test_mrp_reference_values(ref_heap, node_by_label):
    a = augment(ref_heap)
    for i, label in REF_MRP_DEEP.items():
        assert a.mrp_node(i) == node_by_label[label], f"mrp({i})"
    for i in range(1, 14):
        if i not in REF_MRP_DEEP:
            assert a.mrp_node(i) == a.node_of(i), f"mrp({i})"


def test_mrp_secondary_positions_map_to_own_node(ref_heap):
    a = augment(ref_heap)
    for v, pos in ref_heap._secondary.items():
        assert a.mrp_node(pos) == v
        node, length = a.longest_rep_prefix(pos)
        assert node == v
        assert length == 13 - pos + 1


def test_longest_rep_prefix_reference(ref_heap, node_by_label):
    a = augment(ref_heap)
    assert a.longest_rep_prefix(1) == (node_by_label[b"aab"], 3)


@given(texts)
def test_mrp_matches_naive_walks(s):
    h = index(s)
    a = augment(h)
    naive = naive_mrp_nodes(h)
    for i in range(1, len(s) + 1):
        assert a.mrp_node(i) == naive[i], f"mrp({i}) on {s!r}"


def test_mrp_matches_naive_exhaustive():
    for s in all_strings(b"ab", 10, min_len=1):
        h = index(s)
        a = augment(h)
        naive = naive_mrp_nodes(h)
        for i in range(1, len(s) + 1):
            assert a.mrp_node(i) == naive[i], f"mrp({i}) on {s!r}"


@given(texts)
def test_node_of_is_ancestor_of_mrp(s):
    a = augment(index(s))
    for i in range(1, len(s) + 1):
        assert a.is_ancestor(a.node_of(i), a.mrp_node(i))


def check_ancestor_structures(s: bytes, flat_threshold: int) -> None:
    """Preorder ranges, subtree slices and parentheses vs parent walks."""
    import posheap.heap as hp

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hp, "_FLAT_THRESHOLD", flat_threshold)
        h = index(s)
    assert h._flat == (len(s) >= flat_threshold)
    a = augment(h)
    parens = parens_from_heap(h)
    nodes = range(h.node_count())
    rng = random.Random(len(s) * 31)
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(100)]
    pairs += [(v, v) for v in nodes[:10]]
    for u, v in pairs:
        expect = is_ancestor_walk(h, u, v)
        assert a.is_ancestor(u, v) == expect
        assert parens.is_ancestor(u, v) == expect
    for v in nodes:
        below = [w for w in nodes if is_ancestor_walk(h, v, w)]
        assert sorted(a.subtree_nodes(v)) == below
        assert [a.is_ancestor(v, w) for w in nodes] == [w in below for w in nodes]


@given(texts)
def test_ancestor_structures_agree(s):
    check_ancestor_structures(s, 1 << 18)
    check_ancestor_structures(s, 4)


@pytest.mark.parametrize(
    "text",
    [b"a" * 300, b"abc" * 100, fibonacci_word(300)],
    ids=["unary", "periodic", "fibonacci"],
)
@pytest.mark.parametrize("flat_threshold", [1 << 18, 4], ids=["small", "flat"])
def test_ancestor_structures_adversarial(text, flat_threshold):
    check_ancestor_structures(text, flat_threshold)


def test_ancestor_structures_all_pairs_reference(ref_heap):
    a = augment(ref_heap)
    parens = parens_from_heap(ref_heap)
    for u in range(12):
        for v in range(12):
            expect = is_ancestor_walk(ref_heap, u, v)
            assert a.is_ancestor(u, v) == expect
            assert parens.is_ancestor(u, v) == expect


def test_subtree_nodes(ref_heap, node_by_label):
    a = augment(ref_heap)
    sub = set(a.subtree_nodes(node_by_label[b"ab"]))
    assert sub == {node_by_label[b] for b in (b"ab", b"aba", b"abb")}
    assert len(a.subtree_nodes(0)) == 12


def test_node_ids_range_checked():
    a = augment(index(b"abracadabra"))
    n_nodes = a.heap.node_count()
    for bad in (-1, n_nodes, 99):
        with pytest.raises(ValueError, match="no such node"):
            a.is_ancestor(bad, 3)
        with pytest.raises(ValueError, match="no such node"):
            a.is_ancestor(0, bad)
        with pytest.raises(ValueError, match="no such node"):
            a.subtree_nodes(bad)
    assert a.is_ancestor(0, n_nodes - 1)
    assert len(a.subtree_nodes(n_nodes - 1)) >= 1


# ----------------------------------------------------------------------
# unary encoding of reach depths


def test_unary_encoding_fixture():
    bits = MrpBits.from_values([1, 2, 0, 3, 0, 1, 0])
    assert bits.bits.to01() == "10110011100100"


def test_encode_abaab():
    a = augment(index(b"abaab"))
    depths = list(a.mrp_depths())
    assert depths == [2, 1, 2, 2, 1]
    enc = a.encode_mrp()
    assert enc.bits.to01() == "1100110100"
    assert enc.mrp_depth(3) == 2
    for i in range(1, 6):
        assert enc.mrp_depth(i) == depths[i - 1]


def test_encode_all_distinct_letters():
    a = augment(index(b"abc"))
    enc = a.encode_mrp()
    assert enc.bits.to01() == "101010"


def test_encoder_rejects_negative_delta():
    with pytest.raises(ValueError):
        MrpBits.from_depths([3, 1])  # drop of 2 is impossible
    for depths in ([-1, 2], [5, 1], [1, 3, 1, 1]):
        with pytest.raises(ValueError):
            MrpBits.from_depths(depths)
    for values in ([-1], [1, -1], [5, -3]):
        with pytest.raises(ValueError):
            MrpBits.from_values(values)


def test_encoder_rejects_wrong_depth_sum():
    # the depths must sum to n, so the last one is 1
    for depths in ([2], [0], [1, 2], [3, 2]):
        with pytest.raises(AssertionError):
            MrpBits.from_depths(depths)


@given(st.lists(st.integers(min_value=0), max_size=300))
def test_from_values_matches_from_depths(balls):
    # n balls in n bins give n nonnegative values that sum to n: the
    # unary values of a valid depth chain, which ends at depth 1
    n = len(balls)
    values = [0] * n
    for b in balls:
        values[b % n] += 1
    depths = [m - i for i, m in enumerate(accumulate(values))]
    by_values = MrpBits.from_values(values)
    by_depths = MrpBits.from_depths(depths)
    assert by_values.bits.nbits == by_depths.bits.nbits == 2 * n
    assert by_values.bits.words == by_depths.bits.words
    for i in range(1, n + 1):
        assert by_depths.mrp_depth(i) == depths[i - 1]


@given(texts)
def test_mrp_chain_inequality_and_sum(s):
    a = augment(index(s))
    d = list(a.mrp_depths())
    n = len(s)
    for i in range(1, n):
        assert d[i] >= d[i - 1] - 1
    deltas = [d[i] - d[i - 1] + 1 for i in range(1, n)]
    assert d[0] + sum(deltas) == n
    enc = a.encode_mrp()
    assert enc.bits.nbits == 2 * n
    assert enc.bits.n_ones == n


@given(texts)
def test_mrp_depth_decoding_matches_explicit(s):
    a = augment(index(s))
    enc = a.encode_mrp()
    d = list(a.mrp_depths())
    for i in range(1, len(s) + 1):
        assert enc.mrp_depth(i) == d[i - 1]


def test_mrp_last_position_depth_one():
    for s in (b"a", b"ab", b"abcabc", REF_TEXT):
        a = augment(index(s))
        assert a.heap.depth(a.mrp_node(len(s))) == 1


def test_position_bounds():
    a = augment(index(b"ab"))
    with pytest.raises(ValueError):
        a.node_of(0)
    with pytest.raises(ValueError):
        a.mrp_node(3)
    enc = a.encode_mrp()
    with pytest.raises(ValueError):
        enc.mrp_depth(0)


def test_empty_text_augment():
    a = augment(index(b""))
    assert a.n == 0
    enc = a.encode_mrp()
    assert enc.bits.nbits == 0


def test_flat_mode_pipeline_equivalence(monkeypatch):
    # the large-text construction path has its own reach-computation and
    # lookup branches; force it on small inputs and cross-check everything
    import posheap.heap as hp
    from posheap import find_all, find_all_naive

    monkeypatch.setattr(hp, "_FLAT_THRESHOLD", 4)
    rng = random.Random(55)
    cases = [bytes(rng.choice(b"ab") for _ in range(rng.randint(4, 60))) for _ in range(25)]
    cases += [bytes(rng.randrange(256) for _ in range(rng.randint(4, 120))) for _ in range(15)]
    cases += [bytes(rng.choice(b"acgt") for _ in range(rng.randint(300, 600))) for _ in range(3)]
    cases += [b"a" * 64, b"abc" * 30, b"aababbbaabaab", fibonacci_word(400)]
    for s in cases:
        h = hp.PositionHeap()
        h.extend(s)
        h.finalize()
        assert h._flat
        a = augment(h)
        naive = naive_mrp_nodes(h)
        for i in range(1, len(s) + 1):
            assert a.mrp_node(i) == naive[i], (s, i)
        enc = a.encode_mrp()
        depths = list(a.mrp_depths())
        for i in range(1, len(s) + 1):
            assert enc.mrp_depth(i) == depths[i - 1]
        for _ in range(12):
            m = rng.randint(1, 8)
            start = rng.randint(0, len(s) - 1)
            p = s[start:start + m] or s[:1]
            assert find_all(a, p) == find_all_naive(s, p), (s, p)
        rnd = bytes(rng.randrange(256) for _ in range(3))
        assert find_all(a, rnd) == find_all_naive(s, rnd)
        # long patterns run through the deep tables, with one letter
        # changed so that later segments must be filtered
        for _ in range(4 if len(s) >= 64 else 0):
            m = rng.randint(64, len(s))
            start = rng.randint(0, len(s) - m)
            p = s[start:start + m]
            assert find_all(a, p) == find_all_naive(s, p), (s, p)
            at = rng.randrange(m)
            q = p[:at] + bytes([p[at] ^ 1]) + p[at + 1:]
            assert find_all(a, q) == find_all_naive(s, q), (s, q)


def test_flat_mode_loaded_index_queries(monkeypatch):
    import io

    import posheap.heap as hp
    from posheap import find_all, find_all_naive
    from posheap.index_io import index_json, load_index

    monkeypatch.setattr(hp, "_FLAT_THRESHOLD", 4)
    s = b"mississippi banana abracadabra" * 3
    h = hp.build(s)
    h.finalize()
    aug = augment(h)
    blob = index_json(aug)
    aug2 = load_index(io.StringIO(blob))
    for p in (b"ss", b"an", b"abra", b"i", b"zzz"):
        assert find_all(aug2, p) == find_all_naive(s, p)
