import random
import resource
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posheap import (
    PositionHeap,
    build,
    h_oracle,
    index,
    is_ancestor_walk,
    oracle_build,
    recover_text,
    structurally_equal,
)
from posheap.heap import _FLAT_THRESHOLD

from conftest import REF_PRIMARIES, REF_SECONDARIES, REF_TEXT, all_strings

texts = st.binary(max_size=40) | st.text(alphabet="ab", max_size=30).map(
    lambda s: s.encode()
)


def test_new_heap_is_root_only():
    h = PositionHeap()
    assert h.node_count() == 1
    assert h.active_node == 0
    assert h.active_position == 1
    assert h.depth(0) == 0
    assert build(b"").node_count() == 1


def test_empty_finalize_is_noop():
    h = PositionHeap()
    h.finalize()
    assert h.finalized
    assert h.node_count() == 1
    h.finalize()  # idempotent


def test_append_after_finalize_rejected():
    h = index(b"ab")
    with pytest.raises(ValueError):
        h.append(97)
    with pytest.raises(ValueError):
        h.extend(b"x")


def test_single_letter():
    h = index(b"a")
    assert h.node_count() == 2
    assert h.path_label(0) == b""
    assert h.path_label(1) == b"a"
    assert h.primary(1) == 1
    assert h.secondary(1) is None


def test_reference_trie_structure(ref_heap, node_by_label):
    # exactly the hand-checked trie: labels, creation order, double nodes
    assert ref_heap.node_count() == 12
    assert ref_heap.active_position == 12
    assert set(node_by_label) == set(REF_PRIMARIES) | {b""}
    for label, pos in REF_PRIMARIES.items():
        v = node_by_label[label]
        assert ref_heap.primary(v) == pos
        assert v == pos  # creation order == primary order
    for v in range(1, 12):
        lbl = ref_heap.path_label(v)
        expected = REF_SECONDARIES.get(lbl)
        assert ref_heap.secondary(v) == expected


def test_reference_suffix_links(ref_heap, node_by_label, label_of):
    # every non-root link drops the first letter of the label
    for v in range(1, 12):
        f = ref_heap.suffix_link(v)
        assert label_of[f] == label_of[v][1:]
    assert ref_heap.suffix_link(0) is None


def test_reference_children(ref_heap, node_by_label):
    assert ref_heap.child(0, ord("a")) == node_by_label[b"a"]
    assert ref_heap.child(node_by_label[b"bb"], ord("b")) is None
    leaf = node_by_label[b"baa"]
    assert all(ref_heap.child(leaf, c) is None for c in range(256))


def test_abaab_example():
    h = index(b"abaab")
    labels = {h.path_label(v): v for v in range(h.node_count())}
    assert set(labels) == {b"", b"a", b"b", b"aa", b"ab"}
    assert h.primary(labels[b"a"]) == 1
    assert h.primary(labels[b"b"]) == 2
    assert h.primary(labels[b"aa"]) == 3
    assert h.primary(labels[b"ab"]) == 4
    assert h.secondary(labels[b"b"]) == 5
    assert h.active_position == 5


def test_aaaa_example():
    h = index(b"aaaa")
    labels = {h.path_label(v): v for v in range(h.node_count())}
    assert set(labels) == {b"", b"a", b"aa"}
    assert h.secondary(labels[b"aa"]) == 3
    assert h.secondary(labels[b"a"]) == 4


def test_sentinel_text_has_no_secondaries():
    h = index(b"abab$")
    assert h.active_position == 6
    assert h._secondary == {}
    assert h.node_count() == 6


def test_oracle_matches_online_small_exhaustive():
    for s in all_strings(b"ab", 9):
        diff = structurally_equal(index(s), oracle_build(s))
        assert diff is None, f"{s!r}: {diff}"
    for s in all_strings(b"abc", 6):
        diff = structurally_equal(index(s), oracle_build(s))
        assert diff is None, f"{s!r}: {diff}"


def test_prefix_consistency_online_property():
    rng = random.Random(42)
    samples = [bytes(rng.choice(b"ab") for _ in range(rng.randint(1, 24))) for _ in range(40)]
    samples += [b"aababbbaabaab", b"aaaaaaaa", b"abcabcabc"]
    for s in samples:
        h = PositionHeap()
        for k, c in enumerate(s, start=1):
            h.append(c)
            snap = h.copy()
            snap.finalize()
            diff = structurally_equal(snap, oracle_build(s[:k]))
            assert diff is None, f"{s!r} at k={k}: {diff}"


@given(texts)
def test_suffix_link_drops_first_letter(s):
    h = index(s)
    for v in range(1, h.node_count()):
        f = h.suffix_link(v)
        assert h.path_label(f) == h.path_label(v)[1:]


@given(texts)
def test_stored_positions_are_occurrences(s):
    h = index(s)
    n = len(s)
    for v in range(1, h.node_count()):
        label = h.path_label(v)
        p = h.primary(v)
        assert s[p - 1:p - 1 + len(label)] == label
        q = h.secondary(v)
        if q is not None:
            # a secondary's label is the whole suffix
            assert s[q - 1:] == label


@given(texts)
def test_secondary_positions_form_tail_interval(s):
    h = index(s)
    secs = sorted(h._secondary.values())
    n = len(s)
    assert secs == list(range(h.active_position, n + 1))


@given(texts)
def test_depth_bounded_by_twice_h(s):
    h = index(s)
    assert h.tree_depth() <= 2 * h_oracle(s)


@given(texts)
def test_node_count_accounting(s):
    h = build(s)
    # one creation per loop pass; active position arithmetic must agree
    assert h.node_count() == h.active_position
    assert h.creations == h.node_count() - 1
    d = len(s) + 1 - h.active_position
    assert h.depth(h.active_node) == d


def test_h_oracle_examples():
    assert h_oracle(b"aaaa") == 2
    assert h_oracle(b"a") == 1
    assert h_oracle(b"") == 0
    assert h_oracle(b"ab") == 1


def test_streaming_equals_batch():
    rng = random.Random(7)
    for trial in range(25):
        s = bytes(rng.randrange(4) + 97 for _ in range(rng.randint(0, 60)))
        ha = PositionHeap()
        for c in s:
            ha.append(c)
        hb = build(s)
        assert structurally_equal_nofinal(ha, hb)


def structurally_equal_nofinal(a, b):
    ca, cb = a.copy(), b.copy()
    ca.finalize()
    cb.finalize()
    return structurally_equal(ca, cb) is None


def test_flat_mode_equivalence_forced(monkeypatch):
    # run the large-text path on small inputs by lowering the threshold
    import posheap.heap as hp

    monkeypatch.setattr(hp, "_FLAT_THRESHOLD", 4)
    rng = random.Random(13)
    cases = [bytes(rng.choice(b"ab") for _ in range(n)) for n in range(0, 32)]
    cases += [bytes(rng.randrange(256) for _ in range(rng.randint(0, 80))) for _ in range(24)]
    cases += list(all_strings(b"ab", 5))
    for s in cases:
        hf = hp.build(s)
        assert hf._flat or len(s) < 4
        hf.finalize()
        diff = structurally_equal(hf, oracle_build(s))
        assert diff is None, f"{s!r}: {diff}"


def test_streamed_degenerate_text_past_threshold(monkeypatch):
    # unary text keeps the active node deep; the per-byte step must stay
    # O(creations), not O(depth)
    import posheap.heap as hp

    monkeypatch.setattr(hp, "_FLAT_THRESHOLD", 64)
    h = hp.PositionHeap()
    for c in b"a" * 3000:
        h.append(c)
    h.finalize()
    diff = structurally_equal(h, oracle_build(b"a" * 3000))
    assert diff is None


def test_flat_migration_mid_stream(monkeypatch):
    import posheap.heap as hp

    monkeypatch.setattr(hp, "_FLAT_THRESHOLD", 10)
    rng = random.Random(99)
    for trial in range(20):
        s = bytes(rng.choice(b"abc") for _ in range(rng.randint(11, 50)))
        h = hp.PositionHeap()
        cut = rng.randint(0, len(s))
        for c in s[:cut]:
            h.append(c)
        h.extend(s[cut:])
        h.finalize()
        diff = structurally_equal(h, oracle_build(s))
        assert diff is None, f"{s!r} cut={cut}: {diff}"


def test_copy_across_flat_migration(monkeypatch):
    # a copy must carry every per-node list: the original and the copy
    # grow apart, one of them through the small -> flat migration
    import posheap.heap as hp

    monkeypatch.setattr(hp, "_FLAT_THRESHOLD", 10)
    rng = random.Random(5)
    for trial in range(20):
        head = bytes(rng.choice(b"abc") for _ in range(rng.randint(0, 14)))
        tail_a = bytes(rng.choice(b"abc") for _ in range(rng.randint(1, 30)))
        tail_b = bytes(rng.choice(b"abcd") for _ in range(rng.randint(1, 30)))
        h = hp.PositionHeap()
        for c in head:
            h.append(c)
        snap = h.copy()
        h.extend(tail_a)
        for c in tail_b:
            snap.append(c)
        for heap, s in ((h, head + tail_a), (snap, head + tail_b)):
            heap.finalize()
            assert heap._flat == (len(s) >= 10)
            diff = structurally_equal(heap, oracle_build(s))
            assert diff is None, f"{head!r} + {s[len(head):]!r}: {diff}"


def test_structurally_equal_checks_edge_tables(monkeypatch):
    # parents and letters are recorded apart from the edge tables, so an
    # edge pointing to the wrong node must still be reported
    import posheap.heap as hp

    for threshold in (hp._FLAT_THRESHOLD, 4):
        monkeypatch.setattr(hp, "_FLAT_THRESHOLD", threshold)
        h = hp.index(REF_TEXT)
        a, b = h.child(0, ord("a")), h.child(0, ord("b"))
        h._deep[ord("a")][0], h._deep[ord("b")][0] = b, a
        assert "does not lead to it" in structurally_equal(h, oracle_build(REF_TEXT))


def _l3_entries(l3) -> int:
    # scanned 1 MiB at a time; pages never written read as zeros
    raw = l3.obj
    step = 1 << 20
    count = 0
    for at in range(0, len(raw), step):
        chunk = raw[at:at + step]
        if chunk.count(0) != len(chunk):
            words = array("i", chunk)
            count += len(words) - words.count(0)
    return count


def _assert_edges_in_one_table(h):
    # every per-letter dict keeps the virtual bottom's edge to the root
    assert all(d[-1] == 0 for d in h._deep)
    deep = sum(map(len, h._deep)) - 256
    if not h._flat:
        assert deep == h.node_count() - 1
        return
    assert _l3_entries(h._l3) + deep == h.node_count() - 1
    depth = h._depths()
    assert all(depth[v] != 2 for d in h._deep for v in d if v >= 0)


def test_every_edge_in_exactly_one_table(monkeypatch):
    import posheap.heap as hp

    monkeypatch.setattr(hp, "_FLAT_THRESHOLD", 10)
    rng = random.Random(21)
    texts = [REF_TEXT, b"a" * 40, b"ab" * 20, bytes(range(40))]
    texts += [bytes(rng.choice(b"abcd") for _ in range(rng.randint(0, 60))) for _ in range(6)]
    for s in texts:
        h = hp.build(s)
        assert h._flat == (len(s) >= 10)
        _assert_edges_in_one_table(h)
    # on-line streams that cross the threshold, in steps and in chunks
    for trial in range(6):
        s = bytes(rng.choice(b"abc") for _ in range(rng.randint(11, 60)))
        h = hp.PositionHeap()
        cut = rng.randint(0, 9)
        for c in s[:cut]:
            h.append(c)
        _assert_edges_in_one_table(h)
        for c in s[cut:cut + 5]:
            h.append(c)
        h.extend(s[cut + 5:])
        assert h._flat
        _assert_edges_in_one_table(h)


def test_copy_of_flat_heap_writes_few_pages(monkeypatch):
    # the copy's level-3 table is a fresh 64 MiB map; copying it whole
    # would fault in all 16,384 pages
    import posheap.heap as hp

    monkeypatch.setattr(hp, "_FLAT_THRESHOLD", 4)
    h = hp.build(b"abcabdabc")
    assert h._flat
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    snap = h.copy()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 16384 // 8
    h.finalize()
    snap.finalize()
    assert structurally_equal(snap, h) is None


def test_path_label_prefix_property_exhaustive():
    for s in all_strings(b"ab", 10, min_len=1):
        h = index(s)
        for v in range(1, h.node_count()):
            label = h.path_label(v)
            p = h.primary(v)
            assert s[p - 1:p - 1 + len(label)] == label


def test_is_ancestor_walk():
    h = index(REF_TEXT)
    lbl = {h.path_label(v): v for v in range(h.node_count())}
    assert is_ancestor_walk(h, 0, lbl[b"baa"])
    assert is_ancestor_walk(h, lbl[b"b"], lbl[b"baa"])
    assert not is_ancestor_walk(h, lbl[b"ab"], lbl[b"aab"])
    assert is_ancestor_walk(h, lbl[b"ab"], lbl[b"ab"])


@given(texts)
def test_recover_text_roundtrip(s):
    assert recover_text(index(s)) == s


def test_recover_text_requires_finalized():
    with pytest.raises(ValueError):
        recover_text(build(b"ab"))


def test_letter_validation():
    h = PositionHeap()
    with pytest.raises(ValueError):
        h.append(300)
    with pytest.raises(ValueError):
        h.child(5, 0)


def _state(h):
    return (bytes(h._text), list(h._suffix), list(h._parent), h._active,
            dict(h._secondary), [dict(d) for d in h._deep], h._flat, h._finalized)


def _streamed(hp, s):
    h = hp.PositionHeap()
    for c in s:
        h.append(c)
    return h


def test_append_after_finalize_leaves_heap_unchanged(monkeypatch):
    # every way of getting a finalized heap must shut append's fast path
    import posheap.heap as hp

    monkeypatch.setattr(hp, "_FLAT_THRESHOLD", 10)
    for s in (b"abc", REF_TEXT):
        streamed = _streamed(hp, s)
        streamed.finalize()
        for h in (hp.index(s), streamed, hp.index(s).copy(), hp.oracle_build(s)):
            assert h.finalized
            before = _state(h)
            for letter in (97, 300):
                with pytest.raises(ValueError, match="finalized"):
                    h.append(letter)
            assert _state(h) == before


@pytest.mark.parametrize("n", [0, 5, 9])
def test_append_rejects_bad_letters_unchanged(monkeypatch, n):
    # n == 9 sits one byte below the threshold, on the slow path
    import posheap.heap as hp

    monkeypatch.setattr(hp, "_FLAT_THRESHOLD", 10)
    s = REF_TEXT[:n]
    h = _streamed(hp, s)
    before = _state(h)
    for letter in (300, -1, 256):
        with pytest.raises(ValueError, match="out of byte range"):
            h.append(letter)
    for letter in (1.5, "a", None):
        with pytest.raises(TypeError):
            h.append(letter)
    assert _state(h) == before
    # the next good byte still takes the heap to flat mode at the threshold
    for c in REF_TEXT[n:]:
        h.append(c)
    assert h._flat
    h.finalize()
    assert structurally_equal(h, oracle_build(REF_TEXT)) is None


def test_append_past_max_text_unchanged(monkeypatch):
    import posheap.heap as hp

    monkeypatch.setattr(hp, "_FLAT_THRESHOLD", 10)
    monkeypatch.setattr(hp, "_MAX_TEXT", 6)
    h = _streamed(hp, REF_TEXT[:6])
    before = _state(h)
    with pytest.raises(ValueError, match="too long"):
        h.append(REF_TEXT[6])
    with pytest.raises(ValueError, match="too long"):
        h.extend(REF_TEXT[6:7])
    assert _state(h) == before
    assert not h._flat


def test_append_reaches_flat_mode(monkeypatch):
    # a bound frozen when the module was imported would keep these small
    import posheap.heap as hp

    monkeypatch.setattr(hp, "_FLAT_THRESHOLD", 10)
    rng = random.Random(11)
    for trial in range(10):
        s = bytes(rng.choice(b"abc") for _ in range(rng.randint(10, 40)))
        # byte by byte across the threshold
        crossed = _streamed(hp, s)
        # appends after an extend that migrated
        cut = rng.randint(10, len(s))
        migrated = hp.build(s[:cut])
        assert migrated._flat
        for c in s[cut:]:
            migrated.append(c)
        # appends to a copy taken one byte below the threshold
        below = _streamed(hp, s[:9]).copy()
        assert not below._flat
        for c in s[9:]:
            below.append(c)
        for h in (crossed, migrated, below):
            assert h._flat
            h.finalize()
            diff = structurally_equal(h, oracle_build(s))
            assert diff is None, f"{s!r}: {diff}"


def test_node_view(ref_heap, node_by_label):
    v = node_by_label[b"ab"]
    view = ref_heap.node(v)
    assert view.id == v
    assert view.parent == node_by_label[b"a"]
    assert view.in_letter == ord("b")
    assert view.suffix_link == node_by_label[b"b"]
    assert view.depth == 2
    assert view.primary == 2
    assert view.secondary == 12
    assert set(view.children) == {ord("a"), ord("b")}
    root = ref_heap.node(0)
    assert root.parent is None and root.primary is None


def test_children_sorted_by_letter(monkeypatch):
    import posheap.heap as hp

    h = index(b"cba")
    kids = h.children_of(0)
    assert [c for c, _ in kids] == sorted(c for c, _ in kids)
    # children_of probes child() per letter; it must match the whole-tree
    # lists in small and flat mode alike
    for threshold in (hp._FLAT_THRESHOLD, 4):
        monkeypatch.setattr(hp, "_FLAT_THRESHOLD", threshold)
        h = hp.index(REF_TEXT + bytes(range(0, 256, 5)) + REF_TEXT)
        assert h._flat == (threshold == 4)
        assert [h.children_of(v) for v in range(h.node_count())] == h.children_lists()


def _no_depths():
    raise AssertionError("_depths called")


def _assert_edges_match(h, ref):
    # children_of reads the edge tables only, never derived arrays
    assert h.node_count() == ref.node_count()
    for v in range(ref.node_count()):
        assert h.children_of(v) == ref.children_of(v), v


def test_flat_child_between_appends_reads_no_derived_arrays(monkeypatch):
    # child() on a growing flat heap must not rebuild the O(n) depth
    # array after every append, and neither the migration to flat mode
    # nor copy() may derive it
    import posheap.heap as hp

    monkeypatch.setattr(hp, "_FLAT_THRESHOLD", 4)
    rng = random.Random(8)
    s = REF_TEXT + bytes(rng.choice(b"abc") for _ in range(40))
    h = hp.PositionHeap()
    for c in s[:4]:
        h.append(c)
    assert h._flat
    monkeypatch.setattr(h, "_depths", _no_depths)
    for k in range(5, len(s) + 1):
        h.append(s[k - 1])
        ref = oracle_build(s[:k])
        _assert_edges_match(h, ref)
        for v in range(ref.node_count()):
            assert h.child(v, s[k - 1]) == ref.child(v, s[k - 1]), (k, v)

    # a byte-by-byte stream across the threshold, then a copy of it
    monkeypatch.setattr(hp, "_FLAT_THRESHOLD", 10)
    s = REF_TEXT + bytes(rng.choice(b"abcd") for _ in range(30))
    h = hp.PositionHeap()
    monkeypatch.setattr(h, "_depths", _no_depths)
    for c in s:
        h.append(c)
    assert h._flat
    _assert_edges_match(h, oracle_build(s))
    snap = h.copy()
    monkeypatch.setattr(snap, "_depths", _no_depths)
    assert snap._flat
    _assert_edges_match(snap, oracle_build(s))
    snap.extend(b"dcba")
    _assert_edges_match(snap, oracle_build(s + b"dcba"))


def test_to_bytes_coercion():
    from posheap import to_bytes

    assert to_bytes("ab") == b"ab"
    assert to_bytes(bytearray(b"xy")) == b"xy"
    assert to_bytes("\xff") == b"\xff"
    with pytest.raises(UnicodeEncodeError):
        to_bytes("☃")  # outside one-byte range
    with pytest.raises(TypeError):
        to_bytes(123)


def test_str_input_builds():
    diff = structurally_equal(index("abab"), index(b"abab"))
    assert diff is None
