import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posheap import (
    SearchStats,
    augment,
    count,
    decompose,
    find_all,
    find_all_naive,
    index,
)

from conftest import REF_TEXT, all_strings, fibonacci_word


@pytest.fixture(scope="module")
def ref_aug(request):
    return augment(index(REF_TEXT))


def labels(aug):
    return {aug.heap.path_label(v): v for v in range(aug.heap.node_count())}


def test_decompose_reference(ref_aug):
    lbl = labels(ref_aug)
    d = decompose(ref_aug, b"bab")
    assert d.complete
    assert d.segments == [(lbl[b"ba"], 2), (lbl[b"b"], 1)]

    d = decompose(ref_aug, b"ab")
    assert d.complete
    assert d.segments == [(lbl[b"ab"], 2)]

    d = decompose(ref_aug, b"z")
    assert not d.complete
    assert d.segments == []


def test_decompose_segment_lengths_are_depths(ref_aug):
    for pat in (b"aababb", b"bbbb", b"abab", b"aabaab"):
        d = decompose(ref_aug, pat)
        assert d.complete
        assert sum(l for _, l in d.segments) == len(pat)
        for u, l in d.segments:
            assert ref_aug.heap.depth(u) == l
            assert u != 0


def test_empty_pattern_rejected(ref_aug):
    with pytest.raises(ValueError):
        decompose(ref_aug, b"")
    with pytest.raises(ValueError):
        find_all(ref_aug, b"")
    with pytest.raises(ValueError):
        find_all_naive(REF_TEXT, b"")


def test_find_all_reference_examples(ref_aug):
    assert find_all(ref_aug, b"ab") == [2, 4, 9, 12]
    assert find_all(ref_aug, b"bab") == [3]
    assert find_all(ref_aug, b"bbbb") == []
    assert find_all(ref_aug, b"z") == []
    assert count(ref_aug, b"ab") == 4
    assert count(ref_aug, b"z") == 0


def test_naive_oracle_examples():
    assert find_all_naive(b"aaaa", b"aa") == [1, 2, 3]
    assert find_all_naive(REF_TEXT, b"aab") == [1, 8, 11]
    assert find_all_naive(b"ab", b"abc") == []


def test_find_all_whole_text(ref_aug):
    assert find_all(ref_aug, REF_TEXT) == [1]


def test_exhaustive_small_equivalence():
    for s in all_strings(b"ab", 8, min_len=1):
        aug = augment(index(s))
        for m in range(1, 5):
            for p in all_strings(b"ab", m, min_len=m):
                assert find_all(aug, p) == find_all_naive(s, p), (s, p)


@given(
    st.binary(min_size=1, max_size=60),
    st.binary(min_size=1, max_size=8),
)
def test_random_equivalence(s, p):
    aug = augment(index(s))
    assert find_all(aug, p) == find_all_naive(s, p)
    # also try patterns sampled from the text itself
    if len(s) >= 3:
        sub = s[len(s) // 3: len(s) // 3 + 4]
        if sub:
            assert find_all(aug, sub) == find_all_naive(s, sub)


def test_occurrence_bound_incomplete_patterns():
    rng = random.Random(17)
    for trial in range(120):
        n = rng.randint(4, 80)
        s = bytes(rng.choice(b"ab") for _ in range(n))
        p = bytes(rng.choice(b"ab") for _ in range(rng.randint(2, 10)))
        aug = augment(index(s))
        d = decompose(aug, p)
        occ = find_all(aug, p)
        assert occ == find_all_naive(s, p)
        if d.complete and len(d.segments) >= 2:
            assert len(occ) <= d.segments[0][1]


def test_work_bound():
    rng = random.Random(23)
    for trial in range(60):
        n = rng.randint(10, 2000)
        s = bytes(rng.choice(b"abcd") for _ in range(n))
        aug = augment(index(s))
        for _ in range(6):
            m = rng.randint(1, 12)
            start = rng.randint(0, n - 1)
            p = s[start:start + m] if rng.random() < 0.7 else bytes(
                rng.choice(b"abcd") for _ in range(m)
            )
            if not p:
                continue
            stats = SearchStats()
            occ = find_all(aug, p, stats=stats)
            assert occ == find_all_naive(s, p)
            assert stats.steps <= 12 * (len(p) + len(occ)) + 16, (
                s[:16], p, stats.steps, len(occ))
            assert stats.segments == len(decompose(aug, p).segments)
            assert stats.occurrences == len(occ)


def test_search_stats_accumulate(ref_aug):
    stats = SearchStats()
    for p in (b"ab", b"bab", b"z"):
        find_all(ref_aug, p, stats=stats)
    assert stats.segments == 1 + 2 + 0
    assert stats.occurrences == 4 + 1 + 0


def decompose_by_child(heap, pattern):
    """Root walks through ``heap.child``, one call per letter: the reference."""
    segments = []
    pos = 0
    while pos < len(pattern):
        cur, start = 0, pos
        while pos < len(pattern) and (nxt := heap.child(cur, pattern[pos])) is not None:
            cur = nxt
            pos += 1
        if pos == start:
            return segments, False
        segments.append((cur, pos - start))
    return segments, True


def _walk_text(kind, rng, size=1200):
    if kind == "unary":
        return b"a" * size
    if kind == "periodic":
        return b"abc" * -(-size // 3)
    if kind == "fibonacci":
        return fibonacci_word(size)
    letters = bytes(rng.sample(range(256), 5))
    return bytes(rng.choice(letters) for _ in range(size))


@pytest.mark.parametrize("kind", ["unary", "periodic", "fibonacci", "random"])
@pytest.mark.parametrize("mode", ["small", "flat"])
def test_decompose_matches_child_walks(mode, kind, monkeypatch):
    # short patterns stop at every depth of the flat tables; long ones
    # cross the switch from the level-3 table to the deep dictionaries
    import posheap.heap as hp

    if mode == "flat":
        monkeypatch.setattr(hp, "_FLAT_THRESHOLD", 4)
    rng = random.Random(kind)
    s = _walk_text(kind, rng)
    aug = augment(index(s))
    assert aug.heap._flat == (mode == "flat")
    absent = min(set(range(256)) - set(s))
    patterns = list(all_strings(bytes(sorted(set(s))) + bytes([absent]), 4, min_len=1))
    for _ in range(40):
        m = rng.randint(64, 512)
        start = rng.randint(0, len(s) - m)
        patterns.append(s[start:start + m])
    for p in patterns:
        d = decompose(aug, p)
        assert (d.segments, d.complete) == decompose_by_child(aug.heap, p), p


def test_double_node_contributes_both_positions():
    # text chosen so a double node sits inside a fully-represented pattern
    s = b"abab"
    aug = augment(index(s))
    assert find_all(aug, b"ab") == find_all_naive(s, b"ab") == [1, 3]


def test_patterns_longer_than_text():
    aug = augment(index(b"ab"))
    assert find_all(aug, b"aba") == []
    assert find_all(aug, b"abab") == []


def test_single_letter_patterns():
    for s in (b"a", b"ab", b"aabba", REF_TEXT):
        aug = augment(index(s))
        for c in b"ab":
            assert find_all(aug, bytes([c])) == find_all_naive(s, bytes([c]))


@pytest.mark.parametrize("kind", ["unary", "periodic", "fibonacci"])
@pytest.mark.parametrize("mode", ["small", "flat"])
def test_report_matches_naive_with_many_secondaries(mode, kind, monkeypatch):
    # unary and periodic texts store a quarter to a half of their
    # positions as secondaries, so the subtree report bisects large arrays
    import posheap.heap as hp

    if mode == "flat":
        monkeypatch.setattr(hp, "_FLAT_THRESHOLD", 4)
    rng = random.Random(kind)
    s = _walk_text(kind, rng, 32768)
    aug = augment(index(s))
    assert aug.heap._flat == (mode == "flat")
    absent = min(set(range(256)) - set(s))
    patterns = list(all_strings(bytes(sorted(set(s))) + bytes([absent]), 4, min_len=1))
    for _ in range(40):
        m = rng.randint(1, 300)
        start = rng.randint(0, len(s) - m)
        patterns.append(s[start:start + m])
    for p in patterns:
        want = find_all_naive(s, p)
        assert find_all(aug, p) == want, p
        assert count(aug, p) == len(want), p


@pytest.mark.parametrize(
    "s",
    [REF_TEXT, b"a" * 500, b"abc" * 200, fibonacci_word(500), bytes(range(256)) * 3],
)
def test_secondaries_sorted_by_preorder(s):
    aug = augment(index(s))
    heap = aug.heap
    h = aug.n + 1 - heap.node_count()
    assert len(aug._sec_pre) == len(aug._sec_pos) == h == len(heap._secondary)
    assert all(a < b for a, b in zip(aug._sec_pre, aug._sec_pre[1:]))
    assert sorted(aug._sec_pos) == sorted(heap._secondary.values())
    for p, q in zip(aug._sec_pre, aug._sec_pos):
        v = aug.node_of(q)
        assert heap._secondary[v] == q and aug.pre[v] == p


def test_search_stats_pinned(ref_aug):
    # fixed work counts on the reference text; perfbench compares these
    # counts across commits, so the report's accounting must not drift
    patterns = list(all_strings(b"abz", 4, min_len=1))
    patterns += [REF_TEXT, REF_TEXT[3:9], b"bbaabaab"]
    stats = SearchStats()
    for p in patterns:
        find_all(ref_aug, p, stats=stats)
    assert (stats.steps, stats.segments, stats.occurrences) == (604, 112, 49)


def test_search_stats_candidates(ref_aug):
    # "ab": the ancestor walk tests the one position at node "a"
    stats = SearchStats()
    find_all(ref_aug, b"ab", stats=stats)
    assert stats.candidates == 1
    # "bab" = "ba" + "b": the stage walks "ba" (7) and "b" (3 and 13)
    stats = SearchStats()
    find_all(ref_aug, b"bab", stats=stats)
    assert stats.candidates == 3
    # absent letters test nothing
    stats = SearchStats()
    find_all(ref_aug, b"z", stats=stats)
    assert stats.candidates == 0
