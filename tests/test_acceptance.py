"""Acceptance criteria, one test per criterion, at their stated sizes.

Each test prints a single pass line (visible with pytest -s / -rA);
failing asserts name the offending case.  Time-bounded criteria measure
wall time and assert the stated budget.
"""

import time

from posheap import augment, build, index
from posheap.verify import (
    check_ancestors_exhaustive,
    check_ancestors_random,
    check_construction,
    check_search_exhaustive,
    check_search_random,
    check_theorem_properties,
)
from posheap.augmented import MrpBits

from conftest import (
    REF_MRP_DEEP,
    REF_PRIMARIES,
    REF_SECONDARIES,
    REF_TEXT,
    make_text,
    time_build,
)


def report(line):
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_figure_reproduction():
    best = None
    for _ in range(5):
        t0 = time.perf_counter()
        h = index(REF_TEXT)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    labels = {h.path_label(v): v for v in range(1, h.node_count())}
    assert set(labels) == set(REF_PRIMARIES)
    for label, pos in REF_PRIMARIES.items():
        assert h.primary(labels[label]) == pos
    for v in range(1, 12):
        assert h.secondary(v) == REF_SECONDARIES.get(h.path_label(v))
    assert h.node_count() == 12
    assert best < 1e-3
    report(f"1 figure reproduction: exact trie, build+finalize {best * 1e6:.0f} us  PASS")


def test_criterion_2_suffix_pointers():
    h = index(REF_TEXT)
    checked = 0
    for v in range(1, 12):
        f = h.suffix_link(v)
        assert h.path_label(f) == h.path_label(v)[1:], f"link of node {v}"
        checked += 1
    assert h.suffix_link(0) is None  # virtual bottom
    checked += 1
    assert checked == 12
    report("2 suffix pointers: 12/12 links correct  PASS")


def test_criterion_3_maximal_reach_reproduction():
    h = index(REF_TEXT)
    a = augment(h)
    labels = {h.path_label(v): v for v in range(h.node_count())}
    for i, label in REF_MRP_DEEP.items():
        assert a.mrp_node(i) == labels[label], f"reach of position {i}"
    for i in range(1, 14):
        if i not in REF_MRP_DEEP:
            assert a.mrp_node(i) == a.node_of(i), f"reach of position {i}"
    report("3 maximal reach: all 13 positions exact  PASS")


def test_criterion_4_encoding_fixture():
    enc = MrpBits.from_values([1, 2, 0, 3, 0, 1, 0])
    assert enc.bits.to01() == "10110011100100"
    import random

    rng = random.Random(2024)
    strings = 1000
    for t in range(strings):
        n = rng.randint(1, 10_000)
        k = rng.choice((2, 3, 4, 26, 256))
        s = bytes(rng.randrange(k) for _ in range(n))
        a = augment(index(s))
        depths = list(a.mrp_depths())
        bits = a.encode_mrp()
        assert bits.bits.nbits == 2 * n
        for i in range(1, n + 1):
            assert bits.mrp_depth(i) == depths[i - 1], (t, i)
    report(f"4 encoding: fixture exact, decode == explicit on {strings} strings  PASS")


def test_criterion_5_construction_oracle_equivalence():
    t0 = time.perf_counter()
    cases_b, fail = check_construction(b"ab", 12, prefixes=True)
    assert fail is None, fail
    cases_t, fail = check_construction(b"abc", 8, prefixes=True)
    assert fail is None, fail
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"construction suite took {dt:.1f}s"
    report(
        f"5 construction oracle: {cases_b + cases_t} cases (incl. prefixes), "
        f"{dt:.1f}s < 60s  PASS"
    )


def test_criterion_6_theorem_properties():
    cases_b, fail = check_theorem_properties(b"ab", 12)
    assert fail is None, fail
    cases_t, fail = check_theorem_properties(b"abc", 8)
    assert fail is None, fail
    report(f"6 represented-set properties: {cases_b + cases_t} texts, 0 violations  PASS")


def test_criterion_7_matching_equivalence():
    t0 = time.perf_counter()
    cases_ex, fail = check_search_exhaustive(b"ab", 11, b"ab", 6)
    assert fail is None, fail
    cases_rnd, fail = check_search_random(n=10_000, pairs=10_000, alphabet_size=4, seed=41)
    assert fail is None, fail
    dt = time.perf_counter() - t0
    assert dt < 300.0, f"matching suite took {dt:.1f}s"
    report(
        f"7 matching: {cases_ex} exhaustive + {cases_rnd} random pairs, "
        f"{dt:.1f}s < 300s  PASS"
    )


def test_criterion_8_linearity_and_throughput():
    times = {}
    for size in (1_000_000, 2_000_000, 4_000_000):
        data = make_text(size, "random", seed=9)
        seconds, heap = time_build(data, repeats=2)
        assert heap.creations == heap.node_count() - 1
        assert heap.node_count() == heap.active_position
        times[size] = seconds
        del heap
    r1 = times[2_000_000] / times[1_000_000]
    r2 = times[4_000_000] / times[2_000_000]
    assert r1 <= 2.5, f"time(2n)/time(n) = {r1:.2f} at n=1e6"
    assert r2 <= 2.5, f"time(2n)/time(n) = {r2:.2f} at n=2e6"
    data = make_text(10_000_000, "random", seed=10)
    seconds, heap = time_build(data, repeats=3)
    assert heap.creations == heap.node_count() - 1
    assert seconds < 10.0, f"10 MB build took {seconds:.2f}s"
    report(
        f"8 linearity: ratios {r1:.2f}/{r2:.2f} <= 2.5, "
        f"10 MB in {seconds:.2f}s < 10s  PASS"
    )


def test_criterion_9_ancestor_structures():
    cases_b, fail = check_ancestors_exhaustive(b"ab", 12)
    assert fail is None, fail
    cases_t, fail = check_ancestors_exhaustive(b"abc", 8)
    assert fail is None, fail
    cases_rnd, fail = check_ancestors_random(
        n=10_000, heaps=100, pairs_per_heap=100_000, seed=77
    )
    assert fail is None, fail
    report(
        f"9 ancestors: {cases_b + cases_t} exhaustive + {cases_rnd} random pair "
        f"checks, 3 methods agree  PASS"
    )
