import gc
import itertools
import random
import time

import pytest
from hypothesis import settings

from posheap import PositionHeap, build

settings.register_profile("default", deadline=None, max_examples=120)
settings.load_profile("default")

# Hand-checked 13-letter fixture used throughout: the full trie, suffix
# links and maximal-reach values below were worked out on paper and are
# also cross-checked against the definitional oracle in the tests.
REF_TEXT = b"aababbbaabaab"

# path label -> primary position (creation order), after build+finalize
REF_PRIMARIES = {
    b"a": 1,
    b"ab": 2,
    b"b": 3,
    b"abb": 4,
    b"bb": 5,
    b"bba": 6,
    b"ba": 7,
    b"aa": 8,
    b"aba": 9,
    b"baa": 10,
    b"aab": 11,
}

# path label -> secondary position (the two double nodes)
REF_SECONDARIES = {b"ab": 12, b"b": 13}

# maximal-reach targets that differ from the storing node, as label pairs
REF_MRP_DEEP = {1: b"aab", 2: b"aba", 3: b"ba", 7: b"baa", 8: b"aab"}


def make_text(size: int, kind: str, seed: int) -> bytes:
    if kind == "random":
        return random.Random(seed).randbytes(size)
    if kind == "periodic":
        reps = size // 3 + 1
        return (b"abc" * reps)[:size]
    raise ValueError(f"unknown text kind: {kind}")


def time_build(data: bytes, repeats: int = 2) -> tuple[float, PositionHeap]:
    """Best build+finalize time of the repeats, and the last heap built.

    Each repeat drops the previous heap first, so only one heap is alive
    at a time; the builds are deterministic, so any of them can be checked.
    """
    best = None
    heap = None
    for _ in range(max(1, repeats)):
        heap = None
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        heap = build(data)
        heap.finalize()
        dt = time.perf_counter() - t0
        if enabled:
            gc.enable()
        if best is None or dt < best:
            best = dt
    return best, heap


def fibonacci_word(min_len: int) -> bytes:
    a, b = b"a", b"ab"
    while len(b) < min_len:
        a, b = b, b + a
    return b


def all_strings(alphabet: bytes, max_len: int, min_len: int = 0):
    """Every string over alphabet with min_len <= length <= max_len."""
    for n in range(min_len, max_len + 1):
        for tup in itertools.product(alphabet, repeat=n):
            yield bytes(tup)


@pytest.fixture(scope="session")
def ref_heap():
    from posheap import index

    return index(REF_TEXT)


@pytest.fixture(scope="session")
def label_of(ref_heap):
    return {v: ref_heap.path_label(v) for v in range(ref_heap.node_count())}


@pytest.fixture(scope="session")
def node_by_label(label_of):
    return {lbl: v for v, lbl in label_of.items()}
