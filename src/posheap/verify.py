"""Oracle sweeps: every structure checked against an independent reference.

Each checker returns (cases_checked, failure) where failure is None or a
reproducer string naming the offending input.  ``posheap verify`` runs
them all and the acceptance tests call them with their pinned sizes, so
there is a single implementation of every equivalence.
"""

from __future__ import annotations

import itertools
import random
from array import array

from .augmented import augment, naive_mrp_nodes
from .bitvec import BitVector
from .heap import (
    build,
    h_oracle,
    index,
    oracle_build,
    recover_text,
    structurally_equal,
)
from .search import decompose, find_all, find_all_naive


def all_strings(alphabet: bytes, max_len: int, min_len: int = 1):
    for n in range(min_len, max_len + 1):
        for tup in itertools.product(alphabet, repeat=n):
            yield bytes(tup)


# ----------------------------------------------------------------------


def check_construction(alphabet: bytes = b"ab", max_len: int = 12,
                       prefixes: bool = True) -> tuple[int, str | None]:
    """On-line build+finalize vs the definitional oracle, node for node;
    optionally also for every prefix of every string (the on-line property)."""
    cases = 0
    for s in all_strings(alphabet, max_len, min_len=0):
        h = build(s)
        if h.node_count() != h.active_position:
            return cases, f"node count != active position on {s!r}"
        snap = h.copy()
        snap.finalize()
        diff = structurally_equal(snap, oracle_build(s))
        if diff is not None:
            return cases, f"construction mismatch on {s!r}: {diff}"
        cases += 1
        if prefixes and s:
            hh = None
            for k in range(1, len(s) + 1):
                if hh is None:
                    hh = build(s[:1])
                else:
                    hh.append(s[k - 1])
                snap = hh.copy()
                snap.finalize()
                diff = structurally_equal(snap, oracle_build(s[:k]))
                if diff is not None:
                    return cases, f"prefix mismatch on {s!r} at k={k}: {diff}"
                cases += 1
    return cases, None


def _occurrences(s: bytes, w: bytes) -> int:
    count = 0
    at = s.find(w)
    while at != -1:
        count += 1
        at = s.find(w, at + 1)
    return count


def _has_increasing_prefix_chain(s: bytes, w: bytes) -> bool:
    # strictly increasing positions p_1 < ... < p_|w| with w[:l] at p_l;
    # greedy earliest placement is complete
    p = -1
    for ell in range(1, len(w) + 1):
        p = s.find(w[:ell], p + 1)
        if p == -1:
            return False
    return True


def check_theorem_properties(alphabet: bytes = b"ab", max_len: int = 12
                             ) -> tuple[int, str | None]:
    """Represented-set properties: factorial closure, the increasing-
    positions characterization, the frequency implication, and the
    depth bound against brute-force h(T)."""
    cases = 0
    for s in all_strings(alphabet, max_len):
        h = index(s)
        rep = set()

        def represented(w: bytes) -> bool:
            cur = 0
            for c in w:
                nxt = h.child(cur, c)
                if nxt is None:
                    return False
                cur = nxt
            return True

        for v in range(1, h.node_count()):
            rep.add(h.path_label(v))
        # factorial closure: dropping the first letter stays represented
        # (dropping the last letter is the parent, represented trivially)
        for w in rep:
            if w[1:] and w[1:] not in rep:
                return cases, f"factorial closure fails on {s!r}: {w!r}"
        best_h = 0
        seen = set()
        n = len(s)
        for i in range(n):
            for j in range(i + 1, n + 1):
                w = s[i:j]
                if w in seen:
                    continue
                seen.add(w)
                occ = _occurrences(s, w)
                is_rep = w in rep
                if occ >= len(w):
                    best_h = max(best_h, len(w))
                    if not is_rep:
                        return cases, f"frequency implication fails on {s!r}: {w!r}"
                if is_rep != _has_increasing_prefix_chain(s, w):
                    return cases, f"characterization fails on {s!r}: {w!r}"
        if h.tree_depth() > 2 * best_h:
            return cases, f"depth bound fails on {s!r}"
        if best_h != h_oracle(s):
            return cases, f"h(T) sweep disagrees with h_oracle on {s!r}"
        cases += 1
    return cases, None


def check_mrp(alphabet: bytes = b"ab", max_len: int = 12) -> tuple[int, str | None]:
    """Suffix-link reach computation vs per-position root walks, plus the
    unary encoding identities and decoding."""
    cases = 0
    for s in all_strings(alphabet, max_len):
        h = index(s)
        a = augment(h)
        naive = naive_mrp_nodes(h)
        n = len(s)
        for i in range(1, n + 1):
            if a.mrp_node(i) != naive[i]:
                return cases, f"mrp mismatch on {s!r} at {i}"
        depths = list(a.mrp_depths())
        if any(depths[i] < depths[i - 1] - 1 for i in range(1, n)):
            return cases, f"mrp chain inequality fails on {s!r}"
        enc = a.encode_mrp()
        if enc.bits.nbits != 2 * n or enc.bits.n_ones != n:
            return cases, f"mrp encoding size wrong on {s!r}"
        for i in range(1, n + 1):
            if enc.mrp_depth(i) != depths[i - 1]:
                return cases, f"mrp decode mismatch on {s!r} at {i}"
        cases += 1
    return cases, None


def _search_failure(a, s: bytes, p: bytes) -> str | None:
    """find_all vs the sliding-window oracle on one pattern, and the bound
    on a pattern's occurrences by the length of its first segment."""
    got = find_all(a, p)
    if got != find_all_naive(s, p):
        return "search mismatch"
    d = decompose(a, p)
    if d.complete and len(d.segments) >= 2 and len(got) > d.segments[0][1]:
        return "occurrence bound"
    return None


def check_search_exhaustive(text_alphabet: bytes = b"ab", text_max: int = 11,
                            pattern_alphabet: bytes = b"ab", pattern_max: int = 6
                            ) -> tuple[int, str | None]:
    """find_all vs the sliding-window oracle, every text x every pattern,
    with the first-segment occurrence bound checked throughout."""
    cases = 0
    patterns = list(all_strings(pattern_alphabet, pattern_max))
    for s in all_strings(text_alphabet, text_max):
        a = augment(index(s))
        for p in patterns:
            failure = _search_failure(a, s, p)
            if failure:
                return cases, f"{failure}: text={s!r} pattern={p!r}"
            cases += 1
    return cases, None


def check_search_random(n: int = 10_000, pairs: int = 10_000,
                        alphabet_size: int = 4, seed: int = 0,
                        texts: int = 10) -> tuple[int, str | None]:
    """Random (text, pattern) pairs at size n over a small alphabet."""
    rng = random.Random(seed)
    cases = 0
    alphabet = bytes(range(97, 97 + alphabet_size))
    per_text = max(1, pairs // max(1, texts))
    while cases < pairs:
        s = bytes(rng.choice(alphabet) for _ in range(n))
        a = augment(index(s))
        for _ in range(per_text):
            if cases >= pairs:
                break
            m = rng.randint(1, 24)
            if rng.random() < 0.75:
                start = rng.randint(0, max(0, n - m))
                p = s[start:start + m] or s[:1]
            else:
                p = bytes(rng.choice(alphabet) for _ in range(m))
            failure = _search_failure(a, s, p)
            if failure:
                return cases, f"random {failure}: seed={seed} pattern={p!r}"
            cases += 1
    return cases, None


def _ancestor_tables(h, a):
    """Per-heap tables for the three ancestor methods."""
    n_nodes = h.node_count()
    parens = a.parens
    close_of = array("i", (parens.find_close(parens.open_of[v]) for v in range(n_nodes)))
    return a.pre, a.last, parens.open_of, close_of, h._parent


def _ancestor_triple_check(u, v, pre, last, open_of, close_of, parent) -> bool:
    """True iff intervals, parentheses and the parent walk agree on (u, v)."""
    by_interval = pre[u] <= pre[v] <= last[u]
    by_parens = open_of[u] <= open_of[v] and close_of[v] <= close_of[u]
    # ancestors have smaller ids: parent(w) < w
    w = v
    while w > u:
        w = parent[w]
    return by_interval == by_parens == (w == u)


def check_ancestors_exhaustive(alphabet: bytes = b"ab", max_len: int = 12
                               ) -> tuple[int, str | None]:
    """All three ancestor structures on all node pairs of every heap."""
    cases = 0
    for s in all_strings(alphabet, max_len, min_len=0):
        h = index(s)
        a = augment(h)
        tables = _ancestor_tables(h, a)
        n_nodes = h.node_count()
        for u in range(n_nodes):
            for v in range(n_nodes):
                if not _ancestor_triple_check(u, v, *tables):
                    return cases, f"ancestor methods disagree on {s!r}: ({u},{v})"
                cases += 1
    return cases, None


def check_ancestors_random(n: int = 10_000, heaps: int = 100,
                           pairs_per_heap: int = 100_000, seed: int = 0
                           ) -> tuple[int, str | None]:
    rng = random.Random(seed)
    cases = 0
    for t in range(heaps):
        s = rng.randbytes(n)
        h = index(s)
        a = augment(h)
        tables = _ancestor_tables(h, a)
        n_nodes = h.node_count()
        for _ in range(pairs_per_heap):
            u = rng.randrange(n_nodes)
            v = rng.randrange(n_nodes)
            if not _ancestor_triple_check(u, v, *tables):
                return cases, f"ancestor methods disagree: seed={seed} heap={t} pair=({u},{v})"
            cases += 1
    return cases, None


def check_bitvec_random(vectors: int = 300, max_bits: int = 100_000, seed: int = 0
                        ) -> tuple[int, str | None]:
    """rank/select vs naive scans on random vectors (sampled arguments
    for big vectors, every argument for small ones)."""
    rng = random.Random(seed)
    cases = 0
    for t in range(vectors):
        nbits = rng.randint(0, max_bits) if rng.random() < 0.2 else rng.randint(0, 512)
        bits = [rng.randint(0, 1) for _ in range(nbits)]
        b = BitVector(bits)
        ranks1 = [0]
        for x in bits:
            ranks1.append(ranks1[-1] + x)
        args = range(nbits + 1) if nbits <= 512 else (
            rng.randint(0, nbits) for _ in range(200)
        )
        for i in args:
            if b.rank1(i) != ranks1[i]:
                return cases, f"rank1 mismatch: seed={seed} vector={t} i={i}"
        ones = [p for p, x in enumerate(bits, 1) if x]
        zeros = [p for p, x in enumerate(bits, 1) if not x]
        kk = range(1, len(ones) + 1) if len(ones) <= 512 else (
            rng.randint(1, len(ones)) for _ in range(100)
        )
        for k in kk:
            if b.select1(k) != ones[k - 1]:
                return cases, f"select1 mismatch: seed={seed} vector={t} k={k}"
        kk = range(1, len(zeros) + 1) if len(zeros) <= 512 else (
            rng.randint(1, len(zeros)) for _ in range(100)
        )
        for k in kk:
            if b.select0(k) != zeros[k - 1]:
                return cases, f"select0 mismatch: seed={seed} vector={t} k={k}"
        cases += 1
    return cases, None


def check_roundtrip(count: int = 60, seed: int = 0) -> tuple[int, str | None]:
    """save -> load -> save must be byte-identical; text must recover."""
    import io

    from .index_io import index_json, load_index

    rng = random.Random(seed)
    cases = 0
    for t in range(count):
        n = rng.randint(0, 400)
        alphabet = rng.choice([b"ab", b"abc", bytes(range(256))])
        s = bytes(rng.choice(alphabet) for _ in range(n))
        a = augment(index(s))
        blob = index_json(a)
        a2 = load_index(io.StringIO(blob))
        if recover_text(a2.heap) != s:
            return cases, f"text recovery failed: seed={seed} case={t}"
        blob2 = index_json(a2)
        if blob2 != blob:
            return cases, f"round trip not byte-identical: seed={seed} case={t}"
        cases += 1
    return cases, None


ALL_CHECKS = [
    ("construction", check_construction),
    ("theorem-properties", check_theorem_properties),
    ("maximal-reach", check_mrp),
    ("search-exhaustive", check_search_exhaustive),
    ("search-random", check_search_random),
    ("ancestors-exhaustive", check_ancestors_exhaustive),
    ("ancestors-random", check_ancestors_random),
    ("bitvector", check_bitvec_random),
    ("index-roundtrip", check_roundtrip),
]


def run_verify(max_n: int = 12, alphabet_size: int = 2, seed: int = 0,
               report=print) -> bool:
    """Run every suite; prints one line per suite; True iff all passed."""
    alphabet = bytes(range(97, 97 + alphabet_size))
    text_max = min(max_n, 11)
    plans = {
        "construction": dict(alphabet=alphabet, max_len=max_n),
        "theorem-properties": dict(alphabet=alphabet, max_len=max_n),
        "maximal-reach": dict(alphabet=alphabet, max_len=max_n),
        "search-exhaustive": dict(
            text_alphabet=alphabet,
            text_max=text_max,
            pattern_alphabet=alphabet,
            # one letter longer than every text, so the sweep stays
            # bounded by --max-n whatever the alphabet size
            pattern_max=min(6, text_max + 1),
        ),
        "search-random": dict(seed=seed),
        "ancestors-exhaustive": dict(alphabet=alphabet, max_len=min(max_n, 10)),
        "ancestors-random": dict(seed=seed, heaps=10, pairs_per_heap=20_000),
        "bitvector": dict(seed=seed),
        "index-roundtrip": dict(seed=seed),
    }
    ok = True
    for name, fn in ALL_CHECKS:
        cases, failure = fn(**plans[name])
        if failure is None:
            report(f"ok   {name}: {cases} cases")
        else:
            report(f"FAIL {name} after {cases} cases: {failure}")
            ok = False
            break
    return ok
