"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its arguments: the same seed and
parameters give byte-identical texts and pattern pools.  String seeds
are used because ``random.Random`` hashes them with SHA-512, which does
not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random

DNA = b"acgt"
# rough English letter frequencies, so words share common n-grams
LETTERS = b"etaoinshrdlcumwfgypbvkjxqz"
LETTER_WEIGHTS = [12.7, 9.1, 8.2, 7.5, 7.0, 6.7, 6.3, 6.1, 6.0, 4.3, 2.8, 2.8,
                   2.4, 2.4, 2.2, 2.0, 2.0, 1.9, 1.5, 1.0, 0.8, 0.2, 0.2, 0.1, 0.1, 0.1]


def rng_for(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def dna_text(rng: random.Random, n: int) -> bytes:
    return bytes(rng.choices(DNA, k=n))


def vocabulary(rng: random.Random, size: int) -> list[bytes]:
    words = set()
    while len(words) < size:
        length = min(12, 1 + int(rng.expovariate(1 / 4.0)))
        words.add(bytes(rng.choices(LETTERS, LETTER_WEIGHTS, k=length)))
    vocab = sorted(words)
    rng.shuffle(vocab)  # frequency rank must not follow spelling
    return vocab


def zipf_words(rng: random.Random, vocab: list[bytes], n: int, s: float) -> bytes:
    """Words drawn with P(rank r) ~ 1/r^s, space separated, with a
    sentence break every fifteen words; cut to n bytes."""
    cum = []
    total = 0.0
    for r in range(1, len(vocab) + 1):
        total += 1.0 / r ** s
        cum.append(total)
    out = bytearray()
    while len(out) < n:
        words = rng.choices(vocab, cum_weights=cum, k=256)
        for i, w in enumerate(words):
            out += w
            out += b". " if i % 15 == 14 else b" "
    return bytes(out[:n])


def edited_copies(rng: random.Random, base: bytes, n: int, edits: int,
                  alphabet: bytes) -> bytes:
    """Concatenated copies of base, each with a few random single-letter
    substitutions, insertions or deletions, cut to n bytes."""
    out = bytearray()
    while len(out) < n:
        copy = bytearray(base)
        for _ in range(edits):
            at = rng.randrange(len(copy))
            op = rng.randrange(3)
            if op == 0:
                copy[at] = rng.choice(alphabet)
            elif op == 1:
                copy.insert(at, rng.choice(alphabet))
            elif len(copy) > 1:
                del copy[at]
        out += copy
    return bytes(out[:n])


def pattern_pools(rng: random.Random, text: bytes, sizes: dict[str, int],
                  lengths: dict[str, tuple[int, int]], alphabet: bytes) -> dict[str, list[bytes]]:
    """Per-class pattern pools: substrings of the text at random
    positions for the present classes, random strings over the text's
    alphabet that do not occur in it for ``absent``."""
    pools = {}
    n = len(text)
    for cls in sizes:
        lo, hi = lengths[cls]
        pool = []
        while len(pool) < sizes[cls]:
            m = rng.randint(lo, min(hi, n))
            if cls == "absent":
                p = bytes(rng.choices(alphabet, k=m))
                if p in text:
                    continue
            else:
                at = rng.randrange(n - m + 1)
                p = text[at:at + m]
            pool.append(p)
        pools[cls] = pool
    return pools
