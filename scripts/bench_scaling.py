#!/usr/bin/env python3
"""Construction-time scaling experiment.

Builds indexes over several text classes at doubling sizes and prints a
CSV with wall time, throughput, and the builder's work accounting, so
the linear-time behaviour can be eyeballed (time roughly doubling per
row within a class).  Each row is one timed build + finalize; with
``--stream`` the text is fed byte by byte through ``append`` instead of
one ``build`` call.

Usage:
    PYTHONPATH=src python scripts/bench_scaling.py [--min-size 250000]
        [--max-size 4000000] [--seed 0] [--stream]
"""

import argparse
import random
import sys
import time

from posheap import PositionHeap, build


def texts_for(size: int, seed: int):
    rng = random.Random(seed)
    yield "random-bytes", rng.randbytes(size)
    yield "random-4letter", bytes(rng.choice(b"acgt") for _ in range(size))
    yield "periodic-3", (b"abc" * (size // 3 + 1))[:size]
    yield "unary", b"a" * size


def timed_index(data: bytes, stream: bool):
    """(seconds, heap) of one build + finalize."""
    t0 = time.perf_counter()
    if stream:
        heap = PositionHeap()
        append = heap.append
        for c in data:
            append(c)
    else:
        heap = build(data)
    heap.finalize()
    return time.perf_counter() - t0, heap


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-size", type=int, default=4_000_000)
    ap.add_argument("--min-size", type=int, default=250_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--stream", action="store_true",
                    help="append byte by byte instead of one build call")
    args = ap.parse_args()

    print("size,kind,seconds,bytes_per_sec,nodes,iterations")
    size = args.min_size
    while size <= args.max_size:
        for kind, data in texts_for(size, args.seed):
            seconds, heap = timed_index(data, args.stream)
            assert heap.creations == heap.node_count() - 1
            print(
                f"{size},{kind},{seconds:.6f},{size / seconds:.0f},"
                f"{heap.node_count()},{heap.creations}"
            )
            sys.stdout.flush()
            del heap
        size *= 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
