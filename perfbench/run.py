#!/usr/bin/env python3
"""Run one posheap benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload genome-query --seed 1 --seconds 6 --trace 0

The library is imported from ``src/`` next to this directory, never from
an installed copy.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics, the per-layer
self times and the tracing overhead, and writes every span to
``.perfbench/trace-<workload>-seed<seed>.csv``.  Workloads, metrics and
bounds are defined in ``spec.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_posheap():
    """Import posheap from this checkout's sources; exit if absent."""
    pkg = os.path.join(SRC, "posheap")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        sys.exit(f"perfbench: no posheap sources in {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import posheap

    if os.path.dirname(os.path.abspath(posheap.__file__)) != pkg:
        sys.exit(f"perfbench: posheap was imported from {posheap.__file__}, not {pkg}")
    return posheap


def main(argv=None) -> int:
    from spec import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="closed query loop length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    posheap = import_posheap()
    import pipeline

    workdir = os.path.join(ROOT, ".perfbench")
    result, raw, failures = pipeline.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                         workdir)

    threshold = posheap.heap._FLAT_THRESHOLD
    g = WORKLOADS[args.workload]["generator"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{g['texts']} text(s) of {g['text_bytes']} bytes, "
          f"{g['text_bytes'] / threshold:.3f}x _FLAT_THRESHOLD")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    print("  raw (unscaled) end-to-end values: "
          + ", ".join(f"{k}={v:.6g}" for k, v in raw.items() if v is not None))
    print(f"  error_rate {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.3g}")
    for f in failures:
        print(f"  FAIL {f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
