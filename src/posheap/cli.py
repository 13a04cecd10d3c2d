"""Command-line interface.

Subcommands: build an index from a file or stdin (batch or streaming),
query an index for pattern occurrences, run the oracle verification
suites, and export an index as Graphviz DOT.  Each subparser names its
handler (``func``), which reads the argparse namespace directly.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .augmented import augment
from .heap import PositionHeap, build
from .index_io import IndexFileError, index_dot, index_json, load_index
from .search import count, find_all
from .verify import run_verify

USAGE_ERROR = 2
MAX_ALPHABET = 256 - 97  # verify's letters run from "a" up to byte 255


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="posheap",
        description="position-heap text index: build, query, verify, export",
    )
    p.add_argument("--version", action="version", version=f"posheap {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="index a file (or stdin with '-')")
    b.add_argument("input", help="path to the text, or '-' for stdin")
    b.add_argument("--stream", action="store_true",
                   help="feed the input byte by byte through the on-line API")
    b.add_argument("--out", help="output path (default: stdout)")
    b.add_argument("--format", dest="fmt", choices=("json", "dot"), default="json")
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="report pattern occurrences from an index")
    q.add_argument("index", help="index file written by build")
    q.add_argument("--pattern", required=True, help="pattern (latin-1 bytes)")
    q.add_argument("--count", action="store_true", help="print only the count")
    q.set_defaults(func=cmd_query)

    v = sub.add_parser("verify", help="run the oracle equivalence suites")
    v.add_argument("--max-n", type=int, default=12,
                   help="exhaustive sweep length bound (default 12)")
    v.add_argument("--alphabet-size", type=int, default=2,
                   help=f"letters from 'a' up, 1..{MAX_ALPHABET} (default 2)")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--index", help="instead: validate this index file")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("export", help="re-emit an index as DOT or JSON")
    e.add_argument("index")
    e.add_argument("--out", help="output path (default: stdout)")
    e.add_argument("--format", dest="fmt", choices=("dot", "json"), default="dot")
    e.set_defaults(func=cmd_export)
    return p


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise SystemExit(f"posheap: cannot read {path}: {e.strerror}")


def _write_output(path: str | None, payload: str) -> None:
    if path is None:
        # UTF-8 whatever the locale; io.StringIO (no buffer) takes the str
        out = getattr(sys.stdout, "buffer", None)
        if out is None:
            sys.stdout.write(payload)
        else:
            sys.stdout.flush()
            out.write(payload.encode("utf-8"))
        return
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(payload)
    except OSError as e:
        raise SystemExit(f"posheap: cannot write {path}: {e.strerror}")


def cmd_build(args: argparse.Namespace) -> int:
    data = _read_input(args.input)
    if args.stream:
        heap = PositionHeap()
        for c in data:
            heap.append(c)
    else:
        heap = build(data)
    heap.finalize()
    aug = augment(heap)
    payload = index_json(aug) if args.fmt == "json" else index_dot(aug)
    _write_output(args.out, payload)
    print(
        f"n={heap.n} nodes={heap.node_count()} depth={heap.tree_depth()} "
        f"active_position={heap.active_position}",
        file=sys.stderr,
    )
    return 0


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return load_index(f)
    except OSError as e:
        raise SystemExit(f"posheap: cannot read {path}: {e.strerror}")


def cmd_query(args: argparse.Namespace) -> int:
    if not args.pattern:
        print("posheap query: empty pattern", file=sys.stderr)
        return USAGE_ERROR
    try:
        pattern = args.pattern.encode("latin-1")
    except UnicodeEncodeError as e:
        print(f"posheap query: pattern character {args.pattern[e.start]!r} "
              "is above U+00FF", file=sys.stderr)
        return USAGE_ERROR
    try:
        aug = _load(args.index)
    except IndexFileError as e:
        print(f"posheap: malformed index: {e}", file=sys.stderr)
        return 1
    if args.count:
        print(count(aug, pattern))
    else:
        for pos in find_all(aug, pattern):
            print(pos)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if not 1 <= args.alphabet_size <= MAX_ALPHABET:
        print(f"posheap verify: --alphabet-size must be in 1..{MAX_ALPHABET}, "
              f"got {args.alphabet_size}", file=sys.stderr)
        return USAGE_ERROR
    if args.max_n < 1:
        print(f"posheap verify: --max-n must be at least 1, got {args.max_n}",
              file=sys.stderr)
        return USAGE_ERROR
    if args.index is not None:
        try:
            _load(args.index)
        except IndexFileError as e:
            print(f"FAIL index file: {e}")
            return 1
        print("ok   index file: version, fields, text length, crc32, rebuild")
        return 0
    ok = run_verify(max_n=args.max_n, alphabet_size=args.alphabet_size, seed=args.seed)
    return 0 if ok else 1


def cmd_export(args: argparse.Namespace) -> int:
    try:
        aug = _load(args.index)
    except IndexFileError as e:
        print(f"posheap: malformed index: {e}", file=sys.stderr)
        return 1
    payload = index_dot(aug) if args.fmt == "dot" else index_json(aug)
    _write_output(args.out, payload)
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
