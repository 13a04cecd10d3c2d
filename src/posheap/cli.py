"""Command-line interface.

Subcommands: build an index from a file or stdin (batch or streaming),
query an index for pattern occurrences, run the oracle verification
suites, benchmark construction, and export an index as Graphviz DOT.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from . import __version__
from .augmented import augment
from .bench import rows_csv, rows_table, run_bench
from .heap import PositionHeap, build
from .index_io import IndexFileError, index_dot, index_json, load_index
from .search import find_all
from .verify import run_verify

USAGE_ERROR = 2


@dataclass
class Config:
    command: str
    input_path: str | None = None
    stream: bool = False
    out: str | None = None
    fmt: str = "json"
    index_path: str | None = None
    pattern: str = ""
    count_only: bool = False
    max_n: int = 12
    alphabet_size: int = 2
    seed: int = 0
    sizes: list[int] = field(default_factory=lambda: [10_000, 100_000, 1_000_000])
    csv: bool = False


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="posheap",
        description="position-heap text index: build, query, verify, bench",
    )
    p.add_argument("--version", action="version", version=f"posheap {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="index a file (or stdin with '-')")
    b.add_argument("input", help="path to the text, or '-' for stdin")
    b.add_argument("--stream", action="store_true",
                   help="feed the input byte by byte through the on-line API")
    b.add_argument("--out", help="output path (default: stdout)")
    b.add_argument("--format", dest="fmt", choices=("json", "dot"), default="json")

    q = sub.add_parser("query", help="report pattern occurrences from an index")
    q.add_argument("index", help="index file written by build")
    q.add_argument("--pattern", required=True, help="pattern (latin-1 bytes)")
    q.add_argument("--count", action="store_true", help="print only the count")

    v = sub.add_parser("verify", help="run the oracle equivalence suites")
    v.add_argument("--max-n", type=int, default=12,
                   help="exhaustive sweep length bound (default 12)")
    v.add_argument("--alphabet-size", type=int, default=2)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--index", help="instead: validate this index file")

    e = sub.add_parser("export", help="re-emit an index as DOT or JSON")
    e.add_argument("index")
    e.add_argument("--out", help="output path (default: stdout)")
    e.add_argument("--format", dest="fmt", choices=("dot", "json"), default="dot")

    k = sub.add_parser("bench", help="time construction on synthetic texts")
    k.add_argument("--sizes", default="10000,100000,1000000",
                   help="comma-separated byte sizes")
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--csv", action="store_true", help="CSV instead of a table")
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


def cmd_build(cfg: Config) -> int:
    data = _read_input(cfg.input_path)
    if cfg.stream:
        heap = PositionHeap()
        for c in data:
            heap.append(c)
    else:
        heap = build(data)
    heap.finalize()
    aug = augment(heap)
    payload = index_json(aug) if cfg.fmt == "json" else index_dot(aug)
    _write_output(cfg.out, payload)
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


def cmd_query(cfg: Config) -> int:
    if not cfg.pattern:
        print("posheap query: empty pattern", file=sys.stderr)
        return USAGE_ERROR
    try:
        aug = _load(cfg.index_path)
    except IndexFileError as e:
        print(f"posheap: malformed index: {e}", file=sys.stderr)
        return 1
    pattern = cfg.pattern.encode("latin-1")
    occurrences = find_all(aug, pattern)
    if cfg.count_only:
        print(len(occurrences))
    else:
        for pos in occurrences:
            print(pos)
    return 0


def cmd_verify(cfg: Config) -> int:
    if cfg.index_path is not None:
        try:
            _load(cfg.index_path)
        except IndexFileError as e:
            print(f"FAIL index file: {e}")
            return 1
        print("ok   index file: version, fields, text length, crc32, rebuild")
        return 0
    ok = run_verify(max_n=cfg.max_n, alphabet_size=cfg.alphabet_size, seed=cfg.seed)
    return 0 if ok else 1


def cmd_export(cfg: Config) -> int:
    try:
        aug = _load(cfg.index_path)
    except IndexFileError as e:
        print(f"posheap: malformed index: {e}", file=sys.stderr)
        return 1
    payload = index_dot(aug) if cfg.fmt == "dot" else index_json(aug)
    _write_output(cfg.out, payload)
    return 0


def cmd_bench(cfg: Config) -> int:
    rows = run_bench(cfg.sizes, seed=cfg.seed)
    print(rows_csv(rows) if cfg.csv else rows_table(rows), end="")
    return 0


def _config_from_args(args: argparse.Namespace) -> Config:
    cfg = Config(command=args.command)
    if args.command == "build":
        cfg.input_path = args.input
        cfg.stream = args.stream
        cfg.out = args.out
        cfg.fmt = args.fmt
    elif args.command == "query":
        cfg.index_path = args.index
        cfg.pattern = args.pattern
        cfg.count_only = args.count
    elif args.command == "verify":
        cfg.max_n = args.max_n
        cfg.alphabet_size = args.alphabet_size
        cfg.seed = args.seed
        cfg.index_path = args.index
    elif args.command == "export":
        cfg.index_path = args.index
        cfg.out = args.out
        cfg.fmt = args.fmt
    elif args.command == "bench":
        try:
            cfg.sizes = [int(x) for x in args.sizes.split(",") if x != ""]
        except ValueError:
            raise SystemExit(USAGE_ERROR)
        cfg.seed = args.seed
        cfg.csv = args.csv
    return cfg


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cfg = _config_from_args(args)
    handler = {
        "build": cmd_build,
        "query": cmd_query,
        "verify": cmd_verify,
        "export": cmd_export,
        "bench": cmd_bench,
    }[cfg.command]
    return handler(cfg)


if __name__ == "__main__":
    sys.exit(main())
