import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bench_scaling_rows(*extra):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_scaling.py"),
         "--min-size", "1000", "--max-size", "2000", "--seed", "3", *extra],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "size,kind,seconds,bytes_per_sec,nodes,iterations"
    rows = [line.split(",") for line in lines[1:]]
    kinds = ["random-bytes", "random-4letter", "periodic-3", "unary"]
    assert [(r[0], r[1]) for r in rows] == [
        (size, kind) for size in ("1000", "2000") for kind in kinds
    ]
    for r in rows:
        assert int(r[5]) == int(r[4]) - 1, r
    return rows


def test_bench_scaling_smoke():
    _bench_scaling_rows()


def test_bench_scaling_stream_smoke():
    # byte-by-byte append builds the same heaps as one build call
    streamed = _bench_scaling_rows("--stream")
    batch = _bench_scaling_rows()
    assert [r[4] for r in streamed] == [r[4] for r in batch]
