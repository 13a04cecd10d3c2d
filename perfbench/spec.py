"""What the benchmark runs and reports: workloads, metrics, bounds.

``BENCHMARK.json`` at the repository root mirrors the names, units,
bounds and one-line reasons below (its schema has no room for the rest);
``test_perfbench.py`` keeps the two in step.  Everything a workload
feeds the library is generated from the run's seed by ``gen.py``.

Timing convention: every timed region runs with the interpreter's
defaults, cyclic GC enabled, exactly as a library caller runs it.  This
differs on purpose from ``posheap bench``, which pauses GC and reports
the best of N repeats.  Repeated measurements inside a run are reduced
with the median, never the minimum.  Times are scaled to a reference
machine speed by an interleaved calibration kernel (``calib.py``); the
unscaled values are printed alongside.  Queries form a closed loop with
one caller and no worker threads: the next query is sent when the
previous one returns.  One process, no threads: the target machine has
two cores.
"""

from __future__ import annotations

# Closed-loop query mix, in queries per block of 100.  Long patterns
# are the slowest class but heavy ones, so the median falls inside the
# long class on every workload, away from a class boundary where it
# would jump between two latency regimes.  The 99th percentile falls in
# the heavy class's tail on the batch workloads and in the long class's
# on stream-docs, whose small documents give heavy patterns few
# occurrences.
QUERY_MIX = {"heavy": 10, "short": 20, "long": 60, "absent": 10}
PATTERN_LENGTHS = {"heavy": (3, 4), "short": (8, 12), "long": (64, 512), "absent": (24, 24)}
# queries in one cycle of the closed-loop schedule: enough for every
# class to visit its largest pool once
SCHEDULE_LEN = 5200
# the loop runs until its time is up and at least this many queries
# ran, which leaves at least ten samples beyond the 99th percentile of
# the smallest class (10% of the mix)
MIN_LOOP_QUERIES = 10_000

WORKLOADS = {
    "genome-query": {
        "why": "one 320 KiB acgt text (1.25x _FLAT_THRESHOLD), batch build, 4-class closed query loop, GC on; "
               "time goes to search and the read side of augmented",
        "generator": {"kind": "dna", "texts": 1, "text_bytes": 320 * 1024},
        "build": "batch",
        "rounds": 5,
        "persist_rounds": 2,
        "loop_share": 1.0,
        "pools": {"heavy": 256, "short": 1024, "long": 512, "absent": 256},
        "decode_samples": 4000,
        "ancestor_samples": 4000,
        "cli_queries": 1,
    },
    "corpus-ingest": {
        "why": "one 288 KiB Zipf(1.05) text over a fixed 6000-word vocabulary (1.125x _FLAT_THRESHOLD), GC on; "
               "write and persistence path: flat heap, augment, bitvec, index_io",
        "generator": {"kind": "zipf", "texts": 1, "text_bytes": 288 * 1024, "vocab": 6000, "zipf_s": 1.05},
        "build": "batch",
        "rounds": 4,
        "persist_rounds": 4,
        "loop_share": 0.5,
        "pools": {"heavy": 512, "short": 512, "long": 256, "absent": 256},
        "decode_samples": 4000,
        "ancestor_samples": 4000,
        "cli_queries": 2,
    },
    "stream-docs": {
        "why": "48 docs of 6 KiB (0.023x _FLAT_THRESHOLD), each 8 edited copies of a 768 B base, fed byte by byte, GC on; "
               "on-line append, dict-mode edges, per-index overheads",
        "generator": {"kind": "docs", "texts": 48, "text_bytes": 6144, "base_bytes": 768, "edits": 3,
                      "vocab": 2000, "zipf_s": 1.0},
        "build": "stream",
        "rounds": 6,
        "persist_rounds": 6,
        "loop_share": 1.0,
        "pools": {"heavy": 8, "short": 16, "long": 8, "absent": 8},
        "decode_samples": 64,
        "ancestor_samples": 64,
        "cli_queries": 8,
    },
}

# name -> (unit, better, bound).  Totals (setup, save, load, cold
# query) are summed over a workload's texts; per-query latencies pool
# every loop sample of the run.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "first_query_ms": ("ms", "lower", 0.25),
    "query_p50_us": ("us", "lower", 0.2),
    "query_p99_us": ("us", "lower", 0.25),
    "query_qps": ("1/s", "higher", 0.2),
    "save_s": ("s", "lower", 0.25),
    "load_s": ("s", "lower", 0.25),
    "cold_query_s": ("s", "lower", 0.25),
    "index_bytes_per_byte": ("B/B", "lower", 0.05),
    "stream_mb_s": ("MB/s", "higher", 0.2),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

# Timing metrics whose traced-minus-untraced difference is reported.
OVERHEAD_OF = ("setup_s", "first_query_ms", "query_p50_us", "query_p99_us", "query_qps",
               "save_s", "load_s", "cold_query_s", "stream_mb_s")

LAYERS = ("heap", "augmented", "bitvec", "search", "index_io", "cli", "bench")

# name -> (unit, better, the end-to-end metric it should move and where)
PER_LAYER = {
    "heap.extend_s": ("s", "lower", "setup_s on corpus-ingest and genome-query"),
    "heap.finalize_s": ("s", "lower", "setup_s"),
    "heap.append_ns_per_byte": ("ns", "lower", "stream_mb_s on stream-docs; not the batch workloads' setup_s"),
    "heap.nodes": ("count", "lower", "none: confirms the same trie was built"),
    "heap.tree_depth": ("count", "lower", "none: confirms the same trie was built"),
    "augmented.augment_s": ("s", "lower", "setup_s on corpus-ingest and genome-query; load_s, cold_query_s"),
    "augmented.mrp_depths_s": ("s", "lower", "save_s"),
    "bitvec.parens_s": ("s", "lower", "setup_s on corpus-ingest (estimates bitvec's share of augment)"),
    "bitvec.encode_mrp_s": ("s", "lower", "none yet: the 2n-bit encoding is not on a user path"),
    "bitvec.mrp_decode_us": ("us", "lower", "none yet: per-call decode of the 2n-bit encoding"),
    "bitvec.paren_ancestor_us": ("us", "lower", "none yet: per-call parenthesis ancestor test"),
    "search.decompose_us": ("us", "lower", "query_p50_us on genome-query (long patterns)"),
    "search.query_samples": ("count", "higher", "none: closed-loop sample count behind the percentiles"),
}
for _cls in QUERY_MIX:
    _moves = ("query_p99_us on genome-query and corpus-ingest" if _cls == "heavy"
              else "query_p50_us; query_p99_us on stream-docs" if _cls == "long"
              else "query_p50_us")
    PER_LAYER[f"search.find_all_p50_us.{_cls}"] = ("us", "lower", _moves)
    PER_LAYER[f"search.find_all_p99_us.{_cls}"] = ("us", "lower", _moves)
for _cls in QUERY_MIX:
    PER_LAYER[f"search.segments_per_query.{_cls}"] = ("count", "lower", "exact work count")
    PER_LAYER[f"search.steps_per_query.{_cls}"] = ("count", "lower", "exact work count")
    if _cls != "absent":  # 0 by construction of the class; checked instead
        PER_LAYER[f"search.occ_per_query.{_cls}"] = ("count", "lower", "exact output count")
PER_LAYER.update({
    "index_io.index_json_s": ("s", "lower", "save_s on corpus-ingest"),
    "index_io.load_index_s": ("s", "lower", "load_s, cold_query_s on corpus-ingest"),
    "index_io.json_bytes": ("B", "lower", "index_bytes_per_byte"),
    "cli.query_s": ("s", "lower", "cold_query_s"),
})
for _layer in LAYERS:
    PER_LAYER[f"trace.self_s.{_layer}"] = ("s", "lower", "attribution of the traced run's wall time")
for _name in OVERHEAD_OF:
    PER_LAYER[f"trace.overhead_pct.{_name}"] = ("%", "lower", f"tracing cost on {_name}")
PER_LAYER["trace.spans"] = ("count", "lower", "none: spans recorded in the traced run")
PER_LAYER["bench.speed_factor"] = ("ratio", "higher", "none: machine speed against calib.REFERENCE_NS")

# Metrics that must repeat exactly for a given seed.
EXACT = tuple(
    name for name in PER_LAYER
    if name in ("heap.nodes", "heap.tree_depth", "index_io.json_bytes")
    or name.startswith(("search.segments_per_query.", "search.steps_per_query.",
                        "search.occ_per_query."))
)
