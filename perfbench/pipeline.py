"""A workload run over the public posheap API, in rounds.

A shared machine's speed drifts within seconds and between minutes, so
every timed quantity is sampled once per round, the rounds are spread
over the whole run, each round's raw times are scaled to reference
machine time by the calibration samples taken during it (``calib.py``),
and metrics are medians over rounds or percentiles over the pooled loop
samples.  One round does, for every text of the workload:

1. set-up: build (batch ``build()`` or byte-by-byte ``append``),
   ``finalize``, ``augment``, then the first ``find_all`` on the fresh
   index (it pays the lazy parent/letter/depth arrays);
2. in the first round only, the count pass: every pooled pattern once
   through ``find_all`` with ``SearchStats`` and through ``decompose``,
   checked against ``find_all_naive``;
3. a slice of the closed query loop, one caller, seeded schedule;
4. the other construction mode (on-line for batch workloads, batch for
   streaming ones);
5. ``index_json``; in the last ``persist_rounds`` rounds also a file
   write, then ``load_index`` plus one ``find_all`` from the file.

The first round also checks the structures (``recover_text``, node
accounting, ``MrpBits`` decodes against ``mrp_depths``, on-line heap ==
batch heap) and the first persisted round checks save -> load -> save
byte identity.  In a traced run the rounds alternate between tracing off
and on in the order A B B A, the untraced ones giving the baseline for
the tracing overhead; only traced rounds run the per-layer extras:
parenthesis ancestor tests and cold queries through ``posheap.cli.main``.

Oracles and checks run outside the timed regions.  A check that fails,
or a call that raises, counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import statistics
from array import array

from posheap import (
    PositionHeap,
    SearchStats,
    augment,
    build,
    decompose,
    find_all,
    find_all_naive,
    is_ancestor_walk,
    parens_from_heap,
    recover_text,
    structurally_equal,
)
from posheap import cli
from posheap.index_io import index_json, load_index

import gen
from calib import INTERVAL_NS, Calibrator
from spans import Tracer, perf, self_times, write_csv
from spec import (
    END_TO_END,
    LAYERS,
    MIN_LOOP_QUERIES,
    OVERHEAD_OF,
    PATTERN_LENGTHS,
    PER_LAYER,
    QUERY_MIX,
    SCHEDULE_LEN,
    WORKLOADS,
)


def make_texts(name: str, seed: int) -> list[bytes]:
    g = WORKLOADS[name]["generator"]
    rng = gen.rng_for(name, seed, "texts")
    if g["kind"] == "dna":
        return [gen.dna_text(rng, g["text_bytes"]) for _ in range(g["texts"])]
    # one vocabulary for every seed, like one language: the seed picks
    # the word sequence, so n-gram statistics vary little between seeds
    vocab = gen.vocabulary(gen.rng_for(name, "vocabulary"), g["vocab"])
    if g["kind"] == "zipf":
        return [gen.zipf_words(rng, vocab, g["text_bytes"], g["zipf_s"]) for _ in range(g["texts"])]
    if g["kind"] == "docs":
        return [
            gen.edited_copies(rng, gen.zipf_words(rng, vocab, g["base_bytes"], g["zipf_s"]),
                              g["text_bytes"], g["edits"], gen.LETTERS)
            for _ in range(g["texts"])
        ]
    raise ValueError(f"unknown generator kind: {g['kind']}")


class Plan:
    """One text with its pattern pools, oracle answers and loop schedule.

    Every block of 100 scheduled queries holds exactly QUERY_MIX of each
    class."""

    def __init__(self, name: str, seed: int, doc: int, text: bytes):
        rng = gen.rng_for(name, seed, "plan", doc)
        self.doc = doc
        self.text = text
        alphabet = bytes(sorted(set(text)))
        self.pools = gen.pattern_pools(rng, text, WORKLOADS[name]["pools"], PATTERN_LENGTHS, alphabet)
        self.expected = {p: find_all_naive(text, p) for pool in self.pools.values() for p in pool}
        block = [cls for cls, k in QUERY_MIX.items() for _ in range(k)]
        self.classes = []
        for _ in range(SCHEDULE_LEN // len(block)):
            rng.shuffle(block)
            self.classes += block
        # each class cycles through its shuffled pool, so that every pooled
        # pattern is queried equally often
        order = {cls: rng.sample(pool, len(pool)) for cls, pool in self.pools.items()}
        used = dict.fromkeys(QUERY_MIX, 0)
        self.patterns = []
        for cls in self.classes:
            self.patterns.append(order[cls][used[cls] % len(order[cls])])
            used[cls] += 1
        self.occ = array("l", (len(self.expected[p]) for p in self.patterns))
        self.probe = self.pools["short"]  # known answers for first, cold and cli queries
        self.check_rng = gen.rng_for(name, seed, "check", doc)


_SUMS = ("build", "append", "finalize", "augment", "setup", "cross_build", "stream_append",
         "stream_finalize", "save", "load", "cold", "mrp_depths", "encode", "parens", "loop")
_LISTS = ("first_query", "decompose_long", "decode", "ancestor", "cli")


class Round:
    """Raw times (ns) of one round, and the calibration factor that
    converts them to reference-machine time."""

    def __init__(self, persisted: bool):
        self.persisted = persisted
        self.t = dict.fromkeys(_SUMS, 0)
        self.s = {k: [] for k in _LISTS}
        self.lat = {cls: array("q") for cls in QUERY_MIX}
        self.stream_bytes = 0
        self.queries = 0
        self.factor = 1.0


class Acc:
    """Everything one run measured with one tracer."""

    def __init__(self):
        self.rounds: list[Round] = []
        self.cursor: dict[int, int] = {}  # next schedule position per text
        self.counts = {cls: [0, 0, 0, 0] for cls in QUERY_MIX}  # patterns, occ, segments, steps
        self.json_bytes = self.text_bytes = 0
        self.nodes = self.depth = 0
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)


def stream_heap(text: bytes, tr: Tracer, doc: int):
    """Feed the text through the on-line API; returns (heap, append ns)."""
    h = PositionHeap()
    append = h.append
    t0 = perf()
    for c in text:
        append(c)
    t1 = perf()
    tr.add("heap.append", t0, t1, doc)
    return h, t1 - t0


def setup_once(text: bytes, mode: str, tr: Tracer, doc: int, t: dict):
    """Raw bytes -> queryable AugmentedHeap; adds its timings to t."""
    t0 = perf()
    if mode == "batch":
        h, dt = tr.timed("heap.build", doc, build, text)
        t["build"] += dt
    else:
        h, dt = stream_heap(text, tr, doc)
        t["append"] += dt
    t["finalize"] += tr.timed("heap.finalize", doc, h.finalize)[1]
    aug, dt = tr.timed("augmented.augment", doc, augment, h)
    t["augment"] += dt
    t["setup"] += perf() - t0
    return aug


def query_loop(aug, plan: Plan, first: int, seconds: float, min_queries: int, tr: Tracer,
               cal: Calibrator):
    """Closed loop over the schedule from query number ``first``: each
    query is sent when the previous one returned.  Calibration samples
    run between queries, outside the latencies and the loop time.
    Returns (latencies, queries, loop ns, wrong answers)."""
    patterns, occ, doc = plan.patterns, plan.occ, plan.doc
    lat = array("q")
    record = lat.append
    tracing = tr.enabled
    cycle = len(patterns)
    wrong = 0
    paused = 0
    i = first
    start = perf()
    deadline = start + int(seconds * 1e9)
    next_tick = start + INTERVAL_NS
    while True:
        j = i % cycle
        t0 = perf()
        res = find_all(aug, patterns[j])
        t1 = perf()
        record(t1 - t0)
        if len(res) != occ[j]:
            wrong += 1
        if tracing:
            tr.add("search.find_all", t0, t1, doc, i)
        i += 1
        if t1 >= next_tick:
            paused += cal.tick(force=True)
            next_tick = perf() + INTERVAL_NS
        if t1 >= deadline + paused and i - first >= min_queries:
            return lat, i - first, perf() - start - paused, wrong


def count_pass(aug, plan: Plan, tr: Tracer, acc: Acc, rnd: Round) -> None:
    doc = plan.doc
    for cls, pool in plan.pools.items():
        counts = acc.counts[cls]
        for p in pool:
            stats = SearchStats()
            res = tr.timed("search.find_all", doc, find_all, aug, p, stats)[0]
            d, dt = tr.timed("search.decompose", doc, decompose, aug, p)
            acc.check(res == plan.expected[p], f"doc {doc}: find_all {p!r} disagrees with the naive scan")
            counts[0] += 1
            counts[1] += len(res)
            counts[2] += len(d.segments)
            counts[3] += stats.steps
            if cls == "long":
                rnd.s["decompose_long"].append(dt)


def structure_checks(aug, plan: Plan, wl: dict, tr: Tracer, acc: Acc, rnd: Round,
                     extras: bool) -> None:
    heap, doc, rng = aug.heap, plan.doc, plan.check_rng
    acc.check(heap.creations == heap.node_count() - 1, f"doc {doc}: creations != nodes - 1")
    acc.check(recover_text(heap) == plan.text, f"doc {doc}: recover_text differs from the text")
    depths, dt = tr.timed("augmented.mrp_depths", doc, aug.mrp_depths)
    rnd.t["mrp_depths"] += dt
    bits, dt = tr.timed("bitvec.encode_mrp", doc, aug.encode_mrp)
    rnd.t["encode"] += dt
    for _ in range(wl["decode_samples"]):
        i = rng.randint(1, len(plan.text))
        d, dt = tr.timed("bitvec.mrp_depth", doc, bits.mrp_depth, i)
        rnd.s["decode"].append(dt)
        acc.check(d == depths[i - 1], f"doc {doc}: MrpBits.mrp_depth({i}) != mrp_depths()")
    if not extras:
        return
    parens, dt = tr.timed("bitvec.parens_from_heap", doc, parens_from_heap, heap)
    rnd.t["parens"] += dt
    n_nodes = heap.node_count()
    for k in range(wl["ancestor_samples"]):
        v = rng.randrange(n_nodes)
        if k % 2:  # half the pairs are true ancestor pairs
            u = v
            for _ in range(rng.randint(0, heap.depth(v))):
                u = heap.parent(u)
        else:
            u = rng.randrange(n_nodes)
        got, dt = tr.timed("bitvec.is_ancestor", doc, parens.is_ancestor, u, v)
        rnd.s["ancestor"].append(dt)
        acc.check(got == is_ancestor_walk(heap, u, v) == aug.is_ancestor(u, v),
                  f"doc {doc}: ancestor tests disagree on ({u}, {v})")


def cli_queries(path: str, plan: Plan, count: int, tr: Tracer, acc: Acc, rnd: Round) -> None:
    for k in range(count):
        p = plan.probe[(2 + k) % len(plan.probe)]
        out = io.StringIO()
        t0 = perf()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["query", path, "--pattern", p.decode("latin-1"), "--count"])
        t1 = perf()
        tr.add("cli.main", t0, t1, plan.doc)
        rnd.s["cli"].append(t1 - t0)
        acc.check(rc == 0 and out.getvalue().strip() == str(len(plan.expected[p])),
                  f"doc {plan.doc}: posheap query --count {p!r}")


def run_round(wl: dict, plan: Plan, rnd: Round, first: bool, check_persist: bool, n_cli: int,
              seconds: float, min_queries: int, tr: Tracer, cal: Calibrator, acc: Acc,
              tmpdir: str) -> None:
    doc, text, t = plan.doc, plan.text, rnd.t
    cal.tick()
    with tr.span("bench.setup", doc):
        aug = setup_once(text, wl["build"], tr, doc, t)
    res, dt = tr.timed("search.find_all", doc, find_all, aug, plan.probe[0])
    rnd.s["first_query"].append(dt)
    acc.check(res == plan.expected[plan.probe[0]], f"doc {doc}: first query {plan.probe[0]!r}")
    heap = aug.heap
    if first:
        acc.nodes += heap.node_count()
        acc.depth = max(acc.depth, heap.tree_depth())
        acc.text_bytes += len(text)
    cal.tick()

    if first:
        with tr.span("bench.count", doc):
            count_pass(aug, plan, tr, acc, rnd)
        cal.tick()

    start = acc.cursor.get(doc, 0)  # rounds continue the schedule
    with tr.span("bench.loop", doc):
        lat, queries, elapsed, wrong = query_loop(aug, plan, start, seconds, min_queries,
                                                  tr, cal)
    for i, ns in enumerate(lat, start):
        rnd.lat[plan.classes[i % SCHEDULE_LEN]].append(ns)
    acc.cursor[doc] = start + queries
    rnd.queries += queries
    t["loop"] += elapsed
    acc.attempted += queries
    for _ in range(wrong):
        acc.fail(f"doc {doc}: wrong occurrence count in the query loop")
    cal.tick()

    with tr.span("bench.cross", doc):
        if wl["build"] == "batch":
            other, dt = stream_heap(text, tr, doc)
            t["stream_append"] += dt
            t["stream_finalize"] += tr.timed("heap.finalize", doc, other.finalize)[1]
            rnd.stream_bytes += len(text)
        else:
            other, dt = tr.timed("heap.build", doc, build, text)
            t["cross_build"] += dt
            other.finalize()
        if first:
            diff = structurally_equal(other, heap)
            acc.check(diff is None, f"doc {doc}: on-line and batch heaps differ: {diff}")
        other = None
    cal.tick()

    if first:
        with tr.span("bench.check", doc):
            structure_checks(aug, plan, wl, tr, acc, rnd, extras=tr.enabled)
        cal.tick()

    with tr.span("bench.persist", doc):
        saved, dt = tr.timed("index_io.index_json", doc, index_json, aug)
        t["save"] += dt
        if not rnd.persisted:
            return
        path = os.path.join(tmpdir, f"{doc}.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(saved)
    aug = heap = None  # the loaded index replaces the built one in memory
    cal.tick()
    cold = plan.probe[1 % len(plan.probe)]
    with tr.span("bench.cold_query", doc):
        t0 = perf()
        with open(path, encoding="utf-8") as f:
            loaded = load_index(f)
        t1 = perf()
        res = find_all(loaded, cold)
        t2 = perf()
        tr.add("index_io.load_index", t0, t1, doc)
        tr.add("search.find_all", t1, t2, doc)
    t["load"] += t1 - t0
    t["cold"] += t2 - t0
    acc.check(res == plan.expected[cold], f"doc {doc}: cold query {cold!r} from the loaded index")
    cal.tick()
    if check_persist:
        acc.json_bytes += len(saved.encode("utf-8"))
        with tr.span("bench.check", doc):
            resaved = tr.timed("index_io.index_json", doc, index_json, loaded)[0]
            acc.check(resaved == saved, f"doc {doc}: save -> load -> save is not byte-identical")
    loaded = saved = None
    if n_cli:
        cli_queries(path, plan, n_cli, tr, acc, rnd)
    os.remove(path)


def run_rounds(name: str, seed: int, seconds: float, tracers: list[Tracer], tmpdir: str) -> list[Acc]:
    """All rounds of a run.  With two tracers (untraced, traced) the
    rounds go to them in the order A B B A A B ..., so that slow drift of
    the machine biases neither side."""
    wl = WORKLOADS[name]
    texts = make_texts(name, seed)
    plans = [Plan(name, seed, doc, text) for doc, text in enumerate(texts)]
    rounds = wl["rounds"]
    owner = [(r + 1) // 2 % 2 for r in range(rounds)] if len(tracers) == 2 else [0] * rounds
    per_slice = seconds * wl["loop_share"] / rounds / len(texts)
    # whole blocks of 100, so every class gets its share of the minimum,
    # for the tracer with the fewest rounds
    fewest = min(owner.count(k) for k in range(len(tracers)))
    min_queries = 100 * -(-MIN_LOOP_QUERIES // (100 * fewest * len(texts)))
    cal = Calibrator()
    accs = [Acc() for _ in tracers]
    for r, k in enumerate(owner):
        tr, acc = tracers[k], accs[k]
        mine = owner.count(k)
        j = owner[:r].count(k)  # this tracer's round number
        first_persist = mine - min(wl["persist_rounds"], mine)
        rnd = Round(persisted=j >= first_persist)
        acc.rounds.append(rnd)
        cal.tick(force=True)
        with tr.span("bench.round"):
            for plan in plans:
                n_cli = 0
                if tr.enabled and j == first_persist:  # spread over the first texts
                    n_cli = len(range(plan.doc, wl["cli_queries"], len(plans)))
                try:
                    run_round(wl, plan, rnd, j == 0, j == first_persist, n_cli, per_slice,
                              min_queries, tr, cal, acc, tmpdir)
                except Exception as e:  # a raising call is a failed operation
                    acc.attempted += 1
                    acc.fail(f"round {r} doc {plan.doc}: {type(e).__name__}: {e}")
        cal.tick(force=True)
        rnd.factor = cal.take()
    return accs


# ----------------------------------------------------------------------
# metrics: reference-machine time unless raw=True


def _median(xs, scale=1.0):
    return statistics.median(xs) / scale if xs else None


def _sums(acc: Acc, key: str, raw: bool, persisted: bool = False) -> list[float]:
    return [r.t[key] * (1.0 if raw else r.factor) for r in acc.rounds
            if r.persisted or not persisted]


def _pooled(acc: Acc, key: str, raw: bool) -> list[float]:
    return [x * (1.0 if raw else r.factor) for r in acc.rounds for x in r.s[key]]


def _latencies(acc: Acc, classes, raw: bool) -> list[float]:
    return [ns * (1.0 if raw else r.factor) for r in acc.rounds for cls in classes for ns in r.lat[cls]]


def _pcts(lat):
    """(p50, p99) in us; None unless ten samples lie beyond the p99."""
    if len(lat) < 1000:
        return None, None
    q = statistics.quantiles(lat, n=100)
    return q[49] / 1e3, q[98] / 1e3


def _stream(acc: Acc, wl: dict, raw: bool) -> list[tuple[int, float, float]]:
    """(bytes, append ns, finalize ns) per round of on-line construction."""
    out = []
    for r in acc.rounds:
        f = 1.0 if raw else r.factor
        if wl["build"] == "batch":
            out.append((r.stream_bytes, r.t["stream_append"] * f, r.t["stream_finalize"] * f))
        else:
            out.append((acc.text_bytes, r.t["append"] * f, r.t["finalize"] * f))
    return [x for x in out if x[0]]


def end_to_end(acc: Acc, wl: dict, raw: bool = False) -> dict:
    p50, p99 = _pcts(_latencies(acc, QUERY_MIX, raw))
    loop = sum(_sums(acc, "loop", raw))
    return {
        "setup_s": _median(_sums(acc, "setup", raw), 1e9),
        "first_query_ms": _median(_pooled(acc, "first_query", raw), 1e6),
        "query_p50_us": p50,
        "query_p99_us": p99,
        "query_qps": sum(r.queries for r in acc.rounds) / (loop / 1e9) if loop else None,
        "save_s": _median(_sums(acc, "save", raw), 1e9),
        "load_s": _median(_sums(acc, "load", raw, persisted=True), 1e9),
        "cold_query_s": _median(_sums(acc, "cold", raw, persisted=True), 1e9),
        "index_bytes_per_byte": acc.json_bytes / acc.text_bytes if acc.json_bytes else None,
        "stream_mb_s": _median([b * 1e3 / (a + f) for b, a, f in _stream(acc, wl, raw)]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(acc: Acc, wl: dict) -> dict:
    m = {
        "heap.extend_s": _median(_sums(acc, "build" if wl["build"] == "batch" else "cross_build",
                                       False), 1e9),
        "heap.finalize_s": _median(_sums(acc, "finalize", False), 1e9),
        "heap.append_ns_per_byte": _median([a / b for b, a, _ in _stream(acc, wl, False)]),
        "heap.nodes": acc.nodes,
        "heap.tree_depth": acc.depth,
        "augmented.augment_s": _median(_sums(acc, "augment", False), 1e9),
        "augmented.mrp_depths_s": sum(_sums(acc, "mrp_depths", False)) / 1e9,
        "bitvec.parens_s": sum(_sums(acc, "parens", False)) / 1e9,
        "bitvec.encode_mrp_s": sum(_sums(acc, "encode", False)) / 1e9,
        "bitvec.mrp_decode_us": _median(_pooled(acc, "decode", False), 1e3),
        "bitvec.paren_ancestor_us": _median(_pooled(acc, "ancestor", False), 1e3),
        "search.decompose_us": _median(_pooled(acc, "decompose_long", False), 1e3),
        "search.query_samples": sum(r.queries for r in acc.rounds),
        "index_io.index_json_s": _median(_sums(acc, "save", False), 1e9),
        "index_io.load_index_s": _median(_sums(acc, "load", False, persisted=True), 1e9),
        "index_io.json_bytes": acc.json_bytes,
        "cli.query_s": _median(_pooled(acc, "cli", False), 1e9),
        "bench.speed_factor": _median([r.factor for r in acc.rounds]),
    }
    for cls in QUERY_MIX:
        p50, p99 = _pcts(_latencies(acc, (cls,), False))
        m[f"search.find_all_p50_us.{cls}"] = p50
        m[f"search.find_all_p99_us.{cls}"] = p99
        n, occ, segments, steps = acc.counts[cls]
        if n:
            m[f"search.segments_per_query.{cls}"] = segments / n
            m[f"search.steps_per_query.{cls}"] = steps / n
            if f"search.occ_per_query.{cls}" in PER_LAYER:
                m[f"search.occ_per_query.{cls}"] = occ / n
    return m


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str):
    """Run a workload.  Returns (result, raw end-to-end metrics, failure
    messages): the result is the object the benchmark prints, with the
    end-to-end metrics, or with the per-layer metrics when tracing."""
    wl = WORKLOADS[name]
    tmpdir = os.path.join(workdir, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    tracers = [Tracer(False)] + ([Tracer(True)] if trace else [])
    try:
        accs = run_rounds(name, seed, seconds, tracers, tmpdir)
    finally:
        for f in os.listdir(tmpdir):
            os.remove(os.path.join(tmpdir, f))
        os.rmdir(tmpdir)
    raw = end_to_end(accs[0], wl, raw=True)
    if not trace:
        metrics = end_to_end(accs[0], wl)
        units = {k: v[0] for k, v in END_TO_END.items()}
    else:
        untraced, traced = end_to_end(accs[0], wl), end_to_end(accs[1], wl)
        metrics = per_layer(accs[1], wl)
        for key in OVERHEAD_OF:
            a, b = untraced[key], traced[key]
            if a is not None and b is not None:
                sign = -1 if END_TO_END[key][1] == "higher" else 1
                metrics[f"trace.overhead_pct.{key}"] = sign * 100.0 * (b - a) / a
        spans = tracers[1].spans
        selfs = self_times(spans)
        for layer in LAYERS:
            metrics[f"trace.self_s.{layer}"] = selfs.get(layer, 0) / 1e9
        metrics["trace.spans"] = len(spans)
        write_csv(spans, os.path.join(workdir, f"trace-{name}-seed{seed}.csv"))
        units = {k: v[0] for k, v in PER_LAYER.items()}
    attempted = sum(a.attempted for a in accs)
    failed = sum(a.failed for a in accs)
    missing = [k for k in units if metrics.get(k) is None]
    result = {
        "correct": failed == 0 and not missing,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k not in missing},
    }
    failures = [f for a in accs for f in a.failures] + [f"missing metric: {k}" for k in missing]
    return result, raw, failures
