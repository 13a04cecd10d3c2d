"""Tests of the benchmark itself: its declared contract, determinism of
its inputs and exact counts, and that its checks catch wrong answers.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run

run.import_posheap()

import pipeline  # noqa: E402  (needs posheap on the path)
import spans  # noqa: E402
from posheap.heap import _FLAT_THRESHOLD  # noqa: E402
from spec import END_TO_END, EXACT, PER_LAYER, QUERY_MIX, WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = {
    "tiny-batch": {
        "why": "test only",
        "generator": {"kind": "dna", "texts": 1, "text_bytes": 3000},
        "build": "batch",
        "rounds": 2,
        "persist_rounds": 1,
        "loop_share": 1.0,
        "pools": {"heavy": 4, "short": 8, "long": 4, "absent": 4},
        "decode_samples": 50,
        "ancestor_samples": 50,
        "cli_queries": 1,
    },
    "tiny-stream": {
        "why": "test only",
        "generator": {"kind": "docs", "texts": 3, "text_bytes": 1200, "base_bytes": 300, "edits": 2,
                      "vocab": 200, "zipf_s": 1.0},
        "build": "stream",
        "rounds": 2,
        "persist_rounds": 2,
        "loop_share": 1.0,
        "pools": {"heavy": 3, "short": 4, "long": 3, "absent": 3},
        "decode_samples": 20,
        "ancestor_samples": 20,
        "cli_queries": 2,
    },
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, wl in TINY.items():
        monkeypatch.setitem(WORKLOADS, name, wl)

    def go(name, seed=3, trace=True):
        result, _, failures = pipeline.run(name, seed, 0.05, trace, str(tmp_path))
        return result, failures

    return go


def test_benchmark_json_matches_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfbench"]
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [(k, v["why"]) for k, v in WORKLOADS.items()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        (k, *v) for k, v in END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (k, u, b) for k, (u, b, _) in PER_LAYER.items()]
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert END_TO_END["setup_s"] == ("s", "lower", max(b for _, _, b in END_TO_END.values()))
    names = [m["name"] for m in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))


def test_workload_sizes_relative_to_flat_threshold():
    # the batch workloads must exercise flat mode, the streaming one small mode
    for name, wl in WORKLOADS.items():
        size = wl["generator"]["text_bytes"]
        assert (size >= _FLAT_THRESHOLD) == (wl["build"] == "batch"), name
    assert sum(QUERY_MIX.values()) == 100


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_seeded(name):
    a = pipeline.make_texts(name, 7)
    assert a == pipeline.make_texts(name, 7)
    assert a != pipeline.make_texts(name, 8)
    g = WORKLOADS[name]["generator"]
    assert len(a) == g["texts"] and all(len(t) == g["text_bytes"] for t in a)
    plan = pipeline.Plan(name, 7, 0, a[0])
    again = pipeline.Plan(name, 7, 0, a[0])
    assert plan.patterns == again.patterns and plan.pools == again.pools
    assert all(not plan.expected[p] for p in plan.pools["absent"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_is_correct_and_counts_repeat(tiny, name):
    first, failures = tiny(name)
    assert failures == [] and first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == set(PER_LAYER)
    for layer in ("heap", "augmented", "bitvec", "search", "index_io", "cli"):
        assert first["metrics"][f"trace.self_s.{layer}"]["value"] > 0
    second, _ = tiny(name)
    for key in EXACT:
        assert first["metrics"][key] == second["metrics"][key], key


def test_untraced_run_reports_end_to_end(tiny):
    result, failures = tiny("tiny-stream", trace=False)
    assert failures == [] and result["correct"]
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {k: v[0] for k, v in END_TO_END.items()}


def test_wrong_answers_are_counted(tiny, monkeypatch):
    real = pipeline.find_all

    def off_by_one(aug, pattern, stats=None):
        return [p + 1 for p in real(aug, pattern, stats)]

    monkeypatch.setattr(pipeline, "find_all", off_by_one)
    result, failures = tiny("tiny-batch", trace=False)
    assert not result["correct"] and result["failed"] > 0 and failures


def test_self_times_subtract_children():
    s = [
        (0, -1, "bench.round", 0, 100, -1, -1),
        (1, 0, "heap.build", 10, 40, 0, -1),
        (2, 0, "search.find_all", 50, 60, 0, 0),
        (3, 0, "search.find_all", 60, 75, 0, 1),
    ]
    assert spans.self_times(s) == {"bench": 45, "heap": 30, "search": 25}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(HERE, "..", "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-docs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
