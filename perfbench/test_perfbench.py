"""Self-test of the benchmark.

    python3 -m pytest perfbench -q

Tiny fixed-seed runs of every workload, untraced and traced, must emit
every metric with its unit and no failure; the same seed must give the
same input digest; and a directory without the latmod source must make
the benchmark exit non-zero without a result.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Bench  # noqa: E402

# Inputs kept per pass in the tiny runs.
LIMIT = {"paper-cold": 5, "ladder": 1, "census": 3, "queries": 1}
NAMED = {
    "paper-cold": ("cold_p50_s", "cold_p90_s"),
    "ladder": ("ladder_s",),
    "census": ("census_lattices_per_s",),
    "queries": ("query_p50_us", "query_p99_us"),
}
# Per-layer figures outside the JSON line, reported where the layer runs.
TRACED_ONLY = {
    "paper-cold": ("serialize.graph_json_s",),
    "ladder": (),
    "census": ("serialize.graph_json_s", "serialize.bytes"),
    "queries": ("models.verify_s",),
}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_same_seed_same_inputs(workload):
    make = inputs.GENERATORS[workload]
    assert inputs.digest(make(7)) == inputs.digest(make(7))
    assert inputs.digest(make(7)) != inputs.digest(make(8))


def test_two_invocations_print_the_same_digest():
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        "paper-cold",
        "--seed",
        "11",
        "--seconds",
        "0",
    ]
    digests = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests += [l for l in proc.stdout.splitlines() if l.startswith("input digest")]
    assert len(digests) == 2 and digests[0] == digests[1]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    args = Namespace(workload=workload, seed=5, seconds=0, trace=trace)
    result, lines = run.run(args, limit=LIMIT[workload], setup_children=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        if not trace or name.endswith("_s"):
            assert m["value"] > 0, name
    report = "\n".join(lines)
    assert "fail_ratio = 0 ratio" in report or trace
    for name in TRACED_ONLY[workload] if trace else NAMED[workload]:
        assert f"  {name} = " in report


def self_times(spans: list[list]) -> dict[str, int]:
    """Self time per span name, recomputed from the raw spans."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, int] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0) + end - start - child[i]
    return out


def test_span_aggregates_match_raw_spans():
    bench = Bench(run.ROOT, "census", 5, 0, True, limit=2)
    bench.setup()
    bench.measure()
    t = bench.tracer
    assert len(t.spans) < t.keep and bench.passes == 1
    total = {k: t.self_ns["setup"][k] + t.self_ns["ops"][k] for k in t.calls}
    assert self_times(t.spans) == total
    assert {"serialize.graph_json", "bousfield.localize", "arrows.tables"} <= set(total)


def test_fails_without_the_latmod_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
