"""Benchmark for the latmod checkout this file sits in.

    python3 perfbench/run.py --workload census --seed 1 --seconds 45 --trace 0

Workloads: paper-cold, ladder, census, queries (see README.md).  The run
prints a human-readable report, then as its last line one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones from a traced run.  A record of the run (and, traced, its spans) is
written under perfbench/out/.

Exit codes: 0 all outputs correct, 1 some output wrong, 2 the benchmark
could not run (no result line is printed).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

import inputs
from workloads import WORKLOADS, Bench, BenchError, median, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_CHILDREN = 2  # fresh processes timing the set-up, besides this one

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Per-layer metrics measured on every workload.  The traced run reports
# more (models.verify_s, serialize.graph_json_s, serialize.bytes) in its
# report and record, on the workloads that reach those layers.
PER_LAYER = {
    "cli.import_s": "s",
    "lattice.build_s": "s",
    "arrows.tables_s": "s",
    "transfers.catalog_s": "s",
    "transfers.cotransfer_s": "s",
    "models.weq_s": "s",
    "models.af_s": "s",
    "models.derive_s": "s",
    "models.derive_check_s": "s",
    "bousfield.graph_s": "s",
    "bousfield.localize_s": "s",
    "bousfield.golden_s": "s",
    "bousfield.reach_s": "s",
    "transfers.systems": "count",
    "models.weq_sets": "count",
    "models.structures": "count",
    "bousfield.edges": "count",
    "bousfield.reached": "count",
    "trace.overhead_pct": "%",
}


def calib_s() -> float:
    """Seconds for a fixed pure-Python loop: machine speed, for diagnosis."""
    start = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return perf_counter() - start


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def issue_metrics(bench: Bench, e2e: dict) -> dict[str, tuple[float, str]]:
    """The workload's own names for its headline figures."""
    best = list(bench.best().values())
    out = {"setup_s": (e2e["setup_s"], "s"), "peak_rss_mb": (e2e["peak_rss_mb"], "MB")}
    if bench.workload == "paper-cold":
        out["cold_p50_s"] = (e2e["latency_p50_ms"] / 1e3, "s")
        out["cold_p90_s"] = (e2e["latency_p90_ms"] / 1e3, "s")
    elif bench.workload == "ladder":
        out["ladder_s"] = (sum(best), "s")
    elif bench.workload == "census":
        out["census_lattices_per_s"] = (e2e["throughput_per_s"], "1/s")
    else:
        out["query_p50_us"] = (median(best) * 1e6, "us")
        out["query_p99_us"] = (percentile(best, 0.99) * 1e6, "us")
    out["fail_ratio"] = (bench.failed / bench.attempted, "ratio")
    return out


def run(args, limit: int | None = None, setup_children: int = SETUP_CHILDREN):
    """One measured run: (result object, report lines).

    `limit` keeps only the first inputs of each pass, for the self-test.
    """
    bench = Bench(ROOT, args.workload, args.seed, args.seconds, args.trace == 1, limit)
    calib_start = calib_s()
    children = bench.setup_children(setup_children)
    try:
        import_s, setup_s = bench.setup()
        bench.measure()
    finally:
        bench.cleanup()
    calib_end = calib_s()
    import_med = median([import_s] + [c["import_s"] for c in children])
    setup_med = median([setup_s] + [c["setup_s"] for c in children])
    lm = bench.latmod
    numpy = sys.modules.get("numpy")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "latmod_file": lm.__file__,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy else "not imported",
        "nproc": os.cpu_count(),
        "input_digest": inputs.digest(bench.inputs),
        "calib_s": [calib_start, calib_end],
        "passes": bench.passes,
        "samples": len(bench.samples),
        "traced_samples": len(bench.traced),
        "setup_samples": len(children) + 1,
        "elapsed_s": bench.elapsed,
    }
    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        f"latmod {record['latmod_file']} commit {record['commit']}",
        f"python {record['python']} numpy {record['numpy']} nproc {record['nproc']}",
        f"input digest {record['input_digest']}",
        f"calib_s {calib_start:.4f} (start) {calib_end:.4f} (end), not applied",
        f"samples: {record['samples']} timed, {record['traced_samples']} traced, "
        f"{bench.passes} passes in {bench.elapsed:.2f} s, "
        f"{len(children) + 1} set-ups",
    ]
    if bench.tracer is None:
        e2e = bench.end_to_end(setup_med)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
        named = issue_metrics(bench, e2e)
        record["named"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        record["best_s"] = {str(k): v for k, v in bench.best().items()}
        lines += [f"  {k} = {v:.6g} {u}" for k, (v, u) in named.items()]
    else:
        layers = bench.per_layer(import_med)
        metrics = {
            name: {"value": layers.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
        record["layers"] = layers
        record["layer_calls"] = dict(bench.tracer.calls)
        record["layer_self_s"] = {
            "setup": {k: v / 1e9 for k, v in bench.tracer.self_ns["setup"].items()},
            "ops_per_pass": {
                k: v / 1e9 / bench.passes for k, v in bench.tracer.self_ns["ops"].items()
            },
        }
        record["missing_hooks"] = bench.instrument.missing
        record["spans"] = bench.tracer.spans
        lines.append("per layer (self time per pass, set-up included once):")
        lines += [
            f"  {k} = {v:.6g} {PER_LAYER.get(k, 's' if k.endswith('_s') else 'count')}"
            for k, v in sorted(layers.items())
        ]
        if bench.instrument.missing:
            lines.append(f"  not traced (absent): {', '.join(bench.instrument.missing)}")
    lines.append(f"failed {bench.failed} of {bench.attempted}")
    lines += [f"  FAIL {msg}" for msg in bench.failures]
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    record["result"] = result
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record))
    return result, lines


def setup_only(args) -> dict:
    bench = Bench(ROOT, args.workload, args.seed, 0, False)
    try:
        import_s, setup_s = bench.setup()
    finally:
        bench.cleanup()
    return {"import_s": import_s, "setup_s": setup_s}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("LATMOD_JOBS", None)
    try:
        if args.setup_only:
            print(json.dumps(setup_only(args)))
            return 0
        result, lines = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
