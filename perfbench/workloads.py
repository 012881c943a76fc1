"""The four latmod workloads and the run that measures one of them.

A workload prepares its inputs, lists the items of one pass over them,
runs one item, and checks the result.  `Bench` drives passes in a closed
loop with a single client until the run's seconds are spent.  Untraced,
the cold workloads run each item as a fresh `python -m latmod.cli`
process.  Traced, every workload runs each item twice in process, once
plain and once under `spans.Instrument`, alternating which goes first, so
the per-layer numbers and the tracing overhead come from the same inputs.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, NamedTuple

import inputs
from spans import Instrument, Tracer

HERE = Path(__file__).resolve().parent


class BenchError(Exception):
    """The checkout cannot be benchmarked (for example, no latmod source)."""


def chain_counts(n: int) -> tuple[int, int, int, int]:
    """(transfer systems, weq sets, model structures, reachable) on [n].

    Catalan(n+1) transfer systems (Balchin-Barnes-Roitzheim) and
    binom(2n+1, n) model structures (Balchin-Ormsby-Osorno-Roitzheim), all
    reachable; the weak equivalence sets of a chain are 2^n.
    """
    models = math.comb(2 * n + 1, n)
    return math.comb(2 * n + 2, n + 1) // (n + 2), 2**n, models, models


# (transfer systems, weq sets, model structures, reachable from trivial)
EXPECT = {
    "n5": (26, 22, 70, 70),
    "grid2x1": (68, 48, 182, 167),
    "cube": (450, 259, 1026, 765),
    "chain5": chain_counts(5),
    "chain6": chain_counts(6),
}
COUNT_NAMES = (
    "transfers.systems",
    "models.weq_sets",
    "models.structures",
    "bousfield.reached",
)


def import_latmod(src: Path):
    """Import latmod from the checkout's source tree, and nowhere else."""
    pkg = src / "latmod"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no latmod package under {src}")
    sys.path.insert(0, str(src))
    import latmod
    import latmod.cli
    import latmod.serialize

    if Path(latmod.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"imported latmod from {latmod.__file__}, not {pkg}")
    return latmod


def spawn(cmd: list[str], env: dict, cwd: Path) -> tuple[float, int, str, int]:
    """Run a child to completion: (wall seconds, exit code, output, max RSS KB)."""
    start = perf_counter()
    proc = subprocess.Popen(
        cmd,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        cwd=cwd,
    )
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    # wait4 gives this child's own peak RSS; the Popen object is told the
    # exit status so it never waits again.
    _, status, usage = os.wait4(proc.pid, 0)
    secs = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return secs, proc.returncode, out.decode(errors="replace"), usage.ru_maxrss


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


# ---------------------------------------------------------------------------
# workloads


class PaperCold:
    """Cold CLI processes on small inputs, in a seeded command order."""

    cold = True
    root_span = "cli.main"

    def __init__(self, bench: "Bench") -> None:
        self.bench = bench

    def prepare(self, inp: dict) -> None:
        self.commands = [tuple(c) for c in inp["commands"]]

    def items(self, k: int) -> list:
        return self.commands

    def key(self, item) -> str:
        return item[0]

    def run(self, item, mode: str):
        return self.bench.run_cli(item[1], mode)

    def check(self, item, out, counts) -> str | None:
        code, text = out
        if code != 0:
            return f"exit {code}: {text.strip()[-200:]}"
        return PAPER_CHECKS[item[0]](text)


def _check_reproduce(text: str) -> str | None:
    lines = text.splitlines()
    if len(lines) != 6 or not all(line.endswith("PASS") for line in lines):
        return "reproduce --paper-checks did not pass all six checks"
    return None


def _check_reach(expected: str):
    def check(text: str) -> str | None:
        first = text.splitlines()[0] if text else ""
        if first != f"reachable from trivial: {expected}":
            return f"got {first!r}, expected {expected}"
        return None

    return check


def _check_models_n5(text: str) -> str | None:
    data = json.loads(text)
    keys = {(str(m["weq"]), str(m["af"])) for m in data["models"]}
    if data["count"] != 70 or len(keys) != 70:
        return f"N5 models: count {data['count']}, {len(keys)} distinct"
    return None


def _check_transfers_n5(text: str) -> str | None:
    nodes = [line for line in text.splitlines() if "[label=" in line]
    if not text.startswith("digraph transfer_systems {") or len(nodes) != 26:
        return f"N5 transfer DOT has {len(nodes)} nodes, expected 26"
    return None


def _check_graph_square(text: str) -> str | None:
    data = json.loads(text)
    n = len(data["nodes"])
    ends_ok = all(0 <= e["from"] < n and 0 <= e["to"] < n for e in data["edges"])
    if n != 23 or len(data["edges"]) != 64 or not ends_ok:
        return f"square graph: {n} nodes, {len(data['edges'])} edges"
    return None


PAPER_CHECKS = {
    "reproduce": _check_reproduce,
    "reach_grid2x1": _check_reach("167/182"),
    "models_n5": _check_models_n5,
    "transfers_n5": _check_transfers_n5,
    "graph_square": _check_graph_square,
}


class Ladder:
    """One cold `graph reach` per relabelled ladder lattice file."""

    cold = True
    root_span = "cli.main"

    def __init__(self, bench: "Bench") -> None:
        self.bench = bench

    def prepare(self, inp: dict) -> None:
        work = self.bench.workdir()
        self.files = []
        for name, desc in inp["lattices"]:
            path = work / f"{name}.json"
            path.write_text(json.dumps(desc))
            self.files.append((name, path))

    def items(self, k: int) -> list:
        return self.files

    def key(self, item) -> str:
        return item[0]

    def run(self, item, mode: str):
        return self.bench.run_cli(["graph", "reach", "--lattice", str(item[1])], mode)

    def check(self, item, out, counts) -> str | None:
        code, text = out
        expect = EXPECT[item[0]]
        if code != 0:
            return f"exit {code}: {text.strip()[-200:]}"
        err = _check_reach(f"{expect[3]}/{expect[2]}")(text)
        if err is None and counts is not None:
            err = _check_counts(item[0], counts)
        return err


def _check_counts(name: str, counts: dict) -> str | None:
    got = tuple(counts.get(c, 0) for c in COUNT_NAMES)
    if got != EXPECT[name]:
        return f"{name}: counts {got}, expected {EXPECT[name]}"
    return None


class Census:
    """A long-lived process running fresh closure-system lattices end to end."""

    cold = False
    root_span = "bench.census"

    def __init__(self, bench: "Bench") -> None:
        self.bench = bench
        self.latmod = bench.latmod

    def prepare(self, inp: dict) -> None:
        self.passes = inp["passes"]
        self.seen: dict[int, tuple] = {}

    def items(self, k: int) -> list:
        return self.passes[k % len(self.passes)]

    def key(self, item) -> int:
        return item[0]

    def run(self, item, mode: str):
        lm = self.latmod
        desc = item[1]
        start = perf_counter()
        lat = lm.build_lattice(desc["elements"], [tuple(c) for c in desc["covers"]])
        systems = lm.transfer_catalog(lat)
        cosystems = lm.cotransfer_systems(lat)
        weqs = lm.enumerate_weak_equivalence_sets(lat)
        intervals = [lm.af_interval(w) for w in weqs]
        models = lm.enumerate_model_structures(lat)
        graph = lm.localization_graph(lat)
        reached = lm.reachable_from_trivial(graph)
        with self.bench.span("serialize.graph_json"):
            data = lm.serialize.serialize_localization_graph(graph)
            text = json.dumps(data)
        secs = perf_counter() - start
        self.bench.count("serialize.bytes", data, len(text))
        out = {
            "systems": len(systems),
            "cosystems": len(cosystems),
            "weqs": len(weqs),
            "interval_total": sum(len(iv) for iv in intervals),
            "models": len(models),
            "distinct": len({m.key() for m in models}),
            "graph": len(graph),
            "edges": len(graph.edges),
            "reached": len(reached),
            "reach_inside": all(0 <= i < len(graph) for i in reached),
            "trivial": graph.trivial_index in reached
            and graph.structures[graph.trivial_index].key() == (0, 0),
            "nodes_json": len(data["nodes"]),
            "edges_json": len(data["edges"]),
        }
        return secs, out

    def check(self, item, out, counts) -> str | None:
        if out["systems"] != out["cosystems"]:
            return f"{out['systems']} transfer vs {out['cosystems']} cotransfer systems"
        if not (out["models"] == out["distinct"] == out["interval_total"] == out["graph"]):
            return f"model counts disagree: {out}"
        if not (out["reach_inside"] and out["trivial"] and out["reached"] <= out["models"]):
            return "reachable set is not a set of structures containing the trivial one"
        if out["nodes_json"] != out["models"] or out["edges_json"] != out["edges"]:
            return "serialized graph does not match the graph"
        # Members of one isomorphism type must give identical counts.
        shape = tuple(out[k] for k in ("systems", "weqs", "models", "edges", "reached"))
        if self.seen.setdefault(item[0], shape) != shape:
            return f"type {item[0]}: counts {shape}, earlier {self.seen[item[0]]}"
        return None


class Query(NamedTuple):
    """One resolved call: latmod function name, arguments, expected outcome."""

    key: str  # kind and position in the stream
    kind: str
    fn: str
    args: tuple
    expect: Any
    world: "_World"


class Queries:
    """Warm single calls into the localization and model layers."""

    cold = False
    root_span = "bench.query"

    def __init__(self, bench: "Bench") -> None:
        self.bench = bench
        self.latmod = bench.latmod

    def prepare(self, inp: dict) -> None:
        lm = self.latmod
        self.worlds = []
        for name, desc in inp["lattices"]:
            lat = lm.build_lattice(desc["elements"], [tuple(c) for c in desc["covers"]])
            catalog = lm.transfer_catalog(lat)
            lm.cotransfer_systems(lat)
            weqs = lm.enumerate_weak_equivalence_sets(lat)
            intervals = {w.mask: lm.af_interval(w) for w in weqs}
            models = lm.enumerate_model_structures(lat)
            # The graph is the oracle for localizations at covers.
            graph = lm.localization_graph(lat)
            reached = lm.reachable_from_trivial(graph)
            got = (len(catalog), len(weqs), len(models), len(reached))
            self.bench.verdict(
                f"setup {name}",
                None if got == EXPECT[name] else f"counts {got}, expected {EXPECT[name]}",
            )
            self.worlds.append(_World(lat, catalog, weqs, intervals, models, graph))
        self.calls = [self._resolve(i, draw) for i, draw in enumerate(inp["stream"])]

    def _resolve(self, index: int, draw) -> Query:
        li, kind, r1, r2, r3 = draw
        w = self.worlds[li]
        if kind in ("right_long", "left_long") and not w.long_models:
            kind = kind.split("_")[0] + "_cover"
        key = f"{kind}#{index}"
        if kind in ("right_cover", "left_cover", "golden"):
            i = w.cover_models[r1 % len(w.cover_models)]
            outside = [c for c in w.lat.covers if c not in w.models[i].weq]
            f = outside[r2 % len(outside)]
            if kind == "golden":
                return Query(key, kind, "golden_arrows", (w.models[i], f), None, w)
            side = kind.split("_")[0]
            edge = w.edge[(i, side, f)]
            return Query(key, kind, f"{side}_localize", (w.models[i], f), edge, w)
        if kind in ("right_long", "left_long"):
            i = w.long_models[r1 % len(w.long_models)]
            covers = set(w.lat.covers)
            outside = [
                f for f in w.lat.arrows if f not in covers and f not in w.models[i].weq
            ]
            f = outside[r2 % len(outside)]
            fn = f"{kind.split('_')[0]}_localize"
            return Query(key, kind, fn, (w.models[i], f), None, w)
        if kind == "derive":
            weq = w.weqs[r1 % len(w.weqs)]
            interval = w.intervals[weq.mask]
            pool = interval if r3 % 2 else w.catalog.systems
            af = pool[r2 % len(pool)]
            admissible = any(s.mask == af.mask for s in interval)
            return Query(key, kind, "derive_classes", (weq, af, True), admissible, w)
        model = w.models[r1 % len(w.models)]
        return Query(key, "verify", "verify_model_axioms", (model,), True, w)

    def items(self, k: int) -> list:
        return self.calls

    def key(self, item) -> str:
        return item.key

    def run(self, q: Query, mode: str):
        # Looked up per call, so a traced call reaches the traced wrapper.
        fn = getattr(self.latmod, q.fn)
        start = perf_counter_ns()
        try:
            out = fn(*q.args)
        except Exception as exc:  # checked below; NotAdmissible is expected
            out = exc
        return (perf_counter_ns() - start) / 1e9, out

    def check(self, q: Query, out, counts) -> str | None:
        if q.kind == "derive":
            weq, af, _ = q.args
            if not q.expect:
                if isinstance(out, self.latmod.NotAdmissible):
                    return None
                return f"expected NotAdmissible for W={weq.signature()} AF={af.signature()}"
            if isinstance(out, Exception):
                return f"admissible pair raised {out!r}"
            if out.key() != (weq.mask, af.mask) or out.key() not in q.world.keys:
                return f"derived {out.signature()} is not the enumerated model"
            return None
        if isinstance(out, Exception):
            return f"{q.kind} raised {out!r}"
        if q.kind == "verify":
            return None if out is True else "verify_model_axioms rejected an enumerated model"
        model, f = q.args
        world = q.world
        if q.kind == "golden":
            covers = set(world.lat.covers)
            ok = out and all(r.new_weq in covers and r.new_weq not in model.weq for r in out)
            return None if ok else "golden arrows do not report new weak covers"
        if q.expect is not None:
            if out.key() != world.models[q.expect].key():
                return f"{q.kind} at {f} disagrees with the localization graph"
        elif out.key() not in world.keys:
            return f"{q.kind} at {f} is not an enumerated model"
        return None


class _World:
    """One warm lattice of the query workload and its oracle tables."""

    def __init__(self, lat, catalog, weqs, intervals, models, graph) -> None:
        self.lat, self.catalog, self.weqs = lat, catalog, weqs
        self.intervals, self.models = intervals, models
        self.keys = {m.key() for m in models}
        self.edge = {(e.src, e.side, e.at): e.dst for e in graph.edges}
        covers = set(lat.covers)
        self.cover_models = [
            i for i, m in enumerate(models) if any(c not in m.weq for c in covers)
        ]
        self.long_models = [
            i
            for i, m in enumerate(models)
            if any(f not in covers and f not in m.weq for f in lat.arrows)
        ]


WORKLOADS = {
    "paper-cold": PaperCold,
    "ladder": Ladder,
    "census": Census,
    "queries": Queries,
}


# ---------------------------------------------------------------------------
# the run


class Bench:
    """One run of one workload: set-up, the measured loop, and the metrics."""

    def __init__(
        self,
        root: Path,
        workload: str,
        seed: int,
        seconds: float,
        trace: bool,
        limit: int | None = None,
    ) -> None:
        self.root = Path(root)
        self.src = self.root / "src"
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.limit = limit
        self.tracer = Tracer() if trace else None
        self.instrument = None
        self.latmod = None
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.samples: list[tuple] = []  # (key, seconds): untraced or plain twin
        self.traced: list[tuple] = []  # (key, seconds): traced twin
        self.passes = 0
        self.elapsed = 0.0
        self.child_rss_kb = 0
        self.rss_kb = 0  # peak RSS through the first pass
        self._workdir = None
        env = {k: v for k, v in os.environ.items() if k != "LATMOD_JOBS"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), env.get("PYTHONPATH")) if p
        )
        self.child_env = env

    # -- set-up ---------------------------------------------------------

    def setup(self) -> tuple[float, float]:
        """Import latmod, make the inputs and prepare: (import_s, setup_s)."""
        start = perf_counter()
        self.latmod = import_latmod(self.src)
        import_s = perf_counter() - start
        self.inputs = inputs.GENERATORS[self.workload](self.seed, self.limit)
        self.wl = WORKLOADS[self.workload](self)
        if self.tracer is None:
            self.wl.prepare(self.inputs)
        else:
            self.instrument = Instrument(self.tracer)
            with self.instrument:
                self.tracer.begin_op("setup", "bench.setup")
                self.wl.prepare(self.inputs)
                self.tracer.end_op()
            self.tracer.phase = "ops"
        return import_s, perf_counter() - start

    def setup_children(self, n: int) -> list[dict]:
        """Set-up timings from n fresh processes doing this run's set-up."""
        cmd = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            self.workload,
            "--seed",
            str(self.seed),
            "--setup-only",
        ]
        out = []
        for _ in range(n):
            _, code, text, _ = spawn(cmd, self.child_env, self.root)
            if code != 0:
                raise BenchError(f"set-up child failed ({code}): {text.strip()[-300:]}")
            out.append(json.loads(text.splitlines()[-1]))
        return out

    def workdir(self) -> Path:
        if self._workdir is None:
            self._workdir = HERE / "out" / f"work-{os.getpid()}"
            self._workdir.mkdir(parents=True, exist_ok=True)
        return self._workdir

    def cleanup(self) -> None:
        if self._workdir is not None:
            shutil.rmtree(self._workdir, ignore_errors=True)

    # -- running items --------------------------------------------------

    def run_cli(self, argv: list[str], mode: str):
        """One latmod CLI command: a cold child, or main() in process."""
        if mode == "child":
            secs, code, text, rss = spawn(
                [sys.executable, "-m", "latmod.cli", *argv], self.child_env, self.root
            )
            self.child_rss_kb = max(self.child_rss_kb, rss)
            return secs, (code, text)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            start = perf_counter()
            code = self.latmod.cli.main(argv)
            secs = perf_counter() - start
        return secs, (code, buf.getvalue())

    def span(self, name: str):
        """A harness span, live only inside a traced item."""
        if self.tracer is not None and self.tracer.active:
            return self.tracer.span(name)
        return contextlib.nullcontext()

    def count(self, name: str, key, value: int) -> None:
        """A harness count, taken only inside a traced item."""
        if self.tracer is not None and self.tracer.active:
            self.tracer.count(name, key, value)

    def verdict(self, what: str, err: str | None) -> None:
        self.attempted += 1
        if err:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {err}")

    def _item(self, item, mode: str) -> float | None:
        counts = None
        try:
            if mode == "traced":
                with self.instrument:
                    self.tracer.begin_op(self.wl.key(item), self.wl.root_span)
                    try:
                        secs, out = self.wl.run(item, "inproc")
                    finally:
                        self.tracer.end_op()
                counts = dict(self.tracer.op_counts)
            else:
                secs, out = self.wl.run(item, mode)
            err = self.wl.check(item, out, counts)
        except Exception as exc:  # one failed item must not stop the run
            secs, err = None, f"raised {exc!r}"
        self.verdict(f"{self.workload} {self.wl.key(item)} ({mode})", err)
        return secs

    def measure(self) -> None:
        """Passes in a closed loop until the run's seconds are spent.

        The first pass always completes, so every input has a figure.
        Untraced, the run then stops at the deadline, even inside a pass;
        traced, it finishes the pass, since layer times are per pass.
        """
        plain = "child" if self.wl.cold else "inproc"
        start = perf_counter()
        k = 0
        done = False
        while not done:
            for i, item in enumerate(self.wl.items(k)):
                if k and self.tracer is None and perf_counter() - start >= self.seconds:
                    done = True
                    break
                key = self.wl.key(item)
                if self.tracer is None:
                    secs = self._item(item, plain)
                    if secs is not None:
                        self.samples.append((key, secs))
                    continue
                order = ("inproc", "traced") if i % 2 == 0 else ("traced", "inproc")
                for mode in order:
                    secs = self._item(item, mode)
                    if secs is not None:
                        (self.traced if mode == "traced" else self.samples).append(
                            (key, secs)
                        )
            else:
                if k == 0:
                    self.rss_kb = self.child_rss_kb if self.wl.cold else self._self_rss_kb()
                    if self.tracer is not None:
                        self.tracer.recording = False
                k += 1
                done = perf_counter() - start >= self.seconds
        self.passes = k
        self.elapsed = perf_counter() - start

    # -- metrics --------------------------------------------------------

    def best(self) -> dict[Any, float]:
        """Each input's fastest repeat in this run, in seconds.

        Other load on a shared machine slows whole stretches of a run by up
        to half; the fastest repeat is the one it disturbed least.
        """
        by_key: dict[Any, float] = {}
        for key, secs in self.samples:
            by_key[key] = min(secs, by_key.get(key, secs))
        if not by_key:
            raise BenchError("no operation completed")
        return by_key

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        best = list(self.best().values())
        return {
            "latency_p50_ms": median(best) * 1e3,
            "latency_p90_ms": percentile(best, 0.9) * 1e3,
            "throughput_per_s": len(best) / sum(best),
            "peak_rss_mb": self.rss_kb / 1024,
            "setup_s": setup_s,
        }

    def per_layer(self, import_s: float) -> dict[str, float]:
        t = self.tracer
        layers = sorted(set(t.self_ns["setup"]) | set(t.self_ns["ops"]))
        out = {
            f"{name}_s": (t.self_ns["setup"][name] + t.self_ns["ops"][name] / self.passes)
            / 1e9
            for name in layers
        }
        out["cli.import_s"] = import_s
        out.update(t.counts)
        plain = sum(s for _, s in self.samples)
        traced = sum(s for _, s in self.traced)
        out["trace.overhead_pct"] = (traced / plain - 1) * 100 if plain else 0.0
        return out

    @staticmethod
    def _self_rss_kb() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
