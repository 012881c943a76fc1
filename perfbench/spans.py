"""In-memory spans around latmod's public functions, for traced runs.

`Instrument` wraps the functions listed in LAYERS wherever a latmod module
binds them, so calls the program makes internally (for example the
localizations inside `localization_graph`) are timed too.  Each span knows
its parent, so a layer's self time is its duration minus the time of the
spans it encloses.  Nothing is wrapped while tracing is off.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# (module, function, layer).  derive_classes is split by its check flag:
# with the admissibility check it is models.derive_check, without it
# (inside enumerate_model_structures) models.derive.
LAYERS = (
    ("lattice", "build_lattice", "lattice.build"),
    # The one private hook: the per-lattice closure tables, built by the
    # first closure call on a fresh lattice.
    ("arrows", "_Tables", "arrows.tables"),
    ("transfers", "enumerate_transfer_systems", "transfers.catalog"),
    ("transfers", "transfer_catalog", "transfers.catalog"),
    ("transfers", "enumerate_cotransfer_systems", "transfers.cotransfer"),
    ("transfers", "cotransfer_systems", "transfers.cotransfer"),
    ("models", "enumerate_weak_equivalence_sets", "models.weq"),
    ("models", "af_interval", "models.af"),
    ("models", "enumerate_model_structures", "models.derive"),
    ("models", "derive_classes", None),
    ("models", "verify_model_axioms", "models.verify"),
    ("bousfield", "left_localize", "bousfield.localize"),
    ("bousfield", "right_localize", "bousfield.localize"),
    ("bousfield", "golden_arrows", "bousfield.golden"),
    ("bousfield", "golden_arrow_set", "bousfield.golden"),
    ("bousfield", "localization_graph", "bousfield.graph"),
    ("bousfield", "reachable_from_trivial", "bousfield.reach"),
    ("serialize", "serialize_localization_graph", "serialize.graph_json"),
)

# Result counts, taken once per operation for each distinct first argument
# (a lattice, or a graph for reachability).
COUNTS = {
    "transfer_catalog": ("transfers.systems", len),
    "enumerate_weak_equivalence_sets": ("models.weq_sets", len),
    "enumerate_model_structures": ("models.structures", len),
    "localization_graph": ("bousfield.edges", lambda graph: len(graph.edges)),
    "reachable_from_trivial": ("bousfield.reached", len),
}


class Tracer:
    """Spans of one traced run, aggregated as they close.

    Self time is summed per phase ("setup" or "ops") and layer.  Raw spans
    are kept up to `keep`, as (name, start_ns, end_ns, parent, op).
    """

    def __init__(self, keep: int = 200_000) -> None:
        self.phase = "setup"
        self.self_ns = {"setup": defaultdict(int), "ops": defaultdict(int)}
        self.calls = defaultdict(int)
        self.counts: dict[str, int] = {}
        self.op_counts: dict[str, int] = defaultdict(int)
        self.spans: list[list] = []
        self.keep = keep
        self.recording = True
        self._seen: set = set()
        self._stack: list[list] = []
        self._op = None

    def enter(self, name: str) -> None:
        idx = -1
        if self.recording and len(self.spans) < self.keep:
            parent = self._stack[-1][3] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([name, 0, 0, parent, self._op])
        start = perf_counter_ns()
        if idx >= 0:
            self.spans[idx][1] = start
        self._stack.append([name, start, 0, idx])

    def exit(self) -> None:
        end = perf_counter_ns()
        name, start, child, idx = self._stack.pop()
        dur = end - start
        self.self_ns[self.phase][name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.spans[idx][2] = end

    @property
    def active(self) -> bool:
        """True inside an operation (or the traced set-up)."""
        return bool(self._stack)

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def begin_op(self, op, name: str) -> None:
        """Open the root span of one operation and reset per-op counts."""
        self._op = op
        self._seen.clear()
        self.op_counts = defaultdict(int)
        self.enter(name)

    def end_op(self) -> None:
        self.exit()
        self._seen.clear()

    def count(self, name: str, key, value: int) -> None:
        if (name, id(key)) in self._seen:
            return
        # The key object stays referenced by the caller for the whole
        # operation, so its id cannot be reused before end_op clears this.
        self._seen.add((name, id(key)))
        self.op_counts[name] += value
        if self.recording:
            self.counts[name] = self.counts.get(name, 0) + value


class Instrument:
    """Swap traced wrappers into every latmod module namespace, and back."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: list[str] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "latmod" or name.startswith("latmod.")
        ]
        for modname, fname, layer in LAYERS:
            owner = sys.modules.get(f"latmod.{modname}")
            fn = getattr(owner, fname, None)
            if fn is None:
                self.missing.append(f"{modname}.{fname}")
                continue
            wrapper = self._wrap(fn, fname, layer)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._bindings.append((mod, attr, fn, wrapper))

    def _wrap(self, fn, fname: str, layer: str | None):
        tracer = self.tracer
        counted = COUNTS.get(fname)

        def traced(*args, **kwargs):
            name = layer
            if name is None:
                check = kwargs.get("check", args[2] if len(args) > 2 else True)
                name = "models.derive_check" if check else "models.derive"
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if counted is not None:
                tracer.count(counted[0], args[0], counted[1](result))
            return result

        traced.__name__ = fname
        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Instrument":
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn, _ in self._bindings:
            setattr(mod, attr, fn)

