"""JSON and DOT interchange for lattices, arrow sets, and model structures."""
from __future__ import annotations

import re
from pathlib import Path
from typing import Any, Sequence

from .arrows import ArrowSet
from .bousfield import GoldenArrowReport, LocalizationGraph
from .errors import LatmodError, UnknownLabel
from .lattice import (
    FiniteLattice,
    build_lattice,
    chain,
    containment_rows,
    hasse_covers,
    n5,
    product,
)
from .models import ModelStructure, derive_classes

_BUILTIN_CHAIN = re.compile(r"chain(\d+)$")
_BUILTIN_GRID = re.compile(r"grid(\d+)x(\d+)$")


def builtin_lattice(name: str) -> FiniteLattice:
    """Resolve builtin lattice names: n5, chainN, gridNxM, square."""
    if name == "n5":
        return n5()
    if name == "square":
        return product(chain(1), chain(1))
    if m := _BUILTIN_CHAIN.match(name):
        return chain(int(m.group(1)))
    if m := _BUILTIN_GRID.match(name):
        return product(chain(int(m.group(1))), chain(int(m.group(2))))
    raise UnknownLabel(f"unknown builtin lattice {name!r}")


def load_lattice(source: str | Path) -> FiniteLattice:
    """Load a lattice from a JSON file path or a builtin: reference."""
    text = str(source)
    if text.startswith("builtin:"):
        return builtin_lattice(text[len("builtin:"):])
    return parse_lattice(_read_json(source))


def parse_lattice(data: Any) -> FiniteLattice:
    if not isinstance(data, dict) or "elements" not in data:
        raise LatmodError('lattice JSON needs an "elements" list')
    elements = data["elements"]
    if not isinstance(elements, (list, tuple)) or not all(
        isinstance(lab, str) for lab in elements
    ):
        raise LatmodError('lattice "elements" must be a list of strings')
    covers = _label_pairs(data.get("covers", []), 'lattice "covers"')
    return build_lattice(elements, covers)


def _label_pairs(value: Any, what: str) -> list[tuple[str, str]]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(pair, (list, tuple))
        and len(pair) == 2
        and all(isinstance(lab, str) for lab in pair)
        for pair in value
    ):
        raise LatmodError(f"{what} must be a list of [lower, upper] label pairs")
    return [tuple(pair) for pair in value]


def serialize_lattice(lat: FiniteLattice) -> dict[str, Any]:
    return {
        "elements": list(lat.labels),
        "covers": [
            [lat.labels[c.source], lat.labels[c.target]] for c in lat.covers
        ],
    }


def parse_arrow_set(lat: FiniteLattice, data: Any) -> ArrowSet:
    if not isinstance(data, dict) or "arrows" not in data:
        raise LatmodError('arrow set JSON needs an "arrows" list')
    pairs = _label_pairs(data["arrows"], 'arrow set "arrows"')
    return ArrowSet.from_labels(lat, pairs)


def load_arrow_set(lat: FiniteLattice, path: str | Path) -> ArrowSet:
    return parse_arrow_set(lat, _read_json(path))


def serialize_arrow_set(aset: ArrowSet) -> dict[str, Any]:
    return {"arrows": aset.label_pairs()}


def parse_model(lat: FiniteLattice, data: Any) -> ModelStructure:
    if not isinstance(data, dict) or "weq" not in data or "af" not in data:
        raise LatmodError('model JSON needs "weq" and "af" arrow lists')
    weq = ArrowSet.from_labels(lat, _label_pairs(data["weq"], 'model "weq"'))
    af = ArrowSet.from_labels(lat, _label_pairs(data["af"], 'model "af"'))
    return derive_classes(weq, af)


def load_model(lat: FiniteLattice, path: str | Path) -> ModelStructure:
    return parse_model(lat, _read_json(path))


def serialize_model(model: ModelStructure) -> dict[str, Any]:
    return {
        "weq": model.weq.label_pairs(),
        "af": model.acyclic_fib.label_pairs(),
        "cofibrations": model.cof.label_pairs(),
        "acyclic_cofibrations": model.acyclic_cof.label_pairs(),
        "fibrations": model.fib.label_pairs(),
    }


def serialize_golden_reports(
    reports: Sequence[GoldenArrowReport],
) -> list[dict[str, Any]]:
    out = []
    for r in reports:
        lat = r.golden.lattice
        out.append(
            {
                "new_weq": [lat.labels[x] for x in r.new_weq],
                "targets": [lat.labels[x] for x in r.targets],
                "sources": [lat.labels[x] for x in r.sources],
                "arrows": r.golden.label_pairs(),
            }
        )
    return out


def _read_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise LatmodError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise LatmodError(f"{path} is not UTF-8 text: {exc}") from exc
    import json

    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise LatmodError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise LatmodError(f"{path} nests too deeply to read") from None


# ---------------------------------------------------------------------------
# DOT export


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _hasse_dot(name: str, labels: Sequence[str], above: Sequence[int]) -> str:
    # Node i is labelled labels[i]; the edges are the covers of the rows.
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    lines += [f"  n{i} [label={_quote(lab)}];" for i, lab in enumerate(labels)]
    lines += [f"  n{i} -> n{j};" for i, j in hasse_covers(above)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def systems_dot(systems: Sequence[ArrowSet], name: str = "systems") -> str:
    """Hasse diagram of a family of arrow sets under containment.

    The family must be listed in a linear extension of containment, as
    every catalog and interval is.
    """
    return _hasse_dot(
        name,
        [s.signature() for s in systems],
        containment_rows([s.mask for s in systems]),
    )


def models_dot(structures: Sequence[ModelStructure]) -> str:
    """Hasse diagram of model structures under componentwise containment.

    One structure lies below another when both its W and its AF do, that
    is when the mask W | AF << shift does, for a shift past every W bit.
    """
    shift = max((m.weq.mask for m in structures), default=0).bit_length()
    return _hasse_dot(
        "model_structures",
        [m.signature() for m in structures],
        containment_rows(
            [m.weq.mask | m.acyclic_fib.mask << shift for m in structures]
        ),
    )


def localization_graph_dot(graph: LocalizationGraph) -> str:
    """Localization graph; left edges dashed, right edges solid."""
    lat = graph.structures[0].lattice if graph.structures else None
    lines = ["digraph localizations {", "  rankdir=BT;"]
    for i, m in enumerate(graph.structures):
        shape = ' shape=box' if i == graph.trivial_index else ""
        lines.append(f"  n{i} [label={_quote(m.signature())}{shape}];")
    for e in graph.edges:
        label = f"{e.side[0].upper()} {lat.arrow_name(e.at)}"
        style = ' style=dashed' if e.side == "left" else ""
        lines.append(
            f"  n{e.src} -> n{e.dst} [label={_quote(label)}{style}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_localization_graph(graph: LocalizationGraph) -> dict[str, Any]:
    lat = graph.structures[0].lattice if graph.structures else None
    return {
        "trivial": graph.trivial_index,
        "nodes": [serialize_model(m) for m in graph.structures],
        "edges": [
            {
                "from": e.src,
                "to": e.dst,
                "side": e.side,
                "at": [lat.labels[e.at.source], lat.labels[e.at.target]],
            }
            for e in graph.edges
        ],
    }
