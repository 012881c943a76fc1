"""Round trips and exports for the JSON and DOT formats."""
import json
import random
import re

import pytest

from latmod import (
    LatmodError,
    UnknownLabel,
    ArrowSet,
    chain,
    derive_classes,
    enumerate_model_structures,
    golden_arrows,
    localization_graph,
    n5,
    product,
    transfer_catalog,
)
from latmod.serialize import (
    builtin_lattice,
    load_arrow_set,
    load_lattice,
    localization_graph_dot,
    models_dot,
    parse_arrow_set,
    parse_lattice,
    parse_model,
    serialize_arrow_set,
    serialize_golden_reports,
    serialize_lattice,
    serialize_localization_graph,
    serialize_model,
    systems_dot,
)

from oracles import hasse_covers_pairs


def test_lattice_roundtrip(corpus):
    for lat in corpus.values():
        back = parse_lattice(serialize_lattice(lat))
        assert back.labels == lat.labels
        assert back.covers == lat.covers
        assert back.arrows == lat.arrows


def test_arrow_set_roundtrip(pentagon, grid21):
    rng = random.Random(7)
    for lat in (pentagon, grid21):
        for _ in range(30):
            aset = ArrowSet(lat, rng.randrange(1 << len(lat.arrows)))
            back = parse_arrow_set(lat, serialize_arrow_set(aset))
            assert back.mask == aset.mask


def test_model_roundtrip(square):
    for model in enumerate_model_structures(square):
        data = serialize_model(model)
        assert sorted(data) == [
            "acyclic_cofibrations",
            "af",
            "cofibrations",
            "fibrations",
            "weq",
        ]
        back = parse_model(square, data)
        assert back.key() == model.key()
        assert back.cof == model.cof and back.fib == model.fib


def test_model_json_is_plain_data(square):
    model = enumerate_model_structures(square)[0]
    json.dumps(serialize_model(model))


def test_golden_report_serialization(pentagon):
    weq = ArrowSet.from_labels(
        pentagon, [("0", "A"), ("0", "B"), ("0", "C"), ("A", "C")]
    )
    af = ArrowSet.from_labels(pentagon, [("0", "A"), ("0", "B"), ("0", "C")])
    model = derive_classes(weq, af)
    reports = serialize_golden_reports(
        golden_arrows(model, pentagon.arrow("C", "1"))
    )
    assert len(reports) == 2
    for report in reports:
        assert report["targets"] == ["1"]
        assert sorted(report["sources"]) == ["B", "C"]
        assert report["arrows"] == [["B", "1"], ["C", "1"]]
    assert sorted(r["new_weq"][0] for r in reports) == ["B", "C"]


def test_builtin_lattices():
    assert builtin_lattice("n5").n == 5
    assert builtin_lattice("square").labels == (
        "(0,0)",
        "(0,1)",
        "(1,0)",
        "(1,1)",
    )
    assert builtin_lattice("grid1x1").labels == builtin_lattice("square").labels
    assert builtin_lattice("chain0").n == 1
    assert builtin_lattice("chain4").n == 5
    assert builtin_lattice("grid2x1").n == 6
    for bogus in ("m5", "chain", "chainx", "grid2", "grid2x", ""):
        with pytest.raises(UnknownLabel):
            builtin_lattice(bogus)


def test_load_lattice_from_file_and_builtin(tmp_path, pentagon):
    assert load_lattice("builtin:n5").labels == pentagon.labels
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(serialize_lattice(pentagon)))
    assert load_lattice(path).labels == pentagon.labels


def test_parse_errors(pentagon, tmp_path):
    with pytest.raises(LatmodError):
        parse_lattice(42)
    with pytest.raises(LatmodError):
        parse_lattice({"covers": []})
    with pytest.raises(LatmodError):
        parse_arrow_set(pentagon, {"labels": []})
    with pytest.raises(LatmodError):
        parse_model(pentagon, {"weq": []})
    with pytest.raises(LatmodError):
        load_arrow_set(pentagon, tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(LatmodError, match="not valid JSON"):
        load_arrow_set(pentagon, broken)


def test_catalog_dot_is_the_containment_hasse_diagram():
    catalog = transfer_catalog(chain(2))
    dot = systems_dot(catalog.systems, name="transfer_systems")
    lines = dot.splitlines()
    assert lines[0] == "digraph transfer_systems {"
    assert lines[-1] == "}"
    nodes = [ln for ln in lines if "[label=" in ln]
    edges = [ln for ln in lines if " -> " in ln]
    assert len(nodes) == 5
    # the five systems of [2] form a pentagon under containment
    assert edges == [
        "  n0 -> n1;",
        "  n0 -> n2;",
        "  n1 -> n4;",
        "  n2 -> n3;",
        "  n3 -> n4;",
    ]


def test_models_dot_on_a_chain():
    dot = models_dot(enumerate_model_structures(chain(1)))
    assert dot.splitlines() == [
        "digraph model_structures {",
        "  rankdir=BT;",
        '  n0 [label="W={} AF={}"];',
        '  n1 [label="W={0->1} AF={}"];',
        '  n2 [label="W={0->1} AF={0->1}"];',
        "  n0 -> n1;",
        "  n1 -> n2;",
        "}",
    ]


def _dot_edges(dot):
    return [
        (int(i), int(j)) for i, j in re.findall(r"^  n(\d+) -> n(\d+);$", dot, re.M)
    ]


@pytest.mark.parametrize("name", ["n5", "grid2x1", "cube"])
def test_dot_covers_are_the_all_pairs_covers(name):
    # The DOT edges of the transfer catalog and of the model structures,
    # read from membership rows, against every pair compared by containment
    # (componentwise on the model keys (W, AF)).
    lat = {
        "n5": n5(),
        "grid2x1": product(chain(2), chain(1)),
        "cube": product(product(chain(1), chain(1)), chain(1)),
    }[name]
    systems = transfer_catalog(lat).systems
    want = hasse_covers_pairs([s.mask for s in systems], lambda a, b: not a & ~b)
    assert _dot_edges(systems_dot(systems)) == want
    models = enumerate_model_structures(lat)
    want = hasse_covers_pairs(
        [m.key() for m in models],
        lambda a, b: not (a[0] & ~b[0] or a[1] & ~b[1]),
    )
    assert _dot_edges(models_dot(models)) == want


def test_localization_graph_dot_styles():
    dot = localization_graph_dot(localization_graph(chain(1)))
    assert dot.splitlines() == [
        "digraph localizations {",
        "  rankdir=BT;",
        '  n0 [label="W={} AF={}" shape=box];',
        '  n1 [label="W={0->1} AF={}"];',
        '  n2 [label="W={0->1} AF={0->1}"];',
        '  n0 -> n1 [label="L 0->1" style=dashed];',
        '  n0 -> n2 [label="R 0->1"];',
        "}",
    ]


def test_localization_graph_json(square):
    graph = localization_graph(square)
    data = serialize_localization_graph(graph)
    json.dumps(data)
    assert data["trivial"] == graph.trivial_index
    assert len(data["nodes"]) == 23
    assert len(data["edges"]) == 64
    first = data["edges"][0]
    assert sorted(first) == ["at", "from", "side", "to"]
    assert first["side"] in ("left", "right")
