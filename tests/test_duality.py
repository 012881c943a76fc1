"""Duality: a lattice and its opposite agree under arrow reversal.

Reversing arrows swaps pullbacks and pushouts, so transfer systems of the
opposite are the cotransfer systems of the lattice, and a model structure
(W, C, F) on L reads as (W, F, C) on the opposite, its acyclic fibrations
being the reversed acyclic cofibrations.  Left localization on one side
is right localization on the other (Franchere-Ormsby-Osorno-Qin-Waugh,
"Self-duality of the lattice of transfer systems via weak factorization
systems").
"""
import pytest

from latmod import (
    ArrowSet,
    build_lattice,
    cotransfer_systems,
    enumerate_model_structures,
    enumerate_weak_equivalence_sets,
    localization_graph,
    n5,
    reachable_from_trivial,
    transfer_catalog,
)

from oracles import opposite


def n5_with_new_bottom():
    pentagon = n5()
    labels = pentagon.labels
    covers = [(labels[s], labels[t]) for s, t in pentagon.covers]
    return build_lattice(["bot", *labels], [("bot", "0"), *covers])


# Lattices that are not isomorphic to their opposites.
NOT_SELF_DUAL = {
    "tail": lambda: build_lattice(
        ["0", "1", "a", "b", "2"],
        [("0", "1"), ("1", "a"), ("1", "b"), ("a", "2"), ("b", "2")],
    ),
    "n5-new-bottom": n5_with_new_bottom,
}
NAMES = ["n5", "square", "grid2x1", "chain1", "chain2", "chain3", *NOT_SELF_DUAL]


def reversed_mask(aset, target):
    """The arrows of aset reversed, as a mask over the target lattice."""
    pairs = [(b, a) for a, b in aset.label_pairs()]
    return ArrowSet.from_labels(target, pairs).mask


@pytest.mark.parametrize("name", NAMES)
def test_opposite_lattice_agrees_under_arrow_reversal(name, corpus):
    lat = corpus[name] if name in corpus else NOT_SELF_DUAL[name]()
    opp = opposite(lat)

    assert {reversed_mask(s, lat) for s in transfer_catalog(opp)} == {
        s.mask for s in cotransfer_systems(lat)
    }
    assert {reversed_mask(w, lat) for w in enumerate_weak_equivalence_sets(opp)} == {
        w.mask for w in enumerate_weak_equivalence_sets(lat)
    }
    assert {m.key() for m in enumerate_model_structures(opp)} == {
        (reversed_mask(m.weq, opp), reversed_mask(m.acyclic_cof, opp))
        for m in enumerate_model_structures(lat)
    }

    graph, opp_graph = localization_graph(lat), localization_graph(opp)
    assert len(opp_graph.edges) == len(graph.edges)
    assert len(reachable_from_trivial(opp_graph)) == len(
        reachable_from_trivial(graph)
    )


def test_extra_inputs_are_not_self_dual():
    # transfer systems, weq sets, model structures, graph edges, reached
    counts = {
        "tail": (31, 20, 82, 246, 79),
        "n5-new-bottom": (86, 44, 252, 882, 241),
    }
    for name, expected in counts.items():
        lat = NOT_SELF_DUAL[name]()
        # An order-reversing bijection sends the bottom to the top, so a
        # self-dual lattice has as many covers above its bottom as below
        # its top.
        above_bottom = sum(c.source == lat.bottom for c in lat.covers)
        below_top = sum(c.target == lat.top for c in lat.covers)
        assert above_bottom != below_top
        graph = localization_graph(lat)
        assert (
            len(transfer_catalog(lat)),
            len(enumerate_weak_equivalence_sets(lat)),
            len(enumerate_model_structures(lat)),
            len(graph.edges),
            len(reachable_from_trivial(graph)),
        ) == expected
