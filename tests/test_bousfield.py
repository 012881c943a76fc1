"""Localization: golden arrows, the fixpoint, and the graph over all models."""
import inspect
import pickle
import re

import pytest

import latmod
from latmod import (
    ArrowSet,
    ModelStructure,
    NotAdmissible,
    NotAWeakEquivalenceSet,
    NotShort,
    UnknownLabel,
    af_interval,
    chain,
    derive_classes,
    enumerate_model_structures,
    enumerate_short_factorizations,
    enumerate_weak_equivalence_sets,
    generate_transfer,
    golden_arrow_set,
    golden_arrows,
    is_weakly_connected,
    left_localize,
    llp_dual,
    localization_graph,
    n5,
    product,
    pullbacks_of,
    pushouts_of,
    reachable_from_trivial,
    right_localize,
    rlp_dual,
    t_min,
    verify_model_axioms,
    weq_components,
)
from latmod import bousfield
from latmod.bousfield import LocalizationEdge, LocalizationGraph
from latmod.errors import FixpointError, LatmodError

from conftest import chain_union, lattice_as_sets
from oracles import (
    AmbiguousMinimum,
    least_localization,
    naive_components,
    naive_golden_reports,
    naive_local_closure,
    naive_localize_weq,
    smallest_weq_superset,
)


def cube():
    return product(product(chain(1), chain(1)), chain(1))


def fresh_corpus_and_cube():
    """The corpus lattices and the cube, built anew so their caches are empty."""
    return (
        n5(),
        product(chain(1), chain(1)),
        product(chain(2), chain(1)),
        chain(1),
        chain(2),
        chain(3),
        cube(),
    )


def counted_fixpoint(monkeypatch):
    """Record each (W, arrow, side) that bousfield._weq_fixpoint runs on."""
    calls = []
    fixpoint = bousfield._weq_fixpoint

    def counted(t, weq, k, side):
        calls.append((weq, k, side))
        return fixpoint(t, weq, k, side)

    monkeypatch.setattr(bousfield, "_weq_fixpoint", counted)
    return calls


def make_pentagon_model(pentagon):
    weq = ArrowSet.from_labels(
        pentagon, [("0", "A"), ("0", "B"), ("0", "C"), ("A", "C")]
    )
    af = ArrowSet.from_labels(pentagon, [("0", "A"), ("0", "B"), ("0", "C")])
    return derive_classes(weq, af)


@pytest.fixture(scope="module")
def pentagon_model(pentagon):
    """W has components {0, A, B, C} and {1}; AF is the three bottom covers."""
    return make_pentagon_model(pentagon)


@pytest.fixture(scope="module")
def square_model(square):
    weq = ArrowSet.from_labels(square, [("(0,0)", "(0,1)"), ("(0,0)", "(1,0)")])
    return derive_classes(weq, weq)


def blocks_by_label(lat, comps):
    return {frozenset(lat.label(x) for x in comp) for comp in comps}


def test_weq_components(pentagon, square, square_model):
    assert weq_components(ArrowSet.empty(pentagon)) == tuple(
        (x,) for x in range(pentagon.n)
    )
    assert len(weq_components(ArrowSet.full(pentagon))) == 1
    assert blocks_by_label(square, weq_components(square_model.weq)) == {
        frozenset({"(0,0)", "(0,1)", "(1,0)"}),
        frozenset({"(1,1)"}),
    }


@pytest.mark.parametrize(
    "build, step",
    [(n5, 1), (lambda: product(chain(1), chain(1)), 1), (cube, 127)],
    ids=["n5", "square", "cube"],
)
def test_weq_components_match_the_naive_blocks(build, step):
    # Any arrow set, not only weak equivalence sets: every mask of n5 and
    # the square, every 127th of the cube's 2**19.
    lat = build()
    for mask in range(0, 1 << len(lat.arrows), step):
        aset = ArrowSet(lat, mask)
        blocks = naive_components(lat.n, frozenset(aset))
        want = tuple(
            tuple(sorted(b)) for x, b in enumerate(blocks) if min(b) == x
        )
        assert weq_components(aset) == want, aset.signature()


@pytest.mark.parametrize("name", ["right_localize", "left_localize"])
def test_each_localization_is_a_plain_public_function(name):
    # Each side's localization is built by one factory, and still looks
    # like the function it replaces: its name, a docstring, (model, f), and
    # pickled by reference to its module.
    fn = getattr(bousfield, name)
    assert (fn.__name__, fn.__qualname__, fn.__module__) == (
        name,
        name,
        "latmod.bousfield",
    )
    assert fn.__doc__ and fn.__doc__.strip()
    assert list(inspect.signature(fn).parameters) == ["model", "f"]
    assert pickle.loads(pickle.dumps(fn)) is fn
    assert getattr(latmod, name) is fn


def test_golden_arrows_on_pentagon(pentagon, pentagon_model):
    f = pentagon.arrow("C", "1")
    assert golden_arrow_set(pentagon_model, f).signature() == "{B->1, C->1}"
    reports = golden_arrows(pentagon_model, f)
    assert {pentagon.arrow_name(r.new_weq) for r in reports} == {"B->1", "C->1"}
    for report in reports:
        assert tuple(pentagon.label(t) for t in report.targets) == ("1",)
        assert {pentagon.label(s) for s in report.sources} == {"B", "C"}
        assert report.golden.signature() == "{B->1, C->1}"


def test_record_reprs_name_every_field(pentagon):
    graph = localization_graph(pentagon)
    assert repr(graph.edges[0]) == (
        "LocalizationEdge(src=0, dst=26, side='left', "
        "at=Arrow(source=0, target=1))"
    )
    trivial = graph.structures[graph.trivial_index]
    assert repr(golden_arrows(trivial, pentagon.arrow("C", "1"))) == (
        "(GoldenArrowReport(new_weq=Arrow(source=0, target=2), targets=(2,), "
        "sources=(0,), golden=ArrowSet({0->B})), "
        "GoldenArrowReport(new_weq=Arrow(source=3, target=4), targets=(4,), "
        "sources=(3,), golden=ArrowSet({C->1})))"
    )


def test_golden_arrows_on_square(square, square_model):
    f = square.arrow("(1,0)", "(1,1)")
    golden = golden_arrow_set(square_model, f)
    assert golden.signature() == "{(0,1)->(1,1), (1,0)->(1,1)}"


def as_pairs(aset):
    return frozenset((f.source, f.target) for f in aset)


def test_golden_arrows_match_naive_oracle(corpus):
    for lat in (*corpus.values(), cube()):
        n, leq, covers, _, _ = lattice_as_sets(lat)
        for model in enumerate_model_structures(lat):
            for f in lat.covers:
                if f in model.weq:
                    continue
                new_weq = right_localize(model, f).weq
                want = naive_golden_reports(
                    n, leq, covers, as_pairs(model.weq), as_pairs(new_weq)
                )
                got = [
                    (tuple(r.new_weq), r.targets, r.sources, as_pairs(r.golden))
                    for r in golden_arrows(model, f)
                ]
                assert got == want


@pytest.mark.parametrize("source, target", [("C", "1"), ("0", "1")])
def test_right_localize_at_a_cover_runs_the_fixpoint_once(
    monkeypatch, source, target
):
    # 0 -> 1 is a long arrow: it localizes directly, not cover by cover.
    # A fresh lattice has an empty localization map; a repeat call, and
    # golden reports at the same cover, read the entry the first call left.
    pentagon = n5()
    model = make_pentagon_model(pentagon)
    calls = counted_fixpoint(monkeypatch)
    f = pentagon.arrow(source, target)
    first = right_localize(model, f)
    assert calls == [(model.weq.mask, pentagon.arrow_position[f], "right")]
    assert right_localize(model, f) is first
    if f in pentagon.covers:
        assert golden_arrows(model, f) is golden_arrows(model, f)
    assert len(calls) == 1


def answer(call, *args, refusals=NotShort):
    # A query's answer as plain data: a structure by key and signature,
    # golden reports by their fields, a refusal by type and message.  Only
    # the refusals named are answers; any other error fails the test.
    try:
        out = call(*args)
    except refusals as err:
        return type(err).__name__, str(err)
    if isinstance(out, ModelStructure):
        return out.key(), out.signature()
    return [
        (tuple(r.new_weq), r.targets, r.sources, r.golden.signature())
        for r in out
    ]


def emptied(lat):
    # lat with its per-W dicts as a freshly built lattice has them, so the
    # next query misses every entry; the closure tables stay.
    for kind in ("model_tables", "golden"):
        lat._cache[kind].clear()
    for kind in ("localized_weq", "localized"):
        for rows in lat._cache[kind].values():
            rows.clear()
    return lat


@pytest.mark.parametrize(
    "build, each_call",
    [
        (n5, True),
        (lambda: product(chain(2), chain(1)), True),
        (lambda: chain(5), False),
        (cube, False),
    ],
    ids=["n5", "grid2x1", "chain5", "cube"],
)
def test_warm_answers_equal_cold_answers(build, each_call):
    # The warm paths read the per-W dicts the graph filled.  A freshly
    # built copy starts from empty ones, so each of its entries is made by
    # the miss path of a single call; on n5 and grid2x1 they are emptied
    # before every call, so every answer there is computed cold.  Every
    # model, every arrow outside W, both sides, and the golden reports
    # (refusals off the covers).
    warm, cold = build(), build()
    models = localization_graph(warm).structures
    assert warm._cache["model_tables"] and not cold._cache["model_tables"]
    for model in models:
        weq = ArrowSet(cold, model.weq.mask)
        af = ArrowSet(cold, model.acyclic_fib.mask)
        if each_call:
            emptied(cold)
        assert answer(derive_classes, model.weq, model.acyclic_fib) == answer(
            derive_classes, weq, af
        )
        copy = derive_classes(weq, af)
        assert verify_model_axioms(model) is verify_model_axioms(copy) is True
        for f in warm.arrows:
            if f in model.weq:
                continue
            for call in (left_localize, right_localize, golden_arrows):
                if each_call:
                    emptied(cold)
                assert answer(call, model, f) == answer(call, copy, f)


def over(lat, model):
    """model with each class rebuilt on lat, by mask."""
    return ModelStructure(lat, *(ArrowSet(lat, s.mask) for s in model[1:]))


@pytest.mark.parametrize(
    "build", [n5, lambda: product(chain(1), chain(1))], ids=["n5", "square"]
)
def test_a_warm_localization_reads_exactly_its_inputs(build):
    # The target map is keyed by W and the one other mask the target reads:
    # F on the right, AF on the left.  It is filled from every enumerated
    # model at every arrow outside W; then each model has one class swapped
    # for another model's over the same W, AF or C on the right, C or F on
    # the left, so it shares (W, F) or (W, AF) with an enumerated model.
    # Every answer must equal a fresh lattice's cold one: a right key of AF
    # or a left key of C would read another model's entry, and a hit that
    # skipped the kept-class check would return a target whose C is not
    # the swapped one.
    refusals = (LatmodError, FixpointError)
    warm, cold = build(), build()
    models = enumerate_model_structures(warm)
    outside = {m.weq.mask: [f for f in warm.arrows if f not in m.weq] for m in models}
    for model in models:
        for f in outside[model.weq.mask]:
            answer(left_localize, model, f, refusals=refusals)
            answer(right_localize, model, f, refusals=refusals)
    assert all(warm._cache["localized"].values())
    swaps = {right_localize: ("acyclic_fib", "cof"), left_localize: ("cof", "fib")}
    compared = refused = 0
    for model in models:
        for other in models:
            if other.weq != model.weq or other is model:
                continue
            for call, fields in swaps.items():
                for field in fields:
                    swapped = model._replace(**{field: getattr(other, field)})
                    for f in outside[model.weq.mask]:
                        got = answer(call, swapped, f, refusals=refusals)
                        want = answer(
                            call, over(emptied(cold), swapped), f,
                            refusals=refusals,
                        )
                        assert got == want
                        compared += 1
                        refused += got[0] == "FixpointError"
    assert compared and refused


def test_only_single_localizations_fill_the_target_map():
    # The graph and the golden reports read W' alone and leave the target
    # map empty; one single localization adds one row, with one entry set.
    lat = cube()
    graph = localization_graph(lat)
    for model in graph.structures:
        for c in lat.covers:
            golden_arrows(model, c)
    targets = lat._cache["localized"]
    assert targets == {"left": {}, "right": {}}
    e = next(e for e in graph.edges if e.side == "right")
    model = graph.structures[e.src]
    assert right_localize(model, e.at) is graph.structures[e.dst]
    assert targets["left"] == {}
    assert list(targets["right"]) == [model.weq.mask]
    assert list(targets["right"][model.weq.mask]) == [model.fib.mask]
    row = targets["right"][model.weq.mask][model.fib.mask]
    assert len(row) == len(lat.arrows)
    assert [k for k, entry in enumerate(row) if entry is not None] == [
        lat.arrow_position[e.at]
    ]


@pytest.mark.parametrize("long_arrow", ["0,1", "0,C"], ids=["outside-W", "in-W"])
def test_a_filled_golden_row_still_refuses_what_is_no_cover(long_arrow):
    # A golden row is read before the checks, but it only holds entries
    # for covers that passed them.  The model's W holds 0->C, a long
    # arrow, and not 0->1.
    model = make_pentagon_model(n5())
    lat = model.lattice
    for c in lat.covers:
        # A list names the same arrow, off the warm path, and the same entry.
        assert golden_arrows(model, list(c)) is golden_arrows(model, c)
    row = lat._cache["golden"][model.weq.mask]
    assert [k for k, entry in enumerate(row) if entry is not None] == sorted(
        lat.arrow_position[c] for c in lat.covers
    )
    source, target = long_arrow.split(",")
    with pytest.raises(NotShort) as err:
        golden_arrows(model, lat.arrow(source, target))
    assert str(err.value) == f"{source}->{target} is not a cover"
    with pytest.raises(NotShort) as err:
        golden_arrows(model, (1, 0))
    assert str(err.value) == "'A' -> '0' is not a relation, so not a cover"
    with pytest.raises(NotShort) as err:
        golden_arrows(model, None)
    assert str(err.value) == "None is not a pair of element indices, so not a cover"


def test_localized_weq_matches_the_naive_fixpoint(corpus):
    # Every model, every arrow outside W (covers and long arrows), both
    # sides; 14,268 of the 16,956 localizations are on the cube.  W' is
    # read through the shared map, so entries the graph left on the
    # corpus lattices are checked too.
    for lat in (*corpus.values(), cube()):
        n, leq, _, meets, joins = lattice_as_sets(lat)
        for model in enumerate_model_structures(lat):
            classes = tuple(
                as_pairs(c)
                for c in (model.weq, model.acyclic_fib, model.acyclic_cof)
            )
            for f in lat.arrows:
                if f in model.weq:
                    continue
                for side in ("left", "right"):
                    want = naive_localize_weq(
                        n, leq, meets, joins, classes, tuple(f), side
                    )
                    got = bousfield._localized_weq(
                        lat, model.weq.mask, lat.arrow_position[f], side
                    )
                    assert as_pairs(ArrowSet(lat, got)) == want


def test_localized_weq_reads_only_w(corpus):
    # The two-class rounds equal the closure of W and f under
    # two-out-of-three and the pullbacks (pushouts) of V - W.
    for lat in corpus.values():
        n, leq, _, meets, joins = lattice_as_sets(lat)
        for model in enumerate_model_structures(lat):
            classes = tuple(
                as_pairs(c)
                for c in (model.weq, model.acyclic_fib, model.acyclic_cof)
            )
            for f in lat.arrows:
                if f in model.weq:
                    continue
                for side in ("left", "right"):
                    want = naive_localize_weq(
                        n, leq, meets, joins, classes, tuple(f), side
                    )
                    got = naive_local_closure(
                        n, leq, meets, joins, classes[0], tuple(f), side
                    )
                    assert got == want


def test_graph_checks_that_left_localization_keeps_cofibrations():
    # C = llp(AF) and left localization keeps AF, so no fixpoint result can
    # change the cofibrations; a target with other cofibrations must be
    # refused.  The model table of a fresh pentagon gets one: the left
    # localization of model 5 at 0->A with C complemented, put in before
    # the enumeration, so the graph and left_localize both read it.
    reference = enumerate_model_structures(n5())[5]
    target = left_localize(reference, reference.lattice.arrow("0", "A"))
    pentagon = n5()
    derive_classes(
        ArrowSet(pentagon, target.weq.mask),
        ArrowSet(pentagon, target.acyclic_fib.mask),
    )
    table = pentagon._cache["model_tables"][target.weq.mask]
    entry = table[target.acyclic_fib.mask]
    table[entry.acyclic_fib.mask] = entry._replace(
        cof=ArrowSet.full(pentagon) - entry.cof
    )
    model = enumerate_model_structures(pentagon)[5]
    assert model.signature() == "W={A->C} AF={A->C}"
    message = (
        "left localization of W={A->C} at 0->A: failed to preserve cofibrations"
    )
    with pytest.raises(FixpointError) as err:
        localization_graph(pentagon)
    assert str(err.value) == message
    with pytest.raises(FixpointError) as err:
        left_localize(model, pentagon.arrow("0", "A"))
    assert str(err.value) == message


def test_golden_arrows_generate_the_right_localized_acyclic_fibrations(corpus):
    # AF' = W' & F, and the old AF with the golden arrows generates it.
    for lat in (*corpus.values(), cube()):
        for model in enumerate_model_structures(lat):
            for f in lat.covers:
                if f in model.weq:
                    continue
                golden = golden_arrow_set(model, f)
                assert (
                    generate_transfer(model.acyclic_fib | golden)
                    == right_localize(model, f).acyclic_fib
                )


def test_golden_arrows_require_a_cover(pentagon, pentagon_model):
    with pytest.raises(NotShort):
        golden_arrows(pentagon_model, pentagon.arrow("0", "1"))


NOT_AN_ARROW = {
    (1, 0): "'A' -> '0' is not a relation",
    (2, 2): "identity 'B' -> 'B' is not an arrow",
    (0, 99): "no element with index 99",
}


# Values that are no (source, target) pair at all.
NOT_A_PAIR = {
    (0, 1, 2): "(0, 1, 2) is not a pair of element indices",
    (0,): "(0,) is not a pair of element indices",
    None: "None is not a pair of element indices",
}


@pytest.mark.parametrize("pair", [*NOT_AN_ARROW, *NOT_A_PAIR])
@pytest.mark.parametrize(
    "call, error, suffix",
    [
        (right_localize, UnknownLabel, ""),
        (left_localize, UnknownLabel, ""),
        (golden_arrows, NotShort, ", so not a cover"),
    ],
    ids=["right", "left", "golden"],
)
def test_a_pair_that_names_no_arrow_raises_a_typed_error(
    pentagon, pentagon_model, call, error, suffix, pair
):
    with pytest.raises(error) as err:
        call(pentagon_model, pair)
    assert str(err.value) == {**NOT_AN_ARROW, **NOT_A_PAIR}[pair] + suffix


def test_not_an_arrow_is_worded_like_the_label_lookup(pentagon):
    for (s, t), message in NOT_AN_ARROW.items():
        if t < pentagon.n:
            with pytest.raises(UnknownLabel) as err:
                pentagon.arrow(pentagon.label(s), pentagon.label(t))
            assert str(err.value) == message


def test_localizations_return_enumerated_structures(corpus):
    for lat in (*corpus.values(), cube()):
        models = enumerate_model_structures(lat)
        enumerated = {id(m) for m in models}
        for model in models:
            for f in lat.arrows:
                if f in model.weq:
                    continue
                for localize in (left_localize, right_localize):
                    assert id(localize(model, f)) in enumerated


@pytest.mark.parametrize("build", [n5, cube], ids=["n5", "cube"])
def test_localizing_a_fresh_lattice_fills_the_shared_model_tables(build):
    # Nothing is enumerated, so the first localizations find no table for
    # W' and derive it; starts from derive_classes models follow.  Every
    # result is the structure the later enumeration holds, and each W'
    # has one table, keyed by its mask in the lattice's "model_tables".
    lat = build()

    def tables():
        return set(lat._cache["model_tables"])

    def localize_everywhere(model):
        found = []
        for f in lat.arrows:
            if f not in model.weq:
                found += [left_localize(model, f), right_localize(model, f)]
        return found

    empty = ArrowSet.empty(lat)
    trivial = derive_classes(empty, empty)
    assert tables() == {0}
    results = localize_everywhere(trivial)
    starts = [
        derive_classes(w, t_min(w)) for w in enumerate_weak_equivalence_sets(lat)
    ]
    for model in starts:
        results += localize_everywhere(model)
    seen = {m.weq.mask for m in (trivial, *starts, *results)}
    assert tables() == seen
    models = enumerate_model_structures(lat)
    assert tables() == {m.weq.mask for m in models}
    enumerated = {m.key(): m for m in models}
    for model in (trivial, *starts, *results):
        assert model is enumerated[model.key()]


@pytest.mark.parametrize(
    "arrows, error",
    [([("0", "1")], NotAWeakEquivalenceSet), ([("0", "B")], NotAdmissible)],
    ids=["not-a-weq-set", "not-admissible"],
)
def test_localize_raises_the_derivation_error_off_the_table(
    monkeypatch, arrows, error
):
    # A fixpoint result whose table lacks (W', AF') is derived with the
    # check on; left localization of the trivial model keeps AF = {}.  The
    # error is not kept: a second call raises it again.  A fresh lattice,
    # as the bad result stays in its localization map.
    pentagon = n5()
    bad = ArrowSet.from_labels(pentagon, arrows)
    monkeypatch.setattr(
        bousfield, "_weq_fixpoint", lambda t, weq, k, side: bad.mask
    )
    trivial = enumerate_model_structures(pentagon)[0]
    assert trivial.key() == (0, 0)
    with pytest.raises(error) as want:
        derive_classes(bad, ArrowSet.empty(pentagon), check=True)
    for _ in range(2):
        with pytest.raises(error) as got:
            left_localize(trivial, pentagon.arrow("0", "A"))
        assert str(got.value) == str(want.value)


def test_localizing_at_a_weak_equivalence_changes_nothing(
    pentagon, pentagon_model
):
    short = pentagon.arrow("A", "C")
    decomposable = pentagon.arrow("0", "C")
    assert golden_arrows(pentagon_model, short) == ()
    for f in (short, decomposable):
        assert right_localize(pentagon_model, f) is pentagon_model
        assert left_localize(pentagon_model, f) is pentagon_model


def test_right_localize_pentagon(pentagon, pentagon_model):
    new = right_localize(pentagon_model, pentagon.arrow("C", "1"))
    assert new.weq == ArrowSet.full(pentagon)
    assert (
        new.acyclic_fib.signature()
        == "{0->A, 0->B, 0->C, 0->1, B->1, C->1}"
    )
    assert new.fib == pentagon_model.fib


def test_left_localize_pentagon(pentagon, pentagon_model):
    new = left_localize(pentagon_model, pentagon.arrow("C", "1"))
    assert new.weq == ArrowSet.full(pentagon)
    assert new.acyclic_fib == pentagon_model.acyclic_fib
    assert new.cof == pentagon_model.cof


def test_right_localize_square(square, square_model):
    new = right_localize(square_model, square.arrow("(1,0)", "(1,1)"))
    assert new.weq == ArrowSet.full(square)
    assert new.acyclic_fib == ArrowSet.full(square)


def test_localizing_a_decomposable_arrow_composes(pentagon, square, grid21):
    # stepping through any short factorization lands on the direct result
    for lat in (pentagon, square, grid21, chain(4)):
        decomposable = [f for f in lat.arrows if f not in lat.covers]
        for model in enumerate_model_structures(lat):
            for f in decomposable:
                if f in model.weq:
                    continue
                for op in (left_localize, right_localize):
                    direct = op(model, f)
                    for path in enumerate_short_factorizations(lat, f):
                        step = model
                        for sigma in path:
                            step = op(step, sigma)
                        assert step.key() == direct.key()


GRAPH_SHAPE = {
    "n5": (70, 236),
    "square": (23, 64),
    "grid2x1": (182, 800),
    "chain3": (35, 58),
}


@pytest.mark.parametrize("name", sorted(GRAPH_SHAPE))
def test_localization_graph(name, corpus):
    lat = corpus[name]
    graph = localization_graph(lat)
    nodes, edges = GRAPH_SHAPE[name]
    assert len(graph) == nodes
    assert len(graph.edges) == edges
    trivial = graph.structures[graph.trivial_index]
    assert trivial.weq.mask == 0 and trivial.acyclic_fib.mask == 0
    position = lat.arrow_position
    order = [(e.src, e.side, position[e.at], e.dst) for e in graph.edges]
    assert order == sorted(order)
    for structure in graph.structures:
        assert verify_model_axioms(structure)
    for e in graph.edges:
        model = graph.structures[e.src]
        target = graph.structures[e.dst]
        assert e.at in lat.covers and e.at not in model.weq
        assert e.src != e.dst
        op = right_localize if e.side == "right" else left_localize
        redone = op(model, e.at)
        assert redone is target
        assert model.weq < redone.weq
        if e.side == "left":
            assert redone.cof == model.cof
            assert redone.acyclic_fib == model.acyclic_fib
        else:
            assert redone.fib == model.fib
            assert model.acyclic_fib <= redone.acyclic_fib


FRESH = {"n5": n5, "square": lambda: product(chain(1), chain(1))}


@pytest.mark.parametrize("name, calls", [("n5", 128), ("square", 48)])
def test_graph_runs_one_fixpoint_per_weq_cover_and_side(
    monkeypatch, name, calls
):
    # n5's 236 edges come from 128 (W, cover, side) triples, the square's
    # 64 from 48; on a fresh lattice each triple runs the fixpoint once,
    # and a second graph runs none.
    lat = FRESH[name]()
    seen = counted_fixpoint(monkeypatch)
    graph = localization_graph(lat)
    assert len(graph.edges) == GRAPH_SHAPE[name][1]
    assert len(seen) == len(set(seen)) == calls
    assert localization_graph(lat).edges == graph.edges
    assert len(seen) == calls


def test_nothing_runs_the_fixpoint_after_the_graph(monkeypatch):
    # The graph fills the shared map for every (W, cover, side), so every
    # single localization and golden report at a cover reads it.
    for lat in fresh_corpus_and_cube():
        localization_graph(lat)
        calls = counted_fixpoint(monkeypatch)
        for model in enumerate_model_structures(lat):
            for f in lat.covers:
                left_localize(model, f)
                right_localize(model, f)
                golden_arrows(model, f)
        assert calls == []


@pytest.mark.parametrize(
    "arrows, error",
    [([("0", "1")], NotAWeakEquivalenceSet), ([("0", "B")], NotAdmissible)],
    ids=["not-a-weq-set", "not-admissible"],
)
def test_graph_raises_the_derivation_error_off_the_enumeration(
    monkeypatch, arrows, error
):
    # A fixpoint result that keys no enumerated structure is derived with
    # the check on: the first edge (trivial model, left) must fail as
    # derive_classes(check=True) does on W' with the old AF = {}.  A fresh
    # lattice, as the bad result stays in its localization map.
    pentagon = n5()
    bad = ArrowSet.from_labels(pentagon, arrows)
    monkeypatch.setattr(
        bousfield, "_weq_fixpoint", lambda t, weq, k, side: bad.mask
    )
    with pytest.raises(error) as want:
        derive_classes(bad, ArrowSet.empty(pentagon), check=True)
    with pytest.raises(error) as got:
        localization_graph(pentagon)
    assert str(got.value) == str(want.value)


def test_graph_checks_that_right_localization_keeps_fibrations(monkeypatch):
    # Landing on W' = {} gives the trivial model, whose fibrations are every
    # arrow; the first model with fewer fibrations must be refused.  A fresh
    # lattice, as the emptied results stay in its localization map.
    pentagon = n5()
    fixpoint = bousfield._weq_fixpoint

    def emptied(t, weq, k, side):
        return 0 if side == "right" else fixpoint(t, weq, k, side)

    monkeypatch.setattr(bousfield, "_weq_fixpoint", emptied)
    model = enumerate_model_structures(pentagon)[1]
    assert model.signature() == "W={C->1} AF={}"
    message = (
        "right localization of W={C->1} at 0->A: failed to preserve fibrations"
    )
    with pytest.raises(FixpointError, match=re.escape(message)):
        localization_graph(pentagon)
    with pytest.raises(FixpointError, match=re.escape(message)):
        right_localize(model, pentagon.arrow("0", "A"))


# edges where the localized W overshoots the smallest candidate, per lattice:
# first without, then with the constraint that the candidate must carry a
# model keeping the untouched class (fibrations or cofibrations) fixed
MINIMALITY = {
    "n5": (4, 0),
    "square": (0, 0),
    "grid2x1": (32, 12),
    "chain3": (0, 0),
}


@pytest.mark.parametrize("name", sorted(MINIMALITY))
def test_localized_weq_is_smallest_admissible(name, corpus):
    lat = corpus[name]
    graph = localization_graph(lat)
    weqs = enumerate_weak_equivalence_sets(lat)
    classes = {}
    for w in weqs:
        entries = []
        for t in af_interval(w):
            cof = llp_dual(t)
            entries.append((cof.mask, rlp_dual(cof & w).mask))
        classes[w.mask] = entries
    plain = admissible = 0
    for e in graph.edges:
        model = graph.structures[e.src]
        new_w = graph.structures[e.dst].weq
        grabbed = (
            pullbacks_of(lat, e.at)
            if e.side == "right"
            else pushouts_of(lat, e.at)
        )
        base = model.weq | ArrowSet.of(lat, [e.at]) | ArrowSet.of(lat, grabbed)
        assert base <= new_w
        cands = [w for w in weqs if base <= w]
        minimal = [w for w in cands if not any(o < w for o in cands)]
        if not (len(minimal) == 1 and minimal[0] == new_w):
            plain += 1
        col = 1 if e.side == "right" else 0
        keep = model.fib.mask if e.side == "right" else model.cof.mask
        fitting = [
            w
            for w in cands
            if any(entry[col] == keep for entry in classes[w.mask])
        ]
        best = [w for w in fitting if not any(o < w for o in fitting)]
        if not (len(best) == 1 and best[0] == new_w):
            admissible += 1
            # the fixpoint can overshoot but never skips past the minimum
            assert len(best) == 1 and best[0] < new_w
    assert (plain, admissible) == MINIMALITY[name]


def test_smallest_weq_superset_of_single_arrows(corpus):
    for name in ("n5", "square", "chain3"):
        lat = corpus[name]
        for f in lat.arrows:
            found = smallest_weq_superset(lat, ArrowSet.of(lat, [f]))
            assert f in found


def test_smallest_weq_superset_can_be_ambiguous(grid21):
    base = ArrowSet.from_labels(grid21, [("(1,0)", "(1,1)")])
    with pytest.raises(AmbiguousMinimum):
        smallest_weq_superset(grid21, base)
    cands = [w for w in enumerate_weak_equivalence_sets(grid21) if base <= w]
    minimal = sorted(
        w.signature() for w in cands if not any(o < w for o in cands)
    )
    assert minimal == [
        "{(0,0)->(0,1), (1,0)->(1,1)}",
        "{(1,0)->(1,1), (2,0)->(2,1)}",
    ]
    for f in grid21.arrows:
        if grid21.arrow_name(f) != "(1,0)->(1,1)":
            smallest_weq_superset(grid21, ArrowSet.of(grid21, [f]))


def test_square_localizations_from_trivial_hit_smallest_supersets(square):
    trivial = derive_classes(ArrowSet.empty(square), ArrowSet.empty(square))
    for f in square.covers:
        lift = ArrowSet.of(square, [f])
        want_left = smallest_weq_superset(
            square, lift | ArrowSet.of(square, pushouts_of(square, f))
        )
        assert left_localize(trivial, f).weq == want_left
        want_right = smallest_weq_superset(
            square, lift | ArrowSet.of(square, pullbacks_of(square, f))
        )
        assert right_localize(trivial, f).weq == want_right


def against_least_localizations(lat):
    """Count the localizations that differ from the least localization.

    Returns (localizations, differing, cover localizations, differing
    cover localizations) over every model, arrow outside W and side.
    Each case must have exactly one least structure, and where the
    library differs its W' overshoots the least W.
    """
    counts = [0, 0, 0, 0]
    for model in enumerate_model_structures(lat):
        for f in lat.arrows:
            if f in model.weq:
                continue
            cover = f in lat.covers
            for side, localize in (("left", left_localize), ("right", right_localize)):
                least = least_localization(model, f, side)
                assert not isinstance(least, str), (model, f, side, least)
                got = localize(model, f)
                counts[0] += 1
                counts[2] += cover
                if got != least:
                    assert least.weq < got.weq
                    counts[1] += 1
                    counts[3] += cover
    return tuple(counts)


# Model counts of lattices whose localizations are all least: N5, chains,
# and the chain-union shapes 0 + (C_a1 + ... + C_ar) + 1.
LEAST_EVERYWHERE = {
    "n5": (n5, 70),
    "chain3": (lambda: chain(3), 35),
    "chain4": (lambda: chain(4), 126),
    "chain5": (lambda: chain(5), 462),
    **{
        "union" + "-".join(map(str, shape)): (
            lambda shape=shape: chain_union(*shape), count
        )
        for shape, count in [
            ((1, 1), 23),
            ((2, 1), 70),
            ((1, 1, 1), 52),
            ((1, 1, 1, 1), 125),
            ((2, 1, 1), 156),
            ((2, 2), 206),
            ((3, 1), 232),
            ((2, 2, 1), 468),
            ((3, 1, 1), 513),
        ]
    },
}


@pytest.mark.parametrize("name", LEAST_EVERYWHERE)
def test_localizations_are_least_localizations(name):
    build, count = LEAST_EVERYWHERE[name]
    lat = build()
    assert len(enumerate_model_structures(lat)) == count
    every, differing, covers, differing_covers = against_least_localizations(lat)
    assert every > covers > 0
    assert differing == differing_covers == 0


# (localizations, differing, at covers, differing at covers): W' is not
# always the least localization.
LEAST_MISSES = {
    "grid2x1": (1756, 22, 800, 12),
    "cube": (14268, 168, 7308, 108),
}


@pytest.mark.parametrize("name", sorted(LEAST_MISSES))
def test_localizations_that_miss_the_least_localization(name, grid21):
    lat = {"grid2x1": grid21, "cube": cube()}[name]
    assert against_least_localizations(lat) == LEAST_MISSES[name]


def test_least_localization_example_on_grid2x1(grid21):
    # W = AF = {(1,0)->(2,0)}, localized on the left at (0,0)->(1,0): the
    # library adds (0,1)->(2,1), the pushout of the new composite
    # (0,0)->(2,0), and then (1,1)->(2,1); the least localization does not.
    weq = ArrowSet.from_labels(grid21, [("(1,0)", "(2,0)")])
    model = derive_classes(weq, weq)
    f = grid21.arrow("(0,0)", "(1,0)")
    least = least_localization(model, f, "left")
    assert least.weq == ArrowSet.from_labels(
        grid21,
        [("(0,0)", "(1,0)"), ("(0,0)", "(2,0)"), ("(0,1)", "(1,1)"), ("(1,0)", "(2,0)")],
    )
    assert least.acyclic_fib == weq
    got = left_localize(model, f).weq
    assert got - least.weq == ArrowSet.from_labels(
        grid21, [("(0,1)", "(2,1)"), ("(1,1)", "(2,1)")]
    )


def test_least_localization_without_candidates(pentagon):
    models = enumerate_model_structures(pentagon)
    trivial = models[0]
    kept = {m.cof for m in models}
    singles = [ArrowSet.of(pentagon, [f]) for f in pentagon.arrows]
    stray = trivial._replace(cof=next(c for c in singles if c not in kept))
    assert least_localization(stray, pentagon.covers[0], "left") == "none"


REACH = {
    "n5": (70, True),
    "square": (23, True),
    "grid2x1": (167, False),
    "chain3": (35, True),
    "cube": (765, False),
}


@pytest.mark.parametrize("name", sorted(REACH))
def test_reachability_from_trivial(name, corpus):
    graph = localization_graph({**corpus, "cube": cube()}[name])
    count, connected = REACH[name]
    reach = reachable_from_trivial(graph)
    assert graph.trivial_index in reach
    assert len(reach) == count
    assert is_weakly_connected(graph) is connected


def naive_reach(graph, start, directed):
    # Relax every edge until nothing new is reached.
    seen = {start}
    grown = True
    while grown:
        grown = False
        for e in graph.edges:
            for a, b in ((e.src, e.dst), (e.dst, e.src))[: 1 if directed else 2]:
                if a in seen and b not in seen:
                    seen.add(b)
                    grown = True
    return frozenset(seen)


def assert_graph_walks_match_naive(graph):
    assert reachable_from_trivial(graph) == naive_reach(
        graph, graph.trivial_index, directed=True
    )
    assert is_weakly_connected(graph) == (
        len(naive_reach(graph, 0, directed=False)) == len(graph)
    )


def test_graph_walks_match_naive_search(corpus):
    for lat in (*corpus.values(), cube()):
        assert_graph_walks_match_naive(localization_graph(lat))


def test_graph_walks_on_hand_made_graphs():
    models = enumerate_model_structures(chain(2))[:5]
    f = chain(2).covers[0]

    def graph(pairs, trivial=0):
        edges = tuple(LocalizationEdge(a, b, "left", f) for a, b in pairs)
        return LocalizationGraph(models, edges, trivial)

    # 3 and 4 are unreachable from 0; 4 has no edges at all
    split = graph([(0, 1), (1, 2), (2, 1), (3, 1), (0, 1)])
    assert reachable_from_trivial(split) == {0, 1, 2}
    assert not is_weakly_connected(split)
    assert_graph_walks_match_naive(split)
    # linking 4 makes it weakly connected, yet only 0, 1, 2 stay reachable
    joined = graph([(0, 1), (1, 2), (3, 1), (4, 3)])
    assert reachable_from_trivial(joined) == {0, 1, 2}
    assert is_weakly_connected(joined)
    assert_graph_walks_match_naive(joined)
    assert_graph_walks_match_naive(graph([(1, 0), (2, 4)], trivial=2))
    # no structures at all: nothing is left apart
    assert is_weakly_connected(LocalizationGraph((), (), 0))


def test_singleton_lattice_graph():
    graph = localization_graph(chain(0))
    assert len(graph) == 1
    assert graph.edges == ()
    assert reachable_from_trivial(graph) == frozenset({0})
    assert is_weakly_connected(graph)
