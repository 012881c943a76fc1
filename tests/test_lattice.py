import gc
import random
import weakref

import pytest

from latmod import (
    Arrow,
    CycleError,
    DuplicateLabel,
    NotALattice,
    UnknownLabel,
    af_interval,
    build_lattice,
    chain,
    cotransfer_systems,
    enumerate_short_factorizations,
    enumerate_weak_equivalence_sets,
    find_sublattice_embedding,
    is_modular,
    localization_graph,
    n5,
    product,
    pullbacks_of,
    pushouts_of,
)
from latmod.lattice import containment_rows, hasse_covers

from conftest import chain_union, lattice_as_sets
from oracles import (
    contains_pentagon,
    hasse_covers_pairs,
    naive_covers,
    naive_is_modular,
    naive_join,
    naive_meet,
)


def test_n5_shape(pentagon):
    assert pentagon.labels == ("0", "A", "B", "C", "1")
    assert pentagon.bottom == 0
    assert pentagon.top == 4
    names = [pentagon.arrow_name(c) for c in pentagon.covers]
    assert names == ["0->A", "0->B", "A->C", "B->1", "C->1"]
    assert len(pentagon.arrows) == 8


def test_indexing_is_a_linear_extension():
    # scrambled input order must still index every element above its
    # predecessors
    lat = build_lattice(
        ["1", "C", "B", "A", "0"],
        [("0", "A"), ("0", "B"), ("A", "C"), ("B", "1"), ("C", "1")],
    )
    for x in range(lat.n):
        for y in range(lat.n):
            if lat.le(x, y) and x != y:
                assert x < y
    # ties broken by input position: B comes before A in the input above
    assert lat.labels == ("0", "B", "A", "C", "1")


def test_meet_join_match_oracle(corpus):
    for lat in corpus.values():
        n, leq, _, _, _ = lattice_as_sets(lat)
        for x in range(n):
            for y in range(n):
                assert lat.meet(x, y) == naive_meet(n, leq, x, y)
                assert lat.join(x, y) == naive_join(n, leq, x, y)


def test_covers_match_oracle(corpus):
    for lat in corpus.values():
        n, leq, covers, _, _ = lattice_as_sets(lat)
        assert covers == naive_covers(n, leq)


def test_element_covers_are_the_all_pairs_covers(corpus):
    # FiniteLattice.covers comes from the rows up[x] without x; the oracle
    # compares every pair with le.
    for lat in (*corpus.values(), n5(), chain(0), chain_union(1, 2, 3),
                product(product(chain(1), chain(2)), chain(1))):
        want = hasse_covers_pairs(range(lat.n), lat.le)
        assert [tuple(c) for c in lat.covers] == want


def test_containment_covers_are_the_all_pairs_covers():
    # Random families of distinct masks in increasing order, a linear
    # extension of containment: the same pairs, in the same order.
    def subset(a, b):
        return not a & ~b

    rng = random.Random(8191)
    for width in (0, 1, 3, 6, 10, 16):
        for size in (0, 1, 2, 5, 20, 60):
            masks = sorted(set(rng.getrandbits(width) for _ in range(size)))
            rows = containment_rows(masks)
            assert hasse_covers(rows) == hasse_covers_pairs(masks, subset)
    # Every subset of a 4-set: the covers add one element.
    masks = list(range(16))
    assert hasse_covers(containment_rows(masks)) == [
        (i, i | 1 << b) for i in masks for b in range(4) if not i >> b & 1
    ]


def test_modularity_matches_oracle(corpus):
    for name, lat in corpus.items():
        n, leq, _, _, _ = lattice_as_sets(lat)
        assert is_modular(lat) == naive_is_modular(n, leq), name
        assert is_modular(lat) == (not contains_pentagon(n, leq)), name
    assert not is_modular(corpus["n5"])
    assert is_modular(corpus["square"])


def test_duplicate_label_rejected():
    with pytest.raises(DuplicateLabel):
        build_lattice(["a", "a"], [("a", "a")])


def test_unknown_cover_label_rejected():
    with pytest.raises(UnknownLabel):
        build_lattice(["a", "b"], [("a", "z")])


def test_cycle_rejected():
    with pytest.raises(CycleError):
        build_lattice(["a", "b"], [("a", "b"), ("b", "a")])


def test_non_lattice_rejected():
    with pytest.raises(NotALattice):
        build_lattice([], [])
    # two maximal elements have no join
    with pytest.raises(NotALattice):
        build_lattice(["0", "a", "b"], [("0", "a"), ("0", "b")])
    # the bowtie: two bottoms under two tops
    with pytest.raises(NotALattice):
        build_lattice(
            ["a", "b", "c", "d"],
            [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
        )


def test_arrow_resolution(pentagon):
    f = pentagon.arrow("0", "A")
    assert f == Arrow(0, 1)
    assert pentagon.arrow_name(f) == "0->A"
    with pytest.raises(UnknownLabel):
        pentagon.arrow("A", "B")  # incomparable
    with pytest.raises(UnknownLabel):
        pentagon.arrow("A", "A")  # identity
    with pytest.raises(UnknownLabel):
        pentagon.arrow("A", "0")  # wrong direction
    with pytest.raises(UnknownLabel):
        pentagon.arrow("A", "zzz")


def test_product_labels_and_size():
    sq = product(chain(1), chain(1))
    assert sq.n == 4
    assert sq.labels == ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
    g = product(chain(2), chain(1))
    assert g.n == 6
    assert len(g.covers) == 7
    assert len(g.arrows) == 12


def test_chain_structure():
    c = chain(3)
    assert c.n == 4
    assert len(c.covers) == 3
    assert len(c.arrows) == 6
    assert is_modular(c)


def test_pushout_of_cover_in_modular_lattice_is_cover(square):
    for f in square.covers:
        for g in pushouts_of(square, f):
            assert g in square.covers


def test_pushouts_pullbacks_exclude_self_and_identities(pentagon):
    for f in pentagon.arrows:
        for g in pushouts_of(pentagon, f) | pullbacks_of(pentagon, f):
            assert g != f
            assert g.source != g.target


def test_pushout_pullback_duality(pentagon):
    # relabelling N5 upside down swaps the two constructions
    flipped = build_lattice(
        ["1", "C", "B", "A", "0"],
        [("A", "0"), ("B", "0"), ("C", "A"), ("1", "B"), ("1", "C")],
    )

    def flip(f):
        s = flipped.index_of(pentagon.labels[f.target])
        t = flipped.index_of(pentagon.labels[f.source])
        return Arrow(s, t)

    for f in pentagon.arrows:
        assert {flip(g) for g in pushouts_of(pentagon, f)} == pullbacks_of(
            flipped, flip(f)
        )


def test_short_factorizations_n5(pentagon):
    top = pentagon.arrow("0", "1")
    chains = enumerate_short_factorizations(pentagon, top)
    names = [
        [pentagon.arrow_name(step) for step in factorization]
        for factorization in chains
    ]
    assert names == [["0->A", "A->C", "C->1"], ["0->B", "B->1"]]
    single = enumerate_short_factorizations(pentagon, pentagon.arrow("A", "C"))
    assert single == [(pentagon.arrow("A", "C"),)]
    with pytest.raises(NotALattice):
        enumerate_short_factorizations(pentagon, Arrow(2, 2))


@pytest.mark.parametrize(
    "f",
    [(1, 2), (3, 0), (99, 0), "ab", None],
    ids=["incomparable", "reversed", "no-such-element", "string", "none"],
)
@pytest.mark.parametrize(
    "build",
    [pushouts_of, pullbacks_of, enumerate_short_factorizations],
    ids=lambda build: build.__name__,
)
def test_an_argument_naming_no_arrow_is_refused_like_arrow_index(
    pentagon, build, f
):
    with pytest.raises(UnknownLabel) as expected:
        pentagon.arrow_index(f)
    with pytest.raises(UnknownLabel) as refused:
        build(pentagon, f)
    assert str(refused.value) == str(expected.value)


def test_find_pentagon_embeddings(pentagon, square, grid21):
    assert find_sublattice_embedding(pentagon, pentagon) == (0, 1, 2, 3, 4)
    assert find_sublattice_embedding(square, pentagon) is None
    assert find_sublattice_embedding(grid21, pentagon) is None
    assert find_sublattice_embedding(chain(4), pentagon) is None


def test_embedding_respects_meets_and_joins(pentagon):
    # a diamond embeds into the square but not into a chain
    diamond = product(chain(1), chain(1))
    emb = find_sublattice_embedding(pentagon, chain(1))
    assert emb is not None
    assert find_sublattice_embedding(chain(5), diamond) is None


def test_computed_tables_are_freed_with_the_lattice():
    lat = product(chain(2), chain(1))
    graph = localization_graph(lat)
    weq = enumerate_weak_equivalence_sets(lat)[-1]
    interval = af_interval(weq)
    cotransfers = cotransfer_systems(lat)
    ref = weakref.ref(lat)
    del lat, graph, weq, interval, cotransfers
    gc.collect()
    assert ref() is None
