import math
import random

import pytest

from latmod import (
    Arrow,
    ArrowSet,
    NotATransferSystem,
    chain,
    close_wide_decomposable,
    closed_sets,
    cotransfer_systems,
    is_cotransfer_system,
    is_saturated,
    is_transfer_system,
    llp_dual,
    n5,
    product,
    rlp_dual,
    singly_generated_transfers,
    tr_as_lattice,
    tr_join,
    tr_meet,
    transfer_catalog,
)
from latmod.arrows import _tables

from conftest import lattice_as_sets
from oracles import all_transfer_systems_naive, lex_key


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_n5_has_26_transfer_systems(pentagon):
    assert len(transfer_catalog(pentagon)) == 26


def test_chain_counts_are_catalan():
    for n in range(1, 5):
        assert len(transfer_catalog(chain(n))) == catalan(n + 1)


def test_catalog_matches_naive_filter(pentagon, square, grid21):
    for lat in (pentagon, square, grid21, chain(3)):
        n, leq, _, meets, _ = lattice_as_sets(lat)
        every = [(f.source, f.target) for f in lat.arrows]
        naive = {
            frozenset(s)
            for s in all_transfer_systems_naive(n, leq, meets, every)
        }
        ours = {
            frozenset((f.source, f.target) for f in s)
            for s in transfer_catalog(lat)
        }
        assert ours == naive


def test_cotransfer_systems_match_exhaustive_filter(corpus):
    for lat in corpus.values():
        every = [ArrowSet(lat, mask) for mask in range(1 << len(lat.arrows))]
        expected = [s for s in every if is_cotransfer_system(s)]
        expected.sort(key=lex_key)
        assert cotransfer_systems(lat) == tuple(expected)


def test_bounded_walk_is_the_filtered_list(pentagon, grid21):
    empty_by_closure = 0
    for lat in (pentagon, grid21):
        t = _tables(lat)
        m = len(lat.arrows)
        full = (1 << m) - 1
        rng = random.Random(23)
        for extend in (t.transfer, t.cotransfer, t.wide):
            every = [s.mask for s in closed_sets(lat, extend)]
            bounds = [(0, -1), (0, full), (full, full), (full, 0)]
            for _ in range(40):
                # around a closed set, so that many intervals are nonempty
                middle = rng.choice(every)
                lo = middle & rng.randrange(1 << m)
                hi = middle | rng.randrange(1 << m)
                bounds += [(lo, hi), (rng.randrange(1 << m), hi)]
            for lo, hi in bounds:
                expected = [s for s in every if not lo & ~s and not s & ~hi]
                got = [s.mask for s in closed_sets(lat, extend, lo, hi)]
                assert got == expected
                if not lo & ~hi and extend(0, lo) & ~hi:
                    assert got == []
                    empty_by_closure += 1
    # {0->A, A->C} misses its composite, so no transfer system lies in it.
    gap = ArrowSet.from_labels(pentagon, [("0", "A"), ("A", "C")]).mask
    extend = _tables(pentagon).transfer
    assert closed_sets(pentagon, extend, gap, gap) == ()
    assert empty_by_closure > 0


def kernels(lat):
    # Every closure kind's kernel, and a lambda, whose singles are cached
    # under the lambda object itself.
    t = _tables(lat)
    kinds = ("compose", "transfer", "cotransfer", "wide", "two_of_three")
    named = {kind: getattr(t, kind) for kind in kinds}
    named["lambda"] = lambda mask, new: close_wide_decomposable(
        ArrowSet(lat, mask | new)
    ).mask
    return named


def test_pruned_walk_is_the_brute_force_filter(corpus):
    # Every closed set S with lo <= S <= hi, that is extend(0, S) == S, in
    # canonical order, for each kernel on each corpus lattice of at most 12
    # arrows: with the default bounds and a few intervals.
    rng = random.Random(26)
    checked = 0
    for lat in corpus.values():
        m = len(lat.arrows)
        if m > 12:
            continue
        full = (1 << m) - 1
        for name, extend in kernels(lat).items():
            closed = sorted(
                (ArrowSet(lat, s) for s in range(1 << m) if extend(0, s) == s),
                key=lex_key,
            )
            bounds = [(0, -1), (full, full), (0, 0)]
            for _ in range(3):
                # around a closed set, so that the interval is nonempty
                middle = rng.choice(closed).mask
                lo = middle & rng.randrange(1 << m)
                bounds.append((lo, middle | rng.randrange(1 << m)))
            for lo, hi in bounds:
                want = tuple(
                    s for s in closed if not lo & ~s.mask and not s.mask & ~hi
                )
                assert closed_sets(lat, extend, lo, hi) == want, (name, lo, hi)
                checked += 1
    assert checked == 6 * 6 * 6


def counted_walk(lat, extend):
    # Kernel calls of one walk, through a fresh wrapper, so its singles are
    # computed (and counted) too.
    calls = 0

    def counting(mask, new):
        nonlocal calls
        calls += 1
        return extend(mask, new)

    return len(closed_sets(lat, counting)), calls


def test_pruned_walk_calls_the_kernel_a_pinned_number_of_times(grid21):
    # With the m singles counted.  Unpruned, the transfer walks took 1,903
    # calls on the cube and 225 on grid2x1.  The cotransfer walk rises from
    # 737: a single cotransfer closure adds pushouts, whose sources lie
    # above the arrow's, so it holds only later arrows in canonical order.
    # With the default bounds none of those is excluded yet, so it prunes
    # nothing and the singles are 19 extra calls.
    cube = product(product(chain(1), chain(1)), chain(1))
    assert counted_walk(cube, _tables(cube).transfer) == (450, 683)
    assert counted_walk(cube, _tables(cube).cotransfer) == (450, 756)
    assert counted_walk(grid21, _tables(grid21).transfer) == (68, 113)


def test_catalog_is_sorted_and_containment_consistent(pentagon):
    catalog = transfer_catalog(pentagon)
    keys = [lex_key(s) for s in catalog]
    assert keys == sorted(keys)
    # catalog order refines containment
    for i, a in enumerate(catalog):
        for j, b in enumerate(catalog):
            if a < b:
                assert i < j
    assert catalog[0].mask == 0
    assert len(catalog[-1]) == len(pentagon.arrows)


def test_catalog_membership_api(pentagon):
    catalog = transfer_catalog(pentagon)
    empty = ArrowSet.empty(pentagon)
    assert empty in catalog
    assert catalog.position(empty) == 0
    not_closed = ArrowSet.from_labels(pentagon, [("0", "1")])
    assert not_closed not in catalog
    with pytest.raises(NotATransferSystem):
        catalog.position(not_closed)


@pytest.mark.parametrize(
    "thing", [None, 5, "a", Arrow(0, 1)], ids=["None", "int", "str", "arrow"]
)
def test_catalog_refuses_what_is_not_an_arrow_set(pentagon, thing):
    # As ArrowSet.__contains__ answers False for a non-arrow, a catalog
    # holds nothing that is not an arrow set, and has no position for it.
    catalog = transfer_catalog(pentagon)
    assert thing not in catalog
    with pytest.raises(NotATransferSystem, match="is not an arrow set"):
        catalog.position(thing)


def test_catalog_refuses_another_lattices_sets():
    # Two separately built N5s are different lattices: a system of one is
    # no member of the other's catalog, and the catalog's lattice
    # operations refuse it as every mix of lattices is refused.
    catalog = transfer_catalog(n5())
    own, foreign = catalog[3], transfer_catalog(n5())[3]
    assert own.mask == foreign.mask
    assert own in catalog
    assert foreign not in catalog
    with pytest.raises(ValueError, match="different lattices"):
        catalog.position(foreign)
    for op in (tr_meet, tr_join):
        for a, b in ((own, foreign), (foreign, own), (foreign, foreign)):
            with pytest.raises(ValueError, match="different lattices"):
                op(catalog, a, b)


def test_duality_bijection(pentagon):
    transfers = transfer_catalog(pentagon)
    cotransfers = cotransfer_systems(pentagon)
    assert len(transfers) == len(cotransfers) == 26
    comasks = {s.mask for s in cotransfers}
    seen = set()
    for t in transfers:
        image = llp_dual(t)
        assert image.mask in comasks
        assert rlp_dual(image).mask == t.mask
        seen.add(image.mask)
    assert seen == comasks


def test_meet_is_intersection_join_is_generation(pentagon):
    catalog = transfer_catalog(pentagon)
    for a in catalog:
        for b in catalog:
            met = tr_meet(catalog, a, b)
            assert met.mask == a.mask & b.mask
            joined = tr_join(catalog, a, b)
            assert a <= joined and b <= joined
            assert is_transfer_system(joined)
            # nothing between the union and the join
            for c in catalog:
                if (a | b) <= c and c <= joined:
                    assert c.mask == joined.mask or not (c < joined)


def test_meet_join_reject_non_members(pentagon):
    catalog = transfer_catalog(pentagon)
    bogus = ArrowSet.from_labels(pentagon, [("0", "1")])
    with pytest.raises(NotATransferSystem):
        tr_meet(catalog, bogus, catalog[0])
    with pytest.raises(NotATransferSystem):
        tr_join(catalog, catalog[0], bogus)


def test_transfer_lattice_shape(pentagon):
    lat = tr_as_lattice(transfer_catalog(pentagon))
    assert lat.n == 26
    assert lat.labels[0] == "{}"
    assert lat.labels[-1].count("->") == 8


def test_transfer_lattice_of_chain_is_tamari_sized():
    lat = tr_as_lattice(transfer_catalog(chain(3)))
    assert lat.n == 14


def test_singly_generated_systems(pentagon):
    pairs = singly_generated_transfers(pentagon)
    assert len(pairs) == 8
    table = {
        pentagon.arrow_name(f): system.signature() for f, system in pairs
    }
    assert table == {
        "0->A": "{0->A}",
        "0->B": "{0->B}",
        "0->C": "{0->A, 0->C}",
        "0->1": "{0->A, 0->B, 0->C, 0->1}",
        "A->C": "{A->C}",
        "A->1": "{0->B, A->C, A->1}",
        "B->1": "{0->A, 0->C, B->1}",
        "C->1": "{0->B, C->1}",
    }
    catalog = transfer_catalog(pentagon)
    for _, system in pairs:
        assert system in catalog


def test_singly_generated_join_closure_regenerates_catalog(pentagon):
    catalog = transfer_catalog(pentagon)
    closed = {0} | {s.mask for _, s in singly_generated_transfers(pentagon)}
    while True:
        fresh = set()
        for a in closed:
            for b in closed:
                j = tr_join(
                    catalog, ArrowSet(pentagon, a), ArrowSet(pentagon, b)
                ).mask
                if j not in closed:
                    fresh.add(j)
        if not fresh:
            break
        closed |= fresh
    assert closed == {s.mask for s in catalog}


def test_saturation(pentagon):
    catalog = transfer_catalog(pentagon)
    saturated = [s for s in catalog if is_saturated(s)]
    assert len(saturated) == 13
    assert ArrowSet.empty(pentagon) in saturated
    assert ArrowSet.full(pentagon) in saturated
    with pytest.raises(NotATransferSystem):
        is_saturated(ArrowSet.from_labels(pentagon, [("0", "1")]))
