"""Closure laws and structure theorems checked over randomized families.

Everything here is seeded; a failure reproduces exactly.
"""
import random

import pytest

from latmod import (
    ArrowSet,
    build_lattice,
    close_composition,
    close_pullback,
    close_pushout,
    close_two_out_of_three,
    close_wide_decomposable,
    find_sublattice_embedding,
    generate_transfer,
    is_cotransfer_system,
    is_modular,
    is_transfer_system,
    llp_dual,
    n5,
    pullbacks_of,
    pushouts_of,
    rlp_dual,
    transfer_catalog,
)
from latmod.errors import NotALattice

from conftest import lattice_as_sets
from oracles import retract_close

CLOSURES = (
    close_composition,
    close_pullback,
    close_pushout,
    close_two_out_of_three,
    close_wide_decomposable,
)


def random_masks(lat, count, seed):
    rng = random.Random(seed)
    return [rng.randrange(1 << len(lat.arrows)) for _ in range(count)]


def test_closures_are_idempotent_and_extensive(pentagon, grid21):
    for lat in (pentagon, grid21):
        for mask in random_masks(lat, 1000, seed=11):
            aset = ArrowSet(lat, mask)
            for close in CLOSURES:
                once = close(aset)
                assert aset <= once
                assert close(once) == once


def test_closures_are_monotone(pentagon, grid21):
    for lat in (pentagon, grid21):
        masks = random_masks(lat, 1000, seed=13)
        rng = random.Random(17)
        for mask in masks:
            small = ArrowSet(lat, mask)
            large = small | ArrowSet(lat, rng.randrange(1 << len(lat.arrows)))
            for close in CLOSURES:
                assert close(small) <= close(large)


def test_retract_closure_is_the_identity(pentagon, grid21):
    # a retract diagram a -> x -> a in a poset forces a = x, so retracts
    # add nothing and no class needs a retract check
    for lat in (pentagon, grid21):
        n, leq, _, _, _ = lattice_as_sets(lat)
        for mask in random_masks(lat, 1000, seed=19):
            pairs = frozenset((f.source, f.target) for f in ArrowSet(lat, mask))
            assert retract_close(n, leq, pairs) == pairs


def test_generate_transfer_is_the_intersection_of_supersets(pentagon):
    catalog = transfer_catalog(pentagon)
    for mask in range(256):
        aset = ArrowSet(pentagon, mask)
        meet_mask = (1 << 8) - 1
        for system in catalog:
            if aset <= system:
                meet_mask &= system.mask
        assert generate_transfer(aset).mask == meet_mask


def test_lifting_duals_land_in_the_expected_families(pentagon, grid21):
    for lat in (pentagon, grid21):
        for mask in random_masks(lat, 200, seed=23):
            aset = ArrowSet(lat, mask)
            assert is_transfer_system(rlp_dual(aset))
            assert is_cotransfer_system(llp_dual(aset))


def every_five_element_lattice():
    """All transitive order relations on 0 < ... < 4 that form a lattice.

    Seven relation sets arise: the chain, the diamond, the square with a
    tail on either end, and the pentagon in its three linear extensions.
    """
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    found = []
    for bits in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if bits >> k & 1}
        if any(
            (a, c) not in rel
            for a, b in rel
            for b2, c in rel
            if b == b2
        ):
            continue
        covers = [
            (i, j)
            for i, j in rel
            if not any(
                (i, k) in rel and (k, j) in rel for k in range(i + 1, j)
            )
        ]
        try:
            found.append(
                build_lattice(
                    [str(x) for x in range(5)],
                    [(str(a), str(b)) for a, b in covers],
                )
            )
        except NotALattice:
            continue
    return found


def short_transfers_stay_short(lat):
    return all(
        g in lat.covers
        for f in lat.covers
        for moved in (pushouts_of(lat, f), pullbacks_of(lat, f))
        for g in moved
    )


def test_modularity_matches_short_pushout_behaviour(corpus):
    for lat in corpus.values():
        assert is_modular(lat) == short_transfers_stay_short(lat)


def test_modularity_on_all_five_element_lattices():
    lattices = every_five_element_lattice()
    assert len(lattices) == 5 + 2  # pentagon shows up three times
    pentagon = n5()
    seen_modular = 0
    for lat in lattices:
        modular = is_modular(lat)
        seen_modular += modular
        assert modular == short_transfers_stay_short(lat)
        assert modular == (find_sublattice_embedding(lat, pentagon) is None)
    assert seen_modular == 4
