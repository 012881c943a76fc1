import copy
import pickle
import random

import pytest

from latmod import (
    Arrow,
    ArrowSet,
    UnknownLabel,
    chain,
    closed_sets,
    close_composition,
    close_pullback,
    close_pushout,
    close_two_out_of_three,
    close_wide_decomposable,
    compose_sets,
    derive_classes,
    generate_cotransfer,
    generate_transfer,
    is_composition_closed,
    is_cotransfer_system,
    is_transfer_system,
    is_weak_equivalence_set,
    is_wide_decomposable,
    k_max,
    llp_dual,
    n5,
    product,
    rlp_dual,
    t_max,
    weq_components,
)
from latmod.arrows import _llp, _rlp, _tables

from conftest import lattice_as_sets
from oracles import (
    all_transfer_systems_naive,
    compose_close,
    generated_transfer_by_intersection,
    naive_llp,
    naive_rlp,
    pullback_close,
    pushout_close,
    two_of_three_closed,
    two_of_three_pass,
    two_out_of_three_close,
    wide_decomposable_close,
)


def pairs_of(aset):
    return frozenset((f.source, f.target) for f in aset)


def from_pairs(lat, pairs):
    return ArrowSet.of(lat, [Arrow(s, t) for s, t in pairs])


def all_subsets(lat):
    m = len(lat.arrows)
    for mask in range(1 << m):
        yield ArrowSet(lat, mask)


# ---------------------------------------------------------------------------
# container behaviour


def test_set_operations(pentagon):
    a = ArrowSet.from_labels(pentagon, [("0", "A"), ("0", "B")])
    b = ArrowSet.from_labels(pentagon, [("0", "B"), ("C", "1")])
    assert len(a | b) == 3
    assert (a & b).label_pairs() == [["0", "B"]]
    assert (a - b).label_pairs() == [["0", "A"]]
    assert a & b <= a
    assert a & b < a
    assert not (a < a)
    assert pentagon.arrow("0", "A") in a
    assert pentagon.arrow("C", "1") not in a
    assert list(a)[0] == pentagon.arrow("0", "A")
    assert ArrowSet.empty(pentagon).signature() == "{}"
    assert not ArrowSet.empty(pentagon)
    assert len(ArrowSet.full(pentagon)) == 8


def test_signature_follows_canonical_order(pentagon):
    a = ArrowSet.from_labels(pentagon, [("C", "1"), ("0", "A")])
    assert a.signature() == "{0->A, C->1}"


def test_members_may_be_arrows_tuples_or_lists(pentagon):
    # Every ordered pair of elements, as an Arrow where it is one, as a
    # tuple and as a list; membership must read the mask bit, and a pair
    # that is no arrow of the lattice is never a member.
    rng = random.Random(8)
    pos = pentagon.arrow_position
    sets = [ArrowSet(pentagon, rng.randrange(1 << 8)) for _ in range(20)]
    sets += [ArrowSet.empty(pentagon), ArrowSet.full(pentagon)]
    for aset in sets:
        for s in range(pentagon.n):
            for t in range(pentagon.n):
                k = pos.get((s, t))
                expected = k is not None and bool(aset.mask >> k & 1)
                forms = [(s, t), [s, t]]
                if k is not None:
                    forms.append(Arrow(s, t))
                for f in forms:
                    assert (f in aset) is expected
        members = list(aset)
        for forms in (members, map(tuple, members), map(list, members)):
            assert ArrowSet.of(pentagon, forms).mask == aset.mask
    assert (0, 5) not in ArrowSet.full(pentagon)
    assert (0, 1, 2) not in ArrowSet.full(pentagon)
    with pytest.raises(UnknownLabel, match="'A' -> '0' is not a relation"):
        ArrowSet.of(pentagon, [(1, 0)])


@pytest.mark.parametrize("value", [None, 5, "ab", (0, 1, 2)])
def test_values_that_are_no_pair_of_indices_are_not_members(pentagon, value):
    # The same answer as for a pair that names no arrow, not a TypeError.
    for aset in (ArrowSet.empty(pentagon), ArrowSet.full(pentagon)):
        assert (value in aset) is False


def test_arrow_sets_are_immutable_slotted_records(pentagon):
    a = ArrowSet(pentagon, 0b1011)
    for name in ("lattice", "mask", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a.mask == 0b1011 and a.lattice is pentagon
    b = ArrowSet(pentagon, 0b1011)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != ArrowSet(pentagon, 0b1010)
    assert a != ArrowSet(n5(), 0b1011)
    assert a != (pentagon, 0b1011)
    assert copy.copy(a) == a
    assert not hasattr(a, "__dict__")
    assert repr(a) == "ArrowSet({0->A, 0->B, 0->1})"


def test_cross_lattice_mixing_rejected(pentagon):
    other = n5()
    with pytest.raises(ValueError):
        ArrowSet.empty(pentagon) | ArrowSet.empty(other)


# ---------------------------------------------------------------------------
# closures against the naive oracles


def assert_closures_match_oracles(lat, aset):
    n, leq, _, meets, joins = lattice_as_sets(lat)
    pairs = pairs_of(aset)
    pulled = pullback_close(n, leq, meets, pairs)
    pushed = pushout_close(n, leq, joins, pairs)
    assert pairs_of(close_composition(aset)) == compose_close(leq, pairs)
    assert pairs_of(close_pullback(aset)) == pulled
    assert pairs_of(close_pushout(aset)) == pushed
    assert pairs_of(close_two_out_of_three(aset)) == two_out_of_three_close(
        n, leq, pairs
    )
    assert pairs_of(generate_transfer(aset)) == compose_close(leq, pulled)
    assert pairs_of(generate_cotransfer(aset)) == compose_close(leq, pushed)
    assert pairs_of(close_wide_decomposable(aset)) == wide_decomposable_close(
        n, leq, pairs
    )


def test_closures_match_oracle_on_all_n5_subsets(pentagon):
    for aset in all_subsets(pentagon):
        assert_closures_match_oracles(pentagon, aset)


def test_closures_match_oracle_on_random_grid_subsets(grid21):
    rng = random.Random(20240817)
    m = len(grid21.arrows)
    for _ in range(120):
        assert_closures_match_oracles(grid21, ArrowSet(grid21, rng.randrange(1 << m)))


def test_extending_a_closed_set_by_one_arrow_is_the_closure_from_zero(corpus):
    # The contract closed_sets relies on: from a closed S, the kernel with
    # one new arrow reaches the closure from 0 of S and that arrow.
    cube = product(product(chain(1), chain(1)), chain(1))
    for lat in (*corpus.values(), cube):
        t = _tables(lat)
        for extend in (t.transfer, t.cotransfer, t.wide, t.two_of_three):
            for s in closed_sets(lat, extend):
                assert extend(0, s.mask) == s.mask
                for i in range(len(lat.arrows)):
                    grown = extend(s.mask, 1 << i)
                    assert grown == extend(0, s.mask | 1 << i)


def test_two_out_of_three_worked_example(pentagon):
    start = ArrowSet.from_labels(pentagon, [("0", "A"), ("A", "1")])
    assert close_two_out_of_three(start).signature() == "{0->A, 0->1, A->1}"


def test_wide_decomposable_closure_fixes_exactly_the_candidates(
    pentagon, grid21
):
    for lat in (pentagon, grid21):
        for mask in range(1 << len(lat.arrows)):
            aset = ArrowSet(lat, mask)
            fixed = close_wide_decomposable(aset).mask == mask
            assert fixed == (
                is_composition_closed(aset) and is_wide_decomposable(aset)
            )


@pytest.mark.parametrize(
    "pair, message",
    [
        ((1, 2), "'A' -> 'B' is not a relation"),
        ((0, 0), "identity '0' -> '0' is not an arrow"),
        ((0, 9), "no element with index 9"),
        ("ab", "no element with index 'a'"),
    ],
    ids=["incomparable", "identity", "no-element", "not-indices"],
)
def test_of_refuses_a_pair_that_names_no_arrow(pentagon, pair, message):
    with pytest.raises(UnknownLabel) as err:
        ArrowSet.of(pentagon, [(0, 1), pair])
    assert str(err.value) == message


def test_compose_sets_semantics(pentagon):
    lower = ArrowSet.from_labels(pentagon, [("0", "A")])
    upper = ArrowSet.from_labels(pentagon, [("A", "C")])
    out = compose_sets(upper, lower)
    # composites plus both inputs via identity legs
    assert out.signature() == "{0->A, 0->C, A->C}"
    assert compose_sets(upper, ArrowSet.empty(pentagon)).mask == upper.mask


def test_lifting_matches_oracle_on_all_n5_subsets(pentagon):
    n, leq, _, _, _ = lattice_as_sets(pentagon)
    every = [(f.source, f.target) for f in pentagon.arrows]
    for aset in all_subsets(pentagon):
        pairs = pairs_of(aset)
        assert pairs_of(llp_dual(aset)) == naive_llp(every, leq, pairs)
        assert pairs_of(rlp_dual(aset)) == naive_rlp(every, leq, pairs)


def test_lifting_against_everything_is_empty(pentagon, square, grid21):
    # no non-identity arrow lifts against itself
    for lat in (pentagon, square, grid21):
        assert llp_dual(ArrowSet.full(lat)).mask == 0
        assert rlp_dual(ArrowSet.full(lat)).mask == 0
        assert llp_dual(ArrowSet.empty(lat)).mask == ArrowSet.full(lat).mask
        assert rlp_dual(ArrowSet.empty(lat)).mask == ArrowSet.full(lat).mask


def test_lifting_example(pentagon):
    single = ArrowSet.from_labels(pentagon, [("A", "C")])
    assert (
        llp_dual(single).signature() == "{0->A, 0->B, 0->1, A->1, B->1, C->1}"
    )


def test_lifting_antitone_and_galois(pentagon):
    rng = random.Random(99)
    for _ in range(200):
        small = ArrowSet(pentagon, rng.randrange(256))
        big = small | ArrowSet(pentagon, rng.randrange(256))
        assert llp_dual(big) <= llp_dual(small)
        assert rlp_dual(big) <= rlp_dual(small)
        assert small <= llp_dual(rlp_dual(small))
        assert small <= rlp_dual(llp_dual(small))
        assert (
            llp_dual(rlp_dual(llp_dual(small))).mask == llp_dual(small).mask
        )


def test_rlp_output_is_transfer_llp_output_is_cotransfer(pentagon, grid21):
    # right lifting classes are pullback- and composition-closed
    for lat in (pentagon, grid21):
        rng = random.Random(5)
        m = len(lat.arrows)
        for _ in range(100):
            aset = ArrowSet(lat, rng.randrange(1 << m))
            assert is_transfer_system(rlp_dual(aset))
            assert is_cotransfer_system(llp_dual(aset))


def test_predicates_match_oracle_on_all_n5_subsets(pentagon):
    n, leq, _, meets, joins = lattice_as_sets(pentagon)
    for aset in all_subsets(pentagon):
        pairs = pairs_of(aset)
        assert is_composition_closed(aset) == (
            compose_close(leq, pairs) == pairs
        )
        expected_transfer = (
            compose_close(leq, pairs) == pairs
            and pullback_close(n, leq, meets, pairs) == pairs
        )
        assert is_transfer_system(aset) == expected_transfer
        expected_cotransfer = (
            compose_close(leq, pairs) == pairs
            and pushout_close(n, leq, joins, pairs) == pairs
        )
        assert is_cotransfer_system(aset) == expected_cotransfer


def test_decomposable_predicate(pentagon):
    # {0->1} alone is not decomposable: its factor legs are missing
    assert not is_wide_decomposable(
        ArrowSet.from_labels(pentagon, [("0", "1")])
    )
    assert is_wide_decomposable(
        ArrowSet.from_labels(pentagon, [("0", "A"), ("A", "C"), ("0", "C")])
    )
    assert is_wide_decomposable(ArrowSet.empty(pentagon))
    assert is_wide_decomposable(ArrowSet.full(pentagon))


def test_generate_transfer_matches_intersection_oracle(pentagon):
    n, leq, _, meets, _ = lattice_as_sets(pentagon)
    every = [(f.source, f.target) for f in pentagon.arrows]
    catalog = all_transfer_systems_naive(n, leq, meets, every)
    for aset in all_subsets(pentagon):
        expected = generated_transfer_by_intersection(catalog, pairs_of(aset))
        assert expected is not None
        assert pairs_of(generate_transfer(aset)) == expected


def test_one_arrow_generates_itself_and_its_pullbacks(corpus):
    # Two nontrivial pullbacks (pushouts) of f never compose, so one pass
    # of pullbacks (pushouts) is the whole system f generates.
    cube = product(product(chain(1), chain(1)), chain(1))
    for lat in (*corpus.values(), cube):
        n, leq, _, meets, joins = lattice_as_sets(lat)
        for f in lat.arrows:
            x, y = f
            below = [z for z in range(n) if (z, y) in leq]
            above = [z for z in range(n) if (x, z) in leq]
            pulls = {(meets[x][z], z) for z in below if meets[x][z] != z}
            pushes = {(z, joins[z][y]) for z in above if joins[z][y] != z}
            one = ArrowSet.of(lat, [f])
            assert pairs_of(generate_transfer(one)) == {(x, y)} | pulls
            assert pairs_of(generate_cotransfer(one)) == {(x, y)} | pushes


def test_closure_idempotence_and_extensiveness(pentagon, grid21):
    closures = (
        close_composition,
        close_pullback,
        close_pushout,
        close_two_out_of_three,
    )
    for lat in (pentagon, grid21):
        rng = random.Random(31337)
        m = len(lat.arrows)
        for _ in range(150):
            aset = ArrowSet(lat, rng.randrange(1 << m))
            for close in closures:
                once = close(aset)
                assert aset <= once
                assert close(once).mask == once.mask


def test_pullback_and_pushout_tables_are_closed_under_themselves(corpus):
    # close_pullback and close_pushout make one pass over these rows; that
    # is the closure only because a pullback (pushout) of a pullback
    # (pushout) of f is again one of f, or f itself.
    extra = [product(chain(3), chain(1)), product(chain(2), chain(2)), chain(7)]
    for lat in (*corpus.values(), *extra):
        t = _tables(lat)
        for rows in (t.pull, t.push):
            for i, row in enumerate(rows):
                for j in range(len(lat.arrows)):
                    if row >> j & 1:
                        assert rows[j] & ~(row | 1 << i) == 0


def role_union(t, mask):
    # The union of the role rows over mask, from their definition: bit
    # 3t + p when mask holds place p (first leg, second leg, composite) of
    # triangle t.
    return sum(
        1 << 3 * i + place
        for i, triple in enumerate(t.triples)
        for place, bit in enumerate(triple)
        if mask & bit
    )


def naive_dual(naive, pairs, leq, mask):
    # The lifting dual of mask as a mask, from a pair-set oracle over the
    # lattice's arrow pairs in canonical order.
    against = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
    dual = naive(pairs, leq, against)
    return sum(1 << i for i, p in enumerate(pairs) if p in dual)


@pytest.mark.parametrize("table", ["kill_llp", "kill_rlp", "roles"])
def test_byte_tables_match_the_row_unions(corpus, table):
    # Each column of lift_chunks against an oracle: the llp and rlp
    # columns (built from the kill_llp and kill_rlp rows) as intersections
    # through naive_llp and naive_rlp, the roles as a union from the
    # triples.  The chunks are balanced, at most 12 bits wide: one on
    # grid2x1 (12 arrows), two on chain5 (15) and the cube (19), three on
    # grid2x2 (27), none on the one-element lattice.
    lattices = [
        *corpus.values(),
        chain(5),
        product(product(chain(1), chain(1)), chain(1)),
        product(chain(2), chain(2)),
        chain(0),
    ]
    named = [corpus["grid2x1"], *lattices[-4:]]
    assert [len(lat.arrows) for lat in named] == [12, 15, 19, 27, 0]
    rng = random.Random(2718)
    column = ["kill_llp", "kill_rlp", "roles"].index(table) + 1
    for lat in lattices:
        t = _tables(lat)
        m = len(lat.arrows)
        _, leq, _, _, _ = lattice_as_sets(lat)
        pairs = [(f.source, f.target) for f in lat.arrows]
        w = t.chunk_bits.bit_length()
        assert w <= 12
        # As few chunks as 12 bits allow, each as wide as the first.
        assert len(t.lift_chunks) == -(-m // 12) == (-(-m // w) if m else 0)
        assert [entry[0] for entry in t.lift_chunks] == list(range(0, m, w or 1))
        chunks = tuple(entry[column] for entry in t.lift_chunks)
        assert [len(chunk) for chunk in chunks] == [
            1 << min(w, m - s) for s in range(0, m, w or 1)
        ]
        masks = [1 << i for i in range(m)] + [t.full]
        masks += [rng.getrandbits(m) for _ in range(200)]
        for mask in masks:
            # Chunk c's entry at the bits of the mask it covers.
            parts = [
                chunk[mask >> s & t.chunk_bits]
                for (s, *_), chunk in zip(t.lift_chunks, chunks)
            ]
            if table == "roles":
                union = 0
                for part in parts:
                    union |= part
                assert union == role_union(t, mask)
            else:
                dual, naive = (
                    (_llp, naive_llp) if table == "kill_llp" else (_rlp, naive_rlp)
                )
                lift = t.full
                for part in parts:
                    lift &= part
                want = naive_dual(naive, pairs, leq, mask)
                assert lift == dual(t, mask) == want


def test_role_table_check_matches_the_triangle_oracle(pentagon, square, grid21):
    # Every mask: no triangle holds exactly two of its arrows exactly when
    # one pass completing such triangles adds nothing.
    for lat in (pentagon, square, grid21, chain(5)):
        t = _tables(lat)
        assert t.role_base.bit_length() == 3 * len(t.triples) - 2
        for mask in range(1 << len(lat.arrows)):
            want = two_of_three_pass(t, mask) == mask
            assert two_of_three_closed(t.role_base, role_union(t, mask)) == want


def _square():
    return product(chain(1), chain(1))


def _cube():
    return product(product(chain(1), chain(1)), chain(1))


# Public entry points that take arrow sets, each given one set (the other
# argument, if any, empty, or full for derive_classes).  A set with a
# stray bit fails to build, so none of them needs a range check of its own.
STRAY_BIT_CALLS = {
    "llp_dual": llp_dual,
    "rlp_dual": rlp_dual,
    "close_pullback": close_pullback,
    "close_pushout": close_pushout,
    "close_composition": close_composition,
    "close_two_out_of_three": close_two_out_of_three,
    "close_wide_decomposable": close_wide_decomposable,
    "generate_transfer": generate_transfer,
    "generate_cotransfer": generate_cotransfer,
    "is_transfer_system": is_transfer_system,
    "is_cotransfer_system": is_cotransfer_system,
    "is_composition_closed": is_composition_closed,
    "is_wide_decomposable": is_wide_decomposable,
    "compose_sets-upper": lambda a: compose_sets(a, ArrowSet.empty(a.lattice)),
    "compose_sets-lower": lambda a: compose_sets(ArrowSet.empty(a.lattice), a),
    "is_weak_equivalence_set": is_weak_equivalence_set,
    "t_max": t_max,
    "k_max": k_max,
    "weq_components": weq_components,
    "derive_classes-weq": lambda a: derive_classes(a, ArrowSet.full(a.lattice)),
    "derive_classes-af": lambda a: derive_classes(ArrowSet.full(a.lattice), a),
    "derive_classes-weq-unchecked": lambda a: derive_classes(
        a, ArrowSet.full(a.lattice), check=False
    ),
    "derive_classes-af-unchecked": lambda a: derive_classes(
        ArrowSet.full(a.lattice), a, check=False
    ),
}


@pytest.mark.parametrize("call", STRAY_BIT_CALLS.values(), ids=STRAY_BIT_CALLS)
@pytest.mark.parametrize("place", ["m", "m+64"])
@pytest.mark.parametrize("build", [_square, _cube], ids=["square", "cube"])
def test_a_bit_past_the_last_arrow_is_refused(build, place, call):
    # A bit at m (the arrow count), or far past it, names no arrow, so the
    # set is refused before any call; the end of the last byte and negative
    # masks are checked in the test below.  The full set, whose top bit
    # m - 1 is the last the byte tables index, runs through the call.  Each
    # case gets a fresh lattice.
    lat = build()
    m = len(lat.arrows)
    bit = {"m": m, "m+64": m + 64}[place]
    with pytest.raises(UnknownLabel) as err:
        ArrowSet(lat, 1 << bit | 1)
    assert str(err.value) == f"bit {bit} names no arrow: the lattice has {m} arrows"
    call(ArrowSet.full(lat))


@pytest.mark.parametrize(
    "place", ["m", "byte-end", "m+64", "negative", "negative-from-m+3"]
)
@pytest.mark.parametrize("build", [_square, _cube], ids=["square", "cube"])
def test_an_arrow_set_with_a_bit_past_the_last_arrow_cannot_be_built(build, place):
    # The range check sits in ArrowSet itself.  A negative mask sets every
    # bit from some point up, so it names no arrow either; the message
    # names the lowest bit at or above the arrow count.
    lat = build()
    m = len(lat.arrows)
    byte_end = -(-m // 8) * 8
    mask, bit = {
        "m": (1 << m | 1, m),
        "byte-end": (1 << byte_end | 1, byte_end),
        "m+64": (1 << m + 64 | 1, m + 64),
        "negative": (-1, m),
        "negative-from-m+3": (-(1 << m + 3), m + 3),
    }[place]
    with pytest.raises(UnknownLabel) as err:
        ArrowSet(lat, mask)
    assert str(err.value) == f"bit {bit} names no arrow: the lattice has {m} arrows"
    ArrowSet(lat, (1 << m) - 1)  # the full set is the largest that builds


@pytest.mark.parametrize(
    "build, step", [(_square, 1), (_cube, 127)], ids=["square", "cube"]
)
def test_size_truth_members_and_signature_agree(build, step):
    # Every mask of the square, and every 127th of the cube's 2^19 with
    # the full one (all 2^19 take seconds): len and bool count the mask's
    # bits, list and signature walk the arrows, and they agree.
    lat = build()
    m = len(lat.arrows)
    for mask in [*range(0, 1 << m, step), (1 << m) - 1]:
        a = ArrowSet(lat, mask)
        members = list(a)
        assert members == [f for i, f in enumerate(lat.arrows) if mask >> i & 1]
        assert len(a) == len(members) and bool(a) == bool(members)
        assert a.signature() == "{" + ", ".join(map(lat.arrow_name, members)) + "}"


@pytest.mark.parametrize("build", [_square, _cube], ids=["square", "cube"])
def test_a_valid_set_survives_a_pickle_round_trip(build):
    # __reduce__ rebuilds through ArrowSet(lattice, mask), range check
    # included.  Lattices compare by identity, and the round trip copies
    # the lattice, so the copy is compared by its parts.
    lat = build()
    m = len(lat.arrows)
    for mask in (0, 0b10110, (1 << m) - 1):
        a = ArrowSet(lat, mask)
        b = pickle.loads(pickle.dumps(a))
        assert b.mask == mask and b.signature() == a.signature()
        assert b.lattice is not lat and b.lattice.arrows == lat.arrows
        assert list(b) == list(a)
        cls, args = a.__reduce__()
        assert cls(*args) == a
