import copy
import math

import pytest

from latmod import (
    ArrowSet,
    MaximalityViolation,
    ModelStructure,
    NotAWeakEquivalenceSet,
    NotAdmissible,
    UnknownLabel,
    af_interval,
    build_lattice,
    chain,
    close_two_out_of_three,
    close_wide_decomposable,
    closed_sets,
    cotransfer_systems,
    derive_classes,
    enumerate_model_structures,
    enumerate_weak_equivalence_sets,
    is_composition_closed,
    is_transfer_system,
    is_weak_equivalence_set,
    is_wide_decomposable,
    k_max,
    localization_graph,
    n5,
    product,
    t_max,
    t_min,
    transfer_catalog,
    verify_model_axioms,
)
from latmod.arrows import (
    _composites,
    _llp,
    _rlp,
    _tables,
)
from latmod.models import _factors

from conftest import lattice_as_sets
from oracles import (
    compose_close,
    is_transfer_naive,
    lex_key,
    naive_is_weak_equivalence_set,
    pushout_close,
    systems_between,
    two_of_three_pass,
    union_inside,
)


def cube():
    return product(product(chain(1), chain(1)), chain(1))


def fresh_corpus():
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


def agrees_with_chain_walk(lat, candidates):
    """Assert the criterion matches the naive oracle; count rejections."""
    n, leq, covers, meets, joins = lattice_as_sets(lat)
    rejected = 0
    for aset in candidates:
        pairs = frozenset((f.source, f.target) for f in aset)
        got = is_weak_equivalence_set(aset)
        assert got == naive_is_weak_equivalence_set(
            n, leq, covers, meets, joins, pairs
        ), aset.signature()
        rejected += not got
    return rejected


def test_n5_has_22_weak_equivalence_sets(pentagon):
    assert len(enumerate_weak_equivalence_sets(pentagon)) == 22


def test_weq_census_small_lattices(square, grid21):
    assert len(enumerate_weak_equivalence_sets(square)) == 10
    assert len(enumerate_weak_equivalence_sets(grid21)) == 48
    for n in (1, 2, 3):
        assert len(enumerate_weak_equivalence_sets(chain(n))) == 2**n


def test_weq_sets_match_exhaustive_filter(corpus):
    for lat in (*corpus.values(), chain(4), chain(5)):
        every = [ArrowSet(lat, mask) for mask in range(1 << len(lat.arrows))]
        expected = [w for w in every if is_weak_equivalence_set(w)]
        expected.sort(key=lex_key)
        assert enumerate_weak_equivalence_sets(lat) == tuple(expected)


def test_weq_counts_beyond_the_old_arrow_cutoff():
    # grid3x1 has 22 arrows, grid2x2 27 and chain7 28.
    for lat, count in (
        (product(chain(3), chain(1)), 216),
        (product(chain(2), chain(2)), 500),
        (chain(7), 128),
    ):
        assert len(enumerate_weak_equivalence_sets(lat)) == count


def m3():
    """The diamond with three atoms, 0 < a, b, c < 1."""
    return build_lattice(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
    )


def test_criterion_matches_the_chain_walk_on_every_subset(corpus):
    for lat in (*corpus.values(), m3()):
        every = [ArrowSet(lat, mask) for mask in range(1 << len(lat.arrows))]
        agrees_with_chain_walk(lat, every)


@pytest.mark.parametrize(
    "build, rejected",
    [
        (lambda: product(product(chain(1), chain(1)), chain(1)), 159),
        (lambda: product(chain(3), chain(1)), 56),
        (lambda: product(chain(2), chain(2)), 224),
        (lambda: product(m3(), chain(1)), 2588),
        (lambda: product(n5(), chain(1)), 1350),
    ],
    ids=["cube", "grid3x1", "grid2x2", "m3xchain1", "n5xchain1"],
)
def test_criterion_matches_the_chain_walk_on_candidates(build, rejected):
    lat = build()
    candidates = closed_sets(
        lat,
        lambda mask, new: close_wide_decomposable(ArrowSet(lat, mask | new)).mask,
    )
    assert agrees_with_chain_walk(lat, candidates) == rejected


def test_chain6_models_are_binomial_and_pass_the_axioms():
    models = enumerate_model_structures(chain(6))
    assert len(models) == math.comb(13, 6) == 1716
    assert all(verify_model_axioms(m) for m in models)


def test_every_wide_subcategory_of_n5_qualifies(pentagon):
    # on the pentagon the pivot condition comes for free
    hits = 0
    for mask in range(256):
        aset = ArrowSet(pentagon, mask)
        if is_wide_decomposable(aset) and is_composition_closed(aset):
            assert is_weak_equivalence_set(aset)
            hits += 1
        else:
            assert not is_weak_equivalence_set(aset)
    assert hits == 22
    # decomposability alone is strictly weaker
    assert (
        sum(
            is_wide_decomposable(ArrowSet(pentagon, mask))
            for mask in range(256)
        )
        == 53
    )


def test_grid_counterexample(grid21):
    w = ArrowSet.from_labels(grid21, [("(1,0)", "(1,1)")])
    assert is_wide_decomposable(w)
    assert is_composition_closed(w)
    assert not is_weak_equivalence_set(w)


def test_weq_sets_are_two_out_of_three_closed(pentagon, square, grid21):
    for lat in (pentagon, square, grid21):
        for w in enumerate_weak_equivalence_sets(lat):
            assert close_two_out_of_three(w).mask == w.mask


def test_bound_properties(pentagon):
    catalog = transfer_catalog(pentagon)
    for w in enumerate_weak_equivalence_sets(pentagon):
        hi = t_max(w)
        lo = t_min(w)
        assert is_transfer_system(hi) and hi <= w
        assert is_transfer_system(lo) and lo <= hi
        for t in catalog:
            if t <= w:
                assert t <= hi
        assert k_max(w) <= w


def test_interval_membership(pentagon):
    catalog = transfer_catalog(pentagon)
    for w in enumerate_weak_equivalence_sets(pentagon):
        interval = af_interval(w)
        lo, hi = t_min(w), t_max(w)
        expected = [t for t in catalog if lo <= t and t <= hi]
        assert [t.mask for t in interval] == [t.mask for t in expected]


def test_bounds_and_interval_match_the_catalog_scan(corpus):
    more = (
        cube(),
        product(chain(3), chain(1)),
        product(chain(2), chain(2)),
        chain(7),
    )
    for lat in (*corpus.values(), *more):
        t = _tables(lat)
        transfers = [s.mask for s in transfer_catalog(lat)]
        cotransfers = [s.mask for s in cotransfer_systems(lat)]
        for w in enumerate_weak_equivalence_sets(lat):
            high = union_inside(transfers, w.mask)
            cohigh = union_inside(cotransfers, w.mask)
            low = _rlp(t, cohigh) & w.mask
            assert t_max(w).mask == high
            assert k_max(w).mask == cohigh
            assert t_min(w).mask == low
            interval = [s.mask for s in af_interval(w)]
            assert interval == systems_between(transfers, low, high)


def test_canonical_order_puts_the_interval_ends_first_and_last(corpus):
    # The CLI reads t_min(W) and t_max(W) off the ends of af_interval(W),
    # and the graph takes index 0 as the trivial structure W = AF = {}:
    # catalog order refines containment.
    for lat in (*corpus.values(), cube()):
        for w in enumerate_weak_equivalence_sets(lat):
            interval = af_interval(w)
            assert interval[0] == t_min(w)
            assert interval[-1] == t_max(w)
        assert enumerate_model_structures(lat)[0].key() == (0, 0)


def test_bounds_match_the_catalog_scan_on_every_arrow_set(corpus):
    # The pull (push) row formula holds for any W, not only weq sets;
    # where the union of the systems inside W is not itself one, both
    # bounds refuse it.
    raised = {t_max: 0, k_max: 0}
    for lat in corpus.values():
        m = len(lat.arrows)
        if m > 8:
            continue
        n, leq, _, meets, joins = lattice_as_sets(lat)

        def is_transfer(pairs):
            return is_transfer_naive(n, leq, meets, pairs)

        def is_cotransfer(pairs):
            return (
                compose_close(leq, pairs) == pairs
                and pushout_close(n, leq, joins, pairs) == pairs
            )

        checks = (
            (t_max, transfer_catalog(lat), is_transfer),
            (k_max, cotransfer_systems(lat), is_cotransfer),
        )
        for bound, systems, is_system in checks:
            masks = [s.mask for s in systems]
            for mask in range(1 << m):
                union = union_inside(masks, mask)
                pairs = frozenset(
                    (f.source, f.target) for f in ArrowSet(lat, union)
                )
                if is_system(pairs):
                    assert bound(ArrowSet(lat, mask)).mask == union
                else:
                    with pytest.raises(MaximalityViolation):
                        bound(ArrowSet(lat, mask))
                    raised[bound] += 1
    assert raised[t_max] > 0 and raised[k_max] > 0


def test_models_and_the_graph_build_no_catalog():
    for lat in fresh_corpus():
        enumerate_model_structures(lat)
        localization_graph(lat)
        assert "transfers" not in lat._cache
        assert "cotransfers" not in lat._cache


def test_interval_rejects_non_weq(pentagon):
    with pytest.raises(NotAWeakEquivalenceSet):
        af_interval(ArrowSet.from_labels(pentagon, [("0", "1")]))


def test_model_counts(pentagon, square, grid21):
    assert len(enumerate_model_structures(pentagon)) == 70
    assert len(enumerate_model_structures(square)) == 23
    assert len(enumerate_model_structures(grid21)) == 182
    assert len(enumerate_model_structures(chain(1))) == 3
    assert len(enumerate_model_structures(chain(2))) == 10
    assert len(enumerate_model_structures(chain(3))) == 35


def test_chain_model_counts_are_central_binomials():
    # the census on [n] matches C(2n+1, n)
    for n in (1, 2, 3):
        assert len(enumerate_model_structures(chain(n))) == math.comb(
            2 * n + 1, n
        )


def test_interval_size_distribution(pentagon, square):
    n5_sizes = sorted(
        len(af_interval(w))
        for w in enumerate_weak_equivalence_sets(pentagon)
    )
    assert n5_sizes == [1] * 8 + [2] * 11 + [7, 7, 26]
    square_sizes = sorted(
        len(af_interval(w)) for w in enumerate_weak_equivalence_sets(square)
    )
    assert square_sizes == [1] * 7 + [3, 3, 10]


def test_full_weq_interval_is_whole_catalog(pentagon):
    interval = af_interval(ArrowSet.full(pentagon))
    assert [t.mask for t in interval] == [
        t.mask for t in transfer_catalog(pentagon)
    ]
    assert len(interval) == 26


def test_worked_interval_sizes(pentagon):
    w1 = ArrowSet.from_labels(
        pentagon, [("A", "C"), ("C", "1"), ("A", "1"), ("0", "B")]
    )
    w2 = ArrowSet.from_labels(
        pentagon, [("0", "A"), ("A", "C"), ("0", "C"), ("B", "1")]
    )
    assert len(af_interval(w1)) == 7
    assert len(af_interval(w2)) == 7


def test_derive_classes_and_keys(pentagon):
    models = enumerate_model_structures(pentagon)
    keys = {m.key() for m in models}
    assert len(keys) == len(models)
    for m in models:
        assert m.acyclic_cof.mask == (m.cof & m.weq).mask
        assert m.acyclic_fib.mask == (m.fib & m.weq).mask
        again = derive_classes(m.weq, m.acyclic_fib)
        assert again.key() == m.key()


def test_derive_classes_rejects_out_of_interval(pentagon):
    w = ArrowSet.from_labels(
        pentagon, [("0", "A"), ("0", "B"), ("0", "C"), ("A", "C")]
    )
    interval_masks = {t.mask for t in af_interval(w)}
    empty = ArrowSet.empty(pentagon)
    assert empty.mask not in interval_masks
    with pytest.raises(NotAdmissible):
        derive_classes(w, empty)


def test_derive_check_admits_exactly_the_interval(corpus):
    # AF ranges over every arrow set where that is cheap (m <= 8), so sets
    # between t_min and t_max that are not transfer systems are covered,
    # and over every catalog system elsewhere (the cube has m = 19).
    cube = product(product(chain(1), chain(1)), chain(1))
    for lat in (*corpus.values(), cube):
        catalog = transfer_catalog(lat)
        m = len(lat.arrows)
        candidates = (
            [ArrowSet(lat, mask) for mask in range(1 << m)]
            if m <= 8
            else catalog.systems
        )
        weqs = enumerate_weak_equivalence_sets(lat)
        for w in weqs:
            inside = {t.mask for t in af_interval(w)}
            for t in candidates:
                if t.mask in inside:
                    assert derive_classes(w, t).key() == (w.mask, t.mask)
                else:
                    with pytest.raises(NotAdmissible):
                        derive_classes(w, t)
        weq_masks = {w.mask for w in weqs}
        for mask in range(min(1 << m, 256)):
            if mask in weq_masks:
                continue
            with pytest.raises(NotAWeakEquivalenceSet):
                derive_classes(ArrowSet(lat, mask), catalog[0])


def test_derive_check_refuses_a_non_transfer_set_inside_the_bounds(pentagon):
    # The full W has t_min = {} and t_max = every arrow; {0->A, A->C}
    # lies between them but misses the composite 0->C.
    w = ArrowSet.full(pentagon)
    lo, hi = t_min(w), t_max(w)
    gap = ArrowSet.from_labels(pentagon, [("0", "A"), ("A", "C")])
    assert lo <= gap <= hi and not is_transfer_system(gap)
    with pytest.raises(NotAdmissible):
        derive_classes(w, gap)


def test_derive_check_returns_the_enumerated_structure(corpus):
    for lat in (*corpus.values(), cube()):
        for m in enumerate_model_structures(lat):
            assert derive_classes(m.weq, m.acyclic_fib) is m
            weq = ArrowSet(lat, m.weq.mask)
            af = ArrowSet(lat, m.acyclic_fib.mask)
            assert derive_classes(weq, af) is m


def per_w_keys(lat):
    # The per-W entries of the lattice cache, as (kind, W mask): each kind
    # is one dict keyed by W's mask.
    kinds = ("model_tables", "golden")
    return {(kind, w) for kind in kinds for w in lat._cache[kind]}


def test_enumeration_keeps_one_model_table_per_weq_set():
    for lat in fresh_corpus():
        models = enumerate_model_structures(lat)
        weqs = enumerate_weak_equivalence_sets(lat)
        assert per_w_keys(lat) == {("model_tables", w.mask) for w in weqs}
        tables = [lat._cache["model_tables"][w.mask] for w in weqs]
        for w, table in zip(weqs, tables):
            assert list(table) == [t.mask for t in af_interval(w)]
        assert models == tuple(m for table in tables for m in table.values())


def test_enumerated_models_share_the_enumerated_weq_sets():
    # One ArrowSet per enumerated W: each model over W holds that object.
    for lat in fresh_corpus():
        weqs = {w.mask: w for w in enumerate_weak_equivalence_sets(lat)}
        for model in enumerate_model_structures(lat):
            assert model.weq is weqs[model.weq.mask]


def test_model_structures_are_immutable_records(pentagon):
    model = enumerate_model_structures(pentagon)[5]
    fields = ("lattice", "weq", "acyclic_fib", "cof", "acyclic_cof", "fib")
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(model, name, None)
    # The same fields, from fresh ArrowSets, give an equal structure.
    rebuilt = ModelStructure(
        pentagon,
        *(ArrowSet(pentagon, getattr(model, name).mask) for name in fields[1:]),
    )
    assert rebuilt == model and hash(rebuilt) == hash(model)
    assert rebuilt != enumerate_model_structures(pentagon)[6]
    assert copy.copy(model) == model
    assert not hasattr(model, "__dict__")
    assert repr(model) == f"ModelStructure({model.signature()})"


def test_each_weq_set_is_checked_once(monkeypatch):
    # The enumeration's filter runs the factorization test once on each
    # candidate, which its closure has made wide decomposable, and the
    # model tables of the sets it accepts are built without a second
    # test; a table derived on demand tests its W once, through
    # is_weak_equivalence_set, before it is built.
    checked = []

    def counted(t, w):
        checked.append(w)
        return _factors(t, w)

    monkeypatch.setattr("latmod.models._factors", counted)
    for lat in fresh_corpus():
        checked.clear()
        models = enumerate_model_structures(lat)
        for model in models:
            assert derive_classes(model.weq, model.acyclic_fib) is model
            af_interval(model.weq)
        assert len(checked) == len(set(checked))
        assert {m.weq.mask for m in models} <= set(checked)
    lat = n5()
    full = ArrowSet.full(lat)
    checked.clear()
    assert af_interval(full) == af_interval(full)
    assert derive_classes(full, full).weq == full
    assert checked == [full.mask]


def test_a_non_weq_set_leaves_no_model_table():
    for lat in fresh_corpus():
        catalog = transfer_catalog(lat)
        weq_masks = {w.mask for w in enumerate_weak_equivalence_sets(lat)}
        bad = [
            mask
            for mask in range(min(1 << len(lat.arrows), 256))
            if mask not in weq_masks
        ]
        for mask in bad:
            with pytest.raises(NotAWeakEquivalenceSet):
                derive_classes(ArrowSet(lat, mask), catalog[0])
            with pytest.raises(NotAWeakEquivalenceSet):
                af_interval(ArrowSet(lat, mask))
        assert not per_w_keys(lat)


def _n5_mask(pairs):
    return ArrowSet.from_labels(n5(), pairs).mask


# (lattice, W mask, AF mask, error, message): the strings the derivation
# gave before it became a table lookup.
BAD_PAIRS = [
    (
        n5,
        _n5_mask([("0", "A"), ("0", "B"), ("0", "C"), ("A", "C")]),
        0,
        NotAdmissible,
        "AF={} is outside the admissible interval of W={0->A, 0->B, 0->C, A->C}",
    ),
    (
        n5,
        _n5_mask([("0", "A"), ("0", "B"), ("0", "C"), ("A", "C")]),
        _n5_mask([("0", "B")]),
        NotAdmissible,
        "AF={0->B} is outside the admissible interval of "
        "W={0->A, 0->B, 0->C, A->C}",
    ),
    (
        n5,
        255,
        _n5_mask([("0", "A"), ("A", "C")]),
        NotAdmissible,
        "AF={0->A, A->C} is outside the admissible interval of "
        "W={0->A, 0->B, 0->C, 0->1, A->C, A->1, B->1, C->1}",
    ),
    (
        n5,
        0,
        _n5_mask([("0", "B")]),
        NotAdmissible,
        "AF={0->B} is outside the admissible interval of W={}",
    ),
    (
        n5,
        _n5_mask([("0", "1")]),
        0,
        NotAWeakEquivalenceSet,
        "{0->1} is not a weak equivalence set",
    ),
    (
        lambda: product(chain(1), chain(1)),
        10,
        1,
        NotAdmissible,
        "AF={(0,0)->(0,1)} is outside the admissible interval of "
        "W={(0,0)->(1,0), (0,1)->(1,1)}",
    ),
    (
        lambda: product(chain(1), chain(1)),
        4,
        0,
        NotAWeakEquivalenceSet,
        "{(0,0)->(1,1)} is not a weak equivalence set",
    ),
    (
        cube,
        34858,
        0,
        NotAdmissible,
        "AF={} is outside the admissible interval of W={((0,0),0)->((0,1),0), "
        "((0,0),0)->((1,0),0), ((0,0),0)->((1,1),0), ((0,1),0)->((1,1),0), "
        "((1,0),0)->((1,1),0)}",
    ),
    (
        cube,
        4,
        0,
        NotAWeakEquivalenceSet,
        "{((0,0),0)->((0,1),1)} is not a weak equivalence set",
    ),
]


@pytest.mark.parametrize("build, weq, af, error, message", BAD_PAIRS)
def test_derive_check_messages_are_unchanged(build, weq, af, error, message):
    lat = build()
    for _ in range(2):  # the second call may find a cached table
        with pytest.raises(error) as err:
            derive_classes(ArrowSet(lat, weq), ArrowSet(lat, af))
        assert str(err.value) == message


def test_a_refusal_words_its_message_only_when_read(monkeypatch):
    # Refusing a pair names no arrow, on a cold table and on a warm one;
    # the message, read twice, is the one derivation always gave, and the
    # error holds the pair it refused.
    build, weq_mask, af_mask, _, message = BAD_PAIRS[1]
    lat = build()
    weq, af = ArrowSet(lat, weq_mask), ArrowSet(lat, af_mask)
    named = []
    signature = ArrowSet.signature

    def counted(aset):
        named.append(aset.mask)
        return signature(aset)

    monkeypatch.setattr(ArrowSet, "signature", counted)
    for _ in range(2):
        with pytest.raises(NotAdmissible) as err:
            derive_classes(weq, af)
        assert named == []
    assert err.value.weq is weq and err.value.acyclic_fib is af
    assert str(err.value) == str(err.value) == message
    assert named == [af_mask, weq_mask] * 2


# The checks of verify_model_axioms, by name, on raw masks.
def axiom_failures(t, weq, af, cof, ac, fib):
    checks = {
        "2oo3(W)": two_of_three_pass(t, weq) == weq,
        "llp(AF) = C": _llp(t, af) == cof,
        "rlp(C) = AF": _rlp(t, cof) == af,
        "llp(F) = AC": _llp(t, fib) == ac,
        "rlp(AC) = F": _rlp(t, ac) == fib,
        "AF <= W": not af & ~weq,
        "AC = C & W": ac == cof & weq,
        "AF = F & W": af == fib & weq,
        "(C, AF) factors": _composites(t, af, cof) == t.full,
        "(AC, F) factors": _composites(t, fib, ac) == t.full,
    }
    return {name for name, ok in checks.items() if not ok}


IMPLIED = {
    "rlp(AC) = F",
    "llp(AF) = C",
    "AF = F & W",
    "(C, AF) factors",
    "(AC, F) factors",
}


def test_the_implied_axiom_checks_never_fail_alone():
    # The verify_model_axioms docstring proves that each IMPLIED check
    # follows from the others, so no hand-built structure fails one of
    # them alone.  Searched here over every W closed under
    # two-out-of-three and every C and F with AF = rlp(C) and AC = llp(F)
    # (a structure failing one IMPLIED check alone has both), where C is
    # llp-closed or F rlp-closed (otherwise two IMPLIED checks fail).
    # Every set of arrows in a poset is closed under retracts, so no C or
    # F is left out.
    for lat in (chain(3), product(chain(1), chain(1))):
        t = _tables(lat)
        every = range(1 << len(lat.arrows))
        weqs = [w for w in every if two_of_three_pass(t, w) == w]
        llp_closed = {_llp(t, x) for x in every}
        rlp_closed = {_rlp(t, x) for x in every}
        seen = 0
        for cof in every:
            af = _rlp(t, cof)
            for fib in every:
                if cof not in llp_closed and fib not in rlp_closed:
                    continue
                ac = _llp(t, fib)
                for weq in weqs:
                    failed = axiom_failures(t, weq, af, cof, ac, fib)
                    assert not (len(failed) == 1 and failed <= IMPLIED)
                    model = ModelStructure(
                        lat, *(ArrowSet(lat, x) for x in (weq, af, cof, ac, fib))
                    )
                    assert verify_model_axioms(model) == (not failed)
                    seen += not failed
        assert seen == len(enumerate_model_structures(lat))


@pytest.mark.parametrize(
    "build, pairs",
    [(n5, 26), (lambda: product(chain(2), chain(1)), 68), (lambda: chain(5), 132),
     (cube, 450)],
    ids=["n5", "grid2x1", "chain5", "cube"],
)
def test_every_lifting_pair_factors(build, pairs):
    # verify_model_axioms checks no factorization, as every lifting pair
    # L = llp(R), R = rlp(L) factors each arrow as L then R.  The R with
    # rlp(llp(R)) = R are the rlp images, the intersections of the
    # rlp({f}); there are as many as transfer systems.
    lat = build()
    t = _tables(lat)
    closed = {t.full}
    for i in range(len(lat.arrows)):
        basic = _rlp(t, 1 << i)
        closed |= {r & basic for r in closed}
    assert len(closed) == len(transfer_catalog(lat)) == pairs
    for r in closed:
        left = _llp(t, r)
        assert _rlp(t, left) == r
        assert _composites(t, r, left) == t.full


def test_verify_refuses_an_arrow_bit_past_the_last_arrow(pentagon, square):
    # A class with a bit at or above the arrow count, or a negative mask,
    # which sets all of them, names no arrow: it fails to build, so no such
    # structure reaches verify_model_axioms.
    classes = ("weq", "acyclic_fib", "cof", "acyclic_cof", "fib")
    for lat in (pentagon, square):
        m = len(lat.arrows)
        past = 1 << m
        for model in enumerate_model_structures(lat):
            assert verify_model_axioms(model)
            for name in classes:
                mask = getattr(model, name).mask
                for bad, bit in ((mask | past, m), (mask | past << 3, m + 3), (-1, m)):
                    with pytest.raises(UnknownLabel) as err:
                        model._replace(**{name: ArrowSet(lat, bad)})
                    assert str(err.value) == (
                        f"bit {bit} names no arrow: the lattice has {m} arrows"
                    )


def test_verify_refuses_classes_from_another_lattice():
    # Two n5() builds are equal in shape but distinct lattices, so a
    # structure that mixes them raises, as mixing them in a set would.
    lat, other = n5(), n5()
    fields = ("lattice", "weq", "acyclic_fib", "cof", "acyclic_cof", "fib")
    for model in enumerate_model_structures(lat)[::7]:
        foreign = ModelStructure(
            other, *(ArrowSet(other, getattr(model, f).mask) for f in fields[1:])
        )
        assert verify_model_axioms(foreign)
        for name in fields:
            mixed = model._replace(**{name: getattr(foreign, name)})
            with pytest.raises(ValueError, match="belong to different lattices"):
                verify_model_axioms(mixed)


def test_axioms_hold_for_every_enumerated_model(pentagon, square):
    # grid2x2 has 27 arrows, so verify reads three lifting-table chunks.
    grid22 = product(chain(2), chain(2))
    for lat in (pentagon, square, grid22):
        for m in enumerate_model_structures(lat):
            assert verify_model_axioms(m)


def test_axioms_reject_bad_pairs(pentagon):
    # a weak equivalence set with an inadmissible transfer system
    w = ArrowSet.from_labels(
        pentagon, [("0", "A"), ("0", "B"), ("0", "C"), ("A", "C")]
    )
    bad = derive_classes(w, ArrowSet.empty(pentagon), check=False)
    assert not verify_model_axioms(bad)
    # a non 2-out-of-3-closed W never passes
    w2 = ArrowSet.from_labels(pentagon, [("0", "A")])
    bad2 = derive_classes(w2, ArrowSet.empty(pentagon), check=False)
    assert not verify_model_axioms(bad2)
    # With AF = W = {0->A, 0->C} every other axiom holds, but two of the
    # triangle 0->A, A->C, 0->C force the third.
    w3 = ArrowSet.from_labels(pentagon, [("0", "A"), ("0", "C")])
    assert not verify_model_axioms(derive_classes(w3, w3, check=False))


def test_axioms_reject_every_one_arrow_change_of_a_class(pentagon, square, grid21):
    # Flipping one arrow of any one of the five classes of a model breaks
    # some axiom, read from the masks the model holds, not re-derived.
    # n5 and the square have one 8-bit lifting-table chunk, grid2x1 one of
    # 12 bits and the cube two of 10 and 9.
    classes = ("weq", "acyclic_fib", "cof", "acyclic_cof", "fib")
    for lat in (pentagon, square, grid21, cube()):
        for model in enumerate_model_structures(lat):
            for name in classes:
                mask = getattr(model, name).mask
                for i in range(len(lat.arrows)):
                    flipped = ArrowSet(lat, mask ^ 1 << i)
                    changed = model._replace(**{name: flipped})
                    assert not verify_model_axioms(changed)


def test_enumeration_is_grouped_and_deterministic(pentagon):
    models = enumerate_model_structures(pentagon)
    weq_order = [w.mask for w in enumerate_weak_equivalence_sets(pentagon)]
    seen = [m.weq.mask for m in models]
    # weq blocks appear in catalog order
    blocks = []
    for mask in seen:
        if not blocks or blocks[-1] != mask:
            blocks.append(mask)
    assert blocks == weq_order
    assert models == enumerate_model_structures(pentagon)


@pytest.mark.parametrize("check", [True, False], ids=["checked", "unchecked"])
def test_derive_refuses_sets_from_two_lattices(check):
    # W from one n5() build and AF from another: a warm table of the first
    # holds AF's mask, but the pair is refused before any lookup.
    lat, other = n5(), n5()
    assert enumerate_model_structures(lat)[0].key() == (0, 0)
    for weq, af in ((lat, other), (other, lat)):
        with pytest.raises(ValueError, match="belong to different lattices"):
            derive_classes(ArrowSet.empty(weq), ArrowSet.empty(af), check=check)
