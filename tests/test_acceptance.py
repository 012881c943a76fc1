"""Acceptance gate: eleven headline checks, one printed verdict line each.

Run as part of the normal suite; every test prints its verdict to the
real terminal even under capture, then asserts it.
"""
import math
import random

from latmod import (
    ArrowSet,
    af_interval,
    build_lattice,
    chain,
    close_composition,
    close_pullback,
    close_pushout,
    close_two_out_of_three,
    cotransfer_systems,
    derive_classes,
    enumerate_model_structures,
    enumerate_weak_equivalence_sets,
    find_sublattice_embedding,
    generate_transfer,
    golden_arrow_set,
    is_composition_closed,
    is_modular,
    is_weak_equivalence_set,
    is_wide_decomposable,
    k_max,
    left_localize,
    llp_dual,
    localization_graph,
    product,
    pullbacks_of,
    pushouts_of,
    reachable_from_trivial,
    right_localize,
    rlp_dual,
    t_max,
    t_min,
    tr_as_lattice,
    transfer_catalog,
    verify_model_axioms,
)

from oracles import cotransfer_walk


def _verdict(capsys, number: int, label: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {number:2d}. {label}")
    assert ok, f"criterion {number}: {label}"


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def test_01_transfer_system_census(capsys, pentagon):
    ok = len(transfer_catalog(pentagon)) == 26
    for k in (1, 2, 3, 4, 5):
        count = len(transfer_catalog(chain(k)))
        ok &= count == _catalan(k + 1)
    _verdict(capsys, 1, "transfer system counts: pentagon 26, chains Catalan", ok)


def test_02_lifting_duality_bijection(capsys, corpus):
    # llp maps the transfer systems onto the cotransfer systems and rlp
    # inverts it, on every corpus lattice and the cube.  The cotransfer
    # systems come from their own walk, as cotransfer_systems lists the
    # llp images.
    pentagon = corpus["n5"]
    ok = len(transfer_catalog(pentagon)) == len(cotransfer_walk(pentagon)) == 26
    cube = product(product(chain(1), chain(1)), chain(1))
    for lat in (*corpus.values(), cube):
        catalog = transfer_catalog(lat)
        images = [llp_dual(t) for t in catalog]
        walked = cotransfer_walk(lat)
        ok &= {s.mask for s in images} == {s.mask for s in walked}
        ok &= cotransfer_systems(lat) == walked
        ok &= all(rlp_dual(img) == t for t, img in zip(catalog, images))
    _verdict(
        capsys,
        2,
        "llp pairs transfer with cotransfer systems (n5: 26 each, corpus, cube), "
        "rlp inverts",
        ok,
    )


PUSH_PULL = {
    ("0", "A"): ({("B", "1")}, set()),
    ("0", "B"): ({("A", "1"), ("C", "1")}, set()),
    ("0", "C"): ({("A", "C"), ("B", "1")}, {("0", "A")}),
    ("0", "1"): (
        {("A", "1"), ("B", "1"), ("C", "1")},
        {("0", "A"), ("0", "B"), ("0", "C")},
    ),
    ("A", "C"): (set(), set()),
    ("A", "1"): ({("C", "1")}, {("0", "B"), ("A", "C")}),
    ("B", "1"): (set(), {("0", "A"), ("0", "C")}),
    ("C", "1"): (set(), {("0", "B")}),
}


def test_03_pentagon_pushout_pullback_table(capsys, pentagon):
    def as_pairs(arrows):
        return {
            (pentagon.label(f.source), pentagon.label(f.target)) for f in arrows
        }

    ok = len(pentagon.arrows) == len(PUSH_PULL) == 8
    for (src, tgt), (po, pb) in PUSH_PULL.items():
        f = pentagon.arrow(src, tgt)
        ok &= as_pairs(pushouts_of(pentagon, f)) == po
        ok &= as_pairs(pullbacks_of(pentagon, f)) == pb
    _verdict(capsys, 3, "all eight pushout and pullback cells reproduce", ok)


def test_04_weak_equivalence_census(capsys, pentagon, grid21):
    ok = len(enumerate_weak_equivalence_sets(pentagon)) == 22
    for mask in range(256):
        aset = ArrowSet(pentagon, mask)
        wide_subcategory = is_wide_decomposable(aset) and is_composition_closed(
            aset
        )
        ok &= is_weak_equivalence_set(aset) == wide_subcategory
    single = ArrowSet.from_labels(grid21, [("(1,0)", "(1,1)")])
    ok &= not is_weak_equivalence_set(single)
    _verdict(capsys, 4, "22 sets; every wide decomposable subcategory qualifies", ok)


def test_05_model_census_matches_axiom_verifier(capsys, corpus):
    ok = len(enumerate_model_structures(corpus["n5"])) == 70
    ok &= len(enumerate_model_structures(corpus["square"])) == 23
    for name in ("n5", "square", "grid2x1", "chain2", "chain3"):
        lat = corpus[name]
        m = len(lat.arrows)
        brute = []
        for wmask in range(1 << m):
            weq = ArrowSet(lat, wmask)
            # the verifier rejects any W that is not 2-out-of-3 closed and
            # any AF outside W, so only submask pairs need scanning
            if close_two_out_of_three(weq) != weq:
                continue
            tmask = wmask
            while True:
                candidate = derive_classes(
                    weq, ArrowSet(lat, tmask), check=False
                )
                if verify_model_axioms(candidate):
                    brute.append((wmask, tmask))
                if tmask == 0:
                    break
                tmask = (tmask - 1) & wmask
        official = [
            (model.weq.mask, model.acyclic_fib.mask)
            for model in enumerate_model_structures(lat)
        ]
        ok &= sorted(brute) == sorted(official)
    _verdict(capsys, 5, "70 and 23 models; brute-force verifier census agrees", ok)


def test_06_acyclic_fibration_intervals(capsys, pentagon):
    catalog = transfer_catalog(pentagon)
    ok = True
    for weq in enumerate_weak_equivalence_sets(pentagon):
        interval = af_interval(weq)
        lo, hi = t_min(weq), t_max(weq)
        ok &= lo == rlp_dual(k_max(weq)) & weq
        ok &= list(interval) == [t for t in catalog if lo <= t and t <= hi]
    ok &= af_interval(ArrowSet.full(pentagon)) == catalog.systems
    _verdict(capsys, 6, "intervals run t_min..t_max; the full row is all 26", ok)


def _is_meet_join_embedding(lat, pattern, emb):
    if emb is None or len(set(emb)) != pattern.n:
        return False
    for i in range(pattern.n):
        for j in range(pattern.n):
            if lat.meet(emb[i], emb[j]) != emb[pattern.meet(i, j)]:
                return False
            if lat.join(emb[i], emb[j]) != emb[pattern.join(i, j)]:
                return False
    return True


def _containment_lattice(systems):
    k = len(systems)
    strict = [
        [i != j and systems[i] < systems[j] for j in range(k)]
        for i in range(k)
    ]
    covers = []
    for i in range(k):
        for j in range(k):
            if strict[i][j] and not any(
                strict[i][z] and strict[z][j] for z in range(k)
            ):
                covers.append(
                    (systems[i].signature(), systems[j].signature())
                )
    return build_lattice([s.signature() for s in systems], covers)


def test_07_transfer_lattice_is_nonmodular(capsys, pentagon):
    ok = not is_modular(pentagon)
    system_lattice = tr_as_lattice(transfer_catalog(pentagon))
    ok &= system_lattice.n == 26
    ok &= not is_modular(system_lattice)
    emb = find_sublattice_embedding(system_lattice, pentagon)
    ok &= _is_meet_join_embedding(system_lattice, pentagon, emb)
    for labels in (
        [("A", "C"), ("C", "1"), ("A", "1"), ("0", "B")],
        [("0", "A"), ("A", "C"), ("0", "C"), ("B", "1")],
    ):
        weq = ArrowSet.from_labels(pentagon, labels)
        interval = af_interval(weq)
        inner = find_sublattice_embedding(
            _containment_lattice(interval), pentagon
        )
        ok &= inner is not None
    _verdict(capsys, 7, "the 26 systems form a nonmodular lattice; pentagons found", ok)


def test_08_worked_localizations(capsys, pentagon, square):
    walls = ArrowSet.from_labels(
        square, [("(0,0)", "(0,1)"), ("(0,0)", "(1,0)")]
    )
    square_model = derive_classes(walls, walls)
    f = square.arrow("(1,0)", "(1,1)")
    ok = (
        golden_arrow_set(square_model, f).signature()
        == "{(0,1)->(1,1), (1,0)->(1,1)}"
    )
    localized = right_localize(square_model, f)
    ok &= localized.weq == ArrowSet.full(square)
    ok &= localized.acyclic_fib == ArrowSet.full(square)

    weq = ArrowSet.from_labels(
        pentagon, [("0", "A"), ("0", "B"), ("0", "C"), ("A", "C")]
    )
    af = ArrowSet.from_labels(pentagon, [("0", "A"), ("0", "B"), ("0", "C")])
    pent_model = derive_classes(weq, af)
    g = pentagon.arrow("C", "1")
    left = left_localize(pent_model, g)
    ok &= left.weq == ArrowSet.full(pentagon) and left.acyclic_fib == af
    right = right_localize(pent_model, g)
    ok &= right.weq == ArrowSet.full(pentagon)
    ok &= (
        right.acyclic_fib.signature()
        == "{0->A, 0->B, 0->C, 0->1, B->1, C->1}"
    )
    _verdict(capsys, 8, "both worked localization examples reproduce exactly", ok)


def test_09_golden_route_matches_interval_search(capsys, pentagon):
    pairs = 0
    ok = True
    for model in enumerate_model_structures(pentagon):
        for f in pentagon.covers:
            if f in model.weq:
                continue
            pairs += 1
            new_w = right_localize(model, f).weq
            via_golden = generate_transfer(
                model.acyclic_fib | golden_arrow_set(model, f)
            )
            matches = [
                t
                for t in af_interval(new_w)
                if rlp_dual(llp_dual(t) & new_w) == model.fib
            ]
            ok &= len(matches) == 1 and matches[0] == via_golden
    ok &= pairs == 118
    _verdict(capsys, 9, "golden arrows match the fibration search, 118 pairs", ok)


def test_10_all_models_reachable_from_trivial(capsys, pentagon, square):
    ok = True
    for lat, total in ((pentagon, 70), (square, 23)):
        graph = localization_graph(lat)
        ok &= len(graph) == total
        ok &= len(reachable_from_trivial(graph)) == total
    _verdict(capsys, 10, "localization reaches all 70 and all 23 structures", ok)


def test_11_property_bundle(capsys, pentagon, grid21, corpus):
    violations = 0
    closures = (
        close_composition,
        close_pullback,
        close_pushout,
        close_two_out_of_three,
    )
    for lat in (pentagon, grid21):
        rng = random.Random(29)
        top = 1 << len(lat.arrows)
        for _ in range(1000):
            small = ArrowSet(lat, rng.randrange(top))
            large = small | ArrowSet(lat, rng.randrange(top))
            for close in closures:
                once = close(small)
                violations += not (small <= once and close(once) == once)
                violations += not once <= close(large)
    catalog = transfer_catalog(pentagon)
    for mask in range(256):
        aset = ArrowSet(pentagon, mask)
        want = (1 << 8) - 1
        for system in catalog:
            if aset <= system:
                want &= system.mask
        violations += generate_transfer(aset).mask != want
    for lat in corpus.values():
        shortness = all(
            g in lat.covers
            for f in lat.covers
            for g in pushouts_of(lat, f)
        )
        violations += is_modular(lat) != shortness
    _verdict(capsys, 11, "closure, duality, and modularity properties hold", violations == 0)
