"""Naive reference implementations used to cross-check the library.

Everything here trades speed for obviousness: plain dict/set relation
algebra, no bitmasks, and no caching but the one grouping that
least_localization keeps for the last lattice it saw.  Oracles operate
on (labels, leq) presentations or on frozensets of (source, target)
index pairs.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from latmod import (
    ArrowSet,
    ModelStructure,
    build_lattice,
    closed_sets,
    compose_sets,
    enumerate_model_structures,
    enumerate_weak_equivalence_sets,
    is_composition_closed,
    llp_dual,
    transfer_catalog,
)
from latmod.arrows import _tables

Pair = tuple[int, int]


def lower_bounds(n: int, leq: set[Pair], x: int, y: int) -> list[int]:
    return [z for z in range(n) if (z, x) in leq and (z, y) in leq]


def naive_meet(n: int, leq: set[Pair], x: int, y: int) -> int | None:
    """Greatest lower bound, or None if there is no unique one."""
    lows = lower_bounds(n, leq, x, y)
    tops = [z for z in lows if all((w, z) in leq for w in lows)]
    return tops[0] if len(tops) == 1 else None


def naive_join(n: int, leq: set[Pair], x: int, y: int) -> int | None:
    ups = [z for z in range(n) if (x, z) in leq and (y, z) in leq]
    bots = [z for z in ups if all((z, w) in leq for w in ups)]
    return bots[0] if len(bots) == 1 else None


def naive_covers(n: int, leq: set[Pair]) -> set[Pair]:
    out = set()
    for x in range(n):
        for y in range(n):
            if x == y or (x, y) not in leq:
                continue
            between = any(
                z != x and z != y and (x, z) in leq and (z, y) in leq
                for z in range(n)
            )
            if not between:
                out.add((x, y))
    return out


def naive_is_modular(n: int, leq: set[Pair]) -> bool:
    # x <= y  =>  x v (a ^ y) == (x v a) ^ y
    for x in range(n):
        for y in range(n):
            if (x, y) not in leq:
                continue
            for a in range(n):
                lhs = naive_join(n, leq, x, naive_meet(n, leq, a, y))
                rhs = naive_meet(n, leq, naive_join(n, leq, x, a), y)
                if lhs != rhs:
                    return False
    return True


def contains_pentagon(n: int, leq: set[Pair]) -> bool:
    """Whether some 5-element sublattice is a pentagon."""

    def meet(x: int, y: int) -> int | None:
        return naive_meet(n, leq, x, y)

    def join(x: int, y: int) -> int | None:
        return naive_join(n, leq, x, y)

    for o, a, b, c, i in permutations(range(n), 5):
        if (o, a) not in leq or (a, c) not in leq or (c, i) not in leq:
            continue
        if o == a or a == c or c == i:
            continue
        if (a, b) in leq or (b, a) in leq or (c, b) in leq or (b, c) in leq:
            continue
        if meet(a, b) != o or meet(c, b) != o:
            continue
        if join(a, b) != i or join(c, b) != i:
            continue
        return True
    return False


# ---------------------------------------------------------------------------
# arrow set oracles; arrows are (source, target) index pairs with
# source < target in the lattice order, never identities


def close_under(step, arrows: frozenset[Pair]) -> frozenset[Pair]:
    current = set(arrows)
    while True:
        extra = step(current) - current
        if not extra:
            return frozenset(current)
        current |= extra


def compose_close(leq: set[Pair], arrows: frozenset[Pair]) -> frozenset[Pair]:
    def step(current):
        return {
            (x, w)
            for (x, y) in current
            for (z, w) in current
            if y == z and x != w
        }

    return close_under(step, arrows)


def pullback_close(
    n: int, leq: set[Pair], meets, arrows: frozenset[Pair]
) -> frozenset[Pair]:
    def step(current):
        out = set()
        for x, y in current:
            for z in range(n):
                if (z, y) not in leq:
                    continue
                m = meets[x][z]
                if m != z:
                    out.add((m, z))
        return out

    return close_under(step, arrows)


def pushout_close(
    n: int, leq: set[Pair], joins, arrows: frozenset[Pair]
) -> frozenset[Pair]:
    def step(current):
        out = set()
        for x, y in current:
            for z in range(n):
                if (x, z) not in leq:
                    continue
                j = joins[z][y]
                if j != z:
                    out.add((z, j))
        return out

    return close_under(step, arrows)


def two_out_of_three_close(
    n: int, leq: set[Pair], arrows: frozenset[Pair]
) -> frozenset[Pair]:
    above = [[y for y in range(n) if y != x and (x, y) in leq] for x in range(n)]
    # every x < y < z, as its three arrows
    triples = [
        ((x, y), (y, z), (x, z))
        for x in range(n)
        for y in above[x]
        for z in above[y]
    ]

    def step(current):
        out = set()
        for triple in triples:
            present = [p for p in triple if p in current]
            if len(present) == 2:
                out.update(triple)
        return out

    return close_under(step, arrows)


def wide_decomposable_close(
    n: int, leq: set[Pair], arrows: frozenset[Pair]
) -> frozenset[Pair]:
    """Close under composition and under both legs of every factorization."""

    def step(current):
        out = set(compose_close(leq, frozenset(current)))
        for x, w in current:
            for y in range(n):
                if y not in (x, w) and (x, y) in leq and (y, w) in leq:
                    out |= {(x, y), (y, w)}
        return out

    return close_under(step, arrows)


def retract_close(
    n: int, leq: set[Pair], arrows: frozenset[Pair]
) -> frozenset[Pair]:
    """Add every retract a -> b of a member x -> y.

    The retract diagram needs maps a -> x -> a and b -> y -> b, that is
    a <= x <= a and b <= y <= b; its squares commute in any poset.
    """

    iso = [
        [a for a in range(n) if (a, x) in leq and (x, a) in leq] for x in range(n)
    ]

    def step(current):
        return {
            (a, b) for x, y in current for a in iso[x] for b in iso[y] if a != b
        }

    return close_under(step, arrows)


def naive_llp(
    all_arrows: list[Pair], leq: set[Pair], against: frozenset[Pair]
) -> frozenset[Pair]:
    """Arrows with the left lifting property against every member.

    An arrow a->b lifts on the left of x->y when every commuting square
    admits a diagonal, which in a poset reads: a <= x and b <= y imply
    b <= x.
    """
    out = set()
    for a, b in all_arrows:
        if all(
            not ((a, x) in leq and (b, y) in leq) or (b, x) in leq
            for x, y in against
        ):
            out.add((a, b))
    return frozenset(out)


def naive_rlp(
    all_arrows: list[Pair], leq: set[Pair], against: frozenset[Pair]
) -> frozenset[Pair]:
    out = set()
    for x, y in all_arrows:
        if all(
            not ((a, x) in leq and (b, y) in leq) or (b, x) in leq
            for a, b in against
        ):
            out.add((x, y))
    return frozenset(out)


def is_transfer_naive(
    n: int, leq: set[Pair], meets, arrows: frozenset[Pair]
) -> bool:
    return (
        compose_close(leq, arrows) == arrows
        and pullback_close(n, leq, meets, arrows) == arrows
    )


def all_transfer_systems_naive(
    n: int, leq: set[Pair], meets, all_arrows: list[Pair]
) -> list[frozenset[Pair]]:
    """Every transfer system by filtering all arrow subsets."""
    out = []
    m = len(all_arrows)
    for bits in range(1 << m):
        subset = frozenset(a for i, a in enumerate(all_arrows) if bits >> i & 1)
        if is_transfer_naive(n, leq, meets, subset):
            out.append(subset)
    return out


def generated_transfer_by_intersection(
    catalog: list[frozenset[Pair]], seed: frozenset[Pair]
) -> frozenset[Pair] | None:
    """Smallest catalog member containing the seed, by intersection."""
    containing = [s for s in catalog if seed <= s]
    if not containing:
        return None
    out = containing[0]
    for s in containing[1:]:
        out = out & s
    return frozenset(out)


def naive_is_weak_equivalence_set(
    n: int, leq: set[Pair], covers: set[Pair], meets, joins, weq: frozenset[Pair]
) -> bool:
    """The weak equivalence criterion, walking every maximal chain.

    weq must be composition closed and decomposable (both legs of every
    factorization of a member are members), and every member must have a
    maximal chain of covers with a pivot: the pushouts of the covers
    before it and the pullbacks of the covers after it are all members.
    """
    if compose_close(leq, weq) != weq:
        return False
    for x, z in weq:
        for y in range(n):
            if y not in (x, z) and (x, y) in leq and (y, z) in leq:
                if (x, y) not in weq or (y, z) not in weq:
                    return False

    def pushouts(c: Pair) -> set[Pair]:
        s, t = c
        out = {(z, joins[z][t]) for z in range(n) if (s, z) in leq}
        return {(a, b) for a, b in out if a != b} - {c}

    def pullbacks(c: Pair) -> set[Pair]:
        s, t = c
        out = {(meets[s][z], z) for z in range(n) if (z, t) in leq}
        return {(a, b) for a, b in out if a != b} - {c}

    def chains(s: int, t: int):
        if s == t:
            yield ()
            return
        for c in sorted(covers):
            if c[0] == s and (c[1], t) in leq:
                for rest in chains(c[1], t):
                    yield (c, *rest)

    def has_pivot(chain) -> bool:
        return any(
            all(pushouts(c) <= weq for c in chain[:p])
            and all(pullbacks(c) <= weq for c in chain[p:])
            for p in range(len(chain) + 1)
        )

    return all(any(has_pivot(ch) for ch in chains(s, t)) for s, t in weq)


# ---------------------------------------------------------------------------
# interval and axiom oracles: scans of the library's transfer and
# cotransfer catalogs and of its triangles, as masks


def lex_key(aset) -> int:
    """Sort key giving lexicographic order on membership bit vectors.

    Bit 0 (the first canonical arrow) is most significant, so the empty
    set sorts first and the full set last, and the order refines subset
    containment.  This is the canonical order of every enumeration.
    """
    m = len(aset.lattice.arrows)
    mask = aset.mask
    out = 0
    for i in range(m):
        out = out << 1 | (mask >> i & 1)
    return out


def union_inside(systems: list[int], weq: int) -> int:
    """Union of the systems contained in weq: t_max or k_max by definition."""
    union = 0
    for system in systems:
        if not system & ~weq:
            union |= system
    return union


def systems_between(systems: list[int], lo: int, hi: int) -> list[int]:
    """The systems T with lo <= T <= hi, in the catalog's order."""
    return [s for s in systems if not lo & ~s and not s & ~hi]


def hasse_covers_pairs(items, le) -> list[Pair]:
    """Cover pairs (i, j), row-major, comparing every pair i < j with le.

    The items are listed in a linear extension of le.  Row i is the mask
    of the j > i with le(items[i], items[j]); j covers i when no other
    member of row i has j in its own row.
    """
    above = [
        sum(1 << j for j in range(i + 1, len(items)) if le(a, items[j]))
        for i, a in enumerate(items)
    ]
    covers = []
    for i, row in enumerate(above):
        between = 0
        for k in range(len(items)):
            if row >> k & 1:
                between |= above[k]
        covers += [(i, j) for j in range(len(items)) if (row & ~between) >> j & 1]
    return covers


def lift_chunks(t) -> list[tuple]:
    """Every lifting chunk of the tables t as (offset, llp, rlp, role)."""
    return [(0, *t.lift_first), *t.lift_rest]


def lift_loop(t, mask: int, column: int) -> int:
    """llp (column 1) or rlp (column 2) of mask, one entry per chunk.

    Every chunk is read the same way, at its offset, starting from the
    full mask.
    """
    lift = t.full
    for chunk in lift_chunks(t):
        lift &= chunk[column][mask >> chunk[0] & t.chunk_bits]
    return lift


def verify_loop(model) -> bool:
    """verify_model_axioms with one loop over every chunk, the first too.

    The classes must share one lattice.  Same reads, identities and
    order of checks as the library.
    """
    lat, weq, af, cof, ac, fib = model
    t = _tables(lat)
    weq, af, cof, ac, fib = weq.mask, af.mask, cof.mask, ac.mask, fib.mask
    lift_af = lift_fib = lift_cof = lift_ac = t.full
    count = 0
    low = t.chunk_bits
    for s, llp, rlp, role in lift_chunks(t):
        lift_af &= llp[af >> s & low]
        lift_fib &= llp[fib >> s & low]
        lift_cof &= rlp[cof >> s & low]
        lift_ac &= rlp[ac >> s & low]
        count += role[weq >> s & low]
    if lift_af != cof or lift_cof != af or lift_fib != ac or lift_ac != fib:
        return False
    if af & ~weq or ac != cof & weq or af != fib & weq:
        return False
    return not count >> 1 & ~count & t.role_base


def two_of_three_pass(t, mask: int) -> int:
    """One pass completing every triangle that holds exactly two arrows.

    t is the lattice's closure tables (latmod.arrows._tables), whose
    triples give the triangles.  A set is closed under two-out-of-three
    exactly when the pass adds nothing.
    """
    for first, second, composite in t.triples:
        triangle = first | second | composite
        has = mask & triangle
        # exactly two of the three arrows: not all, and not at most one
        if has != triangle and has & (has - 1):
            mask |= triangle
    return mask


def cotransfer_walk(lat):
    """Every cotransfer system, from their own closed-set walk.

    The library lists them as the llp image of the transfer catalog; this
    walk shares nothing with the lifting tables or that bijection.
    """
    return closed_sets(lat, _tables(lat).cotransfer)


# ---------------------------------------------------------------------------
# localization oracles


class AmbiguousMinimum(Exception):
    """No unique smallest weak equivalence set contains the requested arrows."""


def smallest_weq_superset(lat, base):
    """The unique smallest weak equivalence set containing the ArrowSet base.

    A scan of the library's weak equivalence sets; raises AmbiguousMinimum
    when the minimal candidates are not unique.
    """
    candidates = [
        weq for weq in enumerate_weak_equivalence_sets(lat) if base <= weq
    ]
    minimal = [
        weq
        for weq in candidates
        if not any(other < weq for other in candidates)
    ]
    if len(minimal) != 1:
        raise AmbiguousMinimum(
            f"{len(minimal)} minimal weak equivalence sets contain "
            f"{base.signature()}"
        )
    return minimal[0]


def least_localization(model, f, side: str):
    """The least enumerated structure localizing model at f on one side.

    The candidates keep the model's cofibrations (left side) or its
    fibrations (right side) and have weak equivalences containing W and
    the arrow f, which lies outside W.  A kept class fixes the structure
    given W, so the candidates are ordered by W.  Returns the one least
    candidate, or "none" or "several" when there is no single least one.
    """
    lat = model.lattice
    kept = model.cof if side == "left" else model.fib
    base = model.weq | ArrowSet.of(lat, [f])
    candidates = [
        other
        for other in _structures_by_kept_class(lat)[side].get(kept, ())
        if base <= other.weq
    ]
    minimal = [
        c for c in candidates if not any(o.weq < c.weq for o in candidates)
    ]
    if not minimal:
        return "none"
    return minimal[0] if len(minimal) == 1 else "several"


@lru_cache(maxsize=1)
def _structures_by_kept_class(lat):
    # Per side, the enumerated structures grouped by the class that side
    # keeps, so that a sweep over one lattice scans each group alone.
    groups = {"left": {}, "right": {}}
    for model in enumerate_model_structures(lat):
        groups["left"].setdefault(model.cof, []).append(model)
        groups["right"].setdefault(model.fib, []).append(model)
    return groups


def naive_components(n: int, arrows: frozenset[Pair]) -> list[frozenset[int]]:
    """Blocks of elements joined by the arrows, ignoring direction."""
    block = {x: frozenset({x}) for x in range(n)}
    for x, y in arrows:
        merged = block[x] | block[y]
        for z in merged:
            block[z] = merged
    return [block[x] for x in range(n)]


def naive_golden_reports(
    n: int,
    leq: set[Pair],
    covers: set[Pair],
    old_weq: frozenset[Pair],
    new_weq: frozenset[Pair],
) -> list[tuple[Pair, tuple[int, ...], tuple[int, ...], frozenset[Pair]]]:
    """Golden arrow reports of a right localization, from the definition.

    One (cover, targets, sources, golden arrows) entry per cover that is
    in new_weq but not old_weq, in sorted cover order.  Targets are the
    maximal elements of the old block of the cover's target, sources the
    maximal elements of the old block of its source lying under some
    target, and the golden arrows pair comparable sources and targets.
    """
    block = naive_components(n, old_weq)

    def maximal(elems: list[int]) -> list[int]:
        return [
            x
            for x in elems
            if not any(x != y and (x, y) in leq for y in elems)
        ]

    reports = []
    for cover in sorted(covers):
        if cover not in new_weq or cover in old_weq:
            continue
        s, t = cover
        targets = maximal(sorted(block[t]))
        under = [
            y for y in sorted(block[s]) if any((y, z) in leq for z in targets)
        ]
        sources = maximal(under)
        golden = frozenset(
            (a, b) for a in sources for b in targets if a != b and (a, b) in leq
        )
        reports.append((cover, tuple(targets), tuple(sources), golden))
    return reports


def naive_composites(
    upper: frozenset[Pair], lower: frozenset[Pair]
) -> frozenset[Pair]:
    """Both sets and every composite g o f with f in lower, g in upper."""
    return upper | lower | {
        (x, w) for x, y in lower for z, w in upper if y == z
    }


def naive_localize_weq(
    n: int,
    leq: set[Pair],
    meets,
    joins,
    classes: tuple[frozenset[Pair], frozenset[Pair], frozenset[Pair]],
    f: Pair,
    side: str,
) -> frozenset[Pair]:
    """Localized weak equivalences, every class regenerated each round.

    classes is (W, AF, AC).  Each round generates the moving class (AF on
    the right, AC on the left) from scratch out of its old members and the
    new weak equivalences, composes it with the other acyclic class, and
    closes the result under two-out-of-three; it stops when W is unchanged.
    """
    weq, af, ac = classes

    def generate(arrows):
        # the smallest (co)transfer system containing the arrows
        if side == "right":
            return pullback_close(n, leq, meets, arrows) | compose_close(leq, arrows)
        return pushout_close(n, leq, joins, arrows) | compose_close(leq, arrows)

    moving = af if side == "right" else ac
    fresh = frozenset({f})
    # Each productive round adds an arrow, so this many rounds suffice.
    for _ in range(len(leq) + 1):
        moving = close_under(generate, moving | fresh)
        if side == "right":
            grown = naive_composites(moving, ac)
        else:
            grown = naive_composites(af, moving)
        grown = two_out_of_three_close(n, leq, grown)
        if grown == weq:
            return weq
        fresh = grown - weq
        weq = grown
    raise RuntimeError("naive localization did not stabilize")


def naive_local_closure(
    n: int,
    leq: set[Pair],
    meets,
    joins,
    weq: frozenset[Pair],
    f: Pair,
    side: str,
) -> frozenset[Pair]:
    """Localized weak equivalences from W alone, with no AF or AC.

    Starts from W and f, and repeats V <- 2oo3(V | P(V - W)) until V
    stops growing, where P takes pullbacks on the right and pushouts on
    the left.
    """

    def grab(arrows):
        if side == "right":
            return pullback_close(n, leq, meets, arrows)
        return pushout_close(n, leq, joins, arrows)

    current = weq | {f}
    while True:
        grown = two_out_of_three_close(n, leq, current | grab(current - weq))
        if grown == current:
            return current
        current = grown


def opposite(lat):
    """The opposite lattice: the same labels with every cover reversed."""
    labels = lat.labels
    return build_lattice(labels, [(labels[t], labels[s]) for s, t in lat.covers])


# ---------------------------------------------------------------------------
# premodel structures


def premodel_tiers(lat):
    """The premodel structures of lat, and the two tiers inside them.

    Every nested pair AF <= F of transfer systems is a premodel structure
    with C = llp(AF), AC = llp(F) and W = AF o AC.  Returns three lists of
    ModelStructure records, in catalog order of (F, AF):
      - every premodel structure;
      - those whose W is closed under composition;
      - those whose W is also closed under two-out-of-three, found by
        two_of_three_pass: the model structures.
    Nothing here reads the weak equivalence criterion, t_min, t_max or
    the intervals.
    """
    t = _tables(lat)
    systems = list(transfer_catalog(lat))
    lifts = [llp_dual(s) for s in systems]
    premodels, closed, models = [], [], []
    for fib, ac in zip(systems, lifts):
        for af, cof in zip(systems, lifts):
            if not af <= fib:
                continue
            weq = compose_sets(af, ac)
            model = ModelStructure(lat, weq, af, cof, ac, fib)
            premodels.append(model)
            if is_composition_closed(weq):
                closed.append(model)
                if two_of_three_pass(t, weq.mask) == weq.mask:
                    models.append(model)
    return premodels, closed, models
