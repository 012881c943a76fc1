"""Left and right Bousfield localization of lattice model structures.

Localizing at an arrow enlarges the weak equivalences by a closure that
reads W alone: two-out-of-three, plus the pullbacks (right) or pushouts
(left) of the new arrows.  Right localization keeps the fibrations F, so
its acyclic fibrations are W' & F; left localization keeps the
cofibrations (and so the acyclic fibrations) untouched.  Golden arrows
report the acyclic fibrations a right localization at a cover adds; the
tests check that, with the old ones, they generate W' & F.  W' depends
on (W, arrow, side) alone, so each lattice keeps one shared localization
map (W, arrow, side) -> W' that the graph and single calls fill and read:
the closure runs once per triple.  Golden reports are kept per (W, cover).
A single localization's target reads W, the arrow and one more mask, the
key: F on the right and AF on the left.  So each side keeps a target map
W -> key -> a row of targets, one entry per arrow, that only single calls
fill and read: one row of m entries per (W, key) a call touched, which the
graph never builds.  Once W' reads the kept class, the left key must hold
C as well.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

from .arrows import ArrowSet, _Tables, _tables
from .errors import FixpointError, NotShort, UnknownLabel
from .lattice import Arrow, FiniteLattice, _bits, _union_rows
from .models import (
    ModelStructure,
    derive_classes,
    enumerate_model_structures,
)


def weq_components(weq: ArrowSet) -> tuple[tuple[int, ...], ...]:
    """Blocks of elements connected by weak equivalences, sorted by minimum."""
    return tuple(
        tuple(_bits(block))
        for x, block in enumerate(_blocks(weq))
        if block & -block == 1 << x
    )


def _blocks(weq: ArrowSet) -> list[int]:
    # Element masks, the block of each element: each element starts in
    # a block of its own, and each weq arrow whose ends lie in different
    # blocks merges them, setting every element of the union to it.
    blocks = [1 << x for x in range(weq.lattice.n)]
    arrows = weq.lattice.arrows
    for k in _bits(weq.mask):
        a, b = arrows[k]
        if not blocks[a] >> b & 1:
            union = blocks[a] | blocks[b]
            for y in _bits(union):
                blocks[y] = union
    return blocks


class GoldenArrowReport(NamedTuple):
    """Golden arrows contributed by one newly weakly-equivalent cover."""

    new_weq: Arrow
    targets: tuple[int, ...]
    sources: tuple[int, ...]
    golden: ArrowSet


def golden_arrows(
    model: ModelStructure, f: Arrow
) -> tuple[GoldenArrowReport, ...]:
    """Golden arrow reports for right localization at a short arrow.

    For each cover made newly weakly equivalent, targets are the maximal
    elements of the old component of its target, sources the maximal
    elements of the old component of its source lying under some target,
    and the golden arrows pair them up (incomparable pairs are dropped).
    Localizing at an existing weak equivalence yields no reports.  The
    reports depend on (W, cover) alone: the lattice keeps a row per W,
    whose entry k holds them once arrow k has passed the checks (None
    until then), so a warm call reads the entry before any check.
    """
    lat, weq = model.lattice, model.weq
    try:
        reports = lat._cache["golden"][weq.mask][lat.arrow_position[f]]
    except (KeyError, TypeError):  # no row for W, or f no hashable arrow
        reports = None
    if reports is not None:
        return reports
    try:
        k = lat.arrow_index(f)
    except UnknownLabel as err:
        raise NotShort(f"{err}, so not a cover") from None
    if not _tables(lat).cover_mask >> k & 1:
        raise NotShort(f"{lat.arrow_name(lat.arrows[k])} is not a cover")
    row = lat._cache["golden"].setdefault(weq.mask, [None] * len(lat.arrows))
    if row[k] is None:
        row[k] = () if weq.mask >> k & 1 else _golden_reports(weq, k)
    return row[k]


def _golden_reports(weq: ArrowSet, k: int) -> tuple[GoldenArrowReport, ...]:
    # Element sets are int masks over element indices; bit order is
    # index order, so targets and sources come out ascending.
    lat = weq.lattice
    t = _tables(lat)
    new_weq = _localized_weq(lat, weq.mask, k, "right")
    blocks = _blocks(weq)
    arrows, pos = lat.arrows, lat.arrow_position
    reports: list[GoldenArrowReport] = []
    for c in _bits(new_weq & ~weq.mask & t.cover_mask):
        sigma = arrows[c]
        targets = _maximal(t, blocks[sigma.target])
        under = blocks[sigma.source] & (targets | _union_rows(t.down, targets))
        sources = _maximal(t, under)
        golden = 0
        for s in _bits(sources):
            for y in _bits(t.up[s] & targets):
                golden |= 1 << pos[s, y]
        reports.append(
            GoldenArrowReport(
                sigma,
                tuple(_bits(targets)),
                tuple(_bits(sources)),
                ArrowSet(lat, golden),
            )
        )
    return tuple(reports)


def _maximal(t, elems: int) -> int:
    return elems & ~_union_rows(t.down, elems)


def golden_arrow_set(model: ModelStructure, f: Arrow) -> ArrowSet:
    """Union of all golden arrows for right localization at f."""
    out = ArrowSet.empty(model.lattice)
    for report in golden_arrows(model, f):
        out |= report.golden
    return out


def _localized_weq(lat: FiniteLattice, weq: int, k: int, side: str) -> int:
    # The lattice's one localization map (W, arrow, side) -> W', laid out
    # per side as W -> a row whose entry k is W' at arrow k, 0 until that
    # closure has run (W' holds arrow k, so it is never 0).
    rows = lat._cache["localized_weq"][side]
    row = rows.get(weq)
    if row is None:
        row = rows[weq] = [0] * len(lat.arrows)
    new_weq = row[k]
    if not new_weq:
        new_weq = row[k] = _weq_fixpoint(_tables(lat), weq, k, side)
    return new_weq


def _weq_fixpoint(t: _Tables, weq: int, k: int, side: str) -> int:
    """The localized weak equivalences of W = weq at arrow k, as a mask.

    The least V containing W and arrow k that is closed under
    two-out-of-three and holds the pullbacks (right side) or pushouts
    (left side) of every arrow in V - W.  It reads W alone, not AF or AC.

    It equals the two-class definition, whose rounds regenerate the
    moving class (AF on the right, AC on the left) from the new weak
    equivalences and reclose the composite class under two-out-of-three.
    On the right, let Y be f with every fresh arrow so far and P(Y) their
    pullbacks (the left side is dual, with pushouts and AF, AC swapped):
      1. AF is a transfer system, so the round's moving class is
         M = CC(AF | Y | P(Y)), CC the composition closure;
      2. a set closed under two-out-of-three is closed under composition;
      3. W = AF o AC: factor w in W as a cofibration then an acyclic
         fibration, and two-out-of-three makes the cofibration weak.
    So a round computes 2oo3(AC | M | M o AC) = 2oo3(W | Y | P(Y)):
    AC and AF lie in W and the rest are composites of members of
    W | Y | P(Y), and W = AF o AC lies in M o AC while Y | P(Y) lies in
    M.  After round r, Y = W_r - W, so the rounds are
    W_{r+1} = 2oo3(W_r | P(W_r - W)) from W_0 = W | {f}.  V is not always
    the least localization: the least W of a model structure with the
    kept class (C left, F right) that holds W and f.  On grid2x1, left at
    (0,0)->(1,0) from W = AF = {(1,0)->(2,0)}, V pushes out the new
    (0,0)->(2,0), no cofibration, and so gains (0,1)->(2,1) and
    (1,1)->(2,1), which the least localization lacks.

    W is already closed under two-out-of-three, so this is one run of
    the side's localization kernel t.localize[side] from W with arrow k
    new: its two-out-of-three rules fire only on triangles through new
    arrows, and each new arrow adds its pullback (pushout) row.
    """
    return t.localize[side](weq, 1 << k)


def _not_kept(model: ModelStructure, f: Arrow, side: str) -> FixpointError:
    # Right localization keeps the fibrations, left the cofibrations.
    name = model.lattice.arrow_name(f)
    kept = "fibrations" if side == "right" else "cofibrations"
    return FixpointError(
        f"{side} localization of W={model.weq.signature()} at {name}: "
        f"failed to preserve {kept}"
    )


def _localizer(
    side: str, doc: str
) -> Callable[[ModelStructure, Arrow], ModelStructure]:
    # The side's localization, with the side and the class it keeps bound,
    # so a warm call is this one frame and compares no string.  Models are
    # read by field index, cheaper than by name on a NamedTuple.  The
    # target map is keyed by F on the right and AF on the left because
    # those are the only masks besides W that the target reads (AF' =
    # W' & F, or AF' = AF).  The left key does not hold the kept class C,
    # so every call, hit or miss, still compares it.
    right = side == "right"
    lattice, weq, af, keeps = map(
        ModelStructure._fields.index,
        ("lattice", "weq", "acyclic_fib", "fib" if right else "cof"),
    )

    def localize(model: ModelStructure, f: Arrow) -> ModelStructure:
        lat, w = model[lattice], model[weq].mask
        try:
            k = lat.arrow_position[f]
        except (KeyError, TypeError):  # not an arrow, or unhashable
            k = lat.arrow_index(f)
        if w >> k & 1:
            return model
        kept = model[keeps].mask
        key = kept if right else model[af].mask
        try:
            localized = lat._cache["localized"][side][w][key][k]
        except KeyError:  # no row for (W, key) yet
            localized = None
        if localized is None:
            new_weq = _localized_weq(lat, w, k, side)
            new_af = new_weq & key if right else key
            try:
                localized = lat._cache["model_tables"][new_weq][new_af]
            except KeyError:  # no table for W', or no AF' in it
                localized = derive_classes(
                    ArrowSet(lat, new_weq), ArrowSet(lat, new_af)
                )
            rows = lat._cache["localized"][side].setdefault(w, {})
            row = rows.get(key)
            if row is None:
                row = rows[key] = [None] * len(lat.arrows)
            row[k] = localized
        if localized[keeps].mask != kept:
            raise _not_kept(model, lat.arrows[k], side)
        return localized

    localize.__name__ = localize.__qualname__ = f"{side}_localize"
    localize.__doc__ = doc
    return localize


right_localize = _localizer(
    "right",
    """Right Bousfield localization at f; fibrations are preserved.

    It keeps F, so AF' = W' & F for the localized weak equivalences W',
    which are not always the least localization's (see _weq_fixpoint).
    """,
)
left_localize = _localizer(
    "left",
    """Left Bousfield localization at f; cofibrations and AF are preserved.

    Its W' is not always the least localization's (see _weq_fixpoint).
    """,
)


# ---------------------------------------------------------------------------
# the localization graph


class LocalizationEdge(NamedTuple):
    src: int
    dst: int
    side: str
    at: Arrow


class LocalizationGraph:
    """All model structures with left and right localization edges.

    Graphs compare by identity, like lattices.
    """

    def __init__(
        self,
        structures: tuple[ModelStructure, ...],
        edges: tuple[LocalizationEdge, ...],
        trivial_index: int,
    ) -> None:
        self.structures = structures
        self.edges = edges
        self.trivial_index = trivial_index

    def __len__(self) -> int:
        return len(self.structures)


def localization_graph(lat: FiniteLattice) -> LocalizationGraph:
    """Build the localization graph over every model structure.

    Edges localize at covers outside the weak equivalences only; a cover
    already weakly equivalent gives the identity localization, so no self
    loops appear.  The localized weak equivalences depend on (W, cover,
    side) alone, so the loop runs by W: it reads each W' once from the
    lattice's shared localization map (filling it on a miss, for single
    localizations and golden reports to read), then walks W's models.
    Each edge reads its target by the key (W', AF'): AF' = W' & F on the
    right, the old AF on the left.  The enumeration holds exactly the
    pairs derive_classes admits, so a key it lacks is derived with the
    check on, which raises the error that derivation gives.  Edges come
    out ordered by source, side, arrow index, as the models are ordered
    by W and each W's moves by side and arrow.  An edge's target is not
    always the least localization (see _weq_fixpoint).
    """
    structures = enumerate_model_structures(lat)
    # Per W mask, each AF mask's index in the enumeration, in order.
    index: dict[int, dict[int, int]] = {}
    for i, model in enumerate(structures):
        index.setdefault(model.weq.mask, {})[model.acyclic_fib.mask] = i
    # The class each side keeps: the fibrations on the right, the
    # cofibrations on the left, as masks by structure index.
    fibs = [model.fib.mask for model in structures]
    keeps = {"left": [model.cof.mask for model in structures], "right": fibs}
    arrows = lat.arrows
    covers = list(_bits(_tables(lat).cover_mask))
    edges: list[LocalizationEdge] = []
    for weq, members in index.items():
        moves = []
        for side in ("left", "right"):
            for k in covers:
                if not weq >> k & 1:
                    new_weq = _localized_weq(lat, weq, k, side)
                    targets = index.get(new_weq, {})
                    moves.append((side, k, new_weq, targets, keeps[side]))
        for af, i in members.items():
            for side, k, new_weq, targets, kept in moves:
                new_af = new_weq & fibs[i] if side == "right" else af
                j = targets.get(new_af)
                if j is None:
                    derive_classes(ArrowSet(lat, new_weq), ArrowSet(lat, new_af))
                    j = index[new_weq][new_af]
                if kept[j] != kept[i]:
                    raise _not_kept(structures[i], arrows[k], side)
                edges.append(LocalizationEdge(i, j, side, arrows[k]))
    # Canonical order puts W = AF = {} first: the trivial structure.
    return LocalizationGraph(structures, tuple(edges), 0)


def reachable_from_trivial(graph: LocalizationGraph) -> frozenset[int]:
    """Indices of structures reachable from the trivial one by localizations."""
    targets: list[list[int]] = [[] for _ in graph.structures]
    for e in graph.edges:
        targets[e.src].append(e.dst)
    seen = {graph.trivial_index}
    todo = [*seen]
    while todo:
        for nxt in targets[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return frozenset(seen)


def is_weakly_connected(graph: LocalizationGraph) -> bool:
    """Whether the graph is connected when edge directions are ignored."""
    # Union-find with path halving: an edge whose ends have different
    # roots joins two parts.
    parent = list(range(len(graph.structures)))
    parts = len(parent)
    for a, b, _, _ in graph.edges:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            parts -= 1
    return parts <= 1
