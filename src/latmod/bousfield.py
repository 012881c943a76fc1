"""Left and right Bousfield localization of lattice model structures.

Localizing at an arrow enlarges the weak equivalences by a fixpoint
construction.  Right localization keeps the fibrations F, so its acyclic
fibrations are W' & F; left localization keeps the cofibrations (and so
the acyclic fibrations) untouched.  Golden arrows report the acyclic
fibrations a right localization at a cover adds; the tests check that,
with the old ones, they generate W' & F.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .arrows import (
    ArrowSet,
    _tables,
    _union_rows,
    close_two_out_of_three,
    compose_sets,
    generate_cotransfer,
    generate_transfer,
)
from .errors import AmbiguousMinimum, FixpointError, NotShort
from .lattice import Arrow, FiniteLattice, _bits
from .models import (
    ModelStructure,
    derive_classes,
    enumerate_model_structures,
    enumerate_weak_equivalence_sets,
)


def weq_components(weq: ArrowSet) -> tuple[tuple[int, ...], ...]:
    """Blocks of elements connected by weak equivalences, sorted by minimum."""
    linked = _linked(weq)
    blocks: list[tuple[int, ...]] = []
    seen = 0
    for x in range(weq.lattice.n):
        if not seen >> x & 1:
            block = _block(linked, x)
            seen |= block
            blocks.append(tuple(_bits(block)))
    return tuple(blocks)


def _linked(weq: ArrowSet) -> list[int]:
    # Element masks: each element with its neighbours along weq arrows.
    linked = [1 << x for x in range(weq.lattice.n)]
    arrows = weq.lattice.arrows
    for k in _bits(weq.mask):
        a, b = arrows[k]
        linked[a] |= 1 << b
        linked[b] |= 1 << a
    return linked


def _block(linked: list[int], x: int) -> int:
    # Element mask of the block of x, grown breadth first.
    block = frontier = 1 << x
    while frontier:
        grown = _union_rows(linked, frontier)
        frontier = grown & ~block
        block |= grown
    return block


@dataclass(frozen=True)
class GoldenArrowReport:
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
    Localizing at an existing weak equivalence yields no reports.
    """
    return _golden_reports(model, _cover_weq(model, f))


def _cover_weq(model: ModelStructure, f: Arrow) -> ArrowSet:
    # The weak equivalences after right localization at the cover f.
    lat = model.lattice
    if f not in lat.covers:
        raise NotShort(f"{lat.arrow_name(f)} is not a cover")
    if f in model.weq:
        return model.weq
    return _localize_weq(model, f, side="right")


def _golden_reports(
    model: ModelStructure, new_weq: ArrowSet
) -> tuple[GoldenArrowReport, ...]:
    # Element sets are int masks over element indices; bit order is
    # index order, so targets and sources come out ascending.
    lat = model.lattice
    t = _tables(lat)
    new_covers = new_weq.mask & ~model.weq.mask & t.cover_mask
    if not new_covers:
        return ()
    linked = _linked(model.weq)
    arrows, pos = lat.arrows, lat.arrow_position
    reports: list[GoldenArrowReport] = []
    for k in _bits(new_covers):
        sigma = arrows[k]
        targets = _maximal(t, _block(linked, sigma.target))
        under = sum(
            1 << y
            for y in _bits(_block(linked, sigma.source))
            if (t.up[y] | 1 << y) & targets
        )
        sources = _maximal(t, under)
        golden = 0
        for s in _bits(sources):
            for y in _bits(t.up[s] & targets):
                golden |= 1 << pos[Arrow(s, y)]
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
    out = 0
    for x in _bits(elems):
        if not t.up[x] & elems:
            out |= 1 << x
    return out


def golden_arrow_set(model: ModelStructure, f: Arrow) -> ArrowSet:
    """Union of all golden arrows for right localization at f."""
    out = ArrowSet.empty(model.lattice)
    for report in golden_arrows(model, f):
        out |= report.golden
    return out


def _localize_weq(model: ModelStructure, f: Arrow, side: str) -> ArrowSet:
    """Fixpoint computation of the localized weak equivalences.

    Alternates between generating the moving class from the newly added
    weak equivalences and reclosing the composite class under
    two-out-of-three, until the weak equivalences stop growing.
    """
    lat = model.lattice
    moving = model.acyclic_fib if side == "right" else model.acyclic_cof
    fresh = ArrowSet.of(lat, [f])
    weq = model.weq
    for _ in range(len(lat.arrows) + 1):
        if side == "right":
            moving = generate_transfer(moving | fresh)
            grown = compose_sets(moving, model.acyclic_cof)
        else:
            moving = generate_cotransfer(moving | fresh)
            grown = compose_sets(model.acyclic_fib, moving)
        grown = close_two_out_of_three(grown)
        if grown.mask == weq.mask:
            return weq
        if weq.mask & ~grown.mask:
            raise FixpointError("localized weak equivalences shrank")
        fresh = grown - weq
        weq = grown
    raise FixpointError("weak equivalence fixpoint did not stabilize")


def right_localize(model: ModelStructure, f: Arrow) -> ModelStructure:
    """Right Bousfield localization at f; fibrations are preserved.

    The localization keeps F, so its acyclic fibrations are W' & F for
    the localized weak equivalences W'.
    """
    f = Arrow(*f)
    if f in model.weq:
        return model
    new_weq = _localize_weq(model, f, side="right")
    localized = derive_classes(new_weq, new_weq & model.fib)
    if localized.fib.mask != model.fib.mask:
        raise FixpointError("right localization failed to preserve fibrations")
    return localized


def left_localize(model: ModelStructure, f: Arrow) -> ModelStructure:
    """Left Bousfield localization at f; cofibrations and AF are preserved."""
    f = Arrow(*f)
    if f in model.weq:
        return model
    new_weq = _localize_weq(model, f, side="left")
    localized = derive_classes(new_weq, model.acyclic_fib)
    if localized.cof.mask != model.cof.mask:
        raise FixpointError("left localization failed to preserve cofibrations")
    return localized


# ---------------------------------------------------------------------------
# the localization graph


@dataclass(frozen=True)
class LocalizationEdge:
    src: int
    dst: int
    side: str
    at: Arrow


@dataclass(frozen=True)
class LocalizationGraph:
    """All model structures with left and right localization edges."""

    structures: tuple[ModelStructure, ...]
    edges: tuple[LocalizationEdge, ...]
    trivial_index: int

    def __len__(self) -> int:
        return len(self.structures)

    @cached_property
    def _successors(self) -> tuple[tuple[int, ...], ...]:
        # Edge targets per source, in edge order, duplicates kept.
        out: list[list[int]] = [[] for _ in self.structures]
        for e in self.edges:
            out[e.src].append(e.dst)
        return tuple(map(tuple, out))

    @cached_property
    def _undirected(self) -> tuple[frozenset[int], ...]:
        out: list[set[int]] = [set(succ) for succ in self._successors]
        for src, succ in enumerate(self._successors):
            for dst in succ:
                out[dst].add(src)
        return tuple(map(frozenset, out))

    def neighbours(self, i: int) -> Iterator[int]:
        return iter(self._successors[i])


def localization_graph(lat: FiniteLattice) -> LocalizationGraph:
    """Build the localization graph over every model structure.

    Edges localize at covers outside the weak equivalences only; a cover
    already weakly equivalent gives the identity localization, so no self
    loops appear.
    """
    structures = enumerate_model_structures(lat)
    position = {m.key(): i for i, m in enumerate(structures)}
    trivial = position[(0, 0)]
    arrow_pos = lat.arrow_position
    edges: list[LocalizationEdge] = []
    for i, model in enumerate(structures):
        for f in lat.covers:
            if f in model.weq:
                continue
            for side, op in (("left", left_localize), ("right", right_localize)):
                target = op(model, f)
                edges.append(
                    LocalizationEdge(i, position[target.key()], side, f)
                )
    edges.sort(key=lambda e: (e.src, e.side, arrow_pos[e.at], e.dst))
    return LocalizationGraph(structures, tuple(edges), trivial)


def _search(adjacency, start: int) -> frozenset[int]:
    seen = {start}
    queue = deque(seen)
    while queue:
        for nxt in adjacency[queue.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


def reachable_from_trivial(graph: LocalizationGraph) -> frozenset[int]:
    """Indices of structures reachable from the trivial one by localizations."""
    return _search(graph._successors, graph.trivial_index)


def is_weakly_connected(graph: LocalizationGraph) -> bool:
    """Whether the graph is connected when edge directions are ignored."""
    if not graph.structures:
        return True
    return len(_search(graph._undirected, 0)) == len(graph)


def smallest_weq_superset(lat: FiniteLattice, base: ArrowSet) -> ArrowSet:
    """The unique smallest weak equivalence set containing the given arrows.

    Raises AmbiguousMinimum when the minimal candidates are not unique;
    used as an independent check on the localization fixpoints.
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
