"""Finite lattices with explicit order, meet, and join tables.

Elements are integer indices 0..n-1 in a fixed linear extension of the
order, so x <= y implies index(x) <= index(y).  Ties in the topological
sort are broken by input label order, which makes element numbering (and
everything downstream of it) deterministic.
"""
from __future__ import annotations

import heapq
from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from typing import Any, NamedTuple

from .errors import CycleError, DuplicateLabel, NotALattice, UnknownLabel


class Arrow(NamedTuple):
    """A non-identity relation x < y, stored as a pair of element indices."""

    source: int
    target: int


class FiniteLattice:
    """Immutable finite lattice.

    Construct with :func:`build_lattice`, :func:`chain`, :func:`n5` or
    :func:`product`; the constructor itself trusts its arguments.
    Instances compare by identity.  Catalogs and tables computed from a
    lattice are kept on it (see :func:`_cached`) and freed with it.
    """

    def __init__(
        self,
        labels: Sequence[str],
        up: Sequence[int],
        meet_table: Sequence[Sequence[int]],
        join_table: Sequence[Sequence[int]],
    ) -> None:
        self.n = len(labels)
        self.labels: tuple[str, ...] = tuple(labels)
        # up[x] is an element mask: bit y is set exactly when x <= y.
        self._up: tuple[int, ...] = tuple(up)
        self._meet = tuple(map(tuple, meet_table))
        self._join = tuple(map(tuple, join_table))
        self._label_pos = {lab: i for i, lab in enumerate(self.labels)}
        # Plain attributes, as a cached property's write to __dict__ slows
        # every later attribute read: the non-identity relations in
        # (source, target) order, their positions, and the covers.
        self.arrows = tuple(
            Arrow(s, t) for s, row in enumerate(up) for t in _bits(row) if s != t
        )
        self.arrow_position = {f: i for i, f in enumerate(self.arrows)}
        self.covers = tuple(
            Arrow(*st)
            for st in hasse_covers([row & ~(1 << x) for x, row in enumerate(up)])
        )
        # Kept computations (see _cached), and per W kind one dict keyed by
        # W's mask, that warm queries read directly.
        self._cache: dict[Hashable, Any] = {
            "model_tables": {}, "golden": {},
            "localized_weq": {"left": {}, "right": {}}}

    # Identity-based equality: lattices are immutable and shared by reference.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"FiniteLattice(n={self.n}, labels={list(self.labels)})"

    # -- order ----------------------------------------------------------

    def le(self, x: int, y: int) -> bool:
        """True when x <= y in the lattice order."""
        return bool(self._up[x] >> y & 1)

    def lt(self, x: int, y: int) -> bool:
        return x != y and bool(self._up[x] >> y & 1)

    def meet(self, x: int, y: int) -> int:
        return self._meet[x][y]

    def join(self, x: int, y: int) -> int:
        return self._join[x][y]

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return self.n - 1

    # -- labels ---------------------------------------------------------

    def label(self, x: int) -> str:
        return self.labels[x]

    def index_of(self, label: str) -> int:
        try:
            return self._label_pos[label]
        except KeyError:
            raise UnknownLabel(f"no element labelled {label!r}") from None

    def arrow(self, source_label: str, target_label: str) -> Arrow:
        """Resolve a label pair to an Arrow, checking comparability."""
        s = self.index_of(source_label)
        t = self.index_of(target_label)
        self._check_relation(s, t)
        return Arrow(s, t)

    def arrow_index(self, f: tuple[int, int]) -> int:
        """Position of f = (source, target) in `arrows`.

        Raises UnknownLabel, worded like `arrow`, when f names no arrow,
        including when f is not a pair at all.
        """
        try:
            return self.arrow_position[f]
        except (KeyError, TypeError):  # no arrow, or an unhashable f
            pass
        try:
            s, t = f
        except (TypeError, ValueError):
            raise UnknownLabel(f"{f!r} is not a pair of element indices") from None
        for x in (s, t):
            if not (isinstance(x, int) and 0 <= x < self.n):
                raise UnknownLabel(f"no element with index {x!r}")
        k = self.arrow_position.get((s, t))
        if k is None:
            self._check_relation(s, t)
        return k

    def _check_relation(self, s: int, t: int) -> None:
        a, b = self.labels[s], self.labels[t]
        if s == t:
            raise UnknownLabel(f"identity {a!r} -> {b!r} is not an arrow")
        if not self.le(s, t):
            raise UnknownLabel(f"{a!r} -> {b!r} is not a relation")

    def arrow_name(self, f: Arrow) -> str:
        return f"{self.labels[f.source]}->{self.labels[f.target]}"


# ---------------------------------------------------------------------------
# construction


def build_lattice(
    labels: Iterable[str], covers: Iterable[tuple[str, str]]
) -> FiniteLattice:
    """Build and validate a lattice from labels and generating relations.

    The relations are closed reflexively and transitively; the pairs do
    not have to be covers (redundant relations are harmless).  Raises
    DuplicateLabel, UnknownLabel, CycleError, or NotALattice.
    """
    labels = list(labels)
    if not labels:
        raise NotALattice("a lattice needs at least one element")
    pos: dict[str, int] = {}
    for i, lab in enumerate(labels):
        if pos.setdefault(lab, i) != i:
            raise DuplicateLabel(f"label {lab!r} appears twice")

    n = len(labels)
    succ: list[set[int]] = [set() for _ in range(n)]
    for a, b in covers:
        for lab in (a, b):
            if lab not in pos:
                raise UnknownLabel(f"cover refers to unknown label {lab!r}")
        if a != b:
            succ[pos[a]].add(pos[b])

    order = _topological_order(n, succ)
    rank = {orig: new for new, orig in enumerate(order)}

    # Successors rank higher, so one pass from the top closes the order.
    up = [0] * n
    for x in reversed(range(n)):
        row = 1 << x
        for b in succ[order[x]]:
            row |= up[rank[b]]
        up[x] = row

    new_labels = [labels[orig] for orig in order]
    meet, join = _meet_join_tables(up, new_labels)
    return FiniteLattice(new_labels, up, meet, join)


def _topological_order(n: int, succ: list[set[int]]) -> list[int]:
    # Kahn's algorithm with a min-heap on input position, so the returned
    # linear extension is the canonical one.
    indeg = [0] * n
    for bs in succ:
        for b in bs:
            indeg[b] += 1
    heap = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        a = heapq.heappop(heap)
        order.append(a)
        for b in succ[a]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(heap, b)
    if len(order) < n:
        raise CycleError("cover relation contains a directed cycle")
    return order


def _meet_join_tables(
    up: Sequence[int], labels: Sequence[str]
) -> tuple[list[list[int]], list[list[int]]]:
    n = len(up)
    down = [sum(1 << x for x in range(n) if up[x] >> y & 1) for y in range(n)]
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x, n):
            lows = down[x] & down[y]
            # In a linear extension, a greatest lower bound must be the
            # highest-index common lower bound.
            g = lows.bit_length() - 1
            if g < 0 or lows & ~down[g]:
                raise NotALattice(
                    f"elements {labels[x]!r} and {labels[y]!r} have no meet"
                )
            ups = up[x] & up[y]
            l = (ups & -ups).bit_length() - 1
            if l < 0 or ups & ~up[l]:
                raise NotALattice(
                    f"elements {labels[x]!r} and {labels[y]!r} have no join"
                )
            meet[x][y] = meet[y][x] = g
            join[x][y] = join[y][x] = l
    return meet, join


def chain(n: int) -> FiniteLattice:
    """The total order 0 < 1 < ... < n."""
    labels = [str(i) for i in range(n + 1)]
    return build_lattice(labels, [(str(i), str(i + 1)) for i in range(n)])


def n5() -> FiniteLattice:
    """The pentagon: 0 < A < C < 1 and 0 < B < 1 with B incomparable to A, C."""
    return build_lattice(
        ["0", "A", "B", "C", "1"],
        [("0", "A"), ("A", "C"), ("C", "1"), ("0", "B"), ("B", "1")],
    )


def product(left: FiniteLattice, right: FiniteLattice) -> FiniteLattice:
    """Componentwise product, with labels "(a,b)" from the factor labels."""
    labels = [
        f"({la},{lb})" for la in left.labels for lb in right.labels
    ]

    def lab(a: int, b: int) -> str:
        return f"({left.labels[a]},{right.labels[b]})"

    covers: list[tuple[str, str]] = []
    for a, a2 in left.covers:
        for b in range(right.n):
            covers.append((lab(a, b), lab(a2, b)))
    for b, b2 in right.covers:
        for a in range(left.n):
            covers.append((lab(a, b), lab(a, b2)))
    return build_lattice(labels, covers)


def hasse_covers(above: Sequence[int]) -> list[tuple[int, int]]:
    """Cover pairs (i, j) of a partial order given by its rows, row-major.

    above[i] is an index mask: bit j is set when item i < item j.  The
    items must be listed in a linear extension of the order, so every bit
    of above[i] lies above bit i.  Then the lowest bit j of a row is a
    cover of i, as an item between i and j would be a lower bit of the
    row; dropping j and above[j] leaves the other covers of i and what
    lies above them only.  So each cover costs one AND of a row, and no
    pair of items is compared.
    """
    covers = []
    for i, row in enumerate(above):
        while row:
            low = row & -row
            j = low.bit_length() - 1
            covers.append((i, j))
            row &= ~(low | above[j])
    return covers


def containment_rows(masks: Sequence[int]) -> list[int]:
    """The rows of hasse_covers for int masks ordered by containment.

    The masks must be listed in a linear extension of containment, and
    row i holds the j > i with masks[i] <= masks[j]: the AND, over the set
    bits b of masks[i], of the index mask of the items that hold b.
    """
    n = len(masks)
    width = max(masks, default=0).bit_length()
    # holds[b] is the index mask of the items with bit b, read off column
    # b of the items' binary digits, last item first.
    digits = [format(mask, f"0{width}b") for mask in reversed(masks)]
    holds = [int("".join(column), 2) for column in zip(*digits)][::-1]
    rows = []
    for i, mask in enumerate(masks):
        row = (1 << n) - (2 << i)
        for b in _bits(mask):
            row &= holds[b]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# int bit masks and per-lattice caches


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union_rows(rows: Sequence[int], mask: int) -> int:
    """The union of rows[i] over the set bits i of mask."""
    out = 0
    for i in _bits(mask):
        out |= rows[i]
    return out


def _cached(cache: dict, key: Hashable, build: Callable, *args: Any) -> Any:
    """build(*args), computed once per key and kept in a lattice's cache.

    A hit is one lookup.  No build returns None, which would read as a miss.
    """
    value = cache.get(key)
    if value is None:
        value = cache[key] = build(*args)
    return value


# ---------------------------------------------------------------------------
# arrows and factorizations


def pushouts_of(lat: FiniteLattice, f: Arrow) -> frozenset[Arrow]:
    """Nontrivial pushouts of f: for each z >= source, the arrow z -> z v target.

    Identities and f itself are excluded.  Raises UnknownLabel, worded by
    `FiniteLattice.arrow_index`, when f names no arrow.
    """
    s, t = lat.arrows[lat.arrow_index(f)]
    out: set[Arrow] = set()
    for z in range(lat.n):
        if lat.le(s, z):
            w = lat.join(z, t)
            if z != w and (z, w) != (s, t):
                out.add(Arrow(z, w))
    return frozenset(out)


def pullbacks_of(lat: FiniteLattice, f: Arrow) -> frozenset[Arrow]:
    """Nontrivial pullbacks of f: for each z <= target, the arrow source ^ z -> z.

    Raises UnknownLabel, like `pushouts_of`, when f names no arrow.
    """
    s, t = lat.arrows[lat.arrow_index(f)]
    out: set[Arrow] = set()
    for z in range(lat.n):
        if lat.le(z, t):
            w = lat.meet(s, z)
            if w != z and (w, z) != (s, t):
                out.add(Arrow(w, z))
    return frozenset(out)


def enumerate_short_factorizations(
    lat: FiniteLattice, f: Arrow
) -> list[tuple[Arrow, ...]]:
    """All factorizations of f as a composite of covers, source first.

    These are the maximal chains of the interval [source, target]; every
    step is a cover of the ambient lattice because intervals are convex.
    An identity raises NotALattice; any other f that names no arrow raises
    UnknownLabel, like `pushouts_of`.
    """
    if f in [(x, x) for x in range(lat.n)]:
        raise NotALattice("identity arrows have no short factorization")
    s, t = lat.arrows[lat.arrow_index(f)]
    step: dict[int, list[Arrow]] = {}
    for c in lat.covers:
        if lat.le(s, c.source) and lat.le(c.target, t):
            step.setdefault(c.source, []).append(c)
    chains: list[tuple[Arrow, ...]] = []
    path: list[Arrow] = []

    def walk(x: int) -> None:
        if x == t:
            chains.append(tuple(path))
            return
        for c in step.get(x, ()):
            path.append(c)
            walk(c.target)
            path.pop()

    walk(s)
    return chains


# ---------------------------------------------------------------------------
# modularity and sublattices


def is_modular(lat: FiniteLattice) -> bool:
    """Check the modular law: x <= y implies x v (a ^ y) = (x v a) ^ y."""
    for x in range(lat.n):
        for y in range(x, lat.n):
            if not lat.le(x, y):
                continue
            for a in range(lat.n):
                if lat.join(x, lat.meet(a, y)) != lat.meet(lat.join(x, a), y):
                    return False
    return True


def find_sublattice_embedding(
    lat: FiniteLattice, pattern: FiniteLattice
) -> tuple[int, ...] | None:
    """Search for an injective map pattern -> lat preserving meet and join.

    Returns the image indices in pattern element order, or None.  Meet and
    join preservation forces the map to be an order embedding, so this is
    the sublattice relation (subposets that fail to preserve meets, such
    as the pentagon inside the 3x2 grid, are rejected).
    """
    if pattern.n > lat.n:
        return None
    assign = [-1] * pattern.n
    used = [False] * lat.n

    def consistent(k: int, img: int) -> bool:
        for i in range(k):
            a = assign[i]
            # pattern.meet(i, k) has index <= i in a linear extension, so
            # its image is already fixed; joins above k are checked later.
            if lat.meet(a, img) != assign[pattern.meet(i, k)]:
                return False
            j = pattern.join(i, k)
            if j <= k:
                expect = img if j == k else assign[j]
                if lat.join(a, img) != expect:
                    return False
        return True

    def complete() -> bool:
        for i in range(pattern.n):
            for j in range(i, pattern.n):
                if lat.meet(assign[i], assign[j]) != assign[pattern.meet(i, j)]:
                    return False
                if lat.join(assign[i], assign[j]) != assign[pattern.join(i, j)]:
                    return False
        return True

    def search(k: int) -> bool:
        if k == pattern.n:
            return complete()
        for img in range(lat.n):
            if used[img] or not consistent(k, img):
                continue
            assign[k] = img
            used[img] = True
            if search(k + 1):
                return True
            used[img] = False
            assign[k] = -1
        return False

    return tuple(assign) if search(0) else None
