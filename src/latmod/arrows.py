"""Sets of lattice arrows and the closure operators on them.

An ArrowSet stores the non-identity arrows of a wide subcategory (or any
plain set of arrows) as a bit mask over the ambient lattice's canonical
arrow list.  Identity arrows are implicit everywhere: they belong to every
wide subcategory, lift against everything, and would never constrain a
closure, so they are not stored.
"""
from __future__ import annotations

from functools import partial
from typing import Iterable, Iterator

from .errors import UnknownLabel
from .lattice import (
    Arrow,
    FiniteLattice,
    _cached,
    _union_rows,
    pullbacks_of,
    pushouts_of,
)


class ArrowSet:
    """An immutable set of non-identity arrows of one lattice.

    Two slots and no instance dict: equal lattice and mask give equal
    sets with equal hashes, and assignment raises AttributeError.  Every
    bit of the mask names an arrow: a bit at or above the arrow count,
    or a negative mask, raises UnknownLabel here, so no closure, dual or
    predicate meets one.
    """

    __slots__ = ("lattice", "mask")

    lattice: FiniteLattice
    mask: int

    def __init__(self, lattice: FiniteLattice, mask: int) -> None:
        if mask >> len(lattice.arrows):
            m = len(lattice.arrows)
            stray = mask >> m << m
            bit = (stray & -stray).bit_length() - 1
            raise UnknownLabel(f"bit {bit} names no arrow: the lattice has {m} arrows")
        _set_lattice(self, lattice)
        _set_mask(self, mask)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ArrowSet:
            return NotImplemented
        return self.mask == other.mask and self.lattice == other.lattice

    def __hash__(self) -> int:
        return hash((self.lattice, self.mask))

    def __reduce__(self):
        return ArrowSet, (self.lattice, self.mask)

    # -- construction ---------------------------------------------------

    @classmethod
    def empty(cls, lat: FiniteLattice) -> "ArrowSet":
        return cls(lat, 0)

    @classmethod
    def full(cls, lat: FiniteLattice) -> "ArrowSet":
        return cls(lat, (1 << len(lat.arrows)) - 1)

    @classmethod
    def of(cls, lat: FiniteLattice, arrows: Iterable[Arrow | tuple[int, int]]) -> "ArrowSet":
        # arrow_index raises the UnknownLabel that says why a pair names
        # no arrow.
        index = lat.arrow_index
        mask = 0
        for f in arrows:
            mask |= 1 << index(f)
        return cls(lat, mask)

    @classmethod
    def from_labels(
        cls, lat: FiniteLattice, pairs: Iterable[tuple[str, str]]
    ) -> "ArrowSet":
        return cls.of(lat, [lat.arrow(a, b) for a, b in pairs])

    # -- set behaviour --------------------------------------------------

    def __contains__(self, f: object) -> bool:
        # An Arrow or a pair tuple is a key as it is; anything else is read
        # as the tuple of its items.  What is not a pair of element indices
        # is no member, like a pair that names no arrow.
        try:
            pos = self.lattice.arrow_position.get(
                f if isinstance(f, tuple) else tuple(f)
            )
        except TypeError:
            return False
        return pos is not None and bool(self.mask >> pos & 1)

    def __iter__(self) -> Iterator[Arrow]:
        arrows = self.lattice.arrows
        mask = self.mask
        for i in range(len(arrows)):
            if mask >> i & 1:
                yield arrows[i]

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def _compatible(self, other: "ArrowSet") -> int:
        if self.lattice is not other.lattice:
            raise ValueError("arrow sets belong to different lattices")
        return other.mask

    def __or__(self, other: "ArrowSet") -> "ArrowSet":
        return ArrowSet(self.lattice, self.mask | self._compatible(other))

    def __and__(self, other: "ArrowSet") -> "ArrowSet":
        return ArrowSet(self.lattice, self.mask & self._compatible(other))

    def __sub__(self, other: "ArrowSet") -> "ArrowSet":
        return ArrowSet(self.lattice, self.mask & ~self._compatible(other))

    def __le__(self, other: "ArrowSet") -> bool:
        m = self._compatible(other)
        return self.mask & ~m == 0

    def __lt__(self, other: "ArrowSet") -> bool:
        return self <= other and self.mask != other.mask

    # -- presentation ---------------------------------------------------

    @property
    def arrows(self) -> tuple[Arrow, ...]:
        return tuple(self)

    def label_pairs(self) -> list[list[str]]:
        labels = self.lattice.labels
        return [[labels[f.source], labels[f.target]] for f in self]

    def signature(self) -> str:
        names = _cached(self.lattice._cache, "arrow_names", _arrow_names, self.lattice)
        mask = self.mask
        inner = ", ".join([name for i, name in enumerate(names) if mask >> i & 1])
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"ArrowSet({self.signature()})"


# The slot descriptors' own setters, which __setattr__ does not block.
_set_lattice = ArrowSet.lattice.__set__
_set_mask = ArrowSet.mask.__set__


def _arrow_names(lat: FiniteLattice) -> tuple[str, ...]:
    return tuple(map(lat.arrow_name, lat.arrows))


# ---------------------------------------------------------------------------
# per-lattice closure tables


class _Tables:
    """Precomputed bit tables driving every closure and lifting operator.

    Each closure kind is one kernel, kernel(mask, new): _extend bound in
    __init__ to a rule table and a row table (compose, transfer,
    cotransfer, wide, two_of_three and localize[side]).  The lifting
    tables split an arrow mask into chunks of at most 12 bits, all
    chunk_bits wide but the last: a lattice with at most 12 arrows has one
    chunk, chain5 two of 8, the cube two of 10, grid2x2 three of 9.  Per
    chunk there are three tables indexed by the chunk's bits b: the
    arrows that lift on the left, and those that lift on the right, of
    every arrow b names, and the sum of b's role rows: a 2-bit count per
    triangle of the arrows b names.  lift_first holds the first chunk's
    three tables, read at mask & chunk_bits as its offset is 0;
    lift_rest holds (offset, llp, rlp, role) for each later chunk, and is
    empty on a lattice with at most 12 arrows.  A lattice with no arrows
    gets a first chunk of one entry, so no reader branches on the arrow
    count.  So llp and rlp are the AND of one entry per chunk, a mask's
    counts are the sum of one entry per chunk, and verify_model_axioms
    reads all five in one pass.
    The tables take 2^12 entries per column and chunk at most: about
    0.32 MB on grid2x1, 0.16 MB on the cube, 1.2 MB on grid5x1 and 2.2 MB
    on grid3x2.
    """

    __slots__ = (
        "full",
        "pull",
        "push",
        "triples",
        "cover_mask",
        "up",
        "down",
        "role_base",
        "chunk_bits",
        "lift_first",
        "lift_rest",
        "compose",
        "transfer",
        "cotransfer",
        "wide",
        "two_of_three",
        "localize",
    )

    def __init__(self, lat: FiniteLattice) -> None:
        arrows = lat.arrows
        pos = lat.arrow_position
        m = len(arrows)
        self.full = (1 << m) - 1

        pull = self.pull = tuple(
            ArrowSet.of(lat, pullbacks_of(lat, f)).mask for f in arrows
        )
        push = self.push = tuple(
            ArrowSet.of(lat, pushouts_of(lat, f)).mask for f in arrows
        )

        # (i, j, k) with arrow_k = arrow_j o arrow_i, all non-identity.
        triples: list[tuple[int, int, int]] = []
        for x in reversed(range(lat.n)):
            for z in range(x + 1, lat.n):
                if not lat.lt(x, z):
                    continue
                for y in range(x + 1, z):
                    if lat.lt(x, y) and lat.lt(y, z):
                        triples.append(
                            (pos[Arrow(x, y)], pos[Arrow(y, z)], pos[Arrow(x, z)])
                        )
        # The same triples as single-bit masks.
        self.triples = tuple((1 << i, 1 << j, 1 << k) for i, j, k in triples)
        # The rule tables, as (given, forced) pairs per arrow a: compose_at[a]
        # forces the composite of each triple with leg a once its other leg
        # is present; two_of_three_at[a] forces all of each triangle through
        # a once one more of its arrows is present.  legs[k] holds the legs
        # of every factorization of arrow k.
        compose_at: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        two_of_three_at: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        legs = [0] * m
        for i, j, k in triples:
            triangle = 1 << i | 1 << j | 1 << k
            compose_at[i].append((1 << j, 1 << k))
            compose_at[j].append((1 << i, 1 << k))
            legs[k] |= 1 << i | 1 << j
            for a in (i, j, k):
                two_of_three_at[a].append((triangle ^ 1 << a, triangle))
        # Each closure kind once, as _extend with its rules and rows bound.
        no_rows = (0,) * m
        self.compose = partial(_extend, compose_at, no_rows)
        self.transfer = partial(_extend, compose_at, pull)
        self.cotransfer = partial(_extend, compose_at, push)
        self.wide = partial(_extend, compose_at, legs)
        self.two_of_three = partial(_extend, two_of_three_at, no_rows)
        self.localize = {
            "right": partial(_extend, two_of_three_at, pull),
            "left": partial(_extend, two_of_three_at, push),
        }
        # Role rows, for verify_model_axioms: triangle t owns the 2-bit
        # field at bit 2t, roles[a] holds 1 in the field of each triangle
        # through a, and role_base every bit 2t.  A sum of role rows
        # counts, per triangle, how many of its three arrows it holds, so
        # no field exceeds 3 or carries into the next.
        roles = [0] * m
        for t, triple in enumerate(triples):
            for a in triple:
                roles[a] += 1 << 2 * t
        self.role_base = sum(1 << 2 * t for t in range(len(triples)))

        kill_llp = [0] * m
        kill_rlp = [0] * m
        for j, (x, y) in enumerate(arrows):
            for i, (a, b) in enumerate(arrows):
                # f: a -> b lifts on the left of s: x -> y, and so s on the
                # right of f, unless a square exists (a <= x, b <= y) with
                # no diagonal b <= x.
                if lat.le(a, x) and lat.le(b, y) and not lat.le(b, x):
                    kill_llp[j] |= 1 << i
                    kill_rlp[i] |= 1 << j

        self.cover_mask = ArrowSet.of(lat, lat.covers).mask
        # Element masks: up[x] holds the y with x < y, down[y] the x < y.
        elems = range(lat.n)
        self.up = tuple(row & ~(1 << x) for x, row in enumerate(lat._up))
        self.down = tuple(
            sum(1 << x for x in elems if self.up[x] >> y & 1) for y in elems
        )
        # As few chunks as a width of 12 bits allows, balanced: all of one
        # width but the last, which may be narrower.
        count = -(-m // 12)
        width = -(-m // count) if count else 0
        self.chunk_bits = (1 << width) - 1
        full = self.full
        chunks = [
            (
                s,
                _chunk_table(full, [full & ~row for row in kill_llp[s : s + width]]),
                _chunk_table(full, [full & ~row for row in kill_rlp[s : s + width]]),
                _chunk_table(0, roles[s : s + width], add=True),
            )
            # With no arrows, range(0, 1) still makes one chunk of one entry.
            for s in range(0, max(m, 1), width or 1)
        ]
        self.lift_first = chunks[0][1:]
        self.lift_rest = tuple(chunks[1:])


def _chunk_table(start: int, rows: list[int], add: bool = False) -> tuple[int, ...]:
    # Entry [b] meets start with (or, with add, adds to start) rows[i] over
    # the set bits i of b.  Doubling: row i extends the entries without
    # bit i by their copies with it.
    table = [start]
    for row in rows:
        if add:
            table += [x + row for x in table]
        else:
            table += [x & row for x in table]
    return tuple(table)


def _tables(lat: FiniteLattice) -> _Tables:
    return _cached(lat._cache, "tables", _Tables, lat)


def _extend(rules, rows, mask: int, new: int) -> int:
    """The closure of mask | new under one rule table and row table.

    mask must already be closed.  A worklist pops each new arrow a once:
    it adds rows[a], and for every (given, forced) in rules[a] it adds
    forced when the mask meets given.  Each rule is listed at every arrow
    it reads, so it fires when the last of them enters, and the rules a
    closed mask already satisfies never need to fire again.  From mask 0
    with every input bit new, this is the closure of the input.  Bits are
    only ever added, so each enters the worklist at most once.
    """
    todo = new & ~mask
    mask |= todo
    while todo:
        bit = todo & -todo
        todo ^= bit
        a = bit.bit_length() - 1
        grown = rows[a]
        for given, forced in rules[a]:
            if mask & given:
                grown |= forced
        grown &= ~mask
        mask |= grown
        todo |= grown
    return mask


# ---------------------------------------------------------------------------
# closures


def close_composition(aset: ArrowSet) -> ArrowSet:
    """Smallest superset closed under composition of composable pairs."""
    t = _tables(aset.lattice)
    return ArrowSet(aset.lattice, t.compose(0, aset.mask))


def close_pullback(aset: ArrowSet) -> ArrowSet:
    """Smallest superset containing all nontrivial pullbacks of its members.

    One pass suffices: a pullback of a pullback of f is a pullback of f
    (meets are associative), so each pull row is closed under pull.
    """
    t = _tables(aset.lattice)
    return ArrowSet(aset.lattice, aset.mask | _union_rows(t.pull, aset.mask))


def close_pushout(aset: ArrowSet) -> ArrowSet:
    """Smallest superset containing all nontrivial pushouts of its members.

    One pass suffices, dually to close_pullback (joins are associative).
    """
    t = _tables(aset.lattice)
    return ArrowSet(aset.lattice, aset.mask | _union_rows(t.push, aset.mask))


def close_two_out_of_three(aset: ArrowSet) -> ArrowSet:
    """Close under composition and both cancellation rules."""
    t = _tables(aset.lattice)
    return ArrowSet(aset.lattice, t.two_of_three(0, aset.mask))


def close_wide_decomposable(aset: ArrowSet) -> ArrowSet:
    """Smallest composition-closed, wide decomposable superset.

    Closes under both directions of every composable pair at once: both
    legs force the composite, and a composite forces both of its legs.
    """
    t = _tables(aset.lattice)
    return ArrowSet(aset.lattice, t.wide(0, aset.mask))


def compose_sets(upper: ArrowSet, lower: ArrowSet) -> ArrowSet:
    """All composites g o f with f in lower, g in upper, identities allowed.

    The identity padding means the result contains both inputs; no
    closure is applied beyond the single composition.
    """
    low = upper._compatible(lower)
    t = _tables(upper.lattice)
    return ArrowSet(upper.lattice, _composites(t, upper.mask, low))


def _composites(t: _Tables, high: int, low: int) -> int:
    mask = high | low
    for first, second, composite in t.triples:
        if low & first and high & second:
            mask |= composite
    return mask


# ---------------------------------------------------------------------------
# predicates


def is_composition_closed(aset: ArrowSet) -> bool:
    t = _tables(aset.lattice)
    return t.compose(0, aset.mask) == aset.mask


def is_wide_decomposable(aset: ArrowSet) -> bool:
    """True when every member's two-step factorizations stay inside the set."""
    t = _tables(aset.lattice)
    mask = aset.mask
    for first, second, composite in t.triples:
        if mask & composite and not (mask & first and mask & second):
            return False
    return True


def is_transfer_system(aset: ArrowSet) -> bool:
    """Closed under nontrivial pullbacks and under composition."""
    return generate_transfer(aset).mask == aset.mask


def is_cotransfer_system(aset: ArrowSet) -> bool:
    """Closed under nontrivial pushouts and under composition."""
    return generate_cotransfer(aset).mask == aset.mask


# ---------------------------------------------------------------------------
# generation and lifting


def generate_transfer(aset: ArrowSet) -> ArrowSet:
    """Smallest transfer system containing the given arrows.

    Each arrow that enters brings its pullbacks, and each composable pair
    its composite.  This is the composition closure of the pullback
    closure, as a composite needs no pullbacks of its own: the pullback of
    g o f along z is the pullback of f along y & z followed by that of g
    along z.  The tests check it against that form and against the
    intersection of all containing systems.
    """
    t = _tables(aset.lattice)
    return ArrowSet(aset.lattice, t.transfer(0, aset.mask))


def generate_cotransfer(aset: ArrowSet) -> ArrowSet:
    """Smallest cotransfer system containing the given arrows."""
    t = _tables(aset.lattice)
    return ArrowSet(aset.lattice, t.cotransfer(0, aset.mask))


def llp_dual(aset: ArrowSet) -> ArrowSet:
    """Arrows with the left lifting property against every member."""
    return ArrowSet(aset.lattice, _llp(_tables(aset.lattice), aset.mask))


def rlp_dual(aset: ArrowSet) -> ArrowSet:
    """Arrows with the right lifting property against every member."""
    return ArrowSet(aset.lattice, _rlp(_tables(aset.lattice), aset.mask))


def _llp(t: _Tables, mask: int) -> int:
    # The arrows that lift against every member: one entry per chunk.
    low = t.chunk_bits
    lift = t.lift_first[0][mask & low]
    for s, llp, _, _ in t.lift_rest:
        lift &= llp[mask >> s & low]
    return lift


def _rlp(t: _Tables, mask: int) -> int:
    low = t.chunk_bits
    lift = t.lift_first[1][mask & low]
    for s, _, rlp, _ in t.lift_rest:
        lift &= rlp[mask >> s & low]
    return lift
