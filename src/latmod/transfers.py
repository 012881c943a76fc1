"""Enumeration of transfer systems and the lattice they form."""
from __future__ import annotations

from typing import Callable, Iterator

from .arrows import (
    ArrowSet,
    close_two_out_of_three,
    generate_transfer,
    is_transfer_system,
    _llp,
    _tables,
)
from .errors import NotALattice, NotATransferSystem
from .lattice import (
    Arrow,
    FiniteLattice,
    _cached,
    build_lattice,
    containment_rows,
    hasse_covers,
)


class TransferCatalog:
    """All transfer systems of one lattice, in canonical order.

    Canonical order is lexicographic on membership bit vectors (first
    canonical arrow most significant), which refines containment: the
    empty system is first and the complete one last.  Catalogs compare
    by identity, like lattices.
    """

    def __init__(
        self, lattice: FiniteLattice, systems: tuple[ArrowSet, ...]
    ) -> None:
        self.lattice = lattice
        self.systems = systems
        self._positions = {s.mask: i for i, s in enumerate(systems)}

    def __len__(self) -> int:
        return len(self.systems)

    def __iter__(self) -> Iterator[ArrowSet]:
        return iter(self.systems)

    def __getitem__(self, i: int) -> ArrowSet:
        return self.systems[i]

    def position(self, system: ArrowSet) -> int:
        if not isinstance(system, ArrowSet):
            raise NotATransferSystem(f"{system!r} is not an arrow set")
        if system.lattice is not self.lattice:
            raise ValueError("arrow sets belong to different lattices")
        try:
            return self._positions[system.mask]
        except KeyError:
            raise NotATransferSystem(
                f"{system.signature()} is not in the catalog"
            ) from None

    def __contains__(self, system: object) -> bool:
        return (
            isinstance(system, ArrowSet)
            and system.lattice is self.lattice
            and system.mask in self._positions
        )


def closed_sets(
    lat: FiniteLattice,
    extend: Callable[[int, int], int],
    lo: int = 0,
    hi: int = -1,
) -> tuple[ArrowSet, ...]:
    """Every closed set of an extension kernel, between lo and hi.

    extend(mask, new) is the closure of mask | new for a closed mask, as
    the closure kernels of arrows._Tables are (t.transfer, t.wide, ...).
    The search decides one arrow at a time, in canonical order.  Including
    an arrow extends the closed set so far by that arrow alone; a branch
    dies as soon as the result meets an excluded arrow.  Before extending,
    the include branch of arrow i is skipped when the closure of i alone,
    extend(0, 1 << i), already meets an excluded arrow: every closed set
    holding i contains it.  Those single closures are computed once per
    lattice and kernel object.  Every closed set is produced exactly once,
    because the first arrow on which two closed sets differ was decided
    by distinct branches.  Every arrow before the current one is already
    decided and the exclusion branch is walked first, so the output comes
    out in canonical order.  It starts from extend(0, lo), with every
    arrow outside hi excluded.
    """
    m = len(lat.arrows)
    out: list[ArrowSet] = []
    singles = _cached(lat._cache, ("singles", extend), _singles, extend, m)

    def walk(i: int, included: int, excluded: int) -> None:
        if included & excluded:
            return
        while i < m and (included >> i & 1 or excluded >> i & 1):
            i += 1
        if i == m:
            out.append(ArrowSet(lat, included))
            return
        walk(i + 1, included, excluded | 1 << i)
        if not singles[i] & excluded:
            walk(i + 1, extend(included, 1 << i), excluded)

    walk(0, extend(0, lo), ~hi)
    return tuple(out)


def _singles(extend: Callable[[int, int], int], m: int) -> tuple[int, ...]:
    # The closure of each arrow alone, by arrow index.
    return tuple(extend(0, 1 << i) for i in range(m))


def transfer_catalog(lat: FiniteLattice) -> TransferCatalog:
    """Every transfer system on the lattice, kept on it for later queries."""
    return _cached(lat._cache, "transfers", _transfer_catalog, lat)


def _transfer_catalog(lat: FiniteLattice) -> TransferCatalog:
    return TransferCatalog(lat, closed_sets(lat, _tables(lat).transfer))


def cotransfer_systems(lat: FiniteLattice) -> tuple[ArrowSet, ...]:
    """Every cotransfer system, in the same canonical order, kept likewise.

    They are the llp images of the transfer systems, so this builds the
    transfer catalog too.  In a finite lattice the transfer systems are
    the R with R = rlp(llp(R)) and the cotransfer systems the L with
    L = llp(rlp(L)), and llp maps the first onto the second, with rlp
    its inverse (Franchere-Ormsby-Osorno-Qin-Waugh, "Self-duality of the
    lattice of transfer systems via weak factorization systems").
    """
    return _cached(lat._cache, "cotransfers", _cotransfer_systems, lat)


def _cotransfer_systems(lat: FiniteLattice) -> tuple[ArrowSet, ...]:
    t = _tables(lat)
    images = [_llp(t, system.mask) for system in transfer_catalog(lat)]
    # Canonical order reads bit 0 first: the binary digits reversed.
    digits = f"0{len(lat.arrows)}b"
    images.sort(key=lambda mask: format(mask, digits)[::-1])
    return tuple(ArrowSet(lat, mask) for mask in images)


# ---------------------------------------------------------------------------
# the lattice of transfer systems


def tr_meet(catalog: TransferCatalog, a: ArrowSet, b: ArrowSet) -> ArrowSet:
    """Meet in the transfer system lattice is plain intersection."""
    catalog.position(a)
    catalog.position(b)
    met = a & b
    if met not in catalog:
        raise NotATransferSystem(
            f"intersection {met.signature()} of transfer systems is not one"
        )
    return met


def tr_join(catalog: TransferCatalog, a: ArrowSet, b: ArrowSet) -> ArrowSet:
    """Join is the transfer system generated by the union."""
    catalog.position(a)
    catalog.position(b)
    joined = generate_transfer(a | b)
    if joined not in catalog:
        raise NotATransferSystem(
            f"generated join {joined.signature()} is not in the catalog"
        )
    return joined


def tr_as_lattice(catalog: TransferCatalog) -> FiniteLattice:
    """The containment order of the catalog as a FiniteLattice.

    Node labels are the systems' signatures.  The meet and join tables of
    the result are checked against tr_meet and tr_join.
    """
    systems = catalog.systems
    labels = [s.signature() for s in systems]
    lat = build_lattice(
        labels,
        [
            (labels[i], labels[j])
            for i, j in hasse_covers(containment_rows([s.mask for s in systems]))
        ],
    )
    # Catalog order is a linear extension of containment, so positions
    # survive the canonical reordering and the tables must agree.
    if list(lat.labels) != labels:
        raise NotALattice("containment order reordered the transfer systems")
    for i in range(len(systems)):
        for j in range(len(systems)):
            met = catalog.position(tr_meet(catalog, systems[i], systems[j]))
            joined = catalog.position(tr_join(catalog, systems[i], systems[j]))
            if lat.meet(i, j) != met or lat.join(i, j) != joined:
                raise NotALattice(
                    f"containment order of {systems[i].signature()} and "
                    f"{systems[j].signature()} disagrees with tr_meet/tr_join"
                )
    return lat


def singly_generated_transfers(
    lat: FiniteLattice,
) -> tuple[tuple[Arrow, ArrowSet], ...]:
    """Distinct transfer systems generated by one arrow each.

    Arrow f generates {f} | pull(f) (see models.t_max).  Returns pairs
    (generator, system) in canonical arrow order, first generator kept.
    """
    t = _tables(lat)
    systems: dict[int, Arrow] = {}
    for i, f in enumerate(lat.arrows):
        systems.setdefault(1 << i | t.pull[i], f)
    return tuple((f, ArrowSet(lat, mask)) for mask, f in systems.items())


def is_saturated(system: ArrowSet) -> bool:
    """Whether a transfer system is already two-out-of-three closed."""
    if not is_transfer_system(system):
        raise NotATransferSystem(
            f"{system.signature()} is not a transfer system"
        )
    return close_two_out_of_three(system).mask == system.mask
