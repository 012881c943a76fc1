"""Model structures on a finite lattice.

A model structure is determined by its weak equivalences W and acyclic
fibrations AF; the remaining classes are forced by lifting.  W must be a
wide decomposable subcategory whose members admit a short factorization
with all pushouts weakly equivalent below a pivot and all pullbacks above
it, and AF ranges over an interval of transfer systems inside W.
"""
from __future__ import annotations

from dataclasses import dataclass

from .arrows import (
    ArrowSet,
    close_retracts,
    close_two_out_of_three,
    close_wide_decomposable,
    compose_sets,
    is_composition_closed,
    is_cotransfer_system,
    is_transfer_system,
    is_wide_decomposable,
    llp_dual,
    rlp_dual,
    _tables,
)
from .errors import (
    MaximalityViolation,
    NotAdmissible,
    NotAWeakEquivalenceSet,
)
from .lattice import FiniteLattice, _cached
from .transfers import closed_sets, cotransfer_systems, transfer_catalog


# ---------------------------------------------------------------------------
# weak equivalence sets


def is_weak_equivalence_set(weq: ArrowSet) -> bool:
    """Check the factorization criterion for weak equivalence sets.

    The set must be a wide subcategory (composition closed), must be
    decomposable, and each member must factor into covers admitting a
    pivot: pushouts of the covers below it and pullbacks of the covers
    above it all stay inside the set.
    """
    if not is_composition_closed(weq):
        return False
    if not is_wide_decomposable(weq):
        return False
    lat = weq.lattice
    t = _tables(lat)
    pos = lat.arrow_position
    outside = ~weq.mask
    # Element masks: reach[x] holds the y reached from x along covers whose
    # pushouts stay in weq, coreach[y] the x reaching y along covers whose
    # pullbacks do; a member s -> t has a pivot in reach[s] & coreach[t].
    # Covers are listed by source in a linear extension, so one pass each
    # way sees every row complete before it is read.
    reach = [1 << x for x in range(lat.n)]
    coreach = list(reach)
    for c in reversed(lat.covers):
        if not t.push[pos[c]] & outside:
            reach[c.source] |= reach[c.target]
    for c in lat.covers:
        if not t.pull[pos[c]] & outside:
            coreach[c.target] |= coreach[c.source]
    return all(reach[f.source] & coreach[f.target] for f in weq)


def enumerate_weak_equivalence_sets(lat: FiniteLattice) -> tuple[ArrowSet, ...]:
    """All weak equivalence sets, in canonical (bit vector) order.

    Candidates are the composition-closed, wide decomposable sets, listed
    as the fixed points of their closure; the full criterion filters them.
    """
    return _cached(lat, "weq_sets", _weak_equivalence_sets, lat)


def _weak_equivalence_sets(lat: FiniteLattice) -> tuple[ArrowSet, ...]:
    return tuple(
        weq
        for weq in closed_sets(lat, close_wide_decomposable)
        if is_weak_equivalence_set(weq)
    )


# ---------------------------------------------------------------------------
# the admissible interval


def t_max(weq: ArrowSet) -> ArrowSet:
    """Largest transfer system inside the weak equivalences.

    Computed as the union of all catalog systems contained in weq and
    verified closed; failure of closure would contradict maximality.
    """
    union = _union_inside(transfer_catalog(weq.lattice), weq)
    if not is_transfer_system(union):
        raise MaximalityViolation(
            "union of transfer systems inside the weak equivalences "
            "is not itself a transfer system"
        )
    return union


def k_max(weq: ArrowSet) -> ArrowSet:
    """Largest cotransfer system inside the weak equivalences."""
    union = _union_inside(cotransfer_systems(weq.lattice), weq)
    if not is_cotransfer_system(union):
        raise MaximalityViolation(
            "union of cotransfer systems inside the weak equivalences "
            "is not itself a cotransfer system"
        )
    return union


def _union_inside(systems, weq: ArrowSet) -> ArrowSet:
    # Union of the systems contained in weq, compared as raw masks.
    outside = ~weq.mask
    union = 0
    for system in systems:
        if not system.mask & outside:
            union |= system.mask
    return ArrowSet(weq.lattice, union)


def t_min(weq: ArrowSet) -> ArrowSet:
    """Smallest admissible acyclic fibration class for these weak equivalences."""
    low = rlp_dual(k_max(weq)) & weq
    if not (is_transfer_system(low) and low <= t_max(weq)):
        raise MaximalityViolation(
            f"lower end {low.signature()} of the interval of "
            f"W={weq.signature()} is not a transfer system inside t_max"
        )
    return low


def af_interval(weq: ArrowSet) -> tuple[ArrowSet, ...]:
    """Transfer systems T with t_min <= T <= t_max, in catalog order."""
    return _cached(weq.lattice, ("af_interval", weq.mask), _af_interval, weq)


def _af_interval(weq: ArrowSet) -> tuple[ArrowSet, ...]:
    if not is_weak_equivalence_set(weq):
        raise NotAWeakEquivalenceSet(
            f"{weq.signature()} is not a weak equivalence set"
        )
    lo = t_min(weq).mask
    outside = ~t_max(weq).mask
    return tuple(
        system
        for system in transfer_catalog(weq.lattice)
        if not lo & ~system.mask and not system.mask & outside
    )


# ---------------------------------------------------------------------------
# model structures


@dataclass(frozen=True)
class ModelStructure:
    """The five interlocking arrow classes of a model structure."""

    lattice: FiniteLattice
    weq: ArrowSet
    acyclic_fib: ArrowSet
    cof: ArrowSet
    acyclic_cof: ArrowSet
    fib: ArrowSet

    def key(self) -> tuple[int, int]:
        return (self.weq.mask, self.acyclic_fib.mask)

    def signature(self) -> str:
        return f"W={self.weq.signature()} AF={self.acyclic_fib.signature()}"

    def __repr__(self) -> str:
        return f"ModelStructure({self.signature()})"


def derive_classes(
    weq: ArrowSet, acyclic_fib: ArrowSet, check: bool = True
) -> ModelStructure:
    """Complete (W, AF) to a full model structure by lifting.

    With check enabled, raises NotAdmissible unless AF lies in the
    admissible interval of W (which also validates W itself).
    """
    if check:
        # Catalog order refines containment, so the interval runs from
        # t_min to t_max and AF is in it exactly when it is a transfer
        # system between the two.
        interval = af_interval(weq)
        af = acyclic_fib.mask
        if (
            interval[0].mask & ~af
            or af & ~interval[-1].mask
            or not is_transfer_system(acyclic_fib)
        ):
            raise NotAdmissible(
                f"AF={acyclic_fib.signature()} is outside the admissible "
                f"interval of W={weq.signature()}"
            )
    cof = llp_dual(acyclic_fib)
    acyclic_cof = cof & weq
    fib = rlp_dual(acyclic_cof)
    return ModelStructure(weq.lattice, weq, acyclic_fib, cof, acyclic_cof, fib)


def enumerate_model_structures(lat: FiniteLattice) -> tuple[ModelStructure, ...]:
    """Every model structure, ordered by weak equivalences then by AF."""
    return _cached(lat, "models", _model_structures, lat)


def _model_structures(lat: FiniteLattice) -> tuple[ModelStructure, ...]:
    out: list[ModelStructure] = []
    for weq in enumerate_weak_equivalence_sets(lat):
        for system in af_interval(weq):
            out.append(derive_classes(weq, system, check=False))
    return tuple(out)


def verify_model_axioms(model: ModelStructure) -> bool:
    """Check the model structure axioms directly, without the interval.

    Verifies retract closure of W, C, and F, two-out-of-three for W, both
    lifting identities of both weak factorization systems, the definitional
    identities tying the five classes together, and the factorization of
    every arrow through (cofibration, acyclic fibration) and through
    (acyclic cofibration, fibration).
    """
    lat = model.lattice
    weq, af = model.weq, model.acyclic_fib
    cof, ac, fib = model.cof, model.acyclic_cof, model.fib
    if close_two_out_of_three(weq).mask != weq.mask:
        return False
    for cls in (weq, cof, fib):
        if close_retracts(cls).mask != cls.mask:
            return False
    if llp_dual(af).mask != cof.mask or rlp_dual(cof).mask != af.mask:
        return False
    if llp_dual(fib).mask != ac.mask or fib.mask != rlp_dual(ac).mask:
        return False
    if af.mask & ~weq.mask or ac.mask != (cof & weq).mask:
        return False
    if af.mask != (fib & weq).mask:
        return False
    # Every arrow must split as a lower-class leg then an upper-class leg,
    # identity legs allowed: exactly what compose_sets collects.
    full = ArrowSet.full(lat).mask
    return (
        compose_sets(af, cof).mask == full
        and compose_sets(fib, ac).mask == full
    )
