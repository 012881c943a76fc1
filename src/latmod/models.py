"""Model structures on a finite lattice.

A model structure is determined by its weak equivalences W and acyclic
fibrations AF; the remaining classes are forced by lifting.  W must be a
wide decomposable subcategory whose members each factor as a k_max(W)
arrow followed by a t_max(W) arrow, and AF ranges over the transfer
systems from t_min(W) to t_max(W).  No catalog is needed: t_max(W) is
the f in W with pull(f) inside W, as f generates {f} | pull(f) and every
transfer system is the union of the systems its members generate (proof
at t_max); k_max(W) is dual.

So the model structures over one W form a finite table, derived once per
lattice and W: it maps each AF mask of the interval to its structure.
The enumeration concatenates these tables, and derive_classes with its
check on is a lookup that returns the enumerated structure.
"""
from __future__ import annotations

from typing import NamedTuple

from .arrows import (
    ArrowSet,
    is_cotransfer_system,
    is_transfer_system,
    rlp_dual,
    _Tables,
    _composites,
    _llp,
    _rlp,
    _tables,
)
from .errors import (
    MaximalityViolation,
    NotAdmissible,
    NotAWeakEquivalenceSet,
)
from .lattice import FiniteLattice, _bits, _cached
from .transfers import closed_sets


# ---------------------------------------------------------------------------
# weak equivalence sets


def is_weak_equivalence_set(weq: ArrowSet) -> bool:
    """Whether W is a weak equivalence set: W = t_max(W) o k_max(W).

    W must be composition closed and decomposable, and each member must
    factor into covers admitting a pivot: the pushouts of the covers below
    it and the pullbacks of those above it lie in W.  Given the first two,
    the pivot condition says that each member is a k_max(W) arrow then a
    t_max(W) arrow, identities allowed (such composites lie in W):
      - by decomposability, the cover factors of a k_max (t_max) arrow
        have their pushouts (pullbacks) in W, each being a factor of a
        pushout (pullback) of that arrow;
      - a chain of such covers composes into k_max (t_max), as a pushout
        (pullback) of a composite is a composite of pushouts (pullbacks),
        and the composite, a factor of the member, lies in W.
    """
    t = _tables(weq.lattice)
    w = weq.mask
    return t.wide(0, w) == w and _factors(t, w)


def _factors(t: _Tables, w: int) -> bool:
    # Whether each member of w is a k_max(w) arrow then a t_max(w) arrow.
    return _composites(t, _inside(w, t.pull), _inside(w, t.push)) == w


def enumerate_weak_equivalence_sets(lat: FiniteLattice) -> tuple[ArrowSet, ...]:
    """All weak equivalence sets, in canonical (bit vector) order.

    Candidates are the composition-closed, wide decomposable sets, listed
    as the fixed points of their closure; the factorization test alone
    filters them, as each is closed already.
    """
    return _cached(lat._cache, "weq_sets", _weak_equivalence_sets, lat)


def _weak_equivalence_sets(lat: FiniteLattice) -> tuple[ArrowSet, ...]:
    t = _tables(lat)
    return tuple(weq for weq in closed_sets(lat, t.wide) if _factors(t, weq.mask))


# ---------------------------------------------------------------------------
# the admissible interval


def t_max(weq: ArrowSet) -> ArrowSet:
    """Largest transfer system inside the weak equivalences.

    The union of all transfer systems inside weq, verified closed (failure
    would contradict maximality): the f in weq whose pull row lies inside
    weq.  For f: x -> y generates {f} | pull(f), as pullbacks x & z -> z and
    x & z' -> z' compose only if z <= x, when the first is an identity, and
    every transfer system is the union of the systems its members generate.
    """
    return _largest_inside(
        weq, _tables(weq.lattice).pull, is_transfer_system, "transfer"
    )


def k_max(weq: ArrowSet) -> ArrowSet:
    """Largest cotransfer system inside the weak equivalences."""
    return _largest_inside(
        weq, _tables(weq.lattice).push, is_cotransfer_system, "cotransfer"
    )


def _largest_inside(weq: ArrowSet, rows, is_system, kind: str) -> ArrowSet:
    union = ArrowSet(weq.lattice, _inside(weq.mask, rows))
    if not is_system(union):
        raise MaximalityViolation(
            f"union of {kind} systems inside the weak equivalences "
            f"is not itself a {kind} system"
        )
    return union


def _inside(weq: int, rows) -> int:
    # The f in the mask weq whose row (pullbacks or pushouts) lies in it.
    outside = ~weq
    return sum(1 << i for i in _bits(weq) if not rows[i] & outside)


def t_min(weq: ArrowSet) -> ArrowSet:
    """Smallest admissible acyclic fibration class for these weak equivalences."""
    return _bounds(weq)[0]


def _bounds(weq: ArrowSet) -> tuple[ArrowSet, ArrowSet]:
    low = rlp_dual(k_max(weq)) & weq
    high = t_max(weq)
    if not (is_transfer_system(low) and low <= high):
        raise MaximalityViolation(
            f"lower end {low.signature()} of the interval of "
            f"W={weq.signature()} is not a transfer system inside t_max"
        )
    return low, high


def af_interval(weq: ArrowSet) -> tuple[ArrowSet, ...]:
    """Transfer systems T with t_min <= T <= t_max, in catalog order.

    They are the acyclic fibrations of W's model table, built on first use.
    """
    return tuple(model.acyclic_fib for model in _model_table(weq).values())


# ---------------------------------------------------------------------------
# model structures


class ModelStructure(NamedTuple):
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

    With check enabled this looks AF up in W's model table and returns
    the structure enumerate_model_structures holds.  It raises
    NotAdmissible unless AF is one of the systems of af_interval(W), and
    NotAWeakEquivalenceSet unless W is a weak equivalence set.  With check
    disabled it derives a fresh structure from any pair.  Sets of two
    lattices raise ValueError.
    """
    lat = weq.lattice
    if acyclic_fib.lattice is not lat:
        weq._compatible(acyclic_fib)  # raises the mixed-lattice ValueError
    if check:
        # Warm, two int-keyed reads: W's model table, and AF in it.
        table = lat._cache["model_tables"].get(weq.mask) or _model_table(weq)
        model = table.get(acyclic_fib.mask)
        if model is not None:
            return model
        raise NotAdmissible(weq, acyclic_fib)
    return _derive(weq, acyclic_fib)


def _derive(weq: ArrowSet, acyclic_fib: ArrowSet) -> ModelStructure:
    # C = llp(AF), AC = C & W, F = rlp(AC).
    lat = weq.lattice
    t = _tables(lat)
    cof = _llp(t, acyclic_fib.mask)
    ac = cof & weq.mask
    fib = _rlp(t, ac)
    return ModelStructure(
        lat,
        weq,
        acyclic_fib,
        ArrowSet(lat, cof),
        ArrowSet(lat, ac),
        ArrowSet(lat, fib),
    )


def _model_table(weq: ArrowSet, check: bool = True) -> dict[int, ModelStructure]:
    # The structures over W, keyed by AF mask in catalog order, kept in the
    # lattice's "model_tables" by W's mask (warm queries read it directly).
    # W is checked only when its table is absent; a W that is not a weak
    # equivalence set leaves no table.  The structures share weq.
    lat = weq.lattice
    table = lat._cache["model_tables"].get(weq.mask)
    if table is not None:
        return table
    if check and not is_weak_equivalence_set(weq):
        raise NotAWeakEquivalenceSet(
            f"{weq.signature()} is not a weak equivalence set"
        )
    low, high = _bounds(weq)
    interval = closed_sets(lat, _tables(lat).transfer, low.mask, high.mask)
    table = {af.mask: _derive(weq, af) for af in interval}
    lat._cache["model_tables"][weq.mask] = table
    return table


def enumerate_model_structures(lat: FiniteLattice) -> tuple[ModelStructure, ...]:
    """Every model structure, ordered by weak equivalences then by AF."""
    return _cached(lat._cache, "models", _model_structures, lat)


def _model_structures(lat: FiniteLattice) -> tuple[ModelStructure, ...]:
    # The enumeration has already checked each W, and its tables share
    # the enumerated ArrowSets.
    return tuple(
        model
        for weq in enumerate_weak_equivalence_sets(lat)
        for model in _model_table(weq, check=False).values()
    )


def verify_model_axioms(model: ModelStructure) -> bool:
    """Check the model structure axioms directly, without the interval.

    Verifies the lifting identities of both weak factorization systems,
    llp(AF) = C, rlp(C) = AF, llp(F) = AC and rlp(AC) = F, the class
    identities AF <= W, AC = C & W and AF = F & W, and two-out-of-three
    for W.  Classes from different lattices raise the ValueError of mixing
    them in a set operation.

    No retract check is needed: a retract diagram a -> x -> a in a poset
    forces a = x, so every class is closed under retracts.  Nor is a
    factorization check: every lifting pair L = llp(R), R = rlp(L) factors
    each arrow as an L leg then an R leg, identity legs allowed, and the
    identities above make (C, AF) and (AC, F) such pairs.
      - R = rlp(L) is closed under composition and pullback, so for
        f: x -> y the z with x <= z <= y and z -> y in R or an identity are
        closed under meets: for two of them z1, z2, the pullback
        z1 & z2 -> z2 of z1 -> y is in R, and so is its composite with
        z2 -> y.
      - The least such z splits f as x -> z then z -> y, and x -> z is in
        llp(R) = L: for a -> b in R with x <= a and z <= b, the pullback
        a & z -> z is in R, so is a & z -> y, and z <= a & z <= a by the
        choice of z, which is the lift.

    Of these ten axioms, the eight checked and the two factorizations,
    five follow from the others, so no structure fails one of them alone:
    the two factorizations, by the proof above, and three checks that stay
    as cheap guards.  In a poset, lifting g = p c against its leg p, or
    the leg c against g, makes that leg an identity:
      - llp(AF) = C: C <= llp(rlp(C)) = llp(AF); g in llp(AF) factors as
        p c with c in C, p in AF, and lifting g against p gives g = c.
      - rlp(AC) = F: dually, from llp(F) = AC and the (AC, F) factorization.
      - AF = F & W: AF = rlp(C) <= rlp(AC) = F and AF <= W; f in F & W
        factors as p c with c in C, p in AF, two-out-of-three puts c in
        AC = C & W, and lifting c against f gives f = p.
    """
    lat, weq, af, cof, ac, fib = model
    if not (lat is weq.lattice is af.lattice is cof.lattice is ac.lattice
            is fib.lattice):
        for aset in (weq, af, cof, ac, fib):
            ArrowSet.empty(lat)._compatible(aset)  # raises for the stray one
    t = lat._cache.get("tables") or _tables(lat)
    weq, af, cof, ac, fib = weq.mask, af.mask, cof.mask, ac.mask, fib.mask
    # One pass over the masks' chunks: llp(AF), llp(F), rlp(C), rlp(AC)
    # and W's union of role rows.
    lift_af = lift_fib = lift_cof = lift_ac = t.full
    roles = 0
    low = t.chunk_bits
    for s, llp, rlp, role in t.lift_chunks:
        lift_af &= llp[af >> s & low]
        lift_fib &= llp[fib >> s & low]
        lift_cof &= rlp[cof >> s & low]
        lift_ac &= rlp[ac >> s & low]
        roles |= role[weq >> s & low]
    if lift_af != cof or lift_cof != af or lift_fib != ac or lift_ac != fib:
        return False
    if af & ~weq or ac != cof & weq or af != fib & weq:
        return False
    # Two-out-of-three: no triangle holds exactly two of its arrows.
    base = t.role_base
    first, second, composite = roles & base, roles >> 1 & base, roles >> 2 & base
    return not (first | second | composite) & ~(first ^ second ^ composite)
