"""Seeded inputs for the latmod benchmark.

Standard library only and independent of latmod: the program under test
sees nothing but what these functions produce.  The same workload and
seed always give the same inputs, and so the same digest.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random

# -- lattice descriptions ------------------------------------------------
#
# A description is (labels, covers) with covers as label pairs, the same
# shape as a latmod lattice JSON file.


def chain(n: int) -> tuple[list[str], list[tuple[str, str]]]:
    labels = [str(i) for i in range(n + 1)]
    return labels, [(labels[i], labels[i + 1]) for i in range(n)]


def product(left, right):
    (la, ca), (lb, cb) = left, right
    labels = [f"({a},{b})" for a in la for b in lb]
    covers = [(f"({a},{b})", f"({a2},{b})") for a, a2 in ca for b in lb]
    covers += [(f"({a},{b})", f"({a},{b2})") for b, b2 in cb for a in la]
    return labels, covers


BASE = {
    "n5": (
        ["0", "A", "B", "C", "1"],
        [("0", "A"), ("A", "C"), ("C", "1"), ("0", "B"), ("B", "1")],
    ),
    "grid2x1": product(chain(2), chain(1)),
    "chain5": chain(5),
    "cube": product(product(chain(1), chain(1)), chain(1)),
    "chain6": chain(6),
}


def relabel(base, rng: random.Random) -> dict:
    """An isomorphic copy with fresh labels, element order and cover order."""
    labels, covers = base
    fresh = rng.sample(range(1_000_000), len(labels))
    name = {old: f"e{v:06d}" for old, v in zip(labels, fresh)}
    elements = [name[x] for x in labels]
    rng.shuffle(elements)
    pairs = [[name[a], name[b]] for a, b in covers]
    rng.shuffle(pairs)
    return {"elements": elements, "covers": pairs}


# -- workloads -----------------------------------------------------------

PAPER_COLD_COMMANDS = (
    ("reproduce", ["reproduce", "--paper-checks"]),
    ("reach_grid2x1", ["graph", "reach", "--lattice", "builtin:grid2x1"]),
    ("models_n5", ["models", "enumerate", "--lattice", "builtin:n5", "--format", "json"]),
    ("transfers_n5", ["transfers", "enumerate", "--lattice", "builtin:n5", "--format", "dot"]),
    ("graph_square", ["graph", "localizations", "--lattice", "builtin:square", "--format", "json"]),
)

LADDER = ("grid2x1", "chain5", "cube", "chain6")
QUERY_LATTICES = ("n5", "grid2x1", "chain5", "cube")
QUERY_KINDS = (
    "right_cover",
    "left_cover",
    "right_long",
    "left_long",
    "golden",
    "derive",
    "verify",
)
QUERY_STREAM = 2800
CENSUS_PASSES = 8


def paper_cold(seed: int, limit: int | None = None) -> dict:
    commands = [[name, argv] for name, argv in PAPER_COLD_COMMANDS[:limit]]
    _rng("paper-cold", seed).shuffle(commands)
    return {"commands": commands}


def ladder(seed: int, limit: int | None = None) -> dict:
    rng = _rng("ladder", seed)
    return {
        "lattices": [[name, relabel(BASE[name], rng)] for name in LADDER[:limit]]
    }


def census(seed: int, limit: int | None = None) -> dict:
    """Passes over every isomorphism type of the closure-system family.

    Each pass holds one freshly labelled lattice per type, drawn from that
    type's members in a seeded order, so every pass does the same work
    while no lattice object repeats.
    """
    rng = _rng("census", seed)
    classes = closure_system_classes()[:limit]
    passes = []
    for _ in range(CENSUS_PASSES):
        order = list(range(len(classes)))
        rng.shuffle(order)
        passes.append(
            [[k, relabel(_family_lattice(rng.choice(classes[k])), rng)] for k in order]
        )
    return {"passes": passes}


def queries(seed: int, limit: int | None = None) -> dict:
    """Lattices for the warm set-up, and a stream of raw query draws.

    A draw is (lattice index, kind, r1, r2, r3); the runner resolves the
    random words against the enumerated models, so the stream itself
    depends on the seed alone.
    """
    rng = _rng("queries", seed)
    names = QUERY_LATTICES[:limit]
    lattices = [[name, relabel(BASE[name], rng)] for name in names]
    stream = [
        [
            rng.randrange(len(names)),
            rng.choice(QUERY_KINDS),
            rng.getrandbits(32),
            rng.getrandbits(32),
            rng.getrandbits(32),
        ]
        for _ in range(QUERY_STREAM)
    ]
    return {"lattices": lattices, "stream": stream}


GENERATORS = {
    "paper-cold": paper_cold,
    "ladder": ladder,
    "census": census,
    "queries": queries,
}


def digest(inputs: dict) -> str:
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}")


# -- the census family ---------------------------------------------------


def closure_system_classes() -> list[list[tuple[int, ...]]]:
    """Closure systems on {0,1,2,3} grouped by isomorphism type.

    A member is a family of subsets (as 4-bit masks) that contains the full
    set, is closed under intersection, has 5 to 8 members and at most 15
    strict inclusions.  Ordered by inclusion these are lattices.  Classes
    are listed in canonical-form order, members in mask order.
    """
    classes: dict[tuple, list[tuple[int, ...]]] = {}
    for k in range(4, 8):
        for sub in itertools.combinations(range(15), k):
            fam = (*sub, 15)
            members = set(fam)
            if any(a & b not in members for a in fam for b in fam):
                continue
            if sum(a != b and a & b == a for a in fam for b in fam) > 15:
                continue
            classes.setdefault(_canonical(fam), []).append(fam)
    return [classes[key] for key in sorted(classes)]


def _canonical(fam: tuple[int, ...]) -> tuple:
    # Smallest order matrix over the relabellings that keep each element's
    # (down-set size, up-set size) pair sorted; that pair is an invariant.
    n = len(fam)
    le = [[a & b == a for b in fam] for a in fam]
    key = [(sum(le[i]), sum(row[i] for row in le)) for i in range(n)]
    order = sorted(range(n), key=key.__getitem__)
    blocks = [list(g) for _, g in itertools.groupby(order, key=key.__getitem__)]
    best = None
    for perms in itertools.product(*(itertools.permutations(b) for b in blocks)):
        p = [x for block in perms for x in block]
        form = tuple(le[p[i]][p[j]] for i in range(n) for j in range(n))
        if best is None or form < best:
            best = form
    return (n, best)


def _family_lattice(fam: tuple[int, ...]):
    labels = [format(a, "04b") for a in fam]
    covers = [
        (format(a, "04b"), format(b, "04b"))
        for a in fam
        for b in fam
        if a != b
        and a & b == a
        and not any(c not in (a, b) and a & c == a and c & b == c for c in fam)
    ]
    return labels, covers
