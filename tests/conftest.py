import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from latmod import build_lattice, chain, n5, product


@pytest.fixture(scope="session")
def pentagon():
    return n5()


@pytest.fixture(scope="session")
def square():
    return product(chain(1), chain(1))


@pytest.fixture(scope="session")
def grid21():
    return product(chain(2), chain(1))


@pytest.fixture(scope="session")
def corpus(pentagon, square, grid21):
    """The lattices most tests sweep over."""
    return {
        "n5": pentagon,
        "square": square,
        "grid2x1": grid21,
        "chain1": chain(1),
        "chain2": chain(2),
        "chain3": chain(3),
    }


def lattice_as_sets(lat):
    """(n, leq pairs, cover pairs, meets, joins) for the naive oracles."""
    n = lat.n
    leq = {(i, j) for i in range(n) for j in range(n) if lat.le(i, j)}
    covers = {(c.source, c.target) for c in lat.covers}
    meets = [[lat.meet(i, j) for j in range(n)] for i in range(n)]
    joins = [[lat.join(i, j) for j in range(n)] for i in range(n)]
    return n, leq, covers, meets, joins


def chain_union(*lengths):
    """0 + (C_a1 + ... + C_ar) + 1: chains of the given lengths side by side.

    Chain i holds elements c{i}.1 .. c{i}.a, above a shared bottom 0 and
    below a shared top 1; (1, 1) is the square, (2, 1) N5 and (1, 1, 1) M3.
    """
    labels = ["0"]
    covers = []
    for i, a in enumerate(lengths):
        below = "0"
        for j in range(1, a + 1):
            labels.append(f"c{i}.{j}")
            covers.append((below, labels[-1]))
            below = labels[-1]
        covers.append((below, "1"))
    return build_lattice([*labels, "1"], covers)
