import pytest

import latticekit as lk

DIAMOND_TEXT = "lattice v1\n4 4\n0 1\n0 2\n1 3\n2 3\n"


@pytest.fixture
def diamond():
    # bottom 0, atoms 1 and 2, top 3
    return lk.parse_trg(DIAMOND_TEXT)


@pytest.fixture
def chain9():
    return lk.generate(lk.FamilySpec("chain", 9))


@pytest.fixture
def divisor12():
    return lk.generate(lk.FamilySpec("divisor", 12))


@pytest.fixture(scope="session")
def family_zoo():
    """A spread of small-to-medium lattices reused across structural tests."""
    specs = [
        lk.FamilySpec("chain", 17),
        lk.FamilySpec("antichain_bounded", 5),
        lk.FamilySpec("boolean", 4),
        lk.FamilySpec("boolean", 6),
        lk.FamilySpec("divisor", 360),
        lk.FamilySpec("grid", (6, 7)),
        lk.FamilySpec("random_distributive", 90, seed=3),
        lk.FamilySpec("random_distributive", 200, seed=12),
        lk.FamilySpec("random_poset_completion", 20, seed=1),
        lk.FamilySpec("random_poset_completion", 32, seed=4),
    ]
    return [(spec, lk.generate(spec)) for spec in specs]


@pytest.fixture(scope="session")
def small_lattices():
    """Every partial lattice on up to 5 elements (natural labelling)."""
    out = []
    for n in range(1, 6):
        out.extend(lk.enumerate_small_lattices(n))
    return out


def bit_members(bits: int, universe) -> set:
    """The members of ``universe`` that a bitset over ranks in it holds (bit
    r for ``universe[r]``); a bit beyond the universe fails the test."""
    assert bits >> len(universe) == 0, (bits, len(universe))
    return {x for r, x in enumerate(universe) if bits >> r & 1}


def tree_nodes(node) -> list[tuple]:
    """Every node of a decomposition tree from ``node`` down, in preorder; a
    node is (header, None, elements) for a leaf, else (header, children,
    self block or None)."""
    _, kids, tail = node
    if kids is None:
        return [node]
    below = kids if tail is None else kids + (tail,)
    return [node] + [n for child in below for n in tree_nodes(child)]


def tree_leaves(node) -> list[tuple]:
    """Every leaf of a decomposition tree below ``node``, left to right."""
    return [n for n in tree_nodes(node) if n[1] is None]


def brute_force_covers(values, divides):
    """Covering pairs of a finite order given as an explicit predicate."""
    pairs = []
    for a in values:
        for b in values:
            if a != b and divides(a, b):
                if not any(c not in (a, b) and divides(a, c) and divides(c, b)
                           for c in values):
                    pairs.append((a, b))
    return pairs
