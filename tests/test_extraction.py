"""Greedy fat-node extraction against a walk-based reference.

The package sizes live downsets with bitsets; the reference below sizes
them by walking every live downset, which is the definition.  Block and
subblock decompositions and decomposition trees built on either must be
identical.
"""

import pytest

import latticekit as lk
from latticekit import decomposition
from latticekit.metrics import ceil_sqrt
from conftest import tree_nodes


def walk_extract(in_nbrs, visit_order, k):
    """Reference extraction: walk each live node's live downset; a walk of
    at least k nodes makes the node a header and removes its downset."""
    gone = set()
    blocks, headers = [], []
    for x in visit_order:
        if x in gone:
            continue
        seen = {x}
        stack = [x]
        while stack:
            for w in in_nbrs[stack.pop()]:
                if w not in seen and w not in gone:
                    seen.add(w)
                    stack.append(w)
        if len(seen) >= k:
            gone |= seen
            blocks.append([w for w in visit_order if w in seen])
            headers.append(x)
    residual = [x for x in visit_order if x not in gone]
    return blocks, headers, residual, 0


def block_sizes(n):
    return sorted({1, min(2, n), ceil_sqrt(n), -(-n // 2), n})


def decompositions(g):
    """Every extraction result the package derives from g."""
    out = []
    for k in block_sizes(g.n):
        bd = lk.block_decompose(g, k)
        subs = [lk.subblock_decompose(g, bd, i) for i in range(bd.m)]
        out.append((k, bd.blocks, bd.headers, bd.residual,
                    [(e.subblocks, e.subheaders, e.residual) for e in subs]))
    return out, lk.build_decomposition_tree(g).root


def lattices(family_zoo, small_lattices):
    for _, g in family_zoo:
        yield g
        yield lk.flip(g)
    yield from small_lattices


def test_extraction_matches_walk_reference(family_zoo, small_lattices):
    for g in lattices(family_zoo, small_lattices):
        got = decompositions(g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decomposition, "_extract_blocks", walk_extract)
            want = decompositions(g)
        assert got == want


def test_extraction_visits_each_edge_once(family_zoo):
    # every node is live when visited: its header comes no earlier
    for _, g in family_zoo:
        for k in block_sizes(g.n):
            assert lk.block_decompose(g, k).edge_visits == g.edge_count


def held_ids(*containers):
    return {id(x) for c in containers for lst in c for x in lst}


@pytest.mark.parametrize("spec", [
    lk.FamilySpec("grid", (20, 20)),
    lk.FamilySpec("boolean", 9),
    lk.FamilySpec("random_distributive", 600, seed=2),
])
def test_extracted_ids_are_the_graphs_own_objects(spec):
    # ids above 256 are distinct objects, so a new int stored per id shows
    for g in (lk.generate(spec), lk.flip(lk.generate(spec))):
        assert g.n > 256
        for k in (ceil_sqrt(g.n), -(-g.n // 3)):
            bd = lk.block_decompose(g, k)
            held = held_ids(g.in_neighbours, g.out_neighbours)
            assert {id(x) for blk in bd.blocks for x in blk} <= held
            assert {id(x) for x in bd.residual} <= held
        tree = lk.build_decomposition_tree(g)
        held = held_ids(tree.graph.in_neighbours, tree.graph.out_neighbours)
        nodes = tree_nodes(tree.root)[1:]
        leaves = [x for _, kids, elements in nodes if kids is None for x in elements]
        assert leaves and {id(x) for x in leaves} <= held
        # headers too, but the top: ``with_top`` names it by an int of its own
        assert {id(h) for h, _, _ in nodes if h != tree.top} <= held
