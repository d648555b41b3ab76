"""Greedy fat-node extraction and decomposition trees against walk-based
references.

The package sizes live downsets with bitsets and claims cover chunks from
them; the references below size them by walking every live downset, which
is the definition, and split blocks by :func:`latticekit.cover_decompose`'s
walk.  Block and subblock decompositions, and the trees of both join
indexes, must be identical.
"""

import random

import pytest

import latticekit as lk
from latticekit import decomposition
from latticekit.metrics import ceil_sqrt
from conftest import random_order, tree_nodes


def walk_extract(in_nbrs, visit_order, k, ids=None):
    """Reference extraction: walk each live node's live downset; a walk of
    at least k nodes makes the node a header and removes its downset.
    ``ids`` names the nodes in visit order, as the package's does."""
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
    if ids is not None:
        name = dict(zip(visit_order, ids)).__getitem__
        blocks = [list(map(name, b)) for b in blocks]
        headers, residual = list(map(name, headers)), list(map(name, residual))
    return blocks, headers, residual, 0


def block_sizes(n):
    return sorted({1, min(2, n), ceil_sqrt(n), -(-n // 2), n})


def decompositions(g):
    """Every block and subblock decomposition the package derives from g."""
    out = []
    for k in block_sizes(g.n):
        bd = lk.block_decompose(g, k)
        subs = [lk.subblock_decompose(g, bd, i) for i in range(bd.m)]
        out.append((k, bd.blocks, bd.headers, bd.residual,
                    [(e.subblocks, e.subheaders, e.residual) for e in subs]))
    return out


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


def induced(g, members):
    """The in-lists of the subgraph of g induced on ``members``, by rank."""
    rank = {x: r for r, x in enumerate(members)}
    return [[rank[w] for w in g.in_neighbours[x] if w in rank] for x in members]


def reference_tree(g, simple=False):
    """The root of g's decomposition tree by the recursion it stands for:
    blocks by :func:`walk_extract`, each split into chunks by
    :func:`latticekit.cover_decompose`, each chunk of at least 2d members
    block-decomposed again on its induced subgraph with block size
    |chunk|/d.  ``simple`` gives the simple join index's one-level tree:
    block size ceil(sqrt n), every chunk a leaf."""
    g2, top, _ = lk.with_top(g)
    n = g2.n
    d = max(2, max(map(len, g2.in_neighbours)))
    leaf_size = n + 1 if simple else 2 * d

    def block(h, members):
        return (h, tuple(chunk(c, m) for c, m in lk.cover_decompose(g2, members, h)),
                None)

    def chunk(me, members):
        if len(members) < leaf_size:
            return (me, None, tuple(members))
        blocks, headers, residual, _ = walk_extract(
            induced(g2, members), range(len(members)), -(-len(members) // d), members)
        if residual:
            if me not in residual:
                raise lk.StructureError("chunk header must top the residual")
            own = residual
        else:
            if headers[-1] != me:
                raise lk.StructureError("chunk header must head the last block")
            headers.pop()
            own = blocks.pop()
        kids = tuple(block(h, b) for h, b in zip(headers, blocks))
        return (me, kids, block(me, own) if len(own) > 1 else None)

    order = lk.linear_extension(g2).order
    if not simple and n < 2 * d:
        return (None, (chunk(top, order),), None)
    blocks, headers, residual, _ = walk_extract(
        g2.in_neighbours, order, ceil_sqrt(n) if simple else -(-n // d))
    if residual:
        if top not in residual:
            raise lk.StructureError("a topped lattice leaves its top in the residual")
        blocks.append(residual)
        headers.append(top)
    return (None, tuple(block(h, b) for h, b in zip(headers, blocks)), None)


def outcome(build):
    """A build's result, or the type of the exception it raised."""
    try:
        return build()
    except Exception as e:  # compared by type against the reference's
        return type(e)


def non_reduced_dag(rng, n):
    """A random DAG on n nodes with a top, its edges not transitively
    reduced: each pair i < j (i below j) an edge with one random
    probability, every other sink under node n - 1, ids shuffled."""
    p = rng.uniform(0.2, 0.6)
    edges = {(i, j) for i in range(n - 1) for j in range(i + 1, n) if rng.random() < p}
    edges |= {(i, n - 1) for i in set(range(n - 1)) - {i for i, _ in edges}}
    label = rng.sample(range(n), n)
    return lk.parse_trg(f"lattice v1\n{n} {len(edges)}\n"
                        + "".join(f"{label[i]} {label[j]}\n" for i, j in edges))


def assert_trees_match_reference(g):
    assert (outcome(lambda: lk.build_decomposition_tree(g).root)
            == outcome(lambda: reference_tree(g))), lk.format_trg(g)
    assert (outcome(lambda: lk.build_simple_join_index(g).tree.root)
            == outcome(lambda: reference_tree(g, simple=True))), lk.format_trg(g)


def test_trees_match_walk_reference(family_zoo, small_lattices):
    for g in lattices(family_zoo, small_lattices):
        assert_trees_match_reference(g)


def test_trees_match_walk_reference_off_lattices():
    # claims equal the walk on any DAG, and both refuse the same inputs:
    # orders that are not lattices, and graphs with redundant edges, where
    # a covered child can lie below another
    rng = random.Random(31)
    for _ in range(300):
        assert_trees_match_reference(random_order(rng, rng.randint(4, 40)))
    refused = 0
    for _ in range(2000):
        g = non_reduced_dag(rng, rng.randint(5, 12))
        assert_trees_match_reference(g)
        refused += outcome(lambda: lk.build_decomposition_tree(g)) is lk.StructureError
    assert refused > 100


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
