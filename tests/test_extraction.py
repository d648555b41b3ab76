"""Greedy fat-node extraction and decomposition trees against walk-based
references.

The package sizes live downsets with bitsets and claims cover chunks from
them; the references (``reference_walks``) size them by walking every live
downset, which is the definition, and split blocks by a cover walk.  Block
and subblock decompositions, and the trees of both join indexes, must be
identical.
"""

import random

import pytest

import latticekit as lk
from latticekit import decomposition
from latticekit.decomposition import _bit_ids
from latticekit.metrics import ceil_sqrt
from conftest import block_sizes, random_order, tree_nodes
from reference_walks import reference_subblocks, reference_tree, walk_extract


def decompositions(g):
    """Every block decomposition the package derives from g."""
    return [(k, bd.blocks, bd.headers, bd.residual)
            for k in block_sizes(g.n) for bd in [lk.block_decompose(g, k)]]


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


def test_subblocks_match_walk_reference(family_zoo, small_lattices, random_orders):
    # subblocks are read off downset bitsets, both by the public
    # subblock_decompose and inside the meet index; hold both to the walk
    graphs = list(lattices(family_zoo, small_lattices)) + random_orders
    for g in graphs:
        for k in block_sizes(g.n):
            idx = lk.build_meet_index(g, with_dual=False, k=k)
            bd = idx.bd
            want_of = [-2] * (g.n + 1)
            want_rank = [0] * g.n
            for i, blk in enumerate(bd.blocks):
                subs, heads, residual = reference_subblocks(g, blk)
                e = lk.subblock_decompose(g, bd, i)
                assert (e.subblocks, e.subheaders, e.residual) == (subs, heads, residual)
                assert idx.sub_sizes[i] == list(map(len, subs))
                assert _bit_ids(idx.residual_masks[i], bd.blocks[i]) == residual
                for j, part in [*enumerate(subs), (-1, residual)]:
                    for r, x in enumerate(part):
                        want_of[x] = j
                        want_rank[x] = r
            assert idx.sub_of == want_of
            assert idx.sub_rank == want_rank


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
