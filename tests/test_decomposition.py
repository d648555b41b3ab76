import pytest

import latticekit as lk
from latticekit.decomposition import dump_blocks
from latticekit.metrics import ceil_sqrt
from conftest import tree_leaves


def blocks_partition(g, bd):
    seen = set()
    for blk in bd.blocks:
        for x in blk:
            assert x not in seen
            seen.add(x)
    for x in bd.residual:
        assert x not in seen
        seen.add(x)
    assert seen == set(range(g.n))


def check_block_invariants(g, bd):
    blocks_partition(g, bd)
    lk.verify_block_decomposition(g, bd)
    assert bd.m <= g.n // bd.k


def test_chain9_blocks_of_three(chain9):
    bd = lk.block_decompose(chain9, 3)
    assert bd.blocks == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    assert bd.headers == [2, 5, 8]
    assert bd.residual == []


def test_boolean2_hand_simulated(diamond):
    # ids: bottom 0, atoms 1 and 2, top 3; k = 2 extracts {0,1} then {2,3}
    bd = lk.block_decompose(diamond, 2)
    assert bd.blocks == [[0, 1], [2, 3]]
    assert bd.headers == [1, 3]
    assert bd.residual == []
    assert bd.block_of == [0, 0, 1, 1, 2]  # slot n: the null id, residual's


def test_k_equals_one_makes_singletons(divisor12):
    bd = lk.block_decompose(divisor12, 1)
    ext = lk.linear_extension(divisor12)
    assert bd.blocks == [[x] for x in ext.order]
    assert bd.headers == ext.order
    assert bd.residual == []


def test_invariants_across_families(family_zoo):
    for spec, g in family_zoo:
        bd = lk.block_decompose(g, ceil_sqrt(g.n))
        check_block_invariants(g, bd)


def test_decomposition_deterministic(family_zoo):
    for _, g in family_zoo:
        a = lk.block_decompose(g, ceil_sqrt(g.n))
        b = lk.block_decompose(g, ceil_sqrt(g.n))
        assert a.blocks == b.blocks
        assert a.headers == b.headers
        assert a.residual == b.residual


def test_block_decompose_cost_bound(family_zoo):
    for spec, g in family_zoo:
        bd = lk.block_decompose(g, ceil_sqrt(g.n))
        assert bd.edge_visits <= 4 * g.n ** 1.75 + 16 * g.n, spec


def test_dump_blocks_golden(chain9):
    bd = lk.block_decompose(chain9, 3)
    assert dump_blocks(bd) == (
        "block 0 header 2: 0 1 2\n"
        "block 1 header 5: 3 4 5\n"
        "block 2 header 8: 6 7 8\n"
        "residual: \n"
    )


def test_dump_blocks_with_subblocks_and_chunks(diamond):
    bd = lk.block_decompose(diamond, 2)
    subs = [lk.subblock_decompose(diamond, bd, i) for i in range(bd.m)]
    chunks = {i: lk.cover_decompose(diamond, bd.blocks[i], bd.headers[i])
              for i in range(bd.m)}
    assert dump_blocks(bd, subs, chunks) == (
        "block 0 header 1: 0 1\n"
        "block 1 header 3: 2 3\n"
        "residual: \n"
        "block 0 subresidual: 0\n"
        "block 1 subresidual: 2\n"
        "block 0 chunk header 0: 0\n"
        "block 1 chunk header 2: 2\n"
    )


def test_subblocks_chain_of_four():
    # block is a 4-chain including its header; below it a 3-chain with r=2
    g = lk.generate(lk.FamilySpec("chain", 4))
    bd = lk.block_decompose(g, 4)
    assert bd.blocks == [[0, 1, 2, 3]]
    entry = lk.subblock_decompose(g, bd, 0)
    assert entry.r == 2
    assert entry.subblocks == [[0, 1]]
    assert entry.subheaders == [1]
    assert entry.residual == [2]


def test_subblocks_antichain_block():
    # 6-element block: header above an antichain of four over a bottom.
    # r = 3 and no downset below the header reaches 3, so all residual.
    g = lk.parse_trg("lattice v1\n6 8\n0 1\n0 2\n0 3\n0 4\n1 5\n2 5\n3 5\n4 5\n")
    bd = lk.block_decompose(g, 6)
    assert bd.blocks == [[0, 1, 2, 3, 4, 5]]
    entry = lk.subblock_decompose(g, bd, 0)
    assert entry.r == 3
    assert entry.subblocks == []
    assert entry.residual == [0, 1, 2, 3, 4]


def test_subblocks_header_only_block():
    g = lk.parse_trg("lattice v1\n1 0\n")
    bd = lk.block_decompose(g, 1)
    entry = lk.subblock_decompose(g, bd, 0)
    assert entry.subblocks == [] and entry.residual == []


def test_subblock_invariants(family_zoo):
    for spec, g in family_zoo:
        bd = lk.block_decompose(g, ceil_sqrt(g.n))
        c = lk.transitive_closure(g)
        for i in range(bd.m):
            entry = lk.subblock_decompose(g, bd, i)
            members = set(bd.blocks[i]) - {bd.headers[i]}
            covered = set()
            for sub in entry.subblocks:
                covered |= set(sub)
            covered |= set(entry.residual)
            assert covered == members
            assert entry.count <= len(bd.blocks[i]) / entry.r
            for j, sub in enumerate(entry.subblocks):
                sset = set(sub)
                for x in sub:
                    if x != entry.subheaders[j]:
                        assert len(lk.downset(g, x, restrict=sset)) < entry.r
                assert lk.sublattice_violation(c, sub) is None
            rset = set(entry.residual)
            for x in entry.residual:
                assert len(lk.downset(g, x, restrict=rset)) < entry.r


def test_cover_decompose_diamond_block(diamond):
    chunks = lk.cover_decompose(diamond, [0, 1, 2, 3], 3)
    assert chunks == [(1, [0, 1]), (2, [2])]


def test_cover_decompose_chain_block(chain9):
    chunks = lk.cover_decompose(chain9, list(range(9)), 8)
    assert chunks == [(7, list(range(8)))]


def test_cover_decompose_boolean_second_block(diamond):
    bd = lk.block_decompose(diamond, 2)
    chunks = lk.cover_decompose(diamond, bd.blocks[1], 3)
    assert chunks == [(2, [2])]


def in_extension_order(members, pos) -> bool:
    ranks = [pos[x] for x in members]
    return ranks == sorted(ranks)


def test_member_lists_in_extension_order_header_last(family_zoo):
    for _, g0 in family_zoo:
        for g in (g0, lk.flip(g0)):
            pos = lk.linear_extension(g).position
            bd = lk.block_decompose(g, ceil_sqrt(g.n))
            assert in_extension_order(bd.residual, pos)
            for i, blk in enumerate(bd.blocks):
                assert in_extension_order(blk, pos) and blk[-1] == bd.headers[i]
                entry = lk.subblock_decompose(g, bd, i)
                assert in_extension_order(entry.residual, pos)
                for sub, sh in zip(entry.subblocks, entry.subheaders):
                    assert in_extension_order(sub, pos) and sub[-1] == sh
                for c, members in lk.cover_decompose(g, blk, bd.headers[i]):
                    assert in_extension_order(members, pos) and members[-1] == c


def test_cover_decompose_keeps_the_input_order(family_zoo):
    for _, g0 in family_zoo:
        for g in (g0, lk.flip(g0)):
            pos = lk.linear_extension(g).position
            bd = lk.block_decompose(g, ceil_sqrt(g.n))
            for blk, header in zip(bd.blocks, bd.headers):
                by_id = lk.cover_decompose(g, sorted(blk), header)
                by_ext = lk.cover_decompose(g, blk, header)
                assert ([(c, set(m)) for c, m in by_id]
                        == [(c, set(m)) for c, m in by_ext])
                for (_, a), (_, b) in zip(by_id, by_ext):
                    assert a == sorted(a) and in_extension_order(b, pos)


def test_subblock_decompose_rejects_a_block_not_ending_with_its_header(diamond):
    bd = lk.block_decompose(diamond, 2)
    bd.blocks[0].reverse()  # [1, 0]: header 1 first
    with pytest.raises(lk.StructureError, match="does not end with its header"):
        lk.subblock_decompose(diamond, bd, 0)


def test_cover_partitions(family_zoo):
    for _, g in family_zoo:
        bd = lk.block_decompose(g, ceil_sqrt(g.n))
        for i, blk in enumerate(bd.blocks):
            chunks = lk.cover_decompose(g, blk, bd.headers[i])
            union = set()
            for _, members in chunks:
                assert not union & set(members)
                union |= set(members)
            assert union == set(blk) - {bd.headers[i]}


def test_tree_invariants(family_zoo):
    for spec, g in family_zoo:
        tree = lk.build_decomposition_tree(g)  # verify() runs inside
        assert tree.node_count >= 1
        assert tree.leaf_cells <= tree.n


def test_trees_claim_chunks_without_walks_or_induced_copies(monkeypatch, family_zoo):
    from latticekit import decomposition
    from latticekit.order_index import shared_order_index

    def refuse(*args):
        raise AssertionError("a tree build walked covers or copied a subgraph")

    graphs = [g for _, g0 in family_zoo for g in (g0, lk.flip(g0))]
    # the simple join index claims from the downsets of an order index
    # held before the patch: building one copies its blocks' subgraphs
    held = [shared_order_index(g, ceil_sqrt(g.n)) for g in graphs]
    for name in ("cover_decompose", "_induced"):
        monkeypatch.setattr(decomposition, name, refuse)
    for g, oi in zip(graphs, held):
        lk.build_decomposition_tree(g)
        assert lk.build_simple_join_index(g).order is oi


def test_tree_small_lattice_single_leaf():
    # n below twice the degree parameter: root plus one leaf holding all
    g = lk.generate(lk.FamilySpec("boolean", 2))
    tree = lk.build_decomposition_tree(g, d=4)
    _, kids, _ = tree.root
    assert kids == ((3, None, (0, 1, 2, 3)),)  # a leaf, in extension order


def test_tree_chain_16_depth():
    from latticekit.metrics import ceil_log
    g = lk.generate(lk.FamilySpec("chain", 16))
    tree = lk.build_decomposition_tree(g)  # chain degree 1 is floored to 2
    assert tree.d == 2
    assert tree.depth <= 2 * ceil_log(16, 2) + 2


def test_tree_boolean3():
    g = lk.generate(lk.FamilySpec("boolean", 3))
    tree = lk.build_decomposition_tree(g)
    assert tree.d == 3
    # initial block size ceil(8/3) = 3 extracts the two downset halves
    assert [c[0] for c in tree.root[1]] == [3, 7]
    leaves = tree_leaves(tree.root)
    assert leaves and all(len(elements) < 2 * tree.d for _, _, elements in leaves)


def test_tree_rejects_understated_degree():
    g = lk.generate(lk.FamilySpec("boolean", 3))
    with pytest.raises(ValueError):
        lk.build_decomposition_tree(g, d=2)


def test_tree_virtual_top_for_antichain():
    g = lk.parse_trg("lattice v1\n3 0\n")
    tree = lk.build_decomposition_tree(g)
    assert tree.virtual_top and tree.top == 3
    assert tree.n == 4


def leaf(header, *elements):
    return (header, None, (header,) + elements)


def block(header, *chunks):
    return (header, chunks, None)


def deep_path():
    """A block/chunk path from the root down to a leaf at depth 13."""
    node = leaf(100)
    for i in range(6):
        node = block(200 + i, (300 + i, (node,), None))
    return node


# d = 2 and n = 16: depth bound 2 * 4 + 2 = 10, leaves below 4 elements
BROKEN_TREES = {
    "degree": ((block(10), block(11), block(12), block(13)), "node degree 4"),
    "depth": ((deep_path(),), "depth 11 exceeds bound 10"),
    "chunk header": ((block(10, leaf(1, 0), leaf(1, 2)),), "chunk header 1 repeats"),
    "block header": ((block(10, leaf(1, 0)), block(10, leaf(3, 2))),
                     "block header 10 repeats"),
    # chunk 9 holds block 8 (4 elements) and itself: a size-3 chunk in it
    # is not a factor 2 smaller
    "chunk shrink": ((block(10, (9, (block(8, leaf(7, 5, 6)),), None)),),
                     "chunk of size 3 under chunk of size 5"),
    "leaf size": ((block(10, leaf(4, 0, 1, 2)),), "leaf chunk too large"),
    "leaf overlap": ((block(10, leaf(1, 0), leaf(3, 0)),), "leaf lists overlap"),
}


def hand_tree(root_children):
    return lk.DecompositionTree(
        graph=lk.generate(lk.FamilySpec("chain", 16)), root=(None, root_children, None),
        d=2, top=15, virtual_top=False, n=16)


def test_verify_accepts_hand_built_tree():
    chunk = (9, (block(8, leaf(7, 5)),), block(9, leaf(6)))  # size 5 with its self block
    hand_tree((block(10, leaf(1, 0), leaf(3, 2), chunk),)).verify()


@pytest.mark.parametrize("case", BROKEN_TREES, ids=str)
def test_verify_rejects_broken_tree(case):
    children, message = BROKEN_TREES[case]
    with pytest.raises(lk.StructureError, match=message):
        hand_tree(children).verify()


def test_tree_leaves_in_extension_order(family_zoo):
    for _, g0 in family_zoo:
        for g in (g0, lk.flip(g0)):
            for idx in (lk.build_recursive_join_index(g), lk.build_simple_join_index(g)):
                pos = lk.linear_extension(idx.tree.graph).position
                leaves = tree_leaves(idx.tree.root)
                assert sum(len(e) for _, _, e in leaves) == idx.tree.leaf_cells
                for _, _, elements in leaves:
                    assert in_extension_order(elements, pos)
