import math
import random

import pytest

import latticekit as lk
from latticekit.metrics import ceil_log


def test_max_degree_chain(chain9):
    stats = lk.max_degree(chain9)
    assert stats.max_degree == 1
    assert stats.histogram == [1, 8]  # bottom covers nothing, rest cover one


def test_max_degree_boolean():
    for m in (2, 3, 4):
        g = lk.generate(lk.FamilySpec("boolean", m))
        assert lk.max_degree(g).max_degree == m


def test_max_degree_distributive_log_bound():
    for seed in (0, 5, 9):
        g = lk.generate(lk.FamilySpec("random_distributive", 400, seed=seed))
        assert lk.max_degree(g).max_degree <= math.log2(g.n)


def test_simple_index_structure(diamond):
    idx = lk.build_simple_join_index(diamond)
    assert not idx.virtual_top
    assert idx.block_order == [1, 3]
    assert all(len(ch) <= 2 for ch in idx.cover_children)


def test_simple_index_chain9(chain9):
    idx = lk.build_simple_join_index(chain9)
    assert idx.block_order == [2, 5, 8]
    assert idx.cover_children == [[1], [4], [7]]


def test_simple_index_invariants_boolean16():
    g = lk.generate(lk.FamilySpec("boolean", 4))
    idx = lk.build_simple_join_index(g)
    d = idx.d
    for i, h in enumerate(idx.block_order):
        assert len(idx.cover_children[i]) <= d
        for c_node in idx.cover_children[i]:
            assert len(idx.local_downsets[i][c_node]) < idx.order.bd.k


def test_simple_join_diamond(diamond):
    idx = lk.build_simple_join_index(diamond)
    assert idx.join(1, 2) == 3
    assert idx.join(0, 1) == 1


def test_simple_join_chain(chain9):
    idx = lk.build_simple_join_index(chain9)
    for x in range(9):
        for y in range(9):
            assert idx.join(x, y) == max(x, y)


def test_joins_match_oracle_everywhere(small_lattices, family_zoo):
    for g in small_lattices:
        c = lk.transitive_closure(g)
        sj = lk.build_simple_join_index(g)
        rj = lk.build_recursive_join_index(g)
        for x in range(g.n):
            for y in range(g.n):
                expected = lk.oracle_join(c, x, y)
                assert sj.join(x, y) == expected
                assert rj.join(x, y) == expected
    for spec, g in family_zoo:
        c = lk.transitive_closure(g)
        sj = lk.build_simple_join_index(g)
        rj = lk.build_recursive_join_index(g)
        for x in range(g.n):
            for y in range(g.n):
                expected = lk.oracle_join(c, x, y)
                assert sj.join(x, y) == expected, (spec, x, y)
                assert rj.join(x, y) == expected, (spec, x, y)


def test_meets_via_flipped_structures(divisor12):
    c = lk.transitive_closure(divisor12)
    sj = lk.build_simple_join_index(lk.flip(divisor12))
    rj = lk.build_recursive_join_index(lk.flip(divisor12))
    for x in range(divisor12.n):
        for y in range(divisor12.n):
            expected = lk.oracle_meet(c, x, y)
            assert sj.join(x, y) == expected
            assert rj.join(x, y) == expected


def test_flip_may_change_degree():
    # three atoms under one top: degree 3; flipped it is 1
    g = lk.parse_trg("lattice v1\n4 3\n0 3\n1 3\n2 3\n")
    assert lk.max_degree(g).max_degree == 3
    assert lk.max_degree(lk.flip(g)).max_degree == 1


def test_virtual_top_answers_null():
    g = lk.parse_trg("lattice v1\n2 0\n")
    sj = lk.build_simple_join_index(g)
    rj = lk.build_recursive_join_index(g)
    assert sj.virtual_top and rj.tree.virtual_top
    assert sj.join(0, 1) is None
    assert rj.join(0, 1) is None
    assert sj.join(0, 0) == 0


def test_simple_join_work_budget(family_zoo):
    for spec, g in family_zoo:
        idx = lk.build_simple_join_index(g)
        m = len(idx.block_order)
        d = idx.d
        k = idx.order.bd.k
        rng = random.Random(2)
        stats = lk.QueryStats()
        for _ in range(300):
            x, y = rng.randrange(g.n), rng.randrange(g.n)
            stats.reset()
            idx.join(x, y, stats)
            assert stats.order_tests <= m + d + stats.scanned_elements, spec
            assert stats.scanned_elements < k or stats.scanned_elements == 0


def test_recursive_join_work_budget(family_zoo):
    for spec, g in family_zoo:
        idx = lk.build_recursive_join_index(g)
        d = idx.d
        budget = (d + 1) * (2 * ceil_log(idx.tree.n, d) + 2)
        rng = random.Random(2)
        stats = lk.QueryStats()
        for _ in range(300):
            x, y = rng.randrange(g.n), rng.randrange(g.n)
            stats.reset()
            idx.join(x, y, stats)
            assert stats.order_tests <= budget, (spec, stats.order_tests, budget)
            assert stats.tree_nodes_visited <= idx.tree.depth + 1


def test_recursive_answer_at_internal_node():
    # join equal to a block header is answered without reaching a leaf
    g = lk.generate(lk.FamilySpec("boolean", 3))
    idx = lk.build_recursive_join_index(g)
    stats = lk.QueryStats()
    assert idx.join(1, 2) == 3  # {a} v {b} = {a,b}, a block header here
    idx.join(1, 2, stats)
    assert stats.scanned_elements == 0


def test_recursive_boolean_join_is_union():
    g = lk.generate(lk.FamilySpec("boolean", 3))
    idx = lk.build_recursive_join_index(g)
    for x in range(8):
        for y in range(8):
            assert idx.join(x, y) == x | y


def test_space_reports():
    g = lk.generate(lk.FamilySpec("boolean", 4))
    sj = lk.build_simple_join_index(g)
    rj = lk.build_recursive_join_index(g)
    rep_s = lk.space_report(sj)
    rep_r = lk.space_report(rj)
    assert rep_s.total > 0 and rep_r.tree_nodes == rj.tree.node_count
    assert rep_r.leaf_cells == rj.tree.leaf_cells


def test_join_ids_out_of_range_raise():
    # two maximal elements: id 2 is the synthetic top, not a query id
    g = lk.parse_trg("lattice v1\n2 0\n")
    for idx in (lk.build_simple_join_index(g), lk.build_recursive_join_index(g)):
        for x, y in [(-1, 1), (1, -1), (0, 2), (2, 0)]:
            with pytest.raises(lk.NodeIdError):
                idx.join(x, y)
