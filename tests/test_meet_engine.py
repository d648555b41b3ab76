import random

import pytest

import latticekit as lk


def oracle_tables(g):
    c = lk.transitive_closure(g)
    return c


def test_divisor60_meet_is_gcd():
    g = lk.generate(lk.FamilySpec("divisor", 60))
    values = sorted(d for d in range(1, 61) if 60 % d == 0)
    ids = {v: i for i, v in enumerate(values)}
    idx = lk.build_meet_index(g)
    assert idx.meet(ids[12], ids[10]) == ids[2]
    assert idx.join(ids[4], ids[6]) == ids[12]


def test_boolean_meet_is_intersection():
    g = lk.generate(lk.FamilySpec("boolean", 4))
    idx = lk.build_meet_index(g)
    for x in range(16):
        for y in range(16):
            assert idx.meet(x, y) == x & y
            assert idx.join(x, y) == x | y


def test_join_of_comparable_pair(diamond):
    idx = lk.build_meet_index(diamond)
    assert idx.join(0, 2) == 2
    assert idx.meet(0, 2) == 0


def test_join_null_between_maximal_elements():
    g = lk.parse_trg("lattice v1\n3 2\n0 1\n0 2\n")
    idx = lk.build_meet_index(g)
    assert idx.join(1, 2) is None
    assert idx.meet(1, 2) == 0


def test_meet_null_on_antichain():
    g = lk.parse_trg("lattice v1\n2 0\n")
    idx = lk.build_meet_index(g)
    assert idx.meet(0, 1) is None
    assert idx.join(0, 1) is None


def test_exhaustive_small(small_lattices):
    for g in small_lattices:
        c = oracle_tables(g)
        idx = lk.build_meet_index(g)
        for x in range(g.n):
            for y in range(g.n):
                assert idx.meet(x, y) == lk.oracle_meet(c, x, y)
                assert idx.join(x, y) == lk.oracle_join(c, x, y)


def test_families_all_pairs(family_zoo):
    for spec, g in family_zoo:
        c = oracle_tables(g)
        idx = lk.build_meet_index(g)
        for x in range(g.n):
            for y in range(g.n):
                assert idx.meet(x, y) == lk.oracle_meet(c, x, y), (spec, x, y)
                assert idx.join(x, y) == lk.oracle_join(c, x, y), (spec, x, y)


@pytest.mark.parametrize("c_exp", [0.5, 0.75, 1.0])
def test_tradeoff_exponents_agree(c_exp):
    g = lk.generate(lk.FamilySpec("random_distributive", 120, seed=5))
    c = oracle_tables(g)
    idx = lk.build_meet_index(g, c_exp)
    rng = random.Random(3)
    for _ in range(2000):
        x, y = rng.randrange(g.n), rng.randrange(g.n)
        assert idx.meet(x, y) == lk.oracle_meet(c, x, y)
        assert idx.join(x, y) == lk.oracle_join(c, x, y)


def test_chain_c1_single_block():
    g = lk.generate(lk.FamilySpec("chain", 16))
    idx = lk.build_meet_index(g, 1.0)
    assert idx.bd.m == 1
    stats = lk.QueryStats()
    assert idx.meet(3, 11) == 3
    idx.meet(3, 11, stats)
    assert stats.array_probes >= 2  # exactly one block loop iteration
    for x in range(16):
        for y in range(16):
            assert idx.meet(x, y) == min(x, y)


def test_c_out_of_range():
    g = lk.generate(lk.FamilySpec("chain", 4))
    with pytest.raises(ValueError):
        lk.build_meet_index(g, 0.3)


def test_meet_in_block_header_shortcut(diamond):
    idx = lk.build_meet_index(diamond)
    # block 0 is {0, 1} with header 1
    assert idx.meet_in_block(0, 1, 0) == 0
    assert idx.meet_in_block(0, 0, 1) == 0


def test_meet_in_block_null_when_meet_leaves_block():
    # chain 0<1<2 under a diamond 2<{3,4}<5: k=3 extracts {0,1,2} first,
    # so the meet of 3 and 4 (which is 2) lies outside their block {3,4,5}
    g = lk.parse_trg("lattice v1\n6 6\n0 1\n1 2\n2 3\n2 4\n3 5\n4 5\n")
    idx = lk.build_meet_index(g)
    assert idx.bd.blocks == [[0, 1, 2], [3, 4, 5]]
    assert idx.meet_in_block(1, 3, 4) is None
    assert idx.meet(3, 4) == 2


def test_meet_in_block_matches_membership(family_zoo):
    # in-block answers equal the oracle exactly when the meet stays inside
    for spec, g in family_zoo:
        idx = lk.build_meet_index(g)
        c = oracle_tables(g)
        for i, blk in enumerate(idx.bd.blocks):
            members = set(blk)
            for x in blk:
                for y in blk:
                    m = lk.oracle_meet(c, x, y)
                    got = idx.meet_in_block(i, x, y)
                    if m is None or m not in members:
                        assert got is None, (spec, i, x, y)
                    else:
                        assert got == m, (spec, i, x, y)


def test_meet_in_block_uses_pair_tables():
    # a block with a principal subblock answers same-subblock pairs by table
    g = lk.generate(lk.FamilySpec("grid", (4, 4)))
    idx = lk.build_meet_index(g)
    c = oracle_tables(g)
    stats = lk.QueryStats()
    hits = 0
    for i, entry in enumerate(idx.subs):
        for j, sub in enumerate(entry.subblocks):
            for x in sub:
                for y in sub:
                    expected = lk.oracle_meet(c, x, y)
                    stats.reset()
                    got = idx.meet_in_block(i, x, y, stats)
                    if expected in set(sub):
                        assert got == expected
                        hits += stats.table_probes
    assert hits > 0


def test_subheader_rows_match_restricted_oracle(family_zoo):
    for spec, g in family_zoo:
        idx = lk.build_meet_index(g)
        c = oracle_tables(g)
        for i, entry in enumerate(idx.subs):
            blk = idx.bd.blocks[i]
            members = set(blk)
            for j, sh in enumerate(entry.subheaders):
                row = idx.subheader_meet[i][j]
                for r, x in enumerate(blk):
                    got = None if row[r] == idx.null else row[r]
                    expected = lk.oracle_meet(c, sh, x)
                    if expected is not None and expected not in members:
                        expected = None  # meets outside the block are not stored
                    assert got == expected, (spec, i, j, x)


def test_candidate_soundness(family_zoo):
    for _, g in family_zoo:
        idx = lk.build_meet_index(g)
        c = oracle_tables(g)
        rng = random.Random(8)
        # every candidate set the meet (and its in-block meets) maximises
        seen = []
        maximum = idx._maximum

        def recording(candidates, stats):
            seen.extend(candidates)
            return maximum(candidates, stats)

        idx._maximum = recording
        for _ in range(200):
            x, y = rng.randrange(g.n), rng.randrange(g.n)
            seen.clear()
            idx.meet(x, y)
            for z in seen:
                assert c.leq(z, x) and c.leq(z, y)


def test_pair_table_block_budget(family_zoo):
    for spec, g in family_zoo:
        idx = lk.build_meet_index(g)
        k = idx.bd.k
        for i, blk in enumerate(idx.bd.blocks):
            cells = idx.pair_table_cells_of_block(i)
            assert cells <= len(blk) * (k - 1) if k > 1 else cells == 0, spec


def test_pair_table_sqrt_bound_at_half(family_zoo):
    from latticekit.metrics import ceil_sqrt
    for spec, g in family_zoo:
        idx = lk.build_meet_index(g, 0.5)
        for i, blk in enumerate(idx.bd.blocks):
            assert idx.pair_table_cells_of_block(i) <= len(blk) * ceil_sqrt(g.n), spec


def test_diamond_pair_tables_tiny(diamond):
    idx = lk.build_meet_index(diamond)
    report = lk.space_report(idx)
    assert report.pair_table_cells <= 4


def test_join_requires_dual(diamond):
    idx = lk.build_meet_index(diamond, with_dual=False)
    with pytest.raises(ValueError):
        idx.join(0, 3)


def test_stats_block_loop_once_on_single_block():
    g = lk.generate(lk.FamilySpec("chain", 16))
    idx = lk.build_meet_index(g, 1.0)
    assert idx.bd.m == 1
    stats = lk.QueryStats()
    # one argument is the lone header, so the in-block call exits immediately
    # and the two array probes are exactly one main-loop iteration
    assert idx.meet(2, 15, stats) == 2
    assert stats.array_probes == 2


def test_diamond_candidates_small(diamond):
    idx = lk.build_meet_index(diamond)
    stats = lk.QueryStats()
    idx.meet(1, 2, stats)
    assert stats.candidate_count <= 2


def test_residual_downsets_and_pair_tables_match_references(family_zoo):
    for spec, g in family_zoo:
        idx = lk.build_meet_index(g)
        c = oracle_tables(g)
        for i, entry in enumerate(idx.subs):
            rset = set(entry.residual)
            for x in entry.residual:
                assert set(idx.residual_downsets[i][x]) == lk.downset(
                    g, x, restrict=rset), (spec, i, x)
            for j, sub in enumerate(entry.subblocks):
                table = idx.pair_tables[i][j]
                members = set(sub)
                for a, x in enumerate(sub):
                    for b, y in enumerate(sub):
                        expected = lk.oracle_meet(c, x, y)
                        if expected not in members:
                            expected = idx.null
                        assert table[a][b] == expected, (spec, i, j, x, y)


@pytest.mark.parametrize("x, y", [(-1, 3), (3, -1), (0, 16), (16, 0)])
def test_query_ids_out_of_range_raise(x, y):
    idx = lk.build_meet_index(lk.generate(lk.FamilySpec("boolean", 4)))
    for query in (idx.meet, idx.join, idx.test_order):
        with pytest.raises(lk.NodeIdError):
            query(x, y)
