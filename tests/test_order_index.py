import gc
import random
import sys
from array import array

import numpy as np
import pytest

import latticekit as lk
from conftest import bit_members
from latticekit.metrics import ceil_sqrt


def test_diamond_header_rows(diamond):
    idx = lk.build_order_index(diamond, k=2)
    # headers are the atom 1 and the top 3
    assert idx.bd.headers == [1, 3]
    assert list(idx.header_meet[0]) == [0, 1, 0, 1]   # meets with the atom
    assert list(idx.header_meet[1]) == [0, 1, 2, 3]   # meets with the top: identity


def test_row_typecode_follows_n():
    from latticekit.order_index import _typecode
    # the null id n is stored too: 2-byte items up to n = 65535
    for n, itemsize in ((65535, 2), (65536, 4)):
        row = array(_typecode(n), [n])
        assert row.itemsize == itemsize and row[0] == n
    assert _typecode(65535) == "H" and _typecode(65536) == "I"
    idx = lk.build_meet_index(lk.generate(lk.FamilySpec("boolean", 6)))
    rows = idx.order.header_meet + [r for rows in idx.subheader_meet for r in rows]
    tables = [t for ts in idx.pair_tables for t in ts]
    assert rows and tables
    assert all(a.itemsize == 2 for a in rows + tables)


def test_header_rows_match_oracle(family_zoo, small_lattices):
    # k = 1 and 2 give many blocks, so most header downsets are put together
    # from the local downsets of earlier blocks
    graphs = list(family_zoo) + [(None, g) for g in small_lattices]
    for spec, g0 in graphs:
        for g in (g0, lk.flip(g0)):
            c = lk.transitive_closure(g)
            for k in {k for k in (1, 2, ceil_sqrt(g.n)) if k <= g.n}:
                idx = lk.build_order_index(g, k=k)
                null = idx.null
                for i, h in enumerate(idx.bd.headers):
                    for x in range(g.n):
                        expected = lk.oracle_meet(c, h, x)
                        got = idx.header_meet[i][x]
                        assert (None if got == null else got) == expected, (spec, k, h, x)


def latest_common_lower_bounds(g, bd):
    """Header rows by brute force: row i holds, at z, the latest element of
    Down(h_i) ∩ Down(z) in block order (blocks, then the residual), or the
    null id n when there is none."""
    c = lk.transitive_closure(g)
    position = {x: p for p, x in enumerate(
        [x for blk in bd.blocks for x in blk] + bd.residual)}
    below = [set(c.nodes_of(c.down_masks[x])) for x in range(g.n)]
    return [[max(below[h] & below[z], key=position.__getitem__, default=g.n)
             for z in range(g.n)] for h in bd.headers]


def assert_row_contract(g, ks):
    for h in (g, lk.flip(g)):
        for k in {k for k in ks if 1 <= k <= h.n}:
            idx = lk.build_order_index(h, k=k)
            got = [list(row) for row in idx.header_meet]
            assert got == latest_common_lower_bounds(h, idx.bd), (h, k)


def random_order(rng, n):
    """A random order on n elements as its covering graph: each pair i < j
    related with one random probability, closed transitively, then the ids
    shuffled."""
    p = rng.uniform(0.15, 0.5)
    above = [0] * n
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if rng.random() < p:
                above[i] |= 1 << j | above[j]
    label = rng.sample(range(n), n)
    covers = [(label[i], label[j]) for i in range(n) for j in range(n)
              if above[i] >> j & 1 and not any(above[i] >> w & 1 and above[w] >> j & 1
                                               for w in range(n))]
    return lk.parse_trg(f"lattice v1\n{n} {len(covers)}\n"
                        + "".join(f"{u} {v}\n" for u, v in covers))


def test_header_rows_are_latest_common_lower_bounds(small_lattices):
    # a chain has the most levels (and at k = 1 over 64 headers), a bounded
    # antichain only three
    for g in (lk.generate(lk.FamilySpec("chain", 150)),
              lk.generate(lk.FamilySpec("antichain_bounded", 30))):
        assert_row_contract(g, (1, 2, 3, ceil_sqrt(g.n), g.n))
    for g in small_lattices:
        assert_row_contract(g, (1, 2, ceil_sqrt(g.n)))


def test_header_rows_on_orders_that_are_not_lattices():
    # the contract holds on any DAG, where a header and an element may have
    # several maximal common lower bounds
    rng = random.Random(23)
    checked = 0
    while checked < 300:
        g = random_order(rng, rng.randint(4, 14))
        if lk.is_partial_lattice(g) is None:
            continue
        assert_row_contract(g, (1, 2, ceil_sqrt(g.n)))
        checked += 1


def latest_in_part(g, part, heads):
    """In-block rows by brute force: per head h, at rank r in ``part``, the
    latest element of Down_P(h) ∩ Down_P(part[r]) in ``part``'s member
    order, Down_P taken inside ``part``, or the null id n."""
    position = {x: p for p, x in enumerate(part)}
    below = {x: lk.downset(g, x, restrict=position) for x in part}
    return [[max(below[h] & below[z], key=position.__getitem__, default=g.n)
             for z in part] for h in heads]


def assert_in_block_contract(g, ks):
    for h in (g, lk.flip(g)):
        for k in {k for k in ks if 1 <= k <= h.n}:
            idx = lk.build_meet_index(h, with_dual=False, k=k)
            for i, blk in enumerate(idx.bd.blocks):
                entry = lk.subblock_decompose(h, idx.bd, i)
                got = [list(row) for row in idx.subheader_meet[i]]
                assert got == latest_in_part(h, blk, entry.subheaders), (h, k, i)
                for j, sub in enumerate(entry.subblocks):
                    rows = latest_in_part(h, sub, sub)
                    assert list(idx.pair_tables[i][j]) == [z for row in rows for z in row]


def test_in_block_rows_are_latest_common_lower_bounds(small_lattices):
    # subheader rows and pair tables keep the header rows' contract inside
    # their block or subblock, on any DAG
    for g in small_lattices:
        assert_in_block_contract(g, (2, ceil_sqrt(g.n), g.n))
    rng = random.Random(23)
    checked = 0
    while checked < 300:
        g = random_order(rng, rng.randint(4, 14))
        if lk.is_partial_lattice(g) is None:
            continue
        assert_in_block_contract(g, (2, ceil_sqrt(g.n), g.n))
        checked += 1


def test_four_byte_rows():
    # n = 65536 leaves no 2-byte null id; 32 blocks of 2048 keep it small
    side = 256
    g = lk.generate(lk.FamilySpec("grid", (side, side)))
    idx = lk.build_order_index(g, k=2048)
    n = g.n
    assert n == 65536 and idx.bd.m == 32
    size = sys.getsizeof(array("I", [n]) * n)
    z = np.arange(n)
    for h, row in zip(idx.bd.headers, idx.header_meet):
        assert row.typecode == "I" and row.itemsize == 4
        # rows are copies of a blank row, without the slack of a grown array
        assert sys.getsizeof(row) == size
        # the meet in a grid is the coordinatewise minimum
        meet = np.minimum(z // side, h // side) * side + np.minimum(z % side, h % side)
        assert np.array_equal(np.frombuffer(row, np.uint32), meet), h

    # the meet index's in-block rows and pair tables are 4-byte copies of
    # blank rows too, null where the meet leaves the block or subblock
    meet = lk.build_meet_index(g, k=2048, with_dual=False)
    sub_of = np.array(meet.sub_of)
    block_of = np.array(meet.bd.block_of)

    def coordinatewise_meets(part, heads, inside):
        a, b = np.array(heads)[:, None], np.array(part)[None, :]
        z = np.minimum(a // side, b // side) * side + np.minimum(a % side, b % side)
        return np.where(inside(z), z, n)

    for i, blk in enumerate(meet.bd.blocks):
        entry = lk.subblock_decompose(g, meet.bd, i)
        assert len(entry.subheaders) > 1 and entry.subblocks
        rows = meet.subheader_meet[i]
        tables = meet.pair_tables[i]
        for a in rows + tables:
            assert a.typecode == "I" and sys.getsizeof(a) == sys.getsizeof(
                array("I", [n]) * len(a))
        got = np.array([np.frombuffer(row, np.uint32) for row in rows])
        assert np.array_equal(got, coordinatewise_meets(
            blk, entry.subheaders, lambda z: block_of[z] == i)), i
        for j, (sub, table) in enumerate(zip(entry.subblocks, tables)):
            expected = coordinatewise_meets(
                sub, sub, lambda z: (block_of[z] == i) & (sub_of[z] == j))
            assert np.array_equal(np.frombuffer(table, np.uint32),
                                  expected.ravel()), (i, j)


def test_decomposition_of_another_graph_is_rejected(diamond, chain9):
    # a decomposition of another graph, or one at another block size than k
    for g, other, k in ((diamond, chain9, None), (chain9, diamond, None),
                        (diamond, diamond, 3)):
        with pytest.raises(ValueError, match="block decomposition"):
            lk.build_order_index(g, lk.block_decompose(other, 2), k)


def test_one_linear_extension_per_build(monkeypatch, family_zoo):
    from latticekit import decomposition, order_index
    calls = []

    def counted(g):
        calls.append(g)
        return lk.linear_extension(g)

    for module in (decomposition, order_index):
        monkeypatch.setattr(module, "linear_extension", counted, raising=False)
    for _, g in family_zoo:
        calls.clear()
        lk.build_order_index(g)
        assert calls == [g]


def test_indexes_on_one_graph_share_one_order_index(monkeypatch, family_zoo):
    from latticekit import decomposition, order_index
    calls = []

    def counted(g):
        calls.append(g)
        return lk.linear_extension(g)

    for module in (decomposition, order_index):
        monkeypatch.setattr(module, "linear_extension", counted, raising=False)
    for spec, g in family_zoo:
        if lk.with_top(g)[2]:
            continue
        meet = lk.build_meet_index(g)
        shared = meet.order
        assert lk.build_simple_join_index(g).order is shared, spec
        assert lk.build_recursive_join_index(g).order is shared, spec
        own = [lk.build_meet_index(g, 0.75, with_dual=False).order, meet.dual.order,
               lk.build_meet_index(lk.flip(g), with_dual=False).order,
               lk.build_order_index(g), lk.build_order_index(g, shared.bd)]
        assert len({id(o) for o in own + [shared]}) == len(own) + 1, spec
        # held only weakly: once its holders are gone, the next build
        # computes its own order index
        del meet, shared, own
        gc.collect()
        calls.clear()
        lk.build_simple_join_index(g)
        assert calls == [g], spec


def test_down_dicts_are_local_downsets(family_zoo):
    for _, g in family_zoo:
        idx = lk.build_order_index(g)
        bd = idx.bd
        for x in range(g.n):
            if bd.block_of[x] < bd.m:
                universe = bd.blocks[bd.block_of[x]]
            else:
                universe = bd.residual
            assert universe[idx.rank[x]] == x
            members = bit_members(idx.down[x], universe)
            assert members == lk.downset(g, x, restrict=set(universe))
            assert x in members


def test_order_matches_closure_exhaustive(small_lattices, family_zoo):
    for g in small_lattices:
        idx = lk.build_order_index(g)
        c = lk.transitive_closure(g)
        for x in range(g.n):
            for y in range(g.n):
                assert idx.test_order(x, y) == c.leq(x, y)
    for _, g in family_zoo:
        idx = lk.build_order_index(g)
        c = lk.transitive_closure(g)
        for x in range(g.n):
            for y in range(g.n):
                assert idx.test_order(x, y) == c.leq(x, y)


def test_diamond_cases(diamond):
    idx = lk.build_order_index(diamond)
    assert idx.test_order(0, 3)
    assert not idx.test_order(1, 2)
    assert not idx.test_order(3, 0)


def test_probe_budget(family_zoo):
    stats = lk.QueryStats()
    for _, g in family_zoo:
        idx = lk.build_order_index(g)
        rng = random.Random(0)
        for _ in range(300):
            x, y = rng.randrange(g.n), rng.randrange(g.n)
            idx.test_order(x, y, stats)
            assert stats.max_order_test_probes <= 5


def test_entry_budget(family_zoo):
    for spec, g in family_zoo:
        idx = lk.build_order_index(g)
        assert idx.down_entries <= 2 * g.n ** 1.5, spec


def test_flip_rebuild_answers_reversed_order(divisor12):
    fwd = lk.build_order_index(divisor12)
    rev = lk.build_order_index(lk.flip(divisor12))
    for x in range(divisor12.n):
        for y in range(divisor12.n):
            assert rev.test_order(x, y) == fwd.test_order(y, x)


def test_meet_with_header_single_probe(diamond):
    idx = lk.build_order_index(diamond, k=2)
    stats = lk.QueryStats()
    assert idx.meet_with_header(0, 2, stats) == 0   # atom block vs other atom
    assert stats.array_probes == 1
    assert idx.meet_with_header(1, 1) == 1          # x <= header gives x
    assert idx.meet_with_header(0, 1) == 1          # x is the header itself


def test_meet_with_header_null():
    g = lk.parse_trg("lattice v1\n3 1\n0 2\n")  # 1 incomparable to 0 < 2
    idx = lk.build_order_index(g, k=2)
    assert idx.bd.headers == [2]
    assert idx.meet_with_header(0, 1) is None


def test_meet_with_header_rejects_bad_ids():
    g = lk.generate(lk.FamilySpec("boolean", 3))
    idx = lk.build_order_index(g)
    for x in (-1, g.n):
        with pytest.raises(lk.NodeIdError):
            idx.meet_with_header(0, x)


def test_space_counts(diamond):
    idx = lk.build_order_index(diamond, k=2)
    report = lk.space_report(idx)
    assert report.header_meet_cells == 2 * 4
    assert report.down_entries == 6  # {0},{0,1},{2},{2,3}
    assert report.total == 14


def test_stats_recorder_isolated_per_caller(diamond):
    idx = lk.build_order_index(diamond)
    a, b = lk.QueryStats(), lk.QueryStats()
    idx.test_order(0, 3, a)
    idx.test_order(0, 3, b)
    idx.test_order(1, 3, a)
    assert a.order_tests == 2 and b.order_tests == 1
