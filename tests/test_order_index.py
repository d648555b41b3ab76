import gc
import random
from array import array

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
