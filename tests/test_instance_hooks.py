"""Per-instance hooks: the query paths look up ``order.test_order`` and
``meet_in_block`` on the instance at call time, so a wrapper installed on
an instance attribute sees every call the package makes through it.
Profilers and tracers rely on this; binding these methods at build time
would silently bypass them.

Indexes built on one graph at one block size share one order index, so a
hook on a shared ``order.test_order`` sees the calls of every index that
shares it, not just those of the index it was installed through."""

import random

import latticekit as lk


def counting(fn, counts, key):
    def wrapper(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


def pairs(n, count=200, seed=7):
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def test_meet_index_and_dual_calls_go_through_instance_hooks():
    g = lk.generate(lk.FamilySpec("random_distributive", 200, seed=12))
    c = lk.transitive_closure(g)
    idx = lk.build_meet_index(g)
    counts = {}
    for tag, part in (("meet", idx), ("join", idx.dual)):
        part.order.test_order = counting(part.order.test_order, counts, tag + ".order")
        part.meet_in_block = counting(part.meet_in_block, counts, tag + ".in_block")
    meets, joins = lk.QueryStats(), lk.QueryStats()
    for x, y in pairs(g.n):
        assert idx.meet(x, y, meets) == lk.oracle_meet(c, x, y)
        assert idx.join(x, y, joins) == lk.oracle_join(c, x, y)
    # every order test the engines make is counted once in the stats
    assert counts["meet.order"] == meets.order_tests > 0
    assert counts["join.order"] == joins.order_tests > 0
    assert counts["meet.in_block"] > 0 and counts["join.in_block"] > 0


def test_recursive_join_calls_go_through_order_hook():
    g = lk.generate(lk.FamilySpec("grid", (6, 7)))
    c = lk.transitive_closure(g)
    for build in (lk.build_recursive_join_index, lk.build_simple_join_index):
        idx = build(g)
        counts = {}
        idx.order.test_order = counting(idx.order.test_order, counts, "order")
        stats = lk.QueryStats()
        for x, y in pairs(g.n):
            assert idx.join(x, y, stats) == lk.oracle_join(c, x, y)
        # each counted comparison makes one or two order tests
        assert 0 < stats.order_tests <= counts["order"] <= 2 * stats.order_tests


def test_hook_on_a_shared_order_index_counts_every_holder():
    g = lk.generate(lk.FamilySpec("random_distributive", 200, seed=12))
    c = lk.transitive_closure(g)
    idx = lk.build_meet_index(g)
    sj = lk.build_simple_join_index(g)
    counts = {}
    idx.order.test_order = counting(idx.order.test_order, counts, "order")
    stats = lk.QueryStats()
    for x, y in pairs(g.n):
        assert sj.join(x, y, stats) == lk.oracle_join(c, x, y)
    assert 0 < stats.order_tests <= counts["order"] <= 2 * stats.order_tests
