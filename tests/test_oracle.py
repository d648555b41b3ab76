import itertools

import pytest

import latticekit as lk
from reference_walks import sublattice_violation


def test_closure_chain():
    g = lk.generate(lk.FamilySpec("chain", 3))
    c = lk.transitive_closure(g)
    for x in range(3):
        for y in range(3):
            assert c.leq(x, y) == (x <= y)


def test_closure_antichain():
    g = lk.parse_trg("lattice v1\n2 0\n")
    c = lk.transitive_closure(g)
    assert c.leq(0, 0) and c.leq(1, 1)
    assert not c.leq(0, 1) and not c.leq(1, 0)


def test_closure_diamond(diamond):
    c = lk.transitive_closure(diamond)
    assert all(c.leq(0, y) for y in range(4))
    assert c.leq(1, 3) and c.leq(2, 3)
    assert not c.leq(1, 2) and not c.leq(2, 1)


def test_closure_agrees_with_dfs_downsets(family_zoo):
    # dual route: the closure rows must match literal graph searches
    for _, g in family_zoo:
        c = lk.transitive_closure(g)
        for y in range(g.n):
            dfs = lk.downset(g, y)
            closed = {x for x in range(g.n) if c.leq(x, y)}
            assert closed == dfs


def test_meet_join_diamond(diamond):
    c = lk.transitive_closure(diamond)
    assert lk.oracle_meet(c, 1, 2) == 0
    assert lk.oracle_join(c, 1, 2) == 3
    assert lk.oracle_join(c, 0, 2) == 2  # x <= y gives join y
    assert lk.oracle_meet(c, 0, 2) == 0


def test_meet_chain_is_position_min():
    g = lk.generate(lk.FamilySpec("chain", 6))
    c = lk.transitive_closure(g)
    for x in range(6):
        for y in range(6):
            assert lk.oracle_meet(c, x, y) == min(x, y)
            assert lk.oracle_join(c, x, y) == max(x, y)


def test_meet_join_null_on_antichain():
    g = lk.parse_trg("lattice v1\n2 0\n")
    c = lk.transitive_closure(g)
    assert lk.oracle_meet(c, 0, 1) is None
    assert lk.oracle_join(c, 0, 1) is None


def test_divisor_meet_is_gcd_join_is_lcm():
    import math
    g = lk.generate(lk.FamilySpec("divisor", 60))
    values = sorted(d for d in range(1, 61) if 60 % d == 0)
    ids = {v: i for i, v in enumerate(values)}
    c = lk.transitive_closure(g)
    for a in values:
        for b in values:
            assert lk.oracle_meet(c, ids[a], ids[b]) == ids[math.gcd(a, b)]
            assert lk.oracle_join(c, ids[a], ids[b]) == ids[a * b // math.gcd(a, b)]


def test_idempotence_commutativity(small_lattices):
    for g in small_lattices:
        c = lk.transitive_closure(g)
        for x in range(g.n):
            assert lk.oracle_meet(c, x, x) == x
            assert lk.oracle_join(c, x, x) == x
            for y in range(g.n):
                assert lk.oracle_meet(c, x, y) == lk.oracle_meet(c, y, x)
                assert lk.oracle_join(c, x, y) == lk.oracle_join(c, y, x)


def test_associativity_small(small_lattices):
    # null is absorbing: if any pairwise step is undefined the triple is
    for g in small_lattices:
        c = lk.transitive_closure(g)
        def m(a, b):
            return None if a is None or b is None else lk.oracle_meet(c, a, b)
        def j(a, b):
            return None if a is None or b is None else lk.oracle_join(c, a, b)
        for x, y, z in itertools.product(range(g.n), repeat=3):
            assert m(m(x, y), z) == m(x, m(y, z))
            assert j(j(x, y), z) == j(x, j(y, z))


@pytest.mark.slow
@pytest.mark.parametrize("n", [6, 7])
def test_associativity_exhaustive(n):
    # completes the n <= 7 sweep; n <= 5 runs in the default suite
    for g in lk.enumerate_small_lattices(n):
        c = lk.transitive_closure(g)
        def m(a, b):
            return None if a is None or b is None else lk.oracle_meet(c, a, b)
        def j(a, b):
            return None if a is None or b is None else lk.oracle_join(c, a, b)
        for x, y, z in itertools.product(range(g.n), repeat=3):
            assert m(m(x, y), z) == m(x, m(y, z))
            assert j(j(x, y), z) == j(x, j(y, z))


def test_duality(family_zoo):
    for _, g in family_zoo:
        c = lk.transitive_closure(g)
        cf = lk.transitive_closure(lk.flip(g))
        for x in range(g.n):
            for y in range(g.n):
                assert lk.oracle_meet(c, x, y) == lk.oracle_join(cf, x, y)


def test_lower_bounds_sit_below_meet(small_lattices):
    for g in small_lattices:
        c = lk.transitive_closure(g)
        for x in range(g.n):
            for y in range(g.n):
                w = lk.oracle_meet(c, x, y)
                for z in range(g.n):
                    if c.leq(z, x) and c.leq(z, y):
                        assert w is not None and c.leq(z, w)


def test_meet_raises_on_non_lattice():
    # two minimal elements under two maximal elements: the butterfly
    g = lk.parse_trg("lattice v1\n4 4\n0 2\n0 3\n1 2\n1 3\n")
    c = lk.transitive_closure(g)
    with pytest.raises(lk.NotALatticeError) as err:
        lk.oracle_meet(c, 2, 3)
    assert set(err.value.witnesses) == {0, 1}
    with pytest.raises(lk.NotALatticeError) as err:
        lk.oracle_join(c, 0, 1)
    assert set(err.value.witnesses) == {2, 3}


def test_is_partial_lattice_accepts(diamond, family_zoo):
    assert lk.is_partial_lattice(diamond) is None
    for _, g in family_zoo:
        assert lk.is_partial_lattice(g) is None


def test_is_partial_lattice_butterfly_witness():
    g = lk.parse_trg("lattice v1\n4 4\n0 2\n0 3\n1 2\n1 3\n")
    v = lk.is_partial_lattice(g)
    assert v is not None
    assert (v.x1, v.x2, v.y1, v.y2) == (0, 1, 2, 3)


def test_is_partial_lattice_witness_is_lex_smallest():
    # embed a butterfly among comparable clutter; quadruple must be minimal
    g = lk.parse_trg("lattice v1\n6 8\n0 1\n0 2\n1 3\n1 4\n2 3\n2 4\n3 5\n4 5\n")
    v = lk.is_partial_lattice(g)
    assert (v.x1, v.x2, v.y1, v.y2) == (1, 2, 3, 4)


def test_enumerated_small_posets_match_filter(small_lattices):
    # every emitted graph passes both validators
    for g in small_lattices:
        assert lk.validate_reduction(g).ok
        assert lk.is_partial_lattice(g) is None


def test_sublattice_violation_detects_induced_butterfly():
    g = lk.parse_trg("lattice v1\n6 8\n0 1\n0 2\n1 3\n1 4\n2 3\n2 4\n3 5\n4 5\n")
    c = lk.transitive_closure(g)
    assert sublattice_violation(c, [0, 1, 2, 3, 4, 5]) is not None
    assert sublattice_violation(c, [0, 1, 3, 5]) is None
