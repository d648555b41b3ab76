"""Tests of the benchmark itself: its references, its checker, its inputs."""

import json
import random
from pathlib import Path

import pytest

import lattices as L
import run
import workloads as W

SMALL = [
    lambda r: L.boolean(4, r),
    lambda r: L.grid(5, 7, r),
    lambda r: L.divisor((2, 1, 1), r),
    lambda r: L.divisor((3, 2), r),
    lambda r: L.distributive(40, 60, r),
    lambda r: L.cut_completion(5, 10, 64, r),
]


def brute_force(lat):
    """Order, meets and joins from the cover edges alone."""
    below = [{x} for x in range(lat.n)]
    up = [[] for _ in range(lat.n)]
    for u, v in lat.edges:
        up[u].append(v)
    for x in range(lat.n):
        stack = [x]
        while stack:
            for w in up[stack.pop()]:
                if x not in below[w]:
                    below[w].add(x)
                    stack.append(w)
    leq = [[x in below[y] for y in range(lat.n)] for x in range(lat.n)]

    def extreme(bounds, le):
        best = [z for z in bounds if all(le(w, z) for w in bounds)]
        assert len(best) == 1
        return best[0]

    def meet(x, y):
        return extreme([z for z in range(lat.n) if leq[z][x] and leq[z][y]],
                       lambda w, z: leq[w][z])

    def join(x, y):
        return extreme([z for z in range(lat.n) if leq[x][z] and leq[y][z]],
                       lambda w, z: leq[z][w])

    return leq, meet, join


@pytest.mark.parametrize("make", SMALL)
@pytest.mark.parametrize("seed", [1, 2])
def test_closed_forms_agree_with_brute_force_closure(make, seed):
    lat = make(random.Random(seed))
    assert 2 <= lat.n <= 64
    leq, meet, join = brute_force(lat)
    for x in range(lat.n):
        for y in range(lat.n):
            assert lat.ref_leq(x, y) == leq[x][y]
            assert lat.ref_meet(x, y) == meet(x, y)
            assert lat.ref_join(x, y) == join(x, y)
    covers = {(u, v) for u in range(lat.n) for v in range(lat.n)
              if u != v and leq[u][v]
              and not any(w not in (u, v) and leq[u][w] and leq[w][v]
                          for w in range(lat.n))}
    assert set(lat.edges) == covers


def test_text_is_parsed_as_the_same_lattice():
    import latticekit as lk
    lat = L.distributive(40, 60, random.Random(3))
    g = lk.parse_trg(lat.text())
    assert g.n == lat.n and sorted(g.edges()) == lat.edges


def test_wrong_answers_and_exceptions_count_as_failed():
    lat = L.boolean(3, random.Random(0))
    x, y = lat.index[0b011], lat.index[0b110]
    c = W.Checker()
    c.check(lat, "meet", x, y, lat.index[0b010])
    c.check(lat, "join", x, y, lat.index[0b111])
    c.check(lat, "leq", x, y, False)
    assert (c.attempted, c.failed, c.wrong) == (3, 0, 0)
    c.check(lat, "meet", x, y, lat.index[0b000])   # a lower bound, not the meet
    c.check(lat, "join", x, y, None)
    c.check(lat, "leq", x, y, None)
    assert (c.attempted, c.failed, c.wrong) == (6, 3, 3)
    c.check(lat, "meet", x, y, IndexError("boom"))
    assert (c.attempted, c.failed, c.wrong) == (7, 4, 3)


def test_integer_and_boolean_lookalikes_are_accepted():
    np = pytest.importorskip("numpy")
    lat = L.boolean(3, random.Random(0))
    x, y = lat.index[0b011], lat.index[0b110]
    c = W.Checker()
    c.check(lat, "meet", x, y, np.uint16(lat.index[0b010]))
    c.check(lat, "leq", x, y, np.bool_(False))
    c.check(lat, "join", x, y, True)               # a bool is not an id
    assert (c.attempted, c.failed, c.wrong) == (3, 1, 1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a, b, c = (W.Inputs(workload, s, 1) for s in (5, 5, 6))
    assert a.digest() == b.digest() and a.pairs == b.pairs
    assert a.digest() != c.digest()


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_p99_is_taken_per_pool_then_aggregated():
    p = W.Pass()
    for pool, base in ((0, 1000), (1, 2000), (0, 1000), (2, 4000)):
        p.segment(pool)
        p.samples["meet"] += [base] * W.MIN_P99_SAMPLES
    # pools 0 (twice the samples), 1 and 2: median of their p99s
    assert p.p99("meet") == 2000
    p.setups_per_round = 3     # rebuild-mixed: geometric mean over pools
    assert p.p99("meet") == pytest.approx(2000)
    p.samples["meet"] += [9000] * 3    # joins pool 2, whose p99 stays 4000
    assert p.p99("meet") == pytest.approx(2000)
    short = W.Pass()
    short.segment(0)
    short.samples["meet"] += list(range(1, 101))
    assert short.p99("meet") == pytest.approx(99.99)   # too few: the whole run
