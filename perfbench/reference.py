"""Reference figures: one row per lattice, as in the roadmap's re-anchor table.

    python3 perfbench/reference.py            # about three minutes

For each lattice it prints the blocked meet index build time (c = 1/2,
with its dual), the median time of each query kind over uniform pairs,
the oracle's closure bytes beside the index bytes, and the recursive join
index's build split into its decomposition tree and its order index.
Answers are checked against the closed-form references as in run.py.
"""

from __future__ import annotations

import random
import statistics
import sys
import time

import run

PAIRS = 2000


def median_us(fn, pairs) -> float:
    pc = time.perf_counter_ns
    samples = []
    for x, y in pairs:
        t0 = pc()
        fn(x, y)
        samples.append(pc() - t0)
    return statistics.median(samples) / 1e3


def seconds(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def row(name, lat, W, lk) -> None:
    rng = random.Random(name)
    pairs = [(rng.randrange(lat.n), rng.randrange(lat.n)) for _ in range(PAIRS)]
    g = lk.parse_trg(lat.text())
    W.settle()
    idx, build = seconds(lk.build_meet_index, g, 0.5)
    W.settle()
    rj, rj_build = seconds(lk.build_recursive_join_index, g)
    W.settle()
    _, tree = seconds(lk.build_decomposition_tree, g)
    sj = lk.build_simple_join_index(g)
    closure = lk.transitive_closure(g)
    checker = W.Checker()
    for x, y in pairs[:200]:
        checker.check(lat, "leq", x, y, idx.test_order(x, y))
        checker.check(lat, "meet", x, y, idx.meet(x, y))
        for j in (idx.join(x, y), rj.join(x, y), sj.join(x, y)):
            checker.check(lat, "join", x, y, j)
    assert checker.failed == 0, f"{name}: {checker.failed} wrong answers"
    W.settle()
    times = {k: median_us(f, pairs) for k, f in (
        ("leq", idx.test_order), ("meet", idx.meet), ("join", idx.join),
        ("rjoin", rj.join), ("sjoin", sj.join),
        ("oracle_meet", lambda x, y: lk.oracle_meet(closure, x, y)))}
    closure_b, meet_b, rj_b = W.held_bytes([[closure], [idx], [rj]], [g])
    entries = lk.space_report(idx).total
    print(f"| {name} | {lat.n} | {build * 1e3:.0f} | "
          + " | ".join(f"{times[k]:.1f}" for k in
                       ("leq", "meet", "join", "rjoin", "sjoin", "oracle_meet"))
          + f" | {closure_b / 1e6:.1f} | {meet_b / 1e6:.1f} | {entries:,} | "
          f"{meet_b / entries:.1f} | {meet_b / closure_b:.2f} | {rj_b / 1e6:.1f} | "
          f"{rj_build * 1e3:.0f} | {tree * 1e3:.0f} |", flush=True)


def main() -> int:
    run.import_package()
    import latticekit as lk

    import lattices as L
    import workloads as W
    print("| lattice | n | meet-index build ms (with dual) | leq us | meet us | join us "
          "| recursive join us | simple join us | oracle meet us | closure MB "
          "| blocked index MB | entries | bytes/entry | index/closure "
          "| recursive index MB | recursive build ms | of which tree ms |")
    print("|" + "---|" * 17)
    # ids as latticekit.generators assigns them: the texts are byte-identical
    # to format_trg(generate(...)) for boolean 12, grid (64, 64), boolean 14
    # and spec_for_target("random_distributive", 4096, seed=0)
    rng = random.Random(0)
    row("boolean 4096", L.relabel(L.boolean(12, rng), lambda e: e), W, lk)
    row("grid 4096", L.relabel(L.grid(64, 64, rng), lambda e: e), W, lk)
    row("grid 4096, ids by rank as in serve-degree", L.grid(64, 64, rng), W, lk)
    row("random_distributive 4837", L.relabel(
        L.distributive(4096, 1 << 62, rng, poset_rng=random.Random(0)),
        lambda m: (m.bit_count(), m)), W, lk)
    row("boolean 16384", L.relabel(L.boolean(14, rng), lambda e: e), W, lk)
    return 0


if __name__ == "__main__":
    sys.exit(main())
