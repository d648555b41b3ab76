"""Benchmark of latticekit: three workloads, checked answers, one JSON line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve-blocked --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (plus its overhead against an untraced pass over
the same work).  Lines before the last start with ``#`` and carry the
input digest and the oracle baseline row; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The package is imported
from ``src/`` next to this directory; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s", "index_bytes": "bytes", "queries_per_s": "1/s",
    "leq_us": "us", "meet_us": "us", "meet_p99_us": "us", "join_us": "us",
    "join_p99_us": "us", "sjoin_us": "us", "builds_per_s": "1/s",
}
HIGHER_IS_BETTER = {"queries_per_s", "builds_per_s"}
WORKLOADS = ("serve-blocked", "serve-degree", "rebuild-mixed")
SPAN_DIR = HERE / "out"


def import_package():
    src = ROOT / "src"
    if not (src / "latticekit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no latticekit sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import latticekit
    if Path(latticekit.__file__).resolve().parent != src / "latticekit":
        sys.exit(f"perfbench: imported latticekit from {latticekit.__file__}, not {src}")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced mode prints, with its unit."""
    units = {
        "trg.parse_s": "s",
        "decomposition.block_decompose_s": "s",
        "decomposition.subblock_decompose_s": "s",
        "decomposition.tree_build_s": "s",
        "decomposition.tree_nodes": "count",
        "order_index.build_s": "s",
        "order_index.build_edge_visits": "count",
        "order_index.entries": "count",
        "order_index.bytes": "bytes",
        "order_index.leq_probes": "count",
        "order_index.test_order_us": "us",
        "meet_engine.build_s": "s",
        "meet_engine.dual_build_s": "s",
        "meet_engine.build_edge_visits": "count",
        "meet_engine.entries": "count",
        "meet_engine.bytes": "bytes",
    }
    for q in ("meet", "join"):
        for f, u in (("header_scan_probes", "count"), ("header_scan_us", "us"),
                     ("block_hits", "count"), ("block_hit_ratio", "ratio"),
                     ("in_block_us", "us"), ("table_probes", "count"),
                     ("residual_scanned", "count"), ("candidates", "count"),
                     ("order_tests", "count")):
            units[f"meet_engine.{q}.{f}"] = u
    units.update({
        "degree_index.rjoin_build_s": "s",
        "degree_index.sjoin_build_s": "s",
        "degree_index.leaf_cells": "count",
        "degree_index.bytes": "bytes",
    })
    for q in ("join", "meet"):
        for f, u in (("tree_depth", "count"), ("order_tests", "count"),
                     ("leaf_scanned", "count"), ("descent_us", "us")):
            units[f"degree_index.{q}.{f}"] = u
    units["degree_index.sjoin.header_tests"] = "count"
    units["degree_index.sjoin.leaf_scanned"] = "count"
    units["trace.sjoin_walker_bytes"] = "bytes"
    units["trace.sjoin_tracemalloc_bytes"] = "bytes"
    for name in END_TO_END:
        if name != "index_bytes":
            units[f"trace.overhead.{name}"] = "ratio"
    return units


def baseline(W, inp, index_bytes: float) -> str:
    """The oracle row: closure bytes and oracle meet time beside the index."""
    import latticekit as lk
    closure_bytes = 0
    build_ns = 0
    meet_ns = []
    for text, pairs in zip(inp.texts, inp.pairs):
        g = lk.parse_trg(text)
        t0 = time.perf_counter_ns()
        c = lk.transitive_closure(g)
        build_ns += time.perf_counter_ns() - t0
        closure_bytes += W.held_bytes([[c]], [g])[0]
        for x, y in pairs[:2000]:
            t0 = time.perf_counter_ns()
            lk.oracle_meet(c, x, y)
            meet_ns.append(time.perf_counter_ns() - t0)
    return (f"# baseline oracle: closure_bytes={closure_bytes} "
            f"closure_build_s={build_ns / 1e9:.4f} "
            f"oracle_meet_us={statistics.median(meet_ns) / 1e3:.3f} "
            f"index_bytes/closure_bytes={index_bytes / closure_bytes:.3f}")


def traced(W, inp, seed: int) -> tuple[dict, object]:
    import latticekit as lk
    from tracing import Tracer, query_layers
    rebuild = inp.workload == "rebuild-mixed"
    rounds = 1 if rebuild else max(1, inp.rounds // W.TRACED_SHARE)
    setups = 1 if rebuild else W.TRACED_SETUPS
    plain = W.run_pass(inp, setups, rounds).end_to_end()
    tr = Tracer(lk.QueryStats())
    p = W.run_pass(inp, setups, rounds, tr)
    e2e = p.end_to_end()
    ss = tr.setup_seconds()
    # the traced set-up repeats pieces of each build; its comparable time is
    # that of the parse and the whole builds alone
    whole = sum(ss.get(k, 0.0) for k in ("trg.parse", "meet_engine.whole",
                                         "degree_index.sjoin_build",
                                         "degree_index.rjoin_build"))
    queries_s = sum(map(sum, p.samples.values())) / 1e9
    e2e["setup_s"] = whole
    e2e["builds_per_s"] = (len(inp.lattices) / (whole + queries_s) if rebuild
                           else 1 / whole)

    out = {name: ss.get(span, 0.0) for name, span in (
        ("trg.parse_s", "trg.parse"),
        ("decomposition.block_decompose_s", "decomposition.block_decompose"),
        ("decomposition.subblock_decompose_s", "decomposition.subblock_decompose"),
        ("decomposition.tree_build_s", "decomposition.tree_build"),
        ("order_index.build_s", "order_index.build"),
        ("meet_engine.build_s", "meet_engine.build_s"),
        ("meet_engine.dual_build_s", "meet_engine.dual_build"),
        ("degree_index.rjoin_build_s", "degree_index.rjoin_build"),
        ("degree_index.sjoin_build_s", "degree_index.sjoin_build"))}
    for name in ("decomposition.tree_nodes", "order_index.build_edge_visits",
                 "order_index.entries", "order_index.bytes",
                 "meet_engine.build_edge_visits", "meet_engine.entries",
                 "meet_engine.bytes", "degree_index.leaf_cells", "degree_index.bytes"):
        out[name] = p.space[name]

    ql = query_layers(tr)

    def per_query(layer, value):
        q = ql.get(layer, {}).get("queries", 0)
        return value / q if q else 0.0

    def count(layer, field):
        return per_query(layer, p.counts.get(layer, {}).get(field, 0))

    tests = ql["order_index.test_order"]
    out["order_index.leq_probes"] = count("order_index.leq", "total_probes")
    out["order_index.test_order_us"] = (tests["ns"] / tests["count"] / 1e3
                                        if tests["count"] else 0.0)
    for q in ("meet", "join"):
        layer = f"meet_engine.{q}"
        agg = ql.get(layer, {})
        probes = agg.get("self_probes", 0)
        hits = agg.get("meet_engine.in_block.count", 0)
        pre = f"meet_engine.{q}."
        out[pre + "header_scan_probes"] = per_query(layer, probes)
        out[pre + "header_scan_us"] = per_query(layer, agg.get("self_ns", 0)) / 1e3
        out[pre + "block_hits"] = per_query(layer, hits)
        out[pre + "block_hit_ratio"] = hits / (probes / 2) if probes else 0.0
        out[pre + "in_block_us"] = per_query(layer, agg.get("meet_engine.in_block.ns", 0)) / 1e3
        out[pre + "table_probes"] = count(layer, "table_probes")
        out[pre + "residual_scanned"] = count(layer, "scanned_elements")
        out[pre + "candidates"] = count(layer, "candidate_count")
        out[pre + "order_tests"] = count(layer, "order_tests")
    for q in ("join", "meet"):
        layer = f"degree_index.{q}"
        pre = layer + "."
        out[pre + "tree_depth"] = count(layer, "tree_nodes_visited")
        out[pre + "order_tests"] = count(layer, "order_tests")
        out[pre + "leaf_scanned"] = count(layer, "scanned_elements")
        out[pre + "descent_us"] = per_query(layer, ql.get(layer, {}).get("self_ns", 0)) / 1e3
    out["degree_index.sjoin.header_tests"] = (count("degree_index.sjoin", "order_tests")
                                              - count("degree_index.sjoin", "scanned_elements"))
    out["degree_index.sjoin.leaf_scanned"] = count("degree_index.sjoin", "scanned_elements")
    out["trace.sjoin_walker_bytes"], out["trace.sjoin_tracemalloc_bytes"] = sjoin_bytes(W, inp)
    for name, v in e2e.items():
        if name == "index_bytes":
            continue
        ratio = plain[name] / v if name in HIGHER_IS_BETTER else v / plain[name]
        out[f"trace.overhead.{name}"] = ratio

    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{inp.workload}-{seed}.csv.gz"
    tr.write(path)
    print(f"# spans: {path.relative_to(ROOT)}")
    return out, p


def sjoin_bytes(W, inp) -> tuple[int, int]:
    """The simple join indexes of the workload, sized by the walk that gives
    index_bytes and by tracemalloc over an untimed build of their own."""
    import tracemalloc

    import latticekit as lk
    graphs = [lk.parse_trg(t) for t in inp.texts]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = [lk.build_simple_join_index(g) for g in graphs]
        traced_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return W.held_bytes([built], graphs)[0], traced_bytes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_package()
    import workloads as W

    inp = W.Inputs(args.workload, args.seed, args.seconds)
    print(f"# {args.workload} seed {args.seed}: input digest {inp.digest()}, "
          f"{len(inp.lattices)} lattice(s), n = "
          f"{min(l.n for l in inp.lattices)}..{max(l.n for l in inp.lattices)}, "
          f"{inp.setups} set-up(s), {inp.rounds} round(s)")
    if args.trace:
        values, p = traced(W, inp, args.seed)
        units = per_layer_units()
    else:
        p = W.run_pass(inp, inp.setups, inp.rounds)
        values = p.end_to_end()
        units = END_TO_END
        print(baseline(W, inp, values["index_bytes"]))
        print("# set-up s: " + " ".join(f"{ns / 1e9:.3f}" for ns in p.setup_ns))
    result = {
        "correct": p.checker.wrong == 0,
        "attempted": p.checker.attempted,
        "failed": p.checker.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
