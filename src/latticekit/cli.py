"""Command-line front end.

Subcommands: ``validate`` (structural and lattice-property checks),
``gen`` (emit a family as a TRG file), ``build-info`` (index size report),
``query`` (one order/meet/join query against a chosen structure),
``bench`` (CSV of per-query work and space across families and sizes), and
``demo-dummy`` (an executable counterexample showing that splicing a dummy
header above part of a node's children can break the lattice property).

Exit codes: 0 success, 1 semantic violation, 2 usage, parse, or I/O error.
Indexes are rebuilt per invocation; builds are quadratic at worst and the
tool targets desk-scale inputs.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import degree_index, meet_engine, oracle, trg
from .generators import FAMILIES, FamilySpec, GenerationLimitError, generate, spec_for_target
from .metrics import QueryStats, space_report
from .order_index import build_order_index

BENCH_COLUMNS = (
    "family,n,c,structure,kind,d,queries,mean_order_tests,mean_probes,"
    "mean_scanned,mean_candidates,mean_depth,space_entries,down_entries,"
    "build_edge_visits,wall_ms,error"
)

DUMMY_NODE_NAMES = {
    0: "bottom", 1: "x", 2: "y", 3: "c1", 4: "c2", 5: "c3", 6: "top", 7: "d",
}


def demo_lattice() -> trg.TRG:
    """Seven-element lattice: x < c1, c3 and y < c2, c3 under a common top."""
    return trg.parse_trg(
        "lattice v1\n7 9\n0 1\n0 2\n1 3\n1 5\n2 4\n2 5\n3 6\n4 6\n5 6\n"
    )


def demo_lattice_with_dummy() -> trg.TRG:
    """The same graph after splicing a dummy node d between the top and the
    children c1, c2 (the top keeps c3 directly)."""
    return trg.parse_trg(
        "lattice v1\n8 10\n0 1\n0 2\n1 3\n1 5\n2 4\n2 5\n3 7\n4 7\n5 6\n7 6\n"
    )


def _load(path: str) -> trg.TRG:
    # bytes, so that a file that is not UTF-8 is a ParseError naming its line
    if path == "-":
        return trg.parse_trg(sys.stdin.buffer.read())
    with open(path, "rb") as fh:
        return trg.parse_trg(fh.read())


def _exponent(text: str) -> float:
    """argparse type of ``--c``: the trade-off exponent, in [1/2, 1]."""
    c = float(text)
    if not 0.5 <= c <= 1.0:
        raise argparse.ArgumentTypeError(f"trade-off exponent {text} outside [1/2, 1]")
    return c


def _exponents(text: str) -> list[float]:
    """argparse type of ``bench --c-list``: comma-separated exponents."""
    return [_exponent(v) for v in text.split(",")]


def _size(text: str) -> int | tuple[int, ...]:
    """argparse type of ``gen --size``: an integer, or a comma list of them."""
    parts = _ints(text)
    return parts[0] if len(parts) == 1 else tuple(parts)


def _ints(text: str) -> list[int]:
    """argparse type of ``bench --sizes``: comma-separated integers."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer or a comma list of them") from None


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    try:
        g = _load(args.file)
    except (OSError, trg.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = trg.validate_reduction(g)
    if not report:
        print(f"invalid: {report.message}")
        return 1
    violation = oracle.is_partial_lattice(g)
    if violation is not None:
        print(f"invalid: {violation}")
        return 1
    print("ok")
    return 0


def cmd_gen(args) -> int:
    try:
        g = generate(FamilySpec(family=args.family, size=args.size, seed=args.seed))
    except (GenerationLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = trg.to_dot(g) if args.format == "dot" else trg.format_trg(g)
    _write(text, args.out)
    return 0


def _build_structure(g: trg.TRG, structure: str, c: float):
    if structure == "blocked":
        return meet_engine.build_meet_index(g, c)
    if structure == "simple":
        return degree_index.build_simple_join_index(g)
    if structure == "recursive":
        return degree_index.build_recursive_join_index(g)
    if structure == "order":
        return build_order_index(g)
    raise ValueError(f"unknown structure {structure!r}")


def _query_index(g: trg.TRG, kind: str, structure: str, c: float):
    """The index that answers ``kind`` queries on g; a join index answers
    meets as joins on the flipped graph."""
    if kind == "leq":
        return build_order_index(g)
    if kind == "meet" and structure != "blocked":
        g = trg.flip(g)
    return _build_structure(g, structure, c)


def cmd_build_info(args) -> int:
    try:
        g = _load(args.file)
    except (OSError, trg.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        idx = _build_structure(g, args.structure, args.c)
    except trg.StructureError as exc:  # a cycle, say
        print(f"invalid: {exc}")
        return 1
    for line in space_report(idx).lines():
        print(line)
    if hasattr(idx, "build_edge_visits"):
        print(f"build edge visits {idx.build_edge_visits}")
    return 0


def cmd_query(args) -> int:
    try:
        g = _load(args.file)
    except (OSError, trg.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    x, y = args.x, args.y
    if not (0 <= x < g.n and 0 <= y < g.n):
        print(f"error: node ids must be in [0, {g.n})", file=sys.stderr)
        return 2
    stats = QueryStats() if args.stats else None
    kind = args.kind
    try:
        idx = _query_index(g, kind, args.structure, args.c)
    except trg.StructureError as exc:  # a cycle, say
        print(f"invalid: {exc}")
        return 1
    if kind == "leq":
        result: bool | int | None = idx.test_order(x, y, stats)
    elif kind == "meet" and args.structure == "blocked":
        result = idx.meet(x, y, stats)
    else:
        result = idx.join(x, y, stats)
    if isinstance(result, bool):
        print("true" if result else "false")
    else:
        print("null" if result is None else result)
    if stats is not None:
        print(
            f"stats: order_tests={stats.order_tests} probes={stats.total_probes} "
            f"scanned={stats.scanned_elements} candidates={stats.candidate_count} "
            f"tree_nodes={stats.tree_nodes_visited}"
        )
    return 0


def bench_row(family: str, target: int, c: float, structure: str,
              queries: int, seed: int) -> dict:
    """Build one (family, size, c, structure) cell and measure its queries."""
    row = {
        "family": family, "n": "", "c": c, "structure": structure, "kind": "",
        "d": "", "queries": queries, "mean_order_tests": "", "mean_probes": "",
        "mean_scanned": "", "mean_candidates": "", "mean_depth": "",
        "space_entries": "", "down_entries": "", "build_edge_visits": "",
        "wall_ms": "", "error": "",
    }
    try:
        g = generate(spec_for_target(family, target, seed))
    except (GenerationLimitError, ValueError) as exc:
        row["error"] = str(exc)
        return row
    row["n"] = g.n
    start = time.perf_counter()
    try:
        idx = _build_structure(g, structure, c)
    except (GenerationLimitError, ValueError) as exc:
        row["error"] = str(exc)
        return row
    rng = random.Random(seed ^ 0x5EED)
    stats = QueryStats()
    totals = {"order_tests": 0, "probes": 0, "scanned": 0, "cands": 0, "depth": 0}
    if structure == "blocked":
        row["kind"] = "meet+join"
        row["d"] = ""
    else:
        row["kind"] = "join"
        row["d"] = idx.d
    for _ in range(queries):
        x = rng.randrange(g.n)
        y = rng.randrange(g.n)
        stats.reset()
        if structure == "blocked":
            idx.meet(x, y, stats)
            idx.join(x, y, stats)
        else:
            idx.join(x, y, stats)
        totals["order_tests"] += stats.order_tests
        totals["probes"] += stats.total_probes
        totals["scanned"] += stats.scanned_elements
        totals["cands"] += stats.candidate_count
        totals["depth"] += stats.tree_nodes_visited
    wall = (time.perf_counter() - start) * 1000.0
    report = space_report(idx)
    q = max(queries, 1)
    row.update(
        mean_order_tests=round(totals["order_tests"] / q, 3),
        mean_probes=round(totals["probes"] / q, 3),
        mean_scanned=round(totals["scanned"] / q, 3),
        mean_candidates=round(totals["cands"] / q, 3),
        mean_depth=round(totals["depth"] / q, 3),
        space_entries=report.total,
        down_entries=report.down_entries,
        build_edge_visits=getattr(idx, "build_edge_visits", ""),
        wall_ms=round(wall, 2),
    )
    return row


def _row_to_csv(row: dict) -> str:
    return ",".join(str(row[col]) for col in BENCH_COLUMNS.split(","))


def _bench_task(task):
    return bench_row(*task)


def cmd_bench(args) -> int:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    sizes, cs = args.sizes, args.c_list
    structures = [s.strip() for s in args.structures.split(",")]
    for fam in families:
        if fam not in FAMILIES:
            print(f"error: unknown family {fam!r}", file=sys.stderr)
            return 2
    for structure in structures:
        if structure not in ("blocked", "simple", "recursive"):
            print(f"error: bench has no structure {structure!r}", file=sys.stderr)
            return 2
    # c only matters for the blocked structure; other structures run once
    tasks = []
    for fam in families:
        for size in sizes:
            for structure in structures:
                for c in (cs if structure == "blocked" else [cs[0]]):
                    tasks.append((fam, size, c, structure, args.queries, args.seed))
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_bench_task, tasks))
    else:
        rows = [_bench_task(t) for t in tasks]
    lines = [BENCH_COLUMNS] + [_row_to_csv(r) for r in rows]
    _write("\n".join(lines) + "\n", args.out)
    return 1 if any(r["error"] for r in rows) else 0


def cmd_demo_dummy(_args) -> int:
    g = demo_lattice()
    names = DUMMY_NODE_NAMES
    print("original lattice (7 nodes, top covering c1, c2, c3):")
    report = trg.validate_reduction(g)
    violation = oracle.is_partial_lattice(g)
    print(f"  reduction: {report.message}")
    print(f"  lattice property: {'ok' if violation is None else violation}")
    g2 = demo_lattice_with_dummy()
    print("after inserting dummy node d above c1, c2 (below top):")
    report2 = trg.validate_reduction(g2)
    print(f"  reduction: {report2.message}")
    violation2 = oracle.is_partial_lattice(g2)
    if violation2 is None:
        print("  lattice property: ok (unexpected)")
        return 1
    quad = (violation2.x1, violation2.x2, violation2.y1, violation2.y2)
    named = ", ".join(names[z] for z in quad)
    print(f"  lattice property: VIOLATED by ({named}) = {quad}")
    print(f"  both {names[quad[2]]} and {names[quad[3]]} are minimal upper "
          f"bounds of {names[quad[0]]} and {names[quad[1]]}")
    closure = oracle.transitive_closure(g2)
    try:
        oracle.oracle_meet(closure, 5, 7)
        print("  meet(c3, d): well-defined (unexpected)")
        return 1
    except oracle.NotALatticeError as exc:
        w1, w2 = exc.witnesses
        print(f"  meet(c3, d): not well-defined, competing bounds "
              f"{names[w1]} and {names[w2]}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="latticekit",
        description="Space-efficient order, meet, and join queries on partial lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a TRG file is a partial lattice")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen", help="generate a lattice family as a TRG file")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--size", type=_size, required=True,
                   help="family size parameter (comma pair for grid dims)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("trg", "dot"), default="trg")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build-info", help="build an index and print entry counts")
    p.add_argument("file")
    p.add_argument("--structure", choices=("order", "blocked", "simple", "recursive"),
                   default="blocked")
    p.add_argument("--c", type=_exponent, default=0.5)
    p.set_defaults(func=cmd_build_info)

    p = sub.add_parser("query", help="answer one leq/meet/join query")
    p.add_argument("file")
    p.add_argument("kind", choices=("leq", "meet", "join"))
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)
    p.add_argument("--structure", choices=("blocked", "simple", "recursive"),
                   default="blocked")
    p.add_argument("--c", type=_exponent, default=0.5)
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("bench", help="benchmark families and emit CSV")
    p.add_argument("--families", default="boolean")
    p.add_argument("--sizes", type=_ints, default="64,128,256,512,1024")
    p.add_argument("--c-list", dest="c_list", type=_exponents, default="0.5")
    p.add_argument("--structures", default="blocked")
    p.add_argument("--queries", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("demo-dummy",
                       help="show the dummy-header counterexample end to end")
    p.set_defaults(func=cmd_demo_dummy)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
