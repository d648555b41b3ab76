"""The three workloads, their set-up, their query streams and their metrics.

serve-blocked  one fixed distributive lattice (n = 4993) served by the
               blocked meet index (c = 1/2, with its dual for joins) and the
               simple join index.
serve-degree   the 64 x 64 grid served by the recursive join index, the same
               index on the flipped grid for meets, and the simple join index.
rebuild-mixed  25 lattices of five families, n from 96 to 2048, each parsed
               and built at c = 1/2 and c = 3/4 (with duals) plus both join
               indexes, then asked a small checked batch.

A run does a fixed amount of work derived from ``--seconds`` only: for a
serve workload a fixed number of set-ups, each followed by an equal share
of a fixed number of query rounds; for rebuild-mixed a fixed number of
passes over the whole list.  Inside a round the query kinds are interleaved
pair by pair, so that drift of the machine's speed hits every kind alike.  Every
answer is checked against the closed-form reference of its lattice after
the round, outside the timed regions.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import sys
import time

import latticekit as lk

import lattices as L
from tracing import Tracer

pc = time.perf_counter_ns

PAIRS_PER_ROUND = 16
# Set-ups and query rounds per second of --seconds.  Set-ups take the larger
# share of a serve run: setup_s and builds_per_s are medians over a few
# dozen seconds of builds, while the query medians have samples to spare.
SERVE_SETUPS_PER_S = {"serve-blocked": 0.36, "serve-degree": 0.17}
SERVE_ROUNDS_PER_S = {"serve-blocked": 40, "serve-degree": 90}
TRACED_SETUPS = 4        # set-ups of a traced serve run
TRACED_SHARE = 16        # a traced run queries 1/16 of the untraced rounds
REBUILD_ROUND_S = 6      # nominal seconds of one pass over the rebuild list
REBUILD_PAIRS = 128      # pairs asked of each rebuilt lattice per pass
REBUILD_QUERIES_PER_PAIR = 8
MIN_P99_SAMPLES = 500    # a pool's p99 counts when the pool has this many samples

BLOCKED_N = (4950, 5050)
MIN_RESIDUAL = 8
# Across random posets the median join time moved by +-20%, and across
# relabelings of one poset by +-7%, so the served lattice is fixed.
BLOCKED_POSET = "serve-blocked-poset:3"
GRID = (64, 64)
REBUILD_SLOTS = (
    [("boolean", a) for a in (7, 8, 9, 10, 11)]
    + [("grid", rc) for rc in ((10, 10), (12, 16), (20, 20), (25, 32), (32, 40))]
    + [("divisor", e) for e in ((3, 2, 1, 1, 1), (4, 2, 1, 1, 1, 1),
                                (3, 3, 2, 1, 1, 1), (4, 3, 2, 2, 1, 1),
                                (4, 3, 3, 2, 1, 1))]
    + [("distributive", t) for t in (100, 200, 400, 800, 1300)]
    + [("cut", wt) for wt in ((14, (100, 140)), (16, (190, 250)), (19, (380, 480)),
                              (22, (760, 900)), (24, (1150, 1450)))]
)


# -- inputs ------------------------------------------------------------------

def _rng(seed: int, *tags) -> random.Random:
    return random.Random(":".join(map(str, (seed,) + tags)))


def blocked_lattice() -> L.SetLattice:
    """The serve-blocked lattice: the downset lattice of a fixed random poset,
    labelled so that its residual blocks, primal and dual, hold at least
    MIN_RESIDUAL elements and the residual scan is exercised.  It is the
    same for every seed; the seed draws the queries."""
    rng = random.Random("serve-blocked")
    while True:
        lat = L.distributive(*BLOCKED_N, rng, poset_rng=random.Random(BLOCKED_POSET))
        k = math.isqrt(lat.n - 1) + 1
        if (L.greedy_residual(lat, k) >= MIN_RESIDUAL
                and L.greedy_residual(lat, k, flipped=True) >= MIN_RESIDUAL):
            return lat


def rebuild_lattices(seed: int) -> list[L.SetLattice]:
    out = []
    for i, (family, arg) in enumerate(REBUILD_SLOTS):
        rng = _rng(seed, "rebuild-mixed", i)
        if family == "boolean":
            out.append(L.boolean(arg, rng))
        elif family == "grid":
            out.append(L.grid(*arg, rng))
        elif family == "divisor":
            out.append(L.divisor(arg, rng))
        elif family == "distributive":
            out.append(L.distributive(arg, arg + arg // 20, rng))
        else:
            width, (lo, hi) = arg
            out.append(L.cut_completion(width, lo, hi, rng))
    return out


# -- builds ------------------------------------------------------------------

def settle() -> None:
    """Collect garbage and freeze the survivors, so that the collections a
    timed build triggers scan only what that build allocates, not the
    inputs or structures that happen to be alive around it."""
    gc.collect()
    gc.freeze()


def _timed(tr: Tracer, name: str, fn, *args, **kwargs):
    settle()
    return tr.timed(name, fn, *args, **kwargs)


def build_blocked(g, tr: Tracer | None = None, c: float = 0.5):
    """build_meet_index(g, c) with its dual.  Traced, the primal's pieces
    (block decomposition, order index, subblock decompositions) and the
    dual are built again on their own; the whole build minus them is the
    primal's remainder: subheader rows, pair tables and residual lists."""
    if tr is None:
        return lk.build_meet_index(g, c)
    idx, whole = _timed(tr, "meet_engine.whole", lk.build_meet_index, g, c)
    k = idx.bd.k
    _, dual = _timed(tr, "meet_engine.dual_build", lk.build_meet_index, lk.flip(g), c,
                     with_dual=False, k=k)
    bd, pieces = _timed(tr, "decomposition.block_decompose", lk.block_decompose, g, k)
    pieces += _timed(tr, "order_index.build", lk.build_order_index, g, bd)[1]
    for i in range(bd.m):
        pieces += _timed(tr, "decomposition.subblock_decompose",
                         lk.subblock_decompose, g, bd, i)[1]
    tr.add("meet_engine.build_s", whole - dual - pieces)
    return idx


def build_simple(g, tr: Tracer | None = None):
    """build_simple_join_index(g); traced, its order index is built again
    piece by piece beside the whole build, which is reported whole."""
    if tr is None:
        return lk.build_simple_join_index(g)
    sj = _timed(tr, "degree_index.sjoin_build", lk.build_simple_join_index, g)[0]
    _order_pieces(tr, sj.g)
    return sj


def build_recursive(g, tr: Tracer | None = None):
    """build_recursive_join_index(g); traced, its tree and order index are
    built again beside the whole build, which is reported whole."""
    if tr is None:
        return lk.build_recursive_join_index(g)
    rj = _timed(tr, "degree_index.rjoin_build", lk.build_recursive_join_index, g)[0]
    _timed(tr, "decomposition.tree_build", lk.build_decomposition_tree, g)
    _order_pieces(tr, rj.g)
    return rj


def _order_pieces(tr: Tracer, g2) -> None:
    """Build the order index of a join index again, piece by piece, on its
    topped graph with block size ceil(sqrt(n))."""
    bd = _timed(tr, "decomposition.block_decompose", lk.block_decompose, g2,
                math.isqrt(g2.n - 1) + 1)[0]
    _timed(tr, "order_index.build", lk.build_order_index, g2, bd)


def setup(workload: str, text: str, tr: Tracer | None = None) -> dict:
    """Parse one TRG text and build every structure the workload serves."""
    g = lk.parse_trg(text) if tr is None else tr.timed("trg.parse", lk.parse_trg, text)[0]
    if workload == "serve-blocked":
        return {"g": g, "meet": build_blocked(g, tr), "sjoin": build_simple(g, tr)}
    if workload == "serve-degree":
        return {"g": g, "join": build_recursive(g, tr),
                "meet": build_recursive(lk.flip(g), tr), "sjoin": build_simple(g, tr)}
    return {"g": g, "meet5": build_blocked(g, tr), "meet75": build_blocked(g, tr, 0.75),
            "sjoin": build_simple(g, tr), "rjoin": build_recursive(g, tr)}


def query_plan(workload: str, b: dict) -> list[tuple[str, str, object]]:
    """(end-to-end kind, query layer, call) for each query asked per pair."""
    if workload == "serve-blocked":
        m, sj = b["meet"], b["sjoin"]
        return [("leq", "order_index.leq", m.test_order),
                ("meet", "meet_engine.meet", m.meet),
                ("join", "meet_engine.join", m.join),
                ("sjoin", "degree_index.sjoin", sj.join)]
    if workload == "serve-degree":
        return [("leq", "order_index.leq", b["join"].order.test_order),
                ("meet", "degree_index.meet", b["meet"].join),
                ("join", "degree_index.join", b["join"].join),
                ("sjoin", "degree_index.sjoin", b["sjoin"].join)]
    plan = []
    for key in ("meet5", "meet75"):
        m = b[key]
        plan += [("leq", "order_index.leq", m.test_order),
                 ("meet", "meet_engine.meet", m.meet),
                 ("join", "meet_engine.join", m.join)]
    return plan + [("join", "degree_index.join", b["rjoin"].join),
                   ("sjoin", "degree_index.sjoin", b["sjoin"].join)]


def structures(b: dict) -> list:
    return [v for k, v in b.items() if k != "g"]


def instrument(tr: Tracer, b: dict) -> None:
    """Time the order tests and in-block meets of the blocked indexes and the
    order tests of the recursive join indexes, through instance attributes
    that the package's own calls find.  The simple join index is left bare:
    its header scan makes up to two order tests per block."""
    for s in structures(b):
        if isinstance(s, lk.MeetIndex):
            for part in (s, s.dual):
                part.order.test_order = tr.wrap("order_index.test_order",
                                                part.order.test_order)
                part.meet_in_block = tr.wrap("meet_engine.in_block", part.meet_in_block)
        elif isinstance(s, lk.RecursiveJoinIndex):
            s.order.test_order = tr.wrap("order_index.test_order", s.order.test_order)


# -- checking ----------------------------------------------------------------

class Checker:
    """Counts failed operations: an exception, or an answer that differs
    from the closed-form reference or breaks meet <= x, y <= join."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def check(self, lat: L.SetLattice, kind: str, x: int, y: int, answer) -> None:
        self.attempted += 1
        if isinstance(answer, Exception):
            self.failed += 1
        elif not answer_ok(lat, kind, x, y, answer):
            self.failed += 1
            self.wrong += 1


def answer_ok(lat: L.SetLattice, kind: str, x: int, y: int, a) -> bool:
    """Integer types other than int (NumPy scalars, say) are accepted."""
    if kind == "leq":
        return a in (False, True) and a == lat.ref_leq(x, y)
    if isinstance(a, bool) or not hasattr(a, "__index__"):
        return False
    a = a.__index__()
    if not 0 <= a < lat.n:
        return False
    ea, ex, ey = lat.elems[a], lat.elems[x], lat.elems[y]
    if kind == "meet":
        return a == lat.ref_meet(x, y) and lat.leq(ea, ex) and lat.leq(ea, ey)
    return a == lat.ref_join(x, y) and lat.leq(ex, ea) and lat.leq(ey, ea)


# -- space -------------------------------------------------------------------

def held_bytes(groups, exclude) -> list[int]:
    """Bytes of every object reachable from each group of roots and not from
    ``exclude`` (the parsed input) nor from an earlier group, by one walk
    with ``sys.getsizeof``."""
    seen: set[int] = set()
    stack = list(exclude)
    while stack:
        o = stack.pop()
        if id(o) not in seen:
            seen.add(id(o))
            stack.extend(_referents(o))
    out = []
    for roots in groups:
        total = 0
        stack = list(roots)
        while stack:
            o = stack.pop()
            if id(o) in seen:
                continue
            seen.add(id(o))
            total += sys.getsizeof(o)
            stack.extend(_referents(o))
        out.append(total)
    return out


def _referents(o):
    if isinstance(o, (list, tuple, set, frozenset)):
        return o
    if isinstance(o, dict):
        return list(o.keys()) + list(o.values())
    if type(o).__module__.startswith("latticekit"):
        return [o.__dict__]
    return ()


def layer_objects(b: dict):
    """Built objects grouped by layer: order indexes, meet engines (primal
    and dual), degree-bounded join indexes."""
    order, meet, degree = [], [], []
    for s in structures(b):
        if isinstance(s, lk.MeetIndex):
            meet += [s, s.dual]
            order += [s.order, s.dual.order]
        else:
            degree.append(s)
            order.append(s.order)
    return order, meet, degree


def space(b: dict) -> dict[str, float]:
    """Deterministic sizes of one set-up: bytes per layer, entries, visits."""
    order, meet, degree = layer_objects(b)
    ob, mb, db = held_bytes([order, meet, degree], [b["g"]])
    order_entries = sum(lk.space_report(o).total for o in order)
    meet_entries = sum(lk.space_report(m).total for m in meet[::2])
    trees = [d.tree for d in degree if isinstance(d, lk.RecursiveJoinIndex)]
    return {
        "index_bytes": ob + mb + db,
        "order_index.bytes": ob,
        "meet_engine.bytes": mb,
        "degree_index.bytes": db,
        "order_index.entries": order_entries,
        "meet_engine.entries": meet_entries - sum(
            lk.space_report(m.order).total for m in meet),
        "order_index.build_edge_visits": sum(o.build_edge_visits for o in order),
        "meet_engine.build_edge_visits": sum(
            m.build_edge_visits - m.order.build_edge_visits for m in meet),
        "decomposition.tree_nodes": sum(t.node_count for t in trees),
        "degree_index.leaf_cells": sum(lk.space_report(d).leaf_cells for d in degree),
    }


# -- one measured pass -------------------------------------------------------

class Pass:
    """Samples and counters of one pass over a workload's fixed work."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.stats = tracer.stats if tracer else None
        self.checker = Checker()
        self.samples: dict[str, list[int]] = {"leq": [], "meet": [], "join": [], "sjoin": []}
        # where each segment of the samples starts, and the pool it joins
        self.marks: list[tuple[dict[str, int], int]] = []
        self.setup_ns: list[int] = []
        self.setups_per_round = 1  # rebuild-mixed: one per lattice of the list
        # lattices built per second: of each set-up's time (serve), of each
        # pass's parse + build + batch time (rebuild-mixed)
        self.build_rates: list[float] = []
        self.counts: dict[str, dict[str, int]] = {}
        self.space: dict[str, float] = {}

    def build(self, workload: str, lat: L.SetLattice, text: str):
        self.checker.attempted += 1
        settle()
        t0 = pc()
        try:
            b = setup(workload, text, self.tracer)
        except Exception:  # a build that raises is a failed operation
            self.checker.failed += 1
            return None
        finally:
            self.setup_ns.append(pc() - t0)
        return b

    def ask(self, lat: L.SetLattice, plan, pairs) -> int:
        """Ask every query of ``plan`` for each pair, timed one by one; check
        all answers afterwards.  Returns the nanoseconds spent in queries."""
        answers = []
        spent = 0
        samples = self.samples
        tr = self.tracer
        for x, y in pairs:
            for kind, layer, fn in plan:
                if tr is None:
                    t0 = pc()
                    try:
                        a = fn(x, y)
                    except Exception as e:  # counted as a failed operation
                        a = e
                    t1 = pc()
                else:
                    self.stats.reset()
                    t0 = pc()
                    try:
                        a = tr.query(layer, fn, x, y, self.stats)
                    except Exception as e:
                        a = e
                    t1 = pc()
                    self._count(layer)
                samples[kind].append(t1 - t0)
                spent += t1 - t0
                answers.append(a)
        it = iter(answers)
        for x, y in pairs:
            for kind, _, _ in plan:
                self.checker.check(lat, kind, x, y, next(it))
        return spent

    def segment(self, pool: int) -> None:
        """Start a segment of the samples, pooled with the earlier segments
        of the same ``pool``: the queries of one set-up (serve), or those of
        one lattice of the list, pooled over the passes (rebuild-mixed)."""
        self.marks.append(({k: len(v) for k, v in self.samples.items()}, pool))

    def p99(self, kind: str) -> float:
        """The p99 of each pool of samples, then their median (serve), so
        that a burst of interference within one set-up's share moves it
        little, or their geometric mean (rebuild-mixed), so that the tail
        of no single lattice, whose shape the seed draws, decides it."""
        v = self.samples[kind]
        pools: dict[int, list[int]] = {}
        ends = [m[kind] for m, _ in self.marks[1:]] + [len(v)]
        for (m, pool), end in zip(self.marks, ends):
            pools.setdefault(pool, []).extend(v[m[kind]:end])
        tails = [statistics.quantiles(q, n=100)[98] for q in pools.values()
                 if len(q) >= MIN_P99_SAMPLES]
        if not tails:
            return statistics.quantiles(v, n=100)[98]
        if self.setups_per_round > 1:
            return statistics.geometric_mean(tails)
        return statistics.median(tails)

    def skip(self, pairs, per_pair: int) -> None:
        """Queries of a lattice whose build failed count as failed."""
        n = per_pair * len(pairs)
        self.checker.attempted += n
        self.checker.failed += n

    def _count(self, layer: str) -> None:
        s = self.stats
        c = self.counts.setdefault(layer, {})
        for f in ("order_tests", "array_probes", "dict_probes", "table_probes",
                  "scanned_elements", "candidate_count", "tree_nodes_visited"):
            c[f] = c.get(f, 0) + getattr(s, f)
        c["total_probes"] = c.get("total_probes", 0) + s.total_probes

    def end_to_end(self) -> dict[str, float]:
        s = self.samples
        n_queries = sum(len(v) for v in s.values())
        per = self.setups_per_round
        rounds = [sum(self.setup_ns[i:i + per]) for i in range(0, len(self.setup_ns), per)]
        return {
            "setup_s": statistics.median(rounds) / 1e9,
            "index_bytes": self.space["index_bytes"],
            "queries_per_s": n_queries / (sum(map(sum, s.values())) / 1e9),
            "leq_us": statistics.median(s["leq"]) / 1e3,
            "meet_us": statistics.median(s["meet"]) / 1e3,
            "meet_p99_us": self.p99("meet") / 1e3,
            "join_us": statistics.median(s["join"]) / 1e3,
            "join_p99_us": self.p99("join") / 1e3,
            "sjoin_us": statistics.median(s["sjoin"]) / 1e3,
            "builds_per_s": statistics.median(self.build_rates) if self.build_rates else 0.0,
        }


# -- workloads ---------------------------------------------------------------

class Inputs:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        if workload == "rebuild-mixed":
            self.lattices = rebuild_lattices(seed)
            self.rounds = max(1, round(seconds / REBUILD_ROUND_S))
            self.setups = self.rounds  # a pass sets up every lattice once
            self.pairs = [L.query_pairs(lat, _rng(seed, "queries", i), REBUILD_PAIRS)
                          for i, lat in enumerate(self.lattices)]
        else:
            lat = blocked_lattice() if workload == "serve-blocked" else L.grid(
                *GRID, _rng(seed, "serve-degree"))
            self.lattices = [lat]
            self.setups = max(4, round(seconds * SERVE_SETUPS_PER_S[workload]))
            self.rounds = max(1, round(seconds * SERVE_ROUNDS_PER_S[workload]))
            self.pairs = [L.query_pairs(lat, _rng(seed, "queries"),
                                        self.rounds * PAIRS_PER_ROUND)]
        self.texts = [lat.text() for lat in self.lattices]

    def digest(self) -> str:
        """Digest of the TRG texts and the query pairs."""
        return L.digest("".join(self.texts) + repr(self.pairs))


def run_pass(inp: Inputs, setups: int, rounds: int, tracer: Tracer | None = None) -> Pass:
    p = Pass(tracer)
    wl = inp.workload
    if wl == "rebuild-mixed":
        p.setups_per_round = len(inp.lattices)
        for r in range(rounds):
            if tracer is not None:
                tracer.group()
            built, spent = 0, 0
            for i, (lat, text, pairs) in enumerate(zip(inp.lattices, inp.texts, inp.pairs)):
                b = p.build(wl, lat, text)
                if b is None:
                    p.skip(pairs, REBUILD_QUERIES_PER_PAIR)
                    continue
                if r == 0:
                    for key, v in space(b).items():
                        p.space[key] = p.space.get(key, 0) + v
                if tracer is not None:
                    instrument(tracer, b)
                p.segment(i)
                spent += p.setup_ns[-1] + p.ask(lat, query_plan(wl, b), pairs)
                built += 1
                del b
            if built:
                p.build_rates.append(built / (spent / 1e9))
        return p
    # set-ups alternate with equal shares of the query rounds, so that both
    # sample the whole run's drift; each set-up serves the rounds after it
    lat, text, pairs = inp.lattices[0], inp.texts[0], inp.pairs[0]
    share = -(-rounds // setups)
    for i in range(setups):
        b = None
        if tracer is not None:
            tracer.group()
        b = p.build(wl, lat, text)
        if b is None:
            raise RuntimeError(f"{wl}: set-up failed")
        p.build_rates.append(1e9 / p.setup_ns[-1])
        if i == 0:
            p.space = space(b)
        if tracer is not None:
            instrument(tracer, b)
        plan = query_plan(wl, b)
        settle()
        p.segment(i)
        for r in range(i * share, min(rounds, (i + 1) * share)):
            p.ask(lat, plan, pairs[r * PAIRS_PER_ROUND:(r + 1) * PAIRS_PER_ROUND])
    return p
