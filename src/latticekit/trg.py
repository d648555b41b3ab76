"""Transitive reduction graphs (TRGs) of finite partial lattices.

A partial lattice is a poset in which any two elements have at most one
maximal common lower bound and at most one minimal common upper bound, so
meets and joins are unique whenever they exist (and may not exist at all).
We represent such a poset by its covering relation: a DAG with an edge
(u, v) exactly when u < v with nothing strictly between.  Every structure
in this package is built from this graph.

File format (UTF-8 text, extension irrelevant)::

    lattice v1
    <n> <m>          # node count, edge count
    <u> <v>          # one per edge; v covers u, ids in [0, n)

``#`` starts a comment running to end of line; blank lines are ignored.
Node ids are dense integers.  Duplicate edges and self-loops are rejected
at parse time rather than repaired, since they indicate generator bugs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


class ParseError(ValueError):
    """Malformed TRG file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class StructureError(ValueError):
    """The graph violates a structural precondition (e.g. contains a cycle)."""


class NodeIdError(IndexError):
    """A query named a node id outside ``[0, n)`` (negative ids included)."""

    def __init__(self, x: int, y: int, n: int):
        super().__init__(f"node ids ({x}, {y}) must lie in [0, {n})")


@dataclass(eq=True)
class TRG:
    """Covering-relation DAG of a partial lattice.

    ``out_neighbours[u]`` lists the nodes covering u (upward edges) and
    ``in_neighbours[v]`` the nodes v covers, both sorted ascending.  TRGs
    are immutable after construction; no method mutates one in place, so
    concurrent readers need no synchronisation.
    """

    n: int
    out_neighbours: list[list[int]]
    in_neighbours: list[list[int]]
    edge_count: int

    def edges(self):
        """Yield edges (u, v) in ascending (u, v) order."""
        for u in range(self.n):
            for v in self.out_neighbours[u]:
                yield (u, v)


@dataclass(eq=True)
class LinearExtension:
    """A total order compatible with the lattice order.

    ``order[i]`` is the node in position i; ``position`` is the inverse
    permutation.  If position[x] < position[y] then y is not below x.
    """

    order: list[int]
    position: list[int]


@dataclass
class ReductionReport:
    """Outcome of :func:`validate_reduction`."""

    ok: bool
    message: str = "ok"
    edge: tuple[int, int] | None = None
    cycle: list[int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def parse_trg(text: str | bytes) -> TRG:
    """Parse the ``lattice v1`` file format into a TRG.

    Raises :class:`ParseError` (naming the line) for malformed lines, ids
    out of range, self-loops, duplicate edges, or truncated input.  The
    graph is not checked for acyclicity here; see :func:`validate_reduction`.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    stage = 0  # 0: magic line, 1: counts, 2: edges
    n = m = 0
    out_nb: list[list[int]] = []
    in_nb: list[list[int]] = []
    seen: set[tuple[int, int]] = set()
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if stage == 0:
            if line != "lattice v1":
                raise ParseError(lineno, f"expected 'lattice v1' header, got {line!r}")
            stage = 1
        elif stage == 1:
            parts = line.split()
            if len(parts) != 2 or not all(_is_int(p) for p in parts):
                raise ParseError(lineno, "expected '<node count> <edge count>'")
            n, m = int(parts[0]), int(parts[1])
            if n <= 0:
                raise ParseError(lineno, f"node count must be positive, got {n}")
            if m < 0:
                raise ParseError(lineno, f"edge count must be nonnegative, got {m}")
            out_nb = [[] for _ in range(n)]
            in_nb = [[] for _ in range(n)]
            stage = 2
        else:
            if len(seen) == m:
                raise ParseError(lineno, f"unexpected line after {m} edges: {line!r}")
            parts = line.split()
            if len(parts) != 2 or not all(_is_int(p) for p in parts):
                raise ParseError(lineno, f"expected edge '<u> <v>', got {line!r}")
            u, v = int(parts[0]), int(parts[1])
            for node in (u, v):
                if not 0 <= node < n:
                    raise ParseError(lineno, f"node id {node} out of range [0, {n})")
            if u == v:
                raise ParseError(lineno, f"self-loop at node {u}")
            if (u, v) in seen:
                raise ParseError(lineno, f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            out_nb[u].append(v)
            in_nb[v].append(u)
    if stage == 0:
        raise ParseError(lineno or 1, "missing 'lattice v1' header")
    if stage == 1:
        raise ParseError(lineno or 1, "missing '<n> <m>' count line")
    if len(seen) != m:
        raise ParseError(lineno or 1, f"expected {m} edges, found {len(seen)}")
    for adj in (out_nb, in_nb):
        for lst in adj:
            lst.sort()
    return TRG(n=n, out_neighbours=out_nb, in_neighbours=in_nb, edge_count=m)


def _is_int(s: str) -> bool:
    try:
        int(s)
    except ValueError:
        return False
    return True


def format_trg(g: TRG, comment: str | None = None) -> str:
    """Serialise a TRG to the ``lattice v1`` format, edges sorted (byte stable)."""
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    lines.append("lattice v1")
    lines.append(f"{g.n} {g.edge_count}")
    for u, v in g.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def to_dot(g: TRG) -> str:
    """Graph-description export: one node per line, one edge per line (DOT)."""
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for x in range(g.n):
        lines.append(f"  {x};")
    for u, v in g.edges():
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def linear_extension(g: TRG) -> LinearExtension:
    """Topological order of the TRG, ties broken by ascending node id.

    Deterministic for a given graph.  Raises :class:`StructureError` if the
    graph has a cycle.
    """
    indeg = [len(g.in_neighbours[x]) for x in range(g.n)]
    ready = [x for x in range(g.n) if indeg[x] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        x = heapq.heappop(ready)
        order.append(x)
        for w in g.out_neighbours[x]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != g.n:
        raise StructureError("graph contains a cycle; no linear extension exists")
    position = [0] * g.n
    for i, x in enumerate(order):
        position[x] = i
    return LinearExtension(order=order, position=position)


def downset(g: TRG, x: int, restrict=None) -> set[int]:
    """All elements <= x, found by DFS along in-edges; never leaves ``restrict``.

    ``restrict``, when given, must contain x; the result then is the set of
    elements reachable from x going downward without stepping outside it.
    """
    return _reach(g.in_neighbours, x, restrict)


def upset(g: TRG, x: int, restrict=None) -> set[int]:
    """All elements >= x; dual of :func:`downset`, following out-edges."""
    return _reach(g.out_neighbours, x, restrict)


def _reach(adj: list[list[int]], x: int, restrict) -> set[int]:
    if restrict is not None and x not in restrict:
        raise ValueError(f"start node {x} not in the restriction set")
    seen = {x}
    stack = [x]
    while stack:
        z = stack.pop()
        for w in adj[z]:
            if w not in seen and (restrict is None or w in restrict):
                seen.add(w)
                stack.append(w)
    return seen


def flip(g: TRG) -> TRG:
    """Turn the lattice upside-down: meets become joins and vice versa."""
    return TRG(
        n=g.n,
        out_neighbours=g.in_neighbours,
        in_neighbours=g.out_neighbours,
        edge_count=g.edge_count,
    )


def with_top(g: TRG) -> tuple[TRG, int, bool]:
    """Return (graph, top id, added) where the graph surely has a top element.

    If g already has a unique maximal element it is returned unchanged.
    Otherwise a synthetic maximum with id ``g.n`` is appended, covering all
    maximal elements.  Callers that add a top must translate it back to
    "no answer" in query results.
    """
    maximal = [x for x in range(g.n) if not g.out_neighbours[x]]
    if len(maximal) == 1:
        return g, maximal[0], False
    top = g.n
    out_nb = [list(lst) for lst in g.out_neighbours] + [[]]
    in_nb = [list(lst) for lst in g.in_neighbours] + [sorted(maximal)]
    for x in maximal:
        out_nb[x].append(top)
    return (
        TRG(n=g.n + 1, out_neighbours=out_nb, in_neighbours=in_nb,
            edge_count=g.edge_count + len(maximal)),
        top,
        True,
    )


def validate_reduction(g: TRG) -> ReductionReport:
    """Check that g is acyclic, transitively reduced, and internally consistent.

    Violations are reported in the return value, not raised: the offending
    cycle, the transitive edge, or the in/out adjacency mismatch.
    """
    # in/out adjacency must describe the same edge set
    fwd = {(u, v) for u in range(g.n) for v in g.out_neighbours[u]}
    bwd = {(u, v) for v in range(g.n) for u in g.in_neighbours[v]}
    if fwd != bwd:
        some = next(iter(fwd.symmetric_difference(bwd)))
        return ReductionReport(False, f"in/out adjacency disagree on edge {some}", edge=some)
    if len(fwd) != g.edge_count:
        return ReductionReport(False, f"edge_count {g.edge_count} != stored edges {len(fwd)}")

    try:
        ext = linear_extension(g)
    except StructureError:
        cycle = _find_cycle(g)
        return ReductionReport(False, f"cycle: {' -> '.join(map(str, cycle))}", cycle=cycle)

    # descendants as bitmasks in topological-rank space
    pos = ext.position
    desc = [0] * g.n
    for x in reversed(ext.order):
        mask = 1 << pos[x]
        for w in g.out_neighbours[x]:
            mask |= desc[w]
        desc[x] = mask
    # edge (u, v) is transitive iff v is reachable from a sibling out-neighbour
    for u in range(g.n):
        outs = g.out_neighbours[u]
        for v in outs:
            bit = 1 << pos[v]
            for w in outs:
                if w != v and desc[w] & bit:
                    return ReductionReport(
                        False,
                        f"edge ({u}, {v}) is transitive (also reachable via {w})",
                        edge=(u, v),
                    )
    return ReductionReport(True)


def _find_cycle(g: TRG) -> list[int]:
    """Return some directed cycle of g (assumed to exist)."""
    state = [0] * g.n  # 0 unvisited, 1 on stack, 2 done
    parent = [-1] * g.n
    for root in range(g.n):
        if state[root]:
            continue
        stack = [(root, iter(g.out_neighbours[root]))]
        state[root] = 1
        while stack:
            x, it = stack[-1]
            advanced = False
            for w in it:
                if state[w] == 0:
                    state[w] = 1
                    parent[w] = x
                    stack.append((w, iter(g.out_neighbours[w])))
                    advanced = True
                    break
                if state[w] == 1:
                    cycle = [w]
                    z = x
                    while z != w:
                        cycle.append(z)
                        z = parent[z]
                    cycle.reverse()
                    return cycle
            if not advanced:
                state[x] = 2
                stack.pop()
    raise AssertionError("no cycle found")
