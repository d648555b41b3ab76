"""Constant-time order testing over a block decomposition.

Two stores answer "is x <= y?" in O(1):

* one meet array per block header, mapping every element z to its meet
  with that header (so the representative of any element inside any
  principal block costs a single array read), and
* one frozen set per element holding its local downset (the part of its
  downset inside its own block).

The first is filled by the meet-row flood (:func:`_meet_rows`, which also
fills the meet engine's tables), the second by the shared downward walk
run on each block's induced subgraph.

The query splits into three cases.  If x sits in a principal block, map y
to its representative in that block and test membership in the
representative's local downset.  If x and y are both residual, test
membership directly.  A residual x can never be below a principal y.
Every call costs at most five probes (array reads, one set membership,
and a few block-id comparisons).

The structure is immutable after the build; concurrent queries are safe.
Callers that want probe counts pass their own ``QueryStats`` recorder, so
counting never contends across threads.
"""

from __future__ import annotations

from .decomposition import (
    BlockDecomposition,
    _induced,
    _local_downsets,
    _walk,
    block_decompose,
)
from .metrics import QueryStats, SpaceReport, ceil_sqrt
from .trg import TRG, StructureError


class OrderIndex:
    """Header-meet arrays plus local-downset sets; see module docs."""

    def __init__(self, g: TRG, bd: BlockDecomposition, header_meet, down,
                 build_edge_visits: int):
        self.g = g
        self.bd = bd
        self.n = g.n
        self.null = g.n  # sentinel id meaning "no meet" in the dense arrays
        self.header_meet = header_meet
        self.down = down
        self.build_edge_visits = build_edge_visits
        self._block_of = bd.block_of
        self._m = bd.m
        self.position = bd.extension.position

    # -- queries ---------------------------------------------------------

    def test_order(self, x: int, y: int, stats: QueryStats | None = None) -> bool:
        """True iff x <= y.  At most 5 probes, counted into ``stats``.

        Both ids must lie in [0, n); this internal probe does not check
        (a negative id wraps).  The public query methods of the meet and
        join indexes check ids before they reach it.
        """
        block_of = self._block_of
        bx = block_of[x]
        if bx < self._m:
            yi = self.header_meet[bx][y]
            if yi == self.null or block_of[yi] != bx:
                if stats is not None:
                    stats.array_probes += 1
                    stats.note_order_test(3)
                return False
            hit = x in self.down[yi]
            if stats is not None:
                stats.array_probes += 1
                stats.dict_probes += 1
                stats.note_order_test(4)
            return hit
        if block_of[y] == self._m:
            hit = x in self.down[y]
            if stats is not None:
                stats.dict_probes += 1
                stats.note_order_test(3)
            return hit
        if stats is not None:
            stats.note_order_test(2)
        return False

    leq = test_order

    def meet_with_header(self, i: int, x: int,
                         stats: QueryStats | None = None) -> int | None:
        """Meet of x with the header of principal block i: one array read."""
        if not 0 <= i < self._m:
            raise ValueError(f"block {i} is not principal")
        if stats is not None:
            stats.array_probes += 1
        z = self.header_meet[i][x]
        return None if z == self.null else z

    # -- accounting ------------------------------------------------------

    @property
    def down_entries(self) -> int:
        return sum(len(s) for s in self.down)

    def _space_counts(self) -> SpaceReport:
        return SpaceReport(
            n=self.n,
            header_meet_cells=self._m * self.n,
            down_entries=self.down_entries,
        )


def _meet_rows(g: TRG, heads, position, universe: list[int] | None = None):
    """Meet of each head with every node, one row per head, by flooding.

    The head's downset is walked, then its members are taken in reverse
    linear-extension order, each flooding the part of its upset no later
    member has reached: the last member that reaches z is the meet of z and
    the head (bounds are unique in a partial lattice, and the unique maximal
    lower bound is the latest one in any linear extension).

    With a ``universe`` (ascending ids, interval-closed) the floods run on
    its induced subgraph, heads and row indexes being ranks in it.  A stored
    meet is still the lattice meet: a common lower bound inside the universe
    forces the meet inside.  Returns the rows (null is ``g.n``) and the edge
    visits.
    """
    if universe is None:
        in_nbrs, out_nbrs = g.in_neighbours, g.out_neighbours
    else:
        in_nbrs = _induced(g.in_neighbours, universe)
        out_nbrs = _induced(g.out_neighbours, universe)
        position = [position[x] for x in universe]
    null = g.n
    size = len(in_nbrs)
    mark = [0] * size
    token = 0
    visits = 0
    rows = []
    for h in heads:
        token += 2
        members, v = _walk(in_nbrs, h, mark, token - 1)
        visits += v
        members.sort(key=position.__getitem__)
        row = [null] * size
        for y in reversed(members):
            if mark[y] == token:
                continue
            mark[y] = token
            # the id objects stored are the graph's own, not new ints
            meet = row[y] = y if universe is None else universe[y]
            stack = [y]
            while stack:
                nb = out_nbrs[stack.pop()]
                visits += len(nb)
                for w in nb:
                    if mark[w] < token:
                        mark[w] = token
                        row[w] = meet
                        stack.append(w)
        rows.append(row)
    return rows, visits


def build_order_index(g: TRG, bd: BlockDecomposition | None = None,
                      k: int | None = None) -> OrderIndex:
    """Build the order-testing structure (default block size ceil(sqrt n))."""
    if bd is None:
        bd = block_decompose(g, k if k is not None else ceil_sqrt(g.n))
    header_meet, visits = _meet_rows(g, bd.headers, bd.extension.position)
    visits += bd.edge_visits
    down: list[frozenset[int]] = [frozenset()] * g.n
    for universe in bd.blocks + [bd.residual]:
        downs, v = _local_downsets(g.in_neighbours, universe)
        visits += v
        for x, local in zip(universe, downs):
            # via a set, the table is sized to the downset; built from the
            # list it keeps the slack of growing one element at a time
            down[x] = frozenset(set(local))

    idx = OrderIndex(g, bd, header_meet, down, visits)
    headers = set(bd.headers)
    for x in range(g.n):
        # non-headers must be thin inside their own block
        if x not in headers and len(down[x]) >= bd.k:
            raise StructureError(
                f"node {x} has local downset of size {len(down[x])} >= k={bd.k}")
    return idx
