"""Meet and join queries via a two-level block/subblock decomposition.

On top of the order-testing structure, each principal block gets a
subblock decomposition (size sqrt of the block length) and three stores:

* per subblock header, an array of its meets with every block member,
* per principal subblock, a square table with the meet of every member
  pair, null whenever that meet falls outside the subblock, and
* per residual-subblock member, its downset inside the residual subblock
  as a plain list.

A meet query collects candidate lower bounds: every principal block
contributes the in-block meet of the two representatives (when both
representatives land in the block), and the residual block is scanned
directly when both arguments live there.  Every candidate is a lower bound
of the true meet, and the true meet always shows up among the candidates,
so the maximum of the candidate set (by order tests) is the answer; an
empty set means the meet does not exist.  The in-block subroutine repeats
the same shape one level down, using the pair tables for same-subblock
hits.

Subheader rows and pair tables are the order index's meet-row flood run
on the induced subgraph of a block or subblock, residual downsets the
shared downward walk on the residual subblock's.  Blocks and subblocks
partition the nodes, so node-indexed arrays give each element's rank in
its block, its subblock, and its rank there.

Joins run the same algorithm against a second copy of everything built on
the flipped graph.

The block size is ceil(n**c) for a chosen exponent c in [1/2, 1]; larger c
buys faster queries (order n**(1-c/2) work) for more space (order n**(1+c)
entries).  At c = 1/2 both are the balanced n**(3/2)-space, n**(3/4)-time
point.
"""

from __future__ import annotations

from dataclasses import replace

from .decomposition import (
    SubblockEntry,
    _local_downsets,
    block_decompose,
    subblock_decompose,
)
from .metrics import QueryStats, SpaceReport, ceil_pow
from .order_index import OrderIndex, _meet_rows, build_order_index
from .trg import TRG, NodeIdError, flip


class MeetIndex:
    """Two-level meet/join structure; built by :func:`build_meet_index`."""

    def __init__(self, g: TRG, c: float, order: OrderIndex,
                 subs: list[SubblockEntry],
                 subheader_meet: list[list[list[int]]],
                 pair_tables: list[list[list[list[int]]]],
                 residual_downsets: list[dict[int, tuple[int, ...]]],
                 rank: list[int], sub_rank: list[int], sub_of: list[int],
                 build_edge_visits: int):
        self.g = g
        self.c = c
        self.n = g.n
        self.null = g.n
        self.order = order
        self.bd = order.bd
        self.subs = subs
        self.subheader_meet = subheader_meet
        self.pair_tables = pair_tables
        self.residual_downsets = residual_downsets
        # sub_of: subblock index within the block, -1 for the residual
        # subblock, -2 for headers and the residual block
        self.rank = rank
        self.sub_of = sub_of
        self.sub_rank = sub_rank
        self.build_edge_visits = build_edge_visits
        self.dual: MeetIndex | None = None

    # -- queries ---------------------------------------------------------

    def test_order(self, x: int, y: int, stats: QueryStats | None = None) -> bool:
        """True iff x <= y; ids outside [0, n) raise :class:`NodeIdError`."""
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise NodeIdError(x, y, self.n)
        return self.order.test_order(x, y, stats)

    def meet(self, x: int, y: int, stats: QueryStats | None = None) -> int | None:
        """Greatest lower bound of x and y, or None if they have none; ids
        outside [0, n) raise :class:`NodeIdError`."""
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise NodeIdError(x, y, self.n)
        oi = self.order
        null = self.null
        block_of = oi._block_of
        m = oi._m
        candidates: list[int] = []
        for i in range(m):
            row = oi.header_meet[i]
            xi = row[x]
            yi = row[y]
            if stats is not None:
                stats.array_probes += 2
            if xi == null or yi == null:
                continue
            if block_of[xi] != i or block_of[yi] != i:
                continue
            z = self.meet_in_block(i, xi, yi, stats)
            if z is not None:
                candidates.append(z)
        if block_of[x] == m and block_of[y] == m:
            # both residual: scan x's local downset for lower bounds of y
            for z in oi.down[x]:
                if stats is not None:
                    stats.scanned_elements += 1
                if oi.test_order(z, y, stats):
                    candidates.append(z)
        return self._maximum(candidates, stats)

    def meet_in_block(self, i: int, xi: int, yi: int,
                      stats: QueryStats | None = None) -> int | None:
        """Meet of two members of principal block i, or None when that meet
        exists only outside the block (or not at all)."""
        header = self.bd.headers[i]
        if xi == header:
            return yi
        if yi == header:
            return xi
        entry = self.subs[i]
        rx = self.rank[xi]
        ry = self.rank[yi]
        sub_of = self.sub_of
        sub_rank = self.sub_rank
        candidates: list[int] = []
        for j in range(entry.count):
            row = self.subheader_meet[i][j]
            xj = row[rx]
            yj = row[ry]
            if stats is not None:
                stats.array_probes += 2
            if xj == self.null or yj == self.null:
                continue
            if sub_of[xj] != j or sub_of[yj] != j:
                continue
            z = self.pair_tables[i][j][sub_rank[xj]][sub_rank[yj]]
            if stats is not None:
                stats.table_probes += 1
            if z != self.null:
                candidates.append(z)
        if sub_of[xi] == -1 and sub_of[yi] == -1:
            for z in self.residual_downsets[i][xi]:
                if stats is not None:
                    stats.scanned_elements += 1
                if self.order.test_order(z, yi, stats):
                    candidates.append(z)
        return self._maximum(candidates, stats)

    def join(self, x: int, y: int, stats: QueryStats | None = None) -> int | None:
        """Least upper bound, answered by the dual index on the flipped graph
        (whose :meth:`meet` checks the ids)."""
        if self.dual is None:
            raise ValueError("index was built without a dual; joins unavailable")
        return self.dual.meet(x, y, stats)

    def _maximum(self, candidates: list[int],
                 stats: QueryStats | None) -> int | None:
        """Largest element of a candidate set that is known to contain its own
        upper bound (every candidate is below the true meet)."""
        if stats is not None:
            stats.candidate_count += len(candidates)
        if not candidates:
            return None
        best = candidates[0]
        for z in candidates[1:]:
            if self.order.test_order(best, z, stats):
                best = z
        return best

    # -- accounting ------------------------------------------------------

    def _space_counts(self) -> SpaceReport:
        own = replace(
            self.order._space_counts(),
            c=self.c,
            subheader_meet_cells=sum(len(row) for rows in self.subheader_meet
                                     for row in rows),
            pair_table_cells=sum(map(self.pair_table_cells_of_block,
                                     range(len(self.subs)))),
            residual_list_cells=sum(len(v) for d in self.residual_downsets
                                    for v in d.values()),
        )
        return own if self.dual is None else own.merged(self.dual._space_counts())

    def pair_table_cells_of_block(self, i: int) -> int:
        return sum(len(s) ** 2 for s in self.subs[i].subblocks)


def build_meet_index(g: TRG, c: float = 0.5, *, with_dual: bool = True,
                     k: int | None = None) -> MeetIndex:
    """Build the meet/join structure with block size ceil(n**c).

    ``with_dual`` also builds the flipped copy that answers joins (roughly
    doubling space and build time).
    """
    if not 0.5 <= c <= 1.0:
        raise ValueError(f"tradeoff exponent c={c} outside [1/2, 1]")
    n = g.n
    if k is None:
        k = min(n, ceil_pow(n, c))
    bd = block_decompose(g, k)
    oi = build_order_index(g, bd)
    position = bd.extension.position
    visits = oi.build_edge_visits
    rank = [0] * n
    sub_rank = [0] * n
    sub_of = [-2] * n

    subs: list[SubblockEntry] = []
    subheader_meet: list[list[list[int]]] = []
    pair_tables: list[list[list[list[int]]]] = []
    residual_downsets: list[dict[int, tuple[int, ...]]] = []

    for i, blk in enumerate(bd.blocks):
        entry = subblock_decompose(g, bd, i)
        visits += entry.edge_visits
        subs.append(entry)
        for r, x in enumerate(blk):
            rank[x] = r

        rows, v = _meet_rows(g, [rank[h] for h in entry.subheaders], position, blk)
        visits += v
        subheader_meet.append(rows)

        tables = []
        for j, sub in enumerate(entry.subblocks):
            for r, x in enumerate(sub):
                sub_rank[x] = r
                sub_of[x] = j
            # meets of every member pair, computed inside the subblock
            trows, v = _meet_rows(g, range(len(sub)), position, sub)
            visits += v
            tables.append(trows)
        pair_tables.append(tables)

        downs, v = _local_downsets(g.in_neighbours, entry.residual)
        visits += v
        residual_downsets.append(
            {x: tuple(sorted(d)) for x, d in zip(entry.residual, downs)})
        for x in entry.residual:
            sub_of[x] = -1

    idx = MeetIndex(g, c, oi, subs, subheader_meet, pair_tables,
                    residual_downsets, rank, sub_rank, sub_of, visits)
    if with_dual:
        idx.dual = build_meet_index(flip(g), c, with_dual=False, k=k)
    return idx
