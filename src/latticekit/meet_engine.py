"""Meet and join queries via a two-level block/subblock decomposition.

On top of the order-testing structure, each principal block gets a
subblock decomposition (size sqrt of the block length) and three stores:

* per subblock header, a typed row (``array.array``, the order index's
  typecode) of its meets with every block member, indexed by rank in
  the block,
* per principal subblock of s members, one flat typed s * s table with
  the meet of every member pair, the pair of ranks (rx, ry) at
  ``rx * s + ry``, null whenever that meet falls outside the subblock,
  and
* per residual-subblock member, its downset inside the residual subblock
  as an ``int`` bitset over ranks in that subblock.

A meet query collects candidate lower bounds: every principal block
contributes the in-block meet of the two representatives (when both
representatives land in the block), and the residual block is scanned
directly when both arguments live there.  Every candidate is a lower bound
of the true meet, and the true meet always shows up among the candidates,
so the maximum of the candidate set (by order tests) is the answer; an
empty set means the meet does not exist.  The in-block subroutine repeats
the same shape one level down, using the pair tables for same-subblock
hits.

Subheader rows and pair tables come from the order index's header-row
dynamic program (:func:`~latticekit.order_index._meet_cells`), batched
across every block (a block's subheaders its heads) and across every
subblock (all its members heads, so a group of 64 fills one slice of each
table); residual downsets come from a downset pass over each residual
subblock.  Blocks and subblocks partition the nodes, so node-indexed
arrays give each element's rank in its block (the order index's
``rank``), its subblock, and its rank there.

Joins run the same algorithm against a second copy of everything built on
the flipped graph.

The order index comes from :func:`~latticekit.order_index.shared_order_index`:
an index built on the same graph at the same block size shares it, as both
join indexes of a topped lattice do at c = 1/2.  The dual, on a fresh
flipped graph, always has its own.

The block size is ceil(n**c) for a chosen exponent c in [1/2, 1]; larger c
buys faster queries (order n**(1-c/2) work) for more space (order n**(1+c)
entries).  At c = 1/2 both are the balanced n**(3/2)-space, n**(3/4)-time
point.
"""

from __future__ import annotations

from array import array
from dataclasses import replace

from .decomposition import _bit_ids, _downsets_within, subblock_decompose
from .metrics import QueryStats, SpaceReport, ceil_pow
from .order_index import OrderIndex, _meet_cells, _typecode, shared_order_index
from .trg import TRG, NodeIdError, flip


class MeetIndex:
    """Two-level meet/join structure; built by :func:`build_meet_index`."""

    def __init__(self, g: TRG, c: float, order: OrderIndex,
                 sub_sizes: list[list[int]], sub_residuals: list[list[int]],
                 subheader_meet: list[list[array]],
                 pair_tables: list[list[array]],
                 residual_downsets: list[list[int]],
                 sub_rank: list[int], sub_of: list[int],
                 build_edge_visits: int):
        self.c = c
        self.n = g.n
        self.null = g.n
        self.order = order
        self.bd = order.bd
        # per block: its subblocks' sizes and its residual subblock
        self.sub_sizes = sub_sizes
        self.sub_residuals = sub_residuals
        self.subheader_meet = subheader_meet
        self.pair_tables = pair_tables
        self.residual_downsets = residual_downsets
        # sub_of: subblock index within the block, -1 for the residual
        # subblock, -2 for headers, the residual block and the null id n;
        # sub_rank: rank in the subblock or residual subblock
        self.rank = order.rank
        self.sub_of = sub_of
        self.sub_rank = sub_rank
        self.build_edge_visits = build_edge_visits
        self.dual: MeetIndex | None = None

    # -- queries ---------------------------------------------------------

    def test_order(self, x: int, y: int, stats: QueryStats | None = None) -> bool:
        """True iff x <= y; ids outside [0, n) raise :class:`NodeIdError`."""
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise NodeIdError(x, y, n=self.n)
        return self.order.test_order(x, y, stats)

    def meet(self, x: int, y: int, stats: QueryStats | None = None) -> int | None:
        """Greatest lower bound of x and y, or None if they have none; ids
        outside [0, n) raise :class:`NodeIdError`."""
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise NodeIdError(x, y, n=self.n)
        oi = self.order
        block_of = oi._block_of  # null ids fall in no principal block
        m = oi._m
        candidates: list[int] = []
        for i, row in enumerate(oi.header_meet):
            xi = row[x]
            yi = row[y]
            if stats is not None:
                stats.array_probes += 2
            if block_of[xi] != i or block_of[yi] != i:
                continue
            z = self.meet_in_block(i, xi, yi, stats)
            if z is not None:
                candidates.append(z)
        if block_of[x] == m and block_of[y] == m:
            # both residual: scan x's local downset for lower bounds of y
            for z in _bit_ids(oi.down[x], self.bd.residual):
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
        sizes = self.sub_sizes[i]
        rx = self.rank[xi]
        ry = self.rank[yi]
        sub_of = self.sub_of
        sub_rank = self.sub_rank
        candidates: list[int] = []
        for j, row in enumerate(self.subheader_meet[i]):
            xj = row[rx]
            yj = row[ry]
            if stats is not None:
                stats.array_probes += 2
            if sub_of[xj] != j or sub_of[yj] != j:
                continue
            s = sizes[j]
            z = self.pair_tables[i][j][sub_rank[xj] * s + sub_rank[yj]]
            if stats is not None:
                stats.table_probes += 1
            if z != self.null:
                candidates.append(z)
        if sub_of[xi] == -1 and sub_of[yi] == -1:
            for z in _bit_ids(self.residual_downsets[i][sub_rank[xi]],
                              self.sub_residuals[i]):
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
                                     range(len(self.pair_tables)))),
            residual_list_cells=sum(d.bit_count() for ds in self.residual_downsets
                                    for d in ds),
        )
        return own if self.dual is None else own.merged(self.dual._space_counts())

    def pair_table_cells_of_block(self, i: int) -> int:
        return sum(map(len, self.pair_tables[i]))


def build_meet_index(g: TRG, c: float = 0.5, *, with_dual: bool = True,
                     k: int | None = None) -> MeetIndex:
    """Build the meet/join structure with block size ceil(n**c).

    ``with_dual`` also builds the flipped copy that answers joins (roughly
    doubling space and build time).  The order index is shared with every
    other index on g at block size k that is still alive, the join indexes
    of a topped g at c = 1/2 among them; the dual builds its own.
    """
    if not 0.5 <= c <= 1.0:
        raise ValueError(f"tradeoff exponent c={c} outside [1/2, 1]")
    n = g.n
    if k is None:
        k = min(n, ceil_pow(n, c))
    oi = shared_order_index(g, k)
    bd = oi.bd
    visits = oi.build_edge_visits
    blank = array(_typecode(n), [n])
    sub_rank = [0] * n
    sub_of = [-2] * (n + 1)

    entries = [subblock_decompose(g, bd, i) for i in range(bd.m)]
    sub_sizes = [[len(sub) for sub in entry.subblocks] for entry in entries]
    sub_residuals = [entry.residual for entry in entries]
    residual_downsets: list[list[int]] = []
    for entry in entries:
        visits += entry.edge_visits
        for j, sub in enumerate(entry.subblocks):
            for r, x in enumerate(sub):
                sub_rank[x] = r
                sub_of[x] = j
        downs, v = _downsets_within(g.in_neighbours, entry.residual)
        visits += v
        residual_downsets.append(downs)
        for r, x in enumerate(entry.residual):
            sub_rank[x] = r
            sub_of[x] = -1

    # subheader rows: the blocks are the parts, their subheaders the heads
    subheader_meet: list[list[array]] = [[] for _ in entries]
    for lo, cells, v in _meet_cells(g, bd.blocks, [e.subheaders for e in entries]):
        visits += v
        for rows, blk, entry in zip(subheader_meet, bd.blocks, entries):
            for line in cells[:max(0, len(entry.subheaders) - lo)].take(blk, axis=1):
                row = blank * len(blk)
                memoryview(row)[:] = line
                rows.append(row)

    # pair tables: the subblocks are the parts and every member a head, so
    # a group fills rows lo, lo + 1, ... of a table, one contiguous slice
    pair_tables = [[blank * (len(sub) * len(sub)) for sub in entry.subblocks]
                   for entry in entries]
    subs = [sub for entry in entries for sub in entry.subblocks]
    tables = [t for ts in pair_tables for t in ts]
    for lo, cells, v in _meet_cells(g, subs, subs):
        visits += v
        for sub, table in zip(subs, tables):
            s = len(sub)
            if s > lo:
                rows = cells[:s - lo].take(sub, axis=1)
                memoryview(table)[lo * s:lo * s + rows.size] = rows.ravel()

    idx = MeetIndex(g, c, oi, sub_sizes, sub_residuals, subheader_meet, pair_tables,
                    residual_downsets, sub_rank, sub_of, visits)
    if with_dual:
        idx.dual = build_meet_index(flip(g), c, with_dual=False, k=k)
    return idx
