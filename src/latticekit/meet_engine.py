"""Meet and join queries via a two-level block/subblock decomposition.

On top of the order-testing structure, each principal block gets a
subblock decomposition (size sqrt of the block length), two stores and a
mask:

* per subblock header, a typed row (``array.array``, the order index's
  typecode) of its meets with every block member, indexed by rank in
  the block,
* per principal subblock of s members, one flat typed s * s table with
  the meet of every member pair, the pair of ranks (rx, ry) at
  ``rx * s + ry``, null whenever that meet falls outside the subblock,
  and
* per block, the ranks of its residual subblock as one ``int`` mask.
  Subblock extraction takes down-closed sets, so the residual subblock is
  up-closed in the block, and a member's downset inside it is the member's
  local downset (the order index's ``down``) masked with it.

Blocks are extracted as down-closed sets, so ordering nodes by (block,
rank in block), the residual last, is a linear extension, and the meet is
the last common lower bound in it; the same holds for subblocks inside a
block.  A meet query scans down, x's local downset first when both
arguments are residual, then the blocks from the lower argument's down to
block 0, and answers with the first in-block meet; running out means the
meet does not exist.  The in-block subroutine repeats the same shape one
level down, with the pair tables for same-subblock hits.

Subblocks are read off the order index's local downsets.  Subheader rows
and pair tables come from its header-row dynamic program
(:func:`~latticekit.order_index._meet_cells`), batched across every block
(a block's subheaders its heads) and across every subblock (all its
members heads, so a group of 64 fills one slice of each table).  Blocks
and subblocks partition the nodes, so node-indexed arrays give each
element's rank in its block (the order index's ``rank``), its subblock,
and its rank there.

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

from .decomposition import _bit_ids, _subblocks
from .metrics import QueryStats, SpaceReport, ceil_pow
from .order_index import OrderIndex, _meet_cells, _typecode, shared_order_index
from .trg import TRG, NodeIdError, flip


class MeetIndex:
    """Two-level meet/join structure; built by :func:`build_meet_index`."""

    def __init__(self, g: TRG, c: float, order: OrderIndex,
                 sub_sizes: list[list[int]], residual_masks: list[int],
                 subheader_meet: list[list[array]],
                 pair_tables: list[list[array]],
                 sub_rank: list[int], sub_of: list[int],
                 build_edge_visits: int):
        self.c = c
        self.n = g.n
        self.null = g.n
        self.order = order
        self.bd = order.bd
        # per block: its subblocks' sizes and the ranks of its residual
        # subblock, a mask over ranks in the block
        self.sub_sizes = sub_sizes
        self.residual_masks = residual_masks
        self.subheader_meet = subheader_meet
        self.pair_tables = pair_tables
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
        """Greatest lower bound of x and y, or None if they have none: the
        first hit down x's residual downset, then down the blocks from the
        lower argument's.  Ids outside [0, n) raise :class:`NodeIdError`."""
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise NodeIdError(x, y, n=self.n)
        oi = self.order
        block_of = oi._block_of  # null ids fall in no principal block
        m = oi._m
        if block_of[x] == m and block_of[y] == m:
            z = self._scan_down(oi.down[x], self.bd.residual, y, stats)
            if z is not None:
                return z
        rows = oi.header_meet
        for i in range(min(block_of[x], block_of[y], m - 1), -1, -1):
            row = rows[i]
            xi = row[x]
            yi = row[y]
            if stats is not None:
                stats.array_probes += 2
            if block_of[xi] != i or block_of[yi] != i:
                continue
            z = self.meet_in_block(i, xi, yi, stats)
            if z is not None:
                if stats is not None:
                    stats.candidate_count += 1
                return z
        return None

    def meet_in_block(self, i: int, xi: int, yi: int,
                      stats: QueryStats | None = None) -> int | None:
        """Meet of two members of principal block i, or None when that meet
        exists only outside the block (or not at all): past the header, the
        first hit down the residual subblock, then the subblocks."""
        header = self.bd.headers[i]
        if xi == header:
            return yi
        if yi == header:
            return xi
        sub_of = self.sub_of
        sx = sub_of[xi]
        sy = sub_of[yi]
        if sx == -1 and sy == -1:
            z = self._scan_down(self.order.down[xi] & self.residual_masks[i],
                                self.bd.blocks[i], yi, stats)
            if z is not None:
                return z
        rows = self.subheader_meet[i]
        last = len(rows) - 1
        rx = self.rank[xi]
        ry = self.rank[yi]
        for j in range(min(last if sx < 0 else sx, last if sy < 0 else sy), -1, -1):
            row = rows[j]
            xj = row[rx]
            yj = row[ry]
            if stats is not None:
                stats.array_probes += 2
            if sub_of[xj] != j or sub_of[yj] != j:
                continue
            z = self.pair_tables[i][j][self.sub_rank[xj] * self.sub_sizes[i][j]
                                       + self.sub_rank[yj]]
            if stats is not None:
                stats.table_probes += 1
            if z != self.null:
                if stats is not None:
                    stats.candidate_count += 1
                return z
        return None

    def _scan_down(self, s: int, ids: list, y: int,
                   stats: QueryStats | None) -> int | None:
        """The first ``ids[r] <= y`` over the set bits r of ``s``, highest first."""
        while s:
            r = s.bit_length() - 1
            if stats is not None:
                stats.scanned_elements += 1
            if self.order.test_order(ids[r], y, stats):
                if stats is not None:
                    stats.candidate_count += 1
                return ids[r]
            s ^= 1 << r
        return None

    def join(self, x: int, y: int, stats: QueryStats | None = None) -> int | None:
        """Least upper bound, answered by the dual index on the flipped graph
        (whose :meth:`meet` checks the ids)."""
        if self.dual is None:
            raise ValueError("index was built without a dual; joins unavailable")
        return self.dual.meet(x, y, stats)

    # -- accounting ------------------------------------------------------

    def _space_counts(self) -> SpaceReport:
        down = self.order.down
        own = replace(
            self.order._space_counts(),
            c=self.c,
            subheader_meet_cells=sum(len(row) for rows in self.subheader_meet
                                     for row in rows),
            pair_table_cells=sum(map(self.pair_table_cells_of_block,
                                     range(len(self.pair_tables)))),
            # derived, not stored: local downsets masked with the residuals
            residual_list_cells=sum((down[x] & mask).bit_count()
                                    for mask, blk in zip(self.residual_masks,
                                                         self.bd.blocks)
                                    for x in _bit_ids(mask, blk)),
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

    entries = [_subblocks(i, blk, h, oi.down)
               for i, (blk, h) in enumerate(zip(bd.blocks, bd.headers))]
    sub_sizes = [[len(sub) for sub in entry.subblocks] for entry in entries]
    sub_rank = [0] * n
    sub_of = [-2] * (n + 1)
    for entry in entries:
        for j, part in [*enumerate(entry.subblocks), (-1, entry.residual)]:
            for r, x in enumerate(part):
                sub_rank[x] = r
                sub_of[x] = j

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

    idx = MeetIndex(g, c, oi, sub_sizes, [e.residual_mask for e in entries],
                    subheader_meet, pair_tables, sub_rank, sub_of, visits)
    if with_dual:
        idx.dual = build_meet_index(flip(g), c, with_dual=False, k=k)
    return idx
