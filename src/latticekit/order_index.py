"""Constant-time order testing over a block decomposition.

Two stores answer "is x <= y?" in O(1):

* one typed meet row (an ``array.array``) per block header, mapping every
  element z to its meet with that header (so the representative of any
  element inside any principal block costs a single array read), and
* one ``int`` bitset per element holding its local downset (the part of
  its downset inside its own block), bit r standing for the member of
  rank r in that block (or in the residual); a node-indexed ``rank``
  list gives each element's rank (its linear-extension order in there).

Rows hold 2-byte ids while the null id n fits (n <= 65535), 4-byte ids
beyond (:func:`_typecode`).  Every row owns its buffer, so a
``sys.getsizeof`` walk sees the bytes the index holds.

Local downsets come from one OR pass over each block and the residual
(:func:`~latticekit.decomposition._downsets_within`), header rows from
:func:`_meet_cells`, a dynamic program over the levels of the graph,
batched across all heads in numpy, with the whole graph as its one part.
Row i holds, at z, the latest element of Down(h_i) ∩ Down(z) in block
order, on any DAG; in a partial lattice that is the meet.  The meet
engine's subheader rows and pair tables come from the same program, its
parts the blocks and the subblocks: every meet row has this one
implementation.

The query splits into three cases.  If x sits in a principal block, map y
to its representative in that block and test x's bit in the
representative's local downset.  If x and y are both residual, test the
bit directly.  A residual x can never be below a principal y.  Every call
costs at most five probes (array reads, one bit test, and a few block-id
comparisons).

The meet index and both join indexes of one graph take their order index
from :func:`shared_order_index`, so at one block size they share one: the
meet index at c = 1/2 and the join indexes of a topped lattice all use
block size ceil(sqrt n).  :func:`build_order_index` always builds afresh.

The structure is immutable after the build; concurrent queries are safe.
Callers that want probe counts pass their own ``QueryStats`` recorder, so
counting never contends across threads.
"""

from __future__ import annotations

from array import array
from itertools import chain

import numpy as np

from .decomposition import BlockDecomposition, _downsets_within, block_decompose
from .metrics import QueryStats, SpaceReport, ceil_sqrt
from .trg import TRG, NodeIdError, StructureError


class OrderIndex:
    """Header-meet rows plus local-downset bitsets; see module docs."""

    def __init__(self, g: TRG, bd: BlockDecomposition, header_meet, down,
                 rank: list[int], build_edge_visits: int):
        self.bd = bd
        self.n = g.n
        self.null = g.n  # sentinel id meaning "no meet" in the dense arrays
        self.header_meet = header_meet
        self.down = down
        # rank of each node in its block (or the residual): its bit in the
        # local downsets of that block
        self.rank = rank
        self.build_edge_visits = build_edge_visits
        # slot n gives the null id the residual's block, so a null meet
        # fails the same-block test without a test of its own
        self._block_of = bd.block_of
        self._m = bd.m

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
            if block_of[yi] != bx:
                if stats is not None:
                    stats.array_probes += 1
                    stats.note_order_test(3)
                return False
            hit = self.down[yi] >> self.rank[x] & 1 == 1
            if stats is not None:
                stats.array_probes += 1
                stats.dict_probes += 1
                stats.note_order_test(4)
            return hit
        if block_of[y] == self._m:
            hit = self.down[y] >> self.rank[x] & 1 == 1
            if stats is not None:
                stats.dict_probes += 1
                stats.note_order_test(3)
            return hit
        if stats is not None:
            stats.note_order_test(2)
        return False

    def meet_with_header(self, i: int, x: int,
                         stats: QueryStats | None = None) -> int | None:
        """Meet of x with the header of principal block i: one array read.
        An x outside [0, n) raises :class:`NodeIdError`."""
        if not 0 <= i < self._m:
            raise ValueError(f"block {i} is not principal")
        if not 0 <= x < self.n:
            raise NodeIdError(x, n=self.n)
        if stats is not None:
            stats.array_probes += 1
        z = self.header_meet[i][x]
        return None if z == self.null else z

    # -- accounting ------------------------------------------------------

    @property
    def down_entries(self) -> int:
        return sum(s.bit_count() for s in self.down)

    def _space_counts(self) -> SpaceReport:
        return SpaceReport(
            n=self.n,
            header_meet_cells=self._m * self.n,
            down_entries=self.down_entries,
        )


def _typecode(n: int) -> str:
    """``array`` typecode of rows holding ids in [0, n], the null id n
    included: unsigned 2-byte items while n fits, 4-byte items beyond."""
    return "H" if n <= 0xFFFF else "I"


def _meet_cells(g: TRG, parts: list[list[int]], heads: list[list[int]]):
    """Meet rows of heads inside their parts, 64 head indexes at a time.

    ``parts`` are disjoint node lists, each in linear-extension order, and
    ``heads[p]`` lists nodes of ``parts[p]``.  Yields ``(lo, cells,
    visits)`` per group of head indexes lo, lo + 1, ...: ``cells`` is a
    typed numpy array, overwritten by the next group, with a row per index
    in the group and a column per node id.  At a member z of part P, row t
    holds the latest element of Down_P(heads[P][lo + t]) ∩ Down_P(z) in P's
    order, Down_P taken in the subgraph induced on P, or the null id n when
    they share none or P has no such head; nodes outside the parts hold
    null.  In a partial lattice and an interval-closed P that is the meet
    of z and the head whenever the meet lies in P, the unique maximal lower
    bound being the latest one in any linear extension.  ``visits`` counts
    the in-part edges of each pass: the reverse pass's with the first
    group, then one per group.

    A level-batched dynamic program: the cell of z is z for the heads above
    z, else the latest cell over the elements z covers in its part.  One
    reverse pass over the parts gives each member its heads above as a
    bitmask and its depth, the longest chain above it in its part.
    Covered elements lie deeper, so levels run from the deepest up.  A
    level's nodes are sorted by in-part in-degree, so the nodes with a t-th
    lower cover are a prefix, and each t costs one gather and one
    ``np.maximum`` across the group; once fewer nodes are left than values
    of t, each takes the maximum of its other covers in one call.  Cells
    hold positions in the concatenated parts plus one, 0 standing for null,
    and map back to ids at the end.
    """
    n = g.n
    width = max(map(len, heads), default=0)
    if not width:
        return
    out_nbrs, in_nbrs = g.out_neighbours, g.in_neighbours
    order = list(chain.from_iterable(parts))
    part_of = [-1] * n
    for p, xs in enumerate(parts):
        for x in xs:
            part_of[x] = p
    above = [0] * n
    for hs in heads:
        for t, h in enumerate(hs):
            above[h] = 1 << t
    depth = [0] * n
    for z in reversed(order):
        p = part_of[z]
        s = above[z]
        d = 0
        for w in out_nbrs[z]:
            if part_of[w] == p:
                s |= above[w]
                e = depth[w]
                if e >= d:
                    d = e + 1
        above[z] = s
        depth[z] = d

    # the in-part lower covers of each node
    part = np.array(part_of)
    degree = np.fromiter(map(len, in_nbrs), np.intp, n)
    covers = np.fromiter(chain.from_iterable(in_nbrs), np.intp, int(degree.sum()))
    owner = np.repeat(np.arange(n), degree)
    inside = part[owner]
    own = (part[covers] == inside) & (inside >= 0)
    covers = covers[own]
    degree = np.bincount(owner[own], minlength=n)
    offset = np.cumsum(degree) - degree
    members = np.array(order, np.intp)
    depths = np.array(depth)[members]
    # deepest level first, each by in-degree
    nodes = members[np.lexsort((-degree[members], -depths))]
    start = offset[nodes]
    degree = degree[nodes].tolist()
    # the deepest level holds only minimal elements of their parts, whose
    # cells are final
    bounds = np.cumsum(np.bincount(depths)[::-1]).tolist()

    dtype = np.uint16 if _typecode(n) == "H" else np.uint32
    position = np.zeros((n, 1), dtype)
    position[members, 0] = np.arange(1, len(order) + 1, dtype=dtype)
    ids = np.array([n, *order], dtype)
    # 64 heads at a time, which bounds the cells to 64 per node; each group
    # is written to ``out`` as rows per head, valid until the next group
    out = np.empty((min(64, width), n), dtype)
    for lo in range(0, width, 64):
        words = np.array([s >> lo & 0xFFFF_FFFF_FFFF_FFFF for s in above], "<u8")
        cells = np.unpackbits(words.view(np.uint8).reshape(n, 8), axis=1,
                              count=min(64, width - lo), bitorder="little").astype(dtype)
        cells *= position
        for a, b in zip(bounds, bounds[1:]):
            level = nodes[a:b]
            first = start[a:b]
            best = cells[level]
            top = degree[a]
            p = b - a
            for t in range(top):
                while degree[a + p - 1] <= t:
                    p -= 1
                if p < top - t:
                    for j in range(p):
                        rest = covers[first[j] + t:first[j] + degree[a + j]]
                        np.maximum(best[j], cells[rest].max(axis=0), out=best[j])
                    break
                np.maximum(best[:p], cells[covers[first[:p] + t]], out=best[:p])
            cells[level] = best
        group = out[:cells.shape[1]]
        group[:] = cells.T
        del cells  # freed before the caller reads the group
        for line in group:
            np.take(ids, line, out=line)
        yield lo, group, len(covers) * (1 if lo else 2)


def _header_rows(g: TRG, bd: BlockDecomposition) -> tuple[list[array], int]:
    """One typed row per block header h_i, holding at slot z the latest
    element of Down(h_i) ∩ Down(z) in block order (blocks in extraction
    order, then the residual, a linear extension), or the null id n; in a
    partial lattice, the meet of z and h_i.  Also returns the edge visits."""
    order = [x for blk in bd.blocks for x in blk] + bd.residual
    blank = array(_typecode(g.n), [g.n]) * g.n
    rows = []
    visits = 0
    for _, cells, v in _meet_cells(g, [order], [bd.headers]):
        visits += v
        for line in cells:
            row = blank[:]
            # a copy of blank keeps its exact allocation, where a row built
            # from bytes is over-allocated
            memoryview(row)[:] = line
            rows.append(row)
    return rows, visits


def build_order_index(g: TRG, bd: BlockDecomposition | None = None,
                      k: int | None = None) -> OrderIndex:
    """Build the order-testing structure (default block size ceil(sqrt n));
    a ``bd`` of another graph, or a ``k`` other than ``bd.k``, raises
    ``ValueError``."""
    if bd is None:
        bd = block_decompose(g, k if k is not None else ceil_sqrt(g.n))
    elif len(bd.block_of) != g.n + 1:
        raise ValueError(f"block decomposition is not of this {g.n}-node graph")
    elif k is not None and k != bd.k:
        raise ValueError(f"block size k={k} conflicts with the block decomposition's"
                         f" k={bd.k}")
    visits = bd.edge_visits
    down = [0] * g.n
    rank = [0] * g.n
    for universe in bd.blocks + [bd.residual]:
        downs, v = _downsets_within(g.in_neighbours, universe)
        visits += v
        for r, (x, local) in enumerate(zip(universe, downs)):
            down[x] = local
            rank[x] = r

    header_meet, v = _header_rows(g, bd)
    visits += v

    headers = set(bd.headers)
    for x in range(g.n):
        # non-headers must be thin inside their own block
        size = down[x].bit_count()
        if x not in headers and size >= bd.k:
            raise StructureError(
                f"node {x} has local downset of size {size} >= k={bd.k}")
    return OrderIndex(g, bd, header_meet, down, rank, visits)


def shared_order_index(g: TRG, k: int) -> OrderIndex:
    """The order index of g at block size k: the one an index built on g
    still holds, else a fresh :func:`build_order_index`, which g then
    holds weakly until its last holder is gone.  Two threads building on g
    at once may each build one; either answers the same."""
    oi = g._order_indexes.get(k)
    if oi is None:
        oi = g._order_indexes[k] = build_order_index(g, k=k)
    return oi
