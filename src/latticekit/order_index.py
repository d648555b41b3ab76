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
(:func:`~latticekit.decomposition._downsets_within`), header rows from the
meet-row flood (:func:`_meet_rows`, which also fills the meet engine's
tables), started from header downsets put together without a walk.

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
from itertools import accumulate

from .decomposition import (
    BlockDecomposition,
    _bit_ids,
    _downsets_within,
    block_decompose,
)
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


def _meet_rows(out_nbrs, downs, members, ids, null: int, rows: list) -> int:
    """Append to ``rows`` one typed row per head, the head's meet with every
    slot of ``out_nbrs``, by flooding; return the edge visits.  A head's
    downset is an ``int`` bitset, bit p standing for slot ``members[p]``
    (``members`` in linear-extension order); ``downs`` is read a head at a
    time, after the rows before it are appended, so it may read them.

    Members are taken from the highest bit down, each flooding the part of
    its upset no later member has reached: the last member that reaches z
    is the meet of z and the head (bounds are unique in a partial lattice,
    and the unique maximal lower bound is the latest one in any linear
    extension).  Slot y stores ``ids[y]``, a slot nothing reaches the null
    id.  On an interval-closed universe's induced subgraph the stored meet
    is the lattice meet: a common lower bound inside forces the meet inside.
    """
    blank = array(_typecode(null), [null]) * len(out_nbrs)
    mark = [0] * len(out_nbrs)
    visits = 0
    for token, down in enumerate(downs, 1):
        row = blank[:]
        # written through a memoryview, which converts ints faster than
        # the array's own item assignment; released before the row is kept
        view = memoryview(row)
        for y in reversed(_bit_ids(down, members)):
            if mark[y] == token:
                continue
            mark[y] = token
            meet = view[y] = ids[y]
            stack = [y]
            while stack:
                nb = out_nbrs[stack.pop()]
                visits += len(nb)
                for w in nb:
                    if mark[w] < token:
                        mark[w] = token
                        view[w] = meet
                        stack.append(w)
        view.release()
        rows.append(row)
    return visits


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

    # Blocks in extraction order, each in rank order, list a linear extension
    # of their union, and Down(h_i) lies in blocks 0..i.  Its part in an
    # earlier block j is empty or the local downset of w = meet(h_j, h_i):
    # every z of B_j under h_i is under w, and w lies in no block before j,
    # since extracted sets are down-closed and z lies in none.
    members = [x for blk in bd.blocks for x in blk]
    offset = [0, *accumulate(map(len, bd.blocks))]
    block_of = bd.block_of
    header_meet: list[array] = []

    def head_downs():
        for i, h in enumerate(bd.headers):
            s = down[h] << offset[i]
            for j, row in enumerate(header_meet):  # rows 0..i-1
                w = row[h]
                if block_of[w] == j:
                    s |= down[w] << offset[j]
            yield s

    visits += _meet_rows(g.out_neighbours, head_downs(), members, range(g.n),
                         g.n, header_meet)

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
