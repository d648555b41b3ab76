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

The first store is filled by the meet-row flood (:func:`_meet_rows`, which
also fills the meet engine's tables), the second by the shared downward
walk run on each block's induced subgraph.

The query splits into three cases.  If x sits in a principal block, map y
to its representative in that block and test x's bit in the
representative's local downset.  If x and y are both residual, test the
bit directly.  A residual x can never be below a principal y.  Every call
costs at most five probes (array reads, one bit test, and a few block-id
comparisons).

The structure is immutable after the build; concurrent queries are safe.
Callers that want probe counts pass their own ``QueryStats`` recorder, so
counting never contends across threads.
"""

from __future__ import annotations

from array import array

from .decomposition import (
    BlockDecomposition,
    _downsets_within,
    _induced,
    _walk,
    block_decompose,
)
from .metrics import QueryStats, SpaceReport, ceil_sqrt
from .trg import TRG, NodeIdError, StructureError, linear_extension


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

    leq = test_order

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


def _meet_rows(g: TRG, heads, universe: list[int] | None = None):
    """Meet of each head with every node, one row per head, by flooding.

    The head's downset is walked, then its members are taken in reverse
    linear-extension order, each flooding the part of its upset no later
    member has reached: the last member that reaches z is the meet of z and
    the head (bounds are unique in a partial lattice, and the unique maximal
    lower bound is the latest one in any linear extension).

    With a ``universe`` (interval-closed, in linear-extension order) the
    floods run on its induced subgraph, heads and row indexes being ranks
    in it.  A stored meet is still the lattice meet: a common lower bound
    inside the universe forces the meet inside.  Without one, the whole
    graph's extension is computed here.  Returns the rows, one typed array
    each (null is ``g.n``), and the edge visits.
    """
    if universe is None:
        in_nbrs, out_nbrs = g.in_neighbours, g.out_neighbours
        key = linear_extension(g).position.__getitem__
    else:
        in_nbrs = _induced(g.in_neighbours, universe)
        out_nbrs = _induced(g.out_neighbours, universe)
        key = None
    null = g.n
    size = len(in_nbrs)
    blank = array(_typecode(null), [null]) * size
    mark = [0] * size
    token = 0
    visits = 0
    rows = []
    for h in heads:
        token += 2
        members, v = _walk(in_nbrs, h, mark, token - 1)
        visits += v
        members.sort(key=key)
        row = blank[:]
        # written through a memoryview, which converts ints faster than
        # the array's own item assignment; released before the row is kept
        view = memoryview(row)
        for y in reversed(members):
            if mark[y] == token:
                continue
            mark[y] = token
            meet = view[y] = y if universe is None else universe[y]
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
    return rows, visits


def build_order_index(g: TRG, bd: BlockDecomposition | None = None,
                      k: int | None = None) -> OrderIndex:
    """Build the order-testing structure (default block size ceil(sqrt n))."""
    if bd is None:
        bd = block_decompose(g, k if k is not None else ceil_sqrt(g.n))
    header_meet, visits = _meet_rows(g, bd.headers)
    visits += bd.edge_visits
    down = [0] * g.n
    rank = [0] * g.n
    for universe in bd.blocks + [bd.residual]:
        downs, v = _downsets_within(g.in_neighbours, universe)
        visits += v
        for r, (x, local) in enumerate(zip(universe, downs)):
            down[x] = local
            rank[x] = r

    idx = OrderIndex(g, bd, header_meet, down, rank, visits)
    headers = set(bd.headers)
    for x in range(g.n):
        # non-headers must be thin inside their own block
        size = down[x].bit_count()
        if x not in headers and size >= bd.k:
            raise StructureError(
                f"node {x} has local downset of size {size} >= k={bd.k}")
    return idx
