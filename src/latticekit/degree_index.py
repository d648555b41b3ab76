"""Join structures whose cost is governed by the maximum cover degree.

The degree d of a node is how many elements it covers (its in-degree in
the TRG).  When d is small these two structures beat the generic meet
machinery for joins.  Both answer by one walk (:func:`recursive_join`):
at each tree node, descend into the first child whose header is above
both arguments, and at a leaf return the first element above both.  A
leaf stores its elements in linear-extension order and the join lies
below every other upper bound, so the scan stops at the join.  They
differ in the tree:

* the simple index walks a one-level tree over its order index's block
  decomposition (block size sqrt(n)): a block node per block in
  extraction order, the residual last under the top, and below each
  block one leaf chunk per element its header covers.  The first header
  above both arguments heads the block holding the join (an earlier
  block's header would be above both too), and the first chunk whose
  header is above both holds it (an earlier one would claim it).  Cost:
  m header tests, at most d child tests and one chunk scan, each chunk
  lying in the local downset of a thin node and so smaller than sqrt(n);
* the recursive index descends the full decomposition tree and finishes
  by scanning one leaf chunk of size below 2d: order d * log(n)/log(d)
  comparisons.

Both take their order index (block size ceil(sqrt n)) from
:func:`~latticekit.order_index.shared_order_index`, so on a topped lattice
the two join indexes and a meet index at c = 1/2 share one.

Both assume a top element and add a synthetic one when missing; a query
whose answer is the synthetic top reports None instead.  The topped graph
is then new to each index, and so is its order index.  Meets are served
by building either structure on the flipped graph (whose maximum degree
may differ).

Stats semantics, per query:

* ``tree_nodes_visited`` counts the nodes the walk entered, the root
  included, and doubles as the depth reached;
* ``order_tests`` counts element-versus-pair comparisons: each child
  header tested on the way down (a self block is entered untested) and
  each leaf element scanned.  This is the unit of work in the cost bounds
  above; each unit is at most two constant-time order probes;
* ``scanned_elements`` counts the leaf elements scanned: the join's
  1-based place in its leaf when the walk ends in one, else 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .decomposition import (
    DecompositionTree,
    _grow_tree,
    _root_blocks,
    build_decomposition_tree,
)
from .metrics import QueryStats, SpaceReport, ceil_sqrt
from .order_index import OrderIndex, shared_order_index
from .trg import TRG, NodeIdError, with_top


@dataclass
class DegreeStats:
    """Maximum cover degree and the full in-degree histogram."""

    max_degree: int
    histogram: list[int]  # histogram[k] = number of nodes covering exactly k


def max_degree(g: TRG) -> DegreeStats:
    hist = [0] * (max((len(nb) for nb in g.in_neighbours), default=0) + 1)
    for nb in g.in_neighbours:
        hist[len(nb)] += 1
    return DegreeStats(max_degree=len(hist) - 1, histogram=hist)


class _TreeJoin:
    """Join by :func:`recursive_join` over ``self.tree``, with ``self.order``
    answering the order tests; the two join indexes differ only in the tree
    they build."""

    def join(self, x: int, y: int, stats: QueryStats | None = None) -> int | None:
        """Least upper bound of x and y (None when none exists); ids outside
        [0, n) raise :class:`NodeIdError`."""
        if not (0 <= x < self.n_orig and 0 <= y < self.n_orig):
            raise NodeIdError(x, y, n=self.n_orig)
        z = recursive_join(self.tree, self.order, x, y, stats)
        if z is None or (self.tree.virtual_top and z == self.tree.top):
            return None
        return z

    def _space_counts(self) -> SpaceReport:
        return replace(self.order._space_counts(), tree_nodes=self.tree.node_count,
                       leaf_cells=self.tree.leaf_cells)


class SimpleJoinIndex(_TreeJoin):
    """One-level tree over the order index's block decomposition; see
    module docs."""

    def __init__(self, g: TRG):
        g2, top, added = with_top(g)
        self.g = g2
        self.n_orig = g.n
        self.virtual_top = added
        self.order = shared_order_index(g2, ceil_sqrt(g2.n))
        self.d = max_degree(g2).max_degree
        bd = self.order.bd
        # every chunk is a leaf; each lies in a thin node's local downset
        self.tree = _grow_tree(g2, top, added, self.d,
                               _root_blocks(bd.headers, bd.blocks, bd.residual, top),
                               g2.n + 1)
        self.block_order = [b[0] for b in self.tree.root[1]]


def build_simple_join_index(g: TRG) -> SimpleJoinIndex:
    return SimpleJoinIndex(g)


class RecursiveJoinIndex(_TreeJoin):
    """Decomposition-tree join structure; see module docs."""

    def __init__(self, g: TRG, d: int | None = None):
        self.tree = build_decomposition_tree(g, d)
        g2 = self.tree.graph
        self.g = g2
        self.n_orig = g.n
        self.order = shared_order_index(g2, ceil_sqrt(g2.n))
        self.d = self.tree.d


def build_recursive_join_index(g: TRG, d: int | None = None) -> RecursiveJoinIndex:
    return RecursiveJoinIndex(g, d)


def recursive_join(tree: DecompositionTree, oi: OrderIndex, x: int, y: int,
                   stats: QueryStats | None = None) -> int | None:
    """Walk the decomposition tree to the join of x and y.

    At each inner node, descend into the first principal child whose header
    is above both arguments, else into the self block (its header is the
    current chunk's own, already known above both), else answer the
    current node's header.  At a leaf, answer the first element above both:
    its elements are in linear-extension order, and the join lies below
    every other upper bound, so it comes first.  May return the synthetic
    top; callers translate that to None.  The stats are counted from where
    a scan stopped, so a walk without stats does no counting.
    """
    test = oi.test_order
    node = tree.root
    while True:
        if stats is not None:
            stats.tree_nodes_visited += 1
        header, kids, tail = node
        if kids is None:
            for z in tail:
                if test(x, z) and test(y, z):
                    break
            else:
                z = None
            if stats is not None:
                scanned = len(tail) if z is None else tail.index(z) + 1
                stats.order_tests += scanned
                stats.scanned_elements += scanned
            return z
        for child in kids:
            h = child[0]
            if test(x, h) and test(y, h):
                break
        else:
            child = tail
        if stats is not None:
            stats.order_tests += len(kids) if child is tail else kids.index(child) + 1
        if child is None:
            return header  # None only at the root, meaning no upper bound
        node = child
