"""Join structures whose cost is governed by the maximum cover degree.

The degree d of a node is how many elements it covers (its in-degree in
the TRG).  When d is small these two structures beat the generic meet
machinery for joins.  Both answer by one walk (:func:`recursive_join`):
at each tree node, descend into the first child whose header is above
both arguments, and at a leaf return the qualifier earliest in the linear
extension.  They differ in the tree:

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

Both assume a top element and add a synthetic one when missing; a query
whose answer is the synthetic top reports None instead.  Meets are served
by building either structure on the flipped graph (whose maximum degree
may differ).

Stats semantics: ``order_tests`` here counts element-versus-pair
comparisons (header tests, child tests, and leaf scans), the unit of work
in the cost bounds above; each unit is at most two constant-time order
probes.  ``tree_nodes_visited`` doubles as the depth reached.
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
from .order_index import OrderIndex, build_order_index
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
        self.order = build_order_index(g2, k=ceil_sqrt(g2.n))
        self.d = max_degree(g2).max_degree
        bd = self.order.bd
        # every chunk is a leaf; each lies in a thin node's local downset
        self.tree = _grow_tree(g2, top, added, self.d,
                               _root_blocks(bd.headers, bd.blocks, bd.residual, top),
                               g2.n + 1, bd.extension.position)
        self.block_order = [b.header for b in self.tree.root.children]


def build_simple_join_index(g: TRG) -> SimpleJoinIndex:
    return SimpleJoinIndex(g)


class RecursiveJoinIndex(_TreeJoin):
    """Decomposition-tree join structure; see module docs."""

    def __init__(self, g: TRG, d: int | None = None):
        self.tree = build_decomposition_tree(g, d)
        g2 = self.tree.graph
        self.g = g2
        self.n_orig = g.n
        self.order = build_order_index(g2, k=ceil_sqrt(g2.n))
        self.d = self.tree.d


def build_recursive_join_index(g: TRG, d: int | None = None) -> RecursiveJoinIndex:
    return RecursiveJoinIndex(g, d)


def recursive_join(tree: DecompositionTree, oi: OrderIndex, x: int, y: int,
                   stats: QueryStats | None = None) -> int | None:
    """Walk the decomposition tree to the join of x and y.

    At each node, descend into the first child whose header is above both
    arguments (a self-block child qualifies by construction, its header
    being the current chunk's own header).  If no child qualifies the
    answer is the current node's header.  At a leaf, the join is the
    qualifier earliest in the linear extension of the stored chunk.
    May return the synthetic top; callers translate that to None.
    """
    position = oi.position
    node = tree.root
    while True:
        if stats is not None:
            stats.tree_nodes_visited += 1
        if node.is_leaf:
            best = None
            for z in node.leaf_elements:
                if stats is not None:
                    stats.order_tests += 1
                    stats.scanned_elements += 1
                if oi.test_order(x, z) and oi.test_order(y, z):
                    if best is None or position[z] < position[best]:
                        best = z
            return best
        chosen = None
        for child in node.children:
            if child.kind == "selfblock":
                # header equals this chunk's header, already known above x, y
                chosen = child
                break
            if stats is not None:
                stats.order_tests += 1
            if oi.test_order(x, child.header) and oi.test_order(y, child.header):
                chosen = child
                break
        if chosen is None:
            return node.header  # None only at the root, meaning no upper bound
        node = chosen
