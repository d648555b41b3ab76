"""Join structures whose cost is governed by the maximum cover degree.

The degree d of a node is how many elements it covers (its in-degree in
the TRG).  When d is small these two structures beat the generic meet
machinery for joins:

* the simple index scans block headers in extraction order for the first
  one above both arguments (the join must live in that block), then checks
  the header's covered children and at worst one thin local downset:
  order sqrt(n) + d element comparisons per query;
* the recursive index descends the decomposition tree, at each node
  picking the first child above both arguments, and finishes by scanning
  one leaf chunk of size below 2d: order d * log(n)/log(d) comparisons.

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

from .decomposition import DecompositionTree, build_decomposition_tree
from .metrics import QueryStats, SpaceReport, ceil_sqrt
from .order_index import OrderIndex, build_order_index
from .trg import TRG, NodeIdError, StructureError, with_top


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


class SimpleJoinIndex:
    """Header-scan join structure; see module docs."""

    def __init__(self, g: TRG):
        g2, top, added = with_top(g)
        self.g = g2
        self.n_orig = g.n
        self.top = top
        self.virtual_top = added
        self.order = build_order_index(g2, k=ceil_sqrt(g2.n))
        bd = self.order.bd
        self.d = max_degree(g2).max_degree
        # extraction order, residual appended as a final block headed by the top
        blocks = list(bd.blocks)
        headers = list(bd.headers)
        if bd.residual:
            if top not in bd.residual:
                raise StructureError("a topped lattice leaves its top residual")
            blocks.append(bd.residual)
            headers.append(top)
        self.block_order = headers
        self.blocks = blocks
        member_sets = [set(b) for b in blocks]
        self.cover_children = [
            [w for w in g2.in_neighbours[h] if w in member_sets[i]]
            for i, h in enumerate(headers)
        ]
        # children of a block header are never headers themselves, so their
        # full local downsets are already in the order index
        self.local_downsets = [
            {c: tuple(sorted(self.order.down[c])) for c in children}
            for children in self.cover_children
        ]
        self.position = bd.extension.position

    def join(self, x: int, y: int, stats: QueryStats | None = None) -> int | None:
        """Least upper bound of x and y (None when none exists); ids outside
        [0, n) raise :class:`NodeIdError`."""
        if not (0 <= x < self.n_orig and 0 <= y < self.n_orig):
            raise NodeIdError(x, y, self.n_orig)
        oi = self.order
        target = None
        for i, h in enumerate(self.block_order):
            if stats is not None:
                stats.order_tests += 1
            if oi.test_order(x, h) and oi.test_order(y, h):
                target = i
                break
        if target is None:
            return None  # unreachable when a top exists; kept for safety
        h = self.block_order[target]
        for c in self.cover_children[target]:
            if stats is not None:
                stats.order_tests += 1
            if oi.test_order(x, c) and oi.test_order(y, c):
                best = None
                for z in self.local_downsets[target][c]:
                    if stats is not None:
                        stats.order_tests += 1
                        stats.scanned_elements += 1
                    if oi.test_order(x, z) and oi.test_order(y, z):
                        # all qualifiers bound the join from above; the join
                        # itself is among them and is earliest in extension
                        if best is None or self.position[z] < self.position[best]:
                            best = z
                return self._externalise(best)
        return self._externalise(h)

    def _externalise(self, z: int | None) -> int | None:
        if z is None or (self.virtual_top and z == self.top):
            return None
        return z

    def _space_counts(self) -> SpaceReport:
        leaf = sum(len(t) for d in self.local_downsets for t in d.values())
        return replace(self.order._space_counts(), leaf_cells=leaf)


def build_simple_join_index(g: TRG) -> SimpleJoinIndex:
    return SimpleJoinIndex(g)


class RecursiveJoinIndex:
    """Decomposition-tree join structure; see module docs."""

    def __init__(self, g: TRG, d: int | None = None):
        self.tree = build_decomposition_tree(g, d)
        g2 = self.tree.graph
        self.g = g2
        self.n_orig = g.n
        self.order = build_order_index(g2, k=ceil_sqrt(g2.n))
        self.d = self.tree.d

    def join(self, x: int, y: int, stats: QueryStats | None = None) -> int | None:
        """Least upper bound of x and y (None when none exists); ids outside
        [0, n) raise :class:`NodeIdError`."""
        if not (0 <= x < self.n_orig and 0 <= y < self.n_orig):
            raise NodeIdError(x, y, self.n_orig)
        z = recursive_join(self.tree, self.order, x, y, stats)
        if z is None or (self.tree.virtual_top and z == self.tree.top):
            return None
        return z

    def _space_counts(self) -> SpaceReport:
        return replace(self.order._space_counts(), tree_nodes=self.tree.node_count,
                       leaf_cells=self.tree.leaf_cells)


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
