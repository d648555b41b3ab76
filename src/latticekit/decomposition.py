"""Block, subblock, cover, and recursive decompositions of a partial lattice.

A block decomposition with block size k repeatedly extracts the downset of
a "minimal fat" node: walking a fixed linear extension, the first node
whose live downset reaches size k becomes the next block header, and that
downset (restricted to nodes not yet extracted) becomes a principal block.
Whatever survives is the residual block.  Every non-header ends up thin
within its own block (local downset smaller than k), every block is itself
a partial lattice, and blocks are interval-closed: any chain between two
members stays inside the block.  Those three facts carry all the index
structures built on top.

The decomposition tree alternates two stages.  A chunk (a block member
set hanging below one covered child of the block header) is split by a
block decomposition with block size |chunk|/d, and each resulting block is
split by a cover decomposition: one chunk per element covered by its
header, taken in ascending id order.  The block containing the chunk's own
header is attached as a "self block" child, which keeps node degrees at
most d+1 while chunk sizes shrink by a factor d every two levels.  Chunks
smaller than 2d stop the recursion and store their elements as leaf lists.

Extraction sizes live downsets without walking them.  The extracted set E
stays down-closed: when header x is taken, its block is Down(x) minus E,
and any path from x to a live node below it is live (an extracted node on
the path would put the end node in E too).  So a node's live downset is
itself plus the union of its children's, minus E: one bitset per thin
node, OR-ed once along each in-edge, sizes every live downset
(:func:`_extract_blocks`).

Every downward walk of the builds is :func:`_walk`; work inside a block,
subblock or chunk runs on its induced subgraph (:func:`_induced`), so no
walk tests membership.  Structural invariants raise
:class:`~latticekit.trg.StructureError`, so they hold under ``python -O``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress

from .metrics import ceil_log, ceil_sqrt
from .trg import (
    TRG,
    LinearExtension,
    StructureError,
    downset,
    linear_extension,
    with_top,
)


def _walk(adj, x: int, mark: list[int], token: int) -> tuple[list[int], int]:
    """Nodes reachable from x along ``adj`` (x included) through nodes marked
    below ``token``, each marked ``token`` when found.  Returns them in
    discovery order, with the edge visits (adjacency length per node popped).
    A mark above every later token closes a node for good.
    """
    mark[x] = token
    found = [x]
    stack = [x]
    visits = 0
    while stack:
        nb = adj[stack.pop()]
        visits += len(nb)
        for w in nb:
            if mark[w] < token:
                mark[w] = token
                found.append(w)
                stack.append(w)
    return found, visits


def _induced(adj, universe: list[int]) -> list[list[int]]:
    """``adj`` restricted to the nodes of ``universe``, each renumbered to its
    rank in that list.  Neighbour lists stay ascending when the universe is."""
    rank = {x: r for r, x in enumerate(universe)}
    return [[rank[w] for w in adj[x] if w in rank] for x in universe]


def _local_downsets(in_nbrs, universe: list[int]) -> tuple[list[list[int]], int]:
    """The downset inside ``universe`` of each of its members, in member
    order and as node ids, plus the edge visits of the walks."""
    local = _induced(in_nbrs, universe)
    mark = [0] * len(universe)
    downs = []
    visits = 0
    for r in range(len(universe)):
        found, v = _walk(local, r, mark, r + 1)
        visits += v
        downs.append([universe[w] for w in found])
    return downs, visits


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bit_ids(s: int, ids: list) -> list:
    """``ids[i]`` for every set bit i of ``s``, ascending.  The bits from
    the lowest set one up become a 0/1 byte string that selects from ``ids``,
    so the cost follows the span of ``s``, not its highest bit."""
    if not s:
        return []
    lo = (s & -s).bit_length() - 1
    bits = bin(s >> lo)[:1:-1].encode().translate(_BIT_BYTES)
    return list(compress(ids[lo:s.bit_length()], bits))


def _extract_blocks(in_nbrs, visit_order, k):
    """Greedy fat-node extraction over ``visit_order``, a linear extension of
    all of ``in_nbrs``.  Returns (blocks, headers, residual, edge_visits).

    Live downsets are bitsets: the extracted set E stays down-closed (the
    block of a header x is Down(x) minus E), so every path from x to a live
    node of Down(x) is live and x's live downset is x plus the union of its
    children's, minus E.  Each thin node keeps its bitset; a node whose
    bitset reaches k bits becomes a header and its bits leave ``live``.
    Nodes visited earlier stay thin: removals only shrink downsets.  A node
    is still live when visited, since its block's header comes no earlier
    in the extension, so each in-edge counts once as an edge visit.  A
    bitset is dropped once every node covering it has been visited, which
    bounds the scratch by the thin nodes whose covers are still ahead.

    Bit positions map back through a table of the caller's own id objects
    (those of ``in_nbrs`` where a node has one), so blocks hold no new ints.
    """
    ids = [None] * len(in_nbrs)
    covers = [0] * len(in_nbrs)  # covers of each node still to be visited
    for x in visit_order:
        ids[x] = x
    for nb in in_nbrs:
        for w in nb:
            ids[w] = w
            covers[w] += 1
    live = (1 << len(in_nbrs)) - 1
    down = [0] * len(in_nbrs)
    blocks: list[list[int]] = []
    headers: list[int] = []
    for x in visit_order:
        s = 1 << x
        for c in in_nbrs[x]:
            s |= down[c]
            covers[c] -= 1
            if not covers[c]:
                down[c] = 0
        s &= live
        if s.bit_count() >= k:
            live ^= s
            blocks.append(_bit_ids(s, ids))
            headers.append(x)
        else:
            down[x] = s
    return blocks, headers, _bit_ids(live, ids), sum(map(len, in_nbrs))


def _extract_within(in_nbrs, members: list[int], k: int, position):
    """:func:`_extract_blocks` on the subgraph induced on ``members``
    (ascending ids), visited in the order of ``position``; the results are
    node ids again."""
    order = sorted(range(len(members)), key=lambda r: position[members[r]])
    blocks, headers, residual, visits = _extract_blocks(
        _induced(in_nbrs, members), order, k
    )
    ids = members.__getitem__
    return ([list(map(ids, b)) for b in blocks], list(map(ids, headers)),
            list(map(ids, residual)), visits)


@dataclass
class BlockDecomposition:
    """Partition of the lattice into principal blocks plus a residual.

    ``blocks[i]`` is sorted ascending; ``headers[i]`` is its top element and
    the minimal fat node that triggered the extraction.  ``block_of`` maps
    a node to its block index, with ``m`` (== len(blocks)) standing for the
    residual.  ``extension`` is the linear extension that drove the build
    and is reused by every structure derived from this decomposition.
    """

    k: int
    blocks: list[list[int]]
    headers: list[int]
    residual: list[int]
    block_of: list[int]
    extension: LinearExtension
    edge_visits: int = 0

    @property
    def m(self) -> int:
        return len(self.blocks)

    def is_residual(self, x: int) -> bool:
        return self.block_of[x] == self.m


def block_decompose(g: TRG, k: int) -> BlockDecomposition:
    """Block decomposition of g with block size k.

    Deterministic: nodes are visited in the canonical linear extension, so
    the first fat node found becomes the next header.  Cheap structural
    checks (partition, size floor, block count) run on every build and
    raise :class:`StructureError`; the costlier thinness and per-block
    lattice checks live in the order index build and
    :func:`verify_block_decomposition`.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"block size {k} outside [1, {g.n}]")
    ext = linear_extension(g)
    blocks, headers, residual, visits = _extract_blocks(g.in_neighbours, ext.order, k)
    block_of = [len(blocks)] * g.n
    total = len(residual)
    for i, blk in enumerate(blocks):
        total += len(blk)
        for x in blk:
            block_of[x] = i
    if total != g.n:
        raise StructureError("blocks and residual do not partition the node set")
    if any(len(blk) < k for blk in blocks):
        raise StructureError("principal block below size floor")
    if len(blocks) > g.n // k:
        raise StructureError("more than n/k principal blocks")
    return BlockDecomposition(
        k=k, blocks=blocks, headers=headers, residual=residual,
        block_of=block_of, extension=ext, edge_visits=visits,
    )


@dataclass
class SubblockEntry:
    """Second-level decomposition of one principal block (header excluded)."""

    block_index: int
    r: int
    subblocks: list[list[int]]
    subheaders: list[int]
    residual: list[int]
    edge_visits: int = 0

    @property
    def count(self) -> int:
        return len(self.subblocks)


def subblock_decompose(g: TRG, bd: BlockDecomposition, i: int) -> SubblockEntry:
    """Block-decompose block i minus its header, block size ceil(sqrt(|B_i|)).

    The block is interval-closed in the lattice, so the induced subgraph of
    the TRG is exactly the covering relation of the block's own order and
    the same extraction procedure applies unchanged.
    """
    if not 0 <= i < bd.m:
        raise ValueError(f"block index {i} is not principal")
    blk = bd.blocks[i]
    header = bd.headers[i]
    members = [x for x in blk if x != header]
    r = ceil_sqrt(len(blk))
    subblocks, subheaders, residual, visits = _extract_within(
        g.in_neighbours, members, r, bd.extension.position
    )
    if sum(map(len, subblocks)) + len(residual) != len(members):
        raise StructureError(f"subblocks of block {i} do not partition it")
    if any(len(s) < r for s in subblocks):
        raise StructureError(f"subblock of block {i} below size floor")
    return SubblockEntry(
        block_index=i, r=r, subblocks=subblocks, subheaders=subheaders,
        residual=residual, edge_visits=visits,
    )


def cover_decompose(g: TRG, members, header: int) -> list[tuple[int, list[int]]]:
    """Partition ``members`` minus its top ``header`` by the header's covered
    children, ascending id: each child takes whatever of its downset inside
    ``members`` is not claimed by an earlier child.

    ``members`` must be interval-closed with top ``header`` (true for blocks
    and chunks), which makes the restricted walk compute exactly the stated
    set difference.
    """
    universe = sorted(members)
    h = bisect_left(universe, header)
    if universe[h:h + 1] != [header]:
        raise ValueError(f"header {header} not in the member set")
    in_nbrs = _induced(g.in_neighbours, universe)
    mark = [0] * len(universe)
    mark[h] = 1  # the header and every claimed node stay closed
    chunks: list[tuple[int, list[int]]] = []
    for c in in_nbrs[h]:
        if mark[c]:
            raise StructureError("cover children must be pairwise incomparable")
        chunk, _ = _walk(in_nbrs, c, mark, 1)
        chunk.sort()
        chunks.append((universe[c], [universe[w] for w in chunk]))
    if not all(mark):
        raise StructureError("cover decomposition failed to partition the block")
    return chunks


@dataclass
class TreeNode:
    """One node of the decomposition tree.

    ``kind`` is "root", "block", "chunk", or "selfblock" (the block of a
    chunk's own header, which reuses the header element of its parent chunk
    node rather than introducing the element twice).  Leaves are chunk
    nodes carrying their full element list.
    """

    kind: str
    header: int | None
    size: int
    children: list["TreeNode"] = field(default_factory=list)
    leaf_elements: list[int] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf_elements is not None


@dataclass
class DecompositionTree:
    """Alternating block/cover recursion tree for degree-bounded join search.

    Built over a graph that surely has a top (a synthetic maximum is added
    when needed and translated back to "no answer" by queries).  ``d`` is
    the effective degree parameter, at least 2.
    """

    graph: TRG
    root: TreeNode
    d: int
    top: int
    virtual_top: bool
    n: int
    node_count: int = 0
    leaf_cells: int = 0
    depth: int = 0

    def verify(self) -> None:
        """Check the structural invariants, raising :class:`StructureError`;
        cheap, runs on every build."""
        d = self.d
        max_depth = 2 * ceil_log(self.n, d) + 2
        seen_chunk_headers: set[int] = set()
        seen_block_headers: set[int] = set()
        leaf_members: set[int] = set()

        def walk(node: TreeNode, depth: int, chunk_anc_size: int | None):
            if len(node.children) > d + 1:
                raise StructureError(
                    f"node degree {len(node.children)} exceeds {d + 1}")
            if node.kind != "root" and depth > max_depth:
                raise StructureError(f"depth {depth} exceeds bound {max_depth}")
            if node.kind == "chunk":
                if node.header in seen_chunk_headers:
                    raise StructureError(f"chunk header {node.header} repeats")
                seen_chunk_headers.add(node.header)
                # chunk sizes shrink by a factor d every two levels
                if chunk_anc_size is not None and node.size * d > chunk_anc_size:
                    raise StructureError(
                        f"chunk of size {node.size} under chunk of size "
                        f"{chunk_anc_size} (d={d})")
                chunk_anc_size = node.size
                if node.is_leaf:
                    if node.size >= 2 * d:
                        raise StructureError("leaf chunk too large")
                    if len(node.leaf_elements) != node.size:
                        raise StructureError("leaf list length differs from its size")
                    for x in node.leaf_elements:
                        if x in leaf_members:
                            raise StructureError("leaf lists overlap")
                        leaf_members.add(x)
            elif node.kind == "block":
                if node.header in seen_block_headers:
                    raise StructureError(f"block header {node.header} repeats")
                seen_block_headers.add(node.header)
            for child in node.children:
                walk(child, depth + 1, chunk_anc_size)

        walk(self.root, 0, None)


def build_decomposition_tree(g: TRG, d: int | None = None) -> DecompositionTree:
    """Recursive block/cover decomposition of g, degree parameter d.

    ``d`` defaults to the maximum number of covered elements over all nodes
    (after adding a top when g lacks one) and is floored at 2 so block size
    n/d and the depth bound log n / log d stay well defined.
    """
    g2, top, added = with_top(g)
    true_d = max((len(g2.in_neighbours[x]) for x in range(g2.n)), default=0)
    if d is None:
        d = true_d
    elif d < true_d:
        raise ValueError(f"degree parameter {d} below actual maximum degree {true_d}")
    d = max(d, 2)
    n = g2.n
    ext = linear_extension(g2)
    pos = ext.position
    state = {"nodes": 0, "leaf_cells": 0, "depth": 0}

    def new_node(kind, header, size, depth) -> TreeNode:
        state["nodes"] += 1
        if depth > state["depth"]:
            state["depth"] = depth
        return TreeNode(kind=kind, header=header, size=size)

    def expand_block(node: TreeNode, members: list[int], depth: int) -> None:
        # one chunk per element the header covers inside the block
        for c, chunk in cover_decompose(g2, members, node.header):
            child = new_node("chunk", c, len(chunk), depth + 1)
            node.children.append(child)
            expand_chunk(child, chunk, depth + 1)

    def expand_chunk(node: TreeNode, members: list[int], depth: int) -> None:
        if len(members) < 2 * d:
            node.leaf_elements = sorted(members)
            state["leaf_cells"] += len(members)
            return
        k = -(-len(members) // d)  # ceil(|chunk| / d)
        blocks, headers, residual, _ = _extract_within(g2.in_neighbours, members, k, pos)
        me = node.header
        if residual:
            if me not in residual:
                raise StructureError("chunk header must top the residual")
            self_members = residual
            principal = list(zip(headers, blocks))
        else:
            if not headers or headers[-1] != me:
                raise StructureError("chunk header must head the last block")
            self_members = blocks[-1]
            principal = list(zip(headers[:-1], blocks[:-1]))
        for h, blk in principal:
            child = new_node("block", h, len(blk), depth + 1)
            node.children.append(child)
            expand_block(child, blk, depth + 1)
        if len(self_members) >= 2:
            child = new_node("selfblock", me, len(self_members), depth + 1)
            node.children.append(child)
            expand_block(child, self_members, depth + 1)

    root = TreeNode(kind="root", header=None, size=n)
    all_nodes = list(range(n))
    if n < 2 * d:
        # whole lattice fits in a single leaf chunk under its top
        child = new_node("chunk", top, n, 1)
        child.leaf_elements = all_nodes
        state["leaf_cells"] += n
        root.children.append(child)
    else:
        k0 = -(-n // d)
        blocks, headers, residual, _ = _extract_blocks(g2.in_neighbours, ext.order, k0)
        for h, blk in zip(headers, blocks):
            child = new_node("block", h, len(blk), 1)
            root.children.append(child)
            expand_block(child, blk, 1)
        if residual:
            if top not in residual:
                raise StructureError("a topped lattice leaves its top in the residual")
            child = new_node("block", top, len(residual), 1)
            root.children.append(child)
            expand_block(child, residual, 1)

    tree = DecompositionTree(
        graph=g2, root=root, d=d, top=top, virtual_top=added, n=n,
        node_count=state["nodes"], leaf_cells=state["leaf_cells"],
        depth=state["depth"],
    )
    tree.verify()
    return tree


def verify_block_decomposition(g: TRG, bd: BlockDecomposition,
                               closure=None) -> None:
    """Check the full decomposition contract (partition, size floor, header
    on top, thinness, per-block lattice property), raising
    :class:`StructureError` at the first breach.

    Costs a closure build plus a pair scan per block, so it is meant for
    tests and one-off validation rather than the build path; the builders
    themselves check the cheap structural parts.
    """
    from .oracle import ClosureMatrix, sublattice_violation

    c = closure or ClosureMatrix(g)
    seen: set[int] = set()
    for i, blk in enumerate(bd.blocks):
        h = bd.headers[i]
        if len(blk) < bd.k:
            raise StructureError(f"block {i} below size floor {bd.k}")
        if h not in blk:
            raise StructureError(f"block {i} lacks its header {h}")
        members = set(blk)
        if members & seen:
            raise StructureError(f"block {i} overlaps an earlier block")
        seen |= members
        for x in blk:
            if not c.leq(x, h):
                raise StructureError(f"block {i} member {x} not under header {h}")
            if x != h and len(downset(g, x, restrict=members)) >= bd.k:
                raise StructureError(f"member {x} of block {i} is not thin")
        if sublattice_violation(c, blk) is not None:
            raise StructureError(f"block {i} is not a lattice")
    res = set(bd.residual)
    if res & seen:
        raise StructureError("residual overlaps a principal block")
    if seen | res != set(range(g.n)):
        raise StructureError("blocks and residual do not cover the node set")
    for x in bd.residual:
        if len(downset(g, x, restrict=res)) >= bd.k:
            raise StructureError(f"residual member {x} is not thin")
    if bd.residual and sublattice_violation(c, bd.residual) is not None:
        raise StructureError("the residual is not a lattice")


def dump_blocks(bd: BlockDecomposition,
                subs: list[SubblockEntry] | None = None,
                chunks: dict[int, list[tuple[int, list[int]]]] | None = None) -> str:
    """Debug dump: one line per block, subblock, and chunk, each listing its
    header and member ids.  ``chunks`` maps a block index to that block's
    cover decomposition."""
    lines = []
    for i, blk in enumerate(bd.blocks):
        lines.append(f"block {i} header {bd.headers[i]}: {' '.join(map(str, blk))}")
    lines.append(f"residual: {' '.join(map(str, bd.residual))}")
    if subs:
        for entry in subs:
            for j, sub in enumerate(entry.subblocks):
                lines.append(
                    f"block {entry.block_index} subblock {j} header "
                    f"{entry.subheaders[j]}: {' '.join(map(str, sub))}"
                )
            lines.append(
                f"block {entry.block_index} subresidual: "
                f"{' '.join(map(str, entry.residual))}"
            )
    if chunks:
        for i in sorted(chunks):
            for c, members in chunks[i]:
                lines.append(
                    f"block {i} chunk header {c}: {' '.join(map(str, members))}"
                )
    return "\n".join(lines) + "\n"
