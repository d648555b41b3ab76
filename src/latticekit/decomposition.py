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

Every downward walk of the builds is :func:`_walk`; work inside a block,
subblock or chunk runs on its induced subgraph (:func:`_induced`), so no
walk tests membership.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .metrics import ceil_log, ceil_sqrt
from .trg import TRG, LinearExtension, downset, linear_extension, with_top


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


def _extract_blocks(in_nbrs, visit_order, k):
    """Greedy fat-node extraction over ``visit_order``, a linear extension of
    all of ``in_nbrs``.  Returns (blocks, headers, residual, edge_visits).

    Each node's live downset is sized by a walk that extracted nodes close;
    reaching k makes the node a header and removes its downset.  Nodes
    visited earlier stay thin: removals only shrink downsets.
    """
    gone = len(visit_order) + 1  # above every token: extracted for good
    mark = [0] * len(in_nbrs)
    blocks: list[list[int]] = []
    headers: list[int] = []
    edge_visits = 0
    for token, x in enumerate(visit_order, 1):
        if mark[x] == gone:
            continue
        comp, v = _walk(in_nbrs, x, mark, token)
        edge_visits += v
        if len(comp) >= k:
            for w in comp:
                mark[w] = gone
            comp.sort()
            blocks.append(comp)
            headers.append(x)
    residual = [x for x in range(len(in_nbrs)) if mark[x] != gone]
    return blocks, headers, residual, edge_visits


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
    assertions (partition, size floor, block count) run on every build;
    the costlier thinness and per-block lattice checks live in the order
    index build and the test suite.
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
    assert total == g.n, "blocks and residual do not partition the node set"
    assert all(len(blk) >= k for blk in blocks), "principal block below size floor"
    assert len(blocks) <= g.n // k, "more than n/k principal blocks"
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
    assert sum(map(len, subblocks)) + len(residual) == len(members)
    assert all(len(s) >= r for s in subblocks)
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
        assert mark[c] == 0, "cover children must be pairwise incomparable"
        chunk, _ = _walk(in_nbrs, c, mark, 1)
        chunk.sort()
        chunks.append((universe[c], [universe[w] for w in chunk]))
    assert all(mark), "cover decomposition failed to partition the block"
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
        """Assert the structural invariants; cheap, runs on every build."""
        d = self.d
        max_depth = 2 * ceil_log(self.n, d) + 2
        seen_chunk_headers: set[int] = set()
        seen_block_headers: set[int] = set()
        leaf_members: set[int] = set()

        def walk(node: TreeNode, depth: int, chunk_anc_size: int | None):
            assert len(node.children) <= d + 1, (
                f"node degree {len(node.children)} exceeds {d + 1}"
            )
            if node.kind != "root":
                assert depth <= max_depth, f"depth {depth} exceeds bound {max_depth}"
            if node.kind == "chunk":
                assert node.header not in seen_chunk_headers
                seen_chunk_headers.add(node.header)
                if chunk_anc_size is not None:
                    # chunk sizes shrink by a factor d every two levels
                    assert node.size * d <= chunk_anc_size, (
                        f"chunk of size {node.size} under chunk of size "
                        f"{chunk_anc_size} (d={d})"
                    )
                chunk_anc_size = node.size
                if node.is_leaf:
                    assert node.size < 2 * d, "leaf chunk too large"
                    assert len(node.leaf_elements) == node.size
                    for x in node.leaf_elements:
                        assert x not in leaf_members, "leaf lists overlap"
                        leaf_members.add(x)
            elif node.kind == "block":
                assert node.header not in seen_block_headers
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
            assert me in residual, "chunk header must top the residual"
            self_members = residual
            principal = list(zip(headers, blocks))
        else:
            assert headers and headers[-1] == me, "chunk header must head the last block"
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
            assert top in residual, "a topped lattice leaves its top in the residual"
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
    """Assert the full decomposition contract (partition, size floor, header
    on top, thinness, per-block lattice property).

    Costs a closure build plus a pair scan per block, so it is meant for
    tests and one-off validation rather than the build path; the builders
    themselves assert the cheap structural parts.
    """
    from .oracle import ClosureMatrix, sublattice_violation

    c = closure or ClosureMatrix(g)
    seen: set[int] = set()
    for i, blk in enumerate(bd.blocks):
        h = bd.headers[i]
        assert len(blk) >= bd.k
        assert h in blk
        members = set(blk)
        assert not members & seen
        seen |= members
        for x in blk:
            assert c.leq(x, h), f"block {i} member {x} not under header {h}"
            if x != h:
                local = downset(g, x, restrict=members)
                assert len(local) < bd.k, f"member {x} of block {i} is not thin"
        assert sublattice_violation(c, blk) is None, f"block {i} is not a lattice"
    res = set(bd.residual)
    assert not res & seen
    assert seen | res == set(range(g.n))
    for x in bd.residual:
        assert len(downset(g, x, restrict=res)) < bd.k
    if bd.residual:
        assert sublattice_violation(c, bd.residual) is None


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
