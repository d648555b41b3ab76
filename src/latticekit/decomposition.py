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
smaller than 2d stop the recursion as leaves.  Nodes are plain tuples,
built bottom-up in one pass (:class:`DecompositionTree` gives the layout):
a tuple per node costs
no ``__dict__``, and it reads at list speed where a typed array would box
an int on every read.  The simple join index grows the same tree from its
order index's block decomposition with every chunk a leaf: one level of
blocks, one of chunks.

Every member list (block, residual, subblock, chunk, leaf) keeps the order
of the linear extension that drove the extraction: a header is its block's
last member, a rank inside any universe is a position in the extension,
and later stages visit a universe in its stored order, so none is stored.

Extraction sizes live downsets without walking them.  The extracted set E
stays down-closed: when header x is taken, its block is Down(x) minus E,
and any path from x to a live node below it is live (an extracted node on
the path would put the end node in E too).  So a node's live downset is
itself plus the union of its children's, minus E: one bitset per thin
node, OR-ed once along each in-edge, sizes every live downset
(:func:`_extract_blocks`).  One such pass with nothing removed gives every
downset inside a block, the residual or a residual subblock
(:func:`_downsets_within`).

Extraction inside a block or chunk, downset passes and cover
decompositions run on the induced subgraph (:func:`_induced`); the meet
rows inside blocks and subblocks filter covers to their part instead
(:func:`~latticekit.order_index._meet_cells`).  The one downward walk
left splits a block into chunks.  Structural invariants raise
:class:`~latticekit.trg.StructureError`, so they hold under ``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .metrics import ceil_log, ceil_sqrt
from .trg import TRG, StructureError, downset, linear_extension, with_top


def _induced(adj, universe: list[int]) -> list[list[int]]:
    """``adj`` restricted to the nodes of ``universe``, each renumbered to its
    rank in that list.  Neighbour lists keep the order of ``adj``'s."""
    rank = {x: r for r, x in enumerate(universe)}
    return [[rank[w] for w in adj[x] if w in rank] for x in universe]


def _downsets_within(in_nbrs, universe: list[int]) -> tuple[list[int], int]:
    """The downset inside ``universe`` of each of its members, in member
    order, as an ``int`` bitset over ranks in ``universe`` (bit r stands for
    ``universe[r]``), plus the edge visits: one pass in member order,
    ``down[r] = 1 << r | OR(down[c])`` over r's in-neighbours inside the
    universe, each visited once.  ``universe`` must be in linear-extension
    order, so every in-neighbour comes before the node it is under."""
    local = _induced(in_nbrs, universe)
    downs: list[int] = []
    for r, nb in enumerate(local):
        s = 1 << r
        for c in nb:
            s |= downs[c]
        downs.append(s)
    return downs, sum(map(len, local))


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bit_ids(s: int, ids: list) -> list:
    """``ids[i]`` for every set bit i of ``s``, ascending.  The bits from
    the lowest set one up become a 0/1 byte string that selects from ``ids``,
    so the cost follows the span of ``s``, not its highest bit.  A few bits
    (the residual scans of a meet query) are peeled off one by one instead,
    which costs less than building the byte string."""
    if s.bit_count() <= 10:
        out = []
        while s:
            low = s & -s
            out.append(ids[low.bit_length() - 1])
            s ^= low
        return out
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

    Bit p stands for the node visited p-th, so lists come out in visit
    order (a block ends with its header) and map back through a table of
    the id objects of ``in_nbrs`` where it has them: no new ints.
    """
    own = [None] * len(in_nbrs)
    covers = [0] * len(in_nbrs)  # covers of each node still to be visited
    for x in visit_order:
        own[x] = x
    for nb in in_nbrs:
        for w in nb:
            own[w] = w
            covers[w] += 1
    ids = [own[x] for x in visit_order]
    live = (1 << len(in_nbrs)) - 1
    down = [0] * len(in_nbrs)
    blocks: list[list[int]] = []
    headers: list[int] = []
    for p, x in enumerate(visit_order):
        s = 1 << p
        for c in in_nbrs[x]:
            s |= down[c]
            covers[c] -= 1
            if not covers[c]:
                down[c] = 0
        s &= live
        if s.bit_count() >= k:
            live ^= s
            blocks.append(_bit_ids(s, ids))
            headers.append(ids[p])
        else:
            down[x] = s
    return blocks, headers, _bit_ids(live, ids), sum(map(len, in_nbrs))


def _extract_within(in_nbrs, members: list[int], k: int):
    """:func:`_extract_blocks` on the subgraph induced on ``members`` (in
    linear-extension order), visited in their stored order; the results are
    node ids again, each list in that order."""
    blocks, headers, residual, visits = _extract_blocks(
        _induced(in_nbrs, members), range(len(members)), k
    )
    ids = members.__getitem__
    return ([list(map(ids, b)) for b in blocks], list(map(ids, headers)),
            list(map(ids, residual)), visits)


@dataclass
class BlockDecomposition:
    """Partition of the lattice into principal blocks plus a residual.

    ``blocks[i]`` and ``residual`` are in linear-extension order, so
    ``headers[i]``, the top element and the minimal fat node that triggered
    the extraction, is the block's last member.  ``block_of`` maps a node
    to its block index, and the null id n to ``m`` (== len(blocks)), which
    stands for the residual.
    """

    k: int
    blocks: list[list[int]]
    headers: list[int]
    residual: list[int]
    block_of: list[int]
    edge_visits: int = 0

    @property
    def m(self) -> int:
        return len(self.blocks)


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
    blocks, headers, residual, visits = _extract_blocks(
        g.in_neighbours, linear_extension(g).order, k)
    block_of = [len(blocks)] * (g.n + 1)
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
        block_of=block_of, edge_visits=visits,
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
    the same extraction procedure applies unchanged, visiting the members
    in their stored order.  A header not last raises :class:`StructureError`.
    """
    if not 0 <= i < bd.m:
        raise ValueError(f"block index {i} is not principal")
    blk = bd.blocks[i]
    if blk[-1] != bd.headers[i]:
        raise StructureError(f"block {i} does not end with its header")
    members = blk[:-1]
    r = ceil_sqrt(len(blk))
    subblocks, subheaders, residual, visits = _extract_within(
        g.in_neighbours, members, r
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
    ``members`` is not claimed by an earlier child.  Each chunk lists its
    members in their order in ``members`` (linear-extension order for
    blocks and chunks, so a chunk ends with its header).

    ``members`` must be interval-closed with top ``header`` (true for blocks
    and chunks), which makes a downward walk through unclaimed nodes
    compute exactly the stated set difference.
    """
    h = members.index(header)  # ValueError when the header is no member
    in_nbrs = _induced(g.in_neighbours, members)
    claimed = [False] * len(members)
    claimed[h] = True  # the header and every claimed node stay closed
    chunks: list[tuple[int, list[int]]] = []
    for c in in_nbrs[h]:
        if claimed[c]:
            raise StructureError("cover children must be pairwise incomparable")
        claimed[c] = True
        chunk = [c]
        for y in chunk:  # grows while read: a breadth-first walk
            for w in in_nbrs[y]:
                if not claimed[w]:
                    claimed[w] = True
                    chunk.append(w)
        chunk.sort()
        chunks.append((members[c], [members[w] for w in chunk]))
    if not all(claimed):
        raise StructureError("cover decomposition failed to partition the block")
    return chunks


@dataclass
class DecompositionTree:
    """Alternating block/cover recursion tree for degree-bounded join search.

    Nodes are plain 3-tuples, and a node's kind follows from where it sits:

    * the root is ``(None, children, None)``; a root child is a block
      unless it is a leaf;
    * a block node is ``(header, chunks, None)``, one chunk per element its
      header covers;
    * an inner chunk node is ``(header, blocks, self_block)``, where the self
      block is the block of the chunk's own header (a block node reusing
      that header), or None when the header is alone in it;
    * a leaf chunk is ``(header, None, elements)``, its elements in
      linear-extension order.

    Headers and leaf elements are the graph's own id objects.  Built over a
    graph that surely has a top (a synthetic maximum is added when needed
    and translated back to "no answer" by queries).  ``d`` is the effective
    degree parameter, at least 2 in the recursive tree (the simple join
    index's one-level tree keeps the unfloored degree).
    """

    graph: TRG
    root: tuple
    d: int
    top: int
    virtual_top: bool
    n: int
    node_count: int = 0
    leaf_cells: int = 0
    depth: int = 0

    def verify(self) -> None:
        """Check the structural invariants, raising :class:`StructureError`;
        cheap, runs on every build.  Sizes are recomputed bottom-up: a block
        holds its header and its chunks, a chunk its blocks and its self
        block (or its header alone when it has none)."""
        d = self.d
        max_depth = 2 * ceil_log(self.n, d) + 2
        chunk_headers: set[int] = set()
        block_headers: set[int] = set()
        leaf_members: set[int] = set()

        def enter(node, depth: int):
            header, kids, tail = node
            degree = 0 if kids is None else len(kids) + (tail is not None)
            if degree > d + 1:
                raise StructureError(f"node degree {degree} exceeds {d + 1}")
            if depth > max_depth:
                raise StructureError(f"depth {depth} exceeds bound {max_depth}")
            return header, kids, tail

        def block(node, depth: int, self_block: bool = False) -> tuple[int, list[int]]:
            """The block's size and the sizes of its chunks."""
            header, kids, _ = enter(node, depth)
            if not self_block:
                if header in block_headers:
                    raise StructureError(f"block header {header} repeats")
                block_headers.add(header)
            sizes = [chunk(c, depth + 1) for c in kids]
            return 1 + sum(sizes), sizes

        def chunk(node, depth: int) -> int:
            """The chunk's size."""
            header, kids, tail = enter(node, depth)
            if header in chunk_headers:
                raise StructureError(f"chunk header {header} repeats")
            chunk_headers.add(header)
            if kids is None:
                if len(tail) >= 2 * d:
                    raise StructureError("leaf chunk too large")
                held = len(leaf_members)
                leaf_members.update(tail)
                if len(leaf_members) != held + len(tail):
                    raise StructureError("leaf lists overlap")
                return len(tail)
            parts = [block(b, depth + 1) for b in kids]
            parts.append((1, []) if tail is None else block(tail, depth + 1, True))
            size = sum(s for s, _ in parts)
            # chunk sizes shrink by a factor d every two levels
            below = max((s for _, sizes in parts for s in sizes), default=0)
            if below * d > size:
                raise StructureError(
                    f"chunk of size {below} under chunk of size {size} (d={d})")
            return size

        for child in enter(self.root, 0)[1]:
            if child[1] is None:
                chunk(child, 1)
            else:
                block(child, 1)


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
    order = linear_extension(g2).order
    if n < 2 * d:
        # whole lattice fits in a single leaf chunk under its top
        parts = [("chunk", top, order)]
    else:
        blocks, headers, residual, _ = _extract_blocks(
            g2.in_neighbours, order, -(-n // d))
        parts = _root_blocks(headers, blocks, residual, top)
    tree = _grow_tree(g2, top, added, d, parts, 2 * d)
    tree.verify()
    return tree


def _root_blocks(headers, blocks, residual, top: int) -> list[tuple[str, int, list]]:
    """Root parts of a tree over one block decomposition of a topped
    lattice: a block node per principal block in extraction order, then
    the residual, whose top is the lattice's."""
    parts = [("block", h, blk) for h, blk in zip(headers, blocks)]
    if residual:
        if top not in residual:
            raise StructureError("a topped lattice leaves its top in the residual")
        parts.append(("block", top, residual))
    return parts


def _grow_tree(g2: TRG, top: int, added: bool, d: int, parts,
               leaf_size: int) -> DecompositionTree:
    """The decomposition tree whose root children are ``parts``, each a
    (kind, header, members) triple, built bottom-up as the tuples
    :class:`DecompositionTree` describes.

    A block node gets one chunk child per element its header covers
    (:func:`cover_decompose`).  A chunk smaller than ``leaf_size`` is a
    leaf, its members in their linear-extension order; a larger one is
    block-decomposed with block size |chunk|/d, visiting them in it.
    """
    nodes = leaf_cells = deepest = 0

    def reached(depth: int) -> None:
        nonlocal nodes, deepest
        nodes += 1
        if depth > deepest:
            deepest = depth

    def block(h: int, members: list[int], depth: int) -> tuple:
        reached(depth)
        return (h, tuple(chunk(c, m, depth + 1)
                         for c, m in cover_decompose(g2, members, h)), None)

    def chunk(me: int, members: list[int], depth: int) -> tuple:
        nonlocal leaf_cells
        reached(depth)
        if len(members) < leaf_size:
            leaf_cells += len(members)
            return (me, None, tuple(members))
        k = -(-len(members) // d)  # ceil(|chunk| / d)
        blocks, headers, residual, _ = _extract_within(g2.in_neighbours, members, k)
        if residual:
            if me not in residual:
                raise StructureError("chunk header must top the residual")
            self_members = residual
        else:
            if not headers or headers[-1] != me:
                raise StructureError("chunk header must head the last block")
            headers.pop()
            self_members = blocks.pop()
        kids = tuple(block(h, blk, depth + 1) for h, blk in zip(headers, blocks))
        if len(self_members) < 2:
            return (me, kids, None)
        return (me, kids, block(me, self_members, depth + 1))

    root = (None, tuple((chunk if kind == "chunk" else block)(h, members, 1)
                        for kind, h, members in parts), None)
    return DecompositionTree(
        graph=g2, root=root, d=d, top=top, virtual_top=added, n=g2.n,
        node_count=nodes, leaf_cells=leaf_cells, depth=deepest,
    )


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
