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
(:func:`_extract_blocks`).  One such pass with nothing removed gives the
downsets inside the blocks and the residual (:func:`_downsets`), and
subblocks are read off them by masking with the ranks not yet extracted
(:func:`_subblocks`).  What is left, the residual subblock, is up-closed
in its block, so the same masking gives its members' downsets in it.

The same bitsets split a block into chunks, so no build walks downward.
When header x is taken, each element c it covers inside its block s still
holds its bitset, a superset of Down(c) inside s, and the chunk of c is
that bitset masked with s, minus the chunks of the earlier covers
(:func:`_claim`): everything below an earlier chunk's members is in it,
so this is exactly what a walk down from c through unclaimed nodes
returns, the reference the tests hold the claims to.  Decomposition
trees claim every block's chunks, the residual's under its top, from the
one extraction loop that finds the blocks; the simple join index claims
its chunks from its order index's local downsets.

No build copies an induced subgraph: downset passes and trees read
in-lists off the graph through two node-indexed lists, a tag and a rank,
and the meet rows inside blocks and subblocks filter covers to their part
(:func:`~latticekit.order_index._meet_cells`).  Structural invariants
raise :class:`~latticekit.trg.StructureError`, so they hold under
``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .metrics import ceil_log, ceil_sqrt
from .trg import TRG, StructureError, linear_extension, with_top


def _downsets(in_nbrs, parts: list[list[int]]) -> tuple[list[int], list[int], int]:
    """Node-indexed ``down`` and ``rank`` lists (0 outside the parts) and
    the edge visits: ``down[x]`` is x's downset inside its part, an ``int``
    bitset whose bit r stands for the part's r-th member.  ``parts`` are
    disjoint and each in linear-extension order; each takes one pass,
    ``down[x] = 1 << rank[x] | OR(down[c])`` over x's in-neighbours c
    tagged with its part, each visited once."""
    tag = [-1] * len(in_nbrs)
    rank = [0] * len(in_nbrs)
    for p, xs in enumerate(parts):
        for r, x in enumerate(xs):
            tag[x] = p
            rank[x] = r
    down = [0] * len(in_nbrs)
    visits = 0
    for p, xs in enumerate(parts):
        for x in xs:
            s = 1 << rank[x]
            for c in in_nbrs[x]:
                if tag[c] == p:
                    s |= down[c]
                    visits += 1
            down[x] = s
    return down, rank, visits


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bit_ids(s: int, ids: list) -> list:
    """``ids[i]`` for every set bit i of ``s``, ascending.  The bits from
    the lowest set one up become a 0/1 byte string that selects from ``ids``,
    so the cost follows the span of ``s``, not its highest bit; a few bits
    are peeled off one by one, which costs less."""
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


def _extract_blocks(in_nbrs, visit_order, k, ids=None, claim=False):
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
    order (a block ends with its header) and map back through ``ids``, the
    id objects of the nodes in visit order; by default a table of the id
    objects of ``in_nbrs`` where it has them: no new ints.

    With ``claim``, each block comes as its header's chunks (:func:`_claim`)
    instead of its members, and the last node visited takes whatever is
    left as its block, the residual when it is thin, so the residual comes
    back empty; that node must be above all of it.
    """
    covers = [0] * len(in_nbrs)  # covers of each node still to be visited
    if ids is None:
        own = [None] * len(in_nbrs)
        for x in visit_order:
            own[x] = x
        for nb in in_nbrs:
            for w in nb:
                own[w] = w
                covers[w] += 1
        ids = [own[x] for x in visit_order]
    else:
        for nb in in_nbrs:
            for w in nb:
                covers[w] += 1
    live = (1 << len(in_nbrs)) - 1
    down = [0] * len(in_nbrs)
    blocks: list[list] = []
    headers: list[int] = []
    last = len(visit_order) - 1 if claim else -1
    for p, x in enumerate(visit_order):
        nb = in_nbrs[x]
        s = 1 << p
        for c in nb:
            s |= down[c]
        s &= live
        if s.bit_count() >= k or p == last:
            if p == last and s != live:
                raise StructureError("the last node visited must top the residual")
            live ^= s
            blocks.append(_claim(s, p, [down[c] & s for c in nb], ids) if claim
                          else _bit_ids(s, ids))
            headers.append(ids[p])
        else:
            down[x] = s
        # after the block test, so a claim still reads the covers' bitsets
        for c in nb:
            covers[c] -= 1
            if not covers[c]:
                down[c] = 0
    return blocks, headers, _bit_ids(live, ids), sum(map(len, in_nbrs))


def _claim(s: int, h: int, downs, ids: list) -> list[tuple[int, list]]:
    """The cover decomposition of the block ``s``, a bitset whose bit ``h``
    is its header, from ``downs``, the downsets inside ``s`` of the
    header's covered children in ascending id order, each with the child
    itself as its highest bit, or 0 for a child outside ``s``.  Each child
    takes its downset minus the earlier chunks, which is what a walk down
    through unclaimed nodes takes, since the earlier chunks hold
    everything below them; each chunk maps back through ``ids`` in bit
    order.  A child inside an earlier chunk, or a block the chunks and the
    header do not partition, raises :class:`StructureError`.  ``claimed``
    leaves out the header, so each step costs the width of the child's
    downset."""
    claimed = 0
    chunks = []
    for d in downs:
        if d:
            top = d.bit_length() - 1  # the child's own bit
            chunk = d ^ (d & claimed)
            if chunk >> top != 1:
                raise StructureError("cover children must be pairwise incomparable")
            claimed |= chunk
            # a lone child, common in a wide block, skips the bit scan
            chunks.append((ids[top], _bit_ids(chunk, ids) if chunk & (chunk - 1)
                           else [ids[top]]))
    if claimed | 1 << h != s:
        raise StructureError("cover decomposition failed to partition the block")
    return chunks


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
    raise :class:`StructureError`; the costlier thinness check lives in
    the order index build.
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
    residual_mask: int  # the residual's ranks in the block

    @property
    def count(self) -> int:
        return len(self.subblocks)


def subblock_decompose(g: TRG, bd: BlockDecomposition, i: int) -> SubblockEntry:
    """Block-decompose block i minus its header, block size ceil(sqrt(|B_i|)).

    The block is interval-closed in the lattice, so the induced subgraph of
    the TRG is exactly the covering relation of the block's own order and
    the same extraction applies unchanged, visiting the members in their
    stored order: :func:`_subblocks` on one :func:`_downsets` pass over the
    block.  A header not last raises :class:`StructureError`.
    """
    if not 0 <= i < bd.m:
        raise ValueError(f"block index {i} is not principal")
    blk = bd.blocks[i]
    down, _, _ = _downsets(g.in_neighbours, [blk])
    return _subblocks(i, blk, bd.headers[i], down)


def _subblocks(i: int, blk: list[int], header: int, down) -> SubblockEntry:
    """The subblocks of block i, ``blk``, from ``down``, each member's
    downset inside the block (node-indexed, over ranks in ``blk``).  The
    extracted set stays down-closed, so a live downset is a downset masked
    with ``live``, the ranks not yet extracted; a member whose live downset
    reaches r bits heads the next subblock.  No edge is visited."""
    if blk[-1] != header:
        raise StructureError(f"block {i} does not end with its header")
    r = ceil_sqrt(len(blk))
    live = (1 << len(blk) - 1) - 1  # every rank but the header's
    subblocks: list[list[int]] = []
    subheaders: list[int] = []
    for x in blk[:-1]:
        s = down[x] & live
        if s.bit_count() >= r:
            subblocks.append(_bit_ids(s, blk))
            subheaders.append(x)
            live ^= s
    residual = _bit_ids(live, blk)
    if sum(map(len, subblocks)) + len(residual) != len(blk) - 1:
        raise StructureError(f"subblocks of block {i} do not partition it")
    return SubblockEntry(block_index=i, r=r, subblocks=subblocks,
                         subheaders=subheaders, residual=residual,
                         residual_mask=live)


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
        blocks, headers, _, _ = _extract_blocks(
            g2.in_neighbours, order, -(-n // d), claim=True)
        parts = [("block", h, chunks) for h, chunks in zip(headers, blocks)]
    tree = _grow_tree(g2, top, added, d, parts, 2 * d)
    tree.verify()
    return tree


def _grow_tree(g2: TRG, top: int, added: bool, d: int, parts,
               leaf_size: int) -> DecompositionTree:
    """The decomposition tree whose root children are ``parts``, each a
    block ``("block", header, chunks)`` with its chunks as :func:`_claim`
    gives them, or a chunk ``("chunk", header, members)``, built bottom-up
    as the tuples :class:`DecompositionTree` describes.

    A chunk smaller than ``leaf_size`` is a leaf, its members in their
    linear-extension order.  A larger one is block-decomposed with block
    size |chunk|/d, visiting them in it, by :func:`_extract_blocks` with
    ``claim``: every block comes with its chunks, and the last one, headed
    by the chunk's own header, is the self block.  No cover walk runs.
    The extraction's in-lists are the chunk's, read off the graph's
    through two node-indexed lists: ``tag``, the last chunk split that
    held the node, and ``rank``, the node's rank in it.
    """
    in_nbrs = g2.in_neighbours
    size = g2.n if leaf_size <= g2.n else 0  # no chunk is split otherwise
    tag = [0] * size
    rank = [0] * size
    splits = 0
    nodes = leaf_cells = deepest = 0

    def reached(depth: int) -> None:
        nonlocal nodes, deepest
        nodes += 1
        if depth > deepest:
            deepest = depth

    def block(h: int, chunks: list[tuple[int, list[int]]], depth: int) -> tuple:
        reached(depth)
        return (h, tuple(chunk(c, m, depth + 1) for c, m in chunks), None)

    def chunk(me: int, members: list[int], depth: int) -> tuple:
        nonlocal leaf_cells, splits
        reached(depth)
        if len(members) < leaf_size:
            leaf_cells += len(members)
            return (me, None, tuple(members))
        splits += 1
        t = splits
        for r, x in enumerate(members):
            tag[x] = t
            rank[x] = r
        blocks, headers, _, _ = _extract_blocks(
            [[rank[w] for w in in_nbrs[x] if tag[w] == t] for x in members],
            range(len(members)), -(-len(members) // d), members, claim=True)
        kids = tuple(block(h, cs, depth + 1) for h, cs in zip(headers[:-1], blocks))
        if not blocks[-1]:  # the chunk's header is alone in its block
            return (me, kids, None)
        return (me, kids, block(me, blocks[-1], depth + 1))

    root = (None, tuple((chunk if kind == "chunk" else block)(h, members, 1)
                        for kind, h, members in parts), None)
    return DecompositionTree(
        graph=g2, root=root, d=d, top=top, virtual_top=added, n=g2.n,
        node_count=nodes, leaf_cells=leaf_cells, depth=deepest,
    )
