"""Reference walks and validators that the tests hold the package to.

The package sizes live downsets with bitsets and claims cover chunks from
them; the references here walk every live downset and every chunk, which
is the definition.  The validators check a decomposition's whole contract
against the bitmask closure, at a cost no build pays.
"""

import latticekit as lk
from latticekit.metrics import ceil_sqrt


def induced(g, members):
    """The in-lists of the subgraph of g induced on ``members``, by rank."""
    rank = {x: r for r, x in enumerate(members)}
    return [[rank[w] for w in g.in_neighbours[x] if w in rank] for x in members]


def walk_extract(in_nbrs, visit_order, k, ids=None):
    """Reference extraction: walk each live node's live downset; a walk of
    at least k nodes makes the node a header and removes its downset.
    ``ids`` names the nodes in visit order, as the package's does."""
    gone = set()
    blocks, headers = [], []
    for x in visit_order:
        if x in gone:
            continue
        seen = {x}
        stack = [x]
        while stack:
            for w in in_nbrs[stack.pop()]:
                if w not in seen and w not in gone:
                    seen.add(w)
                    stack.append(w)
        if len(seen) >= k:
            gone |= seen
            blocks.append([w for w in visit_order if w in seen])
            headers.append(x)
    residual = [x for x in visit_order if x not in gone]
    if ids is not None:
        name = dict(zip(visit_order, ids)).__getitem__
        blocks = [list(map(name, b)) for b in blocks]
        headers, residual = list(map(name, headers)), list(map(name, residual))
    return blocks, headers, residual, 0


def reference_subblocks(g, blk):
    """The subblocks, subheaders and residual of block ``blk`` (ending with
    its header) by :func:`walk_extract` on the subgraph induced on the
    other members, block size ceil(sqrt |blk|)."""
    members = blk[:-1]
    blocks, headers, residual, _ = walk_extract(
        induced(g, members), range(len(members)), ceil_sqrt(len(blk)), members)
    return blocks, headers, residual


def cover_decompose(g, members, header):
    """Partition ``members`` minus its top ``header`` by the header's covered
    children, ascending id: each child takes whatever of its downset inside
    ``members`` is not claimed by an earlier child.  Each chunk lists its
    members in their order in ``members``, which may be any order
    (linear-extension order for blocks and chunks, so a chunk ends with its
    header).

    ``members`` must be interval-closed with top ``header`` (true for blocks
    and chunks), which makes a downward walk through unclaimed nodes
    compute exactly the stated set difference.  The builds claim the same
    chunks from bitsets; a child below an earlier one, or members the
    chunks do not partition, raise :class:`~latticekit.StructureError`.
    """
    h = members.index(header)  # ValueError when the header is no member
    in_nbrs = induced(g, members)
    claimed = [False] * len(members)
    claimed[h] = True  # the header and every claimed node stay closed
    chunks = []
    for c in in_nbrs[h]:
        if claimed[c]:
            raise lk.StructureError("cover children must be pairwise incomparable")
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
        raise lk.StructureError("cover decomposition failed to partition the block")
    return chunks


def reference_tree(g, simple=False):
    """The root of g's decomposition tree by the recursion it stands for:
    blocks by :func:`walk_extract`, each split into chunks by
    :func:`cover_decompose`, each chunk of at least 2d members
    block-decomposed again on its induced subgraph with block size
    |chunk|/d.  ``simple`` gives the simple join index's one-level tree:
    block size ceil(sqrt n), every chunk a leaf."""
    g2, top, _ = lk.with_top(g)
    n = g2.n
    d = max(2, max(map(len, g2.in_neighbours)))
    leaf_size = n + 1 if simple else 2 * d

    def block(h, members):
        return (h, tuple(chunk(c, m) for c, m in cover_decompose(g2, members, h)),
                None)

    def chunk(me, members):
        if len(members) < leaf_size:
            return (me, None, tuple(members))
        blocks, headers, residual, _ = walk_extract(
            induced(g2, members), range(len(members)), -(-len(members) // d), members)
        if residual:
            if me not in residual:
                raise lk.StructureError("chunk header must top the residual")
            own = residual
        else:
            if headers[-1] != me:
                raise lk.StructureError("chunk header must head the last block")
            headers.pop()
            own = blocks.pop()
        kids = tuple(block(h, b) for h, b in zip(headers, blocks))
        return (me, kids, block(me, own) if len(own) > 1 else None)

    order = lk.linear_extension(g2).order
    if not simple and n < 2 * d:
        return (None, (chunk(top, order),), None)
    blocks, headers, residual, _ = walk_extract(
        g2.in_neighbours, order, ceil_sqrt(n) if simple else -(-n // d))
    if residual:
        if top not in residual:
            raise lk.StructureError("a topped lattice leaves its top in the residual")
        blocks.append(residual)
        headers.append(top)
    return (None, tuple(block(h, b) for h, b in zip(headers, blocks)), None)


def sublattice_violation(c, members):
    """Lattice-property check for the sub-poset induced on ``members``, over
    the closure ``c``.

    Bounds are taken within the member set only.  Returns some violating
    quadruple (x1, x2, y1, y2) or None; the search order is deterministic
    but no lexicographic minimality is promised.
    """
    mask = 0
    for x in members:
        mask |= 1 << c.position[x]
    ids = sorted(members)
    up = c.up_masks
    down = c.down_masks
    order = c.order
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            for masks, pick_end in ((up, False), (down, True)):
                s = masks[a] & masks[b] & mask
                if not s:
                    continue
                if pick_end:
                    z = order[s.bit_length() - 1]
                else:
                    z = order[(s & -s).bit_length() - 1]
                rest = s & ~masks[z]
                if rest:
                    if pick_end:
                        w = order[rest.bit_length() - 1]
                    else:
                        w = order[(rest & -rest).bit_length() - 1]
                    if pick_end:
                        return (z, w, a, b)
                    return (a, b, z, w)
    return None


def verify_block_decomposition(g, bd, closure=None):
    """Check the full decomposition contract (partition, size floor, header
    on top, thinness, per-block lattice property), raising
    :class:`~latticekit.StructureError` at the first breach.  Costs a
    closure build plus a pair scan per block."""
    c = closure or lk.transitive_closure(g)
    seen = set()
    for i, blk in enumerate(bd.blocks):
        h = bd.headers[i]
        if len(blk) < bd.k:
            raise lk.StructureError(f"block {i} below size floor {bd.k}")
        if h not in blk:
            raise lk.StructureError(f"block {i} lacks its header {h}")
        members = set(blk)
        if members & seen:
            raise lk.StructureError(f"block {i} overlaps an earlier block")
        seen |= members
        for x in blk:
            if not c.leq(x, h):
                raise lk.StructureError(f"block {i} member {x} not under header {h}")
            if x != h and len(lk.downset(g, x, restrict=members)) >= bd.k:
                raise lk.StructureError(f"member {x} of block {i} is not thin")
        if sublattice_violation(c, blk) is not None:
            raise lk.StructureError(f"block {i} is not a lattice")
    res = set(bd.residual)
    if res & seen:
        raise lk.StructureError("residual overlaps a principal block")
    if seen | res != set(range(g.n)):
        raise lk.StructureError("blocks and residual do not cover the node set")
    for x in bd.residual:
        if len(lk.downset(g, x, restrict=res)) >= bd.k:
            raise lk.StructureError(f"residual member {x} is not thin")
    if bd.residual and sublattice_violation(c, bd.residual) is not None:
        raise lk.StructureError("the residual is not a lattice")


def dump_blocks(bd, subs=None, chunks=None):
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
