"""Brute-force reference semantics: reachability, meet, join, lattice check.

Everything here is ground truth for the indexed structures.  Correctness
beats speed, but the closure is kept as per-node bitmasks (one bit per
topological rank) so that exhaustive pair sweeps stay affordable at a few
thousand elements.  Pure functions over immutable inputs throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trg import TRG, linear_extension


class NotALatticeError(ValueError):
    """A meet/join query found two maximal/minimal bounds; carries the witnesses."""

    def __init__(self, kind: str, x: int, y: int, w1: int, w2: int):
        super().__init__(
            f"not a lattice: {kind}({x}, {y}) has competing bounds {w1} and {w2}"
        )
        self.kind = kind
        self.x = x
        self.y = y
        self.witnesses = (w1, w2)


@dataclass(frozen=True)
class LatticeViolation:
    """Four elements x1, x2 < y1, y2 with nothing between them.

    Such a configuration cannot occur in a partial lattice: it means the
    pair (x1, x2) has two minimal common upper bounds y1 and y2 (and,
    symmetrically, (y1, y2) has two maximal common lower bounds).
    """

    x1: int
    x2: int
    y1: int
    y2: int

    def __str__(self) -> str:
        return (
            f"lattice property violated: {{{self.x1}, {self.x2}}} < "
            f"{{{self.y1}, {self.y2}}} with no element between"
        )


class ClosureMatrix:
    """Reflexive-transitive closure of a TRG as rank-indexed bitmask rows.

    ``leq(x, y)`` is true iff there is a directed path x -> ... -> y or
    x == y.  Bit r of a mask refers to the node in topological position r,
    which makes "latest element of a down-closed set" a single bit_length
    call; that element is always maximal within the set.
    """

    def __init__(self, g: TRG):
        ext = linear_extension(g)
        n = g.n
        self.n = n
        self.order = ext.order
        self.position = ext.position
        pos = ext.position
        down = [0] * n
        for x in ext.order:
            mask = 1 << pos[x]
            for w in g.in_neighbours[x]:
                mask |= down[w]
            down[x] = mask
        up = [0] * n
        for x in reversed(ext.order):
            mask = 1 << pos[x]
            for w in g.out_neighbours[x]:
                mask |= up[w]
            up[x] = mask
        self.down_masks = down
        self.up_masks = up

    def leq(self, x: int, y: int) -> bool:
        return (self.down_masks[y] >> self.position[x]) & 1 == 1

    def downset_size(self, x: int) -> int:
        return self.down_masks[x].bit_count()

    def nodes_of(self, mask: int) -> list[int]:
        """Decode a rank mask into node ids, ascending by id."""
        order = self.order
        out = []
        while mask:
            low = mask & -mask
            out.append(order[low.bit_length() - 1])
            mask ^= low
        out.sort()
        return out


def transitive_closure(g: TRG) -> ClosureMatrix:
    """Reference order relation of g (leq[x][y] iff x <= y)."""
    return ClosureMatrix(g)


def oracle_meet(c: ClosureMatrix, x: int, y: int) -> int | None:
    """Greatest lower bound of x and y, or None when they have no common
    lower bound.  Raises :class:`NotALatticeError` if two maximal common
    lower bounds exist."""
    s = c.down_masks[x] & c.down_masks[y]
    if not s:
        return None
    z = c.order[s.bit_length() - 1]  # topologically last, hence maximal in s
    rest = s & ~c.down_masks[z]
    if rest:
        w = c.order[rest.bit_length() - 1]
        raise NotALatticeError("meet", x, y, z, w)
    return z


def oracle_join(c: ClosureMatrix, x: int, y: int) -> int | None:
    """Least upper bound of x and y; dual of :func:`oracle_meet`."""
    s = c.up_masks[x] & c.up_masks[y]
    if not s:
        return None
    z = c.order[(s & -s).bit_length() - 1]  # topologically first, hence minimal
    rest = s & ~c.up_masks[z]
    if rest:
        w = c.order[(rest & -rest).bit_length() - 1]
        raise NotALatticeError("join", x, y, z, w)
    return z


def is_partial_lattice(g: TRG, closure: ClosureMatrix | None = None) -> LatticeViolation | None:
    """Return None when g is a partial lattice, else the violation witness.

    Every pair of elements must have at most one maximal common lower bound
    and at most one minimal common upper bound.  The reported witness is the
    lexicographically smallest violating quadruple (x1, x2, y1, y2), found
    by scanning pairs (x1 < x2) for two minimal common upper bounds and then
    minimising (y1, y2) for the first bad pair.
    """
    c = closure or ClosureMatrix(g)
    n = c.n
    up = c.up_masks
    down = c.down_masks
    order = c.order
    for a in range(n):
        up_a = up[a]
        for b in range(a + 1, n):
            s = up_a & up[b]
            if not s:
                continue
            z = order[(s & -s).bit_length() - 1]
            if s & ~up[z]:
                return _smallest_upper_witness(c, a, b, s)
    return None


def _smallest_upper_witness(c: ClosureMatrix, a: int, b: int, s: int) -> LatticeViolation:
    """Minimise (y1, y2) over common upper bounds of (a, b) with no common
    upper bound below both; (a, b) is known to admit such a pair."""
    down = c.down_masks
    candidates = c.nodes_of(s)
    for i, y1 in enumerate(candidates):
        d1 = down[y1]
        for y2 in candidates[i + 1:]:
            if not (d1 & down[y2] & s):
                return LatticeViolation(a, b, y1, y2)
    raise AssertionError("violation vanished during witness search")

