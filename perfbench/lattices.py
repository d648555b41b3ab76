"""Benchmark inputs: lattices generated in set form, with closed-form answers.

Every lattice here is a family of sets (or of numbers or points) whose
order, meet and join have closed forms: inclusion, intersection and union
for downset and subset masks, divisibility, gcd and lcm for divisors,
coordinatewise <=, min and max for grid points, and, for a cut completion
(an intersection-closed family), inclusion, intersection and the closure
of the union.  The package under test only ever sees the TRG text these
families produce, so its generators cannot change what is measured, and
its oracle is never the reference.

Node ids are assigned by rank (set size, number of prime factors, or
coordinate sum), ties broken by a seeded shuffle, so that the same seed
always gives byte-identical text and different seeds give different ids
even for the deterministic families.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class SetLattice:
    """A finite lattice in set form; node ``i`` stands for ``elems[i]``."""

    name: str
    elems: list
    edges: list[tuple[int, int]]
    leq: Callable       # closed-form order on set forms
    meet: Callable      # closed-form meet on set forms
    join: Callable      # closed-form join on set forms
    index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {e: i for i, e in enumerate(self.elems)}

    @property
    def n(self) -> int:
        return len(self.elems)

    def text(self) -> str:
        """The ``lattice v1`` TRG text handed to the package."""
        lines = ["lattice v1", f"{self.n} {len(self.edges)}"]
        lines += [f"{u} {v}" for u, v in self.edges]
        return "\n".join(lines) + "\n"

    def ref_leq(self, x: int, y: int) -> bool:
        return self.leq(self.elems[x], self.elems[y])

    def ref_meet(self, x: int, y: int) -> int:
        return self.index[self.meet(self.elems[x], self.elems[y])]

    def ref_join(self, x: int, y: int) -> int:
        return self.index[self.join(self.elems[x], self.elems[y])]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _assemble(name, elems, upper_covers, rank, rng, leq, meet, join) -> SetLattice:
    """Number ``elems`` by (rank, seeded tie-break) and list the cover edges."""
    keys = {e: (rank(e), rng.random()) for e in elems}
    order = sorted(elems, key=keys.__getitem__)
    ids = {e: i for i, e in enumerate(order)}
    edges = sorted((ids[e], ids[c]) for e in order for c in upper_covers(e))
    return SetLattice(name, order, edges, leq, meet, join)


def relabel(lat: SetLattice, key) -> SetLattice:
    """The same lattice with ids assigned in the order of ``key``."""
    order = sorted(lat.elems, key=key)
    ids = {e: i for i, e in enumerate(order)}
    edges = sorted((ids[lat.elems[u]], ids[lat.elems[v]]) for u, v in lat.edges)
    return SetLattice(lat.name, order, edges, lat.leq, lat.meet, lat.join)


def _mask_leq(a: int, b: int) -> bool:
    return a & b == a


def _mask_meet(a: int, b: int) -> int:
    return a & b


def _mask_join(a: int, b: int) -> int:
    return a | b


def boolean(atoms: int, rng: random.Random) -> SetLattice:
    """Subsets of ``atoms`` elements as bitmasks; n = 2**atoms."""
    bits = [1 << b for b in range(atoms)]
    return _assemble(
        f"boolean-{atoms}", list(range(1 << atoms)),
        lambda s: [s | b for b in bits if not s & b],
        int.bit_count, rng, _mask_leq, _mask_meet, _mask_join,
    )


def grid(rows: int, cols: int, rng: random.Random) -> SetLattice:
    """Points (i, j) of a rows x cols grid, ordered coordinatewise."""

    def covers(p):
        i, j = p
        out = []
        if i + 1 < rows:
            out.append((i + 1, j))
        if j + 1 < cols:
            out.append((i, j + 1))
        return out

    return _assemble(
        f"grid-{rows}x{cols}", [(i, j) for i in range(rows) for j in range(cols)],
        covers, sum, rng,
        lambda a, b: a[0] <= b[0] and a[1] <= b[1],
        lambda a, b: (min(a[0], b[0]), min(a[1], b[1])),
        lambda a, b: (max(a[0], b[0]), max(a[1], b[1])),
    )


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def divisor(exponents: tuple[int, ...], rng: random.Random) -> SetLattice:
    """Divisors of a number with the given prime exponents, under divisibility.

    The exponents go to primes in a seeded order, so the number (and hence
    the text) varies with the seed while the lattice shape does not.
    """
    primes = rng.sample(PRIMES, len(exponents))
    number = math.prod(p ** e for p, e in zip(primes, exponents))
    divs = [1]
    for p, e in zip(primes, exponents):
        divs = [d * p ** i for d in divs for i in range(e + 1)]

    def omega(d):
        return sum(_multiplicity(d, p) for p in primes)

    return _assemble(
        f"divisor-{number}", divs,
        lambda d: [d * p for p in primes if number % (d * p) == 0],
        omega, rng,
        lambda a, b: b % a == 0, math.gcd, math.lcm,
    )


def _multiplicity(d: int, p: int) -> int:
    k = 0
    while d % p == 0:
        d //= p
        k += 1
    return k


def distributive(lo: int, hi: int, rng: random.Random,
                 poset_rng: random.Random | None = None) -> SetLattice:
    """Downsets of a random poset, as bitmasks, with lo <= n <= hi.

    The poset grows one element at a time, each new element placed above a
    random downset; a draw that would push the lattice past ``hi`` is
    redrawn, and after a few misses the new element goes above everything,
    which adds exactly one downset.  Downset lattices are distributive, so
    meet and join are intersection and union.
    """
    prng = poset_rng or rng
    below: list[int] = []  # strict downset of each poset element
    downs = [0]
    while len(downs) < lo:
        base = None
        for _ in range(8):
            cand = downs[prng.randrange(len(downs))]
            grow = sum(1 for m in downs if m & cand == cand)
            if len(downs) + grow <= hi:
                base = cand
                break
        if base is None:
            base = (1 << len(below)) - 1
        bit = 1 << len(below)
        below.append(base)
        downs += [m | bit for m in downs if m & base == base]
    poset = list(enumerate(below))
    return _assemble(
        f"distributive-{len(downs)}", downs,
        lambda m: [m | 1 << x for x, b in poset if not m >> x & 1 and m & b == b],
        int.bit_count, rng, _mask_leq, _mask_meet, _mask_join,
    )


def cut_completion(width: int, lo: int, hi: int, rng: random.Random) -> SetLattice:
    """Cut completion of a random two-level poset, with lo <= n <= hi.

    The poset has ``width`` minimal and ``width`` maximal elements, each
    maximal one above every minimal one with probability 1/2.  Its
    completion is the family of all intersections of principal downsets
    (plus the full set); posets are redrawn until that family's size lands
    in [lo, hi].  The join of two members is the smallest member containing
    their union: the intersection of every generator that contains it.
    """
    base = 2 * width
    full = (1 << base) - 1
    while True:
        gens = [1 << i for i in range(base)]
        for j in range(width, base):
            for i in range(width):
                if rng.random() < 0.5:
                    gens[j] |= 1 << i
        family = _intersection_closure(gens, full, hi)
        if family is not None and len(family) >= lo:
            break

    def closure(s: int) -> int:
        out = full
        for g in gens:
            if g & s == s:
                out &= g
        return out

    def covers(t: int) -> list[int]:
        above = {closure(t | 1 << x) for x in range(base) if not t >> x & 1}
        return [s for s in above if not any(o != s and o & s == o for o in above)]

    return _assemble(
        f"cut-{len(family)}", sorted(family), covers, int.bit_count, rng,
        _mask_leq, _mask_meet, lambda a, b: closure(a | b),
    )


def _intersection_closure(gens: list[int], full: int, cap: int) -> set[int] | None:
    family = {full}
    stack = [full]
    while stack:
        s = stack.pop()
        for g in gens:
            t = s & g
            if t not in family:
                if len(family) >= cap:
                    return None
                family.add(t)
                stack.append(t)
    return family


def greedy_residual(lat: SetLattice, k: int, flipped: bool = False) -> int:
    """Size of the residual block left by greedy fat-node extraction.

    Follows the block decomposition as the paper defines it: visit the
    lexicographically least linear extension; a node whose live downset
    reaches ``k`` heads a block and takes that downset out.  Used only to
    pick inputs whose residual block is not empty, so that the residual
    scan is measured; the package's own decomposition is never consulted.
    """
    n = lat.n
    lower: list[list[int]] = [[] for _ in range(n)]
    upper: list[list[int]] = [[] for _ in range(n)]
    for u, v in lat.edges:
        if flipped:
            u, v = v, u
        lower[v].append(u)
        upper[u].append(v)
    indeg = [len(lw) for lw in lower]
    ready = [x for x in range(n) if not indeg[x]]
    gone = [False] * n
    left = n
    while ready:
        x = heapq.heappop(ready)
        for w in upper[x]:
            indeg[w] -= 1
            if not indeg[w]:
                heapq.heappush(ready, w)
        if gone[x]:
            continue
        live = {x}
        stack = [x]
        while stack:
            for w in lower[stack.pop()]:
                if not gone[w] and w not in live:
                    live.add(w)
                    stack.append(w)
        if len(live) >= k:
            for w in live:
                gone[w] = True
            left -= len(live)
    return left


def query_pairs(lat: SetLattice, rng: random.Random, count: int) -> list[tuple[int, int]]:
    """``count`` query pairs: even positions uniform, odd positions a short
    random walk (1-6 cover steps, each up or down) apart, in random order.

    Uniform pairs of a large lattice are almost never comparable and almost
    never share a block, so the near pairs are what reach the true branch of
    an order test and the in-block meet paths.
    """
    up: list[list[int]] = [[] for _ in range(lat.n)]
    down: list[list[int]] = [[] for _ in range(lat.n)]
    for u, v in lat.edges:
        up[u].append(v)
        down[v].append(u)
    pairs = []
    for i in range(count):
        x = rng.randrange(lat.n)
        if i % 2 == 0:
            y = rng.randrange(lat.n)
        else:
            y = x
            for _ in range(rng.randint(1, 6)):
                step = up[y] if rng.random() < 0.5 else down[y]
                step = step or up[y] or down[y]
                y = step[rng.randrange(len(step))]
            if rng.random() < 0.5:
                x, y = y, x
        pairs.append((x, y))
    return pairs
