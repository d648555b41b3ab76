"""Space accounting, per-query probe counters, and log-log scaling fits.

Space is measured in entries, not bytes: every typed-array cell, set bit
of a downset bitset, tree node and leaf cell counts as one.  The
residual-subblock downsets count their set bits too, though they are
derived from the local downsets, not stored.
Wall-clock time is reported by the benchmark driver but is never part of
any pass/fail decision; probe counts are the portable time surrogate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np


@dataclass
class QueryStats:
    """Counters for a single query; reset between queries.

    ``order_tests`` counts order-test invocations (for the block-based
    engines, raw constant-time tests; for the degree-bounded join search,
    one unit per element-versus-pair comparison).  The probe counters
    decompose the work: array cells read, bitset membership tests
    (``dict_probes``, named for the sets they once were), table cells
    read, and elements scanned from residual downsets and leaves.
    ``candidate_count`` is the hits a meet returns, 0 or 1 per scan level.
    """

    order_tests: int = 0
    array_probes: int = 0
    dict_probes: int = 0
    table_probes: int = 0
    scanned_elements: int = 0
    candidate_count: int = 0
    tree_nodes_visited: int = 0
    max_order_test_probes: int = 0

    def reset(self) -> None:
        self.order_tests = 0
        self.array_probes = 0
        self.dict_probes = 0
        self.table_probes = 0
        self.scanned_elements = 0
        self.candidate_count = 0
        self.tree_nodes_visited = 0
        self.max_order_test_probes = 0

    @property
    def total_probes(self) -> int:
        return (self.array_probes + self.dict_probes + self.table_probes
                + self.scanned_elements)

    def note_order_test(self, probes: int) -> None:
        self.order_tests += 1
        if probes > self.max_order_test_probes:
            self.max_order_test_probes = probes


@dataclass
class SpaceReport:
    """Exact entry counts for a built index, by substructure."""

    n: int
    c: float | None = None
    header_meet_cells: int = 0      # one typed row of n cells per block header
    down_entries: int = 0           # set bits of the local-downset bitsets
    subheader_meet_cells: int = 0   # per-subheader typed rows over their block
    pair_table_cells: int = 0       # per-subblock typed meet tables
    residual_list_cells: int = 0    # residual-subblock downsets' set bits:
                                    # derived, not stored
    tree_nodes: int = 0
    leaf_cells: int = 0

    @property
    def total(self) -> int:
        return (self.header_meet_cells + self.down_entries
                + self.subheader_meet_cells + self.pair_table_cells
                + self.residual_list_cells + self.tree_nodes + self.leaf_cells)

    def merged(self, other: "SpaceReport") -> "SpaceReport":
        """Combine two reports (e.g. a primary index and its dual): every
        count is summed, ``n`` and ``c`` are kept from this one."""
        return replace(self, **{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self) if f.name not in ("n", "c")
        })

    def lines(self) -> list[str]:
        out = [f"n                 {self.n}"]
        if self.c is not None:
            out.append(f"c                 {self.c}")
        out += [
            f"header-meet cells {self.header_meet_cells}",
            f"downset entries   {self.down_entries}",
            f"subheader cells   {self.subheader_meet_cells}",
            f"pair-table cells  {self.pair_table_cells}",
            f"residual cells    {self.residual_list_cells}",
            f"tree nodes        {self.tree_nodes}",
            f"leaf cells        {self.leaf_cells}",
            f"total entries     {self.total}",
        ]
        return out


@dataclass
class ScalingFit:
    """Least-squares line through log-transformed (n, value) points."""

    points: list[tuple[float, float]]
    slope: float
    intercept: float
    residual: float


def fit_scaling(points) -> ScalingFit:
    """Fit value ~ n**slope in log-log space; needs >= 4 positive points."""
    pts = [(float(n), float(v)) for n, v in points]
    if len(pts) < 4:
        raise ValueError(f"need at least 4 points to fit, got {len(pts)}")
    if any(n <= 0 or v <= 0 for n, v in pts):
        raise ValueError("all measurements must be positive for a log-log fit")
    xs = np.log([n for n, _ in pts])
    ys = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    residual = float(np.sum((ys - pred) ** 2))
    return ScalingFit(points=pts, slope=float(slope), intercept=float(intercept),
                      residual=residual)


def space_report(index) -> SpaceReport:
    """Entry counts for any built index in this package.

    Dispatches on a ``_space_counts`` hook so new structures only need to
    report their own cells.
    """
    return index._space_counts()


def ceil_sqrt(x: int) -> int:
    r = math.isqrt(x)
    return r if r * r == x else r + 1


def ceil_pow(n: int, c: float) -> int:
    """Smallest integer >= n**c (exact for c in {0.5, 1.0})."""
    if c == 1.0:
        return n
    if c == 0.5:
        return ceil_sqrt(n)
    return max(1, math.ceil(n ** c))


def ceil_log(n: int, base: int) -> int:
    """Smallest t >= 1 with base**t >= n (integer-exact)."""
    if n <= base:
        return 1
    t = 1
    power = base
    while power < n:
        power *= base
        t += 1
    return t
