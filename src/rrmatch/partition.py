"""Mass-median axis-recursive partitioning of a point set.

A cell at depth h is split along the scheduled axis at the rank median: after
a stable sort by that coordinate, the first ceil(|S|/2) points go left (digit
0) and the rest go right (digit 1).  Each point accumulates one binary digit
per depth; the digits, read most-significant first, form the point's address,
and sorting by address value yields the tree-curve order shared by every
operation downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rrmatch.core import PointCloud, _as_cloud

#: Addresses are packed into a 64-bit word, most-significant digit first.
MAX_DEPTH = 63


@dataclass(frozen=True)
class AxisSchedule:
    """Split-axis schedule: cycling from a start axis, or a fixed permutation.

    Cycling with start 0 selects axis h mod d at depth h.
    """

    d: int
    start_axis: int = 0
    permutation: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("schedule needs d >= 1")
        if self.permutation is not None:
            if sorted(self.permutation) != list(range(self.d)):
                raise ValueError(f"permutation {self.permutation} is not a permutation of 0..{self.d - 1}")
        elif not 0 <= self.start_axis < self.d:
            raise ValueError(f"start_axis {self.start_axis} out of range for d={self.d}")

    @classmethod
    def cycling(cls, d: int, start_axis: int = 0) -> "AxisSchedule":
        return cls(d=d, start_axis=start_axis)

    @classmethod
    def permuted(cls, permutation: tuple[int, ...]) -> "AxisSchedule":
        return cls(d=len(permutation), permutation=tuple(permutation))

    def axis(self, h: int) -> int:
        if self.permutation is not None:
            return self.permutation[h % self.d]
        return (self.start_axis + h) % self.d


@dataclass(frozen=True)
class Address:
    """Binary path code of a point: digits s_1..s_H packed MSB-first.

    ``value`` is the dyadic real sum(s_h * 2^-h), in [0, 1); the length-h
    prefix identifies the depth-h cell containing the point.
    """

    code: int
    depth: int

    def __post_init__(self) -> None:
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in [1, {MAX_DEPTH}], got {self.depth}")
        if not 0 <= self.code < (1 << self.depth):
            raise ValueError(f"code {self.code} out of range for depth {self.depth}")

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.code >> (self.depth - 1 - h)) & 1 for h in range(self.depth))

    @property
    def value(self) -> float:
        return self.code / float(1 << self.depth)


@dataclass(frozen=True)
class PartitionTree:
    """Split thresholds, node counts, and axis schedule of one tree build.

    ``level_cells[h]`` lists the non-empty cell ids at depth h = 0..depth
    (cell id = the integer whose binary digits are the path code);
    ``level_counts[h]`` the matching point counts.  ``level_split_cells[h]`` /
    ``level_thresholds[h]`` record, for every cell actually split at depth
    h < depth, the coordinate of the last left point along the scheduled axis.
    """

    depth: int
    n: int
    schedule: AxisSchedule
    level_cells: tuple[np.ndarray, ...]
    level_counts: tuple[np.ndarray, ...]
    level_split_cells: tuple[np.ndarray, ...]
    level_thresholds: tuple[np.ndarray, ...]

    def count(self, h: int, k: int) -> int:
        """Number of points in cell k (0-indexed path code) at depth h."""
        cells = self.level_cells[h]
        pos = np.searchsorted(cells, k)
        if pos < cells.size and cells[pos] == k:
            return int(self.level_counts[h][pos])
        return 0

    def threshold(self, h: int, k: int) -> float | None:
        """Split value of node (h, k), or None if the node was not split."""
        cells = self.level_split_cells[h]
        pos = np.searchsorted(cells, k)
        if pos < cells.size and cells[pos] == k:
            return float(self.level_thresholds[h][pos])
        return None

    def threshold_vector(self) -> list[tuple[int, int, float]]:
        """All recorded split thresholds as (h, k, m) in (h, k) order."""
        out = []
        for h in range(self.depth):
            for k, m in zip(self.level_split_cells[h], self.level_thresholds[h]):
                out.append((h, int(k), float(m)))
        return out


def _rank_bits(n: int) -> int:
    """Width of the rank field in the per-level sort key of :func:`build_tree`.

    The key packs a cell index and a rank, both below n, into one int64, so
    it needs 2 * bits <= 63, that is n <= 2**31.
    """
    bits = (n - 1).bit_length()
    if 2 * bits > 63:
        raise ValueError(f"n={n} exceeds the sort-key packing bound n <= 2**31")
    return bits


def _stable_order(c: np.ndarray, bits: int) -> np.ndarray:
    """The permutation ``np.argsort(c, kind="stable")``, via an unstable sort.

    ``bits`` is :func:`_rank_bits` of ``c.size``.  The unstable (SIMD) argsort
    may scramble runs of equal values; if any exist, one integer sort of
    ``(tie group << bits) | index`` puts each run back in index order.  Ties
    are decided by ``==``, so ``-0.0`` and ``0.0`` share a group, as they do
    under a stable sort.
    """
    order = np.argsort(c)
    sorted_c = c[order]
    tied = sorted_c[1:] == sorted_c[:-1]
    if not tied.any():
        return order
    group = np.zeros(c.size, dtype=np.int64)
    np.cumsum(~tied, out=group[1:])
    return np.sort((group << bits) | order) & ((1 << bits) - 1)


def build_tree(
    X: PointCloud | np.ndarray,
    depth: int,
    schedule: AxisSchedule | None = None,
) -> tuple[PartitionTree, np.ndarray]:
    """Build the rank-split partition to the given depth.

    Ties on the split coordinate break by original input index (stable sort),
    so the construction is deterministic.  Cells that reach a single point
    stop splitting; the remaining digits of their addresses are 0.

    Each scheduled axis is ranked once (:func:`_stable_order`), and one table
    per consecutive axis pair maps a point's rank along one axis to its rank
    along the next.  The loop keeps each point's rank along the current axis,
    points grouped by cell and cells in path order, plus each cell's size and
    path code.  A level moves the ranks to its axis and sorts one integer key
    per point, ``(cell index << bits) | rank`` with ``bits = (n-1).bit_length()``
    (uint32 while ``2 * bits <= 32``, else int64).  The first ``ceil(size/2)``
    points of each sorted cell form its left child, so the children's sizes
    and paths follow from the parents' alone.  Level 0 (one cell) is already
    in rank order, and once every cell is a singleton the sort is skipped.
    Addresses are written once, at the end.  Bounds: ``depth <= MAX_DEPTH``
    (the address packing) and ``n <= 2**31`` (the key needs
    ``2 * bits <= 63``); past either a ValueError is raised.

    Returns the tree and the per-point packed addresses (uint64, one word per
    point, digit s_1 in the most significant of the ``depth`` used bits).
    """
    X = _as_cloud(X)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if depth > MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds the {MAX_DEPTH}-bit address packing bound")
    schedule = schedule or AxisSchedule.cycling(X.d)
    if schedule.d != X.d:
        raise ValueError(f"schedule dimension {schedule.d} != cloud dimension {X.d}")

    n = X.n
    coords = X.coords
    bits = _rank_bits(n)
    mask = (1 << bits) - 1
    # Keys below 2**32 sort about twice as fast as int64 keys.
    key_dtype = np.uint32 if 2 * bits <= 32 else np.int64
    axes = [schedule.axis(h) for h in range(depth)]
    # by_rank[a][r] is the point of stable rank r along axis a.
    by_rank = {a: _stable_order(coords[:, a], bits) for a in set(axes)}
    # moves[a, b][r] is the rank along axis b of the point of rank r along axis a.
    moves = {}
    for a, b in set(zip(axes, axes[1:])):
        rank_b = np.empty(n, dtype=key_dtype)
        rank_b[by_rank[b]] = np.arange(n, dtype=key_dtype)
        moves[a, b] = rank_b[by_rank[a]]

    # Per point, grouped by cell with cells in path order: its rank along the
    # current axis.  Level 0 has one cell, already in rank order.
    ranks = np.arange(n, dtype=key_dtype)
    sizes = np.full(1, n, dtype=np.int64)  # per cell: its point count
    path = np.zeros(1, dtype=np.int64)  # per cell: its path code
    level_cells: list[np.ndarray] = []
    level_counts: list[np.ndarray] = []
    level_split_cells: list[np.ndarray] = []
    level_thresholds: list[np.ndarray] = []

    for h, axis in enumerate(axes):
        if h > 0:
            ranks = np.take(moves[axes[h - 1], axis], ranks)
            if path.size < n:
                # Unique keys sort by (cell, coordinate, input index) in one integer sort.
                key = np.repeat(np.arange(path.size, dtype=key_dtype), sizes) << bits
                key |= ranks
                key.sort()
                key &= mask
                ranks = key

        starts = np.cumsum(sizes) - sizes
        n_left = (sizes + 1) // 2
        split = sizes >= 2
        level_cells.append(path)
        level_counts.append(sizes)
        level_split_cells.append(path[split])
        last_left = by_rank[axis][ranks[starts[split] + n_left[split] - 1]]
        level_thresholds.append(coords[last_left, axis])

        # The first ceil(size/2) points of a cell form its left child, which
        # every cell keeps; split cells also get a right child.
        children = np.stack((n_left, sizes - n_left), axis=1).ravel()
        kept = children > 0
        sizes = children[kept]
        path = np.stack((path * 2, path * 2 + 1), axis=1).ravel()[kept]

    level_cells.append(path)
    level_counts.append(sizes)
    codes = np.empty(n, dtype=np.uint64)
    codes[by_rank[axes[-1]][ranks]] = np.repeat(path, sizes)

    tree = PartitionTree(
        depth=depth,
        n=n,
        schedule=schedule,
        level_cells=tuple(level_cells),
        level_counts=tuple(level_counts),
        level_split_cells=tuple(level_split_cells),
        level_thresholds=tuple(level_thresholds),
    )
    return tree, codes


def full_depth(n: int) -> int:
    """Smallest depth guaranteeing singleton leaves under rank splitting."""
    return max(1, (n - 1).bit_length())


def tree_curve_order(
    X: PointCloud | np.ndarray,
    schedule: AxisSchedule | None = None,
) -> np.ndarray:
    """Permutation sorting the points by address value (tree-curve order).

    Builds the tree to full depth (singleton leaves), then sorts addresses;
    for d=1 this reduces to a stable ascending coordinate sort.
    """
    X = _as_cloud(X)
    if X.n == 1:
        return np.zeros(1, dtype=np.int64)
    _, codes = build_tree(X, full_depth(X.n), schedule)
    # Leaves are singletons at full depth, so the codes are unique and any
    # sort kind gives the same permutation.
    return np.argsort(codes).astype(np.int64)


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized bit length of uint64 values."""
    x = x.astype(np.uint64, copy=True)
    out = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        big = x >= np.uint64(1 << shift)
        out[big] += shift
        x = np.where(big, x >> np.uint64(shift), x)
    out += (x > 0).astype(np.int64)
    return out


def common_prefix_depth(a: int | np.ndarray, b: int | np.ndarray, depth: int):
    """Largest h <= depth with equal h-digit prefixes; 0 if first digits differ.

    Accepts scalars or arrays of packed addresses from the same tree build.
    """
    if np.isscalar(a) and np.isscalar(b):
        diff = int(a) ^ int(b)
        return depth - diff.bit_length()
    diff = np.asarray(a, dtype=np.uint64) ^ np.asarray(b, dtype=np.uint64)
    return depth - _bit_length_u64(diff)


def empirical_threshold_vector(
    X: PointCloud | np.ndarray,
    depth: int,
    schedule: AxisSchedule | None = None,
) -> list[tuple[int, int, float]]:
    """Flattened split-threshold vector (h, k, m) of the depth-limited build."""
    tree, _ = build_tree(X, depth, schedule)
    return tree.threshold_vector()
