"""Mass-median axis-recursive partitioning of a point set.

A cell at depth h is split along axis h mod d at the rank median: after
a stable sort by that coordinate, the first ceil(|S|/2) points go left (digit
0) and the rest go right (digit 1).  Each point accumulates one binary digit
per depth; the digits, read most-significant first, form the point's address
(its packed code), and sorting by address yields the tree-curve order shared
by every operation downstream.  :func:`build_tree` returns the codes together
with that order; :func:`split_thresholds` reads the split values off the codes.
"""

from __future__ import annotations

import numpy as np

from rrmatch.core import PointCloud, _as_cloud

#: Addresses are packed into a 64-bit word, most-significant digit first.
MAX_DEPTH = 63


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


def _children(sizes: np.ndarray, path: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sizes and path codes of the nonempty children of cells, in path order.

    The first ceil(size/2) points of a cell form its left child, which every
    cell keeps; split cells also get a right child.  Children are interleaved
    (left, right) per cell before the empty ones are dropped; only the level
    that reaches depth ``full_depth(n)`` and deeper ones can have empty ones.
    """
    children = np.empty(2 * sizes.size, dtype=np.int64)
    np.add(sizes, 1, out=children[0::2])
    children[0::2] //= 2
    np.subtract(sizes, children[0::2], out=children[1::2])
    child_path = np.empty(2 * path.size, dtype=np.int64)
    np.left_shift(path, 1, out=child_path[0::2])
    np.add(child_path[0::2], 1, out=child_path[1::2])
    kept = children > 0
    if kept.all():
        return children, child_path
    return children[kept], child_path[kept]


def build_tree(X: PointCloud | np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Partition the points to the given depth: their order and their addresses.

    Ties on the split coordinate break by original input index (stable sort),
    so the construction is deterministic.  Cells that reach a single point
    stop splitting; the remaining digits of their addresses are 0.

    Level h splits along axis ``h % d``.  Each axis the build uses is ranked
    once (:func:`_stable_order`), and one table per axis a maps a point's rank
    along a to its rank along ``(a + 1) % d``.  The loop keeps each point's
    rank along the current axis, points grouped by cell and cells in path
    order, plus each cell's size and path code.  A level moves the ranks to
    its axis and sorts one integer key per point,
    ``(cell index << bits) | rank`` with ``bits = (n-1).bit_length()``
    (uint32 while ``2 * bits <= 32``, else int64).  The first ``ceil(size/2)``
    points of each sorted cell form its left child, so the children's sizes
    and paths follow from the parents' alone.  Level 0 (one cell) is already
    in rank order, and once every cell is a singleton the sort is skipped.
    Bounds: ``depth <= MAX_DEPTH`` (the address packing) and ``n <= 2**31``
    (the key needs ``2 * bits <= 63``); past either a ValueError is raised.

    Returns ``(order, codes)``.  ``order`` (int64) lists the points leaf by
    leaf in address order, and within a leaf by stable rank along the last
    split axis ``(depth - 1) % d``, so ``codes[order]`` is nondecreasing; once
    every leaf is a singleton (``depth >= full_depth(n)``) it is the
    tree-curve order.
    ``codes`` (uint64) holds each point's packed address, digit s_1 in the
    most significant of the ``depth`` used bits.
    """
    X = _as_cloud(X)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if depth > MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds the {MAX_DEPTH}-bit address packing bound")

    n, d = X.n, X.d
    coords = X.coords
    bits = _rank_bits(n)
    mask = (1 << bits) - 1
    # Keys below 2**32 sort about twice as fast as int64 keys.
    key_dtype = np.uint32 if 2 * bits <= 32 else np.int64
    # by_rank[a][r] is the point of stable rank r along axis a.
    by_rank = [_stable_order(coords[:, a], bits) for a in range(min(depth, d))]
    # moves[a][r] is the rank along axis (a + 1) % d of the point of rank r along axis a.
    moves = []
    for a in range(min(depth - 1, d)):
        rank_b = np.empty(n, dtype=key_dtype)
        rank_b[by_rank[(a + 1) % d]] = np.arange(n, dtype=key_dtype)
        moves.append(rank_b[by_rank[a]])
    # Only the last split axis's ranking is read again, by the final gather;
    # dropping the others now lowers the peak.
    last = by_rank[(depth - 1) % d]
    del by_rank

    # Per point, grouped by cell with cells in path order: its rank along the
    # current axis.  Level 0 has one cell, already in rank order.
    ranks = np.arange(n, dtype=key_dtype)
    sizes = np.full(1, n, dtype=np.int64)  # per cell: its point count
    path = np.zeros(1, dtype=np.int64)  # per cell: its path code

    for h in range(depth):
        if h > 0:
            ranks = np.take(moves[(h - 1) % d], ranks)
            if path.size < n:
                # Unique keys sort by (cell, coordinate, input index) in one integer sort.
                key = np.repeat(np.arange(path.size, dtype=key_dtype), sizes) << bits
                key |= ranks
                key.sort()
                key &= mask
                ranks = key
        sizes, path = _children(sizes, path)

    order = last[ranks]
    codes = np.empty(n, dtype=np.uint64)
    codes[order] = path if path.size == n else np.repeat(path, sizes)
    return order, codes


def split_thresholds(X: PointCloud | np.ndarray, depth: int) -> list[tuple[int, int, float]]:
    """Split thresholds (h, k, m) of the depth-limited build, in (h, k) order.

    Cell k at depth h is split when it holds at least two points; m is the
    coordinate, along axis ``h % d``, of the last point of its left child 2k
    in stable order.  Computed from the addresses of one :func:`build_tree`
    call, with one stable sort per level.
    """
    X = _as_cloud(X)
    _, codes = build_tree(X, depth)
    out = []
    for h in range(depth):
        coord = X.coords[:, h % X.d]
        child = codes >> np.uint64(depth - 1 - h)
        order = np.lexsort((coord, child))
        sorted_child = child[order]
        last = np.flatnonzero(np.append(sorted_child[1:] != sorted_child[:-1], True))
        runs = sorted_child[last]
        # A cell is split exactly when its right child 2k + 1 is not empty.
        split = (runs[:-1] % 2 == 0) & (runs[1:] == runs[:-1] + 1)
        for k, m in zip(runs[:-1][split] // 2, coord[order[last[:-1][split]]]):
            out.append((h, int(k), float(m)))
    return out


def full_depth(n: int) -> int:
    """Smallest depth guaranteeing singleton leaves under rank splitting."""
    return max(1, (n - 1).bit_length())


def tree_curve_order(X: PointCloud | np.ndarray) -> np.ndarray:
    """Permutation sorting the points by address value (tree-curve order).

    The order of a full-depth (singleton-leaf) build; for d=1 this reduces to
    a stable ascending coordinate sort.
    """
    X = _as_cloud(X)
    order, _ = build_tree(X, full_depth(X.n))
    return order


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
