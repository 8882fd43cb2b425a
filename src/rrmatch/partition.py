"""Mass-median axis-recursive partitioning of a point set.

A cell at depth h is split along axis h mod d at the rank median: after
a stable sort by that coordinate, the first ceil(|S|/2) points go left (digit
0) and the rest go right (digit 1).  Each point accumulates one binary digit
per depth; the digits, read most-significant first, form the point's address
(its packed code), and sorting by address yields the tree-curve order shared
by every operation downstream.  :func:`build_tree` returns only that order;
the addresses are read off it by ``_addresses``, and only where they are used:
:func:`split_thresholds` reads the split values off them, and the last-mile
diagnostics compare their prefixes.

Because every split is at the rank median, the cell layout (the sizes and
paths of the cells at every level, and which sorted positions each holds)
depends on the point count n alone, never on the coordinates.  It is built
once per n as a table of full-depth position codes, in a cache of at most 4
read-only tables of ``n * 4`` bytes (``n * 8`` above n = 2**16); the depth-h
cell of sorted position i is the top h digits of its entry.  Entries are
stored in the layout of the build's sort key, above its rank field, so a
level masks them without shifting.  The table is assembled from per-size
tables, at most two per depth, so a cache miss costs O(n) work in O(log n)
array operations.
"""

from __future__ import annotations

import functools

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
    order = c.argsort()
    sorted_c = c[order]
    tied = sorted_c[1:] == sorted_c[:-1]
    if not tied.any():
        return order
    group = np.zeros(c.size, dtype=np.int64)
    np.cumsum(~tied, out=group[1:])
    return np.sort((group << bits) | order) & ((1 << bits) - 1)


@functools.lru_cache(maxsize=4)
def _position_codes(n: int) -> np.ndarray:
    """Full-depth path code of the cell at each sorted position, in key layout; read-only.

    Rank splitting gives the first ``ceil(size/2)`` points of a cell to its
    left child, so the sizes and paths of the cells at every level depend on
    ``n`` alone.  Entry i is the path code, ``full_depth(n)`` digits wide, of
    the leaf at position i of the tree-curve order, shifted left by
    ``bits = _rank_bits(n)``: the cell field of :func:`build_tree`'s sort key,
    whose low ``bits`` hold a rank.  Positions nest, so the depth-h cell of
    position i is the top h digits of its code.

    A cell's table depends only on its size s and depth: the left child's
    table followed by the right child's with the cell's digit set,
    ``table(s) = table(ceil(s/2)) ++ (table(floor(s/2)) | digit)``.  At each
    depth the cells take at most two consecutive sizes, so the tables are
    built bottom-up, at most two per depth, from the singleton (and empty)
    leaves.  The dtype is that of :func:`build_tree`'s sort key (uint32 while
    ``2 * bits <= 32``, else int64), so the cache holds at most 4 tables of
    ``n * 4`` or ``n * 8`` bytes.  Callers share the table; it is never
    written.
    """
    bits = _rank_bits(n)
    full = full_depth(n)
    # Keys below 2**32 sort about twice as fast as int64 keys.
    dtype = np.uint32 if 2 * bits <= 32 else np.int64
    sizes = [{n}]
    for _ in range(full):
        sizes.append({c for s in sizes[-1] for c in ((s + 1) // 2, s // 2)})
    tables = {s: np.zeros(s, dtype=dtype) for s in sizes[full]}
    for h in range(full - 1, -1, -1):
        digit = 1 << (full - 1 - h + bits)
        tables = {s: np.concatenate((tables[(s + 1) // 2], tables[s // 2] | digit)) for s in sizes[h]}
    table = tables[n]
    table.flags.writeable = False
    return table


def build_tree(X: PointCloud | np.ndarray, depth: int) -> np.ndarray:
    """Partition the points to the given depth and return them in address order.

    Ties on the split coordinate break by original input index (stable sort),
    so the construction is deterministic.  Cells that reach a single point
    stop splitting; the remaining digits of their addresses are 0.

    Level h splits along axis ``h % d``.  Each axis the build uses is ranked
    once (:func:`_stable_order`), and one table per axis a maps a point's rank
    along a to its rank along ``(a + 1) % d``.  The loop keeps only each
    point's rank along the current axis, points grouped by cell and cells in
    path order.  Which cell a position belongs to depends on n alone: the
    depth-h cell of position i is the top h digits of the cached full-depth
    code ``_position_codes(n)[i]``, which the table stores already shifted
    left by ``bits = (n-1).bit_length()``.  A level moves the ranks to its
    axis and sorts one integer key per point: the table masked to its top h
    digits, with the rank in the low ``bits`` (uint32 while
    ``2 * bits <= 32``, else int64).  The masked code orders cells as their
    path does, and ranks are unique within a cell, so the sort groups points
    by cell in path order and by rank within each; the first ``ceil(size/2)``
    points of each sorted cell form its left child.  Level 0 (one cell) is
    already in rank order, and from level ``full_depth(n)`` on every cell is
    a singleton, so the sort is skipped.
    Bounds: ``depth <= MAX_DEPTH`` (the address packing) and ``n <= 2**31``
    (the key needs ``2 * bits <= 63``); past either a ValueError is raised.

    Returns ``order`` (int64, freshly allocated): the points leaf by leaf in
    address order, and within a leaf by stable rank along the last split axis
    ``(depth - 1) % d``; once every leaf is a singleton
    (``depth >= full_depth(n)``) it is the tree-curve order.  The addresses
    are ``codes = _addresses(order, depth)``, and ``codes[order]`` is
    nondecreasing.
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
    full = full_depth(n)
    pos_code = _position_codes(n)
    key_dtype = pos_code.dtype
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
    for h in range(1, depth):
        ranks = moves[(h - 1) % d].take(ranks)
        if h < full:
            # Unique keys sort by (cell, coordinate, input index) in one integer sort.
            key = pos_code & (((1 << h) - 1) << (full - h + bits))
            key |= ranks
            key.sort()
            key &= mask
            ranks = key

    return last[ranks]


def _addresses(order: np.ndarray, depth: int) -> np.ndarray:
    """Packed address (uint64) of each point of a :func:`build_tree` order.

    Point ``order[i]`` sits at position i, so its address is the position code
    ``_position_codes(n)[i]`` cut to its top ``depth`` digits: digit s_1 in the
    most significant of the ``depth`` used bits, and 0 past a singleton leaf.
    """
    n = order.size
    codes = np.empty(n, dtype=np.uint64)
    codes[order] = _position_codes(n)
    # From the key layout to the address: the top ``depth`` digits of the code.
    shift = depth - full_depth(n) - _rank_bits(n)
    if shift < 0:
        codes >>= np.uint64(-shift)
    else:
        codes <<= np.uint64(shift)
    return codes


def split_thresholds(X: PointCloud | np.ndarray, depth: int) -> list[tuple[int, int, float]]:
    """Split thresholds (h, k, m) of the depth-limited build, in (h, k) order.

    Cell k at depth h is split when it holds at least two points; m is the
    coordinate, along axis ``h % d``, of the last point of its left child 2k
    in stable order.  Computed from the addresses (``_addresses``) of one
    :func:`build_tree` order, with one stable sort per level.
    """
    X = _as_cloud(X)
    codes = _addresses(build_tree(X, depth), depth)
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
    return build_tree(X, full_depth(X.n))

