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

The stable sorts are integer sorts: each coordinate maps to an int64 key that
orders like it, with the point's index in its low bits, so one SIMD sort ranks
every axis a build splits.

A level whose cells all hold the same number of points splits them by a
selection rather than a sort; :func:`build_tree` describes both kinds of level.

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

#: Smallest cell size a level of equal-size cells splits by selection rather
#: than by the keyed sort (:func:`build_tree`).  Per level of 2**16 uniform
#: points (2-vCPU Xeon), the row-wise selection beats the sort on cells of
#: 16 (112 against 203 us) and loses on cells of 8 (218 against 208 us); that
#: decides the floor.  Whole orderings with floors of 8 and 16 differ by less
#: than their run-to-run spread.
_SELECT_MIN_CELL = 16


def _rank_bits(n: int) -> int:
    """Width of the rank field in the per-level sort key of :func:`build_tree`.

    The key packs a cell index and a rank, both below n, into one int64, so
    it needs 2 * bits <= 63, that is n <= 2**31.
    """
    bits = (n - 1).bit_length()
    if 2 * bits > 63:
        raise ValueError(f"n={n} exceeds the sort-key packing bound n <= 2**31")
    return bits


def _stable_orders(cols: np.ndarray, bits: int) -> np.ndarray:
    """Row a is ``np.argsort(cols[:, a], kind="stable")``, for every column a.

    ``cols`` is (n, k) and finite, with ``n <= 2**bits`` (:func:`_rank_bits`).
    Each coordinate becomes an int64 key that sorts like it: adding ``0.0``
    turns ``-0.0`` into ``0.0``, which it ties under a stable sort, and the
    low 63 bits of a negative value are flipped, so that larger magnitudes
    sort lower.  The low ``bits`` of each key are replaced by the point's
    index, and one integer sort of the (k, n) block (numpy's SIMD sort; its
    float argsort is not vectorised) leaves each row's order in the low bits,
    except within runs (:func:`_restore_runs`), found from the sorted keys.
    """
    n, k = cols.shape
    mask = (1 << bits) - 1
    block = np.empty((k, n))
    np.add(cols.T, 0.0, out=block)
    keys = block.view(np.int64)
    keys &= ~mask
    keys |= np.arange(n)
    # One row-sized temporary for all the passes below.
    scratch = np.empty(n, dtype=np.int64)
    for row in keys:
        # Flip the key bits of a negative value, leaving its index intact.
        np.right_shift(row, 63, out=scratch)
        scratch &= (2**63 - 1) & ~mask
        row ^= scratch
    keys.sort(axis=1)
    # near[i]: sorted positions i and i + 1 agree above the index field.
    # Compared unsigned, so that the sign change between a negative and a
    # nonnegative neighbour never reads as a shared field.
    near = np.empty(n - 1, dtype=bool)
    for a, row in enumerate(keys):
        np.bitwise_xor(row[1:], row[:-1], out=scratch[1:])
        np.less(scratch[1:].view(np.uint64), 1 << bits, out=near)
        if near.any():
            _restore_runs(row, near, cols[:, a], mask)
    keys &= mask
    return keys


def _restore_runs(row: np.ndarray, near: np.ndarray, col: np.ndarray, mask: int) -> None:
    """Put the runs of one sorted key row of :func:`_stable_orders` in stable order, in place.

    A run is a stretch of neighbours whose keys agree above the index field
    (``near[i]`` joins positions i and i + 1): equal coordinates, or ones
    closer than the dropped bits.  The sort left each run in index order,
    which is right for a tie.  Runs rise in value from one to the next, so a
    stable sort of all members by coordinate alone restores (coordinate,
    index) order, and it runs only if some member's coordinate is below its
    predecessor's.
    """
    member = np.zeros(row.size, dtype=bool)
    member[1:] = near
    member[:-1] |= near
    pos = np.flatnonzero(member)
    value = col[row[pos] & mask]
    if (value[1:] < value[:-1]).any():
        row[pos] = row[pos[np.argsort(value, kind="stable")]]


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

    Level h splits along axis ``h % d``.  The axes the build uses are ranked
    together by one integer sort (:func:`_stable_orders`), and one table per
    axis a maps a point's rank along a to its rank along ``(a + 1) % d``.  The
    loop keeps only each point's rank along the current axis, points grouped
    by cell and cells in path order.  Which cell a position belongs to depends
    on n alone: the depth-h cell of position i is the top h digits of the
    cached full-depth code ``_position_codes(n)[i]``, which the table stores
    already shifted left by ``bits = (n-1).bit_length()``.  A level moves the
    ranks to its axis and sorts one integer key per point: the table masked to
    its top h digits, with the rank in the low ``bits`` (uint32 while
    ``2 * bits <= 32``, else int64).  The masked code orders cells as their
    path does, and ranks are unique within a cell, so the sort groups points
    by cell in path order and by rank within each; the first ``ceil(size/2)``
    points of each sorted cell form its left child.  Level 0 (one cell) is
    already in rank order, and from level ``full_depth(n)`` on every cell is a
    singleton, so the sort is skipped.

    A level whose cells all hold s = n / 2**h points, with s at least
    ``_SELECT_MIN_CELL`` and h below ``depth - 1``, selects instead of sorting:
    ``np.partition`` of the ranks as (2**h, s) rows at ``ceil(s/2) - 1`` puts
    each cell's ``ceil(s/2)`` lowest ranks, its left child, first.  Within a
    child they are left unordered, which no later step reads: the next level
    moves the ranks to its own axis and orders or selects them again.  The
    last level keeps the sort, so each leaf of a truncated build is still in
    rank order.  On 2**16 points (2-vCPU Xeon) a sort level costs about
    210 us whatever the cell size and a selection level 30-120 us, so one d=2
    ordering takes about 0.74 of the time of a build that sorts every level.

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
    by_rank = _stable_orders(coords[:, :min(depth, d)], bits)
    # moves[a][r] is the rank along axis (a + 1) % d of the point of rank r along axis a.
    moves = []
    rank_b = np.empty(n, dtype=key_dtype)
    for a in range(min(depth - 1, d)):
        rank_b[by_rank[(a + 1) % d]] = np.arange(n, dtype=key_dtype)
        moves.append(rank_b[by_rank[a]])
    del rank_b
    # Only the last split axis's ranking is read again, by the final gather;
    # copying it frees the other rows now, which lowers the peak.
    last = by_rank[(depth - 1) % d].copy()
    del by_rank

    # Per point, grouped by cell with cells in path order: its rank along the
    # current axis.  Level 0 has one cell, already in rank order, so level 1
    # starts from moves[0] itself.
    ranks = None
    for h in range(1, depth):
        ranks = moves[0] if h == 1 else moves[(h - 1) % d].take(ranks)
        size = n >> h
        if size >= _SELECT_MIN_CELL and size << h == n and h < depth - 1:
            # Cells of one size, not the last level: select each cell's
            # lower half.  np.partition copies, so moves[0], the ranks at
            # h=1, stays intact.
            ranks = np.partition(ranks.reshape(-1, size), (size + 1) // 2 - 1, axis=1).reshape(-1)
        elif h < full:
            # Unique keys sort by (cell, coordinate, input index) in one integer sort.
            key = pos_code & (((1 << h) - 1) << (full - h + bits))
            key |= ranks
            key.sort()
            key &= mask
            ranks = key

    # Freed before the final gather, where take copies uint32 ranks to intp.
    del moves
    return last if ranks is None else last.take(ranks)


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

