import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrmatch import partition
from rrmatch.core import PointCloud
from rrmatch.generators import GeneratorSpec, gen
from rrmatch.matching import _rotation, merged_rrm, rrm_plan
from rrmatch.partition import (
    MAX_DEPTH,
    _addresses,
    _position_codes,
    _rank_bits,
    _stable_orders,
    build_tree,
    full_depth,
    split_thresholds,
    tree_curve_order,
)


def _codes_as_strings(codes, depth):
    return [format(int(c), f"0{depth}b") for c in codes]


def lexsort_build_tree(coords, depth):
    """Reference build: one lexsort by (cell, coordinate along axis h mod d) per level.

    Returns the packed codes and the split thresholds (h, k, m) in (h, k) order.
    """
    n = coords.shape[0]
    cell = np.zeros(n, dtype=np.int64)
    codes = np.zeros(n, dtype=np.uint64)
    thresholds = []
    for h in range(depth):
        key = coords[:, h % coords.shape[1]]
        order = np.lexsort((key, cell))
        sorted_cell = cell[order]

        is_start = np.empty(n, dtype=bool)
        is_start[0] = True
        np.not_equal(sorted_cell[1:], sorted_cell[:-1], out=is_start[1:])
        starts = np.flatnonzero(is_start)
        run_of = np.cumsum(is_start) - 1
        sizes = np.diff(np.append(starts, n))

        n_left = (sizes + 1) // 2
        digit_sorted = np.arange(n) - starts[run_of] >= n_left[run_of]
        split = sizes >= 2
        for k, i in zip(sorted_cell[starts[split]], order[starts[split] + n_left[split] - 1]):
            thresholds.append((h, int(k), float(key[i])))

        digit = np.empty(n, dtype=np.uint64)
        digit[order] = digit_sorted
        codes |= np.left_shift(digit, np.uint64(depth - 1 - h))
        cell = cell * 2 + digit.astype(np.int64)
    return codes, thresholds


def _assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _assert_same_thresholds(got, want):
    assert [(h, k) for h, k, _ in got] == [(h, k) for h, k, _ in want]
    _assert_same_bytes(np.array([m for *_, m in got], dtype=np.float64),
                       np.array([m for *_, m in want], dtype=np.float64))


def _assert_order_of(order, codes, depth, coords):
    """``order`` walks the leaves in address order, and each leaf in stable
    order along its last split axis ``(depth - 1) % d``."""
    assert order.dtype == np.int64
    _assert_same_bytes(order, np.lexsort((coords[:, (depth - 1) % coords.shape[1]], codes)))


def _assert_matches_reference(coords, depth):
    X = PointCloud(coords)
    order = build_tree(X, depth)
    codes = _addresses(order, depth)
    ref_codes, ref_thresholds = lexsort_build_tree(coords, depth)
    _assert_same_bytes(codes, ref_codes)
    _assert_same_thresholds(split_thresholds(X, depth), ref_thresholds)
    _assert_order_of(order, codes, depth, coords)


def _cell_counts(codes, depth, h):
    """The non-empty cells at depth h and their point counts, as int lists."""
    cells, counts = np.unique(codes >> np.uint64(depth - h), return_counts=True)
    return cells.tolist(), counts.tolist()


def _tied_coords(kind, rng, n, d):
    """Clouds whose ties the ranking must break by input index."""
    if kind == "clipped":  # like gaussian-pair: many coordinates exactly 0.0 or 1.0
        return np.clip(rng.normal(0.5, 0.5, (n, d)), 0.0, 1.0)
    if kind == "signed_zero":  # -0.0 == 0.0, so they tie
        coords = rng.choice([-0.0, 0.0, 0.5], size=(n, d))
        return np.where(rng.random((n, d)) < 0.2, rng.random((n, d)), coords)
    coords = rng.random((n, d))  # "constant": one column holds a single value
    coords[:, rng.integers(0, d)] = 0.25
    return coords


@st.composite
def tied_clouds(draw, n):
    """n points with ties (duplicates, integer grids, clipping, signed zeros,
    a constant column), their columns permuted."""
    d = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(
        ["uniform", "duplicates", "grid", "clipped", "signed_zero", "constant"]
    ))
    if kind == "uniform":
        coords = rng.random((n, d))
    elif kind == "duplicates":
        base = rng.random((max(1, n // 3), d))
        coords = base[rng.integers(0, base.shape[0], n)]
    elif kind == "grid":
        coords = rng.integers(0, 3, (n, d)).astype(np.float64)
    else:
        coords = _tied_coords(kind, rng, n, d)
    # A column permutation changes which coordinate each level splits on.
    return coords[:, draw(st.permutations(range(d)))]


@st.composite
def tree_inputs(draw):
    """Tied clouds of 1..80 points and depths 1..63."""
    n = draw(st.integers(min_value=1, max_value=80))
    depth = draw(st.one_of(
        st.integers(min_value=1, max_value=63),
        st.integers(min_value=1, max_value=full_depth(n) + 2),
    ))
    return draw(tied_clouds(n)), depth


@st.composite
def equal_cell_inputs(draw, bs=range(partition._SELECT_MIN_CELL, 65)):
    """Tied clouds of n = b * 2**k points, b from ``bs`` (at least the
    selection floor), so levels 1..k hold equal cells that split by selection;
    depths whose last level is one of those, or around full depth.  Rows above
    a few hundred points are what numpy's partition leaves unsorted."""
    # Sampled, not drawn as integers, which hypothesis biases towards small n.
    k = draw(st.sampled_from(range(1, 8)))
    b = draw(st.sampled_from(bs))
    n = b << k
    depth = draw(st.sampled_from([*range(2, k + 2), full_depth(n) - 1, full_depth(n), full_depth(n) + 1]))
    return draw(tied_clouds(n)), depth


class TestBuildTree:
    def test_one_dimensional_addresses(self):
        X = PointCloud(np.array([[0.1], [0.9], [0.4], [0.6]]))
        order = build_tree(X, 2)
        codes = _addresses(order, 2)
        assert _codes_as_strings(codes, 2) == ["00", "11", "01", "10"]
        # Tree-curve order must be ascending coordinate order.
        np.testing.assert_array_equal(order, [0, 2, 3, 1])
        np.testing.assert_array_equal(tree_curve_order(X), [0, 2, 3, 1])

    def test_single_point(self):
        X = PointCloud(np.array([[0.3, 0.7]]))
        order = build_tree(X, 3)
        codes = _addresses(order, 3)
        assert codes[0] == 0
        _assert_same_bytes(order, np.zeros(1, dtype=np.int64))
        assert split_thresholds(X, 3) == []

    def test_four_points_forced_counts(self):
        rng = np.random.default_rng(0)
        codes = _addresses(build_tree(PointCloud(rng.random((4, 2))), 2), 2)
        assert _cell_counts(codes, 2, 0)[1] == [4]
        assert _cell_counts(codes, 2, 1)[1] == [2, 2]
        assert _cell_counts(codes, 2, 2)[1] == [1, 1, 1, 1]

    def test_equal_mass_split_everywhere(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 7, 33, 100, 257):
            depth = full_depth(n)
            codes = _addresses(build_tree(PointCloud(rng.random((n, 3))), depth), depth)
            for h in range(depth):
                below = dict(zip(*_cell_counts(codes, depth, h + 1)))
                for k, c in zip(*_cell_counts(codes, depth, h)):
                    if c < 2:
                        continue
                    assert below.get(2 * k, 0) == (c + 1) // 2
                    assert below.get(2 * k + 1, 0) == c // 2

    @pytest.mark.parametrize("n", [1, 2, 5, 100, 1000, 4096, 65536])
    def test_depth_sufficiency_singleton_leaves(self, n):
        rng = np.random.default_rng(n)
        depth = full_depth(n)
        codes = _addresses(build_tree(PointCloud(rng.random((n, 2))), depth), depth)
        assert max(_cell_counts(codes, depth, depth)[1]) == 1

    def test_leaf_count_bound_shallow(self):
        rng = np.random.default_rng(2)
        n, depth = 100, 3
        codes = _addresses(build_tree(PointCloud(rng.random((n, 2))), depth), depth)
        bound = max(1, -(-n // 2**depth))
        assert max(_cell_counts(codes, depth, depth)[1]) <= bound

    def test_depth_bounds(self):
        X = PointCloud(np.random.default_rng(3).random((4, 2)))
        with pytest.raises(ValueError):
            build_tree(X, 0)
        with pytest.raises(ValueError, match="packing"):
            build_tree(X, 64)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        coords = rng.random((200, 3))
        o1 = build_tree(PointCloud(coords), 8)
        o2 = build_tree(PointCloud(coords), 8)
        _assert_same_bytes(o1, o2)
        _assert_same_bytes(_addresses(o1, 8), _addresses(o2, 8))
        assert split_thresholds(PointCloud(coords), 8) == split_thresholds(PointCloud(coords), 8)

    def test_tie_break_by_input_index(self):
        # Duplicate coordinates: stable split sends the earlier index left.
        X = PointCloud(np.array([[0.5], [0.5]]))
        codes = _addresses(build_tree(X, 1), 1)
        assert list(codes) == [0, 1]

    @settings(max_examples=200, deadline=None)
    @given(tree_inputs())
    def test_matches_lexsort_reference_byte_for_byte(self, case):
        _assert_matches_reference(*case)

    @settings(max_examples=100, deadline=None)
    @given(equal_cell_inputs())
    def test_selection_levels_match_lexsort_reference(self, case):
        _assert_matches_reference(*case)

    @settings(max_examples=100, deadline=None)
    @given(equal_cell_inputs(bs=range(partition._SELECT_MIN_CELL + 1, 65, 2)), st.integers(0, 2**32 - 1))
    def test_selection_needs_only_the_partition_contract(self, case, seed):
        # A stand-in for np.partition that keeps only its contract: the kth
        # entry of each row in place, no larger entry before it and no smaller
        # one after, the two sides in random order.  Odd cells (b odd) catch a
        # kth one off, and the shuffle catches any step that reads the order
        # within a child, which numpy leaves sorted on rows of a few hundred.
        rng = np.random.default_rng(seed)
        select = np.partition

        def shuffled_sides(a, kth, axis):
            out = select(a, kth, axis=axis)
            for side in (out[:, :kth + 1], out[:, kth + 1:]):
                side[...] = np.take_along_axis(side, rng.random(side.shape).argsort(axis=1), axis=1)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "partition", shuffled_sides)
            _assert_matches_reference(*case)

    @pytest.mark.parametrize("n, depth, sizes", [
        # Levels 1..12 hold equal cells of 2**15 down to 16 points.
        (2**16, full_depth(2**16), [2**p for p in range(15, 3, -1)]),
        # No level of equal cells past level 0.
        (2**15 + 3, full_depth(2**15 + 3), []),
        # Level 4 is the build's last, so it keeps the keyed sort.
        (2**16, 5, [2**15, 2**14, 2**13]),
    ])
    def test_selection_runs_on_equal_cells_but_not_the_last_level(self, monkeypatch, n, depth, sizes):
        seen = []
        select = np.partition

        def counting(a, kth, axis):
            seen.append(a.shape[1])
            return select(a, kth, axis=axis)

        monkeypatch.setattr(np, "partition", counting)
        build_tree(np.random.default_rng(n).random((n, 2)), depth)
        assert seen == sizes

    @pytest.mark.parametrize("depth", [1, 2, 63])
    def test_single_point_matches_lexsort_reference(self, depth):
        _assert_matches_reference(np.array([[0.3, 0.7]]), depth)

    @pytest.mark.parametrize("n", [4097, 6000, 65536, 65537, 2**17])
    def test_matches_lexsort_reference_at_scale(self, n):
        # Wide rank fields, both key widths (2 * bits <= 32 and above), the
        # tie repair, and the singleton skip over the two levels past full
        # depth; 2**17 takes int64 ranks through the selection levels.
        coords = _tied_coords("clipped", np.random.default_rng(n), n, 3)
        _assert_matches_reference(coords, full_depth(n) + 2)

    @pytest.mark.parametrize("n", [1, 2, 7, 300, 4097])
    def test_addresses_nondecreasing_along_order(self, n):
        coords = _tied_coords("clipped", np.random.default_rng(n), n, 2)
        full = full_depth(n)
        for depth in sorted({1, max(1, full - 2), full, full + 1, MAX_DEPTH}):
            order = build_tree(coords, depth)
            codes = _addresses(order, depth)
            _assert_order_of(order, codes, depth, coords)
            assert codes.dtype == np.uint64 and int(codes.max()) < 2**depth

    def test_sort_key_packing_bound(self):
        assert _rank_bits(1) == 0
        assert _rank_bits(2**16) == 16
        assert _rank_bits(2**31) == 31
        with pytest.raises(ValueError, match=r"n=2147483649 .*n <= 2\*\*31"):
            _rank_bits(2**31 + 1)


def _position_codes_reference(n):
    """Leaf code of each sorted position, descending one position at a time.

    A position at offset p in a cell of size s goes left (digit 0) when
    p < ceil(s/2), into a cell of size ceil(s/2); otherwise right, at offset
    p - ceil(s/2) in a cell of size floor(s/2).
    """
    offset = np.arange(n, dtype=np.int64)
    size = np.full(n, n, dtype=np.int64)
    code = np.zeros(n, dtype=np.int64)
    for _ in range(full_depth(n)):
        left = (size + 1) // 2
        right = offset >= left
        code = 2 * code + right
        offset = np.where(right, offset - left, offset)
        size = np.where(right, size // 2, left)
    return code


class TestPositionCodes:
    def test_matches_per_position_descent(self):
        for n in range(1, 4097):
            table = _position_codes(n)
            assert table.dtype == (np.uint32 if 2 * _rank_bits(n) <= 32 else np.int64)
            np.testing.assert_array_equal(table, _position_codes_reference(n) << _rank_bits(n))
        for n in (2**16, 2**16 + 1):
            np.testing.assert_array_equal(_position_codes(n), _position_codes_reference(n) << _rank_bits(n))

    def test_matches_per_position_descent_at_random_large_n(self):
        for n in map(int, np.random.default_rng(4096).integers(4097, 2**17 + 1, size=20)):
            table = _position_codes(n)
            assert table.dtype == (np.uint32 if 2 * _rank_bits(n) <= 32 else np.int64)
            np.testing.assert_array_equal(table, _position_codes_reference(n) << _rank_bits(n))

    def test_read_only_and_bounded(self):
        table = _position_codes(10)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1
        info = _position_codes.cache_info()
        assert info.maxsize == 4
        assert info.currsize <= 4

    def test_build_returns_fresh_arrays(self):
        coords = np.random.default_rng(17).random((300, 2))
        for depth in (3, full_depth(300), full_depth(300) + 2):
            order = build_tree(coords, depth)
            codes = _addresses(order, depth)
            want = order.tobytes(), codes.tobytes()
            for out in (order, codes):
                assert out.flags.writeable
                assert not np.shares_memory(out, _position_codes(300))
                out[:] = 7
            again = build_tree(coords, depth)
            assert (again.tobytes(), _addresses(again, depth).tobytes()) == want


class TestThreadSafety:
    @staticmethod
    def _run_in_pool(fn, args):
        # A short switch interval interleaves the threads often.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _position_codes.cache_clear()
            _rotation.cache_clear()
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(fn, *a) for a in args]
                return [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("sizes", [[2000] * 12, [2000, 6001, 1023, 6001, 2000, 1025] * 2])
    def test_pool_orders_match_serial(self, sizes):
        rng = np.random.default_rng(len(set(sizes)))
        clouds = [rng.random((n, 2)) for n in sizes]
        serial = [tree_curve_order(c).tobytes() for c in clouds]
        threaded = self._run_in_pool(tree_curve_order, [(c,) for c in clouds])
        assert [o.tobytes() for o in threaded] == serial

    def test_pool_plans_match_serial_at_helper_thread_size(self):
        # From 2**15 points on, rrm_plan orders Y on its own helper thread.
        rng = np.random.default_rng(18)
        pairs = [(PointCloud(rng.random((n, 2))), PointCloud(rng.random((n, 2))))
                 for n in (2**15, 3000, 2**15)]
        serial = [rrm_plan(X, Y).pi.tobytes() for X, Y in pairs]
        threaded = self._run_in_pool(rrm_plan, pairs)
        assert [p.pi.tobytes() for p in threaded] == serial

    def test_pool_merged_plans_match_serial_with_cold_variant_cache(self):
        # The first two calls draw the same rotations at once into an emptied cache.
        rng = np.random.default_rng(19)
        pairs = [(PointCloud(rng.random((n, 2))), PointCloud(rng.random((n, 2)))) for n in (500, 2000)]
        args = [(X, Y, 5, seed) for seed in (3, 4) for X, Y in pairs]
        serial = [merged_rrm(*a).pi.tobytes() for a in args]
        threaded = self._run_in_pool(merged_rrm, args)
        assert [p.pi.tobytes() for p in threaded] == serial


def _ulp_steps(x, steps):
    """Each x[i] moved by steps[i] representable doubles, one np.nextafter at a time."""
    x = x.copy()
    for s in range(1, int(np.abs(steps).max(initial=0)) + 1):
        up, down = steps >= s, steps <= -s
        x[up] = np.nextafter(x[up], np.inf)
        x[down] = np.nextafter(x[down], -np.inf)
    return x


# Both signs, signed zeros, subnormals, and magnitudes near 1 and near 1e300.
_NEAR_TIE_BASES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 0.3, -0.3, 1.0, -1.0, 1e300, -1e300]


class TestStableOrders:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([-0.0, 0.0, 0.5, 1.0, -2.5, 1e-300]), min_size=1, max_size=60)
        | st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60)
    )
    def test_matches_stable_argsort(self, values):
        c = np.array(values, dtype=np.float64)
        _assert_same_bytes(_stable_orders(c[:, None], _rank_bits(c.size))[0], np.argsort(c, kind="stable"))

    @pytest.mark.parametrize("kind", ["clipped", "signed_zero", "constant"])
    def test_matches_stable_argsort_at_scale(self, kind):
        c = _tied_coords(kind, np.random.default_rng(11), 6000, 1)
        _assert_same_bytes(_stable_orders(c, _rank_bits(c.shape[0]))[0], np.argsort(c[:, 0], kind="stable"))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_rows_match_stable_argsort_on_near_ties(self, data):
        """Values a few ulps apart share the key bits kept above an index field of 0 to 20 bits."""
        k = data.draw(st.integers(min_value=1, max_value=4))
        n = data.draw(st.integers(min_value=1, max_value=60))
        bits = data.draw(st.integers(min_value=_rank_bits(n), max_value=20))
        picks = data.draw(st.lists(
            st.tuples(st.sampled_from(_NEAR_TIE_BASES), st.integers(min_value=-8, max_value=8)),
            min_size=n * k, max_size=n * k,
        ))
        base, steps = (np.array(v).reshape(n, k) for v in zip(*picks))
        cols = _ulp_steps(base.astype(np.float64), steps)
        orders = _stable_orders(cols, bits)
        assert orders.shape == (k, n)
        for a in range(k):
            _assert_same_bytes(orders[a], np.argsort(cols[:, a], kind="stable"))

    def test_mixed_signs_without_near_ties_skip_the_repair(self, monkeypatch):
        """Keys of opposite sign differ in the top bit; compared as signed
        integers, every sign change would read as a run to repair."""
        cols = np.random.default_rng(3).normal(size=(2000, 3))
        assert (cols < 0).any(axis=0).all() and (cols > 0).any(axis=0).all()

        def no_repair(*args):
            raise AssertionError("a run was repaired")

        monkeypatch.setattr(partition, "_restore_runs", no_repair)
        orders = _stable_orders(cols, _rank_bits(2000))
        for a in range(3):
            _assert_same_bytes(orders[a], np.argsort(cols[:, a], kind="stable"))

    def test_matches_stable_argsort_at_2_pow_20(self, monkeypatch):
        """With 20 bits dropped, neighbours that share the kept bits are certain at this size."""
        c = np.random.default_rng(7).random((2**20, 1)) - 0.5
        repaired = []
        restore = partition._restore_runs
        monkeypatch.setattr(partition, "_restore_runs", lambda *args: repaired.append(restore(*args)))
        _assert_same_bytes(_stable_orders(c, _rank_bits(2**20))[0], np.argsort(c[:, 0], kind="stable"))
        assert repaired


class TestTreeCurveOrder:
    def test_sort_oracle_one_dim(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 10, 101, 512):
            coords = np.round(rng.random((n, 1)), 2)  # rounding forces ties
            order = tree_curve_order(PointCloud(coords))
            expected = np.argsort(coords[:, 0], kind="stable")
            np.testing.assert_array_equal(order, expected)

    def test_idempotent_on_ordered_input(self):
        rng = np.random.default_rng(6)
        X = PointCloud(rng.random((64, 2)))
        order = tree_curve_order(X)
        reordered = PointCloud(X.coords[order])
        np.testing.assert_array_equal(tree_curve_order(reordered), np.arange(64))

    def test_square_visits_columns(self):
        X = PointCloud(np.array([[0.2, 0.2], [0.8, 0.2], [0.2, 0.8], [0.8, 0.8]]))
        np.testing.assert_array_equal(tree_curve_order(X), [0, 2, 1, 3])

    @pytest.mark.parametrize("spec, which, digest", [
        (GeneratorSpec("uniform-box", n=4096, d=3, seed=12), 0,
         "474043466433c3bc0336a8da1d4a3b56d839870e3cc7d633ca921b0a2d54fa5e"),
        # Y of a t=0 pair: about 300 coordinates per axis clipped to exactly 0.0.
        (GeneratorSpec("gaussian-pair", n=2000, t=0.0, seed=12), 1,
         "3520b49fe5befc31c159199bb0a94a8f05c96077a3b8b244f530402c96ba4e00"),
        # The merged-uniform-64k shape: levels 1-12 hold equal cells and select.
        (GeneratorSpec("uniform-box", n=2**16, d=2, seed=12), 0,
         "6d117c8f1737dca2e87420daba56b67ca609a187b1a9f56bb91042107ef6262c"),
    ])
    def test_order_is_pinned(self, spec, which, digest):
        # Any change to the ordering kernel must keep this order.  Only the
        # unrotated clouds are pinned: rotations go through a BLAS-dependent QR.
        # The digests are those of a build that sorts on every level.
        order = tree_curve_order(gen(spec)[which])
        assert order.dtype == np.int64
        assert hashlib.sha256(order.astype("<i8").tobytes()).hexdigest() == digest

    def test_truncated_union_order_is_pinned(self):
        # A pair's 2048-point union at depth 7, as plateau builds it: levels
        # 1-5 select, and the last level sorts, so each leaf is in rank order.
        X, Y = gen(GeneratorSpec("gaussian-pair", n=1024, t=0.5, seed=12))
        order = build_tree(np.vstack([X.coords, Y.coords]), 7)
        assert hashlib.sha256(order.astype("<i8").tobytes()).hexdigest() == (
            "5aeca53e6c5ed3bad19cdfda1c53d1621ee6d9522483a2b0161a68733556ce7f")

    def test_copies_an_array_once_and_a_cloud_never(self, monkeypatch):
        made = []
        post_init = PointCloud.__post_init__

        def counting(self):
            made.append(1)
            post_init(self)

        monkeypatch.setattr(PointCloud, "__post_init__", counting)
        coords = np.random.default_rng(13).random((50, 2))
        order = tree_curve_order(coords)
        assert len(made) == 1
        cloud = PointCloud(coords)
        made.clear()
        _assert_same_bytes(tree_curve_order(cloud), order)
        assert made == []

    def test_start_axis_changes_order(self):
        # Starting the cycle at axis 1 is a column swap: rows before columns.
        coords = np.array([[0.2, 0.2], [0.8, 0.2], [0.2, 0.8], [0.8, 0.8]])
        order = tree_curve_order(PointCloud(coords[:, ::-1]))
        np.testing.assert_array_equal(order, [0, 1, 2, 3])


class TestThresholds:
    def test_two_points(self):
        X = PointCloud(np.array([[0.2], [0.8]]))
        assert split_thresholds(X, 1) == [(0, 0, 0.2)]

    def test_empirical_median_concentrates(self):
        rng = np.random.default_rng(8)
        X = PointCloud(rng.random((10_000, 1)))
        [(h, k, m)] = split_thresholds(X, 1)
        assert (h, k) == (0, 0)
        assert 0.45 <= m <= 0.55

    def test_threshold_is_last_left_coordinate(self):
        rng = np.random.default_rng(9)
        coords = rng.random((25, 1))
        [(_, _, m)] = split_thresholds(PointCloud(coords), 1)
        assert m == np.sort(coords[:, 0])[(25 + 1) // 2 - 1]

    def test_duplicated_set_matches_brute_force(self):
        rng = np.random.default_rng(10)
        base = rng.random(9)
        doubled = np.repeat(base, 2)
        [(_, _, m)] = split_thresholds(PointCloud(doubled.reshape(-1, 1)), 1)
        expected = np.sort(doubled)[(18 + 1) // 2 - 1]  # brute force over sorted order
        assert m == expected

