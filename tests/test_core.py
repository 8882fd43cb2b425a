import numpy as np
import pytest

from rrmatch.core import (
    DataFormatError,
    InvalidCloudError,
    Plan,
    PointCloud,
    SizeMismatchError,
    derive_rng,
    derive_seed,
    load_point_cloud,
    normalize_unit_box,
    plan_squared_cost,
    save_point_cloud,
)


class TestPointCloud:
    def test_shape_and_finiteness(self):
        cloud = PointCloud(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert cloud.n == 2 and cloud.d == 2

    def test_rejects_nan_with_index(self):
        coords = np.ones((3, 2))
        coords[1, 0] = np.nan
        with pytest.raises(InvalidCloudError, match="point 1, axis 0"):
            PointCloud(coords)

    def test_rejects_empty(self):
        with pytest.raises(InvalidCloudError):
            PointCloud(np.empty((0, 2)))

    def test_coords_read_only(self):
        cloud = PointCloud(np.ones((2, 2)))
        with pytest.raises(ValueError):
            cloud.coords[0, 0] = 5.0

    def test_keeps_callers_array_writeable(self):
        coords = np.ones((2, 2))
        cloud = PointCloud(coords)
        coords[0, 0] = 5.0
        assert cloud.coords[0, 0] == 1.0

    def test_signed_zero_hashes_like_zero(self):
        # -0.0 == 0.0, so equal clouds must hash alike (diagnostics caches on them).
        a, b = PointCloud([[0.0, 1.0]]), PointCloud([[-0.0, 1.0]])
        assert a == b
        assert hash(a) == hash(b)


class TestPlan:
    def test_rejects_duplicate_targets(self):
        with pytest.raises(ValueError, match=r"pi\[1\] = 0 repeats .* distinct"):
            Plan(pi=np.array([0, 0, 1]), squared_costs=np.zeros(3))
        with pytest.raises(ValueError, match=r"pi\[3\] = 2 repeats"):
            Plan(pi=np.array([0, 2, 1, 2, 0]), squared_costs=np.zeros(5))

    def test_rejects_unassigned_and_names_it(self):
        with pytest.raises(ValueError, match=r"pi\[1\] = -1 is outside \[0, 3\)"):
            Plan(pi=np.array([1, -1, 0]), squared_costs=[0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"pi\[1\] = -1 is outside"):
            Plan(pi=np.array([2, -1, 2, -1]), squared_costs=np.zeros(4))
        with pytest.raises(ValueError, match=r"pi\[0\] = 3 is outside \[0, 3\)"):
            Plan(pi=np.array([3, 0, 1]), squared_costs=np.zeros(3))
        plan = Plan(pi=np.array([1, 2, 0]), squared_costs=[0.5, 0.0, 0.0])
        assert plan.rms == pytest.approx(np.sqrt(0.5 / 3))

    @pytest.mark.parametrize("pi, dtype", [
        (np.array([0.9, 1.7]), "float64"),
        ([1.0, 0.0], "float64"),
        (np.array([True, False]), "bool"),
        (np.array([1, 0], dtype=object), "object"),
    ])
    def test_rejects_non_integer_index_arrays(self, pi, dtype):
        with pytest.raises(ValueError, match=f"integer dtype, got {dtype}"):
            Plan(pi=pi, squared_costs=np.zeros(2))
        X = PointCloud(np.random.default_rng(4).random((2, 2)))
        with pytest.raises(ValueError, match=f"integer dtype, got {dtype}"):
            plan_squared_cost(X, X, pi)

    def test_empty_index_array_keeps_its_size_error(self):
        X = PointCloud(np.random.default_rng(5).random((3, 2)))
        with pytest.raises(ValueError, match="non-empty"):
            Plan(pi=[], squared_costs=[])
        with pytest.raises(SizeMismatchError, match="plan size"):
            plan_squared_cost(X, X, [])

    def test_accepts_any_integer_dtype(self):
        plan = Plan(pi=np.array([1, 0], dtype=np.uint8), squared_costs=np.zeros(2))
        assert plan.pi.dtype == np.int64

    def test_inverse(self):
        plan = Plan(pi=np.array([2, 0, 1]), squared_costs=np.zeros(3))
        inv = plan.inverse()
        assert (inv[plan.pi] == np.arange(3)).all()

    def test_keeps_callers_array_writeable(self):
        pi, costs = np.arange(3), np.array([0.5, 0.0, 2.0])
        plan = Plan(pi=pi, squared_costs=costs)
        pi[0], costs[0] = 1, 7.0
        np.testing.assert_array_equal(plan.pi, [0, 1, 2])
        np.testing.assert_array_equal(plan.squared_costs, [0.5, 0.0, 2.0])
        assert plan.squared_cost_sum == 2.5
        with pytest.raises(ValueError):
            plan.pi[0] = 1
        with pytest.raises(ValueError):
            plan.squared_costs[0] = 1.0

    def test_total_is_the_row_order_sum_of_its_costs(self):
        costs = np.random.default_rng(6).random(1001)
        costs[::7] *= 1e12  # wide magnitudes, so the bits depend on the summation order
        plan = Plan(pi=np.arange(costs.size), squared_costs=costs)
        assert plan.squared_costs.dtype == np.float64
        assert plan.squared_cost_sum == float(costs.sum())
        assert type(plan.squared_cost_sum) is float

    @pytest.mark.parametrize("size", [0, 2, 4])
    def test_rejects_costs_of_the_wrong_length(self, size):
        with pytest.raises(SizeMismatchError, match=rf"squared_costs shape \({size},\) does not match"):
            Plan(pi=np.arange(3), squared_costs=np.zeros(size))
        with pytest.raises(SizeMismatchError, match="does not match"):
            Plan(pi=np.arange(3), squared_costs=np.zeros((3, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_total(self, bad):
        with pytest.raises(ValueError, match=f"squared_costs must have a finite sum, got {bad}"):
            Plan(pi=np.arange(3), squared_costs=[1.0, bad, 0.0])
        # Finite entries whose total overflows are rejected too.
        big = np.finfo(np.float64).max
        with pytest.raises(ValueError, match="finite sum, got inf"):
            Plan(pi=np.arange(2), squared_costs=[big, big])

    def test_rejects_a_negative_entry_and_names_it(self):
        with pytest.raises(ValueError, match=r"squared_costs\[2\] = -0.5 is negative"):
            Plan(pi=np.arange(4), squared_costs=[1.0, 0.0, -0.5, 3.0])
        plan = Plan(pi=np.arange(2), squared_costs=[-0.0, 1.0])  # -0.0 is not negative
        assert plan.squared_cost_sum == 1.0

    def test_checks_pi_before_its_costs(self):
        with pytest.raises(ValueError, match=r"pi\[1\] = 0 repeats"):
            Plan(pi=np.array([0, 0]), squared_costs=[np.nan])

    def test_cost_rejects_entry_out_of_range(self):
        rng = np.random.default_rng(7)
        X = PointCloud(rng.random((5, 2)))
        Y = PointCloud(rng.random((5, 2)))
        with pytest.raises(ValueError, match=r"pi\[0\] = -2 is outside \[0, 5\)"):
            plan_squared_cost(X, Y, np.array([-2, 0, 1, 2, 3]))
        with pytest.raises(ValueError, match=r"pi\[3\] = -1 is outside"):
            plan_squared_cost(X, Y, np.array([3, 4, 0, -1, 1]))
        with pytest.raises(ValueError, match=r"pi\[4\] = 5 is outside"):
            plan_squared_cost(X, Y, np.array([0, 1, 2, 3, 5]))

    @pytest.mark.parametrize("size", [1, 4, 6])
    def test_cost_rejects_wrong_length(self, size):
        rng = np.random.default_rng(8)
        X = PointCloud(rng.random((5, 2)))
        with pytest.raises(SizeMismatchError, match="plan size"):
            plan_squared_cost(X, X, np.zeros(size, dtype=np.int64))

    def test_cost_recompute_matches(self):
        rng = np.random.default_rng(3)
        X = PointCloud(rng.random((20, 3)))
        Y = PointCloud(rng.random((20, 3)))
        pi = rng.permutation(20)
        cost = plan_squared_cost(X, Y, pi)
        direct = sum(np.sum((X.coords[i] - Y.coords[pi[i]]) ** 2) for i in range(20))
        assert cost == pytest.approx(direct, rel=1e-12)


class TestNormalize:
    def test_joint_two_point_example(self):
        # The union spans [2, 4] x [4, 8]: one scale, the widest range 4.
        X = PointCloud(np.array([[2.0, 4.0], [4.0, 8.0]]))
        Y = PointCloud(np.array([[3.0, 6.0], [2.0, 4.0]]))
        Xn, Yn = normalize_unit_box(X, Y, "joint")
        np.testing.assert_allclose(Xn.coords, [[0.0, 0.0], [0.5, 1.0]])
        np.testing.assert_allclose(Yn.coords, [[0.25, 0.5], [0.0, 0.0]])

    def test_degenerate_axis_maps_to_center(self):
        X = PointCloud(np.array([[7.0]]))
        Xn, Yn = normalize_unit_box(X, X, "joint")
        assert Xn.coords[0, 0] == 0.5 and Yn.coords[0, 0] == 0.5

    def test_uniform_box_attains_bounds(self):
        # Oracle: direct min/max of the joint input.  Every axis starts at 0;
        # the widest spans [0, 1], the others their share of its range.
        rng = np.random.default_rng(11)
        X = PointCloud(rng.uniform(-5, 5, (100, 2)))
        Y = PointCloud(rng.uniform(-5, 5, (100, 2)))
        Xn, Yn = normalize_unit_box(X, Y, "joint")
        both = np.vstack([Xn.coords, Yn.coords])
        raw = np.vstack([X.coords, Y.coords])
        extent = raw.max(axis=0) - raw.min(axis=0)
        assert (both >= 0).all() and (both <= 1).all()
        np.testing.assert_allclose(both.min(axis=0), 0.0, atol=1e-15)
        np.testing.assert_allclose(both.max(axis=0), extent / extent.max(), rtol=1e-15)
        assert both.max() == 1.0

    def test_joint_idempotent_on_normalized_data(self):
        rng = np.random.default_rng(4)
        coords = rng.random((50, 3))
        coords[0] = 0.0
        coords[1] = 1.0
        X = PointCloud(coords)
        Xn, Yn = normalize_unit_box(X, X, "joint")
        np.testing.assert_array_equal(Xn.coords, coords)

    def test_per_cloud_mode(self):
        rng = np.random.default_rng(5)
        X = PointCloud(rng.uniform(0, 1, (30, 2)))
        Y = PointCloud(rng.uniform(10, 20, (30, 2)))
        Xn, Yn = normalize_unit_box(X, Y, "per-cloud")
        for raw, cloud in ((X, Xn), (Y, Yn)):
            extent = raw.coords.max(axis=0) - raw.coords.min(axis=0)
            np.testing.assert_allclose(cloud.coords.min(axis=0), 0.0, atol=1e-12)
            np.testing.assert_allclose(cloud.coords.max(axis=0), extent / extent.max(), rtol=1e-12)
            assert cloud.coords.max() == 1.0

    def test_joint_scales_every_distance_by_one_factor(self):
        # An x range 10 times the y range: a per-axis map would stretch y tenfold.
        rng = np.random.default_rng(6)
        X = PointCloud(rng.random((40, 2)) * [10.0, 1.0] + [3.0, -7.0])
        Y = PointCloud(rng.random((40, 2)) * [10.0, 1.0] + [3.5, -7.0])
        Xn, Yn = normalize_unit_box(X, Y, "joint")
        raw = np.vstack([X.coords, Y.coords])
        scale = (raw.max(axis=0) - raw.min(axis=0)).max()
        for a, b, an, bn in ((X, Y, Xn, Yn), (X, X, Xn, Xn), (Y, Y, Yn, Yn)):
            d = np.linalg.norm(a.coords[:, None] - b.coords[None], axis=2)
            dn = np.linalg.norm(an.coords[:, None] - bn.coords[None], axis=2)
            np.testing.assert_allclose(dn * scale, d, rtol=1e-12, atol=1e-12)

    def test_constant_axis_maps_to_center(self):
        X = PointCloud(np.array([[0.0, 2.0], [4.0, 2.0]]))
        Y = PointCloud(np.array([[1.0, 2.0], [3.0, 2.0]]))
        Xn, Yn = normalize_unit_box(X, Y, "joint")
        np.testing.assert_array_equal(Xn.coords, [[0.0, 0.5], [1.0, 0.5]])
        np.testing.assert_array_equal(Yn.coords, [[0.25, 0.5], [0.75, 0.5]])


class TestIO:
    def test_csv_trivial_parse(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("0.1,0.2\n0.3,0.4\n")
        cloud = load_point_cloud(p)
        assert cloud.n == 2 and cloud.d == 2
        np.testing.assert_allclose(cloud.coords, [[0.1, 0.2], [0.3, 0.4]])

    def test_csv_header_and_crlf(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_bytes(b"# x,y\r\n1,2\r\n3,4\r\n")
        cloud = load_point_cloud(p)
        assert cloud.n == 2

    def test_csv_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_point_cloud(p)

    def test_csv_non_numeric_reports_line(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2\n3,zap\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_point_cloud(p)

    def test_csv_round_trip_textual(self, tmp_path):
        rng = np.random.default_rng(7)
        X = PointCloud(rng.random((3, 3)))
        p = tmp_path / "x.csv"
        save_point_cloud(X, p)
        back = load_point_cloud(p)
        np.testing.assert_array_equal(back.coords, X.coords)  # 17 sig digits round-trip exactly

    def test_pcf_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(8)
        X = PointCloud(rng.standard_normal((1000, 5)))
        p = tmp_path / "x.pcf"
        save_point_cloud(X, p)
        back = load_point_cloud(p)
        assert back.coords.tobytes() == X.coords.tobytes()

    def test_pcf_bad_magic(self, tmp_path):
        p = tmp_path / "x.pcf"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataFormatError, match="magic"):
            load_point_cloud(p)

    def test_pcf_empty_cloud(self, tmp_path):
        import struct

        p = tmp_path / "x.pcf"
        p.write_bytes(b"PCF1" + struct.pack("<II", 0, 2))
        with pytest.raises(DataFormatError, match="empty cloud"):
            load_point_cloud(p)

    def test_pcf_truncated_payload(self, tmp_path):
        import struct

        p = tmp_path / "x.pcf"
        p.write_bytes(b"PCF1" + struct.pack("<II", 2, 2) + b"\x00" * 8)
        with pytest.raises(DataFormatError, match="offset 12"):
            load_point_cloud(p)

    def test_unsupported_format(self, tmp_path):
        X = PointCloud(np.ones((1, 1)))
        with pytest.raises(ValueError, match="format"):
            save_point_cloud(X, tmp_path / "x.bin", "bin")
        with pytest.raises(ValueError):
            save_point_cloud(X, tmp_path / "x.dat")

    def test_csv_pcf_same_data_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        X = PointCloud(rng.random((64, 2)))
        save_point_cloud(X, tmp_path / "x.csv")
        save_point_cloud(X, tmp_path / "x.pcf")
        a = load_point_cloud(tmp_path / "x.csv")
        b = load_point_cloud(tmp_path / "x.pcf")
        assert a.coords.tobytes() == b.coords.tobytes()


class TestRng:
    def test_same_path_same_stream(self):
        a = derive_rng(42, 1, 2).random(5)
        b = derive_rng(42, 1, 2).random(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = derive_rng(42, 1, 2).random(5)
        b = derive_rng(42, 2, 1).random(5)
        assert not np.array_equal(a, b)

    def test_order_independent(self):
        # Deriving one path must not perturb another.
        first = derive_rng(7, 3).random(4)
        derive_rng(7, 1).random(100)
        again = derive_rng(7, 3).random(4)
        np.testing.assert_array_equal(first, again)

    def test_derive_seed_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)

    @pytest.mark.parametrize("derive", [derive_rng, derive_seed])
    def test_negative_seed_is_named(self, derive):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            derive(-1, 2)
