import dataclasses
import hashlib
import itertools
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from rrmatch import matching, srrm
from rrmatch.core import (
    CapExceededError,
    Plan,
    PointCloud,
    SizeMismatchError,
    _pair_costs,
    derive_rng,
    derive_seed,
    plan_squared_cost,
)
from rrmatch.generators import GeneratorSpec, gen
from rrmatch.matching import (
    RunVariant,
    exact_plan,
    exact_w2,
    hungarian,
    merge_pair,
    merged_rrm,
    rrm_plan,
    squared_distance_matrix,
)
from rrmatch.srrm import (
    _TAG_ROUND,
    UNASSIGNED,
    SrrmConfig,
    finalize_hungarian,
    sample_near,
    select,
    srrm_match,
)


def straddling_rings():
    """Eight nearby cross-pairs straddling the two center splits, two radii."""
    xs, ys = [], []
    off = 0.075
    for rad in (0.375, 0.2):
        xs += [(0.5 - off, 0.5 + rad), (0.5 + off, 0.5 - rad), (0.5 + rad, 0.5 + off), (0.5 - rad, 0.5 - off)]
        ys += [(0.5 + off, 0.5 + rad), (0.5 - off, 0.5 - rad), (0.5 + rad, 0.5 - off), (0.5 - rad, 0.5 + off)]
    return PointCloud(np.array(xs)), PointCloud(np.array(ys))


class TestSampleNear:
    def test_zero_anchors(self):
        P = PointCloud(np.random.default_rng(0).random((5, 2)))
        assert sample_near(P, 0).shape == (0, 2)

    def test_lone_point_uses_fallback_scale(self):
        P = PointCloud(np.array([[0.5, 0.5]]))
        anchors = sample_near(P, 3, seed=1)
        assert anchors.shape == (3, 2)
        dist = np.linalg.norm(anchors - P.coords, axis=1)
        assert (dist < 5 * 0.01).all()

    def test_anchors_land_at_neighbor_scale(self):
        # Anchor-to-source NN distances should track same-set NN distances.
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(2)
        P = PointCloud(rng.random((1000, 2)))
        anchors = sample_near(P, 2, seed=3)
        assert anchors.shape == (2000, 2)
        assert (anchors >= 0).all() and (anchors <= 1).all()
        tree = cKDTree(P.coords)
        anchor_nn = tree.query(anchors, k=1)[0]
        same_set_nn = tree.query(P.coords, k=2)[0][:, 1]
        assert np.median(anchor_nn) < 2 * np.median(same_set_nn)

    def test_deterministic(self):
        P = PointCloud(np.random.default_rng(4).random((20, 3)))
        np.testing.assert_array_equal(sample_near(P, 2, seed=9), sample_near(P, 2, seed=9))


class TestSelect:
    def test_identity_on_reals_all_good(self):
        T = Plan(pi=np.arange(6), squared_costs=np.zeros(6))
        good, keep_x, keep_y = select(T, 4)
        np.testing.assert_array_equal(good, np.column_stack([np.arange(4), np.arange(4)]))
        assert keep_x.size == 0 and keep_y.size == 0

    def test_all_reals_to_anchors(self):
        # 3 reals, 3 anchors; every real maps into the anchor block.
        T = Plan(pi=np.array([3, 4, 5, 0, 1, 2]), squared_costs=np.zeros(6))
        good, keep_x, keep_y = select(T, 3)
        assert good.size == 0
        np.testing.assert_array_equal(keep_x, [0, 1, 2])
        np.testing.assert_array_equal(keep_y, [0, 1, 2])

    def test_hand_instance_one_real_pair(self):
        # m=3 reals, 2 anchors: real 1 -> real 0 is the only real-real pair.
        T = Plan(pi=np.array([3, 0, 4, 2, 1]), squared_costs=np.zeros(5))
        good, keep_x, keep_y = select(T, 3)
        np.testing.assert_array_equal(good, [[1, 0]])
        np.testing.assert_array_equal(keep_x, [0, 2])
        np.testing.assert_array_equal(keep_y, [1, 2])
        assert keep_x.size == keep_y.size

    def test_leftover_counts_always_match(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            total = int(rng.integers(2, 12))
            m = int(rng.integers(1, total + 1))
            T = Plan(pi=rng.permutation(total), squared_costs=np.zeros(total))
            _, keep_x, keep_y = select(T, m)
            assert keep_x.size == keep_y.size


class TestFinalize:
    def test_complete_plan_untouched(self):
        rng = np.random.default_rng(6)
        X = PointCloud(rng.random((8, 2)))
        Y = PointCloud(rng.random((8, 2)))
        plan = hungarian(X.coords, Y.coords)
        completed = finalize_hungarian(X, Y, plan.pi)
        np.testing.assert_array_equal(completed.pi, plan.pi)
        assert completed.squared_cost_sum == plan_squared_cost(X, Y, plan.pi)

    def test_empty_plan_equals_full_hungarian(self):
        rng = np.random.default_rng(7)
        X = PointCloud(rng.random((10, 2)))
        Y = PointCloud(rng.random((10, 2)))
        full = hungarian(X.coords, Y.coords)
        assert finalize_hungarian(X, Y, np.full(10, UNASSIGNED)).squared_cost_sum == pytest.approx(
            full.squared_cost_sum, rel=1e-12
        )

    def test_residual_matches_brute_force(self):
        rng = np.random.default_rng(8)
        X = PointCloud(rng.random((9, 2)))
        Y = PointCloud(rng.random((9, 2)))
        pi = np.full(9, UNASSIGNED)
        pi[:4] = [8, 7, 6, 5]  # pre-commit four pairs, leave a 5x5 residual
        committed = float(((X.coords[:4] - Y.coords[pi[:4]]) ** 2).sum())
        completed = finalize_hungarian(X, Y, pi)
        rows = np.arange(4, 9)
        cols = np.array([0, 1, 2, 3, 4])
        sub = squared_distance_matrix(X.coords[rows], Y.coords[cols])
        best = min(
            sub[np.arange(5), list(perm)].sum() for perm in itertools.permutations(range(5))
        )
        assert completed.squared_cost_sum - committed == pytest.approx(best, abs=1e-12)
        np.testing.assert_array_equal(completed.pi[:4], pi[:4])
        assert (pi[4:] == UNASSIGNED).all()  # the caller's array is left as it was

    @pytest.mark.parametrize("n, residual", [(9, 1), (9, 4), (12, 7), (80, 60)])
    def test_far_translated_residual_keeps_the_uncentred_optimum(self, n, residual):
        rng = np.random.default_rng(residual)
        X = PointCloud(rng.random((n, 2)))
        Y = PointCloud(rng.random((n, 2)) + np.array([1e3, -4e2]))
        pi = np.full(n, UNASSIGNED)
        rows = np.sort(rng.choice(n, residual, replace=False))
        committed = np.setdiff1d(np.arange(n), rows)
        cols = np.sort(rng.choice(n, residual, replace=False))
        pi[committed] = rng.permutation(np.setdiff1d(np.arange(n), cols))
        completed = finalize_hungarian(X, Y, pi)
        np.testing.assert_array_equal(completed.pi[committed], pi[committed])
        assert completed.squared_cost_sum == plan_squared_cost(X, Y, completed.pi)
        sub = squared_distance_matrix(X.coords[rows], Y.coords[cols])
        r, c = linear_sum_assignment(sub)
        uncentred = pi.copy()
        uncentred[rows[r]] = cols[c]
        want = plan_squared_cost(X, Y, uncentred)
        assert abs(completed.squared_cost_sum - want) <= 1e-12 * want
        if residual <= 7:
            committed_cost = float(((X.coords[committed] - Y.coords[pi[committed]]) ** 2).sum())
            best = min(sub[np.arange(residual), list(perm)].sum()
                       for perm in itertools.permutations(range(residual)))
            assert completed.squared_cost_sum == pytest.approx(committed_cost + best, rel=1e-12)

    def test_rejects_a_non_integer_partial(self):
        X = PointCloud(np.random.default_rng(12).random((3, 2)))
        with pytest.raises(ValueError, match="integer dtype, got float64"):
            finalize_hungarian(X, X, np.array([0.9, -1.0, 2.2]))

    @pytest.mark.parametrize("size", [5, 7])
    def test_plan_size_must_match_clouds(self, size):
        rng = np.random.default_rng(9)
        X = PointCloud(rng.random((6, 2)))
        Y = PointCloud(rng.random((6, 2)))
        pi = np.full(size, UNASSIGNED)
        pi[0] = 0
        with pytest.raises(SizeMismatchError, match="plan size"):
            finalize_hungarian(X, Y, pi)

    @pytest.mark.parametrize("partial, message", [
        ([3, -1, 3, -1, 0, -1], r"pi\[2\] = 3 repeats an earlier target"),
        ([-1, 6, -1, 0, -1, 1], r"pi\[1\] = 6 is outside \[0, 6\)"),
        ([0, -1, -2, -1, 1, 2], r"pi\[2\] = -2 is outside \[0, 6\)"),
    ])
    def test_committed_targets_checked_and_named(self, partial, message):
        rng = np.random.default_rng(10)
        X = PointCloud(rng.random((6, 2)))
        Y = PointCloud(rng.random((6, 2)))
        with pytest.raises(ValueError, match=message):
            finalize_hungarian(X, Y, np.array(partial))

    def test_cap(self):
        # The message names the buffer the solve would need and the setting
        # that allows it; the check runs before any buffer is built.
        rng = np.random.default_rng(9)
        X = PointCloud(rng.random((1024, 2)))
        Y = PointCloud(rng.random((1024, 2)))
        with pytest.raises(
            CapExceededError,
            match=r"size 1024 exceeds cap 1000; its exact solve needs a 1024x1024 float64 buffer "
            r"\(8\.0 MiB\): raise SrrmConfig\.hungarian_cap \(CLI --cap\)",
        ):
            finalize_hungarian(X, Y, np.full(1024, UNASSIGNED), cap=1000)

    def test_overflowing_residual_is_named(self):
        rng = np.random.default_rng(11)
        X, Y = PointCloud(1e160 * rng.random((6, 2))), PointCloud(1e160 * rng.random((6, 2)))
        pi = np.array([0, UNASSIGNED, 1, UNASSIGNED, UNASSIGNED, 2])
        with pytest.raises(ValueError, match="squared distances between the points overflow float64"):
            finalize_hungarian(X, Y, pi)

    def test_residual_plan_bytes_pinned(self):
        # A 200-point residual whose row minima collide, so the warm start
        # runs; the digest is the solver's plan before it moved to one buffer.
        X, Y = gen(GeneratorSpec("gaussian-pair", n=600, t=0.5, seed=11))
        pi = rrm_plan(X, Y).pi.copy()
        pi[::3] = UNASSIGNED
        completed = finalize_hungarian(X, Y, pi)
        assert hashlib.sha256(completed.pi.tobytes()).hexdigest() == (
            "f01a6cdcf41969c77d4d69a76379c89474636c192eade59d4f44ec1732388a3a"
        )
        assert completed.squared_cost_sum == pytest.approx(143.48690021589198, rel=1e-12)


class TestSrrmMatch:
    def test_negative_seed_is_named(self):
        rng = np.random.default_rng(9)
        X, Y = PointCloud(rng.random((20, 2))), PointCloud(rng.random((20, 2)))
        for call in (lambda: SrrmConfig(seed=-1), lambda: merged_rrm(X, Y, 3, seed=-1),
                     lambda: sample_near(X, 2, seed=-1)):
            with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
                call()

    def test_self_match_is_zero(self):
        rng = np.random.default_rng(10)
        X = PointCloud(rng.random((50, 2)))
        result = srrm_match(X, X, SrrmConfig(rounds=3, anchors_per_point=2, merge_runs=4, seed=1))
        assert result.value == 0.0

    @pytest.mark.parametrize(
        "field, value",
        [("rounds", 2.5), ("merge_runs", 2.5), ("anchors_per_point", 1.5), ("hungarian_cap", 10.5),
         ("seed", 5.0), ("rounds", "3")],
    )
    def test_non_integer_count_is_named_at_construction(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got {value!r}$"):
            SrrmConfig(**{field: value})

    def test_integer_types_are_accepted(self):
        cfg = SrrmConfig(rounds=np.int64(2), anchors_per_point=np.int32(1), merge_runs=np.uint8(3),
                         hungarian_cap=np.int64(64), seed=np.uint64(4))
        rng = np.random.default_rng(11)
        X, Y = PointCloud(rng.random((30, 2))), PointCloud(rng.random((30, 2)))
        result = srrm_match(X, Y, cfg)
        assert result == srrm_match(X, Y, SrrmConfig(rounds=2, anchors_per_point=1, merge_runs=3,
                                                     hungarian_cap=64, seed=4))

    def test_call_arguments_are_named_when_not_integers(self):
        rng = np.random.default_rng(12)
        X, Y = PointCloud(rng.random((8, 2))), PointCloud(rng.random((8, 2)))
        with pytest.raises(TypeError, match="^runs must be an integer, got 2.5$"):
            merged_rrm(X, Y, 2.5)
        with pytest.raises(TypeError, match="^k must be an integer, got 1.5$"):
            sample_near(X, 1.5)
        # One run draws no variant, yet its seed is checked all the same.
        with pytest.raises(TypeError, match="^seed must be an integer, got 5.0$"):
            merged_rrm(X, Y, 1, seed=5.0)
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            merged_rrm(X, Y, 1, seed=-1)

    def test_results_compare_and_hash_by_value(self):
        rng = np.random.default_rng(13)
        X, Y = PointCloud(rng.random((40, 2))), PointCloud(rng.random((40, 2)))
        cfg = SrrmConfig(rounds=3, anchors_per_point=1, merge_runs=3, seed=5)
        a, b = srrm_match(X, Y, cfg), srrm_match(X, Y, cfg)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != dataclasses.replace(a, guard_applied=not a.guard_applied)
        assert a != dataclasses.replace(a, plan=rrm_plan(X, Y))

    def test_zero_rounds_rejected_naming_the_merged_plan(self):
        with pytest.raises(ValueError, match=r"rounds must be >= 1; the zero-round plan is "
                           r"merged_rrm\(X, Y, merge_runs, seed\)"):
            SrrmConfig(rounds=0)

    def test_zero_anchors_commits_merged_plan(self):
        rng = np.random.default_rng(12)
        X = PointCloud(rng.random((30, 2)))
        Y = PointCloud(rng.random((30, 2)))
        cfg = SrrmConfig(rounds=4, anchors_per_point=0, merge_runs=4, seed=3, guard=False)
        result = srrm_match(X, Y, cfg)
        assert result.history == (0,)  # everything matched real-to-real in round one
        round_zero = merged_rrm(X, Y, 4, seed=derive_seed(3, _TAG_ROUND, 0))
        assert result.plan.pi.tobytes() == round_zero.pi.tobytes()

    def test_recovers_exact_on_straddling_rings(self):
        X, Y = straddling_rings()
        e = exact_w2(X, Y)
        assert rrm_plan(X, Y).rms > 2 * e  # the single run is fooled by the splits
        for seed in range(3):
            result = srrm_match(
                X, Y, SrrmConfig(rounds=10, anchors_per_point=5, merge_runs=10, seed=seed)
            )
            assert result.value == pytest.approx(e, abs=1e-9)

    @pytest.mark.xfail(
        strict=True,
        reason="sample_near clips anchors to the unit box: on a +5 translation round 0 "
        "commits every point, so screening is silently off",
    )
    def test_translation_equivariant(self):
        X, Y = gen(GeneratorSpec("gaussian-pair", n=400, t=1.0, seed=3))
        cfg = SrrmConfig(rounds=10, anchors_per_point=5, merge_runs=8, seed=3, guard=False)
        base = srrm_match(X, Y, cfg)
        moved = srrm_match(PointCloud(X.coords + 5.0), PointCloud(Y.coords + 5.0), cfg)
        assert moved.history == base.history
        assert moved.plan.pi.tobytes() == base.plan.pi.tobytes()

    def test_guard_dominates_merged(self):
        rng = np.random.default_rng(13)
        for seed in range(10):
            X = PointCloud(rng.random((36, 3)))
            Y = PointCloud(rng.random((36, 3)))
            cfg = SrrmConfig(rounds=3, anchors_per_point=2, merge_runs=5, seed=seed)
            assert (
                srrm_match(X, Y, cfg).plan.squared_cost_sum
                <= merged_rrm(X, Y, 5, seed=seed).squared_cost_sum + 1e-12
            )

    def test_oracle_sandwich(self):
        rng = np.random.default_rng(14)
        for seed in range(10):
            X = PointCloud(rng.random((24, 2)))
            Y = PointCloud(rng.random((24, 2)))
            cfg = SrrmConfig(rounds=4, anchors_per_point=3, merge_runs=4, seed=seed)
            assert srrm_match(X, Y, cfg).value >= exact_w2(X, Y) - 1e-12

    def test_history_monotone_and_equal_leftovers(self):
        rng = np.random.default_rng(15)
        X = PointCloud(rng.random((120, 2)))
        Y = PointCloud(rng.random((120, 2)))
        result = srrm_match(X, Y, SrrmConfig(rounds=6, anchors_per_point=2, merge_runs=4, seed=4))
        sizes = [120, *result.history]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_reproducible(self):
        rng = np.random.default_rng(16)
        X = PointCloud(rng.random((60, 2)))
        Y = PointCloud(rng.random((60, 2)))
        cfg = SrrmConfig(rounds=5, anchors_per_point=3, merge_runs=5, seed=77)
        a = srrm_match(X, Y, cfg)
        b = srrm_match(X, Y, cfg)
        assert a.value == b.value
        assert a.history == b.history
        assert a.plan.pi.tobytes() == b.plan.pi.tobytes()

    def test_residual_cap_error(self):
        rng = np.random.default_rng(17)
        X = PointCloud(rng.random((64, 2)))
        Y = PointCloud(rng.random((64, 2)))
        probe = srrm_match(X, Y, SrrmConfig(rounds=1, anchors_per_point=4, merge_runs=3, seed=5))
        assert probe.residual > 0
        with pytest.raises(CapExceededError, match="hungarian_cap"):
            srrm_match(
                X,
                Y,
                SrrmConfig(
                    rounds=1,
                    anchors_per_point=4,
                    merge_runs=3,
                    seed=5,
                    hungarian_cap=probe.residual - 1,
                ),
            )

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        d=st.integers(min_value=1, max_value=4),
        rounds=st.integers(min_value=1, max_value=4),
        anchors=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_always_a_bijection(self, n, d, rounds, anchors, seed):
        rng = derive_rng(seed)
        X = PointCloud(rng.random((n, d)))
        Y = PointCloud(rng.random((n, d)))
        cfg = SrrmConfig(rounds=rounds, anchors_per_point=anchors, merge_runs=2, seed=seed)
        result = srrm_match(X, Y, cfg)
        assert result.plan.n == n
        assert np.unique(result.plan.pi).size == n

    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(["gaussian-pair", "line-mixture", "opening-angle"]),
        n=st.integers(min_value=20, max_value=150),
        anchors=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(family="line-mixture", n=120, anchors=0, seed=7)
    def test_guard_fires_only_on_a_different_plan(self, family, n, anchors, seed):
        X, Y = gen(GeneratorSpec(family, n=n, seed=seed, t=0.5, delta=0.3))
        cfg = SrrmConfig(rounds=4, anchors_per_point=anchors, merge_runs=4, seed=seed)
        guarded = srrm_match(X, Y, cfg)
        unguarded = srrm_match(X, Y, dataclasses.replace(cfg, guard=False))
        if guarded.guard_applied:
            assert guarded.plan.pi.tobytes() != unguarded.plan.pi.tobytes()
            assert guarded.plan.squared_cost_sum < unguarded.plan.squared_cost_sum
        else:
            assert guarded.plan.pi.tobytes() == unguarded.plan.pi.tobytes()
            assert guarded.plan.squared_cost_sum == unguarded.plan.squared_cost_sum

    def test_outputs_bytes_pinned(self):
        # The permutation digest dates from before the pipeline was split into
        # screen, completion and guard, and from before every plan's total was
        # summed one way: neither change moved a permutation.  The full digest
        # also hashes the totals' bits and the guard flags.  In the last case
        # the guard's merged plan is the pipeline's own permutation, so it
        # does not fire.  The cases cover the guard firing, not firing and
        # off, anchors 0, 1 and 5, rounds=1 and two early exits.
        cases = [
            ("gaussian-pair", dict(n=200, t=1.0, seed=3), dict(rounds=10, anchors_per_point=5, seed=3)),
            ("gaussian-pair", dict(n=200, t=1.0, seed=3),
             dict(rounds=10, anchors_per_point=5, seed=3, guard=False)),
            ("gaussian-pair", dict(n=200, t=0.5, seed=4),
             dict(rounds=1, anchors_per_point=1, merge_runs=5, seed=4)),
            ("perturbed-copy", dict(n=300, d=3, alpha=5e-3, seed=5),
             dict(rounds=10, anchors_per_point=5, seed=5)),
            ("perturbed-copy", dict(n=300, d=2, alpha=5e-3, seed=6),
             dict(rounds=10, anchors_per_point=1, seed=6)),
            ("line-mixture", dict(n=120, seed=7),
             dict(rounds=4, anchors_per_point=0, merge_runs=4, seed=7, guard=False)),
            ("line-mixture", dict(n=120, seed=7), dict(rounds=4, anchors_per_point=0, merge_runs=4, seed=7)),
        ]
        digest, pi_digest = hashlib.sha256(), hashlib.sha256()
        fired = []
        for family, spec, cfg in cases:
            X, Y = gen(GeneratorSpec(family, **spec))
            result = srrm_match(X, Y, SrrmConfig(**cfg))
            digest.update(result.plan.pi.tobytes())
            pi_digest.update(result.plan.pi.tobytes())
            digest.update(struct.pack("<2d", result.plan.squared_cost_sum, result.value))
            digest.update(repr((result.history, result.residual, result.guard_applied)).encode())
            fired.append(result.guard_applied)
        assert fired == [True, False, True, True, False, False, False]
        assert pi_digest.hexdigest() == "624b906e54b6f85edd188ebb0e67551992c39ffe25229bcc873c8206b23e7304"
        assert digest.hexdigest() == "346f9028493bf32ee897a5c904df5f6a14eaba64874e9102823d66dffea7485f"

    def test_last_mile_sanity(self):
        # Nearly identical clouds: screening recovers what a single run loses.
        ratios_srrm, ratios_single = [], []
        for seed in range(5):
            rng = derive_rng(seed, 9)
            x = rng.random((300, 2))
            y = x + 5e-4 * rng.standard_normal((300, 2))
            X, Y = PointCloud(x), PointCloud(np.clip(y, 0, 1))
            e = exact_w2(X, Y)
            cfg = SrrmConfig(rounds=6, anchors_per_point=3, merge_runs=8, seed=seed)
            ratios_srrm.append(srrm_match(X, Y, cfg).value / e)
            ratios_single.append(rrm_plan(X, Y).rms / e)
        assert np.median(ratios_srrm) <= 1.1
        assert np.median(ratios_single) >= 2.0


def _every_builder(X, Y, seed):
    """One plan from each function of the library that builds a Plan."""
    variant = rrm_plan(X, Y, RunVariant.random(X.d, seed, 1))
    partial = variant.pi.copy()
    partial[derive_rng(seed, 5).random(X.n) < 0.3] = UNASSIGNED
    cfg = SrrmConfig(rounds=3, anchors_per_point=2, merge_runs=4, seed=seed)
    return {
        "rrm_plan": variant,
        "merged_rrm": merged_rrm(X, Y, 4, seed),
        "merge_pair": merge_pair(rrm_plan(X, Y), variant),
        "hungarian": hungarian(X.coords, Y.coords),
        "exact_plan": exact_plan(X, Y),
        "finalize_hungarian": finalize_hungarian(X, Y, partial),
        "srrm_match": srrm_match(X, Y, cfg).plan,
        "srrm_match unguarded": srrm_match(X, Y, dataclasses.replace(cfg, guard=False)).plan,
    }


class TestOneSummationRule:
    @pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (10.0, 0.0), (1.0, 5.0)])
    def test_every_plan_stores_its_recomputed_total(self, scale, shift):
        specs = [
            GeneratorSpec("gaussian-pair", n=120, t=0.5),
            GeneratorSpec("line-mixture", n=150, frac_bads=0.2),
            GeneratorSpec("opening-angle", n=130, delta=0.4),
            GeneratorSpec("perturbed-copy", n=140, alpha=0.01),
        ]
        mismatched = []
        for seed in range(3):
            for spec in specs:
                X, Y = gen(dataclasses.replace(spec, seed=seed))
                X, Y = PointCloud(scale * X.coords + shift), PointCloud(scale * Y.coords + shift)
                for name, plan in _every_builder(X, Y, seed).items():
                    costs = _pair_costs(X.coords, Y.coords, plan.pi)
                    if (
                        plan.squared_costs.tobytes() != costs.tobytes()
                        or plan.squared_cost_sum != plan_squared_cost(X, Y, plan.pi)
                    ):
                        mismatched.append((spec.family, seed, name))
        assert mismatched == []

    def test_pair_costs_are_evaluated_once_per_plan_built_from_clouds(self, monkeypatch):
        # merge_pair reads its plans' costs, so merged_rrm evaluates pair costs
        # once per run, and srrm_match once per run of each round and of the
        # guard, once in the residual's exact solve and once in finalize_hungarian.
        calls = []

        def counted(x, y, pi):
            calls.append(pi.size)
            return _pair_costs(x, y, pi)

        for module in (matching, srrm):
            monkeypatch.setattr(module, "_pair_costs", counted)
        X, Y = gen(GeneratorSpec("gaussian-pair", n=400, t=1.0, seed=3))
        merged_rrm(X, Y, 8, seed=1)
        assert len(calls) == 8
        calls.clear()
        cfg = SrrmConfig(rounds=10, anchors_per_point=1, merge_runs=5, seed=1)
        result = srrm_match(X, Y, cfg)
        assert result.residual > 0
        assert len(calls) == 5 * len(result.history) + 5 + 1 + 1
