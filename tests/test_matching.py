import dataclasses
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from rrmatch import generators, matching
from rrmatch.core import (
    CapExceededError,
    InvalidCloudError,
    Plan,
    PointCloud,
    SizeMismatchError,
    derive_rng,
    plan_squared_cost,
)
from rrmatch.matching import (
    _TAG_VARIANT,
    _WALK_MIN_N,
    _WALK_STRIDE,
    RunVariant,
    _cycle_labels,
    _z_order,
    exact_plan,
    exact_w2,
    hungarian,
    merge_pair,
    merged_rrm,
    rrm_plan,
    squared_distance_matrix,
)
from rrmatch.partition import tree_curve_order


def _random_pair(rng, n, d):
    return PointCloud(rng.random((n, d))), PointCloud(rng.random((n, d)))


def brute_force_assignment_cost(cost):
    """Factorial enumeration oracle for the minimum assignment cost."""
    n = cost.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, cost[np.arange(n), perm].sum())
    return best


class TestRrmPlan:
    def test_self_match_is_zero(self):
        rng = np.random.default_rng(0)
        X = PointCloud(rng.random((33, 3)))
        plan = rrm_plan(X, X)
        assert plan.squared_cost_sum == 0.0
        np.testing.assert_array_equal(X.coords[plan.pi], X.coords)

    def test_one_dim_sorted_matching(self):
        X = PointCloud(np.array([[0.0], [1.0]]))
        Y = PointCloud(np.array([[0.1], [0.9]]))
        assert rrm_plan(X, Y).rms == pytest.approx(0.1, abs=1e-15)

    def test_upper_bounds_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            X, Y = _random_pair(rng, 32, 3)
            assert rrm_plan(X, Y).rms >= exact_w2(X, Y) - 1e-12

    def test_size_mismatch(self):
        rng = np.random.default_rng(2)
        with pytest.raises(SizeMismatchError):
            rrm_plan(PointCloud(rng.random((4, 2))), PointCloud(rng.random((5, 2))))

    def test_cost_in_original_coordinates(self):
        # A rotation variant changes the plan, never the cost functional.
        rng = np.random.default_rng(3)
        X, Y = _random_pair(rng, 40, 2)
        variant = RunVariant.random(2, seed=9, index=1)
        plan = rrm_plan(X, Y, variant)
        assert plan.squared_cost_sum == pytest.approx(
            plan_squared_cost(X, Y, plan.pi), rel=1e-12
        )


def _serial_rrm_plan(X, Y, variant):
    """rrm_plan as one thread computes it: X's ordering, then Y's."""
    rot = variant.rotation
    pi = np.empty(X.n, dtype=np.int64)
    pi[tree_curve_order(X.coords @ rot.T)] = tree_curve_order(Y.coords @ rot.T)
    return Plan(pi=pi, squared_cost_sum=plan_squared_cost(X, Y, pi))


def _send_merged_cost(X, Y, conn):
    conn.send(merged_rrm(X, Y, 2).squared_cost_sum)
    conn.close()


class TestHelperThread:
    """From 2**15 points on, rrm_plan orders Y on a helper thread."""

    @pytest.mark.parametrize("n", [2**15 - 1, 2**15, 2**16])
    def test_plans_match_serial_reference(self, n):
        X, Y = _random_pair(np.random.default_rng(n), n, 2)
        variant = RunVariant.random(2, 3, 1)
        plan, ref = rrm_plan(X, Y, variant), _serial_rrm_plan(X, Y, variant)
        assert plan.pi.tobytes() == ref.pi.tobytes()
        assert plan.squared_cost_sum == ref.squared_cost_sum

        ref = _serial_rrm_plan(X, Y, RunVariant.identity(2))
        for i in (1, 2):
            ref = merge_pair(ref, _serial_rrm_plan(X, Y, RunVariant.random(2, 7, i)), X, Y)
        merged = merged_rrm(X, Y, 3, seed=7)
        assert merged.pi.tobytes() == ref.pi.tobytes()
        assert merged.squared_cost_sum == ref.squared_cost_sum

    @pytest.mark.parametrize(
        "n, affinity, cpu_count, threads",
        [
            (2**15, {0, 1}, 2, 2),
            (2**15 - 1, {0, 1}, 2, 1),
            (2**15, {0}, 2, 1),
            (2**15, None, 2, 2),  # no affinity call: fall back to cpu_count
            (2**15, None, 1, 1),
        ],
    )
    def test_helper_only_when_large_and_multicore(self, monkeypatch, n, affinity, cpu_count, threads):
        seen = []

        def recording_order(X):
            seen.append(threading.get_ident())
            return tree_curve_order(X)

        monkeypatch.setattr(matching, "tree_curve_order", recording_order)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        X, Y = _random_pair(np.random.default_rng(0), n, 2)
        alive = threading.active_count()
        rrm_plan(X, Y)
        assert len(seen) == 2 and threading.get_ident() in seen
        assert len(set(seen)) == threads
        assert threading.active_count() == alive  # the helper is gone

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("n", [2**15 - 1, 2**15])
    def test_ordering_error_reaches_caller_unchanged(self, n):
        # Rotating 1.5e308 overflows to inf, which Y's ordering rejects.
        X = PointCloud(np.random.default_rng(1).random((n, 2)))
        Y = PointCloud(np.full((n, 2), 1.5e308))
        with pytest.raises(InvalidCloudError, match="non-finite coordinate"):
            rrm_plan(X, Y, RunVariant.random(2, 0, 1))

    def test_fork_child_after_parent_call(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        X, Y = _random_pair(np.random.default_rng(2), 2**15, 2)
        expected = merged_rrm(X, Y, 2).squared_cost_sum
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_send_merged_cost, args=(X, Y, send))
        child.start()
        send.close()
        try:
            assert recv.poll(60), "forked child gave no answer within 60 s"
            assert recv.recv() == expected
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0


class TestMetricAxioms:
    def test_identity(self):
        rng = np.random.default_rng(4)
        X = PointCloud(rng.random((21, 2)))
        assert rrm_plan(X, X).rms == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            X, Y = _random_pair(rng, 17, 2)
            assert rrm_plan(X, Y).rms == pytest.approx(rrm_plan(Y, X).rms, abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            X, Y = _random_pair(rng, 16, 3)
            Z = PointCloud(rng.random((16, 3)))
            assert rrm_plan(X, Z).rms <= rrm_plan(X, Y).rms + rrm_plan(Y, Z).rms + 1e-9


def cycle_labels_reference(tau):
    """Walk each cycle from its smallest index; number cycles in that order."""
    labels = [-1] * len(tau)
    current = 0
    for start in range(len(tau)):
        if labels[start] >= 0:
            continue
        i = start
        while labels[i] < 0:
            labels[i] = current
            i = int(tau[i])
        current += 1
    return labels


def scipy_cycle_labels(tau):
    """SciPy's strong components of i -> tau[i], the labelling below the walk's threshold."""
    n = tau.size
    graph = csr_matrix((np.ones(n), tau, np.arange(n + 1)), shape=(n, n))
    return connected_components(graph, connection="strong")[1].astype(np.int64)


def assert_same_partition(labels, reference):
    """Both labellings put the same indices together, whatever their numbers."""
    labels, reference = np.asarray(labels).tolist(), np.asarray(reference).tolist()
    pairs = set(zip(labels, reference))
    assert len(pairs) == len(set(labels)) == len(set(reference))


class TestCycleLabels:
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_identity_gives_one_cycle_per_index(self, n):
        np.testing.assert_array_equal(_cycle_labels(np.arange(n)), np.arange(n))

    @pytest.mark.parametrize("n", [2, 5, 64, 1000])
    def test_single_n_cycle(self, n):
        tau = np.roll(np.arange(n), -1)
        np.testing.assert_array_equal(_cycle_labels(tau), np.zeros(n, dtype=np.int64))

    def test_random_permutations_match_reference(self):
        rng = np.random.default_rng(12)
        taus = [rng.permutation(n) for n in (1, 2, 3, 10, 100, 1000) for _ in range(20)]
        taus.append(rng.permutation(2**16))
        # Near identity: thousands of one-index cycles to number, and a few swaps.
        near_identity = np.arange(5000)
        swaps = rng.choice(5000, size=(40, 2), replace=False)
        near_identity[swaps[:, 0]], near_identity[swaps[:, 1]] = swaps[:, 1], swaps[:, 0]
        taus.append(near_identity)
        for tau in taus:
            labels = _cycle_labels(tau)
            assert labels.dtype == np.int64
            assert_same_partition(labels, cycle_labels_reference(tau))


class TestWalkLabels:
    """From _WALK_MIN_N points on, cycles are labelled by the splitter walk."""

    def _check(self, tau):
        labels = _cycle_labels(tau)
        assert labels.dtype == np.int64
        assert 0 <= labels.min() and labels.max() < tau.size
        assert_same_partition(labels, cycle_labels_reference(tau))
        assert_same_partition(labels, scipy_cycle_labels(tau))

    @pytest.mark.parametrize("n", [_WALK_MIN_N, 2**16 + 1])
    def test_identity(self, n):
        self._check(np.arange(n))

    @pytest.mark.parametrize("n", [_WALK_MIN_N, 2**16 + 1])
    def test_single_n_cycle(self, n):
        self._check(np.roll(np.arange(n), -1))

    @pytest.mark.parametrize("n", [2**16, 2**16 + 1])
    def test_random_permutations(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            self._check(rng.permutation(n))

    def test_near_identity(self):
        rng = np.random.default_rng(31)
        n = 2**16
        tau = np.arange(n)
        moved = rng.choice(n, size=2000, replace=False)
        tau[moved] = rng.permutation(moved)
        assert (tau == np.arange(n)).sum() > 60000
        self._check(tau)

    def test_cycles_that_avoid_every_splitter(self):
        rng = np.random.default_rng(32)
        n = 2**16
        tau = np.arange(n)
        free = np.flatnonzero(tau % _WALK_STRIDE != 0)
        tau[free] = rng.permutation(free)
        self._check(tau)
        # Splitter-free cycles below n/2, cycles through splitters above it.
        low, high = free[free < n // 2], np.arange(n // 2, n)
        tau = np.arange(n)
        tau[low], tau[high] = rng.permutation(low), rng.permutation(high)
        self._check(tau)

    def test_long_gap_exhausts_the_walk_and_doubles_the_whole_permutation(self, monkeypatch):
        # One n-cycle through every non-splitter before it reaches a splitter.
        n = 2**16
        idx = np.arange(n)
        order = np.concatenate([idx[idx % _WALK_STRIDE != 0], idx[idx % _WALK_STRIDE == 0]])
        tau = np.empty(n, dtype=np.int64)
        tau[order] = np.roll(order, -1)
        doubled = []
        min_index_labels = matching._min_index_labels

        def spy(nxt):
            doubled.append(nxt.size)
            return min_index_labels(nxt)

        monkeypatch.setattr(matching, "_min_index_labels", spy)
        start = time.perf_counter()
        labels = _cycle_labels(tau)
        elapsed = time.perf_counter() - start
        assert doubled == [n]
        assert_same_partition(labels, np.zeros(n, dtype=np.int64))
        # About 7 ms on a 2-vCPU Xeon; a walk without its step budget takes
        # about n steps of Python-level loop.
        assert elapsed < 1.0

    @pytest.mark.parametrize("n", [2**16, 2**17])
    def test_merged_plans_match_scipy_labelling(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        X, Y = _random_pair(rng, n, 2)
        walked = merged_rrm(X, Y, 4, seed=2)
        monkeypatch.setattr(matching, "_cycle_labels", scipy_cycle_labels)
        reference = merged_rrm(X, Y, 4, seed=2)
        np.testing.assert_array_equal(walked.pi, reference.pi)
        assert walked.squared_cost_sum == reference.squared_cost_sum


class TestMergePair:
    def test_merge_with_self_is_identity(self):
        rng = np.random.default_rng(7)
        X, Y = _random_pair(rng, 20, 2)
        p = rrm_plan(X, Y)
        merged = merge_pair(p, p, X, Y)
        np.testing.assert_array_equal(merged.pi, p.pi)

    def test_merge_with_self_keeps_the_total(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            X, Y = _random_pair(rng, 50, 2)
            for p in (rrm_plan(X, Y), merged_rrm(X, Y, 4, seed=1), hungarian(X.coords, Y.coords)):
                assert merge_pair(p, p, X, Y).squared_cost_sum == p.squared_cost_sum

    def test_merge_with_optimal_keeps_optimal(self):
        rng = np.random.default_rng(8)
        X, Y = _random_pair(rng, 15, 2)
        optimal = hungarian(X.coords, Y.coords)
        other = rrm_plan(X, Y, RunVariant.random(2, seed=1, index=1))
        merged = merge_pair(optimal, other, X, Y)
        assert merged.squared_cost_sum == pytest.approx(optimal.squared_cost_sum, rel=1e-12)

    def test_two_cycles_pick_best_of_each(self):
        # Cycle {0,1}: p assigns identically (cost 0), q swaps (cost 2).
        # Cycle {2,3}: p swaps (cost 2), q assigns identically (cost 0).
        X = PointCloud(np.array([[0.0], [1.0], [10.0], [11.0]]))
        Y = PointCloud(np.array([[0.0], [1.0], [10.0], [11.0]]))
        p = Plan(pi=np.array([0, 1, 3, 2]), squared_cost_sum=2.0)
        q = Plan(pi=np.array([1, 0, 2, 3]), squared_cost_sum=2.0)
        merged = merge_pair(p, q, X, Y)
        assert merged.squared_cost_sum == 0.0
        np.testing.assert_array_equal(merged.pi, [0, 1, 2, 3])

    def test_never_worse_than_either(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            X, Y = _random_pair(rng, 24, 2)
            p = rrm_plan(X, Y)
            q = rrm_plan(X, Y, RunVariant.random(2, seed=int(rng.integers(1 << 30)), index=1))
            merged = merge_pair(p, q, X, Y)
            assert merged.squared_cost_sum <= min(p.squared_cost_sum, q.squared_cost_sum) + 1e-12


class TestMergedRrm:
    def test_single_run_equals_identity_plan(self):
        rng = np.random.default_rng(10)
        X, Y = _random_pair(rng, 30, 2)
        np.testing.assert_array_equal(merged_rrm(X, Y, 1, seed=5).pi, rrm_plan(X, Y).pi)

    def test_more_runs_never_hurt(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            X, Y = _random_pair(rng, 28, 2)
            assert (
                merged_rrm(X, Y, 10, seed=trial).squared_cost_sum
                <= merged_rrm(X, Y, 1, seed=trial).squared_cost_sum + 1e-12
            )

    def test_nested_monotonicity(self):
        rng = np.random.default_rng(12)
        X, Y = _random_pair(rng, 40, 3)
        costs = [merged_rrm(X, Y, k, seed=3).squared_cost_sum for k in range(1, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))

    def test_lower_bounded_by_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            X, Y = _random_pair(rng, 48, 2)
            assert merged_rrm(X, Y, 16, seed=1).rms >= exact_w2(X, Y) - 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        X, Y = _random_pair(rng, 25, 3)
        a = merged_rrm(X, Y, 6, seed=99)
        b = merged_rrm(X, Y, 6, seed=99)
        np.testing.assert_array_equal(a.pi, b.pi)
        assert a.squared_cost_sum == b.squared_cost_sum

    def test_cost_recomputable_after_merge_sequence(self):
        rng = np.random.default_rng(21)
        X, Y = _random_pair(rng, 60, 3)
        plan = merged_rrm(X, Y, 10, seed=4)
        assert plan.squared_cost_sum == plan_squared_cost(X, Y, plan.pi)


@pytest.fixture
def solved(monkeypatch):
    """Copies of the matrices hungarian passes to the solver, in call order."""
    seen = []

    def recording(cost):
        seen.append(cost.copy())
        return linear_sum_assignment(cost)

    monkeypatch.setattr(matching, "linear_sum_assignment", recording)
    return seen


def _centred_costs(x, y):
    return squared_distance_matrix(x - x.mean(axis=0), y - y.mean(axis=0))


def _hub_pair(rng, n):
    """x a small cluster, y its centre plus n - 1 points on a circle of radius 10.

    After centring, every source's nearest target is y[0], so the row minima
    collide and the solver runs.
    """
    angles = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(n - 1) / (n - 1)
    y = np.vstack([[0.0, 0.0], 10.0 * np.column_stack([np.cos(angles), np.sin(angles)])])
    return rng.random((n, 2)) - 0.5, y


class TestHungarian:
    def test_identity_favoring_matrix(self):
        x = np.eye(5)
        plan = hungarian(x, x)
        np.testing.assert_array_equal(plan.pi, np.arange(5))
        assert plan.squared_cost_sum == 0.0

    def test_all_equal_matrix(self):
        # Coincident clouds: every squared distance is 1.5² + 0.5² = 2.5.
        plan = hungarian(np.zeros((6, 2)), np.tile([1.5, 0.5], (6, 1)))
        assert sorted(plan.pi) == list(range(6))
        assert plan.squared_cost_sum == pytest.approx(15.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            x, y = rng.random((7, 2)), rng.random((7, 2))
            assert hungarian(x, y).squared_cost_sum == pytest.approx(
                brute_force_assignment_cost(squared_distance_matrix(x, y)), abs=1e-12
            )

    def test_rejects_non_finite(self):
        # Spread 1e160: every squared distance between the two halves is 1e320.
        x = np.array([[0.0, 0.0], [1e160, 0.0]])
        with pytest.raises(ValueError, match="squared distances between the points overflow float64"):
            hungarian(x, x + 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_is_reported(self, bad):
        x = np.ones((2, 2))
        x[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite coordinates"):
            hungarian(x, np.ones((2, 2)))
        with pytest.raises(ValueError, match="non-finite coordinates"):
            hungarian(np.ones((2, 2)), x)

    def test_rejects_non_square(self):
        with pytest.raises(SizeMismatchError, match="equal shapes"):
            hungarian(np.ones((2, 2)), np.ones((3, 2)))
        with pytest.raises(SizeMismatchError, match="equal shapes"):
            hungarian(np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(SizeMismatchError, match="n >= 1"):
            hungarian(np.ones((0, 2)), np.ones((0, 2)))

    def test_negative_zero_is_not_negative(self):
        plan = hungarian(np.array([[-0.0], [1.0]]), np.array([[0.0], [1.0]]))
        np.testing.assert_array_equal(plan.pi, [0, 1])
        assert plan.squared_cost_sum == 0.0
        assert math.copysign(1.0, plan.squared_cost_sum) == 1.0

    def test_mean_overflow_keeps_min_reductions(self, solved):
        # Two clusters 10 apart, at a scale where each squared distance is
        # finite (at most about 0.7 of the float64 maximum) but the reduced
        # matrix keeps every cross-cluster cost, so its sum, and with it the
        # mean that sets the warm start's temperature, overflows.
        rng = np.random.default_rng(23)
        s = math.sqrt(np.finfo(np.float64).max / 200.0)
        x, y = (s * np.vstack([rng.random((4, 2)), rng.random((2, 2)) + [10.0, 0.0]]) for _ in range(2))
        plan = hungarian(x, y)
        cost = _centred_costs(x, y)[:, _z_order(y)]  # the solver sees the targets in Z-order
        a = cost.min(axis=1)
        reduced = cost - a[:, None]
        reduced -= reduced.min(axis=0)
        with np.errstate(over="ignore"):
            assert np.isfinite(cost).all() and not np.isfinite(reduced.sum())
        assert len(solved) == 1
        np.testing.assert_array_equal(solved[0], reduced)
        assert plan.squared_cost_sum == pytest.approx(
            brute_force_assignment_cost(squared_distance_matrix(x, y)), rel=1e-12
        )

    def test_distinct_row_minima_skip_the_solver(self, monkeypatch):
        def refuse(cost):
            raise AssertionError("linear_sum_assignment called on a plain assignment")

        monkeypatch.setattr(matching, "linear_sum_assignment", refuse)
        X, Y = generators.gen(generators.GeneratorSpec("perturbed-copy", n=300, d=2, seed=5))
        plan = hungarian(X.coords, Y.coords)
        assert plan.pi.dtype == np.int64
        np.testing.assert_array_equal(plan.pi, np.arange(300))
        assert plan.squared_cost_sum == 0.0
        assert exact_w2(X, Y) == 0.0

    def test_colliding_row_minima_match_brute_force(self, solved):
        rng = np.random.default_rng(16)
        for n in range(3, 9):
            for _ in range(10):
                x, y = _hub_pair(rng, n)
                plan = hungarian(x, y)
                assert sorted(plan.pi) == list(range(n))
                assert plan.squared_cost_sum == pytest.approx(
                    brute_force_assignment_cost(squared_distance_matrix(x, y)), rel=1e-12
                )
        assert len(solved) == 60

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(("random", *generators.FAMILIES, "ties", "constant", "spread")),
        n=st.integers(1, 24),
        scale=st.sampled_from((1e-6, 1.0, 1e6)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_total_matches_plain_solver(self, kind, n, scale, seed):
        x, y = _point_pair(kind, n, seed)
        x, y = scale * x, scale * y
        cost = squared_distance_matrix(x, y)
        rows, cols = linear_sum_assignment(cost)
        want = cost[rows, cols].sum()
        plan = hungarian(x, y)
        assert abs(plan.squared_cost_sum - want) <= 1e-12 * want
        assert plan.squared_cost_sum == pytest.approx(
            plan_squared_cost(PointCloud(x), PointCloud(y), plan.pi), rel=1e-12
        )
        # The same targets in another file order: an optimum of the same total.
        p = np.random.default_rng(seed).permutation(n)
        assert abs(hungarian(x, y[p]).squared_cost_sum - want) <= 1e-12 * want

    @pytest.mark.parametrize("kind", ("random", "gaussian-pair", "ties", "constant", "spread"))
    def test_reduction_scales_with_the_costs(self, kind, solved):
        # Powers of two scale every step exactly, so a temperature fixed in
        # absolute units, not relative to the costs, shows as a mismatch.
        x, y = _point_pair(kind, 40, 3)
        for k in (0, -10, 10):
            hungarian(2.0**k * x, 2.0**k * y)
        assert len(solved) == 3
        for k, scaled in zip((-10, 10), solved[1:]):
            np.testing.assert_array_equal(scaled, 4.0**k * solved[0])

    def test_reduction_prices_the_optimum_near_zero(self, solved):
        x, y = _point_pair("gaussian-pair", 200, 5)
        hungarian(x, y)
        reduced = solved[0]
        cost = _centred_costs(x, y)[:, _z_order(y)]  # the solver sees the targets in Z-order
        rows, cols = linear_sum_assignment(cost)
        spread = cost.max() - cost.min()
        assert np.isfinite(reduced).all()
        assert np.abs(reduced[rows, cols]).max() <= 0.05 * spread

    def test_non_finite_scalings_keep_min_reductions(self, solved, monkeypatch):
        # An absurd relaxation factor drives the scalings out of (0, inf) in
        # the first pass; the warm start then keeps the min-reductions.
        monkeypatch.setattr(matching, "_WARM_OMEGA", 50.0)
        x, y = _point_pair("gaussian-pair", 60, 8)
        plan = hungarian(x, y)
        cost = _centred_costs(x, y)[:, _z_order(y)]
        reduced = cost - cost.min(axis=1)[:, None]
        reduced -= reduced.min(axis=0)
        assert len(solved) == 1
        assert np.isfinite(solved[0]).all()
        np.testing.assert_array_equal(solved[0], reduced)
        plain = squared_distance_matrix(x, y)
        want = plain[linear_sum_assignment(plain)].sum()
        assert abs(plan.squared_cost_sum - want) <= 1e-12 * want

    def test_unique_optimum_plans_pinned(self, solved):
        # Pairs of every family with no repeated point, so each has one
        # optimum; the digest of the plans and their totals was taken before
        # the warm start's passes were over-relaxed, and any warm start must
        # keep it.
        digest = hashlib.sha256()
        pairs = (
            ("gaussian-pair", {"t": 0.5}),
            ("line-mixture", {"frac_bads": 0.5}),
            ("opening-angle", {"delta": 0.3}),
            ("perturbed-copy", {"d": 2, "alpha": 0.05}),
            ("perturbed-copy", {"d": 3, "alpha": 0.05}),
            ("uniform-box", {}),
        )
        for family, params in pairs:
            for seed in (0, 1):
                X, Y = generators.gen(generators.GeneratorSpec(family, n=256, seed=seed, **params))
                if Y is None:
                    Y, _ = generators.gen(generators.GeneratorSpec(family, n=256, seed=seed + 100))
                for cloud in (X, Y):
                    assert len(np.unique(cloud.coords, axis=0)) == 256
                plan = hungarian(X.coords, Y.coords)
                digest.update(plan.pi.tobytes())
                digest.update(np.float64(plan.squared_cost_sum).tobytes())
        assert len(solved) == 12  # every pair went through the warm start and the solver
        assert digest.hexdigest() == "07204c6578d02093e412f98acd48888c965d80fb3dd052a8426a70f12387cb0a"

    @pytest.mark.parametrize("pair", ("gaussian-pair", "validate-1k"))
    def test_target_order_is_invisible(self, pair):
        # Pairs with a unique optimum: the plan and its total keep their bits
        # whatever order the targets come in.
        if pair == "validate-1k":  # the pair test_plan_bytes_pinned solves
            spec = generators.GeneratorSpec("gaussian-pair", n=1024, t=0.5, seed=17579876663566485232)
            x, y = (cloud.coords for cloud in generators.gen(spec))
        else:
            x, y = _point_pair("gaussian-pair", 200, 9)
        want = hungarian(x, y)
        n = len(y)
        for p in (np.random.default_rng(4).permutation(n), np.arange(n)[::-1], _z_order(y)):
            plan = hungarian(x, y[p])
            np.testing.assert_array_equal(p[plan.pi], want.pi)
            assert plan.squared_cost_sum == want.squared_cost_sum


def _point_pair(kind, n, seed):
    """Two (n, d) point arrays of the named kind."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.random((n, 2)), rng.random((n, 2))
    if kind == "ties":  # duplicated points: many optimal assignments
        return tuple(rng.integers(0, 3, (2, n, 2)).astype(np.float64))
    if kind == "constant":  # coincident clouds: every distance equal, reduced scale 0
        return np.tile(rng.random(2), (n, 1)), np.tile(rng.random(2), (n, 1))
    if kind == "spread":  # coordinates from 1 to 1000
        return tuple(10.0 ** rng.uniform(0.0, 3.0, (2, n, 2)))
    spec = generators.GeneratorSpec(kind, n=n, seed=seed, t=0.5, frac_bads=0.3, delta=0.2,
                                    alpha=0.05)
    X, Y = generators.gen(spec)
    if Y is None:
        Y, _ = generators.gen(dataclasses.replace(spec, seed=seed + 1))
    return X.coords, Y.coords


class TestExactPlan:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 24),
        d=st.integers(1, 3),
        duplicated=st.booleans(),
        scale=st.sampled_from((1e-6, 1.0, 1e6)),
        shift=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_total_matches_the_uncentred_solve(self, n, d, duplicated, scale, shift, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.random((n, d)), rng.random((n, d))
        if duplicated:  # few distinct points: many tied optima
            x, y = x[rng.integers(0, 3, n) % n], y[rng.integers(0, 3, n) % n]
        X, Y = PointCloud(scale * x), PointCloud(scale * y + shift * rng.random(d))
        cost = squared_distance_matrix(X, Y)
        rows, cols = linear_sum_assignment(cost)
        want = cost[rows, cols].sum()
        plan = exact_plan(X, Y)
        assert abs(plan.squared_cost_sum - want) <= 1e-12 * want
        assert plan.squared_cost_sum == plan_squared_cost(X, Y, plan.pi)
        assert exact_w2(X, Y) == plan.rms

    def test_solver_sees_centred_clouds(self, monkeypatch):
        seen = []

        def recording(x, y, out=None):
            seen.append((x.copy(), y.copy()))
            return squared_distance_matrix(x, y, out=out)

        monkeypatch.setattr(matching, "squared_distance_matrix", recording)
        rng = np.random.default_rng(20)
        x, y = rng.random((16, 2)), rng.random((16, 2))
        exact_plan(PointCloud(x), PointCloud(y + 100.0))
        z = _z_order(y + 100.0)  # the targets reach the solver in Z-order
        assert len(seen) == 2  # the distances, and again after the warm start
        for got_x, got_y in seen:
            np.testing.assert_allclose(got_x, x - x.mean(axis=0), rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(got_y, (y - y.mean(axis=0))[z], rtol=1e-9, atol=1e-12)

    def test_plan_bytes_pinned(self):
        # The pair validate-1k solves at seed 1 (bench/workloads.py:
        # instance_seed(1, 3, 0)); the digest is the solver's plan before it
        # moved to one buffer.
        spec = generators.GeneratorSpec("gaussian-pair", n=1024, t=0.5, seed=17579876663566485232)
        plan = exact_plan(*generators.gen(spec))
        assert hashlib.sha256(plan.pi.tobytes()).hexdigest() == (
            "ba41c2624787525d8b9a8b5198ad014cdde22e10c9c9191da5ddaba664ef93a2"
        )
        assert plan.squared_cost_sum == pytest.approx(249.0124299490274, rel=1e-12)

    def test_peak_memory_is_one_buffer(self, monkeypatch):
        calls = []

        def counted(cost):
            calls.append(cost.shape)
            return linear_sum_assignment(cost)

        monkeypatch.setattr(matching, "linear_sum_assignment", counted)
        n = 512
        X, Y = generators.gen(generators.GeneratorSpec("gaussian-pair", n=n, t=0.5, seed=1))
        exact_plan(X, Y)  # imports and first-call set-up stay outside the trace
        tracemalloc.start()
        try:
            exact_plan(X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [(n, n)] * 2  # the warm start and the solver ran
        assert peak <= 1.25 * n * n * 8


class TestZOrder:
    @staticmethod
    def _check(points):
        z = _z_order(points)
        assert z.dtype == np.int64
        np.testing.assert_array_equal(np.sort(z), np.arange(len(points)))
        np.testing.assert_array_equal(_z_order(points.copy()), z)
        return z

    def test_one_point(self):
        np.testing.assert_array_equal(self._check(np.array([[3.5, -1.0]])), [0])

    def test_one_dim_is_sorted_order(self):
        x = np.random.default_rng(30).permutation(50).astype(np.float64)[:, None]
        np.testing.assert_array_equal(self._check(x), np.argsort(x[:, 0], kind="stable"))

    def test_constant_axis_maps_to_zero(self):
        free = np.random.default_rng(31).permutation(40).astype(np.float64)
        np.testing.assert_array_equal(self._check(np.column_stack([np.full(40, 7.0), free])), np.argsort(free))
        np.testing.assert_array_equal(self._check(np.full((9, 3), -2.0)), np.arange(9))

    def test_interleaves_bits_axis_by_axis(self):
        # A 4 x 4 grid: 0..3 quantise to 0b00..., 0b01..., 0b10..., 0b11...,
        # so each point's key begins a1 b1 a0 b0 for its coordinates (a, b).
        grid = np.array([(a, b) for a in range(4) for b in range(4)], dtype=np.float64)
        key = [(a >> 1) << 3 | (b >> 1) << 2 | (a & 1) << 1 | (b & 1) for a, b in grid.astype(int)]
        np.testing.assert_array_equal(self._check(grid[::-1]), np.argsort(key[::-1]))

    def test_extreme_scales(self):
        # The overflow-scale pair of test_mean_overflow_keeps_min_reductions,
        # and a spread past the float64 maximum; nothing overflows.
        rng = np.random.default_rng(23)
        s = math.sqrt(np.finfo(np.float64).max / 200.0)
        big = np.finfo(np.float64).max
        with np.errstate(all="raise"):
            self._check(s * np.vstack([rng.random((4, 2)), rng.random((2, 2)) + [10.0, 0.0]]))
            np.testing.assert_array_equal(self._check(np.array([[big], [-big], [0.0]])), [1, 2, 0])

    def test_many_axes_use_one_bit_each(self):
        points = np.random.default_rng(32).random((30, 70))
        self._check(points)


class TestExactW2:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(16)
        X = PointCloud(rng.random((12, 4)))
        assert exact_w2(X, X) == 0.0

    def test_one_dim_is_sorted_coupling(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = rng.random(31)
            y = rng.random(31)
            expected = np.sqrt(np.mean((np.sort(x) - np.sort(y)) ** 2))
            got = exact_w2(PointCloud(x.reshape(-1, 1)), PointCloud(y.reshape(-1, 1)))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_oracle_chain(self):
        rng = np.random.default_rng(18)
        for trial in range(20):
            X, Y = _random_pair(rng, 24, 3)
            e = exact_w2(X, Y)
            m = merged_rrm(X, Y, 8, seed=trial).rms
            r = rrm_plan(X, Y).rms
            assert e <= m + 1e-12 <= r + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 40),
        d=st.integers(1, 3),
        log_s=st.floats(-3.0, 3.0),
        shift=st.floats(-10.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scale_and_translation_equivariant(self, n, d, log_s, shift, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.random((n, d)), rng.random((n, d))
        s, b = 10.0**log_s, shift + rng.random(d)
        X, Y = PointCloud(x), PointCloud(y)
        Xm, Ym = PointCloud(s * x + b), PointCloud(s * y + b)
        assert exact_w2(Xm, Ym) == pytest.approx(s * exact_w2(X, Y), rel=1e-9)
        # Rank splits see only coordinate order, so the plans themselves stay put.
        for plan_of in (rrm_plan, lambda P, Q: merged_rrm(P, Q, 4, seed)):
            base, moved = plan_of(X, Y), plan_of(Xm, Ym)
            assert moved.pi.tobytes() == base.pi.tobytes()
            assert moved.squared_cost_sum == pytest.approx(s * s * base.squared_cost_sum, rel=1e-9)

    def test_cap(self):
        rng = np.random.default_rng(19)
        X, Y = _random_pair(rng, 9, 2)
        for solve in (exact_w2, exact_plan):
            with pytest.raises(CapExceededError, match="capped at 8 points, got 9; use rrm/merged/srrm"):
                solve(X, Y, cap=8)
        assert exact_w2(X, Y, cap=9) == exact_plan(X, Y, cap=9).rms

    def test_overflowing_spread_is_named(self):
        rng = np.random.default_rng(24)
        X, Y = PointCloud(1e160 * rng.random((8, 2))), PointCloud(1e160 * rng.random((8, 2)))
        with pytest.raises(ValueError, match="squared distances between the points overflow float64"):
            exact_w2(X, Y)


class TestRunVariant:
    def test_rotation_must_be_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            RunVariant(rotation=np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rotation_must_be_finite(self, bad):
        rot = np.eye(3)
        rot[1, 2] = bad
        with pytest.raises(ValueError, match=r"rotation has a non-finite entry .* at \(1, 2\)"):
            RunVariant(rotation=rot)

    def test_rotation_is_a_read_only_copy(self):
        r = np.eye(2)
        v = RunVariant(r)
        r[0, 0] = 3.0
        np.testing.assert_array_equal(v.rotation, np.eye(2))
        assert v.rotation.flags.writeable is False
        with pytest.raises(ValueError):
            v.rotation[0, 0] = 3.0

    def test_variants_are_cached_and_equal_the_uncached_rule(self):
        for d, seed, index in [(1, 0, 1), (2, 5, 1), (3, 5, 2), (3, 12345, 7)]:
            v = RunVariant.random(d, seed, index)
            assert RunVariant.random(d, seed, index) is v
            draws = derive_rng(seed, _TAG_VARIANT, index)
            q, r = np.linalg.qr(draws.standard_normal((d, d)))
            q = q * np.sign(np.diag(r))
            want = np.roll(q, -int(draws.integers(d)), axis=0)
            assert v.rotation.tobytes() == want.tobytes()
        assert RunVariant.identity(3) is RunVariant.identity(3)
        assert RunVariant.identity(3).rotation.tobytes() == np.eye(3).tobytes()
        assert RunVariant.random.cache_info().maxsize == 256
        assert RunVariant.identity.cache_info().maxsize == 256

    def test_invalid_seed_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="seed must be >= 0"):
                RunVariant.random(2, -1, 1)
        RunVariant.random(2, 5, 1)
        with pytest.raises(TypeError):
            RunVariant.random(2, 5.0, 1)

    def test_random_rotation_is_orthogonal(self):
        for d in (1, 2, 3, 7):
            v = RunVariant.random(d, seed=4, index=2)
            gram = v.rotation.T @ v.rotation
            np.testing.assert_allclose(gram, np.eye(d), atol=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_random_variant_is_a_start_axis_cycle(self, d):
        # The rule the rolled rotation replaces: rotate by the Haar q, then
        # split along axis (start + h) mod d at depth h, here by reordering
        # the rotated columns.  Plans must match it byte for byte.
        rng = np.random.default_rng(d)
        X, Y = _random_pair(rng, 300, d)
        for index in (1, 2, 3, 7, 11):
            draws = derive_rng(5, _TAG_VARIANT, index)
            q, r = np.linalg.qr(draws.standard_normal((d, d)))
            q = q * np.sign(np.diag(r))
            start = int(draws.integers(d))
            cycle = [(start + h) % d for h in range(d)]
            pi = np.empty(X.n, dtype=np.int64)
            pi[tree_curve_order((X.coords @ q.T)[:, cycle])] = tree_curve_order(
                (Y.coords @ q.T)[:, cycle]
            )
            plan = rrm_plan(X, Y, RunVariant.random(d, 5, index))
            assert plan.pi.tobytes() == pi.tobytes()
            assert plan.squared_cost_sum == plan_squared_cost(X, Y, pi)

    def test_identity_variant_reproduces_canonical_plan(self):
        rng = np.random.default_rng(20)
        X, Y = PointCloud(rng.random((16, 2))), PointCloud(rng.random((16, 2)))
        np.testing.assert_array_equal(
            rrm_plan(X, Y).pi, rrm_plan(X, Y, RunVariant.identity(2)).pi
        )


#: Runs in a fresh interpreter: imports the package and the CLI, makes one
#: merged plan of argv[1] points, then calls the entry points named by the
#: rest of argv; prints which of the watched SciPy modules were loaded after
#: each step.
_IMPORT_PROBE = """
import json, sys
import numpy as np

WATCHED = ("scipy.optimize", "scipy.spatial", "scipy.sparse", "scipy.sparse.csgraph")

def loaded():
    return sorted(m for m in WATCHED if m in sys.modules)

steps = {}
import rrmatch, rrmatch.cli
steps["import"] = loaded()
rng = np.random.default_rng(0)
n = int(sys.argv[1])
X, Y = rrmatch.PointCloud(rng.random((n, 2))), rrmatch.PointCloud(rng.random((n, 2)))
rrmatch.merged_rrm(X, Y, 3, seed=0)
steps["merged"] = loaded()
for entry in sys.argv[2:]:
    getattr(rrmatch, entry)(X, Y)
steps["then"] = loaded()
print(json.dumps(steps))
"""


def _probe_imports(*args):
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestScipyImports:
    """Importing the package loads none of the watched SciPy modules.

    A small merged plan loads SciPy's graph routines for its cycle labels; a
    merged plan of at least ``_WALK_MIN_N`` points loads none.
    """

    @pytest.mark.parametrize(
        "entry, loads", [("exact_w2", "scipy.optimize"), ("srrm_match", "scipy.spatial")]
    )
    def test_loaded_at_first_use(self, entry, loads):
        steps = _probe_imports("64", entry)
        assert steps["import"] == []
        assert steps["merged"] == ["scipy.sparse", "scipy.sparse.csgraph"]
        assert loads in steps["then"]

    def test_large_merged_plan_loads_no_scipy_sparse(self):
        steps = _probe_imports(str(2**16))
        assert steps["import"] == []
        assert steps["merged"] == []
