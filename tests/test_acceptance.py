"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test prints a single pass/fail line; run with ``pytest -s`` to see them
all.  Criteria with wall-clock budgets assert the elapsed time as well.
"""

import itertools
import math
import time

import numpy as np

from rrmatch.core import Plan, PointCloud, derive_rng, derive_seed
from rrmatch.diagnostics import (
    LastMileParams,
    convergence_experiment,
    plateau_decomposition,
    threshold_consistency_experiment,
)
from rrmatch.generators import GeneratorSpec, gen
from rrmatch.matching import (
    RunVariant,
    exact_w2,
    hungarian,
    merged_rrm,
    rrm_plan,
    squared_distance_matrix,
)
from rrmatch.srrm import SrrmConfig, sample_near, srrm_match


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def _uniform_pair(seed: int, n: int, d: int):
    rng = derive_rng(seed, 100)
    return PointCloud(rng.random((n, d))), PointCloud(rng.random((n, d)))


def test_upper_bound_chain():
    start = time.perf_counter()
    dims = (1, 2, 3, 5)
    worst_gap = 0.0
    for trial in range(200):
        rng = derive_rng(1, trial)
        n = int(rng.integers(16, 65))
        d = dims[trial % len(dims)]
        X = PointCloud(rng.random((n, d)))
        Y = PointCloud(rng.random((n, d)))
        seed = trial
        e = exact_w2(X, Y)
        s = srrm_match(
            X, Y, SrrmConfig(rounds=3, anchors_per_point=2, merge_runs=8, seed=seed)
        ).value
        m = merged_rrm(X, Y, 8, seed=seed).rms
        r = rrm_plan(X, Y).rms
        worst_gap = max(worst_gap, e - s, s - m, m - r)
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-9 and elapsed < 30.0
    _report(
        "upper-bound chain (exact <= srrm <= merged <= rrm, 200 instances)",
        ok,
        f"worst gap {worst_gap:.2e}, {elapsed:.1f}s",
    )


def test_metric_axioms():
    worst = 0.0
    for trial in range(100):
        rng = derive_rng(2, trial)
        n, d = int(rng.integers(8, 40)), int(rng.integers(1, 4))
        X = PointCloud(rng.random((n, d)))
        Y = PointCloud(rng.random((n, d)))
        Z = PointCloud(rng.random((n, d)))
        dxy, dyx = rrm_plan(X, Y).rms, rrm_plan(Y, X).rms
        worst = max(
            worst,
            -min(dxy, dyx),                                  # nonnegativity
            rrm_plan(X, X).rms,                               # identity
            abs(dxy - dyx),                                   # symmetry
            rrm_plan(X, Z).rms - dxy - rrm_plan(Y, Z).rms,    # triangle
        )
    ok = worst <= 1e-9
    _report("metric axioms (100 random triples)", ok, f"worst violation {worst:.2e}")


def test_one_dim_exactness():
    worst = 0.0
    for trial in range(100):
        rng = derive_rng(3, trial)
        n = int(rng.integers(2, 257))
        X = PointCloud(rng.random((n, 1)))
        Y = PointCloud(rng.random((n, 1)))
        worst = max(worst, abs(rrm_plan(X, Y).rms - exact_w2(X, Y)))
    ok = worst <= 1e-12
    _report("1-D exactness (rrm == exact, 100 instances)", ok, f"worst |diff| {worst:.2e}")


def test_hungarian_vs_brute_force():
    perms = np.array(list(itertools.permutations(range(7))))
    rows = np.arange(7)
    worst = 0.0
    for trial in range(200):
        rng = derive_rng(4, trial)
        x, y = rng.random((7, 2)), rng.random((7, 2))
        cost = squared_distance_matrix(x, y)
        brute = cost[rows, perms].sum(axis=1).min()
        worst = max(worst, abs(hungarian(x, y).squared_cost_sum - brute))
    ok = worst <= 1e-12
    _report("assignment optimality vs factorial brute force (200 pairs of 7-point clouds)", ok,
            f"worst gap {worst:.2e}")


def test_plateau_lower_bound_fuzz():
    worst = np.inf
    for trial in range(1000):
        rng = derive_rng(5, trial)
        n, d = int(rng.integers(4, 65)), int(rng.integers(1, 4))
        X = PointCloud(rng.random((n, d)))
        Y = PointCloud(rng.random((n, d)))
        if trial % 3 == 0:
            plan = rrm_plan(X, Y)
        elif trial % 3 == 1:
            plan = merged_rrm(X, Y, 3, seed=trial)
        else:
            pi = rng.permutation(n)
            plan = Plan(pi=pi, squared_cost_sum=float(((X.coords - Y.coords[pi]) ** 2).sum()))
        depth = int(rng.integers(1, 10))
        report = plateau_decomposition(X, Y, plan, LastMileParams(depth=depth, d=d))
        worst = min(worst, report.rrm_sq - report.lower_bound)
    ok = worst >= -1e-12
    _report("proportion-severity lower bound (1000 fuzzed plans)", ok, f"worst margin {worst:.2e}")


def _plateau_sq(frac: float, bad_slope: float, seed: int, n: int = 4096) -> float:
    X, Y = gen(
        GeneratorSpec(family="line-mixture", n=n, seed=seed, frac_bads=frac, bad_slope=bad_slope)
    )
    value = rrm_plan(X, Y).rms
    return value * value


def test_experiment_one_bias_floor_ordering():
    start = time.perf_counter()
    medians = {
        frac: float(np.median([_plateau_sq(frac, 100.0, seed) for seed in range(10)]))
        for frac in (0.0, 0.5, 1.0)
    }
    elapsed = time.perf_counter() - start
    ok = (
        medians[1.0] > medians[0.5] > medians[0.0]
        and medians[0.0] < 0.02
        and elapsed < 60.0
    )
    _report(
        "bias floor grows with bad fraction (steep lines, n=4096)",
        ok,
        f"plateaus {medians[0.0]:.2e} < {medians[0.5]:.3f} < {medians[1.0]:.3f}, {elapsed:.1f}s",
    )


def test_experiment_two_severity_reduction():
    steep = float(np.median([_plateau_sq(1.0, 100.0, seed) for seed in range(10)]))
    shallow = float(np.median([_plateau_sq(1.0, 0.01, seed) for seed in range(10)]))
    ok = shallow <= 0.5 * steep
    _report(
        "shallow bad lines at most half the steep plateau",
        ok,
        f"shallow {shallow:.4f} vs steep {steep:.4f} (ratio {shallow / steep:.3f})",
    )


def test_last_mile_recovery():
    start = time.perf_counter()
    srrm_ratios, single_ratios = [], []
    for seed in range(20):
        X, Y = gen(GeneratorSpec(family="perturbed-copy", n=1000, d=2, seed=seed, alpha=0.0005))
        e = exact_w2(X, Y)
        cfg = SrrmConfig(rounds=10, anchors_per_point=5, merge_runs=10, seed=seed)
        srrm_ratios.append(srrm_match(X, Y, cfg).value / e)
        single_ratios.append(rrm_plan(X, Y).rms / e)
    # The perturbation range endpoints get lighter coverage.
    for alpha in (0.001, 0.0015):
        for seed in range(5):
            X, Y = gen(GeneratorSpec(family="perturbed-copy", n=1000, d=2, seed=seed, alpha=alpha))
            e = exact_w2(X, Y)
            cfg = SrrmConfig(rounds=10, anchors_per_point=5, merge_runs=10, seed=seed)
            srrm_ratios.append(srrm_match(X, Y, cfg).value / e)
    med_srrm = float(np.median(srrm_ratios[:20]))
    med_single = float(np.median(single_ratios))
    elapsed = time.perf_counter() - start
    ok = med_srrm <= 1.05 and med_single >= 5.0 and max(srrm_ratios) <= 1.05 and elapsed < 120.0
    _report(
        "last-mile recovery on perturbed copies (n=1000)",
        ok,
        f"srrm/exact median {med_srrm:.4f}, single-run/exact median {med_single:.1f}, {elapsed:.1f}s",
    )


def test_anchored_convergence_rate():
    start = time.perf_counter()
    result = convergence_experiment(1, [2**p for p in range(8, 15)], reps=20, seed=0)
    means = [mean for _, mean, _ in result.rows]
    elapsed = time.perf_counter() - start
    strictly_decreasing = all(a > b for a, b in zip(means, means[1:]))
    ok = strictly_decreasing and result.slope <= -0.15 and elapsed < 120.0
    _report(
        "anchored distance decays (d=1, n=2^8..2^14, 20 reps)",
        ok,
        f"slope {result.slope:.3f} (theory bound {result.theory_exponent}), {elapsed:.1f}s",
    )


def test_threshold_consistency():
    rows = threshold_consistency_experiment(2, 3, [2**10, 2**16], reps=30, seed=0)
    dev_small, dev_large = rows[0][1], rows[1][1]
    ok = dev_large < 0.5 * dev_small
    _report(
        "split-threshold consistency (n=2^10 vs 2^16, depth 3)",
        ok,
        f"median max deviation {dev_small:.4f} -> {dev_large:.4f}",
    )


def test_runtime_trends():
    # Merged matching scales like n log n on a doubling grid.
    rng = derive_rng(6)
    clouds = {}
    for p in range(12, 17):
        n = 2**p
        clouds[n] = (PointCloud(rng.random((n, 2))), PointCloud(rng.random((n, 2))))
    walls: dict[int, list[float]] = {n: [] for n in clouds}
    for rep in range(9):  # round-robin reps so load drift hits all sizes alike
        for n, (X, Y) in clouds.items():
            t0 = time.perf_counter()
            merged_rrm(X, Y, 8, seed=rep)
            walls[n].append(time.perf_counter() - t0)
    medians = {n: float(np.median(w)) for n, w in walls.items()}
    ns = sorted(medians)
    ratios = [medians[b] / medians[a] for a, b in zip(ns, ns[1:])]
    scaling_ok = max(ratios) <= 2.6

    # Screening gets cheaper as the clouds approach, and the first round's
    # unresolved count at full overlap sits in the reference band.
    def srrm_run(t: float, seed: int):
        X, Y = gen(GeneratorSpec(family="gaussian-pair", n=2000, seed=seed, t=t))
        cfg = SrrmConfig(rounds=10, anchors_per_point=1, merge_runs=5, seed=seed)
        t0 = time.perf_counter()
        result = srrm_match(X, Y, cfg)
        return time.perf_counter() - t0, result.history[0]

    runs: dict[float, list[tuple[float, int]]] = {0.0: [], 1.0: []}
    for seed in range(10):  # interleave t=0 and t=1 so load drift hits both alike
        for t in runs:
            runs[t].append(srrm_run(t, seed))
    wall_far = float(np.median([w for w, _ in runs[0.0]]))
    wall_near = float(np.median([w for w, _ in runs[1.0]]))
    round0_near = float(np.median([h for _, h in runs[1.0]]))
    screening_ok = wall_near < wall_far and 1100 <= round0_near <= 1350

    ok = scaling_ok and screening_ok
    _report(
        "runtime trends (n log n scaling, screening cheaper at overlap)",
        ok,
        f"max doubling ratio {max(ratios):.2f}, walls {wall_near * 1e3:.0f}ms < {wall_far * 1e3:.0f}ms, "
        f"round-0 unresolved {round0_near:.0f}",
    )


def test_determinism():
    rng = derive_rng(7)
    X = PointCloud(rng.random((120, 3)))
    Y = PointCloud(rng.random((120, 3)))
    cfg = SrrmConfig(rounds=4, anchors_per_point=2, merge_runs=5, seed=99)

    checks = []
    for _ in range(2):
        checks.append(
            (
                merged_rrm(X, Y, 6, seed=42).pi.tobytes(),
                srrm_match(X, Y, cfg).plan.pi.tobytes(),
                srrm_match(X, Y, cfg).history,
                sample_near(X, 2, seed=5).tobytes(),
                RunVariant.random(3, seed=8, index=2).rotation.tobytes(),
                gen(GeneratorSpec(family="gaussian-pair", n=64, seed=13, t=0.4))[0].coords.tobytes(),
                convergence_experiment(1, [64, 128], reps=2, seed=3),
                threshold_consistency_experiment(2, 2, [128], reps=2, seed=3),
                derive_seed(11, 2, 3),
            )
        )
    ok = checks[0] == checks[1]
    _report("determinism (byte-identical reruns under fixed seeds)", ok)
