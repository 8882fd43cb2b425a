"""Rank-matching plans, multi-run merging, and the exact assignment oracle.

The basic plan pairs the two clouds rank by rank along their tree-curve
orders.  Diversity for merging comes from run variants: an orthogonal rotation
applied identically to both clouds, which changes the partition (hence the
plan) but never the cost function -- costs are always evaluated in the
original coordinates.  On large clouds a plan's two orderings run on two
threads when the process may use more than one CPU; plans are the same either
way.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from rrmatch.core import (
    CapExceededError,
    Plan,
    PointCloud,
    RngSeed,
    SizeMismatchError,
    _as_cloud,
    _check_pair,
    _pair_costs,
    derive_rng,
    plan_squared_cost,
)
from rrmatch.partition import tree_curve_order

_ORTHOGONALITY_TOL = 1e-10

#: Derivation-path tag for per-run variant randomness.
_TAG_VARIANT = 1

#: Smallest n at which rrm_plan orders X and Y on two threads.  One plan took
#: about twice as long with the thread at n=2000; the two break even near 2**14.
_OVERLAP_MIN_N = 2**15


@dataclass(frozen=True)
class RunVariant:
    """One randomized run: an orthogonal rotation shared by both clouds.

    The identity variant reproduces the canonical plan.
    """

    rotation: np.ndarray

    def __post_init__(self) -> None:
        rot = np.asarray(self.rotation, dtype=np.float64)
        if rot.ndim != 2 or rot.shape[0] != rot.shape[1]:
            raise ValueError(f"rotation must be square, got shape {rot.shape}")
        gram_err = np.abs(rot.T @ rot - np.eye(rot.shape[0])).max()
        if gram_err > _ORTHOGONALITY_TOL:
            raise ValueError(f"rotation is not orthogonal (|Q^T Q - I| = {gram_err:.3e})")
        object.__setattr__(self, "rotation", rot)

    @classmethod
    def identity(cls, d: int) -> "RunVariant":
        return cls(rotation=np.eye(d))

    @classmethod
    def random(cls, d: int, seed: RngSeed, index: int) -> "RunVariant":
        """Haar-random rotation for run ``index``, its rows rolled by a random start.

        Rolling the rows by ``start`` permutes the rotated coordinates'
        columns, so the build splits first along the Haar rotation's axis
        ``start`` and cycles on from there.
        """
        rng = derive_rng(seed, _TAG_VARIANT, index)
        normals = rng.standard_normal((d, d))
        q, r = np.linalg.qr(normals)
        q = q * np.sign(np.diag(r))  # sign correction makes QR output unique
        start = int(rng.integers(d))
        return cls(rotation=np.roll(q, -start, axis=0))


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def rrm_plan(X: PointCloud, Y: PointCloud, variant: RunVariant | None = None) -> Plan:
    """Rank-match the clouds along their tree-curve orders.

    Both clouds are rotated by the variant's rotation (preserving all pairwise
    distances), ordered independently, and paired rank by rank.  The cost is
    accumulated in the original coordinates.

    From ``n >= 2**15`` points on, when more than one CPU is usable, Y is
    rotated and ordered on one short-lived helper thread while the calling
    thread orders X; the ordering's sorts release the GIL, so the two overlap.
    Each ordering is a pure function of its cloud, so the plan is identical
    to the serial one, and an error in Y's ordering is raised in the caller
    unchanged.  Below that size the thread costs more than it saves; on one
    CPU the two orderings only interleave, which holds both at once and was
    slower.
    """
    X, Y = _check_pair(X, Y)
    variant = variant or RunVariant.identity(X.d)
    rot = variant.rotation
    if X.n >= _OVERLAP_MIN_N and _usable_cpus() > 1:
        with ThreadPoolExecutor(max_workers=1) as helper:
            future_y = helper.submit(lambda: tree_curve_order(Y.coords @ rot.T))
            order_x = tree_curve_order(X.coords @ rot.T)
            order_y = future_y.result()
    else:
        order_x = tree_curve_order(X.coords @ rot.T)
        order_y = tree_curve_order(Y.coords @ rot.T)
    pi = np.empty(X.n, dtype=np.int64)
    pi[order_x] = order_y
    return Plan(pi=pi, squared_cost_sum=plan_squared_cost(X, Y, pi))


def rrm_distance(X: PointCloud, Y: PointCloud, variant: RunVariant | None = None) -> float:
    """Root-mean-square cost of :func:`rrm_plan`."""
    return rrm_plan(X, Y, variant).rms


def _cycle_labels(tau: np.ndarray) -> np.ndarray:
    """Label each index with the id of its cycle in the permutation tau.

    Cycles are numbered 0, 1, ... in order of their smallest index.  Pointer
    doubling: after k rounds ``low[i]`` is the smallest index among the first
    2^k elements of i's orbit, so it settles on the cycle minimum in about
    log2(longest cycle) rounds.
    """
    low = np.arange(tau.size, dtype=np.int64)
    step = np.asarray(tau, dtype=np.int64)
    while True:
        nxt = np.minimum(low, low[step])
        if np.array_equal(nxt, low):
            break
        low = nxt
        step = step[step]
    is_min = low == np.arange(tau.size)
    return (np.cumsum(is_min) - 1)[low]


def merge_pair(p: Plan, q: Plan, X: PointCloud, Y: PointCloud) -> Plan:
    """Combine two complete plans, never worse than either.

    The composition q o p^-1 decomposes the sources into disjoint cycles;
    within a cycle the two plans use the same set of targets, so taking
    whichever plan has the smaller squared-cost sum on that cycle's sources
    stays a permutation and costs at most min(cost(p), cost(q)).
    """
    X, Y = _check_pair(X, Y)
    if not (p.is_complete and q.is_complete):
        raise ValueError("merge_pair requires complete plans")
    if p.n != X.n or q.n != X.n:
        raise SizeMismatchError("plan size does not match cloud size")

    inv_p = p.inverse()
    tau = inv_p[q.pi]  # sources sharing a cycle trade targets between p and q
    labels = _cycle_labels(tau)
    n_cycles = int(labels.max()) + 1

    cost_p = _pair_costs(X.coords, Y.coords, p.pi)
    cost_q = _pair_costs(X.coords, Y.coords, q.pi)
    per_cycle_p = np.zeros(n_cycles)
    per_cycle_q = np.zeros(n_cycles)
    np.add.at(per_cycle_p, labels, cost_p)
    np.add.at(per_cycle_q, labels, cost_q)

    take_q = per_cycle_q < per_cycle_p
    pi = np.where(take_q[labels], q.pi, p.pi)
    cost = float(np.where(take_q, per_cycle_q, per_cycle_p).sum())
    return Plan(pi=pi, squared_cost_sum=cost)


def merged_rrm(X: PointCloud, Y: PointCloud, runs: int, seed: RngSeed = 0) -> Plan:
    """Left-fold merge of ``runs`` single-run plans.

    Run 1 is the identity variant; runs 2..K use fresh random rotations
    derived from the seed.  Variant i is a function of (seed, i) alone, so
    the run sequences for K and K+1 are nested and the merged cost is
    nonincreasing in K for a fixed seed.
    """
    X, Y = _check_pair(X, Y)
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    merged = rrm_plan(X, Y, RunVariant.identity(X.d))
    for i in range(1, runs):
        candidate = rrm_plan(X, Y, RunVariant.random(X.d, seed, i))
        merged = merge_pair(merged, candidate, X, Y)
    return merged


def hungarian(cost: np.ndarray) -> Plan:
    """Exact minimum-cost complete assignment for a square cost matrix.

    Backed by SciPy's shortest-augmenting-path solver; only the optimal total
    cost is contracted, not which optimum is returned among ties.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {cost.shape}")
    if cost.shape[0] < 1:
        raise ValueError("cost matrix must be at least 1x1")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite entries")
    rows, cols = linear_sum_assignment(cost)
    pi = np.empty(cost.shape[0], dtype=np.int64)
    pi[rows] = cols
    total = float(cost[rows, cols].sum())
    return Plan(pi=pi, squared_cost_sum=max(total, 0.0))


def squared_distance_matrix(X: PointCloud, Y: PointCloud) -> np.ndarray:
    """Pairwise squared Euclidean distances, clamped at zero."""
    X, Y = _as_cloud(X), _as_cloud(Y)
    return np.maximum(cdist(X.coords, Y.coords, "sqeuclidean"), 0.0)


def exact_w2(X: PointCloud, Y: PointCloud, cap: int = 1024) -> float:
    """Exact 2-Wasserstein distance between equal-size uniform clouds.

    Solves the full assignment problem on squared distances; refuses to run
    above ``cap`` points, where the surrogate methods are the intended tool.
    """
    X, Y = _check_pair(X, Y)
    if X.n > cap:
        raise CapExceededError(
            f"exact_w2 capped at {cap} points, got {X.n}; use rrm/merged/srrm surrogates"
        )
    plan = hungarian(squared_distance_matrix(X, Y))
    return math.sqrt(plan.squared_cost_sum / X.n)
