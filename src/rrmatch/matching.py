"""Rank-matching plans, multi-run merging, and the exact assignment oracle.

The basic plan pairs the two clouds rank by rank along their tree-curve
orders.  Diversity for merging comes from run variants: an orthogonal rotation
applied identically to both clouds, which changes the partition (hence the
plan) but never the cost function -- costs are always evaluated in the
original coordinates.  On large clouds a plan's two orderings run on two
threads when the process may use more than one CPU; plans are the same either
way.

Run variants are cached per ``(d, seed, index)``, up to 256 of them.  A
``merged_rrm`` call with a seed already used in the process skips the
variants' draws, QR and orthogonality checks; SRRM's screening derives the
same round seeds for every pair, so its calls after the first reuse them.
A cold first call with a new seed builds every variant and gains nothing
from the cache.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from rrmatch.core import (
    CapExceededError,
    Plan,
    PointCloud,
    RngSeed,
    SizeMismatchError,
    _centred,
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

#: Warm start of the exact assignment: Sinkhorn scaling passes, and the
#: entropic temperature as a fraction of the mean reduced cost.  At n=1024 on
#: a clipped gaussian pair, 10 passes left the solve at half its cold time
#: and 30 at a tenth; 0.01 and 0.05 of the mean were 2-3x slower than 0.02.
_WARM_PASSES = 30
_WARM_EPS = 0.02

#: Default size cap of exact_w2, and of the CLI's exact method.
EXACT_CAP = 1024


@dataclass(frozen=True)
class RunVariant:
    """One randomized run: an orthogonal rotation shared by both clouds.

    The identity variant reproduces the canonical plan.  ``rotation`` is
    stored as a read-only float64 copy of the array passed in, so a variant
    stays what was checked; a non-finite or non-orthogonal rotation is
    rejected.  :meth:`identity` and :meth:`random` are pure functions of
    their arguments and keep their last 256 variants, which callers share.
    Their caches key on argument types too, so a seed the generator rejects,
    such as ``5.0``, raises even after the variant of seed 5 was cached.
    """

    rotation: np.ndarray

    def __post_init__(self) -> None:
        rot = np.array(self.rotation, dtype=np.float64, order="C")
        if rot.ndim != 2 or rot.shape[0] != rot.shape[1]:
            raise ValueError(f"rotation must be square, got shape {rot.shape}")
        bad = ~np.isfinite(rot)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(f"rotation has a non-finite entry {rot[i, j]} at ({i}, {j})")
        gram_err = np.abs(rot.T @ rot - np.eye(rot.shape[0])).max()
        if gram_err > _ORTHOGONALITY_TOL:
            raise ValueError(f"rotation is not orthogonal (|Q^T Q - I| = {gram_err:.3e})")
        rot.flags.writeable = False
        object.__setattr__(self, "rotation", rot)

    @classmethod
    @functools.lru_cache(maxsize=256, typed=True)
    def identity(cls, d: int) -> "RunVariant":
        return cls(rotation=np.eye(d))

    @classmethod
    @functools.lru_cache(maxsize=256, typed=True)
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


def _cycle_labels(tau: np.ndarray) -> np.ndarray:
    """Label each index with the id of its cycle in the permutation tau.

    The cycles are the strong components of the graph i -> tau[i].  SciPy's
    traversal (Pearce 2005) starts from the unvisited indices in increasing
    order and closes one whole cycle per start, so cycles are numbered 0, 1,
    ... in order of their smallest index.
    """
    n = tau.size
    # int32 like SciPy's own labels; orderings cap n at 2**31 (partition._rank_bits).
    graph = csr_matrix((np.ones(n), tau.astype(np.int32), np.arange(n + 1, dtype=np.int32)), shape=(n, n))
    return connected_components(graph, connection="strong")[1].astype(np.int64)


def merge_pair(p: Plan, q: Plan, X: PointCloud, Y: PointCloud) -> Plan:
    """Combine two plans, never worse than either.

    The composition q o p^-1 decomposes the sources into disjoint cycles;
    within a cycle the two plans use the same set of targets, so taking
    whichever plan has the smaller squared-cost sum on that cycle's sources
    stays a permutation and costs at most min(cost(p), cost(q)).
    """
    X, Y = _check_pair(X, Y)
    if p.n != X.n or q.n != X.n:
        raise SizeMismatchError("plan size does not match cloud size")

    inv_p = p.inverse()
    tau = inv_p[q.pi]  # sources sharing a cycle trade targets between p and q
    labels = _cycle_labels(tau)
    per_cycle_p = np.bincount(labels, weights=_pair_costs(X.coords, Y.coords, p.pi))
    per_cycle_q = np.bincount(labels, weights=_pair_costs(X.coords, Y.coords, q.pi))

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


def _warm_start(work: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Warm-start potentials (a, b) of the costs in ``work``, which this overwrites.

    a starts as the costs' row minima, which the caller passes in, and b as
    the column minima of what is left.  The reduced matrix
    ``cost - a·1ᵀ - 1·bᵀ`` then holds an exact zero in every row and column,
    so its kernel ``exp(-reduced / eps)``, built in ``work``, holds an exact 1
    in each, and a fixed number of Sinkhorn scaling passes on that kernel
    never divides by zero.  ``eps`` is a fixed fraction of the mean reduced
    cost, so the potentials scale with the costs and do not depend on units.
    ``eps * log`` of the scalings is folded into a and b, clipped to the
    reduced range so the potentials stay finite and on the cost's scale even
    if a scaling overflowed (none has on any matrix tried; they stayed within
    0.65 of that range).  A constant matrix (mean 0), or one whose mean
    overflows, keeps the min-reductions alone.
    """
    work -= a[:, None]
    b = work.min(axis=0)
    work -= b
    with np.errstate(over="ignore"):
        eps = _WARM_EPS * float(work.mean())
    if not 0.0 < eps < math.inf:
        return a, b
    hi = float(work.max())
    np.divide(work, -eps, out=work)
    np.exp(work, out=work)
    v = np.ones(work.shape[1])
    for _ in range(_WARM_PASSES):
        u = 1.0 / (work @ v)
        v = 1.0 / (u @ work)
    return a + np.clip(eps * np.log(u), -hi, hi), b + np.clip(eps * np.log(v), -hi, hi)


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SciPy's ``linear_sum_assignment``, imported at the first call."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def hungarian(x: np.ndarray, y: np.ndarray) -> Plan:
    """An optimal assignment of the points ``x`` to the points ``y``, in one n×n buffer.

    ``x`` and ``y`` are (n, d) coordinate arrays of equal shape.  The
    assignment is solved on the two sets centred on their own means.  With
    ``δ = mean(x) - mean(y)``, the cost between the centred points is
    ``|x_i - y_j|² - 2⟨x_i, δ⟩ + 2⟨y_j, δ⟩ + |δ|²``: a row term, a column term
    and a constant, so every complete assignment shifts by the same amount
    and the optimal assignments are those of the given points.  At n=1024
    the centred solve took 80-100 ms instead of 120-170 ms on gaussian-pair
    t=0.5 and opening-angle pairs, about 10% longer on gaussian-pair t=1,
    and about as long on the other families; why it solves faster was
    measured, not derived.

    When the row minima of the squared distances sit in pairwise distinct
    columns they already form an assignment, and their sum bounds every
    assignment's total from below, so it is returned without a solve:
    identical clouds at n=1024 take about 5 ms instead of 55 ms.  Otherwise
    SciPy's shortest-augmenting-path solver runs on the reduced matrix
    ``cost - a·1ᵀ - 1·bᵀ`` with the potentials of :func:`_warm_start`.
    Every complete assignment uses each row and each column once, so the
    reduction lowers every total by the same ``sum(a) + sum(b)`` and keeps
    the optimal assignments.  Starting from these near-optimal potentials
    instead of zero keeps the augmenting paths short (Jonker & Volgenant's
    initialisation, with the potentials from Sinkhorn scaling): at n=1024
    on a clipped gaussian pair the solve took about 0.1 s instead of 1.2 s.
    The warm start's kernel overwrites the distances, which are then built
    again in the same buffer and reduced in place, so the peak is one n×n
    float64 array (8 MiB at n=1024, 128 MiB at n=4096).  The warm start
    costs about 70 passes over it (60 of them matrix-vector products),
    about 30 ms at n=1024.

    The total is the pair-cost sum of the plan, in row order, from the
    given coordinates.  Which optimum comes back among ties is not
    contracted.  Non-finite coordinates raise ``ValueError``, and so do
    points spread so far apart that their squared distances overflow
    float64.  ``scipy.optimize`` is imported at the first solve, through
    :func:`linear_sum_assignment`, not with this module: the rrm and merged
    paths never solve, and the import, which loads ``scipy.spatial`` too,
    costs about 0.15 s and 16 MiB.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape != y.shape or x.shape[0] < 1:
        raise SizeMismatchError(
            f"point arrays must be (n, d) with n >= 1 and equal shapes, got {x.shape} and {y.shape}"
        )
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("point arrays contain non-finite coordinates")
    xc, yc = _centred(x), _centred(y)
    work = squared_distance_matrix(xc, yc)
    # A NaN or ±inf makes the max non-finite; distances are never negative.
    if not math.isfinite(float(work.max())):
        raise ValueError(
            "squared distances between the points overflow float64; "
            "the clouds are spread too far apart for an exact solve, rescale them"
        )
    cols = work.argmin(axis=1)
    if np.unique(cols).size < cols.size:
        a, b = _warm_start(work, work[np.arange(cols.size), cols])
        squared_distance_matrix(xc, yc, out=work)
        work -= a[:, None]
        work -= b
        cols = linear_sum_assignment(work)[1]  # a square matrix's rows come back as arange(n)
    return Plan(pi=cols, squared_cost_sum=float(_pair_costs(x, y, cols).sum()))


def squared_distance_matrix(
    X: PointCloud | np.ndarray, Y: PointCloud | np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Pairwise squared Euclidean distances, clamped at zero in place.

    With ``out``, a C-contiguous float64 array of shape (len(X), len(Y)),
    the distances are written there and ``out`` is returned.  Coordinate
    arrays are used as given, without a cloud's copy and finiteness check:
    the solvers here pass arrays cut or centred from validated clouds.
    ``scipy.spatial`` is imported at the first call, not with this module,
    since the rrm and merged paths never build a matrix.
    """
    from scipy.spatial.distance import cdist

    x = X.coords if isinstance(X, PointCloud) else X
    y = Y.coords if isinstance(Y, PointCloud) else Y
    d2 = cdist(x, y, "sqeuclidean", out=out)
    return np.maximum(d2, 0.0, out=d2)


def exact_plan(X: PointCloud, Y: PointCloud, cap: int = EXACT_CAP) -> Plan:
    """An optimal assignment of X to Y: :func:`hungarian` on the clouds' coordinates.

    Refuses to run above ``cap`` points, where the surrogate methods are the
    intended tool.  Peak memory is one n×n float64 buffer (8 MiB at n=1024),
    which holds the squared distances, then the warm start's kernel, then the
    reduced costs.
    The total is summed in row order from the original coordinates.  Which
    optimum comes back among ties is not contracted.
    """
    X, Y = _check_pair(X, Y)
    if X.n > cap:
        raise CapExceededError(
            f"exact solve capped at {cap} points, got {X.n}; use rrm/merged/srrm surrogates"
        )
    return hungarian(X.coords, Y.coords)


def exact_w2(X: PointCloud, Y: PointCloud, cap: int = EXACT_CAP) -> float:
    """Exact 2-Wasserstein distance between equal-size uniform clouds: the rms of :func:`exact_plan`.

    Clouds whose squared distances overflow float64 raise ``ValueError``.
    """
    return exact_plan(X, Y, cap).rms
