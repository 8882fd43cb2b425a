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

Merging labels the cycles of one plan against the other with numpy alone:
by pointer doubling below 2**13 points and by a splitter walk from there on.
The labels serve only as a partition, so plans do not depend on which
labeller ran, and neither importing this module nor merging loads SciPy.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from rrmatch.core import (
    CapExceededError,
    Plan,
    PointCloud,
    RngSeed,
    SizeMismatchError,
    _ArrayFields,
    _centred,
    _check_integer,
    _check_pair,
    _check_seed,
    _pair_costs,
    derive_rng,
)
from rrmatch.partition import tree_curve_order

_ORTHOGONALITY_TOL = 1e-10

#: Derivation-path tag for per-run variant randomness.
_TAG_VARIANT = 1

#: Smallest n at which rrm_plan orders X and Y on two threads.  One plan took
#: about twice as long with the thread at n=2000; the two break even near 2**14.
_OVERLAP_MIN_N = 2**15

#: Smallest n at which _cycle_labels walks the permutation instead of pointer
#: doubling, and the walk's splitter stride.  Median µs per labelling of merge
#: permutations of uniform d=2 pairs (identity against one random variant, 3-5
#: pairs per size, 2-vCPU Xeon), doubling / walk: 213/294 at 3000, 223/248 at
#: 4096, 244/255 at 5000, 424/415 at 6000, 527/455 at 7000, 586/516 at 2**13,
#: 1099/701 at 2**14 and 2415/788 at 2**15; 2**13 is the first power of two
#: past the tie.  The stride was chosen on strides 8..64 from 2**14 to 2**20:
#: 32 was within 11% of the best at every size.
_WALK_MIN_N = 2**13
_WALK_STRIDE = 32

#: Warm start of the exact assignment: over-relaxed Sinkhorn scaling passes,
#: the entropic temperature as a fraction of the mean reduced cost, and the
#: relaxation factor.  Chosen on a grid of the generator families (gaussian-pair
#: t=0/0.5/1, line-mixture, opening-angle, perturbed-copy d=2/3), warm start
#: plus solve summed at n=1024, 2048 and 4096: eps in {0.005, ..., 0.02}, omega
#: in {1, 1.3, ..., 1.9} and 10-30 passes.  Plain passes (omega = 1) gained
#: nothing from a lower temperature; relaxed ones converge in fewer passes at
#: one, and their potentials shorten the solver's augmenting paths.
_WARM_PASSES = 15
_WARM_EPS = 0.0075
_WARM_OMEGA = 1.8

#: Default size cap of exact_w2, and of the CLI's exact method.
EXACT_CAP = 1024


@dataclass(frozen=True, eq=False)
class RunVariant(_ArrayFields):
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
    return Plan(pi=pi, squared_costs=_pair_costs(X.coords, Y.coords, pi))


def _min_index_labels(nxt: np.ndarray) -> np.ndarray:
    """Label each index with the smallest index on its cycle of the permutation nxt.

    Pointer doubling: after round r an index holds the minimum over the next
    2**r indices of its cycle.  A round that changes no label proves every
    label is its cycle's minimum (the window minima agree all around the
    cycle), so a cycle of length L costs about log2(L) + 2 rounds.
    """
    labels = np.arange(nxt.size)
    jump = nxt
    while True:
        wider = np.minimum(labels, labels[jump])
        if np.array_equal(wider, labels):
            return labels
        labels = wider
        jump = jump[jump]


def _walk_labels(tau: np.ndarray) -> np.ndarray:
    """Cycle labels of tau by a sparse ruling-set walk (Reid-Miller, SPAA 1994).

    Every ``_WALK_STRIDE``-th index is a splitter.  All splitters' cursors
    walk tau at once, marking each index they pass with their splitter, and
    stop at the next splitter, which becomes absorbing; finished cursors are
    dropped every ``_WALK_STRIDE`` steps.  The splitter skeleton (n/stride
    elements) is then labelled by pointer doubling, and so are the cycles no
    splitter lies on, renumbered compactly.  A walk still running after
    ``2 * stride * bit_length(n)`` steps (a gap between splitters far longer
    than a merge permutation's, whose longest is about stride * ln(n/stride))
    stops, and the whole of tau is pointer-doubled instead.
    """
    n = tau.size
    s = _WALK_STRIDE
    m = -(-n // s)
    hop = tau.copy()
    hop[::s] = np.arange(0, n, s)  # a cursor that reaches a splitter stays there
    owner = np.full(n, -1, dtype=np.int64)
    walker = np.arange(m)
    cursor = tau[::s]
    next_splitter = np.empty(m, dtype=np.int64)
    for _ in range(2 * n.bit_length()):
        done = cursor % s == 0
        next_splitter[walker[done]] = cursor[done] // s
        walker, cursor = walker[~done], cursor[~done]
        if not walker.size:
            break
        for _ in range(s):
            owner[cursor] = walker
            cursor = hop[cursor]
    else:
        return _min_index_labels(tau)
    owner[::s] = np.arange(m)  # parked cursors marked the splitters they stopped at
    labels = _min_index_labels(next_splitter)[owner]
    free = np.flatnonzero(owner < 0)
    if free.size:
        local = np.empty_like(tau)
        local[free] = np.arange(free.size)
        labels[free] = m + _min_index_labels(local[tau[free]])
    return labels


def _cycle_labels(tau: np.ndarray) -> np.ndarray:
    """Label each index of the permutation tau with the id of its cycle.

    Labels are int64 and below n, one per cycle; which number a cycle gets is
    not part of the contract, since ``merge_pair`` uses them only as a
    partition.  Below ``_WALK_MIN_N`` points :func:`_min_index_labels`
    doubles pointers over the whole permutation; from there on
    :func:`_walk_labels` walks it, which was 1.6x faster at 2**14 and 3x at
    2**15, where doubling's rounds over all n indices dominate.
    """
    if tau.size >= _WALK_MIN_N:
        return _walk_labels(tau)
    return _min_index_labels(tau)


def merge_pair(p: Plan, q: Plan) -> Plan:
    """Combine two plans between the same clouds, never worse than either.

    The composition q o p^-1 decomposes the sources into disjoint cycles;
    within a cycle the two plans use the same set of targets, so taking
    whichever plan has the smaller squared-cost sum on that cycle's sources
    stays a permutation and costs at most min(cost(p), cost(q)).  q wins only
    cycles where it is strictly cheaper, and each row keeps the per-row cost of
    the plan it came from, so ``merge_pair(p, p)`` returns p's costs bit for bit.
    The cycles come from :func:`_cycle_labels` (numpy pointer doubling below
    ``_WALK_MIN_N`` points, a splitter walk from there on) and serve only as
    a partition: ``np.bincount`` sums each cycle's costs in row order whatever
    its label, so plans and totals do not depend on the labeller.
    """
    if p.n != q.n:
        raise SizeMismatchError(f"plans must have equal size, got {p.n} and {q.n}")
    labels = _cycle_labels(p.inverse()[q.pi])  # a cycle's sources trade targets between p and q
    cost_p, cost_q = p.squared_costs, q.squared_costs
    take_q = (np.bincount(labels, weights=cost_q) < np.bincount(labels, weights=cost_p))[labels]
    return Plan(pi=np.where(take_q, q.pi, p.pi), squared_costs=np.where(take_q, cost_q, cost_p))


def merged_rrm(X: PointCloud, Y: PointCloud, runs: int, seed: RngSeed = 0) -> Plan:
    """Left-fold merge of ``runs`` single-run plans.

    Run 1 is the identity variant; runs 2..K use fresh random rotations
    derived from the seed.  Variant i is a function of (seed, i) alone, so
    the run sequences for K and K+1 are nested and the merged cost is
    nonincreasing in K for a fixed seed.
    """
    X, Y = _check_pair(X, Y)
    _check_integer("runs", runs)
    _check_seed(seed)
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    merged = rrm_plan(X, Y, RunVariant.identity(X.d))
    for i in range(1, runs):
        candidate = rrm_plan(X, Y, RunVariant.random(X.d, seed, i))
        merged = merge_pair(merged, candidate)
    return merged


def _warm_start(work: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Warm-start potentials (a, b) of the costs in ``work``, which this overwrites.

    a starts as the costs' row minima, which the caller passes in, and b as
    the column minima of what is left.  The reduced matrix
    ``cost - a·1ᵀ - 1·bᵀ`` then holds an exact zero in every row and column,
    so its kernel ``K = exp(-reduced / eps)``, built in ``work``, holds an
    exact 1 in each.  ``eps`` is a fixed fraction of the mean reduced cost, so
    the potentials scale with the costs and do not depend on units.  A fixed
    number of over-relaxed Sinkhorn passes (Thibault, Chizat, Dossal &
    Papadakis, arXiv:1711.01851) then scale the kernel:
    ``u ← u^(1-ω)·(1/(K v))^ω``, then ``v ← v^(1-ω)·(1/(uᵀK))^ω``, from
    ``u = v = 1``; ω = 1 is the plain pass.  ``eps * log`` of the scalings is
    folded into a and b, clipped to the reduced range so the potentials stay
    on the cost's scale (on the family grid they stayed within 0.04 of it).
    If a scaling leaves (0, ∞), or the matrix is constant (mean 0) or its
    mean overflows, the min-reductions are returned alone.
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
    u = np.ones(work.shape[0])
    v = np.ones(work.shape[1])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_WARM_PASSES):
            u = u ** (1.0 - _WARM_OMEGA) * (work @ v) ** -_WARM_OMEGA
            v = v ** (1.0 - _WARM_OMEGA) * (u @ work) ** -_WARM_OMEGA
        du, dv = eps * np.log(u), eps * np.log(v)
    if not (np.isfinite(du).all() and np.isfinite(dv).all()):
        return a, b
    return a + np.clip(du, -hi, hi), b + np.clip(dv, -hi, hi)


def _z_order(points: np.ndarray) -> np.ndarray:
    """The order of the points along a Z-order (Morton) curve over their bounding box.

    Each axis is quantised to ``b = max(1, min(16, 64 // d))`` bits over its
    range, a constant axis to 0, and the bits are interleaved into one uint64
    key, most significant bit first and axis by axis within each bit; past 64
    axes only the first 64 enter the key.  Ties keep their input order.  The
    points are halved before the range is taken, which scales every step by a
    power of two, so a range near the float64 maximum does not overflow.
    """
    n, d = points.shape
    b = max(1, min(16, 64 // d))
    half = 0.5 * points[:, : 64 // b]
    lo = half.min(axis=0)
    span = half.max(axis=0) - lo
    unit = np.divide(half - lo, span, out=np.zeros_like(half), where=span > 0)
    q = np.minimum(unit * 2.0**b, 2**b - 1).astype(np.uint64)
    key = np.zeros(n, dtype=np.uint64)
    one = np.uint64(1)
    for bit in range(b - 1, -1, -1):
        for axis in range(q.shape[1]):
            key = (key << one) | ((q[:, axis] >> np.uint64(bit)) & one)
    return np.argsort(key, kind="stable")


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

    The targets, the matrix's columns, are put in Z-order over their
    bounding box (:func:`_z_order`) after the centring, and the solution is
    mapped back to the caller's indices; every entry keeps its bits and
    only the column order changes.  The rows stay in the caller's order.
    The solver took less time on the spatially ordered columns, and why was
    measured, not derived (2-vCPU Xeon, SciPy 1.17): 42-44 → 30-31 ms on
    validate-1k's pair, 2290 → 1702 ms summed over 16 instances of the
    generator families at n = 1024 and 2048, and 1.36-1.66 → 1.18-1.31 s on
    a gaussian pair at t=1 and n=4096.  A random column order did not help
    (232-248 ms against 218-241 ms on a gaussian pair at n=2048, 170-196 ms
    in Z-order), so the gain comes from locality, not from reordering.
    Rows in curve order as well were slower or erratic: 40 → 53 ms on the
    validate pair with only the rows ordered, and 42 → 360 ms on a line
    mixture at n=1024 with both.

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
    The over-relaxed passes at a lower temperature give better potentials
    for less matrix work than the 30 plain passes at 0.02 of the mean they
    replaced.  Warm start plus solve, summed over the 7 family settings the
    constants were chosen on but at other generator seeds, went 978 → 694 ms
    at n=1024 (3 seeds), 3.52 → 2.40 s at n=2048 (2 seeds) and 10.9 → 6.9 s
    at n=4096 (1 seed), every family faster at every size (2-vCPU Xeon,
    SciPy 1.17).  Plans stayed the same
    wherever the optimum is unique; on gaussian pairs at t=0, whose clipped
    duplicates tie, another optimum came back, its total equal or 1 ulp apart.
    The warm start's kernel overwrites the distances, which are then built
    again in the same buffer and reduced in place, so the peak is one n×n
    float64 array (8 MiB at n=1024, 128 MiB at n=4096).  The warm start
    costs about 40 passes over it (30 of them matrix-vector products),
    about 13 ms at n=1024 (the plain passes took 21 ms).

    The plan's costs are those of the given coordinates, not the centred
    ones.  Which optimum comes back among ties is not contracted.  Non-finite
    coordinates raise ``ValueError``, and so do points spread so far apart that
    their squared distances overflow float64.  ``scipy.optimize`` is imported
    at the first solve, through :func:`linear_sum_assignment`, not with this
    module: the rrm and merged paths never solve, and the import, which loads
    ``scipy.spatial`` too, costs about 0.15 s and 16 MiB.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape != y.shape or x.shape[0] < 1:
        raise SizeMismatchError(
            f"point arrays must be (n, d) with n >= 1 and equal shapes, got {x.shape} and {y.shape}"
        )
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("point arrays contain non-finite coordinates")
    z = _z_order(y)
    xc, yc = _centred(x), _centred(y)[z]  # centred first: permuting first moves the mean's bits
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
    cols = z[cols]
    return Plan(pi=cols, squared_costs=_pair_costs(x, y, cols))


def squared_distance_matrix(
    X: PointCloud | np.ndarray, Y: PointCloud | np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Pairwise squared Euclidean distances.

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
    # SciPy sums squared differences, so no entry is ever negative.
    return cdist(x, y, "sqeuclidean", out=out)


def exact_plan(X: PointCloud, Y: PointCloud, cap: int = EXACT_CAP) -> Plan:
    """An optimal assignment of X to Y: :func:`hungarian` on the clouds' coordinates.

    Refuses to run above ``cap`` points, where the surrogate methods are the
    intended tool.  Peak memory is hungarian's one n×n float64 buffer (8 MiB at
    n=1024).  Which optimum comes back among ties is not contracted.
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
