"""Last-mile diagnostics and statistical-convergence experiments.

The last-mile half quantifies why rank matchings lose resolution when two
clouds nearly coincide: pairs of near neighbors that the recursive partition
separates earlier than their distance warrants ("premature" pairs) force
costly within-cell matches.  The decomposition splits a realized plan cost
into a nearest-neighbor baseline plus a proportion-times-severity excess with
a machine-checkable lower bound.

The convergence half evaluates the population-anchored surrogate for samples
from the uniform law on the unit box, whose partition tree is analytic: every
split is a dyadic midpoint and the tree-curve de-interleaves the binary digits
of the parameter across axes.  Curve integrals are computed in closed form by
walking the binary digits of the integration endpoints, so the only
randomness left in the experiments is the sampling itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from rrmatch.core import (
    Plan,
    PointCloud,
    RngSeed,
    SizeMismatchError,
    _as_cloud,
    _centred,
    _check_pair,
    _pair_costs,
    derive_rng,
)
from rrmatch.partition import MAX_DEPTH, _addresses, build_tree, split_thresholds

_TAG_CONVERGENCE = 4
_TAG_THRESHOLDS = 5

#: Digit-walk truncation; contributions beyond this depth are below float64 noise.
_WALK_STEPS = 56

#: Deepest address a UniformPopulation takes: its dyadic thresholds stay exact
#: in float64, and packed addresses fit a uint64, up to this depth.
MAX_POPULATION_DEPTH = 40


# ---------------------------------------------------------------------------
# Nearest-neighbor baseline and the proportion/severity decomposition
# ---------------------------------------------------------------------------


def _nn_partners(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest neighbor in y for each row of x: (squared distances, indices).

    ``scipy.spatial`` is imported here, at the first query, not with the module.
    """
    from scipy.spatial import cKDTree

    _, idx = cKDTree(y).query(x, k=1)
    idx = np.asarray(idx, dtype=np.int64)
    return _pair_costs(x, y, idx), idx


@dataclass(frozen=True)
class LastMileParams:
    """Tree depth and dimension for the premature-split diagnostic."""

    depth: int
    d: int

    def __post_init__(self) -> None:
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in [1, {MAX_DEPTH}], got {self.depth}")
        if self.d < 1:
            raise ValueError("d must be >= 1")


def calibrated_depth(dist: float | np.ndarray, params: LastMileParams) -> int | np.ndarray:
    """Depth by which a pair at the given distance should still share a cell.

    min(H, ceil(d * log_2(sqrt(d) / dist))), clamped at 0, and H at dist = 0:
    each split halves a cell's side (the contraction of densities bounded
    above and below by the same constant), and sqrt(d), the diameter of the
    unit box, is the distance at which the depth reaches zero.  Nonincreasing
    in dist.  A scalar distance gives an int, an array an int64 array.
    """
    dist = np.asarray(dist, dtype=np.float64)
    out = np.full(dist.shape, params.depth, dtype=np.int64)
    positive = dist > 0.0
    ratio = math.sqrt(params.d) / dist[positive]
    out[positive] = np.clip(np.ceil(params.d * np.log(ratio) / np.log(2.0)), 0, params.depth)
    return out if out.ndim else int(out)


@functools.lru_cache(maxsize=1)
def _centred_nn(
    X: PointCloud, Y: PointCloud
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Both clouds centred on their own means, and each x's nearest y among them.

    Returns read-only (x, y, NN squared distances, NN indices).  None of it
    depends on a plan, and the CLI's ``plateau`` command, like any
    validation, decomposes several plans of one pair in a row, so the last
    pair's result is kept.  Clouds compare by their coordinates.
    """
    x, y = _centred(X.coords), _centred(Y.coords)
    delta_sq, jnn = _nn_partners(x, y)
    for a in (x, y, delta_sq, jnn):
        a.flags.writeable = False
    return x, y, delta_sq, jnn


def _premature_core(
    X: PointCloud, Y: PointCloud, params: LastMileParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared machinery: centred coordinates, NN squared distances and bad indices."""
    if params.d != X.d:
        raise SizeMismatchError(f"LastMileParams.d is {params.d} but the clouds have dimension {X.d}")
    x, y, delta_sq, jnn = _centred_nn(X, Y)
    codes = _addresses(build_tree(np.vstack([x, y]), params.depth), params.depth)
    ell = calibrated_depth(np.sqrt(delta_sq), params)
    # Separated before depth ell: the addresses differ in their top ell digits.
    split = (codes[: X.n] ^ codes[X.n :][jnn]) >> (params.depth - ell).astype(np.uint64)
    bad = np.flatnonzero(split).astype(np.int64)
    return x, y, delta_sq, bad


def premature_set(
    X: PointCloud, Y: PointCloud, params: LastMileParams
) -> tuple[np.ndarray, float]:
    """Indices whose NN partners are separated earlier than geometry warrants.

    Both clouds are translated so their barycenters coincide and ordered by a
    single :func:`build_tree` on the union, whose order gives each point its
    packed address.  Point i is bad when its address and its NN partner's
    differ within the first ``calibrated_depth`` digits of their distance.
    Returns the bad index set and its fraction of |X|.

    Known defect: rank splits can cut between the two copies of a coincident
    pair, and such a pair, whose calibrated depth is the full
    ``params.depth``, is then read as separated.  From
    ``params.depth >= full_depth(X.n + Y.n)`` on every point of the union has
    its own cell, so identical clouds read alpha 1.0.  Below that depth a cut
    of an odd-sized cell can fall between copies, so unless the union's size
    is a power of two identical clouds read alpha above 0: on 1000 uniform
    points (d=2) 0.063, 0.109, 0.178 and 0.294 at depths 7 to 10 (full depth
    11), on 100 points 0.10 to 0.64 at depths 4 to 7, and on 64 or 1024
    points 0 below full depth.  Capping ell or rejecting depths from full
    depth on does not remove it.
    """
    X, Y = _check_pair(X, Y, equal_size=False)
    *_, bad = _premature_core(X, Y, params)
    return bad, bad.size / X.n


@dataclass(frozen=True)
class LastMileReport:
    """Proportion/severity decomposition of one realized plan.

    ``rrm_sq >= lower_bound`` holds up to rounding for every plan:
    the per-point excess over the NN baseline is nonnegative by definition of
    the baseline, and the bound keeps only the excess on the bad set.
    """

    nn_term: float
    alpha_H: float
    gamma_bar: float
    lower_bound: float
    rrm_sq: float


def plateau_decomposition(
    X: PointCloud, Y: PointCloud, plan: Plan, params: LastMileParams
) -> LastMileReport:
    """Decompose a plan's mean squared cost against the NN baseline.

    All quantities are evaluated after translating each cloud's barycenter to
    the origin, so the report isolates shape mismatch from any net offset
    between the clouds.
    """
    X, Y = _check_pair(X, Y)
    if plan.n != X.n:
        raise SizeMismatchError("plan size does not match cloud size")

    # Translation does not affect quadratic transport geometry; aligning the
    # barycenters isolates the shape mismatch the diagnostic is after.
    x, y, delta_sq, bad = _premature_core(X, Y, params)

    cost = _pair_costs(x, y, plan.pi)
    gamma = np.maximum(cost - delta_sq, 0.0)

    n = X.n
    nn_term = float(delta_sq.mean())
    alpha = bad.size / n
    gamma_bar = float(gamma[bad].mean()) if bad.size else 0.0
    return LastMileReport(
        nn_term=nn_term,
        alpha_H=alpha,
        gamma_bar=gamma_bar,
        lower_bound=nn_term + alpha * gamma_bar,
        rrm_sq=float(cost.mean()),
    )


# ---------------------------------------------------------------------------
# Analytic uniform population: addresses, curve points, exact curve integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformPopulation:
    """The uniform law on [0, 1]^d under the cycling mass-median partition.

    Every split threshold is the midpoint of its cell, so a point's address
    digits are the binary digits of its coordinates interleaved in axis
    order (axis h mod d at depth h), and the tree curve at parameter t
    de-interleaves the digits of t.  ``depth`` truncates addresses for
    ordering.
    """

    d: int
    depth: int = MAX_POPULATION_DEPTH

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not 1 <= self.depth <= MAX_POPULATION_DEPTH:
            raise ValueError(f"depth must be in [1, {MAX_POPULATION_DEPTH}], got {self.depth}")

    def addresses(self, coords: np.ndarray) -> np.ndarray:
        """Packed analytic addresses (uint64, MSB-first) of in-box points."""
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != self.d:
            raise ValueError(f"expected (n, {self.d}) coordinates, got shape {coords.shape}")
        if (coords < 0.0).any() or (coords > 1.0).any():
            raise ValueError("points outside the unit box cannot be addressed")
        rem = coords.copy()
        codes = np.zeros(coords.shape[0], dtype=np.uint64)
        for p in range(self.depth):
            j = p % self.d
            digit = rem[:, j] > 0.5
            codes = (codes << np.uint64(1)) | digit.astype(np.uint64)
            rem[:, j] = np.where(digit, 2.0 * rem[:, j] - 1.0, 2.0 * rem[:, j])
        return codes

    def tree_points(self, ts: np.ndarray) -> np.ndarray:
        """Curve points T(t): de-interleave the binary digits of each t."""
        ts = np.asarray(ts, dtype=np.float64)
        if (ts < 0.0).any() or (ts > 1.0).any():
            raise ValueError("parameters must lie in [0, 1]")
        rem = ts.copy()
        out = np.zeros((ts.shape[0], self.d))
        place = np.full(self.d, 0.5)
        for p in range(_WALK_STEPS):
            j = p % self.d
            digit = rem > 0.5
            out[digit, j] += place[j]
            rem = np.where(digit, 2.0 * rem - 1.0, 2.0 * rem)
            place[j] *= 0.5
        return out

    def threshold(self, h: int, k: int) -> float:
        """Population split threshold of cell k at depth h: a dyadic midpoint.

        The c digits of k that split along axis ``h % d`` (read MSB-first)
        form v, and the cell spans [v, v + 1] / 2^c on that axis, so its
        midpoint is ``(2v + 1) / 2^(c + 1)``, exact in float64 for
        h <= MAX_POPULATION_DEPTH.
        """
        v = c = 0
        for p in range(h % self.d, h, self.d):
            v = 2 * v + ((k >> (h - 1 - p)) & 1)
            c += 1
        return (2 * v + 1) / 2 ** (c + 1)

    def curve_integrals(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative curve integrals at each t: (int_0^t T, int_0^t ||T||^2).

        Walks the binary digits of t; whenever a digit is 1, the fully covered
        left sibling cell contributes in closed form.  Within a cell at depth
        p the curve is the cell's corner plus independent uniform-digit
        remainders per axis (mean 1/2, second moment 1/3 at the remaining
        scale), which gives exact first and second moments per cell.
        """
        ts = np.asarray(ts, dtype=np.float64)
        if (ts < 0.0).any() or (ts > 1.0).any():
            raise ValueError("parameters must lie in [0, 1]")
        m = ts.shape[0]
        rem = ts.copy()
        corner = np.zeros((m, self.d))
        place = np.full(self.d, 0.5)
        acc1 = np.zeros((m, self.d))
        acc2 = np.zeros(m)
        child_len = 0.5
        for p in range(_WALK_STEPS):
            j = p % self.d
            scale = 2.0 * place  # remaining-digit scale per axis after this split
            scale[j] = place[j]
            digit = rem > 0.5
            if digit.any():
                cb = corner[digit]
                acc1[digit] += child_len * (cb + 0.5 * scale)
                acc2[digit] += child_len * (cb * cb + cb * scale + (scale * scale) / 3.0).sum(axis=1)
                corner[digit, j] += place[j]
            rem = np.where(digit, 2.0 * rem - 1.0, 2.0 * rem)
            place[j] *= 0.5
            child_len *= 0.5
        # First-order tail of the last partial cell; O(2^-steps), below rounding.
        scale = 2.0 * place
        tail = rem * (2.0 * child_len)
        acc1 += tail[:, None] * (corner + 0.5 * scale)
        acc2 += tail * (corner * corner + corner * scale + (scale * scale) / 3.0).sum(axis=1)
        return acc1, acc2


def anchored_rrm_uniform(sample: PointCloud, pop: UniformPopulation) -> float:
    """Anchored surrogate distance between the uniform law and one sample.

    Points are ordered by their analytic addresses; the step inverse of the
    empirical prefix-mass function sends the k-th parameter interval
    [(k-1)/n, k/n) to the k-th ordered sample point, and the squared gap to
    the analytic curve is integrated exactly over each interval.
    """
    sample = _as_cloud(sample)
    if sample.d != pop.d:
        raise SizeMismatchError(f"sample dimension {sample.d} != population dimension {pop.d}")
    codes = pop.addresses(sample.coords)
    ordered = sample.coords[np.argsort(codes, kind="stable")]
    n = sample.n
    breakpoints = np.arange(n + 1, dtype=np.float64) / n
    g1, g2 = pop.curve_integrals(breakpoints)
    dg1 = np.diff(g1, axis=0)
    dg2 = np.diff(g2)
    total = float(
        (dg2 - 2.0 * np.einsum("ij,ij->i", dg1, ordered) + np.einsum("ij,ij->i", ordered, ordered) / n).sum()
    )
    return math.sqrt(max(total, 0.0))


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceResult:
    """Per-n mean/sd of the anchored distance plus the fitted log-log slope."""

    rows: tuple[tuple[int, float, float], ...]
    slope: float
    theory_exponent: float


def convergence_experiment(
    d: int,
    n_list: list[int],
    reps: int,
    seed: RngSeed,
    depth: int = MAX_POPULATION_DEPTH,
) -> ConvergenceResult:
    """Monte-Carlo decay of the anchored distance for uniform samples.

    The uniform density has contraction factor rho = 1/2, hence a Holder
    exponent of 1/d and ``theory_exponent`` = -min(1/(2d), 1/4), log factors left
    out.  Over n = 256..65536 (10 reps, seed 0) the slope read -0.534 at d=1, steeper,
    but -0.219 and -0.158 at d=2 and 3, shallower than -0.25 and -0.167.
    The slope is fitted only when ``n_list`` holds at least two distinct
    sizes; otherwise no slope exists and it is NaN.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    pop = UniformPopulation(d=d, depth=depth)
    rows = []
    for i, n in enumerate(n_list):
        values = np.empty(reps)
        for rep in range(reps):
            rng = derive_rng(seed, _TAG_CONVERGENCE, i, rep)
            values[rep] = anchored_rrm_uniform(PointCloud(rng.random((n, d))), pop)
        rows.append((int(n), float(values.mean()), float(values.std(ddof=1) if reps > 1 else 0.0)))
    means = np.array([r[1] for r in rows])
    ns = np.array([r[0] for r in rows], dtype=np.float64)
    slope = float(np.polyfit(np.log(ns), np.log(means), 1)[0]) if np.unique(ns).size > 1 else float("nan")
    alpha = 1.0 / d
    return ConvergenceResult(
        rows=tuple(rows),
        slope=slope,
        theory_exponent=-min(alpha / 2.0, 0.25),
    )


def threshold_consistency_experiment(
    d: int,
    depth: int,
    n_list: list[int],
    reps: int,
    seed: RngSeed,
) -> tuple[tuple[int, float], ...]:
    """Median over reps of max |empirical - population threshold| per n.

    Uniform samples on the unit box; population thresholds are the dyadic
    midpoints.  The deviation should shrink as n grows.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    pop = UniformPopulation(d=d, depth=max(depth, 1))
    rows = []
    for i, n in enumerate(n_list):
        devs = np.empty(reps)
        for rep in range(reps):
            rng = derive_rng(seed, _TAG_THRESHOLDS, i, rep)
            worst = 0.0
            for h, k, m in split_thresholds(PointCloud(rng.random((n, d))), depth):
                worst = max(worst, abs(m - pop.threshold(h, k)))
            devs[rep] = worst
        rows.append((int(n), float(np.median(devs))))
    return tuple(rows)
