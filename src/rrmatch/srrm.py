"""Selective rank matching: screening, exact completion and a guard.

Screening runs rounds that match the currently unresolved subsets augmented
with synthetic anchor points appended identically to both sides.  A real point
matched to a real point is committed as reliable and never revisited; a real
point captured by an anchor is carried into the next round.  The assignment
stays an int64 array, ``UNASSIGNED`` where uncommitted, until an exact
assignment on the residual completes it into a plan; an optional guard then
makes the result never worse than plain multi-run matching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rrmatch.core import (
    CapExceededError,
    Plan,
    PointCloud,
    RngSeed,
    _as_cloud,
    _check_integer,
    _check_pair,
    _check_seed,
    _check_assignment,
    _pair_costs,
    derive_rng,
    derive_seed,
)
from rrmatch.matching import hungarian, merged_rrm
from rrmatch.matching import squared_distance_matrix  # noqa: F401  (a tracing point of bench/spans.py)

#: Marks a source with no committed target in a partial assignment.
UNASSIGNED = -1

#: Anchor spread when a subset has a single point and no neighbor distance.
_LONE_POINT_SCALE = 0.01

#: Derivation-path tags (kept disjoint from matching's rotation tag).
_TAG_ROUND = 2
_TAG_ANCHOR = 3


@dataclass(frozen=True)
class SrrmConfig:
    """Screening parameters.

    At least one round runs: the zero-round plan is
    ``merged_rrm(X, Y, merge_runs, seed)``.  With anchors_per_point=0, round 0
    matches the real points alone and commits all of them, so the pipeline plan
    is ``merged_rrm`` seeded with round 0's derived seed, not with ``seed``, and
    finalization has nothing to do.  ``guard`` keeps one extra merged run and
    returns it only if strictly cheaper, making "never worse than merged" a hard
    invariant.
    """

    rounds: int = 10
    anchors_per_point: int = 5
    merge_runs: int = 8
    hungarian_cap: int = 4096
    seed: RngSeed = 0
    guard: bool = True

    def __post_init__(self) -> None:
        for name in ("rounds", "anchors_per_point", "merge_runs", "hungarian_cap"):
            _check_integer(name, getattr(self, name))
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1; the zero-round plan is merged_rrm(X, Y, merge_runs, seed)")
        if self.anchors_per_point < 0:
            raise ValueError("anchors_per_point must be >= 0")
        if self.merge_runs < 1:
            raise ValueError("merge_runs must be >= 1")
        if self.hungarian_cap < 0:
            raise ValueError("hungarian_cap must be >= 0")
        _check_seed(self.seed)
        if not isinstance(self.guard, bool):
            raise TypeError(f"guard must be a bool, got {self.guard!r}")


@dataclass(frozen=True)
class SrrmResult:
    """The plan, the unresolved count after each round, and whether the guard's plan won.

    Round r committed ``history[r-1] - history[r]`` pairs, and round 0
    ``n - history[0]``; ``history`` ends at a 0 once nothing is unresolved.
    ``residual``, what the exact completion assigned, is ``history[-1]``, and
    ``value`` is ``plan.rms``.  ``guard_applied`` means the guard's merged plan
    was strictly cheaper, hence a different plan, and was returned.
    """

    plan: Plan
    history: tuple[int, ...]
    guard_applied: bool

    @property
    def value(self) -> float:
        return self.plan.rms

    @property
    def residual(self) -> int:
        return self.history[-1]


def sample_near(
    P: PointCloud | np.ndarray, k: int, seed: RngSeed | np.random.Generator = 0
) -> np.ndarray:
    """Draw k anchors in the neighborhood of each point of P.

    Anchor (i, j) = p_i + g * sigma_i with g an isotropic standard normal draw
    and sigma_i the distance from p_i to its nearest neighbor within P (0.01
    for a lone point).  Anchors are clamped to the unit box.  Returns a
    (k * |P|, d) array; empty for k = 0.  The neighbour query's
    ``scipy.spatial`` is imported at the first call, not with this module.
    """
    from scipy.spatial import cKDTree

    P = _as_cloud(P)
    _check_integer("k", k)
    if k < 0:
        raise ValueError("k must be >= 0")
    if k * P.n > (1 << 31):
        raise ValueError(f"anchor count {k}*{P.n} exceeds the sanity bound")
    if k == 0:
        return np.empty((0, P.d), dtype=np.float64)
    if P.n == 1:
        sigma = np.full(1, _LONE_POINT_SCALE)
    else:
        dist, _ = cKDTree(P.coords).query(P.coords, k=2)
        sigma = dist[:, 1]
        sigma = np.where(sigma > 0.0, sigma, _LONE_POINT_SCALE)
    rng = seed if isinstance(seed, np.random.Generator) else derive_rng(seed)
    noise = rng.standard_normal((k, P.n, P.d))
    anchors = (P.coords[None, :, :] + noise * sigma[None, :, None]).reshape(k * P.n, P.d)
    return np.clip(anchors, 0.0, 1.0)


def select(T: Plan, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split an augmented-problem plan into reliable pairs and leftovers.

    ``T`` is a complete plan on [reals; anchors] vs [reals; anchors] with m
    real points per side.  Returns (good, keep_x, keep_y): good is an array of
    (i, j) real-to-real pairs; keep_x the real sources matched to an anchor;
    keep_y the real targets captured by an anchor.  Bijectivity of T forces
    len(keep_x) == len(keep_y).
    """
    if not 0 <= m <= T.n:
        raise ValueError(f"real-count m={m} out of range for plan of size {T.n}")
    pi = T.pi
    real_targets = pi[:m]
    good_src = np.flatnonzero(real_targets < m)
    good = np.column_stack([good_src, real_targets[good_src]]).astype(np.int64, copy=False)
    keep_x = np.flatnonzero(real_targets >= m).astype(np.int64, copy=False)
    hit_by_real = np.zeros(m, dtype=bool)
    hit_by_real[real_targets[good_src]] = True
    keep_y = np.flatnonzero(~hit_by_real).astype(np.int64, copy=False)
    return good, keep_x, keep_y


def finalize_hungarian(
    X: PointCloud,
    Y: PointCloud,
    partial: np.ndarray,
    cap: int = SrrmConfig.hungarian_cap,
) -> Plan:
    """Complete a partial assignment into a plan by an exact residual assignment.

    ``partial[i]`` is source i's committed target, or ``UNASSIGNED``; committed
    targets must lie in ``[0, n)`` and be pairwise distinct.  The unassigned
    sources get the unused targets at minimum total squared cost, by
    :func:`~rrmatch.matching.hungarian` on the residual points: it centres each
    side on its own mean, which adds only row and column terms, so the optimal
    assignments are unchanged and the solve was faster, and it hands the
    solver the unused targets in Z-order.  On a residual of 1878 points
    (gaussian-pair t=0, n=32000, one anchor per point, 5 runs) the centring
    took the completion from 3.2 to 2.0 s; measured again later, it read
    1.5-1.8 s (median 1.54 s) with the Z-order against 1.3-1.9 s (median
    1.79 s) without, since clipped duplicates make ties, where the Z-order
    gains least.  It holds one r×r float64 buffer for a residual of r
    points.  Which optimum comes back among ties is not contracted.  A
    residual whose squared distances overflow float64 raises ``ValueError``.
    """
    X, Y = _check_pair(X, Y)
    pi = np.array(partial)
    committed = pi != UNASSIGNED
    _check_assignment(pi, X.n, where=committed)
    rows = np.flatnonzero(~committed)
    if rows.size > cap:
        raise CapExceededError(
            f"residual assignment of size {rows.size} exceeds cap {cap}; its exact solve "
            f"needs a {rows.size}x{rows.size} float64 buffer ({rows.size**2 * 8 / 2**20:.1f} MiB): "
            "raise SrrmConfig.hungarian_cap (CLI --cap) to allow it"
        )
    if rows.size:
        cols = np.setdiff1d(np.arange(X.n), pi[committed], assume_unique=True)
        sub = hungarian(X.coords[rows], Y.coords[cols])
        pi[rows] = cols[sub.pi]
    return Plan(pi=pi, squared_costs=_pair_costs(X.coords, Y.coords, pi))


def _screen(X: PointCloud, Y: PointCloud, cfg: SrrmConfig) -> tuple[np.ndarray, tuple[int, ...]]:
    """Screening rounds: the partial assignment and the unresolved count after each round.

    Per round: take the unresolved subsets, append anchors sampled near both
    subsets to both sides, compute a merged multi-run plan on the augmented
    sets, commit real-to-real pairs globally, and carry anchor-captured points
    forward.  Rounds stop early once nothing is unresolved.
    """
    k = cfg.anchors_per_point
    pi = np.full(X.n, UNASSIGNED, dtype=np.int64)
    unresolved_x = np.arange(X.n, dtype=np.int64)
    unresolved_y = np.arange(X.n, dtype=np.int64)
    history = []
    for r in range(cfg.rounds):
        m = unresolved_x.size
        if m == 0:
            break
        xs = X.coords[unresolved_x]
        ys = Y.coords[unresolved_y]
        anchors = np.vstack(
            [
                sample_near(xs, k, derive_rng(cfg.seed, _TAG_ANCHOR, r, 0)),
                sample_near(ys, k, derive_rng(cfg.seed, _TAG_ANCHOR, r, 1)),
            ]
        )
        T = merged_rrm(
            PointCloud(np.vstack([xs, anchors])),
            PointCloud(np.vstack([ys, anchors])),
            cfg.merge_runs,
            derive_seed(cfg.seed, _TAG_ROUND, r),
        )
        good, keep_x, keep_y = select(T, m)
        pi[unresolved_x[good[:, 0]]] = unresolved_y[good[:, 1]]
        unresolved_x = unresolved_x[keep_x]
        unresolved_y = unresolved_y[keep_y]
        history.append(int(unresolved_x.size))
    return pi, tuple(history)


def srrm_match(X: PointCloud, Y: PointCloud, cfg: SrrmConfig | None = None) -> SrrmResult:
    """Screen, complete the residual exactly, then guard: a complete bijection.

    With the guard enabled the result is the cheaper of the pipeline plan and a
    plain merged plan computed with the same seed.
    """
    X, Y = _check_pair(X, Y)
    cfg = cfg or SrrmConfig()
    pi, history = _screen(X, Y, cfg)
    plan = finalize_hungarian(X, Y, pi, cfg.hungarian_cap)
    guard_applied = False
    if cfg.guard:
        base = merged_rrm(X, Y, cfg.merge_runs, cfg.seed)
        if base.squared_cost_sum < plan.squared_cost_sum:
            plan, guard_applied = base, True
    return SrrmResult(plan=plan, history=history, guard_applied=guard_applied)
