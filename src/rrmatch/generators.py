"""Synthetic instance generators for the experiment runners.

All families emit float64 clouds fully determined by the generator
parameters and seed.  Every family stays in (or is clipped to) the unit box,
except the Y cloud of perturbed-copy, which is not clipped and leaves the box
for any alpha > 0.  Pair families return (X, Y); uniform-box returns a single
cloud.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rrmatch.core import PointCloud, RngSeed, derive_rng

FAMILIES = ("uniform-box", "gaussian-pair", "line-mixture", "opening-angle", "perturbed-copy")

_TAG_GEN = 6


@dataclass(frozen=True)
class GeneratorSpec:
    """One synthetic instance: family name plus its parameters.

    gaussian-pair: truncated isotropic Gaussians whose means move linearly
    toward the center as t goes 0 -> 1 (from (0.8, 0.8) and (0.1, 0.1) to
    (0.5, 0.5)), clipped to the unit square.

    line-mixture: both clouds mix points on segments through (0.5, 0.5); the
    good fraction lies on a shared line of slope ``good_slope``, the bad
    fraction on lines of slope +|bad_slope| (X side) and -|bad_slope| (Y
    side).

    opening-angle: two segments through the center at slope -1 opened
    symmetrically by ``delta`` radians.

    perturbed-copy: X uniform in the box, Y = X + alpha * standard normal,
    unclipped, so for alpha > 0 points of Y fall outside the unit box.
    """

    family: str
    n: int = 1024
    d: int = 2
    seed: RngSeed = 0
    t: float = 0.0
    sigma: float = 0.1
    frac_bads: float = 0.0
    good_slope: float = -1.0
    bad_slope: float = 100.0
    delta: float = 0.0
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.family in ("gaussian-pair", "line-mixture", "opening-angle") and self.d != 2:
            raise ValueError(f"{self.family} is planar; needs d=2, got d={self.d}")
        if not 0.0 <= self.frac_bads <= 1.0:
            raise ValueError(f"frac_bads must be in [0, 1], got {self.frac_bads}")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"t must be in [0, 1], got {self.t}")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be > 0")
        if self.delta < 0.0:
            raise ValueError("delta must be >= 0")
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0")


def _line_points(slope: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on the segment through (0.5, 0.5) with given slope."""
    u = rng.random(n)
    if abs(slope) <= 1.0:
        x = u
        y = 0.5 + slope * (u - 0.5)
    else:
        y = u
        x = 0.5 + (u - 0.5) / slope
    return np.column_stack([x, y])


def _angled_points(angle: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on the maximal in-box segment through the center at ``angle``."""
    c, s = np.cos(angle), np.sin(angle)
    reach = 0.5 / max(abs(c), abs(s))
    u = rng.uniform(-reach, reach, size=n)
    return np.column_stack([0.5 + u * c, 0.5 + u * s])


def gen(spec: GeneratorSpec) -> tuple[PointCloud, PointCloud | None]:
    """Materialize a spec; deterministic in (family, parameters, seed)."""
    rng = derive_rng(spec.seed, _TAG_GEN)
    n, d = spec.n, spec.d

    if spec.family == "uniform-box":
        return PointCloud(rng.random((n, d))), None

    if spec.family == "gaussian-pair":
        m1 = (1.0 - spec.t) * np.array([0.8, 0.8]) + spec.t * np.array([0.5, 0.5])
        m2 = (1.0 - spec.t) * np.array([0.1, 0.1]) + spec.t * np.array([0.5, 0.5])
        x = np.clip(m1 + spec.sigma * rng.standard_normal((n, 2)), 0.0, 1.0)
        y = np.clip(m2 + spec.sigma * rng.standard_normal((n, 2)), 0.0, 1.0)
        return PointCloud(x), PointCloud(y)

    if spec.family == "line-mixture":
        n_bad = int(round(spec.frac_bads * n))
        n_good = n - n_bad
        mag = abs(spec.bad_slope)
        x_parts, y_parts = [], []
        if n_good:
            x_parts.append(_line_points(spec.good_slope, n_good, rng))
            y_parts.append(_line_points(spec.good_slope, n_good, rng))
        if n_bad:
            x_parts.append(_line_points(mag, n_bad, rng))
            y_parts.append(_line_points(-mag, n_bad, rng))
        return PointCloud(np.vstack(x_parts)), PointCloud(np.vstack(y_parts))

    if spec.family == "opening-angle":
        base = -np.pi / 4.0
        x = _angled_points(base + spec.delta / 2.0, n, rng)
        y = _angled_points(base - spec.delta / 2.0, n, rng)
        return PointCloud(x), PointCloud(y)

    # perturbed-copy
    x = rng.random((n, d))
    y = x + spec.alpha * rng.standard_normal((n, d))
    return PointCloud(x), PointCloud(y)
