"""Domain types, seeded RNG plumbing, unit-box normalization, and point-cloud I/O.

Everything here is immutable after construction and safe to share across
threads; operations are pure functions of their inputs and an explicit seed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Seeds are plain 64-bit unsigned integers.
RngSeed = int

_PCF_MAGIC = b"PCF1"


class InvalidCloudError(ValueError):
    """Raised when point-cloud data violates a structural invariant."""


class DataFormatError(ValueError):
    """Raised on malformed CSV/PCF input; message carries line or byte offset."""


class SizeMismatchError(ValueError):
    """Raised when an operation requires equal-size clouds and gets unequal ones."""


class CapExceededError(RuntimeError):
    """Raised when an exact-assignment subproblem exceeds its configured cap."""


def _check_seed(seed: RngSeed) -> None:
    """Raise a ValueError that names a negative seed."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def derive_rng(seed: RngSeed, *path: int) -> np.random.Generator:
    """Return a generator for the given seed and derivation path.

    The path is a tuple of small integers identifying the consumer (run index,
    round index, ...).  Distinct paths give statistically independent streams,
    and the mapping is order-independent: deriving ``(seed, 2, 1)`` never
    depends on whether ``(seed, 1, 1)`` was derived first.
    """
    _check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def derive_seed(seed: RngSeed, *path: int) -> int:
    """Collapse a derivation path into a fresh 64-bit seed."""
    _check_seed(seed)
    ss = np.random.SeedSequence(seed, spawn_key=path)
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class PointCloud:
    """n points in d dimensions with implicit uniform weights 1/n.

    ``coords`` is a read-only (n, d) float64 row-major copy of the array
    passed in.  All coordinates must be finite and n, d >= 1.
    """

    coords: np.ndarray

    def __post_init__(self) -> None:
        coords = np.array(self.coords, dtype=np.float64, order="C")
        if coords.ndim != 2:
            raise InvalidCloudError(f"coords must be 2-d (n, d), got shape {coords.shape}")
        if coords.shape[0] < 1 or coords.shape[1] < 1:
            raise InvalidCloudError(f"need n >= 1 and d >= 1, got shape {coords.shape}")
        bad = ~np.isfinite(coords)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise InvalidCloudError(f"non-finite coordinate at point {i}, axis {j}")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        return self.coords.shape == other.coords.shape and bool(
            np.array_equal(self.coords, other.coords)
        )

    def __hash__(self) -> int:  # frozen dataclass with array field
        return hash((self.coords.shape, self.coords.tobytes()))


def _as_cloud(X: PointCloud | np.ndarray) -> PointCloud:
    return X if isinstance(X, PointCloud) else PointCloud(X)


def _check_assignment(pi: np.ndarray, n: int, where: np.ndarray | None = None, distinct: bool = True) -> None:
    """SizeMismatchError unless ``pi`` has n entries; ValueError naming its dtype
    unless that is an integer one (a cast would truncate floats), or naming the
    first entry that the boolean mask ``where`` selects (all by default) and that
    lies outside ``[0, n)`` or, with ``distinct``, repeats an earlier one."""
    if pi.shape != (n,):
        raise SizeMismatchError(f"plan size {pi.shape} does not match cloud size {n}")
    if not np.issubdtype(pi.dtype, np.integer):
        raise ValueError(f"index array must have an integer dtype, got {pi.dtype}")
    targets = pi if where is None else pi[where]
    if targets.size and (targets.min() < 0 or targets.max() >= n):
        bad, problem = (targets < 0) | (targets >= n), f"is outside [0, {n})"
    elif not distinct:
        return
    else:
        seen = np.zeros(n, dtype=bool)
        seen[targets] = True
        if np.count_nonzero(seen) == targets.size:
            return
        bad = np.ones(targets.size, dtype=bool)
        bad[np.unique(targets, return_index=True)[1]] = False
        problem = "repeats an earlier target; targets must be pairwise distinct"
    k = int(np.argmax(bad))
    i = k if where is None else int(np.flatnonzero(where)[k])
    raise ValueError(f"pi[{i}] = {targets[k]} {problem}")


@dataclass(frozen=True)
class Plan:
    """A bijection of ``range(n)`` onto itself: source ``i`` goes to target ``pi[i]``.

    ``squared_cost_sum`` is the sum of squared Euclidean costs over all pairs (not
    divided by n), summed per row in row order, exactly as :func:`plan_squared_cost`.
    ``pi`` is stored as a read-only int64 copy of the integer array passed in.
    """

    pi: np.ndarray
    squared_cost_sum: float

    def __post_init__(self) -> None:
        pi = np.asarray(self.pi)
        if pi.ndim != 1 or pi.size < 1:
            raise ValueError("pi must be a non-empty 1-d index array")
        _check_assignment(pi, pi.size)
        if not math.isfinite(self.squared_cost_sum) or self.squared_cost_sum < 0:
            raise ValueError(f"squared_cost_sum must be finite and >= 0, got {self.squared_cost_sum}")
        pi = np.array(pi, dtype=np.int64, order="C")
        pi.flags.writeable = False
        object.__setattr__(self, "pi", pi)

    @property
    def n(self) -> int:
        return self.pi.size

    @property
    def rms(self) -> float:
        """Root-mean-square cost, sqrt(squared_cost_sum / n)."""
        return math.sqrt(self.squared_cost_sum / self.n)

    def inverse(self) -> np.ndarray:
        """The inverse permutation."""
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.pi] = np.arange(self.n, dtype=np.int64)
        return inv


def _check_pair(
    X: PointCloud | np.ndarray, Y: PointCloud | np.ndarray, equal_size: bool = True
) -> tuple[PointCloud, PointCloud]:
    """Both inputs as clouds; SizeMismatchError unless their dimensions agree,
    and with ``equal_size`` also their sizes."""
    X, Y = _as_cloud(X), _as_cloud(Y)
    if X.d != Y.d:
        raise SizeMismatchError(f"dimension mismatch: {X.d} != {Y.d}")
    if equal_size and X.n != Y.n:
        raise SizeMismatchError(f"clouds must have equal size, got {X.n} and {Y.n}")
    return X, Y


def _pair_costs(x: np.ndarray, y: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Per-row squared distances ``||x[i] - y[pi[i]]||^2``, in one gathered ``y[pi]`` buffer."""
    diff = np.take(y, pi, axis=0)
    np.subtract(x, diff, out=diff)
    return np.einsum("ij,ij->i", diff, diff)


def _centred(coords: np.ndarray) -> np.ndarray:
    """The points moved so that their mean sits at the origin."""
    return coords - coords.mean(axis=0)


def plan_squared_cost(X: PointCloud, Y: PointCloud, pi: np.ndarray) -> float:
    """Recompute the squared-cost sum of the assignment ``i -> pi[i]`` from scratch.

    ``pi`` needs one entry per point, each in ``[0, n)``.
    """
    X, Y = _check_pair(X, Y)
    pi = np.asarray(pi)
    _check_assignment(pi, X.n, distinct=False)
    return float(_pair_costs(X.coords, Y.coords, pi).sum())


def _to_unit_box(coords: np.ndarray, fitted: np.ndarray) -> np.ndarray:
    """Map coords by one translation and one scale: ``fitted``'s lower corner
    goes to the origin and its widest axis range to [0, 1].

    Axes on which ``fitted`` is constant map to 0.5.
    """
    lo = fitted.min(axis=0)
    extent = fitted.max(axis=0) - lo
    scale = extent.max()
    out = (coords - lo) / (scale if scale > 0.0 else 1.0)
    out[:, extent == 0.0] = 0.5
    return out


def normalize_unit_box(
    X: PointCloud,
    Y: PointCloud,
    mode: str = "joint",
) -> tuple[PointCloud, PointCloud]:
    """Rescale both clouds into the unit box [0, 1]^d.

    Each fit is mapped by one translation and one scale, the scale being the
    fit's widest axis range, so the widest axis spans [0, 1] and the others
    start at 0 and keep their proportions.  In ``joint`` mode one map is fitted
    on the union of both clouds and applied to each, so every distance between
    any two points shrinks by the same factor and the relative geometry the
    distance depends on is kept.  In ``per-cloud`` mode each cloud is fitted
    and mapped independently (replication studies only).  Axes on which a fit
    is constant map to 0.5.  Plans are index maps, so they carry over to the
    original clouds unchanged.
    """
    X, Y = _check_pair(X, Y, equal_size=False)
    if mode == "joint":
        both = np.vstack([X.coords, Y.coords])
        fits = (both, both)
    elif mode == "per-cloud":
        fits = (X.coords, Y.coords)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'joint' or 'per-cloud'")
    return PointCloud(_to_unit_box(X.coords, fits[0])), PointCloud(_to_unit_box(Y.coords, fits[1]))


def _infer_format(path: Path, format: str | None) -> str:
    if format is not None:
        if format not in ("csv", "pcf"):
            raise ValueError(f"unsupported format {format!r}; expected 'csv' or 'pcf'")
        return format
    suffix = path.suffix.lower().lstrip(".")
    if suffix in ("csv", "pcf"):
        return suffix
    raise ValueError(f"cannot infer format from {path.name!r}; pass format='csv' or 'pcf'")


def load_point_cloud(path: str | Path, format: str | None = None) -> PointCloud:
    """Load a cloud from CSV (one point per line) or PCF (binary) storage."""
    path = Path(path)
    fmt = _infer_format(path, format)
    if fmt == "csv":
        return _load_csv(path)
    return _load_pcf(path)


def save_point_cloud(X: PointCloud, path: str | Path, format: str | None = None) -> None:
    """Write a cloud so that :func:`load_point_cloud` round-trips it.

    CSV stores 17 significant digits (enough to round-trip float64 through
    text); PCF round-trips bit-identically.
    """
    X = _as_cloud(X)
    path = Path(path)
    fmt = _infer_format(path, format)
    if fmt == "csv":
        lines = [",".join(f"{v:.17g}" for v in row) for row in X.coords]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        with path.open("wb") as fh:
            fh.write(_PCF_MAGIC)
            fh.write(struct.pack("<II", X.n, X.d))
            fh.write(X.coords.astype("<f8", copy=False).tobytes(order="C"))


def _load_csv(path: Path) -> PointCloud:
    rows: list[list[float]] = []
    d = None
    with path.open("r", encoding="utf-8", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if lineno == 1 and line.startswith("#"):
                continue
            if not line:
                continue
            cells = line.split(",")
            try:
                row = [float(c) for c in cells]
            except ValueError as exc:
                raise DataFormatError(f"{path.name}:{lineno}: non-numeric cell: {exc}") from None
            if d is None:
                d = len(row)
            elif len(row) != d:
                raise DataFormatError(
                    f"{path.name}:{lineno}: ragged row, expected {d} values, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise DataFormatError(f"{path.name}: empty cloud")
    try:
        return PointCloud(np.array(rows, dtype=np.float64))
    except InvalidCloudError as exc:
        raise DataFormatError(f"{path.name}: {exc}") from None


def _load_pcf(path: Path) -> PointCloud:
    blob = path.read_bytes()
    if len(blob) < 12 or blob[:4] != _PCF_MAGIC:
        raise DataFormatError(f"{path.name}: bad magic bytes at offset 0 (expected PCF1)")
    n, d = struct.unpack_from("<II", blob, 4)
    if n == 0 or d == 0:
        raise DataFormatError(f"{path.name}: empty cloud (n={n}, d={d})")
    need = 12 + 8 * n * d
    if len(blob) != need:
        raise DataFormatError(
            f"{path.name}: payload size mismatch at offset 12: expected {need} bytes, got {len(blob)}"
        )
    coords = np.frombuffer(blob, dtype="<f8", count=n * d, offset=12).reshape(n, d)
    try:
        return PointCloud(coords.astype(np.float64))
    except InvalidCloudError as exc:
        raise DataFormatError(f"{path.name}: {exc}") from None
