"""Recursive rank matching: fast surrogates for the 2-Wasserstein distance.

The package matches equal-size, uniformly weighted point clouds by ordering
each cloud along a mass-median recursive partition (the tree-curve order) and
pairing points rank by rank.  On top of that primitive it provides multi-run
plan merging, the selective screening pipeline with exact finalization, and
the last-mile / convergence diagnostics.
"""

from rrmatch.core import (
    CapExceededError,
    DataFormatError,
    InvalidCloudError,
    Plan,
    PointCloud,
    SizeMismatchError,
    derive_rng,
    derive_seed,
    load_point_cloud,
    normalize_unit_box,
    plan_squared_cost,
    save_point_cloud,
)
from rrmatch.diagnostics import (
    LastMileParams,
    LastMileReport,
    UniformPopulation,
    anchored_rrm_uniform,
    calibrated_depth,
    convergence_experiment,
    plateau_decomposition,
    premature_set,
    threshold_consistency_experiment,
)
from rrmatch.matching import (
    exact_w2,
    hungarian,
    merge_pair,
    merged_rrm,
    rrm_plan,
    squared_distance_matrix,
)
from rrmatch.partition import (
    build_tree,
    split_thresholds,
    tree_curve_order,
)
from rrmatch.srrm import (
    UNASSIGNED,
    SrrmConfig,
    SrrmResult,
    finalize_hungarian,
    sample_near,
    select,
    srrm_match,
)

__version__ = "0.1.0"

__all__ = [
    "UNASSIGNED",
    "CapExceededError",
    "DataFormatError",
    "InvalidCloudError",
    "LastMileParams",
    "LastMileReport",
    "Plan",
    "PointCloud",
    "SizeMismatchError",
    "SrrmConfig",
    "SrrmResult",
    "UniformPopulation",
    "anchored_rrm_uniform",
    "build_tree",
    "calibrated_depth",
    "convergence_experiment",
    "derive_rng",
    "derive_seed",
    "exact_w2",
    "finalize_hungarian",
    "hungarian",
    "load_point_cloud",
    "merge_pair",
    "merged_rrm",
    "normalize_unit_box",
    "plan_squared_cost",
    "plateau_decomposition",
    "premature_set",
    "rrm_plan",
    "sample_near",
    "save_point_cloud",
    "select",
    "squared_distance_matrix",
    "split_thresholds",
    "srrm_match",
    "threshold_consistency_experiment",
    "tree_curve_order",
]
