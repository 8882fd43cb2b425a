"""Outside-in span tracing of the rrmatch layers.

The recorder wraps each library name where the calling code looks it up
(module globals, plus ``Plan``/``PointCloud.__post_init__``), so the package
itself is unchanged.  Every wrapped call becomes a span: name, start, end,
parent span and benchmark call id.  Spans stay in memory; the runner writes
them out when the run ends.  Hooks count work (points ordered, cells filled,
merges that helped, ...) at the same boundaries.

A span is named after the module that holds the code, not the namespace it was
looked up in: ``hungarian`` reached through ``rrmatch.srrm`` is still
``matching.hungarian``.  The one exception is the guard: the ``srrm``-namespace
``merged_rrm`` call that follows ``finalize_hungarian`` is ``srrm.guard``.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import Counter, defaultdict

import rrmatch.core
import rrmatch.diagnostics
import rrmatch.generators
import rrmatch.matching
import rrmatch.partition
import rrmatch.srrm

#: Span name of one benchmark call (one top-level call, or one bundle).
ROOT = "bench.call"
#: Call id of spans recorded during set-up.
SETUP = -1
#: Most of a call's wall that may sit outside every inner layer span.
UNTRACKED_LIMIT = 0.05


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _n(x) -> int:
    return x.n if isinstance(x, rrmatch.core.PointCloud) else len(x)


def _count_order(c, args, kwargs, out):
    c["partition.tree_curve_order.points"] += _n(_arg(args, kwargs, 0, "X"))


def _count_tree(c, args, kwargs, out):
    c["partition.build_tree.point_levels"] += _n(_arg(args, kwargs, 0, "X")) * _arg(args, kwargs, 1, "depth")


def _count_merge(c, args, kwargs, out):
    c["matching.merge_pair.improved"] += out.squared_cost_sum < _arg(args, kwargs, 0, "p").squared_cost_sum


def _count_runs(c, args, kwargs, out):
    c["matching.merged_rrm.runs"] += _arg(args, kwargs, 2, "runs")


def _count_cells(c, args, kwargs, out):
    c["matching.squared_distance_matrix.cells"] += out.size


def _count_rows(c, args, kwargs, out):
    c["matching.hungarian.rows"] += out.n


def _count_anchors(c, args, kwargs, out):
    c["srrm.sample_near.anchors"] += out.shape[0]


def _count_select(c, args, kwargs, out):
    c["srrm.select.committed"] += out[0].shape[0]
    c["srrm.select.entering"] += _arg(args, kwargs, 1, "m")


def _count_srrm(c, args, kwargs, out):
    c["srrm.rounds"] += len(out.history)
    c["srrm.residual"] += out.residual
    c["srrm.guard.fired"] += out.guard_applied


def _count_plateau(c, args, kwargs, out):
    c["diagnostics.alpha_H"] += out.alpha_H


def _guard_or_merged(tracer: "Tracer") -> str:
    if tracer.last_child() == "srrm.finalize_hungarian":
        return "srrm.guard"
    return "matching.merged_rrm"


#: (object to patch, attribute, span name or namer, counting hook).
PATCHES = (
    (rrmatch.core.PointCloud, "__post_init__", "core.PointCloud", None),
    (rrmatch.core.Plan, "__post_init__", "core.Plan", None),
    (rrmatch.generators, "gen", "generators.gen", None),
    (rrmatch.matching, "tree_curve_order", "partition.tree_curve_order", _count_order),
    (rrmatch.partition, "build_tree", "partition.build_tree", _count_tree),
    (rrmatch.diagnostics, "build_tree", "partition.build_tree", _count_tree),
    (rrmatch.matching, "rrm_plan", "matching.rrm_plan", None),
    (rrmatch.matching, "merge_pair", "matching.merge_pair", _count_merge),
    (rrmatch.matching, "merged_rrm", "matching.merged_rrm", _count_runs),
    (rrmatch.matching, "hungarian", "matching.hungarian", _count_rows),
    (rrmatch.matching, "squared_distance_matrix", "matching.squared_distance_matrix", _count_cells),
    (rrmatch.matching, "exact_w2", "matching.exact_w2", None),
    (rrmatch.srrm, "merged_rrm", _guard_or_merged, _count_runs),
    (rrmatch.srrm, "sample_near", "srrm.sample_near", _count_anchors),
    (rrmatch.srrm, "select", "srrm.select", _count_select),
    (rrmatch.srrm, "finalize_hungarian", "srrm.finalize_hungarian", None),
    (rrmatch.srrm, "hungarian", "matching.hungarian", _count_rows),
    (rrmatch.srrm, "squared_distance_matrix", "matching.squared_distance_matrix", _count_cells),
    (rrmatch.srrm, "srrm_match", "srrm.srrm_match", _count_srrm),
    (rrmatch.diagnostics, "plateau_decomposition", "diagnostics.plateau_decomposition", _count_plateau),
)


#: Every span name a call can produce (set-up's ``generators.gen`` aside).
SPAN_NAMES = tuple(sorted(
    {name for _, _, name, _ in PATCHES if isinstance(name, str)} - {"generators.gen"} | {"srrm.guard"}
))


#: Per-layer metrics reported by a traced run, with their units.
PER_LAYER_UNITS = {
    "core.PointCloud.calls": "count", "core.PointCloud.self_s": "s",
    "core.Plan.calls": "count", "core.Plan.self_s": "s",
    "generators.gen.calls": "count", "generators.gen.self_s": "s",
    "partition.tree_curve_order.calls": "count", "partition.tree_curve_order.points": "count",
    "partition.tree_curve_order.self_s": "s",
    "partition.build_tree.calls": "count", "partition.build_tree.point_levels": "count",
    "partition.build_tree.self_s": "s",
    "matching.rrm_plan.self_s": "s", "matching.merged_rrm.self_s": "s",
    "matching.merge_pair.calls": "count", "matching.merge_pair.self_s": "s",
    "matching.merge_pair.improve_ratio": "ratio",
    "matching.squared_distance_matrix.cells": "count", "matching.squared_distance_matrix.self_s": "s",
    "matching.hungarian.calls": "count", "matching.hungarian.rows": "count", "matching.hungarian.self_s": "s",
    "srrm.srrm_match.self_s": "s", "srrm.sample_near.anchors": "count", "srrm.sample_near.self_s": "s",
    "srrm.select.self_s": "s", "srrm.select.commit_ratio": "ratio", "srrm.rounds": "count",
    "srrm.residual": "count", "srrm.finalize_hungarian.self_s": "s", "srrm.finalize_hungarian.cap_exceeded": "count",
    "srrm.guard.total_s": "s", "srrm.guard.fired_ratio": "ratio",
    "diagnostics.plateau_decomposition.calls": "count", "diagnostics.plateau_decomposition.self_s": "s",
    "diagnostics.alpha_H": "ratio",
    "trace.overhead_s": "s", "trace.untracked_ratio": "ratio",
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        #: One row per span: [name, start, end, parent index, call id, child time].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._last_child: dict[int, str] = {}
        self.call = SETUP
        self._originals = [getattr(obj, attr) for obj, attr, _, _ in PATCHES]

    def last_child(self) -> str | None:
        return self._last_child.get(self._open[-1]) if self._open else None

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.call, 0.0])
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._open.pop()
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]
            self._last_child[span[3]] = span[0]

    @contextlib.contextmanager
    def root(self, call: int):
        """Record one benchmark call as the root span of its layer spans."""
        self.call = call
        idx = self._begin(ROOT)
        try:
            yield
        finally:
            self._end(idx)

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._begin(name(self) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            except rrmatch.core.CapExceededError:
                self.counts["srrm.finalize_hungarian.cap_exceeded"] += 1
                raise
            finally:
                self._end(idx)
            if hook is not None:
                hook(self.counts, args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        try:
            for (obj, attr, name, hook), fn in zip(PATCHES, self._originals):
                setattr(obj, attr, self._wrap(fn, name, hook))
            yield
        finally:
            for (obj, attr, _, _), fn in zip(PATCHES, self._originals):
                setattr(obj, attr, fn)

    def dump(self) -> list[dict]:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "call": s[4]}
            for s in self.spans
        ]


def per_layer(tracer: Tracer, traced_walls: list[float], untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics per benchmark call, from the spans of the traced calls.

    Counts and self times are averaged over traced calls; ``generators.gen`` is
    a set-up total.  Ratios are taken over the whole run.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    setup_calls = defaultdict(int)
    setup_self = defaultdict(float)
    root_wall = untracked = 0.0
    for name, start, end, parent, call, child in tracer.spans:
        own = end - start - child
        if call == SETUP:
            setup_calls[name] += 1
            setup_self[name] += own
            continue
        calls[name] += 1
        self_s[name] += own
        total_s[name] += end - start
        if name == ROOT:
            root_wall += end - start
            untracked += own
        elif tracer.spans[parent][0] == ROOT:
            untracked += own
    n = calls[ROOT]
    c = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "generators.gen.calls": setup_calls["generators.gen"],
        "generators.gen.self_s": setup_self["generators.gen"],
    }
    for layer in ("core.PointCloud", "core.Plan", "partition.tree_curve_order", "partition.build_tree",
                  "matching.merge_pair", "matching.hungarian", "diagnostics.plateau_decomposition"):
        m[f"{layer}.calls"] = calls[layer] / n
    for layer in ("core.PointCloud", "core.Plan", "partition.tree_curve_order", "partition.build_tree",
                  "matching.rrm_plan", "matching.merged_rrm", "matching.merge_pair",
                  "matching.squared_distance_matrix", "matching.hungarian", "srrm.srrm_match",
                  "srrm.sample_near", "srrm.select", "srrm.finalize_hungarian",
                  "diagnostics.plateau_decomposition"):
        m[f"{layer}.self_s"] = self_s[layer] / n
    for key in ("partition.tree_curve_order.points", "partition.build_tree.point_levels",
                "matching.squared_distance_matrix.cells", "matching.hungarian.rows",
                "srrm.sample_near.anchors", "srrm.finalize_hungarian.cap_exceeded"):
        m[key] = c[key] / n
    m["matching.merge_pair.improve_ratio"] = ratio(c["matching.merge_pair.improved"], calls["matching.merge_pair"])
    m["srrm.select.commit_ratio"] = ratio(c["srrm.select.committed"], c["srrm.select.entering"])
    m["srrm.rounds"] = ratio(c["srrm.rounds"], calls["srrm.srrm_match"])
    m["srrm.residual"] = ratio(c["srrm.residual"], calls["srrm.srrm_match"])
    m["srrm.guard.total_s"] = total_s["srrm.guard"] / n
    m["srrm.guard.fired_ratio"] = ratio(c["srrm.guard.fired"], calls["srrm.srrm_match"])
    m["diagnostics.alpha_H"] = ratio(c["diagnostics.alpha_H"], calls["diagnostics.plateau_decomposition"])
    m["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    m["trace.untracked_ratio"] = ratio(untracked, root_wall)
    return m


def coverage_problems(tracer: Tracer, m: dict, expect: dict[str, bool]) -> list[str]:
    """Check that every traced layer ran where the workload must reach it.

    ``expect`` maps a span name to whether the workload calls it.  Beyond
    presence, the call counts must fit the pipeline's structure, so a refactor
    that routes work around a wrapped name fails here instead of silently
    moving that work into its caller's self time.
    """
    calls = Counter(s[0] for s in tracer.spans if s[4] != SETUP)
    problems = [
        f"{name}: expected {'calls' if want else 'no calls'}, got {calls[name]}"
        for name, want in expect.items()
        if (calls[name] > 0) != want
    ]
    if not any(s[0] == "generators.gen" and s[4] == SETUP for s in tracer.spans):
        problems.append("generators.gen: never called in set-up")
    runs, rounds = tracer.counts["matching.merged_rrm.runs"], tracer.counts["srrm.rounds"]
    rules = (
        ("partition.tree_curve_order == 2 x matching.rrm_plan",
         calls["partition.tree_curve_order"] == 2 * calls["matching.rrm_plan"]),
        ("partition.build_tree == partition.tree_curve_order + diagnostics.plateau_decomposition",
         calls["partition.build_tree"] == calls["partition.tree_curve_order"]
         + calls["diagnostics.plateau_decomposition"]),
        ("matching.merge_pair == sum(runs - 1) over merged_rrm calls",
         calls["matching.merge_pair"] == runs - calls["matching.merged_rrm"] - calls["srrm.guard"]),
        ("srrm.select == srrm rounds", calls["srrm.select"] == rounds),
        ("srrm.sample_near == 2 x srrm rounds", calls["srrm.sample_near"] == 2 * rounds),
        ("srrm.finalize_hungarian == srrm.srrm_match", calls["srrm.finalize_hungarian"] == calls["srrm.srrm_match"]),
        ("srrm.guard == srrm.srrm_match", calls["srrm.guard"] == calls["srrm.srrm_match"]),
        (f"trace.untracked_ratio <= {UNTRACKED_LIMIT}", m["trace.untracked_ratio"] <= UNTRACKED_LIMIT),
    )
    problems += [f"coverage rule broken: {rule}" for rule, ok in rules if not ok]
    return problems
