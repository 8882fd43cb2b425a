"""The three benchmark workloads: instances, the timed call, and output checks.

Instances come only from ``rrmatch.generators.gen``, with seeds derived from
the benchmark seed, and are made in set-up.  Library functions are looked up
on their modules at call time so that the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

import rrmatch.core as core
import rrmatch.diagnostics as diagnostics
import rrmatch.generators as generators
import rrmatch.matching as matching
import rrmatch.srrm as srrm

#: Relative tolerance of every cost comparison.
REL_TOL = 1e-9

#: The acceptance module's screening configuration.
SRRM_CONFIG = srrm.SrrmConfig(rounds=10, anchors_per_point=1, merge_runs=5, guard=True)
PLATEAU_PARAMS = diagnostics.LastMileParams(depth=7, d=2)


@dataclass(frozen=True)
class Instance:
    X: core.PointCloud
    Y: core.PointCloud


class HostMix(NamedTuple):
    """The work of one host-kernel run (``run.host_kernel``)."""

    assignment_n: int
    assignments: int
    lexsorts: int
    loop_steps: int


def instance_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


def le(a: float, b: float) -> bool:
    """a <= b up to the rounding of differently ordered sums."""
    return a <= b * (1.0 + REL_TOL)


def plan_problems(name: str, plan: core.Plan, inst: Instance) -> list[str]:
    """A plan must be a complete bijection whose cost matches a fresh sum."""
    n = inst.X.n
    if plan.n != n or not np.array_equal(np.sort(plan.pi), np.arange(n)):
        return [f"{name}: plan is not a bijection on {n} points"]
    fresh = core.plan_squared_cost(inst.X, inst.Y, plan.pi)
    if not math.isclose(plan.squared_cost_sum, fresh, rel_tol=REL_TOL, abs_tol=1e-300):
        return [f"{name}: reported cost {plan.squared_cost_sum!r} != recomputed {fresh!r}"]
    return []


def plans_digest(plans: list[core.Plan]) -> str:
    h = hashlib.sha256()
    for plan in plans:
        h.update(plan.pi.astype("<i8").tobytes())
        h.update(np.float64(plan.squared_cost_sum).tobytes())
    return h.hexdigest()


class Workload:
    #: Host kernel mix, weighted like the workload's profile, and the kernel's
    #: wall in a quiet spell on a 2-vCPU Xeon VM at 2.0 GHz: the scale of the
    #: host-adjusted times (``run.host_kernel``).
    host_kernel_mix = HostMix(assignment_n=512, assignments=1, lexsorts=2, loop_steps=300_000)
    host_kernel_s = 0.06

    def reference(self, inst: Instance):
        """Untimed reference output the checks compare against, if any."""
        return None

    def digest(self, out) -> str:
        return plans_digest(self.plans(out))


class MergedUniform(Workload):
    name = "merged-uniform-64k"
    n = 1 << 16
    pool = 4
    runs = 8
    host_kernel_mix = HostMix(assignment_n=0, assignments=0, lexsorts=4, loop_steps=100_000)
    host_kernel_s = 0.055
    expect_calls = ("core.PointCloud", "core.Plan", "partition.tree_curve_order", "partition.build_tree",
                    "matching.rrm_plan", "matching.merged_rrm", "matching.merge_pair")

    def instances(self, seed: int) -> list[Instance]:
        out = []
        for i in range(self.pool):
            X, _ = generators.gen(generators.GeneratorSpec("uniform-box", n=self.n, seed=instance_seed(seed, 1, i, 0)))
            Y, _ = generators.gen(generators.GeneratorSpec("uniform-box", n=self.n, seed=instance_seed(seed, 1, i, 1)))
            out.append(Instance(X, Y))
        return out

    def call(self, inst: Instance):
        return matching.merged_rrm(inst.X, inst.Y, self.runs)

    def plans(self, out) -> list[core.Plan]:
        return [out]

    def check(self, inst: Instance, out, ref) -> list[str]:
        return plan_problems("merged", out, inst)

    def quality(self, inst: Instance, out, ref) -> dict:
        return {"rms": out.rms}


class SrrmGaussian(Workload):
    name = "srrm-gaussian-2k"
    n = 2000
    pool = 4
    expect_calls = MergedUniform.expect_calls + (
        "matching.hungarian", "matching.squared_distance_matrix", "srrm.srrm_match", "srrm.sample_near",
        "srrm.select", "srrm.finalize_hungarian", "srrm.guard")

    def instances(self, seed: int) -> list[Instance]:
        out = []
        for i in range(self.pool):
            spec = generators.GeneratorSpec("gaussian-pair", n=self.n, t=float(i % 2), seed=instance_seed(seed, 2, i))
            X, Y = generators.gen(spec)
            out.append(Instance(X, Y))
        return out

    def call(self, inst: Instance):
        return srrm.srrm_match(inst.X, inst.Y, SRRM_CONFIG)

    def reference(self, inst: Instance):
        """The merged plan with the pipeline's K and seed, computed untimed."""
        return matching.merged_rrm(inst.X, inst.Y, SRRM_CONFIG.merge_runs, SRRM_CONFIG.seed)

    def plans(self, out) -> list[core.Plan]:
        return [out.plan]

    def check(self, inst: Instance, out, ref) -> list[str]:
        problems = plan_problems("srrm", out.plan, inst)
        if not le(out.value, ref.rms):
            problems.append(f"srrm {out.value!r} > merged {ref.rms!r}")
        return problems

    def quality(self, inst: Instance, out, ref) -> dict:
        return {
            "rms": out.value,
            "merged_rms": ref.rms,
            "srrm_over_merged": out.value / ref.rms,
            "residual": out.residual,
            "guard_applied": out.guard_applied,
        }


class Validate(Workload):
    name = "validate-1k"
    n = 1024
    pool = 1
    merge_runs = 5
    host_kernel_mix = HostMix(assignment_n=1024, assignments=1, lexsorts=1, loop_steps=300_000)
    host_kernel_s = 0.1
    expect_calls = SrrmGaussian.expect_calls + ("matching.exact_w2", "diagnostics.plateau_decomposition")

    def instances(self, seed: int) -> list[Instance]:
        spec = generators.GeneratorSpec("gaussian-pair", n=self.n, t=0.5, seed=instance_seed(seed, 3, 0))
        X, Y = generators.gen(spec)
        return [Instance(X, Y)]

    def call(self, inst: Instance):
        X, Y = inst.X, inst.Y
        out = {
            "exact": matching.exact_w2(X, Y),
            "srrm": srrm.srrm_match(X, Y, SRRM_CONFIG),
            "merged": matching.merged_rrm(X, Y, self.merge_runs, SRRM_CONFIG.seed),
            "rrm": matching.rrm_plan(X, Y),
        }
        out["plateau"] = [
            diagnostics.plateau_decomposition(X, Y, plan, PLATEAU_PARAMS) for plan in self.plans(out)
        ]
        return out

    def plans(self, out) -> list[core.Plan]:
        return [out["srrm"].plan, out["merged"], out["rrm"]]

    def check(self, inst: Instance, out, ref) -> list[str]:
        problems = []
        for name, plan in zip(("srrm", "merged", "rrm"), self.plans(out)):
            problems += plan_problems(name, plan, inst)
        chain = [("exact", out["exact"]), ("srrm", out["srrm"].value),
                 ("merged", out["merged"].rms), ("rrm", out["rrm"].rms)]
        for (a, va), (b, vb) in zip(chain, chain[1:]):
            if not le(va, vb):
                problems.append(f"{a} {va!r} > {b} {vb!r}")
        for name, report in zip(("srrm", "merged", "rrm"), out["plateau"]):
            if not le(report.lower_bound, report.rrm_sq):
                problems.append(f"plateau {name}: lower bound {report.lower_bound!r} > cost {report.rrm_sq!r}")
        return problems

    def quality(self, inst: Instance, out, ref) -> dict:
        exact, s, m, r = out["exact"], out["srrm"].value, out["merged"].rms, out["rrm"].rms
        return {
            "rms": s,
            "exact": exact,
            "srrm_over_merged": s / m,
            "srrm_over_exact": s / exact,
            "merged_over_exact": m / exact,
            "rrm_over_exact": r / exact,
            "alpha_H": [report.alpha_H for report in out["plateau"]],
            "guard_applied": out["srrm"].guard_applied,
        }


WORKLOADS = {wl.name: wl for wl in (MergedUniform(), SrrmGaussian(), Validate())}

#: Quality ratios, each the mean over the instance pool where the workload has it.
QUALITY_RATIOS = ("srrm_over_merged", "srrm_over_exact", "merged_over_exact", "rrm_over_exact")


def summarize_quality(per_instance: list[dict]) -> dict:
    out = {"rms_mean": statistics.fmean(q["rms"] for q in per_instance)}
    for key in QUALITY_RATIOS:
        if key in per_instance[0]:
            out[key] = statistics.fmean(q[key] for q in per_instance)
    return out
