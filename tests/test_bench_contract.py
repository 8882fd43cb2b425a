"""The benchmark's span tracer still fits the package.

``bench/spans.py`` wraps library names where the calling code looks them up,
and its coverage rules check the pipeline's call structure.  A renamed module
global, or work routed around a wrapped name, would otherwise show only in a
traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

import rrmatch.diagnostics as diagnostics
import rrmatch.generators as generators
import rrmatch.matching as matching
import rrmatch.srrm as srrm

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_exists(spans):
    missing = [f"{getattr(obj, '__name__', obj)}.{attr}" for obj, attr, _, _ in spans.PATCHES
               if not callable(getattr(obj, attr, None))]
    assert missing == []


def test_traced_pipeline_keeps_the_call_structure(spans):
    tracer = spans.Tracer()
    cfg = srrm.SrrmConfig(rounds=3, anchors_per_point=1, merge_runs=3, guard=True)
    params = diagnostics.LastMileParams(depth=5, d=2)
    with tracer.installed():
        # Names are looked up on their modules at call time, as the benchmark's
        # workloads do, so that the tracer's wrappers see the calls.
        X, Y = generators.gen(generators.GeneratorSpec("gaussian-pair", n=96, t=0.5, seed=3))
        for call in range(2):
            with tracer.root(call):
                matching.exact_w2(X, Y)
                plans = [srrm.srrm_match(X, Y, cfg).plan, matching.merged_rrm(X, Y, 3, seed=call),
                         matching.rrm_plan(X, Y)]
                for plan in plans:
                    diagnostics.plateau_decomposition(X, Y, plan, params)
    metrics = spans.per_layer(tracer, [0.0], [0.0])
    problems = spans.coverage_problems(tracer, metrics, dict.fromkeys(spans.SPAN_NAMES, True))
    # The share of a call outside every layer span depends on timing, not structure.
    assert [p for p in problems if "trace.untracked_ratio" not in p] == []
