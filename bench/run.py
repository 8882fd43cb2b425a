#!/usr/bin/env python3
"""rrmatch benchmark: one closed-loop caller over a fixed instance pool.

Usage, from the repository root:

    python3 bench/run.py --workload merged-uniform-64k --seed 1 --seconds 25 --trace 0

One caller issues each call when the previous one returns.  BLAS threads are
capped at the number of usable cores, set here before numpy is imported.  The
run repeats whole passes over the workload's instance pool until ``--seconds``
have gone by, checks every output, and prints a JSON record line followed by
the result line: end-to-end metrics with ``--trace 0``, per-layer metrics from
a traced pass with ``--trace 1``.  The package is imported from ``src/`` next
to this directory; without it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

#: Extra set-up measurements, each in a fresh interpreter, beside the run's own.
SETUP_PROBES = 4
#: Least share of each untraced call's wall spent re-timing the host kernel after it.
HOST_SHARE = 0.2

END_TO_END_UNITS = {"setup_s": "s", "call_s_p50_adj": "s", "points_per_s_adj": "1/s", "peak_rss_mb": "MiB",
                    "rms_mean": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and generate the instances, then print the seconds taken")
    return p.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_fingerprint() -> str:
    """Digest of the package and of the benchmark code that defines the inputs."""
    h = hashlib.sha256()
    for path in sorted((SRC / "rrmatch").glob("*.py")) + [Path(__file__).with_name("workloads.py")]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def write_json(path: Path, payload) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def setup_probe_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def host_kernel(mix):
    """Return a timer of a fixed mix of rrmatch-like work that uses no rrmatch code.

    ``mix`` (a ``workloads.HostMix``) counts dense assignments, lexsorts of
    2^16 (float, cell) pairs and pure-Python loop steps: the three kinds of
    work the workloads spend their time in, weighted like the workload's own
    profile.  The host's speed drifts with other tenants' load by up to about
    40% over minutes, and this kernel, timed between calls, drifts with it.
    The program under test never runs inside it, so dividing by its median
    takes out the host's drift and leaves the program's.
    """
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(20260317)
    cost = rng.random((mix.assignment_n, mix.assignment_n))
    keys, cells = rng.random(1 << 16), rng.integers(0, 1 << 10, 1 << 16)

    def timed() -> float:
        t0 = time.perf_counter()
        for _ in range(mix.assignments):
            linear_sum_assignment(cost)
        for _ in range(mix.lexsorts):
            np.lexsort((keys, cells))
        acc = 0
        for i in range(mix.loop_steps):
            acc += i * i
        return time.perf_counter() - t0

    return timed


def tail_percentile(values: list[float]) -> dict | None:
    """Highest of p99/p90/p75 with at least ten samples beyond it."""
    for pct in (99, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            return {"pct": pct, "value": statistics.quantiles(values, n=100)[pct - 1]}
    return None


def measure(wl, instances, seconds, tracer, host_timer):
    """Closed loop over whole passes of the pool; traced runs pair each call.

    The first pass always runs; a later one starts only if it is expected to
    end within ``seconds``.  Returns, among others, the mean untraced call wall
    of each pass.  Every pass holds the same instance mix, so their median is
    steady even where single calls form clusters (t=0 and t=1 instances take
    different times).  In a traced run every instance gets an untraced call
    followed by a traced one, so the tracing overhead is read from calls on
    the same inputs.  After each untraced call, outside its timed region, the
    host kernel is timed at least once and for at least ``HOST_SHARE`` of the
    call's wall.
    """
    walls, traced_walls, pass_means, host_walls = [], [], [], []
    attempted = failed = 0
    refs, first = {}, {}
    call_id = passes = 0
    start = time.perf_counter()
    while True:
        done = len(walls)
        for i, inst in enumerate(instances):
            for traced in ((False, True) if tracer else (False,)):
                attempted += 1
                try:
                    if traced:
                        with tracer.installed(), tracer.root(call_id):
                            t0 = time.perf_counter()
                            out = wl.call(inst)
                            wall = time.perf_counter() - t0
                        call_id += 1
                    else:
                        t0 = time.perf_counter()
                        out = wl.call(inst)
                        wall = time.perf_counter() - t0
                        if host_timer:
                            spent = 0.0
                            while spent == 0.0 or spent < HOST_SHARE * wall:
                                host_walls.append(host_timer())
                                spent += host_walls[-1]
                    if i not in refs:
                        refs[i] = wl.reference(inst)
                    problems = wl.check(inst, out, refs[i])
                    digest = wl.digest(out)
                except Exception:  # a failing call is counted, and the loop goes on
                    traceback.print_exc()
                    failed += 1
                    continue
                if i not in first:
                    first[i] = (digest, wl.quality(inst, out, refs[i]))
                elif digest != first[i][0]:
                    problems.append(f"instance {i}: plans differ between calls on the same input")
                if problems:
                    print(f"{wl.name} instance {i}: " + "; ".join(problems), file=sys.stderr)
                    failed += 1
                    continue
                (traced_walls if traced else walls).append(wall)
        if len(walls) > done:
            pass_means.append(statistics.fmean(walls[done:]))
        elapsed = time.perf_counter() - start
        passes += 1
        if elapsed + elapsed / passes > seconds:  # the next pass would end past the budget
            return walls, traced_walls, pass_means, host_walls, attempted, failed, first


def check_determinism(wl, seed: int, first: dict, quality: dict, clean: bool) -> tuple[dict, list[str]]:
    """Build the run's deterministic record and compare it with an earlier run.

    The record is stored per workload, seed and source fingerprint, so only
    runs of the same code and inputs are compared, byte for byte.
    """
    record = {
        "workload": wl.name,
        "seed": seed,
        "source": source_fingerprint(),
        "plans_sha256": hashlib.sha256("".join(first[i][0] for i in sorted(first)).encode()).hexdigest(),
        "instances": [first[i][1] for i in sorted(first)],
        "quality": quality,
    }
    path = OUT / f"{wl.name}-seed{seed}-src{record['source']}.json"
    if path.exists():
        if path.read_text(encoding="utf-8") != json.dumps(record, sort_keys=True) + "\n":
            return record, [f"deterministic record differs from the earlier run in {path.name}"]
    elif clean:
        write_json(path, record)
    return record, []


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rrmatch" / "__init__.py").is_file():
        print(f"error: the rrmatch package is not under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t_setup = time.perf_counter()
    import numpy
    import scipy
    import rrmatch
    import workloads

    if Path(rrmatch.__file__).resolve().parent != SRC / "rrmatch":
        print(f"error: imported rrmatch from {rrmatch.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        with tracer.installed():
            instances = wl.instances(args.seed)
    else:
        instances = wl.instances(args.seed)
    setup_s = time.perf_counter() - t_setup
    if args.setup_probe:
        print(setup_s)
        return 0

    host_timer = None if tracer else host_kernel(wl.host_kernel_mix)
    walls, traced_walls, pass_means, host_walls, attempted, failed, first = measure(
        wl, instances, args.seconds, tracer, host_timer)
    problems = [] if len(first) == len(instances) else ["some instances never produced a checked result"]
    quality = workloads.summarize_quality([first[i][1] for i in sorted(first)]) if first else {}
    OUT.mkdir(exist_ok=True)
    deterministic, mismatch = check_determinism(wl, args.seed, first, quality, clean=not problems and not failed)
    problems += mismatch

    timing = {"calls": len(walls), "passes": len(pass_means), "error_rate": failed / attempted}
    if tracer is None:
        setups = [setup_s] + [setup_probe_seconds(args) for _ in range(SETUP_PROBES)]
        call_s_p50 = statistics.median(pass_means) if pass_means else 0.0
        points_per_s = wl.n * len(walls) / sum(walls) if walls else 0.0
        host_kernel_s = statistics.median(host_walls) if host_walls else wl.host_kernel_s
        host_scale = wl.host_kernel_s / host_kernel_s
        values = {
            "setup_s": statistics.median(setups),
            "call_s_p50_adj": call_s_p50 * host_scale,
            "points_per_s_adj": points_per_s / host_scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "rms_mean": quality.get("rms_mean", 0.0),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        timing.update(setup_s_samples=setups, call_s_p50=call_s_p50, points_per_s=points_per_s,
                      host_kernel_s_p50=host_kernel_s, host_kernel_runs=len(host_walls),
                      call_s_tail=tail_percentile(walls),
                      call_s_quartiles=statistics.quantiles(walls, n=4) if len(walls) > 1 else None)
        summary = dict(metrics, error_rate={"value": timing["error_rate"], "unit": "ratio"})
        summary.update({k: {"value": quality[k], "unit": "ratio"} for k in workloads.QUALITY_RATIOS if k in quality})
    else:
        layer = {}
        if traced_walls and walls:
            layer = spans.per_layer(tracer, traced_walls, walls)
            expect = {name: name in wl.expect_calls for name in spans.SPAN_NAMES}
            problems += spans.coverage_problems(tracer, layer, expect)
            write_json(OUT / f"{wl.name}-seed{args.seed}.spans.json", tracer.dump())
        else:
            problems.append("no traced or untraced call succeeded")
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit} for name, unit in spans.PER_LAYER_UNITS.items()}
        metrics.update({k: {"value": quality.get(k, 0.0), "unit": "ratio"} for k in workloads.QUALITY_RATIOS})
        timing.update(traced_calls=len(traced_walls))
        summary = metrics

    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    env = {"nproc": NPROC, "cpu_model": cpu_model(), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__, "blas_threads": NPROC}
    record = {"env": env, "trace": args.trace, "deterministic": deterministic, "timing": timing,
              "summary": summary}
    write_json(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", record)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
