"""Command-line interface: generators, distance/match commands, and experiment runners.

Subcommands: gen, distance, match, flow, plateau, converge.  Every
result is a self-describing JSON record (one per line when a command emits a
table).  Exit codes: 0 success, 2 usage error, 3 data error, 4 cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import time
from pathlib import Path

from rrmatch.core import (
    CapExceededError,
    DataFormatError,
    InvalidCloudError,
    Plan,
    PointCloud,
    SizeMismatchError,
    _check_pair,
    derive_seed,
    load_point_cloud,
    normalize_unit_box,
    plan_squared_cost,
    save_point_cloud,
)
from rrmatch.diagnostics import (
    MAX_POPULATION_DEPTH,
    LastMileParams,
    convergence_experiment,
    plateau_decomposition,
    threshold_consistency_experiment,
)
from rrmatch.generators import FAMILIES, GeneratorSpec, gen
from rrmatch.matching import EXACT_CAP, exact_plan, exact_w2, merged_rrm, rrm_plan
from rrmatch.partition import MAX_DEPTH
from rrmatch.srrm import SrrmConfig, srrm_match

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CAP = 4

METHODS = ("rrm", "merged", "srrm", "exact")

_TAG_CLI = 7


def _write(text: str, out_path: str | None) -> None:
    """Append text to out_path, or write it to stdout."""
    if out_path:
        with open(out_path, "a", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(record: dict, out_path: str | None) -> None:
    _write(json.dumps(record, sort_keys=True) + "\n", out_path)


def _write_table(records: list[dict], out_path: str | None, fmt: str) -> None:
    """Emit experiment records as JSON lines (default) or a CSV table."""
    if fmt == "jsonl":
        for record in records:
            _emit(record, out_path)
        return
    fieldnames = sorted({key for record in records for key in record})
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    for record in records:
        writer.writerow(
            {k: json.dumps(v) if isinstance(v, (dict, list)) else v for k, v in record.items()}
        )
    _write(buffer.getvalue(), out_path)


def _exact_cap(args: argparse.Namespace) -> int:
    return EXACT_CAP if args.cap is None else args.cap


def _load_pair(file_x: str, file_y: str, fmt: str | None) -> tuple[PointCloud, PointCloud]:
    return _check_pair(load_point_cloud(file_x, fmt), load_point_cloud(file_y, fmt))


def _maybe_normalize(X: PointCloud, Y: PointCloud, mode: str) -> tuple[PointCloud, PointCloud]:
    if mode == "none":
        return X, Y
    return normalize_unit_box(X, Y, mode)


def _timed_plan(
    method: str, X: PointCloud, Y: PointCloud, args: argparse.Namespace
) -> tuple[Plan, dict, dict]:
    """Plan on the (already normalized) pair, the method's parameter record,
    and the record's ``timing`` (wall ms, timestamp).

    Records keep everything that varies between identical runs under
    ``timing``, so the rest of a record compares byte for byte.
    """
    t0 = time.perf_counter()
    if method == "rrm":
        plan, params = rrm_plan(X, Y), {}
    elif method == "merged":
        plan, params = merged_rrm(X, Y, args.K, args.seed), {"K": args.K}
    elif method == "srrm":
        # Without --cap the residual keeps the config's own cap.
        cap = {} if args.cap is None else {"hungarian_cap": args.cap}
        cfg = SrrmConfig(rounds=args.R, anchors_per_point=args.anchors, merge_runs=args.K,
                         seed=args.seed, **cap)
        result = srrm_match(X, Y, cfg)
        plan, params = result.plan, {"K": args.K, "R": args.R, "anchors": args.anchors,
                                     "cap": cfg.hungarian_cap, "history": list(result.history),
                                     "guard_applied": result.guard_applied}
    else:
        cap = _exact_cap(args)
        plan, params = exact_plan(X, Y, cap), {"cap": cap}
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    return plan, params, {"wall_ms": wall_ms, "timestamp": time.time()}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


#: The generator parameter each plateau family sweeps with --grid.
_GRID_FIELDS = {"line-mixture": "frac_bads", "opening-angle": "delta"}


def _spec_from_args(args: argparse.Namespace) -> GeneratorSpec:
    return GeneratorSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(GeneratorSpec)})


def cmd_gen(args: argparse.Namespace) -> int:
    spec = args.spec
    X, Y = gen(spec)
    if (Y is None) == bool(args.out2):
        hint = "one cloud; drop --out2" if Y is None else "a pair; pass --out2"
        print(f"family {spec.family!r} produces {hint}", file=sys.stderr)
        return EXIT_USAGE
    save_point_cloud(X, args.out, args.format)
    record = {"command": "gen", "family": spec.family, "n": spec.n, "d": spec.d,
              "seed": spec.seed, "out": str(args.out)}
    if Y is not None:
        save_point_cloud(Y, args.out2, args.format)
        record["out2"] = str(args.out2)
    _emit(record, None)
    return EXIT_OK


def cmd_distance(args: argparse.Namespace) -> int:
    X0, Y0 = _load_pair(args.fileX, args.fileY, args.format)
    X, Y = _maybe_normalize(X0, Y0, args.normalize)
    plan, params, timing = _timed_plan(args.method, X, Y, args)
    record = {
        "command": "distance",
        "method": args.method,
        "value": plan.rms,
        "n": X.n,
        "d": X.d,
        "seed": args.seed,
        "normalize": args.normalize,
        "params": params,
        "timing": timing,
    }
    _emit(record, args.out)
    return EXIT_OK


def cmd_match(args: argparse.Namespace) -> int:
    X0, Y0 = _load_pair(args.fileX, args.fileY, args.format)
    X, Y = _maybe_normalize(X0, Y0, args.normalize)
    plan, params, timing = _timed_plan(args.method, X, Y, args)
    # Cost is reported in the file coordinates so it can be re-derived from them.
    cost = plan_squared_cost(X0, Y0, plan.pi)
    out = Path(args.out)
    out.write_text("".join(f"{i},{int(t)}\n" for i, t in enumerate(plan.pi)), encoding="utf-8")
    sidecar = {
        "command": "match",
        "method": args.method,
        "n": plan.n,
        "d": X.d,
        "seed": args.seed,
        "normalize": args.normalize,
        "squared_cost_sum": cost,
        "rms": math.sqrt(cost / plan.n),
        "params": params,
        "timing": timing,
    }
    Path(str(out) + ".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_flow(args: argparse.Namespace) -> int:
    X, Y = _load_pair(args.fileX, args.fileY, args.format)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    metrics_path = outdir / "metrics.jsonl"
    metrics_path.unlink(missing_ok=True)

    cap = _exact_cap(args)
    current = X.coords.copy()
    for it in range(args.iterations):
        cx = PointCloud(current)
        cxn, yn = _maybe_normalize(cx, Y, args.normalize)
        plan, _, _ = _timed_plan(args.method, cxn, yn, args)
        value = math.sqrt(plan_squared_cost(cx, Y, plan.pi) / plan.n)
        record = {"iter": it, "value": value}
        snapshot = it % args.snapshot_every == 0
        # The exact reference is solved where a snapshot is kept and at the end.
        if X.n <= cap and (snapshot or it == args.iterations - 1):
            record["exact_w2"] = exact_w2(cx, Y, cap)
        _emit(record, str(metrics_path))
        if snapshot:
            save_point_cloud(cx, outdir / f"snapshot_{it:05d}.pcf")
        current = (1.0 - args.step) * current + args.step * Y.coords[plan.pi]

    final = PointCloud(current)
    save_point_cloud(final, outdir / "final.pcf")
    summary = {
        "command": "flow",
        "iterations": args.iterations,
        "step": args.step,
        "matcher": args.method,
        "n": X.n,
        "d": X.d,
        "seed": args.seed,
        "outdir": str(outdir),
        "timing": {"timestamp": time.time()},
    }
    _emit(summary, args.out)
    return EXIT_OK


def cmd_plateau(args: argparse.Namespace) -> int:
    diag_depth = args.diag_depth or max(1, math.ceil(math.log2(max(args.n, 2))) - 3)
    cap = _exact_cap(args)
    records = []
    for gi, (g, grid_spec) in enumerate(zip(args.grid, args.grid_specs)):
        for rep in range(args.reps):
            cell_seed = derive_seed(args.seed, _TAG_CLI, gi, rep)
            X, Y = gen(dataclasses.replace(grid_spec, seed=cell_seed))
            # One exact solve per cell gives both the exact_w2 field and,
            # when requested, the exact method's record.
            solved = {"exact": _timed_plan("exact", X, Y, args)} if X.n <= cap else {}
            exact_value = solved["exact"][0].rms if solved else None
            for method in args.methods:
                plan, params, timing = solved.get(method) or _timed_plan(method, X, Y, args)
                report = plateau_decomposition(
                    X, Y, plan, LastMileParams(depth=diag_depth, d=X.d)
                )
                records.append(
                    {
                        "command": "plateau",
                        "family": args.family,
                        "grid_value": g,
                        "rep": rep,
                        "method": method,
                        "value": plan.rms,
                        "exact_w2": exact_value,
                        "n": X.n,
                        "d": X.d,
                        "seed": args.seed,
                        "sigma": args.sigma,
                        "bad_slope": args.bad_slope,
                        "diag_depth": diag_depth,
                        **dataclasses.asdict(report),
                        "params": params,
                        "timing": timing,
                    }
                )
    _write_table(records, args.out, args.format)
    return EXIT_OK


def cmd_converge(args: argparse.Namespace) -> int:
    records = []
    if args.kind == "anchored":
        result = convergence_experiment(
            args.d, args.n_list, args.reps, args.seed, depth=args.depth
        )
        for n, mean, sd in result.rows:
            records.append({"command": "converge", "kind": "anchored", "n": n, "mean": mean,
                            "sd": sd, "d": args.d, "reps": args.reps, "seed": args.seed})
        records.append(
            {
                "command": "converge",
                "kind": "anchored-summary",
                "d": args.d,
                "slope": result.slope,
                "theory_exponent": result.theory_exponent,
                "reps": args.reps,
                "seed": args.seed,
            }
        )
    else:
        rows = threshold_consistency_experiment(args.d, args.H, args.n_list, args.reps, args.seed)
        for n, dev in rows:
            records.append({"command": "converge", "kind": "thresholds", "n": n,
                            "median_max_dev": dev, "d": args.d, "H": args.H,
                            "reps": args.reps, "seed": args.seed})
    _write_table(records, args.out, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Argument types: a bad value fails at parse time, where argparse names the
# flag and exits with the usage code.


def _int_at_least(low: int, high: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    return parse


def _step(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def _number_list(text: str) -> list[float]:
    try:
        values = [float(item) for item in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"values must be finite, got {text!r}")
    return values


def _size_list(text: str) -> list[int]:
    parse = _int_at_least(1)
    return [parse(item) for item in text.split(",")]


def _method_list(text: str) -> list[str]:
    methods = text.split(",")
    for m in methods:
        if m not in METHODS:
            raise argparse.ArgumentTypeError(
                f"unknown method {m!r}; choose from {', '.join(METHODS)}"
            )
    return methods


def _add_io(p: argparse.ArgumentParser, table: bool, out_required: bool = False) -> None:
    """--seed, --out and --format: a table format for experiment tables, else a cloud format."""
    p.add_argument("--seed", type=_int_at_least(0), default=0,
                   help="64-bit seed for all randomized steps")
    p.add_argument("--out", required=out_required,
                   help="output file" if out_required else "append records here instead of stdout")
    if table:
        p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl",
                       help="experiment table format")
    else:
        p.add_argument("--format", choices=("csv", "pcf"), default=None,
                       help="cloud file format (default: infer from extension)")


def _add_matcher_params(p: argparse.ArgumentParser) -> None:
    """Merge and screening flags, defaulting to :class:`SrrmConfig`'s fields."""
    p.add_argument("--K", type=_int_at_least(1), default=SrrmConfig.merge_runs, help="merge runs")
    p.add_argument("--R", type=_int_at_least(1), default=SrrmConfig.rounds,
                   help="screening rounds, at least 1 (zero rounds is the merged method)")
    p.add_argument("--anchors", type=_int_at_least(0), default=SrrmConfig.anchors_per_point,
                   help="anchors per unresolved point")
    p.add_argument("--cap", type=_int_at_least(0), default=None,
                   help=f"exact-assignment size cap; one value sets both the exact method's cap "
                        f"(default {EXACT_CAP}) and the screening residual's (default "
                        f"{SrrmConfig.hungarian_cap}), so a cap meant for one also binds the other")


def _add_generator_params(p: argparse.ArgumentParser) -> None:
    """One flag per :class:`GeneratorSpec` parameter, defaulting to its field."""
    for field in dataclasses.fields(GeneratorSpec):
        if field.name not in ("family", "seed"):
            # The integer parameters, n and d, are sizes.
            kind = _int_at_least(1) if isinstance(field.default, int) else float
            p.add_argument("--" + field.name.replace("_", "-"), type=kind, default=field.default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rrmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, func, text in (
        ("gen", cmd_gen, "write a synthetic cloud (or pair) to disk"),
        ("distance", cmd_distance, "distance between two stored clouds"),
        ("match", cmd_match, "write the matching permutation and cost sidecar"),
        ("flow", cmd_flow, "iterate match-then-convex-step toward the target"),
        ("plateau", cmd_plateau, "bias-floor table over a generator grid"),
        ("converge", cmd_converge, "statistical convergence experiments"),
    ):
        # No abbreviations: a prefix of a longer flag (--method of --methods,
        # --n of --n-list) is an unknown flag, not that flag.
        parsers[name] = sub.add_parser(name, help=text, allow_abbrev=False)
        parsers[name].set_defaults(func=func)

    p = parsers["gen"]
    p.add_argument("--family", choices=FAMILIES, default="uniform-box")
    _add_generator_params(p)
    _add_io(p, table=False, out_required=True)
    p.add_argument("--out2", default=None, help="second output file for pair families")

    for name in ("distance", "match", "flow"):
        p = parsers[name]
        p.add_argument("fileX")
        p.add_argument("fileY")
        # match's --out names the permutation CSV.
        _add_io(p, table=False, out_required=name == "match")
        p.add_argument("--method", choices=METHODS, default="srrm")
        p.add_argument("--normalize", choices=("joint", "per-cloud", "none"), default="joint")
        _add_matcher_params(p)

    p = parsers["flow"]
    p.add_argument("--step", type=_step, default=0.15)
    p.add_argument("--iterations", type=_int_at_least(1), default=100)
    p.add_argument("--snapshot-every", type=_int_at_least(1), default=10)
    p.add_argument("--outdir", required=True)

    p = parsers["plateau"]
    p.add_argument("--family", choices=tuple(_GRID_FIELDS), required=True)
    _add_generator_params(p)
    _add_io(p, table=True)
    _add_matcher_params(p)
    p.add_argument("--grid", type=_number_list, required=True, help="comma-separated grid values")
    p.add_argument("--methods", type=_method_list, default="rrm,merged,srrm")
    p.add_argument("--reps", type=_int_at_least(1), default=1)
    p.add_argument("--diag-depth", type=_int_at_least(1, MAX_DEPTH), default=None,
                   help="depth of the premature-split diagnostic (default ceil(log2 n) - 3); rank "
                   "splits can separate coincident points, so identical clouds read alpha_H 1.0 from "
                   "the union's full depth ceil(log2 2n) on, and above 0 below it unless 2n is a power "
                   "of two (0.063 at n=1000 and the default depth 7)")

    p = parsers["converge"]
    p.add_argument("--kind", choices=("anchored", "thresholds"), default="anchored")
    p.add_argument("--d", type=_int_at_least(1), default=1)
    p.add_argument("--n-list", type=_size_list, default=[256, 512, 1024])
    p.add_argument("--reps", type=_int_at_least(1), default=20)
    p.add_argument("--H", type=_int_at_least(1, MAX_POPULATION_DEPTH), default=3,
                   help="tree depth for the thresholds kind")
    p.add_argument("--depth", type=_int_at_least(1, MAX_POPULATION_DEPTH),
                   default=MAX_POPULATION_DEPTH, help="address depth for the anchored kind")
    _add_io(p, table=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("gen", "plateau"):
        # Built once here, so that a generator parameter out of range is a usage error.
        try:
            args.spec = _spec_from_args(args)
            if args.command == "plateau":
                field = _GRID_FIELDS[args.family]
                args.grid_specs = [dataclasses.replace(args.spec, **{field: g}) for g in args.grid]
        except ValueError as exc:
            parser.error(str(exc))
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (DataFormatError, InvalidCloudError, SizeMismatchError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
