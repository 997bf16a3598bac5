"""Command line entry point.

Subcommands:
  check      feasibility (and strict) verdict for an instance file
  simulate   seeded replicated runs from an experiment spec, with metrics
  verify     exact oracle pipeline on a desk-scale instance
  reproduce  run a benchmark table preset and compare to reference values

Exit codes: 0 success, 1 usage or input error, 2 negative verdict
(infeasible instance / failed property).
"""

from __future__ import annotations

import argparse
import ast
import csv
import functools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import analysis, benchmarks, dynamics, feasibility
from .dynamics import GammaSchedule, SimConfig
from .game import GameParams
from .topology import Instance, _integer, _real, instance_from_dict, load_instance

OUT_DIR_ENV = "P2PSTORAGE_OUT"

_SPEC_KEYS = {
    "instance",
    "params",
    "schedule",
    "variant",
    "horizon",
    "replications",
    "seed",
}


def evaluate_horizon(expr, inst: Instance) -> int:
    """Evaluate a horizon expression: an integer (an integral float reads as
    its int), or arithmetic over the variables sum_alpha and n (e.g.
    "2*sum_alpha")."""
    if isinstance(expr, str):
        names = {"sum_alpha": inst.total_alpha, "n": inst.n}

        def ev(node):
            if isinstance(node, ast.Expression):
                return ev(node.body)
            if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
                return node.value
            if isinstance(node, ast.Name):
                if node.id in names:
                    return names[node.id]
                raise ValueError(f"unknown name {node.id!r} in horizon expression")
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Div)
            ):
                left, right = ev(node.left), ev(node.right)
                if isinstance(node.op, ast.Add):
                    return left + right
                if isinstance(node.op, ast.Sub):
                    return left - right
                if isinstance(node.op, ast.Mult):
                    return left * right
                if isinstance(node.op, ast.FloorDiv):
                    return left // right
                return left / right
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
                return -ev(node.operand)
            raise ValueError("unsupported construct in horizon expression")

        try:
            value = ev(ast.parse(expr, mode="eval"))
        except (SyntaxError, ZeroDivisionError, OverflowError, RecursionError) as exc:
            raise ValueError(f"bad horizon expression {expr!r}: {exc}") from exc
    else:
        value = _integer(expr, "horizon")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"horizon must be finite, got {value}")
    if value != int(value) or value < 0:
        raise ValueError(f"horizon must evaluate to a nonnegative integer, got {value}")
    return int(value)


# The keys each schedule kind takes besides "kind".
_SCHEDULE_KEYS = {"fixed": {"gamma0"}, "annealed": {"gamma0", "increment"}, "infinite": set()}


def _schedule_from_dict(data: dict) -> tuple[float, float | None]:
    """(gamma0, increment) of a spec's schedule; increment None stands for
    the instance's default rate, resolved by cmd_simulate unless overridden."""
    if not isinstance(data, dict):
        raise ValueError("'schedule' must be a mapping")
    kind = data.get("kind", "annealed")
    if not isinstance(kind, str) or kind not in _SCHEDULE_KEYS:
        raise ValueError(f"unknown schedule kind {kind!r}")
    unknown = set(data) - _SCHEDULE_KEYS[kind] - {"kind"}
    if unknown:
        raise ValueError(f"schedule kind {kind!r} does not take {sorted(unknown)}")
    if kind == "infinite":
        return math.inf, 0.0
    gamma0 = _real(data.get("gamma0", 1.0), "gamma0")
    increment = 0.0 if kind == "fixed" else data.get("increment")
    if increment is not None:
        increment = _real(increment, "increment")
    GammaSchedule(gamma0, increment or 0.0)  # checks the values
    return gamma0, increment


def load_experiment_spec(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("experiment spec must be a mapping")
    unknown = set(data) - _SPEC_KEYS
    if unknown:
        raise ValueError(f"unknown spec keys: {sorted(unknown)}")
    inst_src = data.get("instance")
    if not isinstance(inst_src, dict):
        raise ValueError("'instance' must be a mapping (inline or {'path': ...})")
    if set(inst_src) == {"path"}:
        if not isinstance(inst_src["path"], str):
            raise ValueError("instance 'path' must be a string")
        inst = load_instance(Path(path).parent / inst_src["path"])
    else:
        inst = instance_from_dict(inst_src)
    params_src = data.get("params", {})
    if not isinstance(params_src, dict):
        raise ValueError("'params' must be a mapping")
    unknown = set(params_src) - {"k_c", "k_a"}
    if unknown:
        raise ValueError(f"unknown params keys: {sorted(unknown)}")
    params = GameParams(
        k_c=_real(params_src.get("k_c", 1.0), "k_c"),
        k_a=_real(params_src.get("k_a", 0.0), "k_a"),
    )
    return {
        "instance": inst,
        "params": params,
        "schedule": _schedule_from_dict(data.get("schedule", {"kind": "annealed"})),
        "variant": data.get("variant", dynamics.ALLOCATE_FIRST),
        "horizon": data.get("horizon", "2*sum_alpha"),
        "replications": _integer(data.get("replications", 1), "replications"),
        "seed": _integer(data.get("seed", 0), "seed"),
    }


def _out_dir(args) -> Path:
    if args.out:
        path = Path(args.out)
    else:
        path = Path(os.environ.get(OUT_DIR_ENV, "results"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run_rows(configs: list[SimConfig], workers: int):
    """Run and score the configs, through a process pool when workers > 1.
    Returns the results and one row per run: run, then the record of
    ``benchmarks.run_record``."""
    if workers < 1:
        raise ValueError(f"--workers must be at least 1, got {workers}")
    workers = min(workers, len(configs), os.cpu_count() or 1)  # never more processes than runs
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(benchmarks.run_record, configs))
    else:
        outcomes = [benchmarks.run_record(config) for config in configs]
    rows = [{"run": r, **record} for r, (_, record) in enumerate(outcomes)]
    return [result for result, _ in outcomes], rows


def _aggregate(rows: list[dict]) -> dict:
    out = {}
    for k in rows[0]:
        values = [r[k] for r in rows if isinstance(r[k], (int, float))]
        if not values:
            continue
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        out[k] = {"mean": mean, "std": math.sqrt(var)}
    return out


def _write_trace(path: Path, config: SimConfig, trace) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "unit", "kind", "source", "destination", "gamma"])
        for t, move in trace:
            gamma = config.schedule.gamma_at(t)
            writer.writerow(
                [
                    t,
                    move.unit,
                    move.kind,
                    "" if move.source is None else move.source,
                    move.dest,
                    "inf" if math.isinf(gamma) else f"{gamma:.10g}",
                ]
            )


def cmd_check(args) -> int:
    inst = load_instance(args.instance)
    # One max-flow: a strict failure's witness exceeds its capacity when not
    # all demand ships, and only meets it (a tight set) when all of it does.
    strict = feasibility.check_strict(inst)
    feasible = strict.feasible or not feasibility.witness_violates(inst, strict.witness)
    report = {"feasible": feasible, "strict": strict.feasible if feasible else None, "witness": None}
    if not feasible:
        report["witness"] = list(strict.witness)
    elif not strict.feasible:
        report["strict_witness"] = list(strict.witness)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if feasible else 2


def cmd_simulate(args) -> int:
    spec = load_experiment_spec(args.spec)
    for key in ("seed", "replications", "variant", "horizon"):
        if getattr(args, key) is not None:
            spec[key] = getattr(args, key)
    inst: Instance = spec["instance"]
    gamma0, increment = spec["schedule"]
    if args.gamma_increment is not None:
        increment = args.gamma_increment
    elif increment is None:
        increment = dynamics.default_increment(inst)
    schedule = GammaSchedule(gamma0 if args.gamma0 is None else args.gamma0, increment)
    horizon = evaluate_horizon(spec["horizon"], inst)
    base = SimConfig(
        instance=inst,
        params=spec["params"],
        schedule=schedule,
        horizon=horizon,
        seed=spec["seed"],
        variant=spec["variant"],
        record_trace=args.trace,
    )
    configs = benchmarks.replicate(base, spec["replications"])

    verdict = feasibility.check_feasible_flow(inst)
    if not verdict.feasible:
        print(
            "warning: instance is infeasible; completion is impossible "
            f"(violating units {list(verdict.witness)})",
            file=sys.stderr,
        )

    results, rows = _run_rows(configs, args.workers)
    out_dir = _out_dir(args)
    if args.trace:
        for r, result in enumerate(results):
            _write_trace(out_dir / f"trace_{r}.csv", configs[r], result.trace)

    with open(out_dir / "runs.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    summary = {
        "instance_fingerprint": inst.fingerprint(),
        "replications": spec["replications"],
        "seed_base": spec["seed"],
        "variant": spec["variant"],
        "horizon": horizon,
        "params": {"k_c": spec["params"].k_c, "k_a": spec["params"].k_a},
        "schedule": {
            "gamma0": "inf" if math.isinf(schedule.gamma0) else schedule.gamma0,
            "increment": schedule.increment,
        },
        "completed_runs": sum(r["completed"] for r in rows),
        "aggregate": _aggregate(rows),
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(summary["aggregate"], indent=2, sort_keys=True))
    print(f"wrote {out_dir / 'runs.csv'} and {out_dir / 'summary.json'}")
    return 0


def _verify_absorption(inst: Instance, params: GameParams, trials: int, seed: int) -> dict:
    # Pure best-response probe: fraction of runs stuck short of completion.
    horizon = 20 * max(inst.total_alpha, 1)
    base = SimConfig(inst, params, GammaSchedule.infinite(), horizon=horizon, seed=seed)
    stuck = sum(not dynamics.run(c).completed for c in benchmarks.replicate(base, trials))
    return {"trials": trials, "incomplete": stuck, "fraction": stuck / trials}


def cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    params = GameParams(k_c=args.k_c, k_a=args.k_a)
    gamma = GammaSchedule.fixed(float(args.gamma)).gamma0
    if args.empirical_steps < 0:
        raise ValueError(f"--empirical-steps must be nonnegative, got {args.empirical_steps}")
    if not args.empirical_tol > 0:
        raise ValueError(f"--empirical-tol must be positive, got {args.empirical_tol}")
    if args.empirical_steps and math.isinf(gamma):
        raise ValueError("--empirical-steps needs a finite --gamma")
    report: dict = {"gamma": "inf" if math.isinf(gamma) else gamma}
    checks: list[tuple[str, bool, str]] = []

    if math.isinf(gamma):
        probe = _verify_absorption(inst, params, trials=200, seed=args.seed)
        report["best_response_absorption"] = probe
        checks.append(
            (
                "best-response probe",
                True,
                f"{probe['incomplete']}/{probe['trials']} runs absorbed short of completion",
            )
        )
    else:
        seconds = report["seconds"] = {}

        def timed(stage, fn, *args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds[stage] = time.perf_counter() - start
            return result

        oracle = timed("enumerate", analysis.enumerate_states, inst)
        report["num_states"] = len(oracle)
        kernel = timed("kernel", analysis.build_transition_matrix, oracle, params, gamma).kernel
        report["kernel_nnz"] = len(kernel.data)
        rows_ok = bool((abs(kernel.row_sums() - 1.0) <= 1e-12).all())
        checks.append(("kernel rows sum to 1", rows_ok, "tolerance 1e-12"))
        strict = feasibility.check_strict(inst)
        report["strict"] = strict.feasible
        mu = timed("stationary", analysis.stationary_exact, oracle, params, gamma)
        balance = timed("balance", analysis.detailed_balance_max_violation, oracle, mu)
        residual = timed("residual", analysis.stationarity_residual, oracle, mu)
        report["detailed_balance_max_violation"] = balance
        report["stationarity_residual"] = residual
        checks.append(("detailed balance", balance <= 1e-10, f"max violation {balance:.3e}"))
        checks.append(("stationarity", residual <= 1e-10, f"residual {residual:.3e}"))
        if strict.feasible:
            connected = timed("connectivity", analysis.is_support_connected, oracle)
            report["support_connected"] = connected
            checks.append(("ergodicity (support connected)", connected, ""))
        else:
            checks.append(
                (
                    "ergodicity",
                    True,
                    "skipped: strict covering condition fails, "
                    "connectivity of the full state space is not guaranteed",
                )
            )
        if args.empirical_steps > 0:
            emp = timed(
                "empirical",
                analysis.empirical_distribution,
                oracle, params, gamma, steps=args.empirical_steps, seed=args.seed,
            )
            report["empirical_tv"] = emp.tv_distance
            note = f"TV {emp.tv_distance:.4f} (tolerance {args.empirical_tol})"
            unvisited = int((emp.frequencies == 0).sum())
            if unvisited:
                note += f"; {unvisited} of {len(oracle)} states never visited"
            checks.append(("empirical occupancy", emp.tv_distance < args.empirical_tol, note))

    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, note in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}" + (f"  ({note})" if note else ""))
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if not failed else 2


def cmd_reproduce(args) -> int:
    table = args.table
    presets = benchmarks.table_presets(table, args.replications, args.seed)
    reference = benchmarks.REFERENCE[table]
    comparison: dict = {"table": table, "columns": {}}
    for preset in presets:
        _, rows = _run_rows(benchmarks.make_configs(preset), args.workers)
        agg = _aggregate(rows)
        col_index = reference["columns"].index(preset.column)
        cells = {}
        for metric, ref_values in reference["metrics"].items():
            ref = ref_values[col_index]
            ours = agg.get(metric, {}).get("mean")
            cells[metric] = {
                "reference": ref,
                "simulated": ours,
                "deviation": None if ours is None else ours - ref,
            }
        comparison["columns"][preset.column] = {
            "replications": preset.replications,
            "completed_runs": sum(r["completed"] for r in rows),
            "cells": cells,
        }
        print(f"table {table}  [{preset.column}]  ({preset.replications} runs)")
        print(f"  {'metric':<12} {'reference':>12} {'simulated':>12} {'deviation':>12}")
        for metric, cell in cells.items():
            sim = "-" if cell["simulated"] is None else f"{cell['simulated']:12.4f}"
            dev = "-" if cell["deviation"] is None else f"{cell['deviation']:+12.4f}"
            print(f"  {metric:<12} {cell['reference']:12.4f} {sim:>12} {dev:>12}")
    out_dir = _out_dir(args)
    out_path = out_dir / f"table{table}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(comparison, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error: exit 2 means a negative verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="p2pstorage",
        description="Peer-to-peer storage allocation game: feasibility, simulation, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="feasibility verdict for an instance file")
    p_check.add_argument("instance", help="path to an instance JSON file")
    p_check.set_defaults(func=cmd_check)

    p_sim = sub.add_parser("simulate", help="run an experiment spec")
    p_sim.add_argument("spec", help="path to an experiment spec JSON file")
    p_sim.add_argument("--seed", type=int, default=None, help="override seed base")
    p_sim.add_argument("--replications", type=int, default=None)
    p_sim.add_argument("--gamma0", type=float, default=None)
    p_sim.add_argument("--gamma-increment", type=float, default=None)
    p_sim.add_argument("--variant", choices=list(dynamics.VARIANTS), default=None)
    p_sim.add_argument("--horizon", default=None, help="integer or expression like 2*sum_alpha")
    p_sim.add_argument("--out", default=None, help=f"output dir (default ${OUT_DIR_ENV} or ./results)")
    p_sim.add_argument("--trace", action="store_true", help="write per-run move traces")
    p_sim.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="exact oracle pipeline on a desk-scale instance")
    p_ver.add_argument("instance", help="path to an instance JSON file")
    p_ver.add_argument("--gamma", default="1.0", help="Gibbs parameter, or 'inf'")
    p_ver.add_argument("--k-c", type=float, default=1.0, dest="k_c")
    p_ver.add_argument("--k-a", type=float, default=0.0, dest="k_a")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--empirical-steps", type=int, default=0)
    p_ver.add_argument("--empirical-tol", type=float, default=0.05)
    p_ver.set_defaults(func=cmd_verify)

    p_rep = sub.add_parser("reproduce", help="run a benchmark table preset")
    p_rep.add_argument("table", type=int, choices=[1, 2, 3, 4])
    p_rep.add_argument("--replications", type=int, default=None)
    p_rep.add_argument("--seed", type=int, default=None)
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()  # once per process: parsing leaves the parser as it was


def main(argv=None) -> int:
    """Run one command.  The only place an input error becomes exit code 1:
    any OSError or ValueError a command raises prints one ``error:`` line."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
