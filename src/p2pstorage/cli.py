"""Command line entry point: it parses, prints and writes; ``benchmarks`` does the work.

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
import operator
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import benchmarks, dynamics, feasibility
from .dynamics import GammaSchedule, SimConfig
from .game import GameParams
from .topology import (
    Instance, _integer, _mapping, _read_json, instance_from_dict, load_instance,
)

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

# The binary operators a horizon expression may use.
_BINARY_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
               ast.FloorDiv: operator.floordiv, ast.Div: operator.truediv}


def evaluate_horizon(expr, inst: Instance):
    """The value of a horizon: ``expr`` itself unless it is a string of
    arithmetic over the variables sum_alpha and n (e.g. "2*sum_alpha").
    ``SimConfig`` checks that the value is a nonnegative integer."""
    if not isinstance(expr, str):
        return expr
    names = {"sum_alpha": inst.total_alpha, "n": inst.n}

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in names:
                return names[node.id]
            raise ValueError(f"unknown name {node.id!r} in horizon expression")
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
            return _BINARY_OPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        raise ValueError("unsupported construct in horizon expression")

    try:
        return ev(ast.parse(expr, mode="eval"))
    except (SyntaxError, ZeroDivisionError, OverflowError, RecursionError) as exc:
        raise ValueError(f"bad horizon expression {expr!r}: {exc}") from exc


# The keys each schedule kind takes besides "kind".
_SCHEDULE_KEYS = {"fixed": {"gamma0"}, "annealed": {"gamma0", "increment"}, "infinite": set()}


def load_experiment_spec(path, overrides=None) -> tuple[SimConfig, int]:
    """The base config and replications of an experiment spec (see README).
    The spec's own values are checked first; then each of ``overrides``'
    seed, replications, variant, horizon, gamma0 and gamma_increment that
    is not None replaces the spec's value.  An annealed spec that gives no
    increment, and no override that does, runs at ``default_increment``."""
    data = _mapping(_read_json(path), "spec", _SPEC_KEYS)
    inst_src = data.get("instance")
    if isinstance(inst_src, dict) and set(inst_src) == {"path"}:
        if not isinstance(inst_src["path"], str):
            raise ValueError("instance 'path' must be a string")
        inst = load_instance(Path(path).parent / inst_src["path"])
    else:
        inst = instance_from_dict(inst_src)
    weights = _mapping(data.get("params", {}), "params", {"k_c", "k_a"})
    params = GameParams(weights.get("k_c", 1.0), weights.get("k_a", 0.0))
    sched = data.get("schedule", {})
    if not isinstance(sched, dict):
        raise ValueError("schedule must be a mapping")
    kind = sched.get("kind", "annealed")
    if not isinstance(kind, str) or kind not in _SCHEDULE_KEYS:
        raise ValueError(f"unknown schedule kind {kind!r}")
    unknown = set(sched) - _SCHEDULE_KEYS[kind] - {"kind"}
    if unknown:
        raise ValueError(f"schedule kind {kind!r} does not take {sorted(unknown)}")
    gamma0 = math.inf if kind == "infinite" else sched.get("gamma0", 1.0)
    increment = sched.get("increment")  # absent or null: the default rate
    schedule = GammaSchedule(gamma0, 0.0 if increment is None else increment)
    replications = _integer(data.get("replications", 1), "replications")
    seed = _integer(data.get("seed", 0), "seed")
    horizon = data.get("horizon", dynamics.default_horizon(inst))

    flags = {k: v for k, v in (overrides or {}).items() if v is not None}
    gamma = {"gamma0": flags["gamma0"]} if "gamma0" in flags else {}
    if "gamma_increment" in flags:
        gamma["increment"] = flags["gamma_increment"]
    elif kind == "annealed" and increment is None:
        gamma["increment"] = dynamics.default_increment(inst)
    base = SimConfig(
        instance=inst,
        params=params,
        schedule=replace(schedule, **gamma),
        horizon=evaluate_horizon(flags.get("horizon", horizon), inst),
        seed=flags.get("seed", seed),
        variant=flags.get("variant", data.get("variant", dynamics.ALLOCATE_FIRST)),
    )
    return base, flags.get("replications", replications)


def _out_dir(args) -> Path:
    """Checks --workers, then makes the output directory: both before any
    run, so that a bad flag or an unwritable --out costs no computation."""
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    path = Path(args.out or os.environ.get(OUT_DIR_ENV, "results"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _write_trace(path: Path, config: SimConfig, trace) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "unit", "kind", "source", "destination", "gamma"])
        for t, move in trace:
            gamma = config.schedule.gamma_at(t)
            gamma = "inf" if math.isinf(gamma) else f"{gamma:.10g}"
            source = "" if move.source is None else move.source
            writer.writerow([t, move.unit, move.kind, source, move.dest, gamma])


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
    base, replications = load_experiment_spec(args.spec, vars(args))
    base = replace(base, record_trace=args.trace)
    configs = benchmarks.replicate(base, replications)
    out_dir = _out_dir(args)

    verdict = feasibility.check_feasible_flow(base.instance)
    if not verdict.feasible:
        print(
            "warning: instance is infeasible; completion is impossible "
            f"(violating units {list(verdict.witness)})",
            file=sys.stderr,
        )

    rows = []
    runs = benchmarks._pool_map(benchmarks.run_record, [(c,) for c in configs], args.workers)
    for r, (trace, record) in enumerate(runs):  # written as it returns: one trace held
        if args.trace:
            _write_trace(out_dir / f"trace_{r}.csv", configs[r], trace)
        rows.append({"run": r, **record})

    with open(out_dir / "runs.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    schedule = base.schedule
    summary = {
        "instance_fingerprint": base.instance.fingerprint(),
        "replications": replications,
        "seed_base": base.seed,
        "variant": base.variant,
        "horizon": base.horizon,
        "params": {"k_c": base.params.k_c, "k_a": base.params.k_a},
        "schedule": {
            "gamma0": "inf" if math.isinf(schedule.gamma0) else schedule.gamma0,
            "increment": schedule.increment,
        },
        "completed_runs": sum(r["completed"] for r in rows),
        "aggregate": benchmarks.aggregate(rows),
    }
    _write_json(out_dir / "summary.json", summary)
    print(json.dumps(summary["aggregate"], indent=2, sort_keys=True))
    print(f"wrote {out_dir / 'runs.csv'} and {out_dir / 'summary.json'}")
    return 0


def cmd_verify(args) -> int:
    report = benchmarks.verify(
        load_instance(args.instance), GameParams(args.k_c, args.k_a), float(args.gamma),
        args.empirical_steps, args.empirical_tol, args.seed)
    for name, ok, note in report.checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({note})" if note else ""))
    print(json.dumps(report.fields, indent=2, sort_keys=True))
    return 0 if all(ok for _, ok, _ in report.checks) else 2


def _column_text(table: int, column: str, entry: dict) -> str:
    lines = [f"table {table}  [{column}]  ({entry['replications']} runs)",
             f"  {'metric':<12} {'reference':>12} {'simulated':>12} {'deviation':>12}"]
    for metric, cell in entry["cells"].items():
        sim = "-" if cell["simulated"] is None else f"{cell['simulated']:12.4f}"
        dev = "-" if cell["deviation"] is None else f"{cell['deviation']:+12.4f}"
        lines.append(f"  {metric:<12} {cell['reference']:12.4f} {sim:>12} {dev:>12}")
    return "\n".join(lines)


def cmd_reproduce(args) -> int:
    presets = benchmarks.table_presets(args.table, args.replications, args.seed)
    # Every config first: a count or seed they refuse leaves no output directory.
    jobs = [[(c,) for c in benchmarks.make_configs(preset)] for preset in presets]
    out_path = _out_dir(args) / f"table{args.table}.json"
    columns: dict = {}
    for preset, preset_jobs in zip(presets, jobs):
        runs = benchmarks._pool_map(benchmarks.run_record, preset_jobs, args.workers)
        records = [record for _, record in runs]
        columns[preset.column] = benchmarks.score_column(args.table, preset.column, records)
        print(_column_text(args.table, preset.column, columns[preset.column]))
    _write_json(out_path, {"table": args.table, "columns": columns})
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
