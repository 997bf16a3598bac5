"""The library side of simulate, reproduce and verify: run records, the benchmark
presets and their published values, the verify checks, and the one pool helper.

Every table runs capacity 50 per unit, two equal reliability classes
(0.5 / 0.8), congestion weight 1, and a horizon of two steps per atom;
``_LAYOUT`` gives the rest, one row per ``REFERENCE`` column.

Schedules: congestion-only presets (k_a = 0) anneal the Gibbs parameter
from 1 at ``dynamics.default_increment`` per step to the cold regime, which
ends near the capacity-forced optimum (trusted resources saturate): 0.12-0.24
below the maximum potential of 485.0 on tables 1 and 2, 3 seeds each.
Aggregation presets (k_a > 0) run at bounded noise instead: annealing cold
makes the aggregation bonus compound during allocation and collapses each
unit onto 2-3 piles, far below the paper's d_out.  At t = H, the default
horizon, bounded gamma comes close to the published d_out on the regular
graphs of tables 2-4, not on table 1's complete graph (k_a = 0.25: 26.7
against 9.54).  These cells are a transient: runs that go on past H condense
(table 2, k_a = 0.25, seeds 1-3: d_out 1.48, 1.00 and 1.28 at 8H).

Reference numbers are single-run values and carry no variance; treat
comparisons as indicative bands, not exact targets.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

from . import analysis, dynamics, feasibility
from .dynamics import ALLOCATE_FIRST, GammaSchedule, SimConfig, default_horizon, default_increment
from .game import GameParams, Move, _check_gamma
from .topology import Instance, build_complete, build_random_regular

__all__ = [
    "REFERENCE",
    "PresetRun",
    "VerifyReport",
    "aggregate",
    "benchmark_instance",
    "make_configs",
    "replicate",
    "run_record",
    "score_column",
    "table_presets",
    "verify",
]

_CAPACITY = 50
_RELIABILITY_LOW = 0.5
_RELIABILITY_HIGH = 0.8
_REGULAR_DEGREE = 10
_GRAPH_SEED = 93
AGGREGATED_GAMMA = 1.1  # bounded noise level for the k_a > 0 presets
PROBE_TRIALS = 200  # runs of verify's best-response probe (gamma inf)

# Per table: the column labels, and per metric one value per column, in order.
REFERENCE: dict[int, dict] = {
    1: {
        "columns": ["k_a=0", "k_a=0.25", "k_a=0.45"],
        "metrics": {
            "nu_moves": [1.6271, 1.3068, 1.2548],
            "lambda_mean": [0.6667, 0.6592, 0.6593],
            "lambda_var": [6.4818e-4, 0.0119, 0.0122],
            "c1_mean": [0.8000, 0.8450, 0.8442],
            "c1_var": [9.5680e-4, 0.1149, 0.1195],
            "c2_mean": [1.0, 0.9550, 0.9558],
            "c2_var": [0.0, 0.0280, 0.0261],
            "d_out": [44.8460, 9.5420, 9.6720],
            "d_in_1": [43.9280, 9.1720, 9.1280],
            "d_in_2": [45.7640, 9.9120, 10.2160],
            "rho": [0.9787, 0.6812, 0.6796],
        },
    },
    2: {
        "columns": ["k_a=0", "k_a=0.25", "k_a=0.45"],
        "metrics": {
            "nu_moves": [1.4187, 1.2185, 1.1714],
            "lambda_mean": [0.6667, 0.6596, 0.6606],
            "lambda_var": [0.0019, 0.0136, 0.0143],
            "c1_mean": [0.8000, 0.8422, 0.8364],
            "c1_var": [0.0011, 0.1214, 0.1350],
            "c2_mean": [1.0, 0.9578, 0.9636],
            "c2_var": [0.0, 0.0261, 0.0251],
            "d_out": [9.9560, 6.2580, 6.3700],
            "d_in_1": [9.9240, 5.9400, 6.2520],
            "d_in_2": [9.9880, 6.5760, 6.4880],
            "rho": [0.9784, 0.8872, 0.9297],
        },
    },
    3: {
        "columns": ["mixed alpha"],
        "metrics": {
            "nu_moves": [1.1552],
            "lambda_mean": [0.6613],
            "lambda_var": [0.0138],
            "c1_mean": [0.8387],
            "c1_var": [0.1464],
            "c2_mean": [0.9613],
            "c2_var": [0.0328],
            "d_out": [6.4040],
            "d_in_1": [6.1200],
            "d_in_2": [6.6880],
        },
    },
    4: {
        "columns": ["n=50", "n=100", "n=1000"],
        "metrics": {
            "nu_moves": [1.1714, 1.1490, 1.1304],
            "lambda_mean": [0.6606, 0.6605, 0.6566],
            "lambda_var": [0.0143, 0.0146, 0.0114],
            "c1_mean": [0.8364, 0.8370, 0.8604],
            "c1_var": [0.1350, 0.1262, 0.1068],
            "c2_mean": [0.9636, 0.9630, 0.9396],
            "c2_var": [0.0251, 0.0183, 0.0616],
            "d_out": [6.3700, 6.2840, 6.1902],
            "d_in_1": [6.2520, 5.9380, 6.0004],
            "d_in_2": [6.4880, 6.6300, 6.3800],
        },
    },
}

# Per table: the graph kind and the demand pattern, then per REFERENCE
# column, in order, (units, k_a, default replications).
_LAYOUT: dict[int, tuple[str, tuple[int, ...], list[tuple[int, float, int]]]] = {
    1: ("complete", (45,), [(50, 0.0, 25), (50, 0.25, 25), (50, 0.45, 25)]),
    2: ("regular", (45,), [(50, 0.0, 25), (50, 0.25, 25), (50, 0.45, 25)]),
    3: ("regular", (35, 40, 45, 50, 55), [(50, 0.45, 25)]),
    4: ("regular", (45,), [(50, 0.45, 25), (100, 0.45, 10), (1000, 0.45, 1)]),
}


@dataclass(frozen=True)
class PresetRun:
    """One benchmark column: an instance plus everything needed to run it."""

    table: int
    column: str
    instance: Instance
    params: GameParams
    replications: int
    seed: int


def benchmark_instance(
    n: int,
    topology_kind: str,
    alpha_pattern: tuple[int, ...] = (45,),
) -> Instance:
    """Build a benchmark instance: demands cycle through alpha_pattern so
    each reliability class sees the same demand mix."""
    if topology_kind == "complete":
        topo = build_complete(n)
    elif topology_kind == "regular":
        topo = build_random_regular(n, _REGULAR_DEGREE, seed=_GRAPH_SEED + n)
    else:
        raise ValueError(f"unknown topology kind {topology_kind!r}")
    alpha = tuple(alpha_pattern[x % len(alpha_pattern)] for x in range(n))
    half = n // 2
    lam = (_RELIABILITY_LOW,) * half + (_RELIABILITY_HIGH,) * (n - half)
    return Instance(topo, alpha, (_CAPACITY,) * n, lam)


def table_presets(table: int, replications: int | None = None, seed: int | None = None):
    """The preset runs of one benchmark table; ``replications`` None keeps
    each column's default; ``replicate`` checks a given count."""
    if table not in _LAYOUT:
        raise ValueError("table must be 1, 2, 3, or 4")
    kind, alpha_pattern, rows = _LAYOUT[table]
    base_seed = 1000 * table if seed is None else seed
    instances = {n: benchmark_instance(n, kind, alpha_pattern) for n in {n for n, _, _ in rows}}
    return [
        PresetRun(table, column, instances[n], GameParams(k_c=1.0, k_a=k_a),
                  default_reps if replications is None else replications, base_seed)
        for column, (n, k_a, default_reps) in zip(REFERENCE[table]["columns"], rows, strict=True)
    ]


def replicate(config: SimConfig, replications: int) -> list[SimConfig]:
    """The seeded replications of a config: replication r runs with
    ``config.seed + r``, every other field unchanged."""
    if replications < 1:
        raise ValueError(f"replications must be positive, got {replications}")
    return [replace(config, seed=config.seed + r) for r in range(replications)]


def _pool_map(fn, jobs: list[tuple], workers: int):
    """Yields ``fn(*job)`` for each job, in order, one at a time: in this
    process, or through a pool of min(workers, jobs, CPU count) processes
    when that is above 1, so a large value starts no more processes than it
    can use.  The pool joins every child when the iteration ends or stops."""
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here: a one-process run never loads it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, *zip(*jobs))
    else:
        yield from (fn(*job) for job in jobs)


def run_record(config: SimConfig) -> tuple[list[tuple[int, Move]] | None, dict]:
    """Run one config and score it: (trace, record), the trace the run's
    move trace (None unless ``config.record_trace``), the record holding
    seed, completed and steps_to_completion, then ``compute_metrics``'s row.
    The final state is scored here and dropped, so a caller (or a pool
    worker's reply) holds no run's state."""
    result = dynamics.run(config)
    report = analysis.compute_metrics(config.instance, config.params, result)
    record = {
        "seed": config.seed,
        "completed": int(result.completed),
        "steps_to_completion": result.steps_to_completion,
        **report.to_row(),
    }
    return result.trace, record


def make_configs(preset: PresetRun) -> list[SimConfig]:
    """Seeded replication configs for one preset column: an aggregation
    preset (k_a > 0) runs at the fixed ``AGGREGATED_GAMMA``, a
    congestion-only one anneals from 1 at the instance's default rate."""
    inst = preset.instance
    if preset.params.k_a > 0:
        schedule = GammaSchedule.fixed(AGGREGATED_GAMMA)
    else:
        schedule = GammaSchedule(1.0, default_increment(inst))
    base = SimConfig(
        instance=inst,
        params=preset.params,
        schedule=schedule,
        horizon=default_horizon(inst),
        seed=preset.seed,
        variant=ALLOCATE_FIRST,
    )
    return replicate(base, preset.replications)


def aggregate(rows: list[dict]) -> dict:
    """Mean and population standard deviation of each key that some row
    holds a number for."""
    out = {}
    for k in rows[0] if rows else ():
        values = [r[k] for r in rows if isinstance(r[k], (int, float))]
        if values:
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / len(values)
            out[k] = {"mean": mean, "std": math.sqrt(var)}
    return out


def score_column(table: int, column: str, records: list[dict]) -> dict:
    """One column of a reproduced table from its run records: the run and
    completed-run counts, and per reference metric the reference value, the
    records' mean (None when none holds a number) and mean minus reference."""
    ref = REFERENCE.get(table)
    if ref is None or column not in ref["columns"]:
        raise ValueError(f"table {table} has no column {column!r}")
    i, means = ref["columns"].index(column), aggregate(records)
    cells = {}
    for metric, values in ref["metrics"].items():
        ours = means.get(metric, {}).get("mean")
        cells[metric] = {"reference": values[i], "simulated": ours,
                         "deviation": None if ours is None else ours - values[i]}
    completed = sum(r["completed"] for r in records)
    return {"replications": len(records), "completed_runs": completed, "cells": cells}


class VerifyReport(NamedTuple):
    """``verify``'s (name, ok, note) checks, in order, and its JSON ``fields``."""

    checks: list[tuple[str, bool, str]]
    fields: dict


def verify(inst: Instance, params: GameParams, gamma: float, empirical_steps: int = 0,
           empirical_tol: float = 0.05, seed: int = 0) -> VerifyReport:
    """The exact oracle checks at fixed ``gamma``, with per-stage ``seconds``,
    then ``empirical_steps`` of the engine held to the stationary law; at
    gamma math.inf, the best-response probe instead."""
    _check_gamma(gamma, finite=False)
    if empirical_steps < 0:
        raise ValueError(f"empirical_steps must be nonnegative, got {empirical_steps}")
    if not empirical_tol > 0:
        raise ValueError(f"empirical_tol must be positive, got {empirical_tol}")
    if empirical_steps and math.isinf(gamma):
        raise ValueError("empirical_steps needs a finite gamma")
    fields: dict = {"gamma": "inf" if math.isinf(gamma) else gamma}
    if math.isinf(gamma):
        # Pure best-response probe: the runs of PROBE_TRIALS stuck short of
        # completion, each run stopped once it completes.
        horizon = 20 * max(inst.total_alpha, 1)
        base = SimConfig(inst, params, GammaSchedule.infinite(), horizon=horizon, seed=seed)
        stuck = sum(not dynamics.place_all(c, horizon)[0] for c in replicate(base, PROBE_TRIALS))
        fields["best_response_absorption"] = {
            "trials": PROBE_TRIALS, "incomplete": stuck, "fraction": stuck / PROBE_TRIALS}
        note = f"{stuck}/{PROBE_TRIALS} runs absorbed short of completion"
        return VerifyReport([("best-response probe", True, note)], fields)

    seconds = fields["seconds"] = {}

    def timed(stage, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        seconds[stage] = time.perf_counter() - start
        return result

    analysis.check_kernel_size(inst)
    oracle = timed("enumerate", analysis.enumerate_states, inst)
    kernel = timed("kernel", analysis.build_transition_matrix, oracle, params, gamma).kernel
    fields.update(num_states=len(oracle), kernel_nnz=len(kernel.data))
    rows_ok = bool((abs(kernel.row_sums() - 1.0) <= 1e-12).all())
    checks = [("kernel rows sum to 1", rows_ok, "tolerance 1e-12")]
    strict = fields["strict"] = feasibility.check_strict(inst).feasible
    mu = timed("stationary", analysis.stationary_exact, oracle, params, gamma)
    balance = timed("balance", analysis.detailed_balance_max_violation, oracle, mu)
    residual = timed("residual", analysis.stationarity_residual, oracle, mu)
    fields.update(detailed_balance_max_violation=balance, stationarity_residual=residual)
    checks.append(("detailed balance", balance <= 1e-10, f"max violation {balance:.3e}"))
    checks.append(("stationarity", residual <= 1e-10, f"residual {residual:.3e}"))
    if strict:
        connected = timed("connectivity", analysis.is_support_connected, oracle)
        fields["support_connected"] = connected
        checks.append(("ergodicity (support connected)", connected, ""))
    else:
        checks.append(("ergodicity", True, "skipped: strict covering condition fails, "
                       "connectivity of the full state space is not guaranteed"))
    if empirical_steps > 0:
        # Two chains of the engine side by side, ceil(steps / 2) on seed and
        # floor(steps / 2) on seed + 1 (the replicate convention; one chain
        # for one step), the pool first in the zip so that it runs out and
        # joins.  Each chain is held to mu on its own: pooling the tallies
        # would pass chains stuck in different states.
        start = time.perf_counter()
        chains = [(seed + c, (empirical_steps + 1 - c) // 2) for c in (0, 1)[:empirical_steps]]
        jobs = [(inst, params, gamma, n, 0, s) for s, n in chains]
        entries = []
        for tally, (s, n) in zip(_pool_map(analysis.sample_chain, jobs, len(jobs)), chains):
            freqs = analysis.tally_frequencies(oracle, tally)
            tv = analysis.total_variation(freqs, mu)
            entries.append({"seed": s, "steps": n, "tv": tv, "unvisited": int((freqs == 0).sum())})
        seconds["empirical"] = time.perf_counter() - start
        tv = max(entry["tv"] for entry in entries)
        fields.update(empirical_chains=entries, empirical_tv=tv)
        worst = f"worst of {len(entries)} chains, " if len(entries) > 1 else ""
        note = f"TV {tv:.4f} ({worst}tolerance {empirical_tol})"
        unvisited = max(entry["unvisited"] for entry in entries)
        if unvisited:
            note += f"; {unvisited} of {len(oracle)} states never visited"
        checks.append(("empirical occupancy", tv < empirical_tol, note))
    return VerifyReport(checks, fields)
