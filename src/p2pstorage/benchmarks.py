"""Benchmark presets and their published reference values.

Four standard experiment families, all with capacity 50 per unit, two
equal reliability classes (0.5 / 0.8), congestion weight 1, and a horizon
of two steps per atom:

  table 1 - complete graph, n=50, demand 45, aggregation 0 / 0.25 / 0.45
  table 2 - random 10-regular graph, same demands and columns
  table 3 - random 10-regular graph, demands cycling 35/40/45/50/55
  table 4 - random 10-regular graph, aggregation 0.45, n = 50/100/1000

Schedules: congestion-only presets (k_a = 0) anneal the Gibbs parameter
from 1 at ``dynamics.default_increment`` per step to the cold regime,
which crystallizes the capacity-forced optimum (trusted resources
saturate exactly).  Aggregation presets (k_a > 0) run at bounded noise
instead: annealing cold makes the aggregation bonus compound during
allocation and collapses each unit onto 2-3 piles, far below the paper's
d_out.  Bounded gamma comes close to the published d_out on the regular
graphs of tables 2-4, not on table 1's complete graph (k_a = 0.25: 26.7
against 9.54); bounded noise is also what a live deployment would run.

Reference numbers are single-run values and carry no variance; treat
comparisons as indicative bands, not exact targets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import analysis, dynamics
from .dynamics import ALLOCATE_FIRST, GammaSchedule, SimConfig, default_horizon, default_increment
from .game import GameParams
from .topology import Instance, build_complete, build_random_regular

__all__ = [
    "REFERENCE",
    "PresetRun",
    "benchmark_instance",
    "make_configs",
    "preset_schedule",
    "replicate",
    "run_record",
    "table_presets",
]

_CAPACITY = 50
_RELIABILITY_LOW = 0.5
_RELIABILITY_HIGH = 0.8
_REGULAR_DEGREE = 10
_GRAPH_SEED = 93
AGGREGATED_GAMMA = 1.1  # bounded noise level for the k_a > 0 presets

# Rows: metric name -> column label -> reference value.
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


@dataclass(frozen=True)
class PresetRun:
    """One benchmark column: an instance plus everything needed to run it."""

    table: int
    column: str
    instance: Instance
    params: GameParams
    replications: int
    seed: int


def _reliability_split(n: int) -> tuple[float, ...]:
    half = n // 2
    return tuple([_RELIABILITY_LOW] * half + [_RELIABILITY_HIGH] * (n - half))


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
    beta = tuple([_CAPACITY] * n)
    return Instance(topo, alpha, beta, _reliability_split(n))


def table_presets(table: int, replications: int | None = None, seed: int | None = None):
    """The preset runs of one benchmark table; ``replications`` None keeps
    each column's default."""
    if replications is not None and replications < 1:
        raise ValueError(f"replications must be positive, got {replications}")
    base_seed = 1000 * table if seed is None else seed
    if table in (1, 2):
        inst = benchmark_instance(50, "complete" if table == 1 else "regular")
        runs = [
            PresetRun(
                table, label, inst, GameParams(k_c=1.0, k_a=ka), replications or 25, base_seed
            )
            for label, ka in [("k_a=0", 0.0), ("k_a=0.25", 0.25), ("k_a=0.45", 0.45)]
        ]
    elif table == 3:
        inst = benchmark_instance(50, "regular", alpha_pattern=(35, 40, 45, 50, 55))
        runs = [
            PresetRun(
                3, "mixed alpha", inst, GameParams(k_c=1.0, k_a=0.45), replications or 25, base_seed
            )
        ]
    elif table == 4:
        sizes = [(50, 25), (100, 10), (1000, 1)]
        runs = [
            PresetRun(
                4,
                f"n={n}",
                benchmark_instance(n, "regular"),
                GameParams(k_c=1.0, k_a=0.45),
                replications or default_reps,
                base_seed,
            )
            for n, default_reps in sizes
        ]
    else:
        raise ValueError("table must be 1, 2, 3, or 4")
    return runs


def preset_schedule(inst: Instance, params: GameParams) -> GammaSchedule:
    """Annealed from 1 at the instance's default rate for congestion-only
    presets, bounded for aggregation."""
    if params.k_a > 0:
        return GammaSchedule.fixed(AGGREGATED_GAMMA)
    return GammaSchedule(1.0, default_increment(inst))


def replicate(config: SimConfig, replications: int) -> list[SimConfig]:
    """The seeded replications of a config: replication r runs with
    ``config.seed + r``, every other field unchanged."""
    if replications < 1:
        raise ValueError(f"replications must be positive, got {replications}")
    return [replace(config, seed=config.seed + r) for r in range(replications)]


def run_record(config: SimConfig) -> tuple[dynamics.RunResult, dict]:
    """Run one config and score it: (result, record), the record holding
    seed, completed and steps_to_completion, then the metrics row.  Rho is
    computed only for a completed run."""
    result = dynamics.run(config)
    report = analysis.compute_metrics(config.instance, config.params, result)
    if result.completed:
        report.rho, report.rho_tag = analysis.compute_rho(
            config.instance, config.params, result.final_state
        )
    record = {
        "seed": config.seed,
        "completed": int(result.completed),
        "steps_to_completion": result.steps_to_completion,
        **report.to_row(),
    }
    return result, record


def make_configs(preset: PresetRun) -> list[SimConfig]:
    """Seeded replication configs for one preset column."""
    inst = preset.instance
    base = SimConfig(
        instance=inst,
        params=preset.params,
        schedule=preset_schedule(inst, preset.params),
        horizon=default_horizon(inst),
        seed=preset.seed,
        variant=ALLOCATE_FIRST,
    )
    return replicate(base, preset.replications)
