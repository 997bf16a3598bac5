import dataclasses
import math
import pickle

import pytest

from p2pstorage import analysis, benchmarks, dynamics
from p2pstorage.dynamics import ALLOCATE_FIRST, GammaSchedule, SimConfig, run
from p2pstorage.game import GameParams
from p2pstorage.topology import instance_from_dict


def test_reference_tables_are_rectangular():
    for table, spec in benchmarks.REFERENCE.items():
        width = len(spec["columns"])
        for metric, values in spec["metrics"].items():
            assert len(values) == width, (table, metric)


def test_presets_cover_reference_columns():
    for table in (1, 2, 3, 4):
        presets = benchmarks.table_presets(table)
        assert [p.column for p in presets] == benchmarks.REFERENCE[table]["columns"]


# Per (table, column): the instance fingerprint, (k_c, k_a), the default
# replications, the seed base, and the first config's (gamma0, increment)
# and horizon.
PINNED_PRESETS = {
    (1, "k_a=0"): ("4e3e771038a6cc07", (1.0, 0.0), 25, 1000, (1.0, 0.0125), 4500),
    (1, "k_a=0.25"): ("4e3e771038a6cc07", (1.0, 0.25), 25, 1000, (1.1, 0.0), 4500),
    (1, "k_a=0.45"): ("4e3e771038a6cc07", (1.0, 0.45), 25, 1000, (1.1, 0.0), 4500),
    (2, "k_a=0"): ("d45d6e9ffca4f0cc", (1.0, 0.0), 25, 2000, (1.0, 0.0125), 4500),
    (2, "k_a=0.25"): ("d45d6e9ffca4f0cc", (1.0, 0.25), 25, 2000, (1.1, 0.0), 4500),
    (2, "k_a=0.45"): ("d45d6e9ffca4f0cc", (1.0, 0.45), 25, 2000, (1.1, 0.0), 4500),
    (3, "mixed alpha"): ("aa4aa58d2554ef62", (1.0, 0.45), 25, 3000, (1.1, 0.0), 4500),
    (4, "n=50"): ("d45d6e9ffca4f0cc", (1.0, 0.45), 25, 4000, (1.1, 0.0), 4500),
    (4, "n=100"): ("7af7a0125257b81b", (1.0, 0.45), 10, 4000, (1.1, 0.0), 9000),
    (4, "n=1000"): ("a4992a05501ca93f", (1.0, 0.45), 1, 4000, (1.1, 0.0), 90000),
}


def test_presets_are_pinned():
    seen = {}
    for table in (1, 2, 3, 4):
        for preset in benchmarks.table_presets(table):
            config = benchmarks.make_configs(preset)[0]
            assert config.variant == ALLOCATE_FIRST
            seen[preset.table, preset.column] = (
                preset.instance.fingerprint(),
                (preset.params.k_c, preset.params.k_a),
                preset.replications,
                preset.seed,
                (config.schedule.gamma0, config.schedule.increment),
                config.horizon,
            )
    assert seen == PINNED_PRESETS


def test_table3_demand_pattern_cycles():
    preset = benchmarks.table_presets(3)[0]
    alpha = preset.instance.alpha
    assert sorted(set(alpha)) == [35, 40, 45, 50, 55]
    assert sum(alpha) / len(alpha) == pytest.approx(45)
    # both reliability classes see the same demand mix
    lam = preset.instance.reliability
    low = [alpha[x] for x in range(50) if lam[x] == 0.5]
    high = [alpha[x] for x in range(50) if lam[x] == 0.8]
    assert sorted(low) == sorted(high)


def test_reliability_split_is_half_and_half():
    inst = benchmarks.benchmark_instance(50, "complete")
    assert inst.reliability.count(0.5) == 25
    assert inst.reliability.count(0.8) == 25


def test_benchmark_instance_refuses_an_unknown_topology_kind():
    with pytest.raises(ValueError, match="unknown topology kind 'ring'"):
        benchmarks.benchmark_instance(10, "ring")


def test_preset_schedule_selection():
    cold = benchmarks.table_presets(1)[0]  # k_a = 0
    warm = benchmarks.table_presets(1)[2]  # k_a = 0.45
    assert benchmarks.make_configs(cold)[0].schedule == GammaSchedule(1.0, 1 / 80)
    assert benchmarks.make_configs(warm)[0].schedule == GammaSchedule.fixed(
        benchmarks.AGGREGATED_GAMMA
    )


@pytest.mark.parametrize("replications", [0, -2])
def test_presets_reject_nonpositive_replications(replications):
    # The one check is replicate's, reached when the preset's configs are made.
    with pytest.raises(ValueError, match="replications must be positive"):
        benchmarks.make_configs(benchmarks.table_presets(1, replications=replications)[0])


def test_presets_reject_an_unknown_table():
    with pytest.raises(ValueError, match="table must be 1, 2, 3, or 4"):
        benchmarks.table_presets(5)


def test_make_configs_seeds_are_consecutive():
    preset = benchmarks.table_presets(2)[0]
    configs = benchmarks.make_configs(preset)
    assert len(configs) == preset.replications
    assert [c.seed for c in configs] == list(range(preset.seed, preset.seed + 25))


def test_replicate_takes_consecutive_seeds_and_keeps_every_other_field():
    base = benchmarks.make_configs(benchmarks.table_presets(1)[0])[0]
    configs = benchmarks.replicate(base, 4)
    assert [c.seed for c in configs] == [base.seed + r for r in range(4)]
    for config in configs:
        for field in dataclasses.fields(config):
            if field.name != "seed":
                assert getattr(config, field.name) is getattr(base, field.name), field.name


@pytest.mark.parametrize("replications", [0, -1])
def test_replicate_rejects_nonpositive_replications(replications):
    base = benchmarks.make_configs(benchmarks.table_presets(1)[0])[0]
    with pytest.raises(ValueError, match=f"replications must be positive, got {replications}"):
        benchmarks.replicate(base, replications)


def _record(completed, **metrics):
    return {"seed": 0, "completed": completed, "steps_to_completion": None, **metrics}


def test_score_column_means_the_records_against_the_reference():
    records = [
        _record(1, d_out=6.0, rho=0.5),
        _record(0, d_out=8.0, rho=None),
        _record(1, d_out=10.0, rho=0.7),
    ]
    entry = benchmarks.score_column(1, "k_a=0.25", records)
    assert entry["replications"] == 3
    assert entry["completed_runs"] == 2
    assert entry["cells"]["d_out"] == {"reference": 9.542, "simulated": 8.0, "deviation": 8.0 - 9.542}
    assert entry["cells"]["rho"]["simulated"] == pytest.approx(0.6)
    assert entry["cells"]["rho"]["deviation"] == entry["cells"]["rho"]["simulated"] - 0.6812
    # a reference metric no record holds scores as absent
    assert entry["cells"]["nu_moves"] == {"reference": 1.3068, "simulated": None, "deviation": None}
    assert list(entry["cells"]) == list(benchmarks.REFERENCE[1]["metrics"])


def test_score_column_without_a_rho_scores_none():
    records = [_record(0, d_out=5.0, rho=None) for _ in range(2)]
    entry = benchmarks.score_column(2, "k_a=0", records)
    assert entry["completed_runs"] == 0
    assert entry["cells"]["rho"] == {"reference": 0.9784, "simulated": None, "deviation": None}


def _config(alpha, beta, record_trace=False):
    inst = instance_from_dict({"generator": {"kind": "complete", "n": 3},
                               "alpha": alpha, "beta": beta, "lambda": 1.0})
    return SimConfig(inst, GameParams(1.0, 0.45), GammaSchedule.fixed(1.0), horizon=30, seed=1,
                     record_trace=record_trace)


def test_run_record_scores_rho_of_the_final_state():
    config = _config(1, 2)
    _trace, record = benchmarks.run_record(config)
    assert record["completed"] == 1
    rho, tag = analysis.compute_rho(config.instance, config.params, run(config).final_state)
    assert (record["rho"], record["rho_tag"]) == (rho, tag) and rho is not None


def test_run_record_returns_the_trace_only_when_recorded():
    assert benchmarks.run_record(_config(1, 2))[0] is None
    config = _config(1, 2, record_trace=True)
    trace, _record = benchmarks.run_record(config)
    assert trace and trace == run(config).trace


def test_a_trace_of_slotted_moves_round_trips_through_pickle():
    # Move has slots: no __dict__ per move, and a pool worker's trace comes
    # back equal.
    trace, _record = benchmarks.run_record(_config(1, 2, record_trace=True))
    assert trace and not hasattr(trace[0][1], "__dict__")
    assert pickle.loads(pickle.dumps(trace)) == trace


def test_run_record_on_an_infeasible_instance_has_no_rho():
    _trace, record = benchmarks.run_record(_config([2, 1, 1], 1))
    assert record["completed"] == 0
    assert record["rho"] is None and record["rho_tag"] is None


@pytest.mark.parametrize("table, column", [(3, "k_a=0"), (1, "n=50"), (5, "k_a=0")])
def test_score_column_rejects_an_unknown_column(table, column):
    with pytest.raises(ValueError, match="has no column"):
        benchmarks.score_column(table, column, [_record(1, d_out=1.0)])


def test_aggregate_is_the_population_mean_and_std():
    agg = benchmarks.aggregate([_record(1, d_out=2.0, rho=None), _record(0, d_out=4.0, rho=None)])
    assert agg["d_out"] == {"mean": 3.0, "std": 1.0}
    assert agg["completed"] == {"mean": 0.5, "std": 0.5}
    assert "rho" not in agg and "steps_to_completion" not in agg
    assert benchmarks.aggregate([]) == {}


def test_table3_moves_per_atom_band():
    # full preset: mean moves per atom lands within 0.15 of the published
    # 1.1552 (single-run reference, stochastic band)
    preset = benchmarks.table_presets(3)[0]
    reports = []
    for config in benchmarks.make_configs(preset):
        result = run(config)
        assert result.completed
        reports.append(analysis.compute_metrics(config.instance, config.params, result))
    nu = sum(r.nu_moves for r in reports) / len(reports)
    assert nu == pytest.approx(1.1552, abs=0.15)


def _k3(beta):
    # K3, one atom per unit: eight states with two slots each (strict), two
    # with one slot each (not strict).
    return instance_from_dict({"generator": {"kind": "complete", "n": 3}, "alpha": 1,
                               "beta": beta, "lambda": 1.0})


@pytest.mark.parametrize(
    "gamma,steps,tol,message",
    [
        (-1.0, 0, 0.05, "gamma must be positive"),
        (0.0, 0, 0.05, "gamma must be positive"),
        (math.nan, 0, 0.05, "gamma must be positive"),
        (1.0, -5, 0.05, "empirical_steps must be nonnegative"),
        (1.0, 200, math.nan, "empirical_tol must be positive"),
        (1.0, 200, 0.0, "empirical_tol must be positive"),
        (1.0, 0, -0.1, "empirical_tol must be positive"),
        (math.inf, 200, 0.05, "empirical_steps needs a finite gamma"),
    ],
    ids=["negative-gamma", "zero-gamma", "nan-gamma", "negative-steps", "nan-tol", "zero-tol",
         "negative-tol", "steps-with-infinite-gamma"],
)
def test_verify_refuses_bad_inputs_before_any_work(monkeypatch, gamma, steps, tol, message):
    def never(*args):
        raise AssertionError("worked on a refused input")

    monkeypatch.setattr(analysis, "check_kernel_size", never)
    monkeypatch.setattr(dynamics, "place_all", never)
    with pytest.raises(ValueError, match=message):
        benchmarks.verify(_k3(2), GameParams(1.0, 0.0), gamma, steps, tol)


_EXACT_CHECKS = ["kernel rows sum to 1", "detailed balance", "stationarity"]
_EXACT_FIELDS = {"gamma", "seconds", "num_states", "kernel_nnz", "strict",
                 "detailed_balance_max_violation", "stationarity_residual"}
_EXACT_STAGES = {"enumerate", "kernel", "stationary", "balance", "residual"}


@pytest.mark.parametrize(
    "beta,gamma,steps,checks,fields,stages",
    [
        (2, 1.0, 0, _EXACT_CHECKS + ["ergodicity (support connected)"],
         _EXACT_FIELDS | {"support_connected"}, _EXACT_STAGES | {"connectivity"}),
        (2, 1.0, 2000, _EXACT_CHECKS + ["ergodicity (support connected)", "empirical occupancy"],
         _EXACT_FIELDS | {"support_connected", "empirical_chains", "empirical_tv"},
         _EXACT_STAGES | {"connectivity", "empirical"}),
        (1, 1.0, 0, _EXACT_CHECKS + ["ergodicity"], _EXACT_FIELDS, _EXACT_STAGES),
        (2, math.inf, 0, ["best-response probe"], {"gamma", "best_response_absorption"}, None),
    ],
    ids=["exact", "empirical", "non-strict", "best-response"],
)
def test_verify_reports_its_checks_in_order_with_their_fields(beta, gamma, steps, checks,
                                                              fields, stages):
    report = benchmarks.verify(_k3(beta), GameParams(1.0, 0.0), gamma, steps, 1.0, seed=3)
    assert report == (report.checks, report.fields)  # the two-field named tuple
    assert [name for name, _, _ in report.checks] == checks
    assert all(ok is True for _, ok, _ in report.checks)
    assert set(report.fields) == fields
    assert report.fields["gamma"] == ("inf" if math.isinf(gamma) else gamma)
    if stages is not None:
        assert set(report.fields["seconds"]) == stages
    if math.isinf(gamma):
        probe = report.fields["best_response_absorption"]
        assert probe == {"trials": benchmarks.PROBE_TRIALS, "incomplete": 0, "fraction": 0.0}
