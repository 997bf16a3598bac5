import dataclasses

import pytest

from p2pstorage import analysis, benchmarks
from p2pstorage.dynamics import GammaSchedule, run


def test_reference_tables_are_rectangular():
    for table, spec in benchmarks.REFERENCE.items():
        width = len(spec["columns"])
        for metric, values in spec["metrics"].items():
            assert len(values) == width, (table, metric)


def test_presets_cover_reference_columns():
    for table in (1, 2, 3, 4):
        presets = benchmarks.table_presets(table)
        assert [p.column for p in presets] == benchmarks.REFERENCE[table]["columns"]


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


def test_preset_schedule_selection():
    cold = benchmarks.table_presets(1)[0]  # k_a = 0
    warm = benchmarks.table_presets(1)[2]  # k_a = 0.45
    assert benchmarks.preset_schedule(cold.instance, cold.params) == GammaSchedule(1.0, 1 / 80)
    assert benchmarks.preset_schedule(warm.instance, warm.params) == GammaSchedule.fixed(
        benchmarks.AGGREGATED_GAMMA
    )


@pytest.mark.parametrize("replications", [0, -2])
def test_presets_reject_nonpositive_replications(replications):
    with pytest.raises(ValueError, match="replications must be positive"):
        benchmarks.table_presets(1, replications=replications)


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
