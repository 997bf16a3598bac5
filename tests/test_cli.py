import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import p2pstorage
from p2pstorage import benchmarks, feasibility
from p2pstorage.cli import evaluate_horizon, load_experiment_spec, main
from p2pstorage.feasibility import check_strict
from p2pstorage.topology import Instance, build_complete, instance_to_dict


def write_instance(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def feasible_doc():
    return {
        "generator": {"kind": "complete", "n": 4},
        "alpha": 1,
        "beta": 2,
        "lambda": [0.5, 0.5, 0.8, 0.8],
    }


def infeasible_doc():
    return {
        "n": 3,
        "edges": [[0, 1], [1, 0], [2, 0], [2, 1]],
        "alpha": [2, 1, 1],
        "beta": [1, 1, 1],
        "lambda": 1.0,
    }


def spec_doc(instance_doc, **overrides):
    doc = {
        "instance": instance_doc,
        "params": {"k_c": 1.0, "k_a": 0.0},
        "schedule": {"kind": "fixed", "gamma0": 1.5},
        "variant": "proportional",
        "horizon": "40*sum_alpha",
        "replications": 3,
        "seed": 7,
    }
    doc.update(overrides)
    return doc


# ----------------------------------------------------------------- horizon


def test_horizon_expression_sum_alpha():
    inst = Instance(build_complete(3), (2, 3, 4), (9, 9, 9), (1.0,) * 3)
    assert evaluate_horizon("2*sum_alpha", inst) == 18
    assert evaluate_horizon("sum_alpha + n", inst) == 12
    assert evaluate_horizon(100, inst) == 100
    assert evaluate_horizon(40.0, inst) == 40


def test_horizon_expression_rejects_bad_input():
    inst = Instance(build_complete(2), (1, 1), (2, 2), (1.0, 1.0))
    with pytest.raises(ValueError):
        evaluate_horizon("sum_alpha - 100", inst)
    with pytest.raises(ValueError):
        evaluate_horizon("__import__('os')", inst)
    with pytest.raises(ValueError):
        evaluate_horizon("alpha", inst)
    with pytest.raises(ValueError):
        evaluate_horizon(True, inst)


def test_horizon_expression_too_deep_is_a_value_error():
    inst = Instance(build_complete(2), (1, 1), (2, 2), (1.0, 1.0))
    with pytest.raises(ValueError, match="bad horizon expression"):
        evaluate_horizon("+".join(["1"] * 5000), inst)


@pytest.mark.parametrize("expr", ["9" * 400 + "/7", "1.5*" + "9" * 400],
                         ids=["true-division", "float-product"])
def test_horizon_integer_beyond_floats_is_a_value_error(expr):
    inst = Instance(build_complete(2), (1, 1), (2, 2), (1.0, 1.0))
    with pytest.raises(ValueError, match="bad horizon expression"):
        evaluate_horizon(expr, inst)


# ------------------------------------------------------------------- check


def test_check_feasible_exit_zero(tmp_path, capsys):
    path = write_instance(tmp_path, "ok.json", feasible_doc())
    assert main(["check", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] is True
    assert report["strict"] is True


def test_check_infeasible_exit_two(tmp_path, capsys):
    path = write_instance(tmp_path, "bad.json", infeasible_doc())
    assert main(["check", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] is False
    assert report["witness"]  # violating units are listed


def tight_doc():
    # Feasible, but the three units together fill all three resources.
    return {"generator": {"kind": "complete", "n": 3}, "alpha": 1, "beta": 1, "lambda": 1.0}


@pytest.mark.parametrize(
    "doc,code,strict",
    [(feasible_doc(), 0, True), (tight_doc(), 0, False), (infeasible_doc(), 2, None)],
    ids=["strict", "tight", "infeasible"],
)
def test_check_solves_one_flow(tmp_path, capsys, monkeypatch, doc, code, strict):
    solve, calls = feasibility._max_flow, []

    def counted(inst):
        calls.append(inst)
        return solve(inst)

    monkeypatch.setattr(feasibility, "_max_flow", counted)
    path = write_instance(tmp_path, "inst.json", doc)
    assert main(["check", str(path)]) == code
    assert len(calls) == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["feasible"], report["strict"]) == (code == 0, strict)
    inst = calls[0]
    if strict is None:
        assert feasibility.witness_violates(inst, tuple(report["witness"]))
    elif not strict:
        assert report["witness"] is None
        assert feasibility.witness_violates(inst, tuple(report["strict_witness"]), strict=True)


def test_check_malformed_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 3, "mystery": true}')
    assert main(["check", str(path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"n": true, "alpha": true, "beta": 1.7, "lambda": Infinity, "edges": []}',
        '{"n": 2, "edges": [[0, 1], [1, 0]], "alpha": 1, "beta": 1, "lambda": [0.5, NaN]}',
    ],
    ids=["bool-fraction-infinity", "nan-lambda"],
)
def test_check_rejects_bad_instance_values(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def assert_one_error_line(captured):
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_check_generator_giving_up_exits_one(tmp_path, capsys):
    doc = {
        "generator": {"kind": "random_regular", "n": 30, "d": 28, "seed": 1},
        "alpha": 1,
        "beta": 1,
        "lambda": 1.0,
    }
    path = write_instance(tmp_path, "regular.json", doc)
    assert main(["check", str(path)]) == 1
    assert_one_error_line(capsys.readouterr())


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 3_000_000, "edges": [], "alpha": 0, "beta": 0, "lambda": 0.5},
        {"generator": {"kind": "complete", "n": 1500}, "alpha": 1, "beta": 1, "lambda": 0.5},
        {"generator": {"kind": "line", "n": 333_335}, "alpha": 1, "beta": 1, "lambda": 0.5},
        {"generator": {"kind": "random_regular", "n": 100_000, "d": 10, "seed": 1},
         "alpha": 1, "beta": 1, "lambda": 0.5},
    ],
    ids=["many-units", "complete", "line", "random-regular"],
)
def test_check_rejects_oversized_instance_before_building_it(tmp_path, capsys, doc):
    path = write_instance(tmp_path, "huge.json", doc)
    start = time.perf_counter()
    assert main(["check", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert "above the limit 1000000" in captured.err


def test_check_benchmark_scale_instance(tmp_path, capsys):
    doc = {
        "generator": {"kind": "complete", "n": 50},
        "alpha": 45,
        "beta": 50,
        "lambda": [0.5] * 25 + [0.8] * 25,
    }
    path = write_instance(tmp_path, "big.json", doc)
    assert main(["check", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["strict"] is True


def test_check_long_augmenting_path_exits_zero(tmp_path, capsys):
    # The chain of test_feasibility.chain_instance(600): the last augmenting
    # path runs through all 1,202 units.
    m = 600
    edges = [[i, 2 * m - i - d] for i in range(m) for d in (1, 0)] + [[2 * m + 1, m]]
    doc = {
        "n": 2 * m + 2,
        "edges": edges,
        "alpha": [1] * m + [0] * (m + 1) + [1],
        "beta": [0] * m + [1] * (m + 1) + [0],
        "lambda": 0.5,
    }
    path = write_instance(tmp_path, "chain.json", doc)
    assert main(["check", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] is True
    assert report["strict"] is False


# ---------------------------------------------------------------- simulate


def test_simulate_writes_outputs(tmp_path, capsys):
    spec = spec_doc(feasible_doc())
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "results"
    assert main(["simulate", str(spec_path), "--out", str(out), "--workers", "1"]) == 0
    runs = (out / "runs.csv").read_text().strip().splitlines()
    assert len(runs) == 4  # header + 3 replications
    summary = json.loads((out / "summary.json").read_text())
    assert summary["completed_runs"] == 3
    assert "nu_moves" in summary["aggregate"]


def test_simulate_deterministic_reruns(tmp_path):
    spec = spec_doc(feasible_doc())
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        main(["simulate", str(spec_path), "--out", str(out), "--workers", "1"])
        outputs.append(
            ((out / "runs.csv").read_bytes(), (out / "summary.json").read_bytes())
        )
    assert outputs[0] == outputs[1]


def test_simulate_parallel_matches_serial(tmp_path):
    spec = spec_doc(feasible_doc())
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    main(["simulate", str(spec_path), "--out", str(tmp_path / "serial"), "--workers", "1"])
    main(["simulate", str(spec_path), "--out", str(tmp_path / "parallel"), "--workers", "2"])
    assert (tmp_path / "serial" / "runs.csv").read_bytes() == (
        tmp_path / "parallel" / "runs.csv"
    ).read_bytes()


def test_simulate_trace_files(tmp_path):
    spec = spec_doc(feasible_doc(), replications=1, horizon=50)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "traced"
    main(["simulate", str(spec_path), "--out", str(out), "--trace", "--workers", "1"])
    lines = (out / "trace_0.csv").read_text().strip().splitlines()
    assert lines[0] == "step,unit,kind,source,destination,gamma"
    assert len(lines) > 1


def test_simulate_warns_on_infeasible(tmp_path, capsys):
    spec = spec_doc(infeasible_doc(), horizon=100)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code = main(["simulate", str(spec_path), "--out", str(tmp_path / "o"), "--workers", "1"])
    assert code == 0
    assert "infeasible" in capsys.readouterr().err


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs the
    map in this process, so no worker is ever started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "workers,cores,size",
    [("5000", 8, 3), ("5000", 2, 2), ("2", 8, 2), ("5000", 1, None), ("5000", None, None)],
    ids=["runs-bound", "cores-bound", "workers-bound", "one-core-serial", "unknown-cores-serial"],
)
def test_simulate_pool_is_bounded_by_runs_and_cores(tmp_path, monkeypatch, workers, cores, size):
    # Three replications: never more processes than runs, or than cores.
    from p2pstorage import cli

    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc(feasible_doc())))
    out = tmp_path / "o"
    assert main(["simulate", str(spec_path), "--out", str(out), "--workers", workers]) == 0
    assert _RecordingPool.sizes == ([] if size is None else [size])
    main(["simulate", str(spec_path), "--out", str(tmp_path / "serial"), "--workers", "1"])
    assert (out / "runs.csv").read_bytes() == (tmp_path / "serial" / "runs.csv").read_bytes()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_simulate_rejects_workers_below_one(tmp_path, capsys, workers):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc(feasible_doc())))
    out = tmp_path / "o"
    assert main(["simulate", str(spec_path), "--out", str(out), "--workers", workers]) == 1
    assert_one_error_line(capsys.readouterr())
    assert not out.exists()


def test_simulate_cli_overrides(tmp_path):
    spec = spec_doc(feasible_doc())
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "o"
    main([
        "simulate", str(spec_path), "--out", str(out), "--workers", "1",
        "--replications", "2", "--seed", "123", "--horizon", "60",
        "--variant", "allocate-first",
    ])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["replications"] == 2
    assert summary["seed_base"] == 123
    assert summary["horizon"] == 60
    assert summary["variant"] == "allocate-first"


@pytest.mark.parametrize(
    "overrides",
    [
        {"replications": 0},
        {"variant": "sideways"},
        {"horizon": "sum_alpha*1e308*10"},
        {"params": {"k_c": math.nan, "k_a": 0.0}},
        {"params": []},
        {"seed": None},
        {"schedule": {"kind": "fixed", "gamma0": None}},
        {"replications": 1.5},
        {"horizon": True},
        {"params": {"k_c": 1.0, "k_a": 0.0, "gamma": 2}},
        {"schedule": {"kind": "infinite", "gamma0": 2.0}},
        {"schedule": {"kind": "fixed", "gamma0": 1.5, "increment": 0.5}},
        {"instance": dict(feasible_doc(), **{"lambda": 0.0}), "schedule": {"kind": "annealed"}},
    ],
    ids=[
        "zero-replications",
        "unknown-variant",
        "overflowing-horizon",
        "nan-k_c",
        "list-params",
        "null-seed",
        "null-gamma0",
        "fractional-replications",
        "bool-horizon",
        "params-gamma",
        "infinite-gamma0",
        "fixed-increment",
        "default-increment-zero-reliability",
    ],
)
def test_simulate_rejects_bad_spec(tmp_path, capsys, overrides):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc(feasible_doc(), **overrides)))
    code = main(["simulate", str(spec_path), "--out", str(tmp_path / "o"), "--workers", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "schedule, flags",
    [
        ({"kind": "fixed", "gamma0": 1.5}, ["--gamma0", "0.01"]),
        ({"kind": "fixed", "gamma0": 1.5}, ["--gamma-increment", "0.5"]),
        ({"kind": "annealed"}, ["--gamma0", "0.01"]),
        ({"kind": "annealed"}, ["--gamma-increment", "0.5"]),
        ({"kind": "infinite"}, ["--gamma0", "0.01"]),
        ({"kind": "infinite"}, ["--gamma0", "0.01", "--gamma-increment", "0.5"]),
    ],
    ids=["fixed-gamma0", "fixed-increment", "annealed-gamma0", "annealed-increment",
         "infinite-gamma0", "infinite-both"],
)
def test_simulate_gamma_overrides_change_runs(tmp_path, schedule, flags):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc(feasible_doc(), schedule=schedule)))
    base = ["simulate", str(spec_path), "--workers", "1", "--out"]
    assert main(base + [str(tmp_path / "plain")]) == 0
    assert main(base + [str(tmp_path / "over")] + flags) == 0
    runs = [(tmp_path / d / "runs.csv").read_text() for d in ("plain", "over")]
    assert runs[0] != runs[1]
    summary = json.loads((tmp_path / "over" / "summary.json").read_text())
    for flag, value in zip(flags[::2], flags[1::2]):
        key = "gamma0" if flag == "--gamma0" else "increment"
        assert summary["schedule"][key] == float(value)


def test_simulate_increment_flag_needs_no_reliability(tmp_path):
    # Only the default increment reads the reliabilities; the flag replaces it.
    instance = dict(feasible_doc(), **{"lambda": 0.0})
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc(instance, schedule={"kind": "annealed"})))
    out = tmp_path / "o"
    assert main(["simulate", str(spec_path), "--out", str(out), "--workers", "1",
                 "--gamma-increment", "0.5"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schedule"] == {"gamma0": 1.0, "increment": 0.5}


def test_simulate_rejects_increment_on_infinite_gamma(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc(feasible_doc(), schedule={"kind": "infinite"})))
    code = main(["simulate", str(spec_path), "--out", str(tmp_path / "o"), "--workers", "1",
                 "--gamma-increment", "0.5"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o").exists()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize(
    "schedule, in_force",
    [
        ({"kind": "infinite"}, {"gamma0": "inf", "increment": 0.0}),
        ({"kind": "fixed", "gamma0": 1.5}, {"gamma0": 1.5, "increment": 0.0}),
        ({"kind": "annealed"}, {"gamma0": 1.0, "increment": 1.0 / 80.0}),
    ],
    ids=["infinite", "fixed", "annealed-default"],
)
def test_simulate_summary_records_schedule_in_force(tmp_path, schedule, in_force):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc(feasible_doc(), schedule=schedule, replications=1)))
    out = tmp_path / "o"
    assert main(["simulate", str(spec_path), "--out", str(out), "--workers", "1"]) == 0
    text = (out / "summary.json").read_text()
    summary = json.loads(text, parse_constant=_reject_constant)
    assert summary["schedule"] == in_force


def test_simulate_unwritable_out_exits_one(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc(feasible_doc(), replications=1)))
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = main(["simulate", str(spec_path), "--out", str(blocker / "o"), "--workers", "1"])
    assert code == 1
    assert_one_error_line(capsys.readouterr())


def test_simulate_uses_env_output_dir(tmp_path, monkeypatch):
    spec = spec_doc(feasible_doc(), replications=1)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    monkeypatch.setenv("P2PSTORAGE_OUT", str(tmp_path / "from_env"))
    monkeypatch.chdir(tmp_path)
    main(["simulate", str(spec_path), "--workers", "1"])
    assert (tmp_path / "from_env" / "summary.json").exists()


def test_load_experiment_spec_rejects_unknown_keys(tmp_path):
    spec = spec_doc(feasible_doc())
    spec["typo_key"] = 1
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with pytest.raises(ValueError, match="unknown spec keys"):
        load_experiment_spec(spec_path)


def test_load_experiment_spec_instance_by_path(tmp_path):
    inst_path = write_instance(tmp_path, "inst.json", feasible_doc())
    spec = spec_doc({"path": "inst.json"})
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    loaded = load_experiment_spec(spec_path)
    assert loaded["instance"].n == 4


# ------------------------------------------------------------------ verify


def test_verify_desk_instance_passes(tmp_path, capsys):
    doc = {
        "generator": {"kind": "complete", "n": 3},
        "alpha": 1,
        "beta": 2,
        "lambda": [0.5, 0.8, 0.6],
    }
    path = write_instance(tmp_path, "desk.json", doc)
    code = main(["verify", str(path), "--gamma", "1.0", "--empirical-steps", "20000",
                 "--empirical-tol", "0.08"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS  detailed balance" in out
    assert "PASS  stationarity" in out
    assert "PASS  ergodicity" in out
    assert "PASS  empirical occupancy" in out


@pytest.mark.parametrize("flags", [[], ["--empirical-steps", "2000", "--empirical-tol", "1"]],
                         ids=["exact", "empirical"])
def test_verify_reports_kernel_size_and_stage_seconds(tmp_path, capsys, flags):
    doc = {"generator": {"kind": "complete", "n": 3}, "alpha": 1, "beta": 2, "lambda": 1.0}
    path = write_instance(tmp_path, "desk.json", doc)
    assert main(["verify", str(path), "--gamma", "1.0"] + flags) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    # Eight states; from each, three units may each move their atom to the
    # other out-neighbour (always room) or stay: 8 * (1 + 3) entries.
    assert payload["num_states"] == 8
    assert payload["kernel_nnz"] == 32
    stages = {"enumerate", "kernel", "stationary", "balance", "residual", "connectivity"}
    assert set(payload["seconds"]) == stages | ({"empirical"} if flags else set())
    assert all(value >= 0 for value in payload["seconds"].values())


@pytest.mark.parametrize("flags", [[], ["--empirical-steps", "2000", "--empirical-tol", "1"]],
                         ids=["exact", "empirical"])
def test_verify_checks_strictness_once(tmp_path, capsys, monkeypatch, flags):
    calls = []

    def counted(inst):
        calls.append(inst)
        return check_strict(inst)

    monkeypatch.setattr(feasibility, "check_strict", counted)
    doc = {"generator": {"kind": "complete", "n": 3}, "alpha": 1, "beta": 2, "lambda": 1.0}
    path = write_instance(tmp_path, "desk.json", doc)
    assert main(["verify", str(path), "--gamma", "1.0"] + flags) == 0
    assert len(calls) == 1


def test_verify_skips_ergodicity_without_strictness(tmp_path, capsys):
    doc = {
        "generator": {"kind": "complete", "n": 3},
        "alpha": 1,
        "beta": 1,
        "lambda": [0.5, 0.8, 0.6],
    }
    path = write_instance(tmp_path, "tight.json", doc)
    code = main(["verify", str(path), "--gamma", "1.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "skipped" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["strict"] is False


def test_verify_best_response_absorption(tmp_path, capsys):
    # four-user chain with a dominant middle resource: pure best response
    # gets absorbed short of completion in some runs
    doc = {
        "n": 4,
        "edges": [[0, 1], [1, 0], [1, 2], [2, 1], [2, 3], [3, 2]],
        "alpha": 1,
        "beta": 1,
        "lambda": [1.0, 3.0, 1.0, 1.0],
    }
    path = write_instance(tmp_path, "chain.json", doc)
    code = main(["verify", str(path), "--gamma", "inf"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out[out.index("{"):])
    probe = payload["best_response_absorption"]
    assert probe["incomplete"] > 0
    assert probe["incomplete"] < probe["trials"]


def test_verify_failed_property_exits_two(tmp_path, capsys):
    doc = {
        "generator": {"kind": "complete", "n": 3},
        "alpha": 1,
        "beta": 2,
        "lambda": [0.5, 0.8, 0.6],
    }
    path = write_instance(tmp_path, "desk.json", doc)
    # an absurd empirical tolerance cannot be met by a short sample
    code = main(["verify", str(path), "--gamma", "1.0", "--empirical-steps", "200",
                 "--empirical-tol", "1e-6"])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAIL  empirical occupancy" in out


def test_verify_rejects_oversized_state_space(tmp_path, capsys):
    doc = {
        "generator": {"kind": "complete", "n": 12},
        "alpha": 10,
        "beta": 20,
        "lambda": 1.0,
    }
    path = write_instance(tmp_path, "huge.json", doc)
    assert main(["verify", str(path), "--gamma", "1.0"]) == 1
    assert "exceeds" in capsys.readouterr().err


def test_verify_without_full_state_exits_one(tmp_path, capsys):
    # Two atoms per unit, one slot per unit: no state places every atom.
    doc = {"generator": {"kind": "complete", "n": 3}, "alpha": 2, "beta": 1, "lambda": 1.0}
    path = write_instance(tmp_path, "infeasible.json", doc)
    assert main(["verify", str(path), "--gamma", "1.0"]) == 1
    assert_one_error_line(capsys.readouterr())
    # The best-response probe needs no full state.
    assert main(["verify", str(path), "--gamma", "inf"]) == 0
    out = capsys.readouterr().out
    probe = json.loads(out[out.index("{"):])["best_response_absorption"]
    assert probe["incomplete"] == probe["trials"]


def test_verify_long_directed_ring_exits_zero(tmp_path, capsys):
    n = 400
    doc = {
        "n": n,
        "edges": [[x, (x + 1) % n] for x in range(n)],
        "alpha": 1,
        "beta": 1,
        "lambda": 1.0,
    }
    path = write_instance(tmp_path, "ring.json", doc)
    assert main(["verify", str(path), "--gamma", "1.0"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{"):])["num_states"] == 1


def test_verify_rejects_demand_beyond_int64(tmp_path, capsys):
    doc = {"n": 2, "edges": [[0, 1]], "alpha": [10**20, 0], "beta": [0, 10**20], "lambda": 1.0}
    path = write_instance(tmp_path, "huge.json", doc)
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert str(10**20) in captured.err


def test_verify_takes_demand_within_int64(tmp_path, capsys):
    doc = {"n": 2, "edges": [[0, 1]], "alpha": [5 * 10**9, 0], "beta": [0, 5 * 10**9],
           "lambda": 1.0}
    path = write_instance(tmp_path, "large.json", doc)
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{"):])["num_states"] == 1


def test_verify_without_demand_exits_one(tmp_path, capsys):
    doc = {"n": 2, "edges": [[0, 1], [1, 0]], "alpha": 0, "beta": 1, "lambda": 1.0}
    path = write_instance(tmp_path, "idle.json", doc)
    assert main(["verify", str(path), "--empirical-steps", "10"]) == 1
    assert_one_error_line(capsys.readouterr())


def test_verify_prints_no_python_warnings(tmp_path):
    # K3 with one slot per unit is not strict and its chain never moves, so
    # both the stationary law and the sampler would warn.  The verdicts
    # carry that information; stderr stays clean.
    doc = {"generator": {"kind": "complete", "n": 3}, "alpha": 1, "beta": 1, "lambda": 1.0}
    path = write_instance(tmp_path, "k3.json", doc)
    env = dict(os.environ, PYTHONPATH=str(Path(p2pstorage.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from p2pstorage.cli import main; sys.exit(main())",
         "verify", str(path), "--empirical-steps", "2000", "--empirical-tol", "0.5"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 2
    assert "Warning" not in proc.stderr
    assert "1 of 2 states never visited" in proc.stdout


@pytest.mark.parametrize("gamma", ["abc", "nan", "-1", "0"])
def test_verify_rejects_bad_gamma(tmp_path, capsys, gamma):
    path = write_instance(tmp_path, "desk.json", feasible_doc())
    assert main(["verify", str(path), "--gamma", gamma]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags",
    [
        ["--gamma", "1.0", "--empirical-steps", "-5"],
        ["--gamma", "1.0", "--empirical-steps", "200", "--empirical-tol", "nan"],
        ["--gamma", "1.0", "--empirical-steps", "200", "--empirical-tol", "0"],
        ["--gamma", "1.0", "--empirical-steps", "200", "--empirical-tol", "-0.1"],
        ["--gamma", "inf", "--empirical-steps", "200"],
    ],
    ids=["negative-steps", "nan-tol", "zero-tol", "negative-tol", "steps-with-infinite-gamma"],
)
def test_verify_rejects_bad_empirical_flags(tmp_path, capsys, flags):
    doc = {"generator": {"kind": "complete", "n": 3}, "alpha": 1, "beta": 2, "lambda": 1.0}
    path = write_instance(tmp_path, "desk.json", doc)
    assert main(["verify", str(path)] + flags) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("gamma", ["inf", "2.5"])
def test_verify_accepts_positive_gamma(tmp_path, capsys, gamma):
    doc = {"generator": {"kind": "complete", "n": 3}, "alpha": 1, "beta": 2, "lambda": 1.0}
    path = write_instance(tmp_path, "desk.json", doc)
    assert main(["verify", str(path), "--gamma", gamma]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["gamma"] == ("inf" if gamma == "inf" else 2.5)


# --------------------------------------------------------------- reproduce


@pytest.mark.parametrize("replications", ["-1", "0"])
def test_reproduce_rejects_nonpositive_replications(tmp_path, capsys, replications):
    out = tmp_path / "rep"
    code = main(["reproduce", "1", "--replications", replications, "--out", str(out),
                 "--workers", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""
    assert not out.exists()


def test_reproduce_smoke_table_one(tmp_path, capsys):
    out = tmp_path / "rep"
    code = main(["reproduce", "1", "--replications", "2", "--out", str(out),
                 "--workers", "1"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "k_a=0" in printed
    payload = json.loads((out / "table1.json").read_text())
    cells = payload["columns"]["k_a=0"]["cells"]
    assert cells["lambda_mean"]["reference"] == pytest.approx(0.6667)
    assert cells["lambda_mean"]["simulated"] == pytest.approx(0.6667, abs=0.01)
    assert payload["columns"]["k_a=0"]["completed_runs"] == 2


def test_simulate_and_reproduce_share_one_pipeline(tmp_path, capsys):
    # simulate on a spec equal to table 3's column scores the same runs as
    # reproduce 3: every simulated cell is the summary's aggregate mean.
    [preset] = benchmarks.table_presets(3)
    spec = {
        "instance": instance_to_dict(preset.instance),
        "params": {"k_c": preset.params.k_c, "k_a": preset.params.k_a},
        "schedule": {"kind": "fixed", "gamma0": benchmarks.AGGREGATED_GAMMA},
        "variant": "allocate-first",
        "horizon": "2*sum_alpha",
        "replications": 2,
        "seed": 3000,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["simulate", str(spec_path), "--out", str(tmp_path / "sim"),
                 "--workers", "1"]) == 0
    assert main(["reproduce", "3", "--replications", "2", "--workers", "1",
                 "--out", str(tmp_path / "rep")]) == 0
    capsys.readouterr()
    aggregate = json.loads((tmp_path / "sim" / "summary.json").read_text())["aggregate"]
    column = json.loads((tmp_path / "rep" / "table3.json").read_text())["columns"]["mixed alpha"]
    assert column["replications"] == 2
    for metric, cell in column["cells"].items():
        assert cell["simulated"] == aggregate[metric]["mean"], metric


def test_reproduce_rejects_workers_below_one(tmp_path, capsys):
    out = tmp_path / "rep"
    code = main(["reproduce", "3", "--replications", "1", "--out", str(out),
                 "--workers", "0"])
    assert code == 1
    assert_one_error_line(capsys.readouterr())
    assert not out.exists()


# ------------------------------------------------------------------- usage


@pytest.mark.parametrize(
    "argv",
    [["check"], ["reproduce", "7"], ["verify", "--k-c", "abc", "x.json"]],
    ids=["check-without-file", "unknown-table", "bad-float"],
)
def test_usage_errors_exit_one(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_repeated_main_calls_stay_independent(tmp_path, capsys, monkeypatch):
    # One parser serves every call in a process; no call leaks into the next.
    from p2pstorage import cli

    seeds = []

    def probe(inst, params, trials, seed):
        seeds.append(seed)
        return {"trials": trials, "incomplete": 0, "fraction": 0.0}

    monkeypatch.setattr(cli, "_verify_absorption", probe)
    path = write_instance(tmp_path, "ok.json", feasible_doc())
    assert main(["verify", str(path), "--gamma", "inf", "--seed", "5"]) == 0
    assert main(["verify", str(path), "--gamma", "inf"]) == 0
    assert seeds == [5, 0]
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--k-c", "abc", str(path)])
    assert excinfo.value.code == 1
    capsys.readouterr()
    assert main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["strict"] is True
    assert cli._parser() is cli._parser()
