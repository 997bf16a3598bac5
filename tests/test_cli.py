import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

import p2pstorage
from p2pstorage import analysis, benchmarks, cli, dynamics, feasibility
from p2pstorage.cli import evaluate_horizon, load_experiment_spec, main
from p2pstorage.dynamics import GammaSchedule, SimConfig
from p2pstorage.feasibility import check_strict
from p2pstorage.game import GameParams
from p2pstorage.topology import (
    Instance,
    Topology,
    build_complete,
    build_line,
    instance_from_dict,
    instance_to_dict,
)


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


def line4_doc():
    # Criterion 7's four-unit chain with a dominant middle resource.
    return {
        "n": 4,
        "edges": [[0, 1], [1, 0], [1, 2], [2, 1], [2, 3], [3, 2]],
        "alpha": 1,
        "beta": 1,
        "lambda": [1.0, 3.0, 1.0, 1.0],
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


def test_horizon_expression_with_unary_minus():
    inst = Instance(build_complete(3), (2, 3, 4), (9, 9, 9), (1.0,) * 3)
    assert evaluate_horizon("-n + 3*n", inst) == 6
    assert evaluate_horizon("-(-sum_alpha)", inst) == 9


def test_horizon_expression_rejects_bad_input(tmp_path, capsys, monkeypatch):
    inst = Instance(build_complete(2), (1, 1), (2, 2), (1.0, 1.0))
    with pytest.raises(ValueError):
        evaluate_horizon("__import__('os')", inst)
    with pytest.raises(ValueError):
        evaluate_horizon("alpha", inst)
    with pytest.raises(ValueError):
        evaluate_horizon("True*n", inst)
    # What an expression evaluates to is SimConfig's to check, before any run.
    runs = _count_runs(monkeypatch)
    for horizon in ("sum_alpha - 100", True):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_doc(feasible_doc(), horizon=horizon)))
        code = main(["simulate", str(spec_path), "--out", str(tmp_path / "o"), "--workers", "1"])
        assert code == 1
        assert_one_error_line(capsys.readouterr())
    assert runs == []
    assert not (tmp_path / "o").exists()


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
    solve, calls = feasibility._Transport, []

    def counted(inst):
        calls.append(inst)
        return solve(inst)

    monkeypatch.setattr(feasibility, "_Transport", counted)
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


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"generator": {"kind": "ring", "n": 3}, "alpha": 1, "beta": 1, "lambda": 1.0},
         "unknown generator kind: 'ring'"),
        ({"generator": {"kind": "complete", "n": 3}, "alpha": 1, "lambda": 1.0},
         "missing required key 'beta'"),
    ],
    ids=["unknown-generator-kind", "missing-beta"],
)
def test_check_names_the_instance_error(tmp_path, capsys, doc, message):
    path = write_instance(tmp_path, "bad.json", doc)
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert captured.err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("edges", [[[0, 1, 2]], [5], [[0]]], ids=["triple", "number", "single"])
def test_check_edge_entry_not_a_pair_exits_one(tmp_path, capsys, edges):
    doc = {"n": 3, "edges": edges, "alpha": 1, "beta": 1, "lambda": 1.0}
    with pytest.raises(ValueError, match=r"'edges' must be an array of \[x, y\] pairs"):
        instance_from_dict(doc)
    assert main(["check", str(write_instance(tmp_path, "inst.json", doc))]) == 1
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert "[x, y] pairs" in captured.err


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


# Nesting deeper than the JSON parser's recursion limit.
_DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command", ["check", "verify", "simulate"])
def test_over_deep_json_exits_one(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text(_DEEP_JSON)
    flags = ["--out", str(tmp_path / "o"), "--workers", "1"] if command == "simulate" else []
    assert main([command, str(path)] + flags) == 1
    assert_one_error_line(capsys.readouterr())


def test_simulate_spec_naming_over_deep_instance_exits_one(tmp_path, capsys):
    (tmp_path / "deep.json").write_text(_DEEP_JSON)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc({"path": "deep.json"})))
    code = main(["simulate", str(spec_path), "--out", str(tmp_path / "o"), "--workers", "1"])
    assert code == 1
    assert_one_error_line(capsys.readouterr())
    assert not (tmp_path / "o").exists()


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


def test_simulate_parallel_traces_match_serial(tmp_path):
    # The traces come back from the pool workers: every written file is the
    # serial run's, byte for byte.
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc(feasible_doc(), horizon=50)))
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main(["simulate", str(spec_path), "--out", str(out), "--trace", "--workers", workers]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["runs.csv", "summary.json", "trace_0.csv", "trace_1.csv", "trace_2.csv"]
    assert outputs[0] == outputs[1]


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

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc(feasible_doc())))
    out = tmp_path / "o"
    assert main(["simulate", str(spec_path), "--out", str(out), "--workers", workers]) == 0
    assert _RecordingPool.sizes == ([] if size is None else [size])
    main(["simulate", str(spec_path), "--out", str(tmp_path / "serial"), "--workers", "1"])
    assert (out / "runs.csv").read_bytes() == (tmp_path / "serial" / "runs.csv").read_bytes()


class _Trace(list):
    """A move trace that a weak reference can follow."""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_holds_one_trace_at_a_time(tmp_path, monkeypatch, workers):
    # Each trace is written as its run returns: while run r runs, no trace
    # from before run r - 1 is alive.  Two workers go through the recording
    # pool, whose map runs lazily in this process.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    refs, alive = [], []
    run_record = benchmarks.run_record

    def traced(config):
        alive.append([r for r, ref in enumerate(refs) if ref() is not None])
        trace, record = run_record(config)
        trace = _Trace(trace)
        refs.append(weakref.ref(trace))
        return trace, record

    monkeypatch.setattr(benchmarks, "run_record", traced)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc(feasible_doc(), replications=4, horizon=50)))
    out = tmp_path / "o"
    assert main(["simulate", str(spec_path), "--out", str(out), "--trace", "--workers", workers]) == 0
    assert alive == [[], [0], [1], [2]]
    assert _RecordingPool.sizes == ([] if workers == "1" else [2])
    assert sorted(p.name for p in out.glob("trace_*.csv")) == [f"trace_{r}.csv" for r in range(4)]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_trace_that_cannot_be_written_exits_one(tmp_path, capsys, monkeypatch, workers):
    # Run 1's trace file is a directory: the error stops the stream with one
    # error line, and a pool of two workers is joined, leaving no child.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    out = tmp_path / "o"
    (out / "trace_1.csv").mkdir(parents=True)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc(feasible_doc(), horizon=50)))
    code = main(["simulate", str(spec_path), "--out", str(out), "--trace", "--workers", workers])
    assert code == 1
    assert multiprocessing.active_children() == []
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert "trace_1.csv" in captured.err
    assert (out / "trace_0.csv").is_file()
    assert not (out / "runs.csv").exists()


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


def _count_runs(monkeypatch) -> list:
    """The configs ``benchmarks.run_record`` is called with from now on."""
    calls = []
    run_record = benchmarks.run_record
    monkeypatch.setattr(benchmarks, "run_record",
                        lambda config: calls.append(config) or run_record(config))
    return calls


def test_simulate_unwritable_out_exits_one(tmp_path, capsys, monkeypatch):
    # The output directory is made before the runs: none of them is wasted.
    calls = _count_runs(monkeypatch)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc(feasible_doc(), replications=1)))
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = main(["simulate", str(spec_path), "--out", str(blocker / "o"), "--workers", "1"])
    assert code == 1
    assert_one_error_line(capsys.readouterr())
    assert calls == []


def test_simulate_rejects_a_schedule_that_is_not_a_mapping(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc(feasible_doc(), schedule=3)))
    code = main(["simulate", str(spec_path), "--out", str(tmp_path / "o"), "--workers", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert "schedule must be a mapping" in captured.err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["cosine", 3])
def test_simulate_rejects_an_unknown_schedule_kind(tmp_path, kind):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc(feasible_doc(), schedule={"kind": kind})))
    with pytest.raises(ValueError, match="unknown schedule kind"):
        load_experiment_spec(spec_path)


def test_simulate_default_horizon_is_two_moves_per_atom(tmp_path, capsys):
    # A spec without a horizon runs exactly as one that writes 2*sum_alpha.
    outputs = []
    for name, horizon in (("default", None), ("written", "2*sum_alpha")):
        spec = spec_doc(feasible_doc(), horizon=horizon)
        if horizon is None:
            del spec["horizon"]
        spec_path = tmp_path / f"{name}.json"
        spec_path.write_text(json.dumps(spec))
        base, _ = load_experiment_spec(spec_path)
        assert base.horizon == 2 * base.instance.total_alpha
        out = tmp_path / name
        assert main(["simulate", str(spec_path), "--out", str(out), "--workers", "1"]) == 0
        outputs.append(((out / "runs.csv").read_bytes(), (out / "summary.json").read_bytes()))
    capsys.readouterr()
    assert outputs[0] == outputs[1]


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
    assert loaded[0].instance.n == 4


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


@pytest.mark.parametrize("steps", [0, 2000], ids=["exact", "empirical"])
def test_verify_reports_kernel_size_and_stage_seconds(steps):
    doc = {"generator": {"kind": "complete", "n": 3}, "alpha": 1, "beta": 2, "lambda": 1.0}
    report = benchmarks.verify(instance_from_dict(doc), GameParams(1.0, 0.0), 1.0, steps, 1.0)
    # Eight states; from each, three units may each move their atom to the
    # other out-neighbour (always room) or stay: 8 * (1 + 3) entries.
    assert report.fields["num_states"] == 8
    assert report.fields["kernel_nnz"] == 32
    stages = {"enumerate", "kernel", "stationary", "balance", "residual", "connectivity"}
    assert set(report.fields["seconds"]) == stages | ({"empirical"} if steps else set())
    assert all(value >= 0 for value in report.fields["seconds"].values())


def _rendered(report, seconds):
    # What the CLI prints for a report: one line per check, then the JSON
    # fields, the report's stage times swapped for the printed ones.
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({note})" if note else "")
             for name, ok, note in report.checks]
    fields = {**report.fields, "seconds": seconds} if seconds is not None else report.fields
    return "\n".join([*lines, json.dumps(fields, indent=2, sort_keys=True)]) + "\n"


@pytest.mark.parametrize(
    "doc,params,gamma,flags",
    [
        ({"generator": {"kind": "complete", "n": 3}, "alpha": 1, "beta": 2,
          "lambda": [0.5, 0.8, 0.6]}, (1.0, 0.0), 1.0, (2000, 1.0, 0)),
        ({"generator": {"kind": "complete", "n": 3}, "alpha": 1, "beta": 2, "lambda": 1.0},
         (0.0, 0.0), 1.0, (2001, 0.05, 4)),
        (line4_doc(), (1.0, 0.0), math.inf, (0, 0.05, 1)),
        ({"generator": {"kind": "complete", "n": 3}, "alpha": 1, "beta": 1, "lambda": 1.0},
         (1.0, 0.45), 1.0, (0, 0.05, 0)),
    ],
    ids=["desk", "eight-state", "line4", "non-strict"],
)
def test_verify_prints_the_library_report_and_nothing_else(tmp_path, capsys, doc, params, gamma,
                                                           flags):
    steps, tol, seed = flags
    path = write_instance(tmp_path, "inst.json", doc)
    argv = ["verify", str(path), "--k-c", str(params[0]), "--k-a", str(params[1]),
            "--gamma", str(gamma), "--empirical-steps", str(steps), "--empirical-tol", str(tol),
            "--seed", str(seed)]
    code = main(argv)
    out = capsys.readouterr().out
    report = benchmarks.verify(instance_from_dict(doc), GameParams(*params), gamma, steps, tol,
                               seed)
    seconds = _verify_payload(out).get("seconds")
    assert (seconds is None) == ("seconds" not in report.fields)
    assert seconds is None or set(seconds) == set(report.fields["seconds"])
    assert out == _rendered(report, seconds)
    assert code == (0 if all(ok for _, ok, _ in report.checks) else 2)


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
    path = write_instance(tmp_path, "chain.json", line4_doc())
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


def test_verify_empirical_chain_that_does_not_fill_exits_one(tmp_path, capsys):
    # On the line-4 trap at gamma 20, seed 0's chain does not place every
    # atom within the sampler's start-up budget, 50 * total demand steps.
    path = write_instance(tmp_path, "chain.json", line4_doc())
    code = main(["verify", str(path), "--gamma", "20", "--empirical-steps", "10", "--seed", "0"])
    assert code == 1
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert "did not place every atom within 200 steps" in captured.err


def _verify_payload(out):
    return json.loads(out[out.index("{"):])


def _without_seconds(out):
    lines, payload = out[:out.index("{")], _verify_payload(out)
    del payload["seconds"]
    return lines, payload


def test_verify_empirical_output_is_the_same_on_one_core_and_two(tmp_path, capsys, monkeypatch):
    # One core runs both chains in this process, two run them in a pool;
    # the output depends only on the seed.  The pool leaves no child behind.
    doc = {"generator": {"kind": "complete", "n": 3}, "alpha": 1, "beta": 2, "lambda": 1.0}
    path = write_instance(tmp_path, "eight.json", doc)
    outputs = []
    for cores in (1, 2):
        monkeypatch.setattr(cli.os, "cpu_count", lambda cores=cores: cores)
        assert main(["verify", str(path), "--k-c", "0", "--empirical-steps", "20001",
                     "--empirical-tol", "0.05", "--seed", "4"]) == 0
        assert multiprocessing.active_children() == []
        outputs.append(_without_seconds(capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    lines, payload = outputs[0]
    assert "PASS  empirical occupancy  (TV " in lines and "worst of 2 chains" in lines
    chains = payload["empirical_chains"]
    assert [(c["seed"], c["steps"]) for c in chains] == [(4, 10001), (5, 10000)]
    assert payload["empirical_tv"] == max(c["tv"] for c in chains)
    assert all(set(c) == {"seed", "steps", "tv", "unvisited"} for c in chains)


def test_verify_empirical_chain_zero_is_the_single_chain_cut_short(tmp_path, capsys):
    # The horizon does not change the draws: chain 0 of a verify run is the
    # first ceil(steps / 2) steps of the one chain empirical_distribution runs.
    doc = {"generator": {"kind": "complete", "n": 3}, "alpha": 1, "beta": 2, "lambda": 1.0}
    path = write_instance(tmp_path, "eight.json", doc)
    assert main(["verify", str(path), "--empirical-steps", "301", "--empirical-tol", "1",
                 "--seed", "7"]) == 0
    first = _verify_payload(capsys.readouterr().out)["empirical_chains"][0]
    oracle = analysis.enumerate_states(instance_from_dict(doc))
    single = analysis.empirical_distribution(oracle, GameParams(1.0, 0.0), 1.0, 151, seed=7)
    assert (first["seed"], first["steps"], first["tv"]) == (7, 151, single.tv_distance)


@pytest.mark.parametrize("steps,chains", [(1, [(3, 1)]), (2, [(3, 1), (4, 1)]),
                                          (7, [(3, 4), (4, 3)])])
def test_verify_splits_the_empirical_steps_over_two_chains(tmp_path, capsys, steps, chains):
    doc = {"generator": {"kind": "complete", "n": 3}, "alpha": 1, "beta": 2, "lambda": 1.0}
    path = write_instance(tmp_path, "eight.json", doc)
    assert main(["verify", str(path), "--empirical-steps", str(steps), "--empirical-tol", "1",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    payload = _verify_payload(out)
    assert [(c["seed"], c["steps"]) for c in payload["empirical_chains"]] == chains
    assert ("worst of 2 chains" in out) == (len(chains) == 2)


def test_verify_holds_each_chain_to_the_law_on_its_own(tmp_path, capsys, monkeypatch):
    # K3 with one slot per unit has two full states and its chain never
    # moves.  Two chains stuck in different states each read TV 0.5 and
    # fail, although their pooled occupancy matches the law exactly.
    doc = {"generator": {"kind": "complete", "n": 3}, "alpha": 1, "beta": 1, "lambda": 1.0}
    inst = instance_from_dict(doc)
    oracle = analysis.enumerate_states(inst)
    weights, _ = analysis._edge_weights(inst)
    codes = [sum(c * weights[x][y] for x, y, c in key) for key in oracle.states]
    stuck = {0: {codes[0]: 500}, 1: {codes[1]: 500}}
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)  # the stand-in sampler runs here
    monkeypatch.setattr(analysis, "sample_chain",
                        lambda inst, params, gamma, steps, burn_in, seed: stuck[seed])
    path = write_instance(tmp_path, "k3.json", doc)
    assert main(["verify", str(path), "--empirical-steps", "1000", "--empirical-tol", "0.05"]) == 2
    out = capsys.readouterr().out
    assert "FAIL  empirical occupancy  (TV 0.5000" in out
    assert "1 of 2 states never visited" in out
    payload = _verify_payload(out)
    assert [c["tv"] for c in payload["empirical_chains"]] == [0.5, 0.5]
    assert [c["unvisited"] for c in payload["empirical_chains"]] == [1, 1]
    mu = analysis.stationary_exact(oracle, GameParams(1.0, 0.0), 1.0)
    pooled = analysis.tally_frequencies(oracle, {codes[0]: 500, codes[1]: 500})
    assert analysis.total_variation(pooled, mu) == 0.0


def test_verify_chain_that_raises_in_the_pool_exits_one(tmp_path, capsys, monkeypatch):
    # The fill failure of the line-4 trap (below), raised in a pool worker:
    # one error line, and no child left running.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    path = write_instance(tmp_path, "chain.json", line4_doc())
    code = main(["verify", str(path), "--gamma", "20", "--empirical-steps", "10", "--seed", "0"])
    assert code == 1
    assert multiprocessing.active_children() == []
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert "did not place every atom within 200 steps" in captured.err


def test_verify_refuses_a_wide_kernel_before_enumerating(tmp_path, capsys, monkeypatch):
    # Two units, each with two atoms for forty resources: 672,400 states,
    # under the state limit, but about 103 million kernel entries.
    def never(inst):
        raise AssertionError("enumerated")

    monkeypatch.setattr(analysis, "enumerate_states", never)
    resources = range(2, 42)
    doc = {"n": 42, "edges": [[x, y] for x in (0, 1) for y in resources],
           "alpha": [2, 2] + [0] * 40, "beta": 4, "lambda": 1.0}
    path = write_instance(tmp_path, "wide.json", doc)
    assert len(path.read_bytes()) < 1024
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert "kernel estimate of 103008400 entries exceeds" in captured.err


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


def test_verify_unit_with_no_out_neighbour_exits_one_before_enumerating(tmp_path, capsys):
    # Unit 0 stores nowhere, so no state exists; units 1..20 split their
    # atoms about 3.5e15 ways each, which the enumeration must never build.
    units = range(1, 21)
    doc = {
        "n": 21,
        "edges": [[x, y] for x in units for y in units if x != y],
        "alpha": [1] + [40] * 20,
        "beta": [1] + [80] * 20,
        "lambda": 1.0,
    }
    path = write_instance(tmp_path, "stranded.json", doc)
    assert main(["verify", str(path), "--gamma", "1.0"]) == 1
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert "no full allocation state" in captured.err


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


def test_one_process_commands_load_neither_openssl_nor_the_pool(tmp_path):
    # check, a one-worker reproduce and verify without sampling run in a
    # fresh interpreter without hashlib (OpenSSL), the process pool or
    # numpy.ma (which np.unique imports, 1.5 MB of RSS).
    path = write_instance(tmp_path, "desk.json", feasible_doc())
    code = """if True:
        import sys
        from p2pstorage.cli import main
        path, out = sys.argv[1:]
        assert main(["check", path]) == 0
        assert main(["reproduce", "3", "--replications", "1", "--workers", "1", "--out", out]) == 0
        assert main(["verify", path]) == 0
        heavy = ("hashlib", "_hashlib", "concurrent.futures.process", "multiprocessing", "numpy.ma")
        print(sorted(set(heavy) & set(sys.modules)))
    """
    env = dict(os.environ, PYTHONPATH=str(Path(p2pstorage.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_verify_notes_states_the_sampler_never_visited(tmp_path, capsys):
    # 5 sampled steps can reach at most 5 of the eight states.
    doc = {"generator": {"kind": "complete", "n": 3}, "alpha": 1, "beta": 2, "lambda": 1.0}
    path = write_instance(tmp_path, "desk.json", doc)
    assert main(["verify", str(path), "--empirical-steps", "5", "--empirical-tol", "1"]) == 0
    out = capsys.readouterr().out
    line = next(line for line in out.splitlines() if "empirical occupancy" in line)
    assert line.startswith("PASS") and "of 8 states never visited" in line


@pytest.mark.parametrize("gamma", ["abc", "nan", "-1", "0"])
def test_verify_rejects_bad_gamma(tmp_path, capsys, gamma):
    path = write_instance(tmp_path, "desk.json", feasible_doc())
    assert main(["verify", str(path), "--gamma", gamma]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""
    # verify has a --gamma flag and no --gamma0: the message names the former.
    assert "gamma0" not in captured.err
    if gamma != "abc":
        assert captured.err.startswith("error: gamma must be positive (math.inf allowed)")


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


@pytest.mark.parametrize("k_c", ["0", "1"])
@pytest.mark.parametrize("empirical", [[], ["--empirical-steps", "10"]], ids=["exact", "empirical"])
def test_verify_refuses_a_gamma_that_overflows(tmp_path, capsys, k_c, empirical):
    # gamma * potential overflows a float: one error line naming the gamma,
    # no numpy warning (the suite turns warnings into errors) and no NaN.
    doc = {"generator": {"kind": "complete", "n": 3}, "alpha": 1, "beta": 2, "lambda": 1.0}
    path = write_instance(tmp_path, "eight.json", doc)
    assert main(["verify", str(path), "--gamma", "1e308", "--k-c", k_c] + empirical) == 1
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert "1e+308" in captured.err
    assert "NaN" not in captured.out


def test_verify_refuses_a_gamma_whose_kernel_exponents_overflow(tmp_path, capsys):
    # A utility gap of 4 already overflows in the kernel at gamma 1e308.
    doc = {"generator": {"kind": "complete", "n": 3}, "alpha": 1, "beta": 2,
           "lambda": [1.0, 5.0, 1.0]}
    path = write_instance(tmp_path, "gap.json", doc)
    assert main(["verify", str(path), "--gamma", "1e308"]) == 1
    assert_one_error_line(capsys.readouterr())
    assert main(["verify", str(path), "--gamma", "1e305"]) == 0  # large, and in range
    capsys.readouterr()


def probe_instances():
    return {
        # the line-4 trap: greedy units block the reliable middle resource
        "line4": Instance(build_line(4), (1,) * 4, (1,) * 4, (1.0, 3.0, 1.0, 1.0)),
        # unit 2 has demand and no out-neighbour: no run can complete
        "stranded": Instance(Topology(3, {(0, 1), (1, 0)}), (1, 1, 1), (2, 2, 2), (1.0, 2.0, 1.0)),
        "no-demand": Instance(build_line(3), (0,) * 3, (1,) * 3, (1.0,) * 3),
    }


@pytest.mark.parametrize("name", ["line4", "stranded", "no-demand"])
def test_best_response_probe_counts_the_runs_that_run_to_the_horizon(name):
    # The probe stops each run once it completes; it must count exactly the
    # runs that dynamics.run, stepping to the horizon, leaves incomplete.
    inst, params = probe_instances()[name], GameParams(1.0, 0.0)
    horizon = 20 * max(inst.total_alpha, 1)
    seen = {}
    for seed in [1, 1009, 7, *range(100, 117)]:
        base = SimConfig(inst, params, GammaSchedule.infinite(), horizon=horizon, seed=seed)
        stuck = sum(not dynamics.run(c).completed for c in benchmarks.replicate(base, 200))
        probe = benchmarks.verify(inst, params, math.inf, seed=seed).fields[
            "best_response_absorption"]
        assert probe == {"trials": 200, "incomplete": stuck, "fraction": stuck / 200}
        seen[seed] = stuck
    expected = {"line4": (92, 101, 93), "stranded": (200,) * 3, "no-demand": (0,) * 3}[name]
    assert (seen[1], seen[1009], seen[7]) == expected


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


def test_reproduce_writes_the_same_table_from_two_workers_as_from_one(tmp_path, capsys,
                                                                       monkeypatch):
    # The pool path of reproduce: the same table and the same report as the
    # runs in this process, and no child left behind.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    tables, printed = [], []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main(["reproduce", "3", "--replications", "2", "--workers", workers,
                     "--out", str(out)]) == 0
        assert multiprocessing.active_children() == []
        tables.append((out / "table3.json").read_bytes())
        printed.append(capsys.readouterr().out.replace(str(out), "<out>"))
    assert tables[0] == tables[1]
    assert printed[0] == printed[1]


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


def test_reproduce_unwritable_out_exits_before_any_run(tmp_path, capsys, monkeypatch):
    calls = _count_runs(monkeypatch)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = main(["reproduce", "3", "--replications", "4", "--out", str(blocker / "o"),
                 "--workers", "1"])
    assert code == 1
    assert_one_error_line(capsys.readouterr())
    assert calls == []


def test_reproduce_rejects_workers_below_one(tmp_path, capsys):
    out = tmp_path / "rep"
    code = main(["reproduce", "3", "--replications", "1", "--out", str(out),
                 "--workers", "0"])
    assert code == 1
    assert_one_error_line(capsys.readouterr())
    assert not out.exists()


@pytest.mark.parametrize("case", ["spec-seed", "simulate-flag", "reproduce", "verify-probe"])
def test_negative_seed_exits_one_before_any_run(tmp_path, capsys, monkeypatch, case):
    # random.Random seeds by |seed|: seed base -1 would run seeds -1, 0 and 1,
    # the first and the last alike.
    runs = _count_runs(monkeypatch)
    place_all = dynamics.place_all
    monkeypatch.setattr(dynamics, "place_all", lambda *a: runs.append(a) or place_all(*a))
    inst_path = write_instance(tmp_path, "inst.json", feasible_doc())
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc(feasible_doc(), seed=-1 if case == "spec-seed" else 7)))
    out = ["--out", str(tmp_path / "o"), "--workers", "1"]
    argv = {
        "spec-seed": ["simulate", str(spec_path), *out],
        "simulate-flag": ["simulate", str(spec_path), "--seed", "-1", *out],
        "reproduce": ["reproduce", "3", "--replications", "1", "--seed", "-1", *out],
        "verify-probe": ["verify", str(inst_path), "--gamma", "inf", "--seed", "-1"],
    }[case]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert "seed must be nonnegative, got -1" in captured.err
    assert runs == []
    assert not (tmp_path / "o").exists()


_BAD_INPUT_PER_RULE = {
    "negative-horizon": ("spec", {"horizon": "n - 100"}, "horizon must be nonnegative, got -96"),
    "fractional-horizon": ("spec", {"horizon": "n / 3"}, "'horizon' must be an integer, got 1.3"),
    "simulate-zero-replications": ("spec", {"replications": 0},
                                   "replications must be positive, got 0"),
    "reproduce-zero-replications": (["--replications", "0"], None,
                                    "replications must be positive, got 0"),
    "short-lambda": ("spec", {"instance": dict(feasible_doc(), **{"lambda": [0.5] * 3})},
                     "'lambda' must have n=4 entries, got 3"),
    "zero-generator-n": ("spec", {"instance": dict(feasible_doc(), generator={
        "kind": "complete", "n": 0})}, "need at least one unit, got n=0"),
    "bool-hidden-by-repeated-edge": ("spec", {"instance": {
        "n": 2, "edges": [[0, 1], [1, 0], [True, 0]], "alpha": 1, "beta": 1, "lambda": 0.5}},
        "'edges' must be an integer, got True"),
    "reproduce-negative-seed": (["--replications", "1", "--seed", "-1"], None,
                                "seed must be nonnegative, got -1"),
}


@pytest.mark.parametrize("case", _BAD_INPUT_PER_RULE)
def test_each_input_rule_refuses_before_any_run(tmp_path, capsys, monkeypatch, case):
    # One bad input per rule, each refused by the one check of its rule.
    command, overrides, message = _BAD_INPUT_PER_RULE[case]
    runs = _count_runs(monkeypatch)
    out = ["--out", str(tmp_path / "o"), "--workers", "1"]
    if command == "spec":
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_doc(feasible_doc(), **overrides)))
        argv = ["simulate", str(spec_path), *out]
    else:
        argv = ["reproduce", "3", *command, *out]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert_one_error_line(captured)
    assert message in captured.err
    assert runs == []
    assert not (tmp_path / "o").exists()


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

    def verify(inst, params, gamma, empirical_steps, empirical_tol, seed):
        seeds.append(seed)
        return benchmarks.VerifyReport([("best-response probe", True, "")], {"gamma": "inf"})

    monkeypatch.setattr(benchmarks, "verify", verify)
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
