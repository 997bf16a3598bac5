"""Tests of the span tracer: self-time arithmetic and clean removal."""

import io
import json
from contextlib import redirect_stdout

import pytest

import run
import spans


def _span(name, start, end, parent):
    return [name, float(start), float(end), parent, None]


def test_self_time_of_nested_spans():
    trace = [
        _span("cli.main", 0, 10, -1),
        _span("feasibility.check_strict", 1, 6, 0),
        _span("feasibility.check_feasible_flow", 2, 3, 1),
        _span("feasibility.check_feasible_flow", 4, 5, 1),
        _span("topology.load_instance", 7, 9, 0),
    ]
    assert spans.self_times(trace) == [3.0, 3.0, 1.0, 1.0, 2.0]
    metrics = spans.summarize(trace)
    assert metrics["cli.self_s"] == 3.0
    assert metrics["feasibility.self_s"] == 5.0
    assert metrics["topology.self_s"] == 2.0
    assert metrics["feasibility.flow_calls"] == 2
    assert metrics["feasibility.flow_s"] == 2.0
    assert metrics["feasibility.strict_s"] == 5.0
    # Self times partition the root span.
    assert sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS) == 10.0


def test_overlapping_children_are_not_counted_twice():
    trace = [
        _span("analysis.stationary_exact", 0, 10, -1),
        _span("game.potential", 1, 4, 0),
        _span("game.potential", 3, 6, 0),
        _span("game.potential", 8, 12, 0),  # clipped to the parent's end
    ]
    assert spans.self_times(trace)[0] == pytest.approx(10 - 5 - 2)


def _attributes(pkg):
    return {
        (module.__name__, name): value
        for module in [pkg.root, *pkg.layers.values()]
        for name, value in vars(module).items()
    }


def test_traced_call_records_spans_and_restores_every_original(tmp_path):
    pkg = run.Package(*run.import_package())
    path = tmp_path / "line.json"
    path.write_text(json.dumps({
        "n": 3, "edges": [[0, 1], [1, 0], [1, 2], [2, 1]],
        "alpha": 1, "beta": 3, "lambda": 1.0,
    }))
    before = _attributes(pkg)
    tracer = pkg.tracer()
    with tracer, redirect_stdout(io.StringIO()):
        # Bound by "from .topology import load_instance" inside cli.
        assert pkg.cli.load_instance is not before[("p2pstorage.cli", "load_instance")]
        assert pkg.cli.main(["check", str(path)]) == 0
    names = [span[spans.NAME] for span in tracer.spans]
    assert names[0] == "cli.main"
    assert "topology.load_instance" in names
    assert names.count("feasibility.check_feasible_flow") == 1 + 3  # check + strict per unit
    assert all(span[spans.PARENT] >= 0 for span in tracer.spans[1:])
    after = _attributes(pkg)
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
