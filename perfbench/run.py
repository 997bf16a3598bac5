"""Benchmark of the p2pstorage command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reproduce-dense --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed``; the program sees only
the generated files and flags, through ``p2pstorage.cli.main`` in this
process.  Set-up (importing the package and generating the inputs) is
repeated SETUP_REPEATS times and reported as a median.  Passes of the
workload then repeat until ``--seconds`` have gone by; each pass is
checked for correctness.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` alternates plain and traced passes and reports per-layer
metrics of the traced ones; the difference between the two kinds of pass
is ``trace.overhead_s``.  The last line of standard output is one JSON
object; a fuller record, with machine details and input fingerprints, goes
to ``perfbench/out/``, and the spans of the last traced pass to a gzipped
CSV beside it.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # the benchmark leaves no files in the source tree

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "p2pstorage"
SETUP_REPEATS = 15


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("src_lines"):
        return "lines"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def import_package():
    """Import the package afresh and return its layer modules by name."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    root = importlib.import_module(PACKAGE)
    layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in spans.LAYERS}
    return root, layers


class Package:
    """The layer modules of one import, as attributes (``pkg.cli``)."""

    def __init__(self, root, layers: dict) -> None:
        self.root = root
        self.layers = layers
        self.__dict__.update(layers)

    def tracer(self) -> spans.Tracer:
        return spans.Tracer(self.layers, [self.root, *self.layers.values()])


def setup(workload, seed: int, workdir: Path, probe=None):
    """Repeat import plus input generation; return the last set, the times,
    and the speed probe's samples taken meanwhile."""
    import_package()  # loads numpy and the stdlib modules untimed
    # With no cached bytecode every repeat compiles the package from source,
    # the same on the first run in a fresh checkout as on later ones.
    sys.pycache_prefix = str(workdir / "pycache")
    first = len(probe.samples) if probe else 0
    times = []
    for _ in range(SETUP_REPEATS):
        inputs_dir = workdir / "inputs"
        shutil.rmtree(inputs_dir, ignore_errors=True)
        inputs_dir.mkdir(parents=True)
        probe_busy = probe.busy if probe else 0.0
        start = time.perf_counter()
        pkg = Package(*import_package())
        inputs = workload.generate(seed, inputs_dir, pkg)
        elapsed = time.perf_counter() - start
        times.append(elapsed - (probe.busy - probe_busy if probe else 0.0))
    return pkg, inputs, times, probe.samples[first:] if probe else []


def op_breakdown(labels: list[str], starts: list[int], trace: list[list]) -> dict:
    """Calls into each layer function, grouped by operation label."""
    ends = starts[1:] + [len(trace)]
    grouped: dict[str, dict] = {}
    for label, lo, hi in zip(labels, starts, ends):
        entry = grouped.setdefault(label, {"ops": 0, "calls": {}})
        entry["ops"] += 1
        for name, count in spans.call_counts(trace[lo:hi]).items():
            entry["calls"][name] = entry["calls"].get(name, 0) + count
    return grouped


def measure(workload, pkg, inputs, seconds: float, traced: bool, probe=None) -> dict:
    """Run passes until ``seconds`` have gone by (alternating plain and
    traced passes when ``traced``) and check every pass."""
    violates = pkg.feasibility.witness_violates
    plain_walls, scaled_walls, traced_walls, layer_passes = [], [], [], []
    attempted, failures = 0, []
    breakdown, last_spans = {}, []
    start = time.perf_counter()
    trace_next = False
    while True:
        if trace_next:
            tracer = pkg.tracer()
            labels, starts = [], []

            def mark(op):
                labels.append(op.label)
                starts.append(len(tracer.spans))

            with tracer:
                outcomes = workloads.run_pass(pkg, inputs, on_op=mark)
            wall = sum(o.seconds for o in outcomes)
            traced_walls.append(wall)
            metrics = spans.summarize(tracer.spans)
            metrics["trace.accounted_frac"] = (
                sum(spans.self_times(tracer.spans)) / wall if wall > 0 else 0.0
            )
            layer_passes.append(metrics)
            breakdown = op_breakdown(labels, starts, tracer.spans)
            last_spans = tracer.spans
        else:
            first = len(probe.samples) if probe else 0
            outcomes = workloads.run_pass(pkg, inputs, probe=probe)
            wall = sum(o.seconds for o in outcomes)
            plain_walls.append(wall)
            if probe:
                # Scaled by the host speed sampled during this pass.
                scaled_walls.append(probe.scale(wall, probe.samples[first:]))
        count, problems = workload.check(inputs, outcomes, violates)
        del outcomes
        gc.collect()  # each pass starts from the same heap, for a steady peak RSS
        attempted += count
        failures += problems
        done = time.perf_counter() - start >= seconds
        if done and (not traced or traced_walls):
            break
        if traced:
            trace_next = not trace_next
    return {
        "plain_walls": plain_walls,
        "scaled_walls": scaled_walls,
        "traced_walls": traced_walls,
        "layer_passes": layer_passes,
        "attempted": attempted,
        "failures": failures,
        "breakdown": breakdown,
        "spans": last_spans,
    }


def src_lines() -> dict[str, int]:
    return {
        f"{layer}.src_lines": len((SRC / PACKAGE / f"{layer}.py").read_text().splitlines())
        for layer in spans.LAYERS
    }


def git_state() -> dict:
    """Commit and dirty flag when ROOT is the top of a git work tree."""
    # The ceiling keeps git from searching directories above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*args):
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, env=env)
        return done.stdout.strip() if done.returncode == 0 else None

    try:
        top = git("rev-parse", "--show-toplevel")
        if top is None or Path(top).resolve() != ROOT:
            return {"git_commit": None, "git_dirty": None}
        return {"git_commit": git("rev-parse", "HEAD"),
                "git_dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return {"git_commit": None, "git_dirty": None}


def machine() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        **git_state(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    # End-to-end times are scaled by the speed probe; traced runs go unprobed
    # so that the probe's time lands in no span.
    probe = None if args.trace else speed.SpeedProbe()
    try:
        with probe or contextlib.nullcontext():
            pkg, inputs, setup_times, setup_samples = setup(workload, args.seed, workdir, probe)
            run = measure(workload, pkg, inputs, args.seconds, bool(args.trace), probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            passes = run["layer_passes"]
            values = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
            values["trace.overhead_s"] = (
                statistics.median(run["traced_walls"]) - statistics.median(run["plain_walls"])
            )
            values.update(src_lines())
        else:
            values = {
                "wall_s": statistics.median(run["scaled_walls"]),
                "setup_s": probe.scale(statistics.median(setup_times), setup_samples),
                "peak_rss_mb": peak_rss_mb,
            }
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
        failed = len(run["failures"])
        result = {
            "correct": failed == 0 and run["attempted"] > 0,
            "attempted": run["attempted"],
            "failed": failed,
            "metrics": metrics,
        }
        OUT.mkdir(exist_ok=True)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "result": result,
            "setup_times_s": setup_times,
            "plain_walls_s": run["plain_walls"],
            "scaled_walls_s": run["scaled_walls"],
            "traced_walls_s": run["traced_walls"],
            "probe_kernel_s": probe.samples if probe else None,
            "failures": run["failures"][:50],
            "commands": [op.argv for op in inputs.ops if op.argv],
            "fingerprints": workload.fingerprints(inputs, pkg),
            "operations": run["breakdown"],
            "machine": machine(),
        }
        (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        if run["spans"]:
            spans.write_spans(OUT / f"{tag}-spans.csv.gz", run["spans"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in run["failures"][:20]:
        print(f"FAILED  {message}")
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"record: {(OUT / f'{tag}.json').relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
