"""The benchmark's four workloads: seeded inputs, one pass of work through
``p2pstorage.cli.main``, and the correctness gate for each pass.

A workload's ``generate(seed, workdir, pkg)`` writes its input files and
returns the argument lists the program sees; ``run_pass`` executes them
(timing each operation); ``check`` validates the outputs of a pass.  The
same seed gives byte-identical input files.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

REGULAR_DEGREE = 10
CAPACITY = 50
# Demands stay at or below 44 < 50 = capacity, which makes every table-4
# style instance strictly feasible: in a d-regular graph |N(S)| >= |S| and
# |N(S)| >= d, so demand(S) <= 44|S| < 50|N(S)|, even after one resource
# is handed to a single extra unit (see _tight_doc).
ALPHA_RANGE = (35, 44)
RELIABILITY_CLASSES = (0.5, 0.8)
SCALE_UNITS = 300
SMALL_INSTANCES = 40
SMALL_MAX_UNITS = 12
SMALL_MAX_ATOMS = 5
EMPIRICAL_STEPS = 200_000


@dataclass
class Op:
    """One operation of a pass: a CLI call or a direct oracle call."""

    label: str
    argv: list[str] | None = None
    oracle: str | None = None
    instance: object = None


@dataclass
class Inputs:
    ops: list[Op]
    files: dict[str, Path] = field(default_factory=dict)


@dataclass
class Outcome:
    """Raw result of one operation: exit code and output, or a verdict."""

    seconds: float
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    verdict: object = None
    error: str | None = None


def invoke(pkg, op: Op, probe=None) -> Outcome:
    """Run one operation, timing only the call into the program (less any
    time the speed probe took while it ran)."""
    out, err = io.StringIO(), io.StringIO()
    code = verdict = error = None
    probe_busy = probe.busy if probe else 0.0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if op.argv is not None:
                code = pkg.cli.main(op.argv)
            else:
                verdict = getattr(pkg.feasibility, op.oracle)(op.instance)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if probe:
        seconds -= probe.busy - probe_busy
    return Outcome(seconds, code, out.getvalue(), err.getvalue(), verdict, error)


def run_pass(pkg, inputs: Inputs, on_op=None, probe=None) -> list[Outcome]:
    outcomes = []
    for op in inputs.ops:
        if on_op is not None:
            on_op(op)
        outcomes.append(invoke(pkg, op, probe))
    return outcomes


# --------------------------------------------------------------------------
# Input generators (independent of the package under test)


def random_regular_pairs(n: int, d: int, rng: random.Random) -> list[tuple[int, int]]:
    """Undirected simple d-regular graph by random stub pairing, restarted
    when the last stubs cannot be paired."""
    if (n * d) % 2 or d >= n:
        raise ValueError(f"no simple {d}-regular graph on {n} nodes")
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        pairs: set[tuple[int, int]] = set()
        while stubs:
            for _ in range(100):
                i, j = rng.randrange(len(stubs)), rng.randrange(len(stubs))
                a, b = sorted((stubs[i], stubs[j]))
                if a != b and (a, b) not in pairs:
                    break
            else:
                break
            pairs.add((a, b))
            for k in sorted((i, j), reverse=True):
                stubs[k] = stubs[-1]
                stubs.pop()
        if not stubs:
            return sorted(pairs)


def _symmetric(pairs) -> list[list[int]]:
    return sorted([[a, b] for a, b in pairs] + [[b, a] for a, b in pairs])


def _table4_doc(n: int, rng: random.Random) -> dict:
    """Random 10-regular instance in the style of table 4: capacity 50,
    two reliability classes of equal size, demands drawn from ALPHA_RANGE."""
    low, high = RELIABILITY_CLASSES
    classes = [low] * (n // 2) + [high] * (n - n // 2)
    rng.shuffle(classes)
    return {
        "n": n,
        "edges": _symmetric(random_regular_pairs(n, REGULAR_DEGREE, rng)),
        "alpha": [rng.randint(*ALPHA_RANGE) for _ in range(n)],
        "beta": CAPACITY,
        "lambda": classes,
    }


def _tight_doc(n: int, rng: random.Random) -> dict:
    """Feasible, but the strict condition fails only through unit n-1.

    Units 0..n-2 form a table-4 instance; unit n-1 stores only into one
    resource r and needs exactly r's capacity, so {n-1} is tight.  Any set
    with another unit keeps strict slack (demand <= 50 + 44|S'| <
    50|N(S')|), so the per-unit strict loop fails at its last unit.
    """
    doc = _table4_doc(n - 1, rng)
    r = rng.randrange(n - 1)
    doc["n"] = n
    doc["edges"] = sorted(doc["edges"] + [[n - 1, r]])
    doc["alpha"].append(CAPACITY)
    doc["beta"] = [CAPACITY] * n
    doc["lambda"].append(RELIABILITY_CLASSES[1])
    return doc


def _infeasible_doc(n: int, rng: random.Random) -> dict:
    """Table-4 instance where one unit needs one atom more than its ten
    neighbors can hold."""
    doc = _table4_doc(n, rng)
    u = rng.randrange(n)
    doc["alpha"][u] = REGULAR_DEGREE * CAPACITY + 1
    return doc


def _small_doc(rng: random.Random) -> dict:
    """Criterion-1 style random instance: any density, demands and
    capacities in 0..SMALL_MAX_ATOMS."""
    n = rng.randint(1, SMALL_MAX_UNITS)
    p = rng.uniform(0.1, 0.9)
    edges = [[x, y] for x in range(n) for y in range(n) if x != y and rng.random() < p]
    return {
        "n": n,
        "edges": edges,
        "alpha": [rng.randint(0, SMALL_MAX_ATOMS) for _ in range(n)],
        "beta": [rng.randint(0, SMALL_MAX_ATOMS) for _ in range(n)],
        "lambda": [round(rng.uniform(0.1, 1.0), 3) for _ in range(n)],
    }


def _complete_edges(n: int) -> list[list[int]]:
    return [[x, y] for x in range(n) for y in range(n) if x != y]


def _write(workdir: Path, name: str, doc: dict) -> Path:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return path


# --------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""

    def generate(self, seed: int, workdir: Path, pkg) -> Inputs:
        raise NotImplementedError

    def check(self, inputs: Inputs, outcomes: list[Outcome], violates) -> tuple[int, list[str]]:
        """(operations attempted, failure messages) for one pass.

        ``violates`` is the package's ``witness_violates``, bound before
        any tracing so that checking adds no spans.
        """
        raise NotImplementedError

    def fingerprints(self, inputs: Inputs, pkg) -> dict[str, str]:
        """``Instance.fingerprint()`` of every input instance."""
        return {
            name: pkg.topology.load_instance(path).fingerprint()
            for name, path in inputs.files.items()
        }


def _exit_problem(op: Op, out: Outcome, expected: int) -> str | None:
    if out.error is not None:
        return f"{op.label}: raised {out.error}"
    if out.code != expected:
        return f"{op.label}: exit code {out.code}, expected {expected}"
    return None


def out_path(op: Op) -> str:
    return Path(op.argv[1]).name if op.argv else op.label


class Reproduce(Workload):
    """``reproduce <table> --workers 1`` with a per-pass correctness band."""

    def __init__(self, name: str, table: int) -> None:
        self.name = name
        self.table = table

    def generate(self, seed, workdir, pkg):
        out = workdir / "results"
        out.mkdir(parents=True, exist_ok=True)
        argv = ["reproduce", str(self.table), "--workers", "1", "--seed", str(seed),
                "--out", str(out)]
        return Inputs([Op(f"reproduce {self.table}", argv=argv)],
                      files={"result": out / f"table{self.table}.json"})

    def fingerprints(self, inputs, pkg):
        # The presets are the program's own; the seed only picks the runs.
        return {
            f"table{self.table} {p.column}": p.instance.fingerprint()
            for p in pkg.benchmarks.table_presets(self.table)
        }

    def check(self, inputs, outcomes, violates):
        (op,), (out,) = inputs.ops, outcomes
        problem = _exit_problem(op, out, 0)
        if problem:
            return 1, [problem]
        result = inputs.files["result"]
        table = json.loads(result.read_text())
        result.unlink()  # the next pass must write its own
        columns = table["columns"]
        # Every simulated run is one operation; so is the command itself.
        attempted = 1 + sum(col["replications"] for col in columns.values())
        failures = [
            f"{label}: a run did not complete"
            for label, col in columns.items()
            for _ in range(col["replications"] - col["completed_runs"])
        ]
        failures += [f"{op.label}: {msg}" for msg in self.bands(columns)]
        return attempted, failures

    def bands(self, columns) -> list[str]:
        def sim(column, metric):
            return columns[column]["cells"][metric]["simulated"]

        problems = []
        if self.table == 1:
            # Acceptance criterion 8, complete-graph congestion-only column.
            col = "k_a=0"
            for metric, ref, tol in (
                ("lambda_mean", 0.6667, 0.005),
                ("c2_mean", 1.0, 0.01),
                ("c1_mean", 0.8, 0.01),
                ("nu_moves", 1.627, 0.3),
            ):
                value = sim(col, metric)
                if value is None or abs(value - ref) > tol:
                    problems.append(f"{col} {metric} {value} outside {ref} +- {tol}")
            rho = sim(col, "rho")
            if rho is None or rho < 0.95:
                problems.append(f"{col} rho {rho} below 0.95")
        else:
            # Acceptance criterion 11: n=1000 column within 10% of the paper.
            col = "n=1000"
            for metric, ref in (
                ("lambda_mean", 0.6566),
                ("c1_mean", 0.8604),
                ("c2_mean", 0.9396),
                ("d_out", 6.1902),
            ):
                value = sim(col, metric)
                if value is None or abs(value - ref) > 0.10 * ref:
                    problems.append(f"{col} {metric} {value} not within 10% of {ref}")
        return problems


class CheckScale(Workload):
    """``check`` on table-4 style instances with constructed verdicts, plus
    a batch of small random instances cross-checked by every oracle."""

    name = "check-scale"
    ORACLES = ("check_feasible_exhaustive", "check_strict_exhaustive", "check_feasible_matching")

    def generate(self, seed, workdir, pkg):
        rng = random.Random(f"check-scale:{seed}")
        docs = {
            "strict": _table4_doc(SCALE_UNITS, rng),
            "strict-fails-last": _tight_doc(SCALE_UNITS, rng),
            "infeasible": _infeasible_doc(SCALE_UNITS, rng),
        }
        files = {}
        ops = []
        for name, doc in docs.items():
            files[name] = _write(workdir, name, doc)
            inst = pkg.topology.instance_from_dict(doc)
            ops.append(Op(f"check {name}", argv=["check", str(files[name])], instance=inst))
        for i in range(SMALL_INSTANCES):
            doc = _small_doc(rng)
            name = f"small{i:02d}"
            files[name] = _write(workdir, name, doc)
            inst = pkg.topology.instance_from_dict(doc)
            ops.append(Op("check small", argv=["check", str(files[name])], instance=inst))
            ops += [Op(f"oracle {o}", oracle=o, instance=inst) for o in self.ORACLES]
        return Inputs(ops, files)

    def check(self, inputs, outcomes, violates):
        failures = []
        expected = {
            "check strict": (0, True, True),
            "check strict-fails-last": (0, True, False),
            "check infeasible": (2, False, None),
        }
        i = 0
        while i < len(inputs.ops):
            op, out = inputs.ops[i], outcomes[i]
            if op.label in expected:
                code, feasible, strict = expected[op.label]
                failures += self._check_report(op, out, code, feasible, strict, violates)
                i += 1
                continue
            # A small instance: its check call followed by the three oracles.
            group = list(zip(inputs.ops[i : i + 4], outcomes[i : i + 4]))
            i += 4
            inst = op.instance
            crashed = [f"{o.label}: raised {r.error}" for o, r in group if r.error]
            if crashed:
                failures += crashed
                continue
            exhaustive, strict_exh, matching = (r.verdict for _o, r in group[1:])
            for (o, _r), verdict, strict in zip(group[1:], (exhaustive, strict_exh, matching),
                                                 (False, True, False)):
                if not verdict.feasible and not violates(inst, verdict.witness, strict=strict):
                    failures.append(f"{o.label}: witness {verdict.witness} does not violate")
            feasible = exhaustive.feasible
            if matching.feasible != feasible:
                failures.append(f"{op.label} {out_path(op)}: matching disagrees with exhaustive")
            strict = strict_exh.feasible if feasible else None
            failures += self._check_report(
                op, out, 0 if feasible else 2, feasible, strict, violates
            )
        return len(inputs.ops), failures

    def _check_report(self, op, out, code, feasible, strict, violates):
        problem = _exit_problem(op, out, code)
        if problem:
            return [f"{problem} ({out_path(op)})"]
        inst = op.instance
        report = json.loads(out.stdout)
        where = f"{op.label} {out_path(op)}"
        problems = []
        if report["feasible"] != feasible or report["strict"] != strict:
            problems.append(
                f"{where}: verdict feasible={report['feasible']} strict={report['strict']}, "
                f"expected feasible={feasible} strict={strict}"
            )
        elif not feasible:
            if not violates(inst, tuple(report["witness"])):
                problems.append(f"{where}: witness {report['witness']} does not violate")
        elif not strict:
            if not violates(inst, tuple(report["strict_witness"]), strict=True):
                problems.append(f"{where}: strict witness does not violate")
        return problems


class VerifyExact(Workload):
    """Three ``verify`` calls: a desk instance through the exact oracle, the
    eight-state instance through the empirical sampler, and the
    best-response probe on the line-4 trap."""

    name = "verify-exact"
    # Check lines each call must print, all PASS.
    REQUIRED = {
        "verify desk": ("detailed balance", "stationarity", "ergodicity (support connected)"),
        "verify empirical": ("detailed balance", "stationarity", "empirical occupancy"),
        "verify best-response": ("best-response probe",),
    }

    def generate(self, seed, workdir, pkg):
        rng = random.Random(f"verify-exact:{seed}")
        desk = {
            "n": 4,
            "edges": _complete_edges(4),
            "alpha": 4,
            "beta": 5,
            "lambda": [round(rng.uniform(0.3, 1.0), 3) for _ in range(4)],
        }
        eight = {"n": 3, "edges": _complete_edges(3), "alpha": 1, "beta": 2, "lambda": 1.0}
        line = {
            "n": 4,
            "edges": [[0, 1], [1, 0], [1, 2], [2, 1], [2, 3], [3, 2]],
            "alpha": 1,
            "beta": 1,
            "lambda": [1.0, 3.0, 1.0, 1.0],
        }
        files = {name: _write(workdir, name, doc)
                 for name, doc in (("desk", desk), ("eight", eight), ("line4", line))}
        s = str(seed)
        ops = [
            Op("verify desk", argv=["verify", str(files["desk"]), "--gamma", "1.0",
                                    "--k-a", "0.45", "--seed", s]),
            Op("verify empirical", argv=["verify", str(files["eight"]), "--gamma", "1.0",
                                         "--k-c", "0", "--empirical-steps",
                                         str(EMPIRICAL_STEPS), "--empirical-tol", "0.02",
                                         "--seed", s]),
            Op("verify best-response", argv=["verify", str(files["line4"]), "--gamma", "inf",
                                             "--seed", s]),
        ]
        return Inputs(ops, files)

    def check(self, inputs, outcomes, violates):
        failures = []
        for op, out in zip(inputs.ops, outcomes):
            problem = _exit_problem(op, out, 0)
            if problem:
                failures.append(problem)
                continue
            lines = [line for line in out.stdout.splitlines()
                     if line.startswith(("PASS", "FAIL"))]
            bad = [line for line in lines if not line.startswith("PASS")]
            seen = {line[6:].split("  (")[0] for line in lines}
            missing = [name for name in self.REQUIRED[op.label] if name not in seen]
            if bad or missing:
                failures.append(f"{op.label}: failing {bad}, missing {missing}")
        return len(inputs.ops), failures


WORKLOADS = {
    w.name: w
    for w in (
        Reproduce("reproduce-dense", 1),
        Reproduce("reproduce-sparse", 4),
        CheckScale(),
        VerifyExact(),
    )
}
