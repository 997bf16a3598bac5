"""Span tracing from outside the package.

A ``Tracer`` wraps every public function of the layer modules, records one
span per call (name, start, end, parent, probe value) and puts every
original back on exit.  Names bound with ``from ... import`` live on in the
importing module (``cli.load_instance``, the graph builders inside
``benchmarks``), so the wrapper replaces every module attribute that holds
the original object, not only the defining one.

``summarize`` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import collections
import functools
import gzip
import inspect
import statistics
import time

LAYERS = ("topology", "feasibility", "game", "dynamics", "analysis", "benchmarks", "cli")

# Span fields, stored as lists so the wrapper can fill in the end time.
NAME, START, END, PARENT, INFO = range(5)

_VERDICT_FUNCS = (
    "feasibility.check_feasible_flow",
    "feasibility.check_strict",
    "feasibility.check_feasible_exhaustive",
    "feasibility.check_strict_exhaustive",
    "feasibility.check_feasible_matching",
)


def _config_arg(args, kwargs):
    return args[0] if args else kwargs["config"]


def _transfer(move) -> int:
    return int(move is not None and (move.source is None or move.dest != move.source))


# Values read off a call after its span has closed, kept in the span's INFO.
_PROBES = {
    "dynamics.run": lambda a, k, r: (
        _config_arg(a, k).horizon,
        sum(r.moves_per_unit),
    ),
    "dynamics.state_stream": lambda a, k, item: (1, _transfer(item[2])),
    "analysis.enumerate_states": lambda a, k, r: len(r),
    "analysis.build_transition_matrix": lambda a, k, r: sum(len(row) for row in r.transition),
    "analysis.empirical_distribution": lambda a, k, r: r.steps,
    **{name: (lambda a, k, r: bool(r.feasible)) for name in _VERDICT_FUNCS},
}


def public_functions(module, layer: str) -> dict[str, object]:
    """Functions a layer exposes: its ``__all__`` (``main`` for the CLI)."""
    names = getattr(module, "__all__", None) or ["main"]
    found = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    """Records spans for calls into the layer modules while installed.

    ``layers`` maps a layer name to its module; ``modules`` lists every
    module whose attributes may hold a layer function (the package root
    included).
    """

    def __init__(self, layers: dict, modules) -> None:
        self.layers = layers
        self.modules = list(modules)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer, module in self.layers.items():
            for name, fn in public_functions(module, layer).items():
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _open(self, name: str) -> list:
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        probe = _PROBES.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, probe)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if probe is not None:
                span[INFO] = probe(args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn, probe):
        # A generator does its work inside next(), interleaved with the
        # consumer's own work, so every resumption is its own span.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def resumptions():
                while True:
                    span = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    if probe is not None:
                        span[INFO] = probe(args, kwargs, item)
                    yield item

            return resumptions()

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its
    children cover (overlapping children are merged, not double counted)."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for span, kids in zip(spans, children):
        lo, hi = span[START], span[END]
        covered = 0.0
        reach = lo
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        result.append((hi - lo) - covered)
    return result


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    selfs = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    incl: dict[str, float] = {}
    infos: dict[str, list] = {}
    durations: dict[str, list[float]] = {}
    for span, own in zip(spans, selfs):
        name = span[NAME]
        layer_self[name.split(".", 1)[0]] += own
        dur = span[END] - span[START]
        incl[name] = incl.get(name, 0.0) + dur
        durations.setdefault(name, []).append(dur)
        if span[INFO] is not None:
            infos.setdefault(name, []).append(span[INFO])

    def t(*names):
        return sum(incl.get(n, 0.0) for n in names)

    def calls(name):
        return len(durations.get(name, []))

    def per_s(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    runs = infos.get("dynamics.run", []) + infos.get("dynamics.state_stream", [])
    steps = sum(s for s, _ in runs)
    transfers = sum(m for _, m in runs)
    verdicts = [v for name in _VERDICT_FUNCS for v in infos.get(name, [])]
    empirical_s = t("analysis.empirical_distribution")
    metrics = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    metrics.update(
        {
            "dynamics.run_p50_s": _quantile(durations.get("dynamics.run", []), 50),
            "dynamics.run_p90_s": _quantile(durations.get("dynamics.run", []), 90),
            "dynamics.run_calls": calls("dynamics.run"),
            "dynamics.steps": steps,
            "dynamics.steps_per_s": per_s(steps, layer_self["dynamics"]),
            "dynamics.transfer_ratio": transfers / steps if steps else 0.0,
            "feasibility.flow_s": t("feasibility.check_feasible_flow"),
            "feasibility.flow_calls": calls("feasibility.check_feasible_flow"),
            "feasibility.strict_s": t("feasibility.check_strict"),
            "feasibility.exhaustive_s": t(
                "feasibility.check_feasible_exhaustive", "feasibility.check_strict_exhaustive"
            ),
            "feasibility.matching_s": t("feasibility.check_feasible_matching"),
            "feasibility.verdicts_feasible": sum(verdicts),
            "feasibility.verdicts_infeasible": len(verdicts) - sum(verdicts),
            "analysis.enumerate_s": t("analysis.enumerate_states"),
            "analysis.states": sum(infos.get("analysis.enumerate_states", [])),
            "analysis.kernel_s": t("analysis.build_transition_matrix"),
            "analysis.kernel_nnz": sum(infos.get("analysis.build_transition_matrix", [])),
            "analysis.stationary_s": t("analysis.stationary_exact"),
            "analysis.balance_s": t(
                "analysis.detailed_balance_max_violation", "analysis.stationarity_residual"
            ),
            "analysis.empirical_s": empirical_s,
            "analysis.empirical_steps_per_s": per_s(
                sum(infos.get("analysis.empirical_distribution", [])), empirical_s
            ),
            "analysis.metrics_s": t("analysis.compute_metrics"),
            "analysis.rho_s": t("analysis.compute_rho"),
            "game.potential_s": t("game.potential"),
            "game.potential_calls": calls("game.potential"),
            "game.log_weight_s": t("game.log_multinomial_weight", "game.multinomial_weight"),
            "game.global_utility_s": t("game.global_utility"),
            "topology.load_s": t("topology.load_instance"),
            "benchmarks.presets_s": t("benchmarks.table_presets", "benchmarks.make_configs"),
            "trace.spans": len(spans),
        }
    )
    return metrics


def call_counts(spans: list[list]) -> dict[str, int]:
    return dict(collections.Counter(span[NAME] for span in spans))


def write_spans(path, spans: list[list]) -> None:
    """Write spans as gzipped CSV: index, name, start, end, parent, self."""
    selfs = self_times(spans)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent,self_s\n")
        for i, (span, own) in enumerate(zip(spans, selfs)):
            fh.write(
                f"{i},{span[NAME]},{span[START]:.9f},{span[END]:.9f},{span[PARENT]},{own:.9f}\n"
            )
