"""Unit network model: storage topologies, problem instances, instance files.

Every unit plays a double role.  As a user it must back up ``alpha`` data
atoms into its out-neighbors; as a resource it offers ``beta`` atom slots
to its in-neighbors and carries a ``reliability`` score that enters the
storage utility.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain

__all__ = [
    "GenerationFailed",
    "Instance",
    "Topology",
    "build_complete",
    "build_line",
    "build_random_regular",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "neighborhood_of_set",
]


class GenerationFailed(RuntimeError):
    """Random graph construction exhausted its retry budget."""


@dataclass(frozen=True, init=False)
class Topology:
    """Directed graph on units 0..n-1; an edge (x, y) lets x store atoms in y.

    Needs n >= 1.  Endpoints follow the instance file's integer rule (an int
    or integral float, never a bool); self-loops are rejected.  This is the
    one place the unit count and an edge are validated, in the one pass over
    ``edges`` (any iterable of pairs, read as given, so in a list a repeat
    cannot hide ``true == 1``) that builds the adjacency.  The graph is held
    only as each unit's sorted out-neighbour tuple, repeats dropped, its
    entries one shared int per unit; ``edges`` is made on access.  Instances
    are immutable and safe to share between concurrent runs.
    """

    n: int
    _out: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        n = _integer(n, "n")
        if n < 1:
            raise ValueError(f"need at least one unit, got n={n}")
        units = list(range(n))
        out: list[list[int]] = [[] for _ in range(n)]
        for x, y in edges:
            if type(x) is not int or type(y) is not int:
                x, y = _integer(x, "edges"), _integer(y, "edges")
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"edge ({x}, {y}) out of range for n={n}")
            if x == y:
                raise ValueError(f"self-loop ({x}, {y}) is not allowed")
            out[x].append(units[y])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_out", tuple(tuple(sorted(set(ys))) for ys in out))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((x, y) for x, ys in enumerate(self._out) for y in ys)

    def out_neighbors(self, x: int) -> tuple[int, ...]:
        """Resources unit x may store into."""
        return self._out[x]

    def to_dict(self) -> dict:
        return {"n": self.n, "edges": [[x, y] for x, ys in enumerate(self._out) for y in ys]}


def build_complete(n: int) -> Topology:
    """Complete directed graph: every ordered pair (x, y), x != y."""
    return Topology(n, ((x, y) for x in range(n) for y in range(n) if x != y))


def build_line(n: int) -> Topology:
    """Bidirectional chain 0 - 1 - ... - (n-1)."""
    if n < 2:
        raise ValueError(f"line graph needs n >= 2, got {n}")
    return Topology(n, ((x, y) for x in range(n) for y in (x - 1, x + 1) if 0 <= y < n))


def _try_pairing(n: int, d: int, rng: random.Random) -> set[tuple[int, int]] | None:
    # Stub-pairing with rematching of clashing stubs (adapted from the
    # classic NetworkX routine).  Returns None when stuck.
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * d

    def suitable(potential: dict[int, int]) -> bool:
        if not potential:
            return True
        nodes = list(potential)
        for i, s1 in enumerate(nodes):
            for s2 in nodes[: i + 1]:
                if s1 == s2:
                    continue
                a, b = (s2, s1) if s1 > s2 else (s1, s2)
                if (a, b) not in edges:
                    return True
        return False

    while stubs:
        potential: dict[int, int] = {}
        rng.shuffle(stubs)
        it = iter(stubs)
        for s1, s2 in zip(it, it):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                potential[s1] = potential.get(s1, 0) + 1
                potential[s2] = potential.get(s2, 0) + 1
        if not suitable(potential):
            return None
        stubs = [node for node, count in potential.items() for _ in range(count)]
    return edges


_PAIRING_ATTEMPTS = 100  # stub pairings tried before build_random_regular gives up


def build_random_regular(n: int, d: int, seed: int) -> Topology:
    """Random d-regular graph stored as symmetric directed edge pairs.

    Deterministic for a fixed seed.  Requires n*d even and d < n.
    """
    if d < 0 or d >= n:
        raise ValueError(f"degree must satisfy 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    rng = random.Random(seed)
    for _ in range(_PAIRING_ATTEMPTS):
        pairs = _try_pairing(n, d, rng)
        if pairs is None:
            continue
        return Topology(n, chain(pairs, ((y, x) for x, y in pairs)))
    raise GenerationFailed(
        f"no simple {d}-regular graph on {n} nodes found in {_PAIRING_ATTEMPTS} attempts"
    )


def neighborhood_of_set(topology: Topology, units: set[int]) -> set[int]:
    """Union of the out-neighborhoods of a set of units."""
    result: set[int] = set()
    for x in units:
        result.update(topology.out_neighbors(x))
    return result


@dataclass(frozen=True)
class Instance:
    """A storage allocation problem: topology plus per-unit demand,
    capacity, and reliability vectors.

    ``alpha[x]`` atoms must be backed up by unit x, ``beta[y]`` atom slots
    are offered by resource y, ``reliability[y]`` is its quality score.
    """

    topology: Topology
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    reliability: tuple[float, ...]

    def __post_init__(self) -> None:
        n = self.topology.n
        # Lengths first: an over-long vector is refused before any entry is read.
        for name, vec in (("alpha", self.alpha), ("beta", self.beta), ("lambda", self.reliability)):
            if len(vec) != n:
                raise ValueError(f"'{name}' must have n={n} entries, got {len(vec)}")
        alpha = tuple(_integer(a, "alpha") for a in self.alpha)
        beta = tuple(_integer(b, "beta") for b in self.beta)
        reliability = tuple(_real(r, "lambda") for r in self.reliability)
        for name, vec in (("alpha", alpha), ("beta", beta), ("reliability", reliability)):
            if any(v < 0 for v in vec):
                raise ValueError(f"{name} entries must be nonnegative")
        if not all(math.isfinite(r) for r in reliability):
            raise ValueError("reliability entries must be finite")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "reliability", reliability)

    @property
    def n(self) -> int:
        return self.topology.n

    @property
    def total_alpha(self) -> int:
        return sum(self.alpha)

    @property
    def total_beta(self) -> int:
        return sum(self.beta)

    def fingerprint(self) -> str:
        """Stable short hash of the canonical serialized form."""
        import hashlib  # here, not at the top: it loads OpenSSL, which only this needs
        blob = json.dumps(instance_to_dict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# Units plus directed edges an instance document may describe: about 90
# times the largest benchmark instance (1,000 units, 10,000 edges), and
# checked before anything of that size is built.  The budget, as `check`'s
# peak RSS: the complete 1,000-unit generator (the limit exactly) peaks at
# 47 MB in 0.34-0.44 s; a 30,000-unit 10-regular edge-list document
# (330,000) at 111 MB in 0.58-0.67 s, most of it the document while it loads.
MAX_INSTANCE_SIZE = 1_000_000

_INSTANCE_KEYS = {"n", "edges", "generator", "alpha", "beta", "lambda"}
_GENERATOR_KEYS = {"kind", "n", "d", "seed"}


def _integer(value, name: str) -> int:
    """A JSON integer: an int or integral float, never a bool."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"'{name}' must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """A JSON number, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"'{name}' must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"'{name}' is too large for a float") from None


def _check_size(n: int, directed_edges: int) -> None:
    size = n + directed_edges
    if size > MAX_INSTANCE_SIZE:
        raise ValueError(
            f"instance has {size} units plus directed edges, above the limit {MAX_INSTANCE_SIZE}"
        )


def _read_json(path):
    """The JSON document in a file.  A ValueError when it does not parse,
    or nests deeper than the parser's recursion limit."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc


def _mapping(data, name: str, keys) -> dict:
    """``data`` itself, checked to be a mapping with no key outside ``keys``."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be a mapping")
    unknown = set(data) - keys
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    return data


def instance_from_dict(data: dict) -> Instance:
    """Parse the instance file schema (see README).  Rejects unknown keys."""
    _mapping(data, "instance", _INSTANCE_KEYS)
    if ("generator" in data) == ("edges" in data):
        raise ValueError("exactly one of 'edges' or 'generator' is required")

    if "generator" in data:
        gen = _mapping(data["generator"], "generator", _GENERATOR_KEYS)
        kind = gen.get("kind")
        gn = _integer(gen.get("n"), "generator n")
        if kind == "complete":
            _check_size(gn, gn * (gn - 1))
            topology = build_complete(gn)
        elif kind == "line":
            _check_size(gn, 2 * (gn - 1))
            topology = build_line(gn)
        elif kind == "random_regular":
            if "d" not in gen or "seed" not in gen:
                raise ValueError("random_regular generator needs 'd' and 'seed'")
            d = _integer(gen["d"], "generator d")
            _check_size(gn, gn * d)
            try:
                topology = build_random_regular(gn, d, _integer(gen["seed"], "generator seed"))
            except GenerationFailed as exc:
                raise ValueError(f"random_regular generator gave up: {exc}") from exc
        else:
            raise ValueError(f"unknown generator kind: {kind!r}")
        if "n" in data and _integer(data["n"], "n") != topology.n:
            raise ValueError("'n' disagrees with generator 'n'")
    else:
        if "n" not in data:
            raise ValueError("'n' is required with an explicit edge list")
        n = _integer(data["n"], "n")
        edges = data["edges"]
        if not isinstance(edges, list):
            raise ValueError("'edges' must be an array of [x, y] pairs")
        _check_size(n, len(edges))
        try:
            pairs = [(x, y) for x, y in edges]
        except (TypeError, ValueError):  # an entry that is not a pair
            raise ValueError("'edges' must be an array of [x, y] pairs") from None
        topology = Topology(n, pairs)

    for key in ("alpha", "beta", "lambda"):
        if key not in data:
            raise ValueError(f"missing required key '{key}'")
    # A scalar stands for one value per unit; Instance checks every vector.
    vectors = [v if isinstance(v, (list, tuple)) else [v] * topology.n
               for v in (data["alpha"], data["beta"], data["lambda"])]
    return Instance(topology, *vectors)


def instance_to_dict(inst: Instance) -> dict:
    doc = inst.topology.to_dict()
    doc["alpha"] = list(inst.alpha)
    doc["beta"] = list(inst.beta)
    doc["lambda"] = list(inst.reliability)
    return doc


def load_instance(path) -> Instance:
    data = _read_json(path)
    try:
        return instance_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
