"""Game state and mathematics.

The allocation state is the integer matrix counting how many atoms each
unit keeps in each resource.  On top of it live the per-move utility, the
exact potential whose increments equal utility increments, the Gibbs
choice distribution used by the noisy best response, the Nash test, and
the combinatorial weight that appears in the stationary distribution.
The potential, the global utility and the log weight take one state or
the arrays of many.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .topology import Instance, _real

__all__ = [
    "ALLOCATION",
    "DISTRIBUTION",
    "AllocationState",
    "GameParams",
    "InvalidStateError",
    "Move",
    "NoAvailableResourceError",
    "RejectedMoveError",
    "UndefinedUtilityError",
    "available_resources",
    "gibbs_choice_distribution",
    "global_utility",
    "is_nash",
    "log_multinomial_weight",
    "potential",
    "utility",
]

ALLOCATION = "allocation"
DISTRIBUTION = "distribution"
TIE_TOL = 1e-9  # utilities or potentials this close count as equal


class RejectedMoveError(ValueError):
    """Move would violate the state invariants; state left unchanged."""


class UndefinedUtilityError(ValueError):
    """Utility is not defined on a resource offering no space."""


class NoAvailableResourceError(ValueError):
    """No candidate resource has spare capacity."""


class InvalidStateError(ValueError):
    """Operation requires a full allocation state."""


@dataclass(frozen=True)
class GameParams:
    """Utility weights: congestion (k_c) and aggregation (k_a).  The Gibbs
    parameter belongs to the dynamics (``dynamics.GammaSchedule``)."""

    k_c: float
    k_a: float

    def __post_init__(self) -> None:
        for name in ("k_c", "k_a"):
            value = _real(getattr(self, name), name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True, slots=True)
class Move:
    """A single-atom action: place a new atom (allocation) or relocate one
    (distribution, with ``source`` set, possibly equal to ``dest``)."""

    kind: str
    unit: int
    source: int | None
    dest: int


class AllocationState:
    """Atom-count matrix with cached row and column sums.

    ``rows[x][i]`` counts unit x's atoms on ``out[x][i]``, zeros kept, where
    ``out`` is the instance's adjacency (shared): the one counts layout of
    ``_edges``.  ``placed[x]`` is row x's sum, ``load[y]`` resource y's
    column sum, and ``counts`` the nonzero entries as dicts, made on access.
    Mutated by ``_shift`` once apply_move has validated a move, and in line
    by the dynamics engine, whose moves are valid by construction.
    """

    __slots__ = ("n", "out", "rows", "placed", "load")

    def __init__(self, out: tuple, rows: list[list[int]], placed: list[int], load: list[int]):
        self.n = len(out)
        self.out = out
        self.rows = rows
        self.placed = placed
        self.load = load

    @classmethod
    def zeros(cls, inst: Instance) -> "AllocationState":
        out = inst.topology._out
        return cls(out, [[0] * len(ys) for ys in out], [0] * inst.n, [0] * inst.n)

    @classmethod
    def from_entries(cls, inst: Instance, entries) -> "AllocationState":
        """Build and validate a state from (unit, resource, count) triples."""
        state = cls.zeros(inst)
        for x, y, c in entries:
            x, y, c = int(x), int(y), int(c)
            if c < 0:
                raise ValueError(f"negative count at ({x}, {y})")
            if c == 0:
                continue
            if (i := state._slot(x, y)) is None:
                raise InvalidStateError(f"atoms stored on the non-edge ({x}, {y})")
            if state.rows[x][i]:
                raise ValueError(f"duplicate entry ({x}, {y})")
            state.rows[x][i] = c
            state.placed[x] += c
            state.load[y] += c
        state.validate(inst)
        return state

    @property
    def counts(self) -> list[dict[int, int]]:
        return [{y: c for y, c in zip(ys, row) if c} for ys, row in zip(self.out, self.rows)]

    def copy(self) -> "AllocationState":
        return AllocationState(self.out, [*map(list, self.rows)], [*self.placed], [*self.load])

    def _slot(self, x: int, y: int) -> int | None:
        """Position of resource y in unit x's row; None off x's out-neighbours."""
        if not 0 <= x < self.n:
            raise InvalidStateError(f"entry ({x}, {y}) names no unit of the graph")
        i = bisect_left(ys := self.out[x], y)
        return i if i < len(ys) and ys[i] == y else None

    def get(self, x: int, y: int) -> int:
        return 0 if (i := self._slot(x, y)) is None else self.rows[x][i]

    def total_placed(self) -> int:
        return sum(self.placed)

    def is_full(self, inst: Instance) -> bool:
        return all(self.placed[x] == inst.alpha[x] for x in range(self.n))

    def key(self) -> tuple:
        """Canonical hashable form: sorted nonzero (x, y, count) triples."""
        return tuple((x, y, c) for x, (ys, row) in enumerate(zip(self.out, self.rows))
                     for y, c in zip(ys, row) if c)

    def _check_graph(self, inst: Instance) -> None:
        # Rows are read by position, so they must be laid out on inst's graph
        # (in O(1) when the state shares the instance's adjacency, as built).
        if self.out is not inst.topology._out and self.out != inst.topology._out:
            raise InvalidStateError("the state is laid out on another graph than the instance's")

    def validate(self, inst: Instance) -> None:
        """Recheck structural invariants and cache consistency."""
        if self.n != inst.n:
            raise InvalidStateError(f"state has n={self.n}, instance n={inst.n}")
        self._check_graph(inst)
        if list(map(len, self.rows)) != list(map(len, self.out)):
            raise InvalidStateError("a row's length is not its unit's out-degree")
        load = [0] * self.n
        for x, (ys, row) in enumerate(zip(self.out, self.rows)):
            for y, c in zip(ys, row):
                if c < 0:
                    raise InvalidStateError(f"negative stored count at ({x}, {y})")
                load[y] += c
            row_sum = sum(row)
            if row_sum != self.placed[x]:
                raise InvalidStateError(f"stale row cache for unit {x}")
            if row_sum > inst.alpha[x]:
                raise InvalidStateError(f"unit {x} placed {row_sum} > alpha {inst.alpha[x]}")
        for y in range(self.n):
            if load[y] != self.load[y]:
                raise InvalidStateError(f"stale column cache for resource {y}")
            if load[y] > inst.beta[y]:
                raise InvalidStateError(f"resource {y} holds {load[y]} > beta {inst.beta[y]}")

    def apply_move(self, inst: Instance, move: Move) -> "AllocationState":
        """Apply a validated single-atom move in place; rejected moves leave
        the state untouched."""
        x, dest = move.unit, move.dest
        if not (0 <= x < min(self.n, inst.n)):
            raise RejectedMoveError(f"unit {x} out of range")
        self._check_graph(inst)
        if dest not in inst.topology.out_neighbors(x):
            raise RejectedMoveError(f"destination ({x}, {dest}) is not an edge")
        if move.kind == ALLOCATION:
            if move.source is not None:
                raise RejectedMoveError("allocation move cannot carry a source")
            if self.placed[x] >= inst.alpha[x]:
                raise RejectedMoveError(f"unit {x} already fully allocated")
            if self.load[dest] >= inst.beta[dest]:
                raise RejectedMoveError(f"resource {dest} is full")
        elif move.kind == DISTRIBUTION:
            src = move.source
            if src is None:
                raise RejectedMoveError("distribution move needs a source")
            if self.get(x, src) <= 0:
                raise RejectedMoveError(f"unit {x} stores nothing in {src}")
            if dest != src and self.load[dest] >= inst.beta[dest]:
                raise RejectedMoveError(f"resource {dest} is full")
        else:
            raise RejectedMoveError(f"unknown move kind {move.kind!r}")
        self._shift(x, move.source, dest)
        return self

    def _shift(self, x: int, source: int | None, dest: int) -> None:
        """Move one atom of unit x from ``source`` to ``dest`` without any
        check: ``source`` None places a new atom, ``source == dest`` does
        nothing.  The state mutation behind apply_move; the dynamics engine
        writes the same change in line (the reference stepper test holds
        the two together)."""
        if source == dest:
            return
        row = self.rows[x]
        if source is None:
            self.placed[x] += 1
        else:
            row[self._slot(x, source)] -= 1
            self.load[source] -= 1
        row[self._slot(x, dest)] += 1
        self.load[dest] += 1


def _resource_term(inst: Instance, k_c: float, y: int, w: int) -> float:
    """The resource part of the utility, written only here: y's reliability
    less k_c times its fill fraction at w atoms after the move, the moved
    one among them; -inf unless 1 <= w <= capacity, where it does not fit."""
    b = inst.beta[y]
    return inst.reliability[y] - k_c * w / b if 0 < w <= b else -math.inf


def _unit_term(k_a: float, c: int) -> float:
    """The unit part of the utility, written only here: k_a * atoms after the move."""
    return k_a * c


def _choice(
    inst: Instance, params: GameParams, state: AllocationState, x: int, source: int | None = None
) -> tuple[list[int], list[float]]:
    """The choice set of unit x and the utility of each choice: the
    out-neighbors of x with room for one atom of x once it has left
    ``source`` (None places a new atom; ``source`` itself stays a choice,
    the self-move), each scored at the post-move state as its resource term
    plus its unit term: the engine's row for x, built from x's out-neighbours
    only, less its -inf entries."""
    if not 0 <= x < inst.n:
        raise ValueError(f"unit {x} out of range for n={inst.n}")
    state._check_graph(inst)
    out, load, row = inst.topology.out_neighbors(x), state.load, state.rows[x]
    k_c, k_a = params.k_c, params.k_a
    utils = [_resource_term(inst, k_c, y, load[y] + 1) + _unit_term(k_a, c + 1)
             for y, c in zip(out, row)]
    if source is not None:  # the atom back where it was
        if (i := state._slot(x, source)) is None or row[i] <= 0:
            raise ValueError(f"unit {x} stores nothing in {source}")
        utils[i] = _resource_term(inst, k_c, source, load[source]) + _unit_term(k_a, row[i])
    fits = [(y, u) for y, u in zip(out, utils) if u > -math.inf]
    return [y for y, _ in fits], [u for _, u in fits]


def _check_gamma(gamma: float, finite: bool, name: str = "gamma") -> None:
    """Reject a Gibbs parameter that is not positive (NaN included), and
    math.inf unless ``finite`` is false.  Called once per entry point,
    never per step."""
    if not gamma > 0 or (finite and gamma == math.inf):
        allowed = "finite" if finite else "math.inf allowed"
        raise ValueError(f"{name} must be positive ({allowed}), got {gamma}")


def _gibbs_weights(utils: list[float], gamma: float, top: float) -> list[float]:
    """Unnormalized Gibbs weights exp(gamma * (u - top)), ``top`` the largest
    (finite) utility, so -inf weighs 0.0; gamma = math.inf gives 1 on the
    argmax set and 0 elsewhere."""
    exp = math.exp
    if gamma == math.inf:
        return [1.0 if u == top else 0.0 for u in utils]
    return [exp(gamma * (u - top)) for u in utils]


def utility(inst: Instance, params: GameParams, state: AllocationState, x: int, y: int) -> float:
    """Value unit x derives from an atom it stores on resource y at the
    current state (the choice read off with y as the source, so nothing moves)."""
    if not (0 <= x < inst.n and y in inst.topology.out_neighbors(x)):
        raise ValueError(f"({x}, {y}) is not an edge")
    if state.get(x, y) == 0:
        raise UndefinedUtilityError(f"unit {x} stores nothing on resource {y}")
    cands, utils = _choice(inst, params, state, x, source=y)
    return utils[cands.index(y)]


def potential(inst: Instance, params: GameParams, state):
    """Exact potential: any single-atom move changes it by exactly the
    mover's utility change (see the identity test in the suite).  Per
    resource, (load + 1) times its reliability less k_c times the triangular
    number of its load over its capacity; plus k_a times the sum of the
    triangular numbers of the counts.  ``state`` is one state (gives a
    float) or the arrays of many states (see ``_bulk``)."""
    load, counts, single = _bulk(inst, state)
    lam, beta = _resources(inst)
    total = ((load + 1) * lam - params.k_c * (load * (load + 1) / 2.0) / beta).sum(axis=-1)
    total = total + params.k_a * (counts * (counts + 1)).sum(axis=-1) / 2.0
    return float(total[0]) if single else total


def available_resources(inst: Instance, state: AllocationState, x: int) -> list[int]:
    """Out-neighbors of x with room for a new atom, in ascending order."""
    return _choice(inst, GameParams(0.0, 0.0), state, x)[0]


def gibbs_choice_distribution(
    inst: Instance,
    params: GameParams,
    state: AllocationState,
    x: int,
    gamma: float,
    source: int | None = None,
) -> dict[int, float]:
    """Probability of each destination of unit x under the noisy best
    response: a new atom, or with ``source`` set the relocation of one atom
    of x out of ``source`` (which stays a candidate, the self-move).

    Weights are exponential in gamma times the post-move utility;
    gamma = math.inf returns the uniform distribution over the argmax set.
    This is the law the dynamics engine samples from.
    """
    _check_gamma(gamma, finite=False)
    cands, utils = _choice(inst, params, state, x, source)
    if not cands:
        raise NoAvailableResourceError(f"unit {x} has no available resource")
    weights = _gibbs_weights(utils, gamma, max(utils))
    norm = list(accumulate(weights))[-1]  # the total the engine draws against
    return {y: w / norm for y, w in zip(cands, weights)}


def is_nash(inst: Instance, params: GameParams, state: AllocationState) -> bool:
    """True iff no unit can strictly improve by relocating a single atom.

    Deviations are compared at the post-move state; requires a full
    allocation state.
    """
    if not state.is_full(inst):
        raise InvalidStateError("Nash test is defined on full allocation states")
    for x, y, _c in state.key():
        cands, utils = _choice(inst, params, state, x, source=y)
        if max(utils) > utils[cands.index(y)] + TIE_TOL:
            return False
    return True


def global_utility(inst: Instance, params: GameParams, state):
    """Sum over stored atoms of the owner's utility for where they sit,
    summed per resource: load * (reliability - k_c * fill fraction), plus
    k_a times the sum of squared counts.  ``state`` as for ``potential``."""
    load, counts, single = _bulk(inst, state)
    lam, beta = _resources(inst)
    total = (load * (lam - params.k_c * load / beta)).sum(axis=-1)
    total = total + params.k_a * (counts * counts).sum(axis=-1)
    return float(total[0]) if single else total


def log_multinomial_weight(inst: Instance, state):
    """Log of the number of atom-labelled allocations collapsing to a state:
    log(prod_x alpha_x! / prod_(x,y) W_xy!).  ``state`` as for ``potential``."""
    _load, counts, single = _bulk(inst, state)
    values, inverse = np.unique(counts, return_inverse=True)
    lgammas = np.array([math.lgamma(c + 1) for c in values.tolist()])
    total = sum(math.lgamma(a + 1) for a in inst.alpha) - lgammas[
        inverse.reshape(counts.shape)
    ].sum(axis=-1)
    return float(total[0]) if single else total


def _bulk(inst: Instance, state) -> tuple[np.ndarray, np.ndarray, bool]:
    """The arrays the closed-form quantities take, a row per state, and
    whether they hold one state: an AllocationState or its (load, counts)
    vectors, or those arrays of many states: ``load`` the atoms held by each
    resource, ``counts`` the atoms on each edge in ``_edges`` order, zeros kept."""
    if isinstance(state, AllocationState):
        state._check_graph(inst)
        counts = np.array(list(chain.from_iterable(state.rows)), dtype=np.int64)
        state = np.array(state.load), counts
    load, counts = state
    return np.atleast_2d(load), np.atleast_2d(counts), load.ndim == 1


def _edges(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """The one counts layout: the unit and the resource of every edge, unit
    by unit, each unit's out-neighbours ascending (the oracle's slots)."""
    out = [inst.topology.out_neighbors(x) for x in range(inst.n)]
    units = np.repeat(np.arange(inst.n), [len(ys) for ys in out])
    return units, np.array([y for ys in out for y in ys], dtype=np.intp)


def _resources(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    # Reliabilities, and capacities as divisors: a resource of capacity 0
    # holds nothing, so it may divide by 1.
    return np.array(inst.reliability), np.array([b or 1 for b in inst.beta], dtype=float)
