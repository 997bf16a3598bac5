"""The asynchronous storage dynamics.

At every discrete time step one unit wakes up (picked with probability
proportional to its demand), decides between placing a new atom and
relocating an old one, and samples the destination from the Gibbs choice
distribution.  Relocation first removes the atom, so the vacated resource
competes as a candidate; picking it again is a legal self-move that
leaves the state unchanged.

Runs are deterministic given (config, seed).  Blocked activations consume
their time step.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .game import (
    ALLOCATION,
    DISTRIBUTION,
    AllocationState,
    GameParams,
    Move,
    _check_gamma,
    _resource_term,
    _unit_term,
)
from .topology import Instance, _integer

__all__ = [
    "ALLOCATE_FIRST",
    "PROPORTIONAL",
    "VARIANTS",
    "GammaSchedule",
    "RunResult",
    "SimConfig",
    "default_horizon",
    "default_increment",
    "run",
    "state_stream",
]

PROPORTIONAL = "proportional"
ALLOCATE_FIRST = "allocate-first"
VARIANTS = (PROPORTIONAL, ALLOCATE_FIRST)


@dataclass(frozen=True)
class GammaSchedule:
    """Gibbs parameter over simulation time: gamma0 + t * increment.

    ``fixed(g)`` is (g, 0) and ``infinite()`` is (inf, 0), pure best
    response throughout; ``default_increment`` gives the standard annealing
    rate of an instance.
    """

    gamma0: float
    increment: float = 0.0

    def __post_init__(self) -> None:
        _check_gamma(self.gamma0, finite=False, name="gamma0")
        if not (math.isfinite(self.increment) and self.increment >= 0):
            raise ValueError(f"increment must be finite and nonnegative, got {self.increment}")
        if self.gamma0 == math.inf and self.increment != 0.0:
            raise ValueError("an infinite gamma0 takes increment 0, as nothing can add to it")

    @classmethod
    def fixed(cls, gamma0: float) -> "GammaSchedule":
        return cls(gamma0)

    @classmethod
    def infinite(cls) -> "GammaSchedule":
        return cls(math.inf)

    def gamma_at(self, t: int) -> float:
        """Gamma in force at step t."""
        return self.gamma0 + t * self.increment


def default_increment(inst: Instance) -> float:
    """The standard annealing rate: 1 / (100 * max reliability)."""
    lam_max = max(inst.reliability, default=0.0)
    if lam_max <= 0:
        raise ValueError("the default increment needs a positive max reliability")
    return 1.0 / (100.0 * lam_max)


def default_horizon(inst: Instance) -> int:
    """Standard time budget: up to two moves per data atom."""
    return 2 * inst.total_alpha


@dataclass(frozen=True, eq=False)
class SimConfig:
    instance: Instance
    params: GameParams
    schedule: GammaSchedule
    horizon: int
    seed: int = 0
    variant: str = PROPORTIONAL
    record_trace: bool = False
    initial_state: AllocationState | None = None

    def __post_init__(self) -> None:
        # Read as instance files read integers: a None seed would draw OS entropy.
        object.__setattr__(self, "horizon", _integer(self.horizon, "horizon"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")


@dataclass(eq=False)
class RunResult:
    final_state: AllocationState
    completed: bool
    steps_to_completion: int | None
    moves_per_unit: list[int]
    trace: list[tuple[int, Move]] | None = None


def _move_kind(a: int, placed: int, variant: str) -> tuple[float, float]:
    """(P_allocate, P_distribute) for an activated unit of demand a with
    ``placed`` atoms placed: the move-kind rule the engine draws from."""
    # Kept out of __all__: the engine calls it on every allocation, and span
    # tracers wrap every exported name.
    if placed >= a:
        return (0.0, 1.0)
    if placed == 0 or variant == ALLOCATE_FIRST:
        return (1.0, 0.0)
    return ((a - placed) / a, placed / a)


def _as_move(x: int, drawn: tuple[int | None, int] | None) -> Move | None:
    if drawn is None:
        return None
    source, dest = drawn
    return Move(ALLOCATION if source is None else DISTRIBUTION, x, source, dest)


def _initial_state(config: SimConfig) -> AllocationState:
    if config.initial_state is None:
        return AllocationState.zeros(config.instance)
    state = config.initial_state.copy()
    state.validate(config.instance)
    return state


def _engine(config: SimConfig, state: AllocationState):
    """The one step loop: step ``state`` in place over the horizon,
    yielding (t, x, drawn) for the unit x that woke, with drawn the applied
    (source, dest) or None for a blocked activation.

    It keeps each resource's utility term at its load and one atom up (-inf,
    weight 0.0, where the atom does not fit), and each unit's ``_move_kind``
    and rows of atom counts and unit terms, aligned with its ascending
    out-neighbours.  A step bisects running sums for the source pile and the
    destination and calls only ``state._shift`` and, when gamma anneals,
    ``gamma_at``: the sums of ``game._choice`` and the terms of
    ``_resource_term``, ``_unit_term`` and ``_gibbs_weights`` are written in
    line, with the same float operations in the same order.  Those stay the
    definitions; the reference stepper test and the pinned run digests hold
    this loop to them bit for bit.
    """
    inst = config.instance
    if inst.total_alpha == 0 or config.horizon == 0:
        return
    variant, alpha, lam, beta = config.variant, inst.alpha, inst.reliability, inst.beta
    out = list(map(inst.topology.out_neighbors, range(inst.n)))  # each ascending
    placed, load = state.placed, state.load
    k_c, k_a = config.params.k_c, config.params.k_a
    stay = [_resource_term(inst, k_c, y, w) for y, w in enumerate(load)]
    enter = [_resource_term(inst, k_c, y, w + 1) for y, w in enumerate(load)]
    piles = [[row.get(y, 0) for y in ys] for ys, row in zip(out, state.counts)]
    bonus = [[_unit_term(k_a, c + 1) for c in pile] for pile in piles]
    kinds = [_move_kind(a, p, variant) for a, p in zip(alpha, placed)]
    cum_alpha, total = list(accumulate(alpha)), inst.total_alpha
    gamma, gamma_at = config.schedule.gamma0, config.schedule.gamma_at
    annealed, exp, inf = config.schedule.increment != 0.0, math.exp, math.inf
    rng = random.Random(config.seed)
    uniform = rng.random
    for t in range(config.horizon):
        x = bisect_right(cum_alpha, uniform() * total)
        p_alloc, p_dist = kinds[x]
        ys, pile, row = out[x], piles[x], bonus[x]
        utils = [enter[y] + b for y, b in zip(ys, row)]
        source = slot = None
        if not (p_dist == 0 or (p_alloc > 0 and uniform() < p_alloc)):
            # The source pile, drawn in proportion to the atoms stored there;
            # running off the end (r == placed) keeps the last nonempty pile.
            cum = list(accumulate(pile))
            slot = bisect_right(cum, uniform() * placed[x], 0, bisect_left(cum, placed[x]))
            source, back = ys[slot], k_a * pile[slot]
            utils[slot] = stay[source] + back  # the atom put back
        if not utils or (top := max(utils)) == -inf:  # a new atom fits nowhere
            yield t, x, None
            continue
        if annealed:
            gamma = gamma_at(t)
        if gamma == inf:
            ties = [i for i, u in enumerate(utils) if u == top]
            i = ties[rng.randrange(len(ties))] if len(ties) > 1 else ties[0]
        else:
            cum = list(accumulate([exp(gamma * (u - top)) for u in utils]))
            i = bisect_right(cum, uniform() * cum[-1])
        dest = ys[i]
        if i != slot:
            # One atom more shifts dest's terms down by one, one fewer shifts
            # the source's up: its second term is its old first.
            state._shift(x, source, dest)
            pile[i], row[i] = pile[i] + 1, k_a * (pile[i] + 2)
            w, b = load[dest] + 1, beta[dest]  # w > 0: dest holds an atom
            stay[dest], enter[dest] = enter[dest], lam[dest] - k_c * w / b if w <= b else -inf
            if source is None:
                kinds[x] = _move_kind(alpha[x], placed[x], variant)
            else:
                pile[slot], row[slot] = pile[slot] - 1, back
                enter[source], w, b = stay[source], load[source], beta[source]
                stay[source] = lam[source] - k_c * w / b if 0 < w <= b else -inf
        yield t, x, (source, dest)


def run(config: SimConfig) -> RunResult:
    """Run the dynamics for the configured horizon.

    Move counters track data transfers: allocations and relocations that
    change the state.  Self-moves and blocked activations consume their
    step but do not count as moves.
    """
    state = _initial_state(config)
    moves = [0] * config.instance.n
    trace: list[tuple[int, Move]] | None = [] if config.record_trace else None
    remaining = config.instance.total_alpha - state.total_placed()
    completed_at = 0 if remaining == 0 else None
    for t, x, drawn in _engine(config, state):
        if drawn is None:
            continue
        source, dest = drawn
        if source is None:
            moves[x] += 1
            remaining -= 1
            if remaining == 0:
                completed_at = t + 1
        elif dest != source:
            moves[x] += 1
        if trace is not None:
            trace.append((t, _as_move(x, drawn)))
    return RunResult(state, remaining == 0, completed_at, moves, trace)


def state_stream(config: SimConfig):
    """Generator over (t, state, move) driving the same engine as run();
    move is None for a blocked activation.

    The yielded state object is mutated in place each step; consumers must
    derive what they need (e.g. state.key()) before advancing.
    """
    state = _initial_state(config)
    for t, x, drawn in _engine(config, state):
        yield t, state, _as_move(x, drawn)
