"""Metrics and exact small-instance oracles.

The oracle side enumerates every full allocation state, builds the exact
one-step transition kernel of the relocation chain, and checks the
closed-form stationary law (combinatorial weight times the exponential of
the potential) against it: detailed balance pair by pair, stationarity
residual, support connectivity, and long-run occupancy.  It works on
arrays over all states at once: a state is coded by how each unit splits
its atoms over its out-neighbours, and the kernel is a CSR matrix.

The metrics side turns a finished run into the standard report: moves per
atom, the state metrics (satisfaction, per-class congestion, support
degrees; of one state or of all), and the global utility ratio.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from . import dynamics, game
from .game import TIE_TOL, AllocationState, GameParams, _check_gamma, _resources
from .topology import Instance

__all__ = [
    "EmpiricalResult",
    "Kernel",
    "MetricsReport",
    "StateSpaceOracle",
    "StateSpaceTooLarge",
    "build_transition_matrix",
    "check_kernel_size",
    "classes_by_reliability",
    "compute_metrics",
    "compute_rho",
    "detailed_balance_max_violation",
    "empirical_distribution",
    "enumerate_states",
    "greedy_utility_bound",
    "is_support_connected",
    "max_global_utility_bruteforce",
    "max_potential_bruteforce",
    "sample_chain",
    "state_from_key",
    "state_metrics",
    "stationarity_residual",
    "stationary_exact",
    "tally_frequencies",
    "total_variation",
]

# The enumeration budget, 0.16 GB of RSS over the interpreter's: the wide document (two units
# of demand 2 over 40 resources of capacity 4; 672,400 states) adds 100 MB, ~157 bytes a state.
STATE_SPACE_LIMIT = 1_000_000
# The kernel budget, about 0.8 GB of `verify` peak RSS: the K7 baseline (alpha 1, beta 7;
# 279,936 states, 10,077,696 kernel entries) peaks at 163 MB, ~16 bytes an entry.
KERNEL_ENTRY_LIMIT = 50_000_000
_BLOCK = 1 << 11  # states per block of array work: bounds the temporaries, and so the peak RSS


class StateSpaceTooLarge(ValueError):
    """Estimated number of full states or kernel entries exceeds its guard."""


class _Splits:
    """The splits of one unit's atoms over its out-neighbours (its slots),
    one row of ``counts`` each, the largest count in the first slot first,
    in the narrowest unsigned type that holds the unit's demand.

    A split's index in that order is its rank: the sum over slots j >= 1 of
    comb(R_j + d - j - 1, d - j), where R_j counts the atoms in slot j and
    after.
    """

    def __init__(self, out: tuple[int, ...], a: int) -> None:
        d = len(out)
        self.out = np.array(out, dtype=np.intp)
        counts, left = np.zeros((1, 0), dtype=np.int64), np.array([a])
        for _ in range(d - 1):  # each prefix with `left` atoms to go takes left, ..., 0 next
            reps = left + 1
            left = np.repeat(left, reps)
            c = left - np.arange(len(left)) + np.repeat(np.cumsum(reps) - reps, reps)
            counts, left = np.column_stack([np.repeat(counts, reps, axis=0), c]), left - c
        no_slot = np.zeros((int(a == 0), 0), np.int64)  # one empty split, or none
        counts = np.column_stack([counts, left]) if d else no_slot
        self.counts = counts.astype(np.min_scalar_type(a))
        # _comb[j - 1, r] = comb(r + d - j - 1, d - j), at most len(self).
        comb = [[math.comb(r + d - j - 1, d - j) for r in range(a + 1)] for j in range(1, d)]
        self._comb = np.array(comb, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.counts)

    def rank(self, counts: np.ndarray) -> np.ndarray:
        """Index of the split with each row of counts."""
        index, tail = np.zeros(len(counts), np.int64), np.zeros(len(counts), np.int64)
        for j in range(counts.shape[1] - 1, 0, -1):
            tail += counts[:, j]  # R_j
            index += self._comb[j - 1, tail]
        return index


class Kernel(NamedTuple):
    """One-step kernel in CSR form: row i holds the columns
    ``indices[indptr[i]:indptr[i + 1]]``, ascending, with their
    probabilities in ``data``; a move taken with probability 0.0 (an
    underflowed Gibbs weight) keeps its entry."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def row(self, i: int) -> dict[int, float]:
        span = slice(self.indptr[i], self.indptr[i + 1])
        return dict(zip(self.indices[span].tolist(), self.data[span].tolist()))

    def row_sums(self) -> np.ndarray:
        return np.add.reduceat(self.data, self.indptr[:-1])  # no row is empty


class _Lazy(Sequence):
    """A read-only sequence whose items are computed on access."""

    def __init__(self, size: int, item) -> None:
        self._size, self._item = size, item

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i):
        if not -self._size <= i < self._size:
            raise IndexError(i)
        return self._item(i % self._size)


@dataclass(eq=False)
class StateSpaceOracle:
    """Exhaustive view of the full allocation states of one instance.

    A state's code is the mixed radix of its units' split indices (place
    values ``strides``, unit 0 the most significant).  ``codes`` holds the
    states' codes in ascending order, the order of enumeration, and
    ``load`` their loads, a row each, in the narrowest unsigned type that
    holds them (like ``_Splits.counts``: widen to int64 before any sum or
    product, so none wraps); ``position`` maps every code to its
    state's position, -1 where the splits overfill a resource.  ``states``
    decodes the canonical key of a state (sorted nonzero (x, y, count)
    triples) on access.  ``kernel`` (filled by build_transition_matrix)
    holds the one-step kernel, and ``transition`` reads it one {j: p} row
    at a time.
    """

    inst: Instance
    splits: list[_Splits]
    strides: list[int]
    codes: np.ndarray
    load: np.ndarray
    kernel: Kernel | None = None

    def __post_init__(self) -> None:
        self.position = np.full(math.prod(len(sp) for sp in self.splits), -1, dtype=np.int32)
        self.position[self.codes] = np.arange(len(self.codes), dtype=np.int32)

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def states(self) -> Sequence[tuple]:  # made on access: held, its bound method is a cycle
        return _Lazy(len(self), self._key)

    @property
    def transition(self) -> Sequence[dict[int, float]] | None:
        return None if self.kernel is None else _Lazy(len(self), self.kernel.row)

    def split_of(self, x: int, rows: slice = slice(None)) -> np.ndarray:
        """Index of unit x's split in each state of ``rows``."""
        return self.codes[rows] // self.strides[x] % len(self.splits[x])

    def _key(self, i: int) -> tuple:
        code, key = int(self.codes[i]), []
        for x, (sp, stride) in enumerate(zip(self.splits, self.strides)):
            counts = sp.counts[code // stride % len(sp)].tolist()
            key += [(x, y, c) for y, c in zip(sp.out.tolist(), counts) if c]
        return tuple(key)


def state_from_key(inst: Instance, key: tuple) -> AllocationState:
    return AllocationState.from_entries(inst, key)


def _estimate_states(inst: Instance) -> int:
    # The product of the units' split counts, capacities ignored.
    estimate = 1
    for x, a in enumerate(inst.alpha):
        deg = len(inst.topology.out_neighbors(x))
        estimate *= math.comb(a + deg - 1, a) if deg else int(a == 0)
        if not 0 < estimate <= STATE_SPACE_LIMIT:
            return estimate
    return estimate


def check_kernel_size(inst: Instance) -> int | None:
    """Bound the one-step kernel's entries before any state is enumerated;
    refuse a bound above KERNEL_ENTRY_LIMIT with StateSpaceTooLarge.

    The kernel holds an entry per state and one per move of an atom to
    another slot.  Over every combination of the units' splits, capacities
    ignored, that is P + sum_x (P / S_x) (d_x - 1) d_x C(a_x + d_x - 2,
    a_x - 1), with S_x unit x's split count, P their product, and d_x
    C(...) the occupied slots summed over x's splits: exact when no
    capacity binds.  None for an instance the state guard refuses or that
    has no state, which ``enumerate_states`` reports.
    """
    states = _estimate_states(inst)
    if not 0 < states <= STATE_SPACE_LIMIT:
        return None
    entries = states
    for x, a in enumerate(inst.alpha):
        d = len(inst.topology.out_neighbors(x))
        if a:
            entries += states // math.comb(a + d - 1, a) * (d - 1) * d * math.comb(a + d - 2, a - 1)
    if entries > KERNEL_ENTRY_LIMIT:
        raise StateSpaceTooLarge(
            f"kernel estimate of {entries} entries exceeds the limit {KERNEL_ENTRY_LIMIT}"
        )
    return entries


def enumerate_states(inst: Instance) -> StateSpaceOracle:
    """Exhaustively enumerate the full allocation states.

    The pre-check bounds the state count by the product of per-unit split
    counts (capacities ignored), so it never underestimates; the product
    also bounds the codes.  Unit by unit, each partial state takes every
    split of the unit's atoms that fits the room left, units with one split
    first (they drop states without multiplying them); the states are
    then sorted by code.
    """
    estimate = _estimate_states(inst)
    if estimate > STATE_SPACE_LIMIT:
        raise StateSpaceTooLarge(
            f"state space estimate {estimate} exceeds the limit {STATE_SPACE_LIMIT}"
        )
    if estimate == 0:  # a unit stores nowhere; the units after it went unestimated
        empty = np.zeros((0, inst.n), np.int64)
        return StateSpaceOracle(inst, [], [], empty[:, 0], empty)
    total = 0
    for x, a in enumerate(inst.alpha):  # no load exceeds the total demand
        total += a
        if total > np.iinfo(np.int64).max:
            raise ValueError(f"unit {x}'s demand {a} takes the total beyond 64-bit integers")
    splits = [_Splits(inst.topology.out_neighbors(x), a) for x, a in enumerate(inst.alpha)]
    strides = [math.prod(len(sp) for sp in splits[x + 1 :]) for x in range(inst.n)]
    cap = np.array(inst.beta, dtype=float)
    narrow = np.min_scalar_type(min(max(inst.beta), total))  # a load exceeds neither
    code, load = np.zeros(1, dtype=np.int64), np.zeros((1, inst.n), dtype=narrow)
    for x in sorted(range(inst.n), key=lambda x: len(splits[x]) > 1):
        sp = splits[x]
        fits = np.ones((len(code), len(sp)), dtype=bool)
        for k, y in enumerate(sp.out):
            fits &= load[:, y, None].astype(np.int64) + sp.counts[:, k].astype(np.int64) <= cap[y]
        state, s = np.nonzero(fits)
        code, load = code[state] + s * strides[x], load[state]
        load[:, sp.out] += sp.counts[s]
    order = np.argsort(code)
    return StateSpaceOracle(inst, splits, strides, code[order], load[order])


def build_transition_matrix(
    oracle: StateSpaceOracle, params: GameParams, gamma: float
) -> StateSpaceOracle:
    """Exact one-step kernel of the chain restricted to full states.

    On full states every activation is a relocation, so both move-kind
    variants induce the same kernel; self-moves and saturation contribute
    the diagonal.  For a block of states at a time, one set of array
    operations per (unit, source slot) scores the unit's choice at every
    state with atoms in that slot, with the arithmetic of ``game._choice``
    (``_resource_term`` plus ``_unit_term``) and ``_gibbs_weights`` in order
    (math.exp, as np.exp may differ by an ulp; the norm a running sum over
    the slots in order, as ``game.gibbs_choice_distribution`` takes it), so
    each entry is the float a state-by-state loop gives; the diagonal adds
    up in (unit, source) order, as that loop would; each block's rows go
    into their slice of arrays sized by ``_row_sizes``.  Needs a finite gamma > 0.
    """
    _check_gamma(gamma, finite=True)
    inst, m = oracle.inst, len(oracle)
    (lam, divisor), cap = _resources(inst), np.array(inst.beta, dtype=float)
    indptr = np.concatenate([[0], _row_sizes(oracle).cumsum()])
    indices, data = np.empty(indptr[-1], np.int32), np.empty(indptr[-1])
    for lo in range(0, m, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        codes, load = oracle.codes[rows], oracle.load[rows].T.astype(np.int64, order="C")
        diag = np.full(len(codes), 0.0 if inst.total_alpha else 1.0)  # no demand: no move
        row_ids, cols, probs = [np.arange(len(codes))], [oracle.position[codes]], [diag]
        for x, sp in enumerate(oracle.splits):  # arrays of a row per slot, a column per state
            a, out, split = inst.alpha[x], sp.out, oracle.split_of(x, rows)
            own, eye = sp.counts[split].T.astype(np.int64), np.eye(len(out), dtype=np.int64)
            lam_x, divisor_x, load_x = lam[out, None], divisor[out, None], load[out]
            for k in range(len(out) if a else 0):
                at = np.flatnonzero(own[k])
                extra = (np.arange(len(out)) != k)[:, None]  # the self-move adds no atom
                w = load_x[:, at] + extra
                fits = w <= cap[out, None]
                utils = lam_x - params.k_c * w / divisor_x + params.k_a * (own[:, at] + extra)
                top = np.where(fits, utils, -np.inf).max(axis=0)
                exponents = _times_gamma(gamma, utils - top)
                values, inverse = np.unique(exponents[fits], return_inverse=True)
                weights = np.zeros(utils.shape)
                weights[fits] = np.array([math.exp(v) for v in values.tolist()])[inverse]
                norm = weights.cumsum(axis=0)[-1]  # slot by slot; sum() may pair terms
                p = a / inst.total_alpha * (own[k, at] / a) * weights / norm
                diag[at] += p[k]
                fits[k] = False
                slot, hit = np.nonzero(fits)
                src = at[hit]
                index = sp.rank((own[:, src] + eye[:, slot] - eye[:, [k]]).T)  # one atom k -> slot
                row_ids.append(src)
                cols.append(oracle.position[codes[src] + (index - split[src]) * oracle.strides[x]])
                probs.append(p[slot, hit])
        cols = np.concatenate(cols)
        order = (np.concatenate(row_ids) * m + cols).argsort(kind="stable")  # fast on sorted runs
        span = slice(indptr[lo], indptr[lo + len(codes)])  # the block's rows, written in place
        indices[span], data[span] = cols[order], np.concatenate(probs)[order]
    oracle.kernel = Kernel(indptr, indices, data)
    return oracle


def _row_sizes(oracle: StateSpaceOracle) -> np.ndarray:
    # Each row's entry count: 1 for the diagonal, plus, per unit, one per move of an
    # atom from a held slot to another slot with room: held * free - |held & free|.
    room = oracle.load.T < np.array(oracle.inst.beta)[:, None]  # a row per resource
    sizes = np.ones(len(oracle), np.int64)
    for x, sp in enumerate(oracle.splits):
        split, free = oracle.split_of(x), room[sp.out].sum(axis=0)
        for y, held in zip(sp.out, sp.counts.T > 0):
            sizes += held[split] * (free - room[y])
    return sizes


def _times_gamma(gamma: float, values: np.ndarray) -> np.ndarray:
    # Refused short of the float range, so the sums and gaps taken later cannot overflow.
    if gamma * float(np.abs(values).max(initial=0.0)) > np.finfo(float).max / 4:
        raise ValueError(f"gamma {gamma} is too large: gamma times the potential overflows a float")
    return gamma * values


def _kernel(oracle: StateSpaceOracle) -> Kernel:
    if oracle.kernel is None:
        raise ValueError("build the transition matrix first")
    return oracle.kernel


def _kernel_blocks(oracle: StateSpaceOracle):
    # The kernel's entries a block of rows at a time: (row, column, probability).
    indptr, indices, data = _kernel(oracle)
    for lo in range(0, len(oracle), _BLOCK):
        ptr = indptr[lo : lo + _BLOCK + 1]
        span = slice(ptr[0], ptr[-1])
        yield np.repeat(np.arange(lo, lo + len(ptr) - 1), np.diff(ptr)), indices[span], data[span]


def _over_states(oracle: StateSpaceOracle, quantity) -> np.ndarray:
    # quantity((load, counts)) of every state, a block at a time (see game._bulk).
    values = [np.zeros(0)]
    for lo in range(0, len(oracle), _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        counts = [sp.counts[oracle.split_of(x, rows)] for x, sp in enumerate(oracle.splits)]
        wide = oracle.load[rows].astype(np.int64), np.hstack(counts).astype(np.int64)
        values.append(quantity(wide))  # int64, so no product wraps
    return np.concatenate(values)


def stationary_exact(oracle: StateSpaceOracle, params: GameParams, gamma: float) -> np.ndarray:
    """Closed-form stationary law: combinatorial weight times exp(gamma *
    potential), normalized in log space.

    The law is stationary on any instance and unique under the strict
    covering condition, which ``verify`` reports.
    """
    _check_gamma(gamma, finite=True)
    inst = oracle.inst
    if not len(oracle):
        raise ValueError("the instance has no full allocation state: it is infeasible")
    logs = _over_states(
        oracle,
        lambda s: game.log_multinomial_weight(inst, s)
        + _times_gamma(gamma, game.potential(inst, params, s)),
    )
    logs -= logs.max()
    weights = np.exp(logs)
    return weights / weights.sum()


def stationarity_residual(oracle: StateSpaceOracle, mu: np.ndarray) -> float:
    """Max-norm of mu P - mu."""
    flow = -mu
    for i, j, p in _kernel_blocks(oracle):
        flow += np.bincount(j, mu[i] * p, minlength=len(mu))
    return float(np.abs(flow).max())


def detailed_balance_max_violation(oracle: StateSpaceOracle, mu: np.ndarray) -> float:
    """Max over transition pairs of |mu_i P_ij - mu_j P_ji|, a block of rows
    at a time: each P_ji found by bisection of row j's ascending columns, all
    of the block's searches in step (a missing P_ji reads 0.0)."""
    kernel = _kernel(oracle)
    rounds = int(np.diff(kernel.indptr).max(initial=1) - 1).bit_length()
    return max((_balance_gap(kernel, rounds, mu, *b) for b in _kernel_blocks(oracle)), default=0.0)


def _balance_gap(kernel: Kernel, rounds: int, mu: np.ndarray, i, j, p) -> float:
    # The violation over one block's entries; its temporaries die with the call.
    indptr, indices, data = kernel
    at = indptr[j]
    size = indptr[j + 1] - at  # every row holds its diagonal, so at + half < its end
    for _ in range(rounds):  # at: the last column of row j below i, else the row's first
        half = size >> 1
        size -= half
        half *= indices.take(at + half) < i
        at += half
    at += indices.take(at) < i  # the first column at or after i, or the row's end
    back = data.take(at, mode="clip")  # P_ji, and below 0.0 where row j has no column i
    back *= mu[j] * ((at < indptr[j + 1]) & (indices.take(at, mode="clip") == i))
    return float(np.abs(mu[i] * p - back).max(initial=0.0))  # the diagonal finds itself: 0.0


def is_support_connected(oracle: StateSpaceOracle) -> bool:
    """Whether the transition support graph on full states is one component
    (every state reachable from the first), by a frontier search in blocks."""
    indptr, indices, _ = _kernel(oracle)
    seen = np.zeros(len(oracle), dtype=bool)
    frontier = np.zeros(min(len(oracle), 1), dtype=np.int64)
    seen[frontier] = True
    while frontier.size:
        reached = np.zeros(len(oracle), dtype=bool)
        for lo in range(0, len(frontier), _BLOCK):
            f = frontier[lo : lo + _BLOCK]
            starts, sizes = indptr[f], indptr[f + 1] - indptr[f]
            offsets = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            reached[indices[np.repeat(starts, sizes) + offsets]] = True
        frontier = np.flatnonzero(reached & ~seen)
        seen[frontier] = True
    return bool(seen.all())


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


@dataclass(eq=False)
class EmpiricalResult:
    frequencies: np.ndarray
    tv_distance: float
    steps: int


def _edge_weights(inst: Instance) -> tuple[list[dict[int, int]], int]:
    # The running state code's place value of each edge x -> y (base
    # alpha_x + 1, unit 0's edges the least significant), and its radix.
    weights, radix = [], 1
    for x, a in enumerate(inst.alpha):
        out = inst.topology.out_neighbors(x)
        weights.append({y: radix * (a + 1) ** k for k, y in enumerate(out)})
        radix *= (a + 1) ** len(out)
    return weights, radix


def sample_chain(
    inst: Instance,
    params: GameParams,
    gamma: float,
    steps: int,
    burn_in: int = 0,
    seed: int = 0,
) -> dict[int, int]:
    """The engine half of ``empirical_distribution``: one run of the real
    dynamics engine at fixed gamma, tallied as {state code: visits}.

    The run starts empty and must place every atom within 50 * total demand
    steps; it then discards the next ``burn_in`` steps and counts the state
    after each of the ``steps`` steps that follow.  Per step it moves the
    cheapest running code, a place value per edge, and tallies it in a
    dict; ``tally_frequencies`` turns the codes into states.  A function of
    plain values, so a process pool can run chains side by side.
    """
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be nonnegative, got {burn_in}")
    if inst.total_alpha == 0:
        raise ValueError("no unit has demand: the dynamics takes no step to sample")
    cap = 50 * inst.total_alpha
    schedule = dynamics.GammaSchedule.fixed(gamma)
    config = dynamics.SimConfig(inst, params, schedule, horizon=cap + burn_in + steps, seed=seed)
    completed, state, stream = dynamics.place_all(config, cap)
    if not completed:
        raise ValueError(f"the dynamics did not place every atom within {cap} steps")
    next(islice(stream, burn_in, burn_in), None)  # discard burn_in steps
    weights, _ = _edge_weights(inst)
    code = sum(c * weights[x][y] for x, y, c in state.key())
    tally: dict[int, int] = {}
    for _t, x, (source, dest) in islice(stream, steps):  # relocations only
        code += weights[x][dest] - weights[x][source]
        tally[code] = tally.get(code, 0) + 1
    return tally


def tally_frequencies(oracle: StateSpaceOracle, tally: dict[int, int]) -> np.ndarray:
    """The oracle half of ``empirical_distribution``: the share of a
    ``sample_chain`` tally in each of the oracle's states, zeros included.
    The codes turn into slot counts, split codes and positions at once."""
    weights, radix = _edge_weights(oracle.inst)
    seen, split_code = np.array(list(tally), dtype=np.int64 if radix < 2**63 else object), 0
    for wx, a, sp, stride in zip(weights, oracle.inst.alpha, oracle.splits, oracle.strides):
        digits = np.array([seen // w % (a + 1) for w in wx.values()], dtype=np.int64)
        split_code = split_code + sp.rank(digits.reshape(len(wx), len(seen)).T) * stride
    counts = np.zeros(len(oracle))
    counts[oracle.position[split_code]] = list(tally.values())
    return counts / sum(tally.values())


def empirical_distribution(
    oracle: StateSpaceOracle,
    params: GameParams,
    gamma: float,
    steps: int,
    burn_in: int = 0,
    seed: int = 0,
) -> EmpiricalResult:
    """Long-run occupancy of one chain of the real dynamics engine at fixed
    gamma (``sample_chain``), compared to the closed-form stationary law by
    total variation."""
    mu = stationary_exact(oracle, params, gamma)
    tally = sample_chain(oracle.inst, params, gamma, steps, burn_in, seed)
    freqs = tally_frequencies(oracle, tally)
    return EmpiricalResult(freqs, total_variation(freqs, mu), steps)


def _argmax_states(oracle: StateSpaceOracle, values: np.ndarray) -> tuple[float, list[tuple]]:
    # The maximum of values over full states, with the keys within TIE_TOL of it.
    best = float(values.max(initial=-math.inf))
    return best, [oracle.states[i] for i in np.flatnonzero(values >= best - TIE_TOL)]


def max_potential_bruteforce(
    oracle: StateSpaceOracle, params: GameParams
) -> tuple[float, list[tuple]]:
    """Exact maximum of the potential over full states, with argmax keys."""
    return _argmax_states(
        oracle, _over_states(oracle, lambda s: game.potential(oracle.inst, params, s))
    )


def max_global_utility_bruteforce(
    oracle: StateSpaceOracle, params: GameParams
) -> tuple[float, list[tuple]]:
    """Exact maximum of the global utility over full states."""
    return _argmax_states(
        oracle, _over_states(oracle, lambda s: game.global_utility(oracle.inst, params, s))
    )


def greedy_utility_bound(inst: Instance, params: GameParams) -> float:
    """Upper bound on the best global utility, by greedy marginal filling.

    With k_a = 0 the global utility depends only on resource loads and the
    per-slot marginal gains decrease, so filling the best slots first
    solves the graph-relaxed problem exactly.  A k_a > 0 term is bounded
    by letting every unit stack all atoms in one resource.
    """
    total = inst.total_alpha
    if total == 0:
        return 0.0
    beta, lam = np.array(inst.beta), np.array(inst.reliability)
    slots, end = np.empty(inst.total_beta), 0  # one marginal per slot, a block per capacity b
    for b in sorted(set(inst.beta) - {0}):  # not np.unique, which imports numpy.ma
        block = slots[end : end + b * inst.beta.count(b)].reshape(-1, b)
        np.subtract(lam[beta == b][:, None], params.k_c * (2 * np.arange(1, b + 1) - 1) / b, out=block)
        end += block.size
    slots.sort()
    top = slots[::-1][:total]  # every slot, when capacity falls short of demand
    bound = float(top.cumsum(out=top)[-1]) if len(top) else 0.0  # left to right, as sum() before 3.12
    if params.k_a:
        for x in range(inst.n):
            a = inst.alpha[x]
            caps = [inst.beta[y] for y in inst.topology.out_neighbors(x)]
            if a and caps:
                bound += params.k_a * a * min(a, max(caps))
    return bound


def compute_rho(inst: Instance, params: GameParams, state) -> tuple[float | None, str]:
    """Global-utility ratio of one state (an AllocationState or its vectors,
    see ``game._bulk``) to the greedy upper bound on the best achievable,
    tagged "surrogate".  It may exceed 1 when utilities are
    negative; it is None when the bound is 0 and the utility is not."""
    value = game.global_utility(inst, params, state)
    best = greedy_utility_bound(inst, params)
    if best == 0.0:
        return (1.0 if value == 0.0 else None), "surrogate"
    return value / best, "surrogate"


@dataclass(eq=False)
class MetricsReport:
    """Run summary indices, class-resolved ones least reliable class first
    (classes_by_reliability); rho and rho_tag are None for an incomplete run."""

    nu_moves: float
    lambda_mean: float
    lambda_var: float
    congestion_mean: tuple[float, ...]
    congestion_var: tuple[float, ...]
    d_out: float
    d_in: tuple[float, ...]
    rho: float | None
    rho_tag: str | None

    def to_row(self) -> dict:
        row: dict[str, float | str | None] = {
            "nu_moves": self.nu_moves,
            "lambda_mean": self.lambda_mean,
            "lambda_var": self.lambda_var,
        }
        for i, (mean, var) in enumerate(zip(self.congestion_mean, self.congestion_var), 1):
            row[f"c{i}_mean"] = mean
            row[f"c{i}_var"] = var
        row["d_out"] = self.d_out
        for i, value in enumerate(self.d_in, 1):
            row[f"d_in_{i}"] = value
        row["rho"] = self.rho
        row["rho_tag"] = self.rho_tag
        return row


def classes_by_reliability(inst: Instance) -> list[list[int]]:
    """Partition units into reliability classes, least reliable first."""
    levels = sorted(set(inst.reliability))
    return [[y for y in range(inst.n) if inst.reliability[y] == level] for level in levels]


def state_metrics(inst: Instance, state) -> tuple:
    """The table's state metrics, in MetricsReport's field order: the mean
    and variance over units with demand of their satisfaction (the mean
    reliability of their atoms); per class of classes_by_reliability, its
    atoms over its capacity (0 with none) and the variance about that of its
    members' fill fractions (members of capacity 0 left out); used edges
    per unit (d_out); per class, used edges into it per member (d_in).
    ``state`` as for ``game.potential``: a float each for one state, an
    array each for the arrays of many states."""
    load, counts, single = game._bulk(inst, state)
    units, resources = game._edges(inst)
    lam, alpha = np.array(inst.reliability), np.array(inst.alpha)
    active = alpha > 0
    satisfaction = np.zeros((len(counts), inst.n))
    np.add.at(satisfaction, (slice(None), units), counts * lam[resources])
    satisfaction = satisfaction[:, active] / alpha[active]
    k = max(int(active.sum()), 1)
    lam_mean = satisfaction.sum(axis=-1) / k
    lam_var = ((satisfaction - lam_mean[:, None]) ** 2).sum(axis=-1) / k
    used = counts > 0
    used_into = np.zeros(load.shape, dtype=np.int64)  # used edges into each resource
    np.add.at(used_into, (slice(None), resources), used)
    c_mean, c_var, d_in = [], [], []
    for members in classes_by_reliability(inst):
        beta = np.array([inst.beta[y] for y in members])
        c_mean.append(load[:, members].sum(axis=-1) / max(beta.sum(), 1))
        fills = load[:, members][:, beta > 0] / beta[beta > 0]
        c_var.append(((fills - c_mean[-1][:, None]) ** 2).sum(axis=-1) / max(fills.shape[1], 1))
        d_in.append(used_into[:, members].sum(axis=-1) / len(members))
    d_out = used.sum(axis=-1) / inst.n

    def value(v):
        return float(v[0]) if single else v

    c_mean, c_var, d_in = (tuple(map(value, vs)) for vs in (c_mean, c_var, d_in))
    return value(lam_mean), value(lam_var), c_mean, c_var, value(d_out), d_in


def compute_metrics(
    inst: Instance, params: GameParams, result: dynamics.RunResult
) -> MetricsReport:
    """All run indices: moves per atom (over units with demand) from the
    per-unit move counters, the final state's ``state_metrics``, and rho,
    scored only for a completed run."""
    active = [x for x in range(inst.n) if inst.alpha[x] > 0]
    nu = sum(result.moves_per_unit[x] / inst.alpha[x] for x in active) / max(len(active), 1)
    load, counts, _ = game._bulk(inst, result.final_state)  # read once, scored twice
    state = load[0], counts[0]
    rho, rho_tag = compute_rho(inst, params, state) if result.completed else (None, None)
    return MetricsReport(nu, *state_metrics(inst, state), rho, rho_tag)
