"""Metrics and exact small-instance oracles.

The oracle side enumerates every full allocation state, builds the exact
one-step transition kernel of the relocation chain, and checks the
closed-form stationary law (combinatorial weight times the exponential of
the potential) against it: detailed balance pair by pair, stationarity
residual, support connectivity, and long-run occupancy.

The metrics side turns a finished run into the standard report: moves per
atom, satisfaction, per-class congestion, support-subgraph degrees, and
the global utility ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, groupby, islice

import numpy as np

from . import dynamics, game
from .game import TIE_TOL, AllocationState, GameParams, _check_gamma, _choice, _gibbs_weights
from .topology import Instance

__all__ = [
    "EmpiricalResult",
    "MetricsReport",
    "StateSpaceOracle",
    "StateSpaceTooLarge",
    "build_transition_matrix",
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
    "state_from_key",
    "stationarity_residual",
    "stationary_exact",
    "total_variation",
]

STATE_SPACE_LIMIT = 1_000_000


class StateSpaceTooLarge(ValueError):
    """Estimated number of full states exceeds the enumeration guard."""


@dataclass(eq=False)
class StateSpaceOracle:
    """Exhaustive view of the full allocation states of one instance.

    ``states`` holds canonical state keys (sorted nonzero (x, y, count)
    triples); ``index`` maps each key, and ``code_index`` each state's
    integer ``code``, to its position; ``transition`` (filled by
    build_transition_matrix) holds one sparse row per state.
    """

    inst: Instance
    states: list[tuple]
    index: dict[tuple, int] = field(init=False)
    code_weight: list[dict[int, int]] = field(init=False)
    code_index: dict[int, int] = field(init=False)
    transition: list[dict[int, float]] | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.index = {key: i for i, key in enumerate(self.states)}
        self.code_weight, radix = [], 1
        for x, a in enumerate(self.inst.alpha):
            out = self.inst.topology.out_neighbors(x)
            self.code_weight.append({y: radix * (a + 1) ** k for k, y in enumerate(out)})
            radix *= (a + 1) ** len(out)
        self.code_index = {self.code(key): i for i, key in enumerate(self.states)}

    def __len__(self) -> int:
        return len(self.states)

    def code(self, entries) -> int:
        """Mixed-radix code over the edges (base alpha_x + 1): injective on states."""
        return sum(c * self.code_weight[x][y] for x, y, c in entries)


def state_from_key(inst: Instance, key: tuple) -> AllocationState:
    return AllocationState.from_entries(inst, key)


def _estimate_states(inst: Instance) -> int:
    estimate = 1
    for x in range(inst.n):
        deg = len(inst.topology.out_neighbors(x))
        a = inst.alpha[x]
        if a == 0:
            continue
        if deg == 0:
            return 0
        estimate *= math.comb(a + deg - 1, deg - 1)
        if estimate > STATE_SPACE_LIMIT:
            return estimate
    return estimate


def enumerate_states(inst: Instance) -> StateSpaceOracle:
    """Exhaustively enumerate the full allocation states.

    The pre-check bounds the state count by the product of per-unit
    placement counts (capacities ignored), so it never underestimates.
    Unit by unit, each partial state takes every split of the unit's atoms
    over its out-neighbours that fits the room left, the largest count on
    the first out-neighbour first.
    """
    estimate = _estimate_states(inst)
    if estimate > STATE_SPACE_LIMIT:
        raise StateSpaceTooLarge(
            f"state space estimate {estimate} exceeds the limit {STATE_SPACE_LIMIT}"
        )
    beta = inst.beta
    partial = [((), (0,) * inst.n)]  # entries placed so far, and the load they make
    for x in range(inst.n):
        # Sorted picks of a target per atom, in lexicographic order, are the
        # splits with the largest count on the first target first.
        picks = combinations_with_replacement(inst.topology.out_neighbors(x), inst.alpha[x])
        splits = [tuple((x, y, len(list(run))) for y, run in groupby(p)) for p in picks]
        grown = []
        for entries, load in partial:
            for split in splits:
                if all(load[y] + c <= beta[y] for _, y, c in split):
                    new = list(load)
                    for _, y, c in split:
                        new[y] += c
                    grown.append((entries + split, tuple(new)))
        partial = grown
    # Entries come out in (unit, out-neighbour) order: already sorted keys.
    return StateSpaceOracle(inst, [entries for entries, _ in partial])


def build_transition_matrix(
    oracle: StateSpaceOracle, params: GameParams, gamma: float
) -> StateSpaceOracle:
    """Exact one-step kernel of the chain restricted to full states.

    On full states every activation is a relocation, so both move-kind
    variants induce the same kernel; self-moves and saturation contribute
    the diagonal.  Each neighbour state is found by its integer code.
    Requires a finite positive gamma.
    """
    _check_gamma(gamma, finite=True)
    inst = oracle.inst
    total_alpha = inst.total_alpha
    rows: list[dict[int, float]] = []
    for i, key in enumerate(oracle.states):
        state = state_from_key(inst, key)
        code = oracle.code(key)
        row_probs: dict[int, float] = {}
        for x in range(inst.n):
            a = inst.alpha[x]
            if a == 0:
                continue
            p_wake = a / total_alpha
            wx = oracle.code_weight[x]
            for source, c in state.counts[x].items():
                p_source = c / a
                cands, utils = _choice(inst, params, state, x, source)
                exps = _gibbs_weights(utils, gamma)
                norm = sum(exps)
                base = code - wx[source]
                for y, w in zip(cands, exps):
                    p = p_wake * p_source * w / norm
                    j = i if y == source else oracle.code_index[base + wx[y]]
                    row_probs[j] = row_probs.get(j, 0.0) + p
        rows.append(row_probs or {i: 1.0})  # no demand: the chain stands still
    oracle.transition = rows
    return oracle


def stationary_exact(
    oracle: StateSpaceOracle, params: GameParams, gamma: float
) -> np.ndarray:
    """Closed-form stationary law: combinatorial weight times exp(gamma *
    potential), normalized in log space.

    The law is stationary on any instance and unique under the strict
    covering condition, which ``verify`` reports.
    """
    _check_gamma(gamma, finite=True)
    inst = oracle.inst
    if not oracle.states:
        raise ValueError("the instance has no full allocation state: it is infeasible")
    logs = np.empty(len(oracle.states))
    for i, key in enumerate(oracle.states):
        state = state_from_key(inst, key)
        logs[i] = game.log_multinomial_weight(inst, state) + gamma * game.potential(
            inst, params, state
        )
    logs -= logs.max()
    weights = np.exp(logs)
    return weights / weights.sum()


def stationarity_residual(oracle: StateSpaceOracle, mu: np.ndarray) -> float:
    """Max-norm of mu P - mu."""
    if oracle.transition is None:
        raise ValueError("build the transition matrix first")
    out = -mu.copy()
    for i, row in enumerate(oracle.transition):
        mi = mu[i]
        for j, p in row.items():
            out[j] += mi * p
    return float(np.abs(out).max())


def detailed_balance_max_violation(oracle: StateSpaceOracle, mu: np.ndarray) -> float:
    """Max over transition pairs of |mu_i P_ij - mu_j P_ji|."""
    if oracle.transition is None:
        raise ValueError("build the transition matrix first")
    worst = 0.0
    for i, row in enumerate(oracle.transition):
        for j, p in row.items():
            if j == i:
                continue
            back = oracle.transition[j].get(i, 0.0)
            gap = abs(mu[i] * p - mu[j] * back)
            if gap > worst:
                worst = gap
    return worst


def is_support_connected(oracle: StateSpaceOracle) -> bool:
    """Whether the transition support graph on full states is one component."""
    if oracle.transition is None:
        raise ValueError("build the transition matrix first")
    m = len(oracle.states)
    if m <= 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in oracle.transition[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == m


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


@dataclass(eq=False)
class EmpiricalResult:
    frequencies: np.ndarray
    stationary: np.ndarray
    tv_distance: float
    steps: int


def empirical_distribution(
    oracle: StateSpaceOracle,
    params: GameParams,
    gamma: float,
    steps: int,
    burn_in: int = 0,
    seed: int = 0,
) -> EmpiricalResult:
    """Long-run occupancy of the real dynamics engine at fixed gamma,
    compared to the closed-form stationary law by total variation.

    The run starts empty and must place every atom within 50 * total demand
    steps; it then discards the next ``burn_in`` steps and counts the state
    after each of the ``steps`` steps that follow.
    """
    _check_gamma(gamma, finite=True)
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be nonnegative, got {burn_in}")
    inst = oracle.inst
    remaining = inst.total_alpha
    if remaining == 0:
        raise ValueError("no unit has demand: the dynamics takes no step to sample")
    mu = stationary_exact(oracle, params, gamma)
    cap = 50 * remaining
    config = dynamics.SimConfig(
        instance=inst,
        params=params,
        schedule=dynamics.GammaSchedule.fixed(gamma),
        horizon=cap + burn_in + steps,
        seed=seed,
    )
    state = AllocationState.zeros(inst)
    stream = dynamics._engine(config, state)
    for _t, _x, drawn in islice(stream, cap):
        if drawn is not None and drawn[0] is None:
            remaining -= 1
            if remaining == 0:
                break
    else:
        raise ValueError(f"the dynamics did not place every atom within {cap} steps")
    next(islice(stream, burn_in, burn_in), None)  # discard burn_in steps
    code = oracle.code(state.key())
    w, code_index = oracle.code_weight, oracle.code_index
    counts = np.zeros(len(oracle.states))
    for _t, x, (source, dest) in islice(stream, steps):  # relocations only
        code += w[x][dest] - w[x][source]
        counts[code_index[code]] += 1
    freqs = counts / steps
    return EmpiricalResult(freqs, mu, total_variation(freqs, mu), steps)


def _argmax_states(oracle: StateSpaceOracle, value) -> tuple[float, list[tuple]]:
    # Exact maximum of value(state) over full states, with the keys within TIE_TOL of it.
    values = [value(state_from_key(oracle.inst, key)) for key in oracle.states]
    best = max(values, default=-math.inf)
    return best, [key for key, v in zip(oracle.states, values) if v >= best - TIE_TOL]


def max_potential_bruteforce(
    oracle: StateSpaceOracle, params: GameParams
) -> tuple[float, list[tuple]]:
    """Exact maximum of the potential over full states, with argmax keys."""
    return _argmax_states(oracle, lambda s: game.potential(oracle.inst, params, s))


def max_global_utility_bruteforce(
    oracle: StateSpaceOracle, params: GameParams
) -> tuple[float, list[tuple]]:
    """Exact maximum of the global utility over full states."""
    return _argmax_states(oracle, lambda s: game.global_utility(oracle.inst, params, s))


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
    marginals: list[float] = []
    for y in range(inst.n):
        b = inst.beta[y]
        for s in range(1, b + 1):
            marginals.append(inst.reliability[y] - params.k_c * (2 * s - 1) / b)
    marginals.sort(reverse=True)
    if len(marginals) < total:
        # Not enough capacity anywhere; bound with what exists.
        bound = sum(marginals)
    else:
        bound = sum(marginals[:total])
    if params.k_a:
        for x in range(inst.n):
            a = inst.alpha[x]
            caps = [inst.beta[y] for y in inst.topology.out_neighbors(x)]
            if a and caps:
                bound += params.k_a * a * min(a, max(caps))
    return bound


def compute_rho(
    inst: Instance,
    params: GameParams,
    state: AllocationState,
    oracle: StateSpaceOracle | None = None,
) -> tuple[float | None, str]:
    """Global-utility ratio of a final state against the best achievable.

    With an oracle the maximum is exact; otherwise the greedy upper bound
    stands in and the ratio is tagged "surrogate" (it may exceed 1 when
    utilities are negative, and is conservative when positive).
    """
    value = game.global_utility(inst, params, state)
    if oracle is not None:
        best, _ = max_global_utility_bruteforce(oracle, params)
        tag = "exact"
    else:
        best = greedy_utility_bound(inst, params)
        tag = "surrogate"
    if best == 0.0:
        return (1.0, tag) if value == 0.0 else (None, tag)
    return value / best, tag


@dataclass(eq=False)
class MetricsReport:
    """Run summary indices; class-resolved entries follow the reliability
    classes of classes_by_reliability, least reliable first."""

    nu_moves: float
    lambda_mean: float
    lambda_var: float
    congestion_mean: tuple[float, ...]
    congestion_var: tuple[float, ...]
    d_out: float
    d_in: tuple[float, ...]
    rho: float | None = None
    rho_tag: str | None = None

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


def compute_metrics(
    inst: Instance,
    params: GameParams,
    result: dynamics.RunResult,
) -> MetricsReport:
    """All run indices from the final state and per-unit move counters,
    for a completed run or not.

    Units with zero demand are excluded from per-unit averages.  Class
    congestion is the fill fraction of the class's total capacity.
    """
    state = result.final_state
    lam = inst.reliability
    active = [x for x in range(inst.n) if inst.alpha[x] > 0]
    if active:
        nu = sum(result.moves_per_unit[x] / inst.alpha[x] for x in active) / len(active)
        satisfaction = [
            sum(c * lam[y] for y, c in state.counts[x].items()) / inst.alpha[x]
            for x in active
        ]
        lam_mean = sum(satisfaction) / len(active)
        lam_var = sum((s - lam_mean) ** 2 for s in satisfaction) / len(active)
    else:
        nu = 0.0
        lam_mean = 0.0
        lam_var = 0.0

    c_mean = []
    c_var = []
    d_in = []
    for members in classes_by_reliability(inst):
        capacity = sum(inst.beta[y] for y in members)
        held = sum(state.load[y] for y in members)
        c_mean.append(held / capacity if capacity else 0.0)
        fills = [state.load[y] / inst.beta[y] for y in members if inst.beta[y] > 0]
        if fills:
            mean_fill = c_mean[-1]
            c_var.append(sum((f - mean_fill) ** 2 for f in fills) / len(fills))
        else:
            c_var.append(0.0)
        member_set = set(members)
        used_edges = sum(
            1 for x in range(inst.n) for y in state.counts[x] if y in member_set
        )
        d_in.append(used_edges / len(members) if members else 0.0)

    support_edges = sum(len(row) for row in state.counts)
    d_out = support_edges / inst.n

    return MetricsReport(
        nu_moves=nu,
        lambda_mean=lam_mean,
        lambda_var=lam_var,
        congestion_mean=tuple(c_mean),
        congestion_var=tuple(c_var),
        d_out=d_out,
        d_in=tuple(d_in),
    )
