import math
import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from p2pstorage import dynamics, feasibility, game
from p2pstorage.analysis import (
    StateSpaceTooLarge,
    build_transition_matrix,
    classes_by_reliability,
    compute_metrics,
    compute_rho,
    detailed_balance_max_violation,
    empirical_distribution,
    enumerate_states,
    greedy_utility_bound,
    is_support_connected,
    max_global_utility_bruteforce,
    max_potential_bruteforce,
    state_from_key,
    stationarity_residual,
    stationary_exact,
    total_variation,
)
from p2pstorage.dynamics import GammaSchedule, RunResult, SimConfig, run
from p2pstorage.game import ALLOCATION, AllocationState, GameParams
from p2pstorage.topology import Instance, Topology, build_complete, build_line


def make(topo, alpha, beta, lam):
    return Instance(topo, alpha, beta, lam)


def eight_state_instance(lam=(1.0, 1.0, 1.0)):
    return make(build_complete(3), (1, 1, 1), (2, 2, 2), lam)


DESK_INSTANCES = [
    # (instance, params, gamma) with the strict covering condition holding
    (eight_state_instance(), GameParams(0.0, 0.0), 1.0),
    (eight_state_instance((0.5, 0.8, 0.6)), GameParams(1.0, 0.0), 1.3),
    (eight_state_instance((0.5, 0.8, 0.6)), GameParams(1.0, 0.45), 2.0),
    (make(build_complete(3), (2, 2, 2), (3, 3, 3), (0.4, 1.0, 0.7)), GameParams(1.0, 0.45), 1.0),
    (make(build_line(4), (1, 1, 1, 1), (2, 2, 2, 2), (0.5, 0.8, 0.5, 0.8)), GameParams(1.0, 0.0), 2.5),
    (make(build_complete(4), (2, 1, 1, 2), (2, 2, 2, 2), (0.5, 0.8, 0.8, 0.5)), GameParams(1.0, 0.25), 1.5),
]


# ------------------------------------------------------------- enumeration


def test_enumerate_forced_single_state():
    inst = make(build_complete(2), (1, 1), (1, 1), (1.0, 1.0))
    oracle = enumerate_states(inst)
    assert oracle.states == [((0, 1, 1), (1, 0, 1))]


def test_enumerate_eight_states():
    oracle = enumerate_states(eight_state_instance())
    assert len(oracle) == 8
    for key in oracle.states:
        state = state_from_key(oracle.inst, key)
        state.validate(oracle.inst)
        assert state.is_full(oracle.inst)


def test_enumerate_infeasible_is_empty():
    inst = make(build_complete(3), (2, 1, 1), (1, 1, 1), (1.0,) * 3)
    assert len(enumerate_states(inst)) == 0


def test_enumerate_directed_ring_has_one_state():
    # Each unit's only out-neighbour is the next one, so the one full state
    # places every atom there, 400 units in a row.
    n = 400
    ring = Topology(n, frozenset((x, (x + 1) % n) for x in range(n)))
    oracle = enumerate_states(make(ring, (1,) * n, (1,) * n, (1.0,) * n))
    assert oracle.states == [tuple((x, (x + 1) % n, 1) for x in range(n))]


def test_no_full_state_is_a_typed_error():
    oracle = enumerate_states(make(build_complete(3), (2, 2, 2), (1, 1, 1), (1.0,) * 3))
    params = GameParams(1.0, 0.0)
    with pytest.raises(ValueError, match="no full allocation state"):
        stationary_exact(oracle, params, 1.0)
    with pytest.raises(ValueError, match="no full allocation state"):
        empirical_distribution(oracle, params, 1.0, steps=10)


def test_enumerate_guard():
    inst = make(build_complete(12), (10,) * 12, (20,) * 12, (1.0,) * 12)
    with pytest.raises(StateSpaceTooLarge):
        enumerate_states(inst)


def test_enumerate_matches_independent_product_count():
    # capacity 3 never binds for unit demands on complete_4, so the count
    # is exactly 3^4
    inst = make(build_complete(4), (1, 1, 1, 1), (3, 3, 3, 3), (1.0,) * 4)
    assert len(enumerate_states(inst)) == 3 ** 4


# ------------------------------------------------------------------ kernel


def test_kernel_rows_sum_to_one():
    for inst, params, gamma in DESK_INSTANCES:
        oracle = enumerate_states(inst)
        build_transition_matrix(oracle, params, gamma)
        for row in oracle.transition:
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)


def test_kernel_single_state_space():
    inst = make(build_complete(2), (1, 1), (1, 1), (1.0, 1.0))
    oracle = enumerate_states(inst)
    build_transition_matrix(oracle, GameParams(1.0, 0.0), 1.0)
    assert oracle.transition == [{0: 1.0}]


def test_kernel_symmetric_instance_uniform_stationary():
    oracle = enumerate_states(eight_state_instance())
    params = GameParams(0.0, 0.0)
    build_transition_matrix(oracle, params, 3.7)
    mu = stationary_exact(oracle, params, 3.7)
    assert np.allclose(mu, 1.0 / 8)
    assert stationarity_residual(oracle, mu) <= 1e-12


def test_kernel_entry_matches_hand_formula():
    # one-step probability of a specific relocation: wake the unit, pick
    # the source pile, then the Gibbs factor at the post-move state
    inst = eight_state_instance((0.5, 0.8, 0.6))
    params = GameParams(1.0, 0.45)
    gamma = 1.7
    oracle = enumerate_states(inst)
    build_transition_matrix(oracle, params, gamma)
    w = AllocationState.from_entries(inst, [(0, 1, 1), (1, 0, 1), (2, 0, 1)])
    w2 = AllocationState.from_entries(inst, [(0, 2, 1), (1, 0, 1), (2, 0, 1)])
    i, j = oracle.index[w.key()], oracle.index[w2.key()]
    # unit 0 wakes with probability 1/3, its single pile is the source:
    # candidates after removing it are resources 1 and 2, each then
    # holding one atom of 2 (its own, for aggregation)
    u1 = 0.8 - 1.0 * 1 / 2 + 0.45 * 1
    u2 = 0.6 - 1.0 * 1 / 2 + 0.45 * 1
    z = math.exp(gamma * u1) + math.exp(gamma * u2)
    expected = (1 / 3) * 1.0 * math.exp(gamma * u2) / z
    assert oracle.transition[i][j] == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------- stationary law, balance


def test_detailed_balance_and_residual_on_desk_instances():
    for inst, params, gamma in DESK_INSTANCES:
        assert feasibility.check_strict(inst).feasible
        oracle = enumerate_states(inst)
        build_transition_matrix(oracle, params, gamma)
        mu = stationary_exact(oracle, params, gamma)
        assert detailed_balance_max_violation(oracle, mu) <= 1e-10
        assert stationarity_residual(oracle, mu) <= 1e-10
        assert is_support_connected(oracle)


@pytest.mark.filterwarnings("error")
def test_oracles_emit_no_warnings_on_a_non_strict_frozen_chain():
    # K3 with one slot per unit is not strict, and once full its chain never
    # moves: the law is still stationary, and the sampler sees one state.
    # verify reports both facts; the oracles only compute.
    inst = make(build_complete(3), (1, 1, 1), (1, 1, 1), (1.0,) * 3)
    assert not feasibility.check_strict(inst).feasible
    oracle = enumerate_states(inst)
    params = GameParams(1.0, 0.0)
    build_transition_matrix(oracle, params, 1.0)
    mu = stationary_exact(oracle, params, 1.0)
    assert np.allclose(mu, [0.5, 0.5])
    assert stationarity_residual(oracle, mu) <= 1e-12
    result = empirical_distribution(oracle, params, gamma=1.0, steps=50, seed=1)
    assert sorted(result.frequencies) == [0.0, 1.0]


def test_stationary_concentrates_on_potential_argmax():
    # at large gamma the law converges to multinomial weights on the
    # argmax set of the potential
    inst = eight_state_instance((0.5, 0.8, 0.6))
    params = GameParams(1.0, 0.0)
    oracle = enumerate_states(inst)
    mu = stationary_exact(oracle, params, 50.0)
    _best, argmax = max_potential_bruteforce(oracle, params)
    weights = np.zeros(len(oracle))
    for key in argmax:
        weights[oracle.index[key]] = game.multinomial_weight(
            inst, state_from_key(inst, key)
        )
    limit = weights / weights.sum()
    assert total_variation(mu, limit) < 0.01


# ---------------------------------------------------------------- sampling


def test_total_variation_basics():
    p = np.array([0.5, 0.5, 0.0])
    q = np.array([0.0, 0.0, 1.0])
    assert total_variation(p, p) == 0.0
    assert total_variation(p, q) == pytest.approx(1.0)


def test_empirical_distribution_converges():
    oracle = enumerate_states(eight_state_instance((0.5, 0.8, 0.6)))
    params = GameParams(1.0, 0.0)
    build_transition_matrix(oracle, params, 1.0)
    result = empirical_distribution(
        oracle, params, gamma=1.0, steps=200_000, burn_in=2_000, seed=3
    )
    assert result.tv_distance < 0.05
    assert result.frequencies.sum() == pytest.approx(1.0)


def _empirical_counts(oracle, params, steps, burn_in, seed=5):
    result = empirical_distribution(oracle, params, 1.0, steps=steps, burn_in=burn_in, seed=seed)
    counts = np.rint(result.frequencies * steps)
    assert result.steps == steps and counts.sum() == steps
    return counts


@pytest.mark.parametrize("burn_in", [1, 5])
def test_empirical_burn_in_discards_exactly_that_many_steps(burn_in):
    # The first burn_in samples of a run without burn-in, plus the samples
    # of the run that discards them, are the samples of the longer run.
    oracle = enumerate_states(eight_state_instance((0.5, 0.8, 0.6)))
    params = GameParams(1.0, 0.0)
    head = _empirical_counts(oracle, params, burn_in, 0)
    tail = _empirical_counts(oracle, params, 40, burn_in)
    whole = _empirical_counts(oracle, params, burn_in + 40, 0)
    assert np.array_equal(head + tail, whole)


@st.composite
def small_oracles(draw):
    """The full states of a small instance (n <= 5, alpha <= 3), feasible
    by construction: each unit places up to three atoms on its
    out-neighbours, and each resource offers that load plus 0 or 1 slot."""
    n = draw(st.integers(2, 5))
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    topo = Topology(n, frozenset(draw(st.sets(st.sampled_from(pairs), min_size=1))))
    alpha, load = [0] * n, [0] * n
    for x in range(n):
        if topo.out_neighbors(x):
            for y in draw(st.lists(st.sampled_from(topo.out_neighbors(x)), max_size=3)):
                alpha[x] += 1
                load[y] += 1
    beta = [w + draw(st.integers(0, 1)) for w in load]
    lam = draw(st.lists(st.sampled_from([0.3, 0.5, 0.8, 1.0]), min_size=n, max_size=n))
    try:
        return enumerate_states(make(topo, alpha, beta, lam))
    except StateSpaceTooLarge:
        assume(False)


@settings(max_examples=100, deadline=None)
@given(small_oracles())
def test_state_codes_index_the_states(oracle):
    # The mixed radix written out: edges unit by unit in out-neighbour
    # order, each weight the previous one times alpha + 1 of its unit.
    inst = oracle.inst
    weight, radix = {}, 1
    for x in range(inst.n):
        for y in inst.topology.out_neighbors(x):
            weight[x, y] = radix
            radix *= inst.alpha[x] + 1
    assert len(oracle.code_index) == len(oracle.states)
    for key in oracle.states:
        code = sum(c * weight[x, y] for x, y, c in key)
        assert oracle.code(key) == code
        assert oracle.code_index[code] == oracle.index[key]


@settings(max_examples=100, deadline=None)
@given(
    small_oracles(),
    st.sampled_from([GameParams(0.0, 0.0), GameParams(1.0, 0.0), GameParams(1.0, 0.45)]),
    st.integers(0, 30),
    st.integers(1, 300),
    st.integers(0, 2**32),
)
def test_empirical_counts_equal_the_engine_states_counted_by_key(
    oracle, params, burn_in, steps, seed
):
    # The sampler tracks the state by a running code; counting the keys of
    # the states state_stream yields for the same config gives the same counts.
    inst = oracle.inst
    assume(inst.total_alpha)
    cap = 50 * inst.total_alpha
    config = SimConfig(
        instance=inst,
        params=params,
        schedule=GammaSchedule.fixed(1.3),
        horizon=cap + burn_in + steps,
        seed=seed,
    )
    stream = dynamics.state_stream(config)
    remaining = inst.total_alpha
    for _t, _state, move in islice(stream, cap):
        if move is not None and move.kind == ALLOCATION:
            remaining -= 1
            if remaining == 0:
                break
    else:
        with pytest.raises(ValueError, match="did not place every atom"):
            empirical_distribution(oracle, params, 1.3, steps, burn_in, seed)
        return
    counts = np.zeros(len(oracle))
    for _t, state, _move in islice(stream, burn_in, burn_in + steps):
        counts[oracle.index[state.key()]] += 1
    result = empirical_distribution(oracle, params, 1.3, steps, burn_in, seed)
    assert np.array_equal(result.frequencies, counts / steps)
    assert np.array_equal(np.rint(result.frequencies * steps), counts)


@pytest.mark.parametrize(
    "steps,burn_in", [(0, 0), (-3, 0), (10, -1)], ids=["zero-steps", "negative-steps",
                                                       "negative-burn-in"])
def test_empirical_rejects_bad_sample_sizes(steps, burn_in):
    oracle = enumerate_states(eight_state_instance())
    with pytest.raises(ValueError, match="steps|burn_in"):
        empirical_distribution(oracle, GameParams(1.0, 0.0), 1.0, steps=steps, burn_in=burn_in)


def test_empirical_without_demand_is_a_value_error():
    oracle = enumerate_states(make(build_complete(2), (0, 0), (1, 1), (1.0, 1.0)))
    with pytest.raises(ValueError, match="no unit has demand"):
        empirical_distribution(oracle, GameParams(1.0, 0.0), 1.0, steps=10)


def _bare_gamma_calls():
    # Each public function that takes gamma as a bare float, on the
    # eight-state instance; the last three need a finite gamma.
    inst = eight_state_instance()
    params = GameParams(1.0, 0.0)
    oracle = enumerate_states(inst)
    empty = AllocationState.zeros(inst)
    return {
        "gibbs_choice_distribution": lambda g: game.gibbs_choice_distribution(
            inst, params, empty, 0, g),
        "build_transition_matrix": lambda g: build_transition_matrix(oracle, params, g),
        "stationary_exact": lambda g: stationary_exact(oracle, params, g),
        "empirical_distribution": lambda g: empirical_distribution(oracle, params, g, steps=10),
    }


_FINITE_ONLY = ["build_transition_matrix", "empirical_distribution", "stationary_exact"]


@pytest.mark.parametrize(
    "entry,gamma",
    [(entry, g) for entry in sorted(_bare_gamma_calls()) for g in (math.nan, 0.0, -3.0)]
    + [(entry, math.inf) for entry in _FINITE_ONLY],
)
def test_bare_gamma_is_checked(entry, gamma):
    with pytest.raises(ValueError, match="must be positive"):
        _bare_gamma_calls()[entry](gamma)


# ---------------------------------------------------------------- extremes


def test_argmax_potential_states_are_nash():
    for inst, params, _gamma in DESK_INSTANCES:
        oracle = enumerate_states(inst)
        _best, argmax = max_potential_bruteforce(oracle, params)
        assert argmax
        for key in argmax:
            assert game.is_nash(inst, params, state_from_key(inst, key))


def test_greedy_bound_matches_enumeration_without_weights():
    # with k_c = k_a = 0 the greedy slot filling is exactly the best
    # reliability-weighted placement, graph permitting
    inst = make(build_complete(3), (1, 1, 1), (2, 2, 2), (0.2, 0.9, 0.9))
    params = GameParams(0.0, 0.0)
    oracle = enumerate_states(inst)
    best, _ = max_global_utility_bruteforce(oracle, params)
    assert greedy_utility_bound(inst, params) == pytest.approx(best)


def test_greedy_bound_dominates_enumeration():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(2, 4)
        edges = {
            (x, y) for x in range(n) for y in range(n) if x != y and rng.random() < 0.8
        }
        topo = Topology(n, frozenset(edges))
        inst = make(
            topo,
            tuple(rng.randint(0, 2) for _ in range(n)),
            tuple(rng.randint(0, 3) for _ in range(n)),
            tuple(round(rng.uniform(0, 1), 2) for _ in range(n)),
        )
        params = GameParams(rng.choice([0.0, 1.0]), rng.choice([0.0, 0.45]))
        try:
            oracle = enumerate_states(inst)
        except StateSpaceTooLarge:
            continue
        if not oracle.states:
            continue
        best, _ = max_global_utility_bruteforce(oracle, params)
        assert greedy_utility_bound(inst, params) >= best - 1e-9


def test_rho_single_state_space():
    inst = make(build_complete(2), (1, 1), (1, 1), (1.0, 1.0))
    oracle = enumerate_states(inst)
    state = state_from_key(inst, oracle.states[0])
    rho, tag = compute_rho(inst, GameParams(1.0, 0.0), state, oracle)
    assert rho == pytest.approx(1.0)
    assert tag == "exact"


def test_rho_surrogate_tagging():
    inst = make(build_complete(2), (1, 1), (1, 1), (1.0, 1.0))
    state = AllocationState.from_entries(inst, [(0, 1, 1), (1, 0, 1)])
    _rho, tag = compute_rho(inst, GameParams(1.0, 0.0), state)
    assert tag == "surrogate"


# ----------------------------------------------------------------- metrics


def _completed_result(inst, entries, moves):
    state = AllocationState.from_entries(inst, entries)
    return RunResult(state, True, len(entries), moves, None)


def test_metrics_single_resource_per_unit():
    inst = make(build_complete(2), (2, 2), (2, 2), (0.5, 0.8))
    result = _completed_result(inst, [(0, 1, 2), (1, 0, 2)], [2, 2])
    report = compute_metrics(inst, GameParams(1.0, 0.0), result)
    assert report.d_out == 1.0
    assert report.nu_moves == pytest.approx(1.0)
    # unit 0 stores everything at reliability 0.8, unit 1 at 0.5
    assert report.lambda_mean == pytest.approx((0.8 + 0.5) / 2)
    assert report.congestion_mean == (1.0, 1.0)


def test_metrics_class_capacity_identity():
    # class fill fractions, capacity-weighted, recover total fill
    rng = random.Random(12)
    inst = make(build_complete(4), (2, 1, 2, 1), (3, 3, 3, 3), (0.5, 0.5, 0.8, 0.8))
    config = SimConfig(inst, GameParams(1.0, 0.0), GammaSchedule.fixed(1.0),
                       horizon=40 * inst.total_alpha, seed=rng.randint(0, 99))
    result = run(config)
    assert result.completed
    report = compute_metrics(inst, GameParams(1.0, 0.0), result)
    classes = classes_by_reliability(inst)
    weighted = sum(
        c * sum(inst.beta[y] for y in members)
        for c, members in zip(report.congestion_mean, classes)
    )
    assert weighted / inst.total_beta == pytest.approx(
        inst.total_alpha / inst.total_beta
    )


def test_metrics_partial_requires_opt_in():
    inst = make(build_complete(2), (1, 1), (1, 1), (1.0, 1.0))
    result = RunResult(AllocationState.zeros(inst), False, None, [0, 0], None)
    report = compute_metrics(inst, GameParams(1.0, 0.0), result)
    assert report.d_out == 0.0


def test_metrics_nu_at_least_one_on_completed_runs():
    rng = random.Random(13)
    for _ in range(10):
        inst = make(build_complete(3), (2, 2, 2), (4, 4, 4), (0.5, 0.8, 0.8))
        config = SimConfig(inst, GameParams(1.0, 0.0), GammaSchedule.fixed(1.0),
                           horizon=50 * inst.total_alpha, seed=rng.randint(0, 999))
        result = run(config)
        if not result.completed:
            continue
        report = compute_metrics(inst, GameParams(1.0, 0.0), result)
        assert report.nu_moves >= 1.0


def test_metrics_report_row_names():
    inst = make(build_complete(2), (2, 2), (2, 2), (0.5, 0.8))
    result = _completed_result(inst, [(0, 1, 2), (1, 0, 2)], [2, 2])
    row = compute_metrics(inst, GameParams(1.0, 0.0), result).to_row()
    assert set(row) == {
        "nu_moves", "lambda_mean", "lambda_var",
        "c1_mean", "c1_var", "c2_mean", "c2_var",
        "d_out", "d_in_1", "d_in_2", "rho", "rho_tag",
    }


# -------------------------------------------- reachability vs oracle support


def test_disconnected_state_graph_absorbs_first_reached_state():
    # four-cycle with unit demands and unit capacities: the full states are
    # mutually unreachable (every alternative destination is occupied), so
    # a run freezes in whichever state it reaches first
    edges = set()
    for i in range(4):
        edges.add((i, (i + 1) % 4))
        edges.add(((i + 1) % 4, i))
    inst = make(Topology(4, frozenset(edges)), (1, 1, 1, 1), (1, 1, 1, 1),
                (0.5, 0.8, 0.5, 0.8))
    assert not feasibility.check_strict(inst).feasible
    params = GameParams(1.0, 0.0)
    oracle = enumerate_states(inst)
    assert len(oracle) == 4
    build_transition_matrix(oracle, params, 1.0)
    assert not is_support_connected(oracle)
    for row in oracle.transition:
        assert list(row.values()) == [1.0]  # every full state is absorbing
    config = SimConfig(inst, params, GammaSchedule.fixed(1.0), horizon=5_000, seed=2)
    visited = set()
    for _t, state, _move in dynamics.state_stream(config):
        if state.total_placed() == inst.total_alpha:
            visited.add(state.key())
    assert len(visited) == 1
    assert visited <= set(oracle.states)


def test_long_run_visits_exactly_the_connected_component():
    # reachable full states over a long run equal the support component of
    # the first completed state; under strictness that is every state
    inst = eight_state_instance((0.5, 0.8, 0.6))
    params = GameParams(1.0, 0.45)
    oracle = enumerate_states(inst)
    build_transition_matrix(oracle, params, 1.0)
    assert is_support_connected(oracle)
    config = SimConfig(inst, params, GammaSchedule.fixed(1.0), horizon=60_000, seed=7)
    visited = set()
    total = inst.total_alpha
    for _t, state, _move in dynamics.state_stream(config):
        if state.total_placed() == total:
            visited.add(state.key())
    assert visited == set(oracle.states)
