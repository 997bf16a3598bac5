import math
import multiprocessing
import random
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations_with_replacement, islice

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from p2pstorage import analysis, benchmarks, dynamics, feasibility, game
from p2pstorage.analysis import (
    MetricsReport,
    StateSpaceTooLarge,
    _over_states,
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
    sample_chain,
    state_from_key,
    state_metrics,
    stationarity_residual,
    stationary_exact,
    tally_frequencies,
    total_variation,
)
from p2pstorage.dynamics import GammaSchedule, RunResult, SimConfig, run
from p2pstorage.game import ALLOCATION, AllocationState, GameParams
from p2pstorage.topology import Instance, Topology, build_complete, build_line


def make(topo, alpha, beta, lam):
    return Instance(topo, alpha, beta, lam)


def eight_state_instance(lam=(1.0, 1.0, 1.0)):
    return make(build_complete(3), (1, 1, 1), (2, 2, 2), lam)


def four_cycle_instance():
    # Unit demands and capacities on a four-cycle: no full state reaches another.
    edges = {(i, (i + 1) % 4) for i in range(4)} | {((i + 1) % 4, i) for i in range(4)}
    return make(Topology(4, frozenset(edges)), (1, 1, 1, 1), (1, 1, 1, 1), (0.5, 0.8, 0.5, 0.8))


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
    assert list(oracle.states) == [((0, 1, 1), (1, 0, 1))]


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
    assert list(oracle.states) == [tuple((x, (x + 1) % n, 1) for x in range(n))]


def test_no_full_state_is_a_typed_error():
    oracle = enumerate_states(make(build_complete(3), (2, 2, 2), (1, 1, 1), (1.0,) * 3))
    params = GameParams(1.0, 0.0)
    with pytest.raises(ValueError, match="no full allocation state"):
        stationary_exact(oracle, params, 1.0)
    with pytest.raises(ValueError, match="no full allocation state"):
        empirical_distribution(oracle, params, 1.0, steps=10)


def test_unit_with_demand_and_no_out_neighbour_has_no_state():
    # Unit 0 stores nowhere: the enumeration itself yields no state, and
    # the kernel and the stationary law treat that as any infeasible case.
    inst = make(Topology(3, frozenset({(1, 2), (2, 1)})), (1, 1, 1), (2, 2, 2), (1.0,) * 3)
    oracle = enumerate_states(inst)
    assert len(oracle) == 0
    params = GameParams(1.0, 0.0)
    assert build_transition_matrix(oracle, params, 1.0).kernel.indptr.tolist() == [0]
    with pytest.raises(ValueError, match="no full allocation state"):
        stationary_exact(oracle, params, 1.0)


def test_enumerate_guard():
    inst = make(build_complete(12), (10,) * 12, (20,) * 12, (1.0,) * 12)
    with pytest.raises(StateSpaceTooLarge):
        enumerate_states(inst)


def test_enumerate_refuses_a_total_demand_beyond_int64():
    # Each demand fits an int64, their sum (the load of unit 2) does not.
    inst = make(Topology(3, frozenset({(0, 2), (1, 2)})), (5 * 10**18,) * 2 + (0,),
                (0, 0, 10**19), (1.0,) * 3)
    with pytest.raises(ValueError, match="unit 1's demand 5000000000000000000"):
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
    assert list(oracle.transition) == [{0: 1.0}]


def test_kernel_symmetric_instance_uniform_stationary():
    oracle = enumerate_states(eight_state_instance())
    params = GameParams(0.0, 0.0)
    build_transition_matrix(oracle, params, 3.7)
    mu = stationary_exact(oracle, params, 3.7)
    assert np.allclose(mu, 1.0 / 8)
    assert stationarity_residual(oracle, mu) <= 1e-12


def test_kernel_walks_need_the_kernel_built():
    oracle = enumerate_states(eight_state_instance())
    mu = np.full(len(oracle), 1.0 / len(oracle))
    with pytest.raises(ValueError, match="build the transition matrix first"):
        stationarity_residual(oracle, mu)


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
    i, j = oracle.states.index(w.key()), oracle.states.index(w2.key())
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


def _broken_balance_setup(monkeypatch, block):
    # A desk kernel, its law, and the off-diagonal entry carrying the largest
    # flow mu_i P_ij: (its position k, i, j).  Any break there outweighs the
    # rounding of every other pair.  Blocks of 7 states put the pair past the
    # first block on this instance.
    monkeypatch.setattr(analysis, "_BLOCK", block)
    inst, params, gamma = DESK_INSTANCES[3]
    oracle = build_transition_matrix(enumerate_states(inst), params, gamma)
    mu = stationary_exact(oracle, params, gamma)
    indptr, indices, data = oracle.kernel
    rows = np.repeat(np.arange(len(oracle)), np.diff(indptr))
    k = int(np.where(rows != indices, mu[rows] * data, -1.0).argmax())
    return oracle, mu, (k, int(rows[k]), int(indices[k]))


@pytest.mark.parametrize("block", [analysis._BLOCK, 7])
def test_detailed_balance_reports_a_scaled_entry(monkeypatch, block):
    oracle, mu, (k, i, j) = _broken_balance_setup(monkeypatch, block)
    assert detailed_balance_max_violation(oracle, mu) <= 1e-10
    oracle.kernel.data[k] *= 1.5
    p_ji = oracle.kernel.row(j)[i]
    assert detailed_balance_max_violation(oracle, mu) == abs(mu[i] * oracle.kernel.data[k] - mu[j] * p_ji)


@pytest.mark.parametrize("block", [analysis._BLOCK, 7])
def test_detailed_balance_reports_a_missing_reverse_entry(monkeypatch, block):
    # The kernel rebuilt without P_ji: the pair (i, j) finds no reverse and
    # reads its whole flow.
    oracle, mu, (k, i, j) = _broken_balance_setup(monkeypatch, block)
    data = oracle.kernel.data
    _drop_entry(oracle, j, i)
    assert detailed_balance_max_violation(oracle, mu) == mu[i] * data[k]


@pytest.mark.parametrize("block", [analysis._BLOCK, 7])
def test_detailed_balance_reports_a_missing_reverse_entry_in_the_last_row(monkeypatch, block):
    # P_ji in the kernel's last row, just before that row's diagonal, the
    # last entry of all: the bisection of row j runs to the end of indices.
    oracle, mu, _ = _broken_balance_setup(monkeypatch, block)
    indptr, indices, data = oracle.kernel
    j, i = len(oracle) - 1, int(indices[-2])
    assert indices[-1] == j and indptr[j] <= len(indices) - 2
    k = _entry(oracle, i, j)
    _drop_entry(oracle, j, i)
    assert detailed_balance_max_violation(oracle, mu) == mu[i] * data[k] > 0.0


def _entry(oracle, i, j):
    # The position of P_ij in the kernel's arrays.
    indptr, indices, _ = oracle.kernel
    k = int(indptr[i] + np.searchsorted(indices[indptr[i] : indptr[i + 1]], j))
    assert indices[k] == j
    return k


def _drop_entry(oracle, i, j):
    # The kernel rebuilt without P_ij.
    indptr, indices, data = oracle.kernel
    k = _entry(oracle, i, j)
    indptr = indptr.copy()
    indptr[i + 1 :] -= 1
    oracle.kernel = analysis.Kernel(indptr, np.delete(indices, k), np.delete(data, k))


@pytest.mark.parametrize("block", [1, 7])
def test_blocks_of_states_change_no_result(monkeypatch, block):
    # The oracle works a block of states at a time; tiny blocks cut every
    # row range, and the kernel, the law and the checks come out the same.
    inst, params, gamma = DESK_INSTANCES[-1]
    whole = build_transition_matrix(enumerate_states(inst), params, gamma)
    mu = stationary_exact(whole, params, gamma)
    monkeypatch.setattr(analysis, "_BLOCK", block)
    split = build_transition_matrix(enumerate_states(inst), params, gamma)
    for a, b in zip(whole.kernel, split.kernel):
        assert np.array_equal(a, b)
    assert np.array_equal(stationary_exact(split, params, gamma), mu)
    assert stationarity_residual(split, mu) == pytest.approx(stationarity_residual(whole, mu))
    assert detailed_balance_max_violation(split, mu) == detailed_balance_max_violation(whole, mu)
    assert is_support_connected(split)
    assert max_potential_bruteforce(split, params) == max_potential_bruteforce(whole, params)
    # A frozen chain, every row its diagonal alone, stays disconnected.
    frozen = enumerate_states(four_cycle_instance())
    assert not is_support_connected(build_transition_matrix(frozen, GameParams(1.0, 0.0), 1.0))


def test_counted_row_sizes_are_the_rows_built_state_by_state():
    # The build counts each row's entries before it writes them in place:
    # the diagonal, and per unit held * free - |held & free|.
    for inst, params, gamma in DESK_INSTANCES:
        oracle = build_transition_matrix(enumerate_states(inst), params, gamma)
        sizes = analysis._row_sizes(oracle)
        assert np.array_equal(sizes, np.diff(oracle.kernel.indptr))
        position = {key: i for i, key in enumerate(oracle.states)}
        rows = [_kernel_row_by_state(oracle, position, params, gamma, i) for i in range(len(oracle))]
        assert sizes.tolist() == [len(row) for row in rows]


@pytest.fixture(scope="module")
def k6_oracle():
    # The complete graph on 6 units, alpha 1, beta 6: 15,625 states and
    # 390,625 kernel entries, a 4.8 MB kernel.
    inst = make(build_complete(6), (1,) * 6, (6,) * 6, (1.0,) * 6)
    return build_transition_matrix(enumerate_states(inst), GameParams(1.0, 0.0), 1.0)


@pytest.mark.parametrize("stage, bound", [("build", 1.15), ("balance", 0.15), ("connectivity", 0.15)])
def test_kernel_passes_hold_the_kernel_and_one_block(monkeypatch, k6_oracle, stage, bound):
    # Each pass over the kernel holds the kernel (which the build makes) and
    # one block's temporaries, and nothing kernel-sized beside them: its
    # peak, by tracemalloc (numpy's buffers included), in blocks of 256.
    monkeypatch.setattr(analysis, "_BLOCK", 256)
    oracle, params, gamma = k6_oracle, GameParams(1.0, 0.0), 1.0
    fresh, mu = enumerate_states(oracle.inst), stationary_exact(oracle, params, gamma)
    run = {
        "build": lambda: build_transition_matrix(fresh, params, gamma),
        "balance": lambda: detailed_balance_max_violation(oracle, mu),
        "connectivity": lambda: is_support_connected(oracle),
    }[stage]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * sum(a.nbytes for a in oracle.kernel)


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
        weights[oracle.states.index(key)] = math.exp(
            game.log_multinomial_weight(inst, state_from_key(inst, key))
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
    # A unit's splits, listed the largest count first, written out with
    # itertools; the code is the mixed radix over them, unit 0 first, and
    # the position of every code is its state's.
    inst = oracle.inst
    splits = []
    for x in range(inst.n):
        out = inst.topology.out_neighbors(x)
        picks = combinations_with_replacement(range(len(out)), inst.alpha[x])
        splits.append([tuple(p.count(k) for k in range(len(out))) for p in picks])
    assert [[tuple(row) for row in sp.counts.tolist()] for sp in oracle.splits] == splits
    codes = []
    for key in oracle.states:
        code = 0
        for x, table in enumerate(splits):
            row = {y: c for u, y, c in key if u == x}
            out = inst.topology.out_neighbors(x)
            code = code * len(table) + table.index(tuple(row.get(y, 0) for y in out))
        codes.append(code)
    assert codes == sorted(set(codes)) == oracle.codes.tolist()
    assert oracle.position[codes].tolist() == list(range(len(oracle)))
    assert (oracle.position >= 0).sum() == len(oracle)
    for x, (sp, table) in enumerate(zip(oracle.splits, splits)):
        # Moving one atom from slot k to slot l: rank gives the moved split's index.
        for s, counts in enumerate(table):
            for k in range(len(counts)):
                if counts[k]:
                    for l in range(len(counts)):
                        after = list(counts)
                        after[k] -= 1
                        after[l] += 1
                        assert sp.rank(np.array([after]))[0] == table.index(tuple(after))


def _kernel_row_by_state(oracle, position, params, gamma, i):
    # Row i of the kernel, built from game.gibbs_choice_distribution: wake a
    # unit, pick one of its atoms, then draw its destination.  ``position``
    # maps each state's key to its row.
    inst = oracle.inst
    state = state_from_key(inst, oracle.states[i])
    row = {}
    for x, a in enumerate(inst.alpha):
        for source, c in sorted(state.counts[x].items()):
            dist = game.gibbs_choice_distribution(inst, params, state, x, gamma, source=source)
            for dest, p in dist.items():
                moved = state.copy()
                moved._shift(x, source, dest)
                j = position[moved.key()]
                row[j] = row.get(j, 0.0) + a / inst.total_alpha * c / a * p
    return row or {i: 1.0}


_PARAMS = st.sampled_from([GameParams(0.0, 0.0), GameParams(1.0, 0.0), GameParams(1.0, 0.45)])


@settings(max_examples=60, deadline=None)
@given(small_oracles(), _PARAMS, st.sampled_from([0.7, 1.3, 3.0, 2000.0]))
def test_kernel_rows_equal_the_rows_built_state_by_state(oracle, params, gamma):
    # At gamma 2000 some Gibbs weights underflow to 0.0: those entries stay.
    build_transition_matrix(oracle, params, gamma)
    position = {key: i for i, key in enumerate(oracle.states)}
    for i, row in enumerate(oracle.transition):
        expected = _kernel_row_by_state(oracle, position, params, gamma, i)
        assert sorted(row) == sorted(expected)
        assert all(type(j) is int and type(p) is float for j, p in row.items())
        for j, p in expected.items():
            assert row[j] == pytest.approx(p, rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(small_oracles())
def test_kernel_size_bound_covers_the_kernel(oracle):
    # The bound counts moves over every split combination, capacities
    # ignored: never below the kernel's entries, and equal to them once no
    # capacity binds.
    inst = oracle.inst
    params = GameParams(1.0, 0.0)
    bound = analysis.check_kernel_size(inst)
    assert bound >= len(build_transition_matrix(oracle, params, 1.0).kernel.data)
    roomy = make(inst.topology, inst.alpha, (max(inst.total_alpha, 1),) * inst.n, inst.reliability)
    assert bound == len(build_transition_matrix(enumerate_states(roomy), params, 1.0).kernel.data)


def test_kernel_size_guard_refuses_above_its_limit(monkeypatch):
    inst = eight_state_instance()  # 8 states, 32 kernel entries
    monkeypatch.setattr(analysis, "KERNEL_ENTRY_LIMIT", 32)
    assert analysis.check_kernel_size(inst) == 32
    monkeypatch.setattr(analysis, "KERNEL_ENTRY_LIMIT", 31)
    with pytest.raises(StateSpaceTooLarge, match="kernel estimate of 32 entries exceeds"):
        analysis.check_kernel_size(inst)


@settings(max_examples=60, deadline=None)
@given(small_oracles(), _PARAMS, st.sampled_from([0.7, 1.3, 3.0]))
def test_stationary_law_equals_the_per_state_recompute(oracle, params, gamma):
    assume(len(oracle))
    inst = oracle.inst
    logs = []
    for key in oracle.states:
        state = state_from_key(inst, key)
        logs.append(
            game.log_multinomial_weight(inst, state) + gamma * game.potential(inst, params, state)
        )
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    expected = [w / sum(weights) for w in weights]
    assert stationary_exact(oracle, params, gamma).tolist() == pytest.approx(expected, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    small_oracles(),
    _PARAMS,
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
    index = {key: i for i, key in enumerate(oracle.states)}
    counts = np.zeros(len(oracle))
    for _t, state, _move in islice(stream, burn_in, burn_in + steps):
        counts[index[state.key()]] += 1
    result = empirical_distribution(oracle, params, 1.3, steps, burn_in, seed)
    assert np.array_equal(result.frequencies, counts / steps)
    assert np.array_equal(np.rint(result.frequencies * steps), counts)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_sample_chain_runs_in_a_fresh_interpreter(method):
    # The engine half takes plain values, so a pool of any start method can
    # run it; the tally is the one this process draws.
    args = (eight_state_instance((0.5, 0.8, 0.6)), GameParams(1.0, 0.0), 1.0, 500, 3, 11)
    context = multiprocessing.get_context(method)
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        tally = pool.submit(analysis.sample_chain, *args).result()
    assert tally == analysis.sample_chain(*args)


# The line-4 trap at gamma 20: seed 0's chain does not place every atom
# within the start-up budget of 50 * total demand steps, so no sample starts.
_LINE4_TRAP = make(build_line(4), (1,) * 4, (1,) * 4, (1.0, 3.0, 1.0, 1.0))


@pytest.mark.parametrize(
    "inst,gamma,steps,burn_in,message",
    [(eight_state_instance(), 1.0, 0, 0, "steps must be positive"),
     (eight_state_instance(), 1.0, -3, 0, "steps must be positive"),
     (eight_state_instance(), 1.0, 10, -1, "burn_in must be nonnegative"),
     (_LINE4_TRAP, 20.0, 10, 0, "did not place every atom within 200 steps")],
    ids=["zero-steps", "negative-steps", "negative-burn-in", "line4-trap-unplaced"])
def test_empirical_rejects_bad_sample_sizes(inst, gamma, steps, burn_in, message):
    # Raised in this process; verify reaches the placement refusal in a pool worker.
    oracle = enumerate_states(inst)
    with pytest.raises(ValueError, match=message):
        empirical_distribution(oracle, GameParams(1.0, 0.0), gamma, steps=steps,
                               burn_in=burn_in, seed=0)


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


def test_greedy_bound_with_capacity_below_demand_sums_every_marginal():
    # Demand 6 against 3 slots: every slot's marginal gain is taken.
    inst = make(build_complete(2), (3, 3), (1, 2), (0.5, 0.8))
    marginals = [0.5 - 1 / 1, 0.8 - 1 / 2, 0.8 - 3 / 2]
    assert greedy_utility_bound(inst, GameParams(1.0, 0.0)) == pytest.approx(sum(marginals))


def _greedy_bound_as_a_list(inst, params):
    # The bound as one Python float per capacity slot, sorted, and the best
    # ``total_alpha`` added left to right; the aggregation term as in the
    # library.
    marginals = []
    for y, b in enumerate(inst.beta):
        marginals += [inst.reliability[y] - params.k_c * (2 * s - 1) / b for s in range(1, b + 1)]
    bound = 0.0
    for m in sorted(marginals, reverse=True)[: inst.total_alpha]:
        bound += m
    for x, a in enumerate(inst.alpha):
        caps = [inst.beta[y] for y in inst.topology.out_neighbors(x)]
        if params.k_a and a and caps:
            bound += params.k_a * a * min(a, max(caps))
    return bound


def test_greedy_bound_is_the_float_of_the_list_form():
    rng = random.Random(33)
    short = zero = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        edges = {(x, y) for x in range(n) for y in range(n) if x != y and rng.random() < 0.6}
        inst = make(
            Topology(n, frozenset(edges)),
            tuple(rng.randint(0, 6) for _ in range(n)),
            tuple(rng.choice([0, 0, 1, 2, 3, 9]) for _ in range(n)),
            tuple(rng.uniform(0, 1) for _ in range(n)),
        )
        params = GameParams(rng.choice([0.0, 1.0, 0.37]), rng.choice([0.0, 0.45]))
        short += inst.total_beta < inst.total_alpha
        zero += 0 in inst.beta
        assert greedy_utility_bound(inst, params) == _greedy_bound_as_a_list(inst, params)
    assert short and zero
    no_slot = make(build_complete(2), (1, 2), (0, 0), (0.5, 0.8))
    assert greedy_utility_bound(no_slot, GameParams(1.0, 0.0)) == 0.0
    assert greedy_utility_bound(no_slot, GameParams(1.0, 0.45)) == 0.0


def test_greedy_bound_holds_one_float_per_slot():
    # Table 4's n=1000 column (50,000 slots of one capacity): the bound fills
    # one slot array in place, so its tracemalloc peak (numpy's buffers
    # included) stays within two floats a slot.
    preset = benchmarks.table_presets(4)[-1]
    inst, params = preset.instance, preset.params
    tracemalloc.start()
    try:
        bound = greedy_utility_bound(inst, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * inst.total_beta
    assert bound == _greedy_bound_as_a_list(inst, params)


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


def test_metrics_on_an_incomplete_run():
    inst = make(build_complete(2), (1, 1), (1, 1), (1.0, 1.0))
    result = RunResult(AllocationState.zeros(inst), False, None, [0, 0], None)
    report = compute_metrics(inst, GameParams(1.0, 0.0), result)
    assert report.d_out == 0.0
    assert report.rho is None and report.rho_tag is None


def test_metrics_read_the_final_state_once_and_score_it_as_the_state():
    # compute_metrics reads the final state into its vectors once, for both
    # rho and the state metrics; on a finished table-1 run (k_a 0.45) the
    # vectors score the same floats as the state, and rho stays a float.
    config = benchmarks.make_configs(benchmarks.table_presets(1, replications=1)[-1])[0]
    result = run(config)
    inst, params, state = config.instance, config.params, result.final_state
    assert result.completed
    load, counts, single = game._bulk(inst, state)
    vectors = load[0], counts[0]
    assert single and game._bulk(inst, vectors)[2]
    assert game.global_utility(inst, params, vectors) == game.global_utility(inst, params, state)
    report = compute_metrics(inst, params, result)
    assert type(report.rho) is float and report.rho == compute_rho(inst, params, state)[0]
    assert report.lambda_mean == state_metrics(inst, state)[0]


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


@pytest.mark.parametrize(
    "topo,alpha,beta,lam,entries,expected",
    [
        (build_complete(3), (0, 0, 0), (2, 2, 2), (0.5, 0.8, 0.8), [],
         {"nu_moves": 0.0, "lambda_mean": 0.0, "lambda_var": 0.0, "c1_mean": 0.0, "c1_var": 0.0,
          "c2_mean": 0.0, "c2_var": 0.0, "d_out": 0.0, "d_in_1": 0.0, "d_in_2": 0.0}),
        (build_complete(3), (1, 1, 0), (0, 2, 2), (0.3, 0.8, 0.8), [(0, 1, 1), (1, 2, 1)],
         {"c1_mean": 0.0, "c1_var": 0.0, "d_in_1": 0.0, "c2_mean": 0.5, "lambda_mean": 0.8}),
        (Topology(3, frozenset({(0, 1), (1, 0)})), (1, 1, 0), (2, 2, 2), (0.5, 0.8, 0.8),
         [(0, 1, 1), (1, 0, 1)], {"lambda_mean": 0.65, "c2_var": 0.0625, "d_out": 2 / 3}),
        (build_complete(3), (1, 1, 1), (2, 2, 2), (0.8, 0.8, 0.8),
         [(0, 1, 1), (1, 2, 1), (2, 0, 1)],
         {"c1_mean": 0.5, "c1_var": 0.0, "d_out": 1.0, "d_in_1": 1.0, "lambda_mean": 0.8}),
    ],
    ids=["no-demand", "zero-capacity-class", "isolated-unit", "one-class"],
)
def test_metrics_edge_branches(topo, alpha, beta, lam, entries, expected):
    inst = make(topo, alpha, beta, lam)
    result = _completed_result(inst, entries, [len(entries)] * inst.n)
    row = compute_metrics(inst, GameParams(1.0, 0.0), result).to_row()
    for name, value in expected.items():
        assert row[name] == pytest.approx(value, rel=1e-12, abs=0.0), name
    classes = {name for name in row if name.startswith(("c", "d_in"))}
    assert len(classes) == 3 * len(set(lam))


# Perfbench's desk shape with the tables' two reliability classes, and a
# desk instance with a unit of no demand (1) and a resource of no capacity
# (1) that shares its class with one of capacity 4.
DESK = make(build_complete(4), (4, 4, 4, 4), (5, 5, 5, 5), (0.5, 0.5, 0.8, 0.8))
DESK_WITH_ZEROS = make(build_complete(4), (3, 0, 2, 2), (4, 0, 5, 3), (0.5, 0.5, 0.8, 0.8))


def _metrics(inst, state) -> dict:
    # The state metrics of one state (a float each) or of the arrays of
    # many (an array each), by row name.
    row = MetricsReport(0.0, *state_metrics(inst, state), None, None).to_row()
    for name in ("nu_moves", "rho", "rho_tag"):
        del row[name]
    return row


def _quantities(inst, params, state) -> dict:
    # The state metrics and the game's closed-form quantities, by name.
    return dict(
        _metrics(inst, state),
        potential=game.potential(inst, params, state),
        global_utility=game.global_utility(inst, params, state),
        log_weight=game.log_multinomial_weight(inst, state),
    )


def _over_all(oracle, params, name):
    return _over_states(oracle, lambda s: _quantities(oracle.inst, params, s)[name])


@pytest.fixture(scope="module")
def desk_oracle():
    return enumerate_states(DESK)


@pytest.mark.parametrize("inst", [DESK, DESK_WITH_ZEROS], ids=["desk", "zero-demand-and-capacity"])
def test_one_state_scores_the_same_float_as_the_oracle_arrays(inst):
    params = GameParams(1.0, 0.45)
    oracle = enumerate_states(inst)
    names = list(_quantities(inst, params, AllocationState.from_entries(inst, oracle.states[0])))
    bulk = {name: _over_all(oracle, params, name).tolist() for name in names}
    for i, key in enumerate(oracle.states):
        single = _quantities(inst, params, AllocationState.from_entries(inst, key))
        assert {name: bulk[name][i] for name in names} == single, key


@pytest.mark.parametrize(
    "k_a,gamma,metric,expected",
    [
        (0.45, 0.5, "c1_var", 0.0260), (0.45, 1.1, "c1_var", 0.0273),
        (0.45, 2.0, "c1_var", 0.0200), (0.45, 4.0, "c1_var", 0.0012),
        (0.45, 8.0, "c1_var", 0.0000),
        (0.45, 0.5, "d_out", 2.3977), (0.45, 1.1, "d_out", 2.1579),
        (0.45, 2.0, "d_out", 1.5304), (0.45, 4.0, "d_out", 1.0259),
        (0.45, 8.0, "d_out", 1.0001),
        (0.0, 0.5, "c1_mean", 0.7830), (0.0, 16.0, "c1_mean", 0.6548),
    ],
)
def test_exact_stationary_expectations_of_table_metrics(desk_oracle, k_a, gamma, metric, expected):
    params = GameParams(1.0, k_a)
    mu = stationary_exact(desk_oracle, params, gamma)
    assert mu @ _over_all(desk_oracle, params, metric) == pytest.approx(expected, abs=5e-5)


def test_engine_visits_score_within_tv_of_the_exact_expectations(desk_oracle):
    # |E_freqs[f] - E_mu[f]| <= TV * (max f - min f) <= 2 * TV * max|f|,
    # with each visited state scored once through the single-state path.
    params, gamma = GameParams(1.0, 0.45), 1.1
    mu = stationary_exact(desk_oracle, params, gamma)
    freqs = tally_frequencies(desk_oracle, sample_chain(DESK, params, gamma, 30_000, seed=3))
    tv = total_variation(freqs, mu)
    visited = np.flatnonzero(freqs)
    rows = [_metrics(DESK, state_from_key(DESK, desk_oracle.states[i])) for i in visited]
    for name in rows[0]:
        values = _over_all(desk_oracle, params, name)
        sampled = freqs[visited] @ np.array([row[name] for row in rows])
        assert abs(sampled - mu @ values) <= tv * np.ptp(values) + 1e-12, name


# -------------------------------------------- reachability vs oracle support


def test_disconnected_state_graph_absorbs_first_reached_state():
    # four-cycle with unit demands and unit capacities: the full states are
    # mutually unreachable (every alternative destination is occupied), so
    # a run freezes in whichever state it reaches first
    inst = four_cycle_instance()
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


@pytest.mark.parametrize("capacity, dtype", [(255, np.uint8), (65_535, np.uint16)])
@pytest.mark.parametrize("short", [0, 1], ids=["one-state", "two-states"])
def test_oracles_at_the_edge_of_the_narrow_dtypes(capacity, dtype, short):
    # Unit 0 has one split: capacity - short atoms in resource 1, the
    # largest value of the narrow type that holds resource 1's load.  Unit 2
    # has one atom for resource 1 or 3.  With short = 0 only resource 3 has
    # room (one state), and the kernel scores the move into resource 1 at
    # capacity + 1, which the narrow type would wrap to 0; with short = 1
    # there are two states, one with resource 1 full.
    topo = Topology(4, frozenset({(0, 1), (2, 1), (2, 3)}))
    inst = make(topo, (capacity - short, 0, 1, 0), (0, capacity, 0, 1), (0.5, 0.8, 0.5, 0.6))
    params, gamma = GameParams(1.0, 0.45), 1.3
    oracle = build_transition_matrix(enumerate_states(inst), params, gamma)
    assert len(oracle) == 1 + short
    assert oracle.load.dtype == dtype and oracle.splits[0].counts.dtype == dtype
    assert int(oracle.load[:, 1].max()) == capacity
    states = [AllocationState.from_entries(inst, key) for key in oracle.states]
    names = list(_quantities(inst, params, states[0]))
    bulk = {name: _over_all(oracle, params, name).tolist() for name in names}
    for i, state in enumerate(states):
        assert {name: bulk[name][i] for name in names} == _quantities(inst, params, state)
    position = {key: i for i, key in enumerate(oracle.states)}
    for i, row in enumerate(oracle.transition):
        expected = _kernel_row_by_state(oracle, position, params, gamma, i)
        assert sorted(row) == sorted(expected)
        assert [row[j] for j in sorted(row)] == pytest.approx([expected[j] for j in sorted(row)])
    logs = [game.log_multinomial_weight(inst, s) + gamma * game.potential(inst, params, s)
            for s in states]
    weights = [math.exp(v - max(logs)) for v in logs]
    mu = stationary_exact(oracle, params, gamma)
    assert mu.tolist() == pytest.approx([w / sum(weights) for w in weights], rel=1e-12)
    best, _argmax = max_potential_bruteforce(oracle, params)
    assert best == max(game.potential(inst, params, s) for s in states)
    assert stationarity_residual(oracle, mu) < 1e-12
