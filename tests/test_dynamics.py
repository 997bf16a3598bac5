import dataclasses
import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from p2pstorage import feasibility, game
from p2pstorage.analysis import build_transition_matrix, enumerate_states
from p2pstorage.benchmarks import benchmark_instance, preset_schedule
from p2pstorage.dynamics import (
    ALLOCATE_FIRST,
    PROPORTIONAL,
    VARIANTS,
    GammaSchedule,
    SimConfig,
    _move_kind,
    default_horizon,
    default_increment,
    run,
    state_stream,
)
from p2pstorage.game import ALLOCATION, DISTRIBUTION, AllocationState, GameParams, Move
from p2pstorage.topology import (
    Instance,
    Topology,
    build_complete,
    build_line,
    build_random_regular,
)


def make(topo, alpha, beta, lam):
    return Instance(topo, alpha, beta, lam)


def line_chain_instance():
    # four-user chain, middle resource far more reliable
    return make(build_line(4), (1, 1, 1, 1), (1, 1, 1, 1), (1.0, 3.0, 1.0, 1.0))


def chain_blocked_state(inst):
    # units 1..3 shifted one step left, unit 0 starved
    return AllocationState.from_entries(inst, [(1, 0, 1), (2, 1, 1), (3, 2, 1)])


def engine_move(inst, state, params, gamma, seed, variant=PROPORTIONAL):
    """The move the engine makes in its first step from ``state``."""
    config = SimConfig(inst, params, GammaSchedule.fixed(gamma), horizon=1, seed=seed,
                       variant=variant, initial_state=state)
    [(_t, _state, move)] = state_stream(config)
    return move


# -------------------------------------------------------------- activation


def test_activation_proportional_to_demand():
    # From the empty state every woken unit places an atom, so the mover of
    # the first step is the unit the engine woke.
    inst = make(build_complete(3), (1, 3, 0), (4, 4, 4), (1.0,) * 3)
    empty = AllocationState.zeros(inst)
    counts = Counter(
        engine_move(inst, empty, GameParams(1.0, 0.0), 1.0, seed).unit for seed in range(4000)
    )
    assert counts[2] == 0
    assert counts[1] / 4000 == pytest.approx(0.75, abs=0.03)


# -------------------------------------------------------------- move kinds


def test_move_kind_proportional():
    inst = make(build_complete(2), (10, 10), (20, 20), (1.0, 1.0))
    state = AllocationState.from_entries(inst, [(0, 1, 4)])
    assert _move_kind(inst.alpha[0], state.placed[0], PROPORTIONAL) == (0.6, 0.4)


def test_move_kind_allocate_first():
    inst = make(build_complete(2), (10, 10), (20, 20), (1.0, 1.0))
    state = AllocationState.from_entries(inst, [(0, 1, 4)])
    assert _move_kind(inst.alpha[0], state.placed[0], ALLOCATE_FIRST) == (1.0, 0.0)


def test_move_kind_forced_distribution_when_full():
    inst = make(build_complete(2), (4, 4), (20, 20), (1.0, 1.0))
    state = AllocationState.from_entries(inst, [(0, 1, 4)])
    for variant in (PROPORTIONAL, ALLOCATE_FIRST):
        assert _move_kind(inst.alpha[0], state.placed[0], variant) == (0.0, 1.0)


# ------------------------------------------------------------ single moves
# One engine step from a given state, on instances where only the unit
# under test has demand unless stated otherwise.


def test_allocation_move_single_candidate():
    inst = make(build_line(3), (1, 0, 0), (1, 1, 1), (1.0,) * 3)
    move = engine_move(inst, AllocationState.zeros(inst), GameParams(1.0, 0.0), 1.0, seed=0)
    assert move == Move(ALLOCATION, 0, None, 1)


def test_allocation_move_best_response_picks_reliable():
    inst = make(build_line(4), (0, 0, 1, 0), (1, 1, 1, 1), (1.0, 3.0, 1.0, 1.0))
    empty = AllocationState.zeros(inst)
    for seed in range(20):
        move = engine_move(inst, empty, GameParams(1.0, 0.0), math.inf, seed)
        assert move.dest == 1  # reliability 3.0 dominates


def test_allocation_move_blocked_returns_none():
    # Every unit has demand here: units 1..3 are full and relocate, and a
    # relocation always has its source to return to, so a None move is the
    # starved unit 0 finding its only resource full.
    inst = line_chain_instance()
    state = chain_blocked_state(inst)
    moves = [engine_move(inst, state, GameParams(1.0, 0.0), 1.0, seed) for seed in range(40)]
    assert None in moves
    assert all(move.kind == DISTRIBUTION for move in moves if move is not None)


def test_allocation_move_invalid_on_full_unit():
    inst = make(build_complete(2), (1, 0), (2, 2), (1.0, 1.0))
    state = AllocationState.from_entries(inst, [(0, 1, 1)])
    for variant in VARIANTS:
        for seed in range(20):
            move = engine_move(inst, state, GameParams(1.0, 0.0), 1.0, seed, variant)
            assert move == Move(DISTRIBUTION, 0, 1, 1)


def test_distribution_move_single_source():
    inst = make(build_complete(3), (2, 0, 0), (4, 4, 4), (1.0,) * 3)
    state = AllocationState.from_entries(inst, [(0, 2, 2)])
    for seed in range(10):
        move = engine_move(inst, state, GameParams(0.0, 0.0), 1.0, seed)
        assert move.kind == DISTRIBUTION
        assert move.source == 2


def test_distribution_move_source_frequencies():
    # source picked proportionally to stored atoms: 3:1
    inst = make(build_complete(3), (4, 0, 0), (4, 4, 4), (1.0,) * 3)
    state = AllocationState.from_entries(inst, [(0, 1, 3), (0, 2, 1)])
    counts = Counter(
        engine_move(inst, state, GameParams(0.0, 0.0), 1.0, seed).source for seed in range(4000)
    )
    assert counts[1] / 4000 == pytest.approx(0.75, abs=0.03)


def test_distribution_move_requires_stored_atoms():
    inst = make(build_complete(2), (1, 0), (2, 2), (1.0, 1.0))
    empty = AllocationState.zeros(inst)
    for variant in VARIANTS:
        for seed in range(20):
            move = engine_move(inst, empty, GameParams(1.0, 0.0), 1.0, seed, variant)
            assert move.kind == ALLOCATION


# ---------------------------------------------------------------- schedule


def test_gamma_schedule_annealed_default_increment():
    inst = make(build_complete(3), (1, 1, 1), (2, 2, 2), (0.5, 0.8, 0.3))
    sched = GammaSchedule(1.0, default_increment(inst))
    assert sched.gamma_at(80) == pytest.approx(2.0)


def test_gamma_schedule_fixed():
    sched = GammaSchedule.fixed(5.0)
    assert sched.gamma_at(12345) == 5.0


def test_gamma_schedule_at_zero():
    assert GammaSchedule(1.0, 0.5).gamma_at(0) == 1.0


def test_gamma_schedule_infinite():
    assert GammaSchedule.infinite().gamma_at(7) == math.inf


def test_gamma_schedule_explicit_increment():
    sched = GammaSchedule(2.0, 0.5)
    assert sched.gamma_at(10) == pytest.approx(7.0)


@pytest.mark.parametrize("increment", [math.nan, math.inf, -math.inf, -0.1])
def test_gamma_schedule_rejects_nonfinite_or_negative_increment(increment):
    with pytest.raises(ValueError):
        GammaSchedule(1.0, increment)


@pytest.mark.parametrize("make_schedule", [GammaSchedule.fixed, lambda g: GammaSchedule(g, 0.5)],
                         ids=["fixed", "annealed"])
@pytest.mark.parametrize("gamma0", [math.nan, 0.0, -1.0])
def test_gamma_schedule_rejects_nonpositive_gamma0(make_schedule, gamma0):
    with pytest.raises(ValueError):
        make_schedule(gamma0)


def test_gamma_schedule_is_one_formula():
    assert [f.name for f in dataclasses.fields(GammaSchedule)] == ["gamma0", "increment"]
    assert GammaSchedule.fixed(2.5) == GammaSchedule(2.5) == GammaSchedule(2.5, 0.0)
    assert GammaSchedule.infinite() == GammaSchedule(math.inf, 0.0)
    assert GammaSchedule(2.0, 0.125).gamma_at(3) == 2.0 + 3 * 0.125
    with pytest.raises(ValueError):
        GammaSchedule(math.inf, 0.5)


def test_gamma_schedule_default_increment_needs_positive_reliability():
    inst = make(build_complete(3), (1, 1, 1), (2, 2, 2), (0.0,) * 3)
    with pytest.raises(ValueError, match="positive max reliability"):
        default_increment(inst)
    assert default_increment(dataclasses.replace(inst, reliability=(0.0, 0.8, 0.5))) == 1 / 80


# ----------------------------------------------------------------- stepping


def test_step_on_completed_state_distributes():
    inst = make(build_complete(2), (1, 1), (2, 2), (1.0, 1.0))
    full = AllocationState.from_entries(inst, [(0, 1, 1), (1, 0, 1)])
    config = SimConfig(inst, GameParams(1.0, 0.0), GammaSchedule.fixed(1.0),
                       horizon=50, seed=7, variant=ALLOCATE_FIRST, initial_state=full)
    for _t, _state, move in state_stream(config):
        assert move is not None and move.kind == DISTRIBUTION


def test_step_blocked_unit_idles_and_consumes_step():
    inst = line_chain_instance()
    config = SimConfig(inst, GameParams(1.0, 0.0), GammaSchedule.infinite(), horizon=100,
                       seed=8, initial_state=chain_blocked_state(inst))
    saw_idle = False
    before = chain_blocked_state(inst).key()
    for _t, state, move in state_stream(config):
        if move is None:
            saw_idle = True
            assert state.key() == before
        before = state.key()
    assert saw_idle


def test_run_deterministic_replay():
    inst = make(build_complete(5), (3,) * 5, (4,) * 5, (0.5, 0.5, 0.8, 0.8, 0.8))
    config = SimConfig(inst, GameParams(1.0, 0.45), GammaSchedule(1.0, default_increment(inst)),
                       horizon=default_horizon(inst), seed=99, record_trace=True)
    first = run(config)
    second = run(config)
    assert first.trace == second.trace
    assert first.final_state.key() == second.final_state.key()
    assert first.moves_per_unit == second.moves_per_unit


def test_run_completes_on_feasible_random_instances():
    rng = random.Random(246)
    done = 0
    for _ in range(40):
        n = rng.randint(2, 8)
        edges = {
            (x, y) for x in range(n) for y in range(n) if x != y and rng.random() < 0.7
        }
        topo = Topology(n, frozenset(edges))
        inst = make(
            topo,
            tuple(rng.randint(0, 3) for _ in range(n)),
            tuple(rng.randint(0, 3) for _ in range(n)),
            tuple(round(rng.uniform(0.2, 1.0), 2) for _ in range(n)),
        )
        if not feasibility.check_feasible_flow(inst).feasible:
            continue
        if inst.total_alpha == 0:
            continue
        # weakly feasible draws included: near exact capacity equality the
        # escape tail is heavy, so the budget is generous here
        config = SimConfig(inst, GameParams(1.0, 0.0), GammaSchedule.fixed(1.0),
                           horizon=500 * inst.total_alpha, seed=rng.randint(0, 999))
        result = run(config)
        assert result.completed, f"feasible instance failed to complete: {inst}"
        assert result.steps_to_completion is not None
        done += 1
    assert done >= 15


def test_run_infeasible_never_completes():
    inst = make(build_complete(3), (2, 2, 2), (1, 1, 1), (1.0,) * 3)
    config = SimConfig(inst, GameParams(1.0, 0.0), GammaSchedule.fixed(1.0),
                       horizon=2000, seed=1)
    result = run(config)
    assert not result.completed
    assert result.steps_to_completion is None


def test_run_zero_demand_trivially_complete():
    inst = make(build_complete(3), (0, 0, 0), (1, 1, 1), (1.0,) * 3)
    config = SimConfig(inst, GameParams(1.0, 0.0), GammaSchedule.fixed(1.0), horizon=100)
    result = run(config)
    assert result.completed
    assert result.steps_to_completion == 0
    assert result.moves_per_unit == [0, 0, 0]


@pytest.mark.parametrize(
    "field, value",
    [("horizon", 10.5), ("horizon", True), ("horizon", None), ("horizon", "abc"),
     ("seed", 1.5), ("seed", True), ("seed", None), ("seed", "abc")],
)
def test_config_refuses_non_integer_horizon_and_seed(field, value):
    # A None seed would seed from OS entropy: the run could not be reproduced.
    inst = make(build_complete(2), (1, 1), (2, 2), (1.0, 1.0))
    kwargs = {"horizon": 10, "seed": 0, field: value}
    with pytest.raises(ValueError, match=f"'{field}' must be an integer"):
        SimConfig(inst, GameParams(1.0, 0.0), GammaSchedule.fixed(1.0), **kwargs)


def test_config_reads_integral_floats_as_ints():
    inst = make(build_complete(2), (1, 1), (2, 2), (1.0, 1.0))
    schedule = GammaSchedule.fixed(1.0)
    config = SimConfig(inst, GameParams(1.0, 0.0), schedule, horizon=10.0, seed=3.0)
    assert (config.horizon, config.seed) == (10, 3)
    assert type(config.horizon) is int and type(config.seed) is int
    same = SimConfig(inst, GameParams(1.0, 0.0), schedule, horizon=10, seed=3)
    assert run(config).final_state.key() == run(same).final_state.key()


def test_run_counts_only_transfers():
    # moves_per_unit counts allocations and real relocations, not self-moves
    inst = make(build_complete(2), (2, 2), (3, 3), (1.0, 1.0))
    config = SimConfig(inst, GameParams(0.0, 0.0), GammaSchedule.fixed(1.0),
                       horizon=200, seed=11, record_trace=True)
    result = run(config)
    recounted = [0, 0]
    for _t, move in result.trace:
        if move.kind == ALLOCATION or move.source != move.dest:
            recounted[move.unit] += 1
    assert recounted == result.moves_per_unit
    assert any(move.source == move.dest for _t, move in result.trace
               if move.kind == DISTRIBUTION)


def test_run_allocate_first_monotone_fill():
    inst = make(build_complete(4), (3,) * 4, (4,) * 4, (0.5, 0.5, 0.8, 0.8))
    config = SimConfig(inst, GameParams(1.0, 0.45), GammaSchedule(1.0, default_increment(inst)),
                       horizon=30 * inst.total_alpha, seed=21, record_trace=True,
                       variant=ALLOCATE_FIRST)
    result = run(config)
    assert result.completed
    # no relocation happens before the mover has fully allocated
    placed = [0] * 4
    for _t, move in result.trace:
        if move.kind == ALLOCATION:
            placed[move.unit] += 1
        else:
            assert placed[move.unit] == inst.alpha[move.unit]


def test_run_from_snapshot_state():
    inst = line_chain_instance()
    initial = chain_blocked_state(inst)
    config = SimConfig(inst, GameParams(1.0, 0.0), GammaSchedule.fixed(2.0),
                       horizon=20_000, seed=5, initial_state=initial)
    result = run(config)
    assert result.completed  # finite noise escapes the trap
    assert initial.get(2, 1) == 1  # caller's state object is not mutated


def test_run_best_response_deadlock_regression():
    inst = line_chain_instance()
    initial = chain_blocked_state(inst)
    config = SimConfig(inst, GameParams(1.0, 0.0), GammaSchedule.infinite(),
                       horizon=20_000, seed=17, initial_state=initial)
    result = run(config)
    assert not result.completed
    assert result.final_state.get(2, 1) == 1


def test_run_preserves_invariants_along_trace():
    inst = make(build_complete(4), (2,) * 4, (3,) * 4, (0.5, 0.8, 0.5, 0.8))
    config = SimConfig(inst, GameParams(1.0, 0.45), GammaSchedule.fixed(1.0),
                       horizon=400, seed=31, record_trace=True, variant=PROPORTIONAL)
    result = run(config)
    replay = AllocationState.zeros(inst)
    for _t, move in result.trace:
        replay.apply_move(inst, move)
        replay.validate(inst)
    assert replay.key() == result.final_state.key()


@st.composite
def run_configs(draw):
    """A small instance, either variant, any schedule kind and an optional
    reachable initial state."""
    n = draw(st.integers(2, 5))
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    edges = draw(st.sets(st.sampled_from(pairs), min_size=1))
    inst = Instance(
        Topology(n, frozenset(edges)),
        tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))),
        tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))),
        tuple(draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.7]), min_size=n, max_size=n))),
    )
    schedule = draw(st.sampled_from([
        GammaSchedule.fixed(1.5),
        None,  # annealed at the instance's default rate
        GammaSchedule(0.5, 0.05),
        GammaSchedule.infinite(),
    ]))
    if schedule is None:
        assume(max(inst.reliability) > 0)
        schedule = GammaSchedule(0.5, default_increment(inst))
    initial = None
    if draw(st.booleans()):
        initial = AllocationState.zeros(inst)
        for x, pick in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 9)),
                                     max_size=10)):
            room = game.available_resources(inst, initial, x)
            if initial.placed[x] < inst.alpha[x] and room:
                initial.apply_move(inst, Move(ALLOCATION, x, None, room[pick % len(room)]))
    return SimConfig(
        inst,
        GameParams(draw(st.sampled_from([0.0, 1.0])), draw(st.sampled_from([0.0, 0.45]))),
        schedule,
        horizon=draw(st.integers(0, 60)),
        seed=draw(st.integers(0, 999)),
        variant=draw(st.sampled_from(VARIANTS)),
        initial_state=initial,
    )


@settings(max_examples=150, deadline=None)
@given(run_configs())
def test_state_stream_and_run_share_one_loop(config):
    inst = config.instance
    initial = config.initial_state or AllocationState.zeros(inst)
    replay = initial.copy()
    final = initial  # the stream yields nothing on a zero horizon or zero demand
    streamed = []
    for t, final, move in state_stream(config):
        if move is not None:
            streamed.append((t, move))
    result = run(dataclasses.replace(config, record_trace=True))
    assert streamed == result.trace
    assert final.key() == result.final_state.key()

    moves = [0] * inst.n
    remaining = inst.total_alpha - replay.total_placed()
    completed_at = 0 if remaining == 0 else None
    for t, move in streamed:
        replay.apply_move(inst, move)
        if move.kind == ALLOCATION or move.dest != move.source:
            moves[move.unit] += 1
        if move.kind == ALLOCATION:
            remaining -= 1
            if remaining == 0:
                completed_at = t + 1
    assert replay.key() == result.final_state.key()
    assert result.moves_per_unit == moves
    assert result.steps_to_completion == completed_at
    assert result.completed == (completed_at is not None)


# ------------------------------------------------- pinned trajectories
# sha256 digests of exact runs and of one exact kernel.  They pin the
# random-number use and float arithmetic of the choice rule, so a refactor
# of the engine or the oracle that drifts a single draw or bit fails here.


def _run_digest(result):
    trace = [(t, m.kind, m.unit, m.source, m.dest) for t, m in result.trace]
    record = (
        result.final_state.key(),
        result.completed,
        result.steps_to_completion,
        result.moves_per_unit,
        trace,
    )
    return hashlib.sha256(repr(record).encode()).hexdigest()


def _pinned_regular_instance():
    topo = build_random_regular(12, 4, seed=5)
    alpha = tuple(2 + x % 3 for x in range(12))
    beta = tuple(3 + x % 2 for x in range(12))
    lam = tuple(round(0.3 + 0.07 * x, 2) for x in range(12))
    return make(topo, alpha, beta, lam)


def _pinned_configs():
    regular = _pinned_regular_instance()
    dense = make(build_complete(5), (3, 2, 4, 1, 2), (3,) * 5, (0.5, 0.8, 0.6, 0.8, 0.5))
    partial = AllocationState.from_entries(dense, [(0, 1, 2), (2, 3, 1), (4, 0, 1)])
    table1 = benchmark_instance(50, "complete")  # 49 candidates a step; resources fill
    ka0 = GameParams(1.0, 0.0)
    # Demand 35 on capacity 31, resource 4 of capacity 0, and up to three
    # piles per unit to draw a relocation's source from.
    piles = make(build_complete(7), (6, 5, 6, 4, 6, 5, 3), (5, 4, 6, 5, 0, 6, 5),
                 (0.5, 0.8, 0.6, 0.8, 0.9, 0.5, 0.7))
    spread = AllocationState.from_entries(piles, [
        (0, 1, 2), (0, 3, 1), (0, 6, 2), (1, 0, 1), (1, 2, 2), (1, 5, 1), (2, 3, 2), (2, 5, 1),
        (2, 6, 1), (3, 0, 1), (3, 1, 1), (5, 2, 2), (5, 6, 1), (6, 0, 1), (6, 1, 1)])
    return {
        "fixed-proportional-ka0": SimConfig(
            regular, GameParams(1.0, 0.0), GammaSchedule.fixed(1.5), horizon=400,
            seed=11, variant=PROPORTIONAL, record_trace=True),
        "annealed-default-allocate-first-ka": SimConfig(
            regular, GameParams(1.0, 0.45), GammaSchedule(1.0, default_increment(regular)),
            horizon=400, seed=12, variant=ALLOCATE_FIRST, record_trace=True),
        "annealed-explicit-proportional-partial": SimConfig(
            dense, GameParams(0.7, 0.25), GammaSchedule(0.5, 0.05), horizon=300,
            seed=13, variant=PROPORTIONAL, record_trace=True, initial_state=partial),
        "infinite-allocate-first-ka0": SimConfig(
            dense, GameParams(1.0, 0.0), GammaSchedule.infinite(), horizon=300,
            seed=14, variant=ALLOCATE_FIRST, record_trace=True),
        "table1-complete-fixed-allocate-first-ka": SimConfig(
            table1, GameParams(1.0, 0.45), GammaSchedule.fixed(1.1),
            horizon=default_horizon(table1), seed=15, variant=ALLOCATE_FIRST, record_trace=True),
        "table1-complete-annealed-allocate-first-ka0": SimConfig(
            table1, ka0, preset_schedule(table1, ka0), horizon=default_horizon(table1),
            seed=16, variant=ALLOCATE_FIRST, record_trace=True),
        "complete-proportional-partial-piles": SimConfig(
            piles, GameParams(1.0, 0.25), GammaSchedule.fixed(2.0), horizon=400,
            seed=17, variant=PROPORTIONAL, record_trace=True, initial_state=spread),
    }


PINNED_RUN_DIGESTS = {
    "fixed-proportional-ka0": "d48c24a154cd330b286ac7676b4eadfec0e254b9895124200466c6a5c09d632a",
    "annealed-default-allocate-first-ka": "4016af9580b5f738d82a8f6a4c096b40b7369a48a9129cf23e90d066648db108",
    "annealed-explicit-proportional-partial": "472408b6fd7c0de0042340db0eb23b61aecd6d78dc124d0ced6caea77dcd91a3",
    "infinite-allocate-first-ka0": "e8d6ab9a2776e883f27fa6d81b223390ccd5b7e5d192f8b70a49baeefd3be9a9",
    "table1-complete-fixed-allocate-first-ka": "803fe5193cf35a63b0bd21e153081797f878c97269145097b811f7c1e4f93786",
    "table1-complete-annealed-allocate-first-ka0": "72a16859e6dc413a2f39aaf9b882bc667fb11b6ef3144f70e5c4fd35ce769c56",
    "complete-proportional-partial-piles": "dd7a2d37052dd97a0698b4a55c2d616625e44ced57e034284d65efceb4f8192e",
}

PINNED_KERNEL_DIGEST = "adb8eda9043b5b42e9f092e50ffd2d05a241d08de46359f90ac4cca92a6febe7"


@pytest.mark.parametrize("name", sorted(PINNED_RUN_DIGESTS))
def test_run_trajectory_matches_pinned_digest(name):
    result = run(_pinned_configs()[name])
    assert _run_digest(result) == PINNED_RUN_DIGESTS[name]


def test_transition_matrix_matches_pinned_digest():
    inst = make(build_complete(4), (2, 1, 1, 2), (2, 2, 2, 2), (0.5, 0.8, 0.8, 0.5))
    oracle = build_transition_matrix(enumerate_states(inst), GameParams(1.0, 0.25), 1.5)
    rows = [sorted(row.items()) for row in oracle.transition]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == PINNED_KERNEL_DIGEST
