import math
import random
import re

import pytest

from p2pstorage import game
from p2pstorage.dynamics import GammaSchedule
from p2pstorage.game import (
    ALLOCATION,
    DISTRIBUTION,
    AllocationState,
    GameParams,
    InvalidStateError,
    Move,
    NoAvailableResourceError,
    RejectedMoveError,
    UndefinedUtilityError,
)
from p2pstorage.topology import Instance, Topology, build_complete, build_line


def make(topo, alpha, beta, lam):
    return Instance(topo, alpha, beta, lam)


def random_setup(rng, max_n=6, max_atoms=4, edge_p=None):
    n = rng.randint(2, max_n)
    p = edge_p if edge_p is not None else rng.uniform(0.3, 0.9)
    edges = {(x, y) for x in range(n) for y in range(n) if x != y and rng.random() < p}
    topo = Topology(n, frozenset(edges))
    inst = Instance(
        topo,
        tuple(rng.randint(0, max_atoms) for _ in range(n)),
        tuple(rng.randint(0, max_atoms) for _ in range(n)),
        tuple(round(rng.uniform(0, 2), 3) for _ in range(n)),
    )
    params = GameParams(
        k_c=rng.choice([0.0, 0.5, 1.0]), k_a=rng.choice([0.0, 0.45, 1.0])
    )
    return inst, params


def partially_fill(rng, inst, state, tries=12):
    for _ in range(tries):
        x = rng.randrange(inst.n)
        if state.placed[x] >= inst.alpha[x]:
            continue
        cands = game.available_resources(inst, state, x)
        if cands:
            state.apply_move(inst, Move(ALLOCATION, x, None, rng.choice(cands)))
    return state


# ----------------------------------------------------------------- params


@pytest.mark.parametrize("field", ["k_c", "k_a"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.5])
def test_params_reject_nonfinite_or_negative_weights(field, value):
    kwargs = {"k_c": 1.0, "k_a": 0.0, field: value}
    with pytest.raises(ValueError):
        GameParams(**kwargs)


# ---------------------------------------------------------------- utility


def test_utility_direct_evaluation():
    # reliability 0.8, load 10 of 50, own atoms 3: 0.8 - 0.2 + 1.35
    params = GameParams(k_c=1.0, k_a=0.45)
    inst = make(build_complete(3), (10, 10, 10), (50, 50, 50), (0.8, 0.8, 0.8))
    state = AllocationState.from_entries(inst, [(0, 1, 3), (2, 1, 7)])
    assert game.utility(inst, params, state, 0, 1) == pytest.approx(1.95)


def test_utility_reduces_to_reliability():
    inst = make(build_complete(2), (1, 1), (2, 2), (0.7, 0.3))
    params = GameParams(k_c=0.0, k_a=0.0)
    state = AllocationState.from_entries(inst, [(0, 1, 1), (1, 0, 1)])
    assert game.utility(inst, params, state, 0, 1) == 0.3
    assert game.utility(inst, params, state, 1, 0) == 0.7


def test_utility_full_congestion():
    inst = make(build_complete(2), (2, 0), (0, 2), (0.5, 0.5))
    params = GameParams(k_c=1.0, k_a=0.0)
    state = AllocationState.from_entries(inst, [(0, 1, 2)])
    assert game.utility(inst, params, state, 0, 1) == pytest.approx(-0.5)


def test_utility_zero_capacity_error():
    inst = make(build_complete(2), (1, 0), (0, 0), (0.5, 0.5))
    state = AllocationState.zeros(inst)
    with pytest.raises(UndefinedUtilityError):
        game.utility(inst, GameParams(1.0, 0.0), state, 0, 1)


def test_utility_non_edge_error():
    inst = make(build_line(3), (1, 1, 1), (1, 1, 1), (1.0, 1.0, 1.0))
    state = AllocationState.zeros(inst)
    with pytest.raises(ValueError):
        game.utility(inst, GameParams(1.0, 0.0), state, 0, 2)


# -------------------------------------------------------------- potential


def test_potential_of_empty_state_sums_reliabilities():
    inst = make(build_complete(3), (1, 1, 1), (2, 2, 2), (0.3, 0.9, 1.4))
    assert game.potential(inst, GameParams(1.0, 1.0), AllocationState.zeros(inst)) == (
        pytest.approx(0.3 + 0.9 + 1.4)
    )


def test_potential_single_pile_value():
    # resource 1 holds two atoms: congestion sum (1-0)+(1-1/2)+(1-1)=1.5,
    # aggregation sum 0+1+2=3
    topo = Topology(2, frozenset({(0, 1)}))
    inst = make(topo, (2, 0), (0, 2), (0.0, 1.0))
    state = AllocationState.from_entries(inst, [(0, 1, 2)])
    assert game.potential(inst, GameParams(1.0, 1.0), state) == pytest.approx(4.5)


def test_potential_relation_for_relocations():
    rng = random.Random(99)
    checked = 0
    while checked < 2000:
        inst, params = random_setup(rng)
        state = partially_fill(rng, inst, AllocationState.zeros(inst))
        movers = [x for x in range(inst.n) if state.placed[x] > 0]
        if not movers:
            continue
        x = rng.choice(movers)
        src = rng.choice(sorted(state.counts[x]))
        cands = [
            y
            for y in inst.topology.out_neighbors(x)
            if state.load[y] - (y == src) < inst.beta[y]
        ]
        dest = rng.choice(cands)
        before = game.potential(inst, params, state)
        f_src = game.utility(inst, params, state, x, src)
        state.apply_move(inst, Move(DISTRIBUTION, x, src, dest))
        after = game.potential(inst, params, state)
        f_dst = game.utility(inst, params, state, x, dest)
        assert abs((after - before) - (f_dst - f_src)) <= 1e-9
        checked += 1


def test_potential_relation_for_allocations():
    # placing a new atom raises the potential by the post-placement utility
    rng = random.Random(100)
    checked = 0
    while checked < 1000:
        inst, params = random_setup(rng)
        state = partially_fill(rng, inst, AllocationState.zeros(inst), tries=6)
        x = rng.randrange(inst.n)
        if state.placed[x] >= inst.alpha[x]:
            continue
        cands = game.available_resources(inst, state, x)
        if not cands:
            continue
        dest = rng.choice(cands)
        before = game.potential(inst, params, state)
        state.apply_move(inst, Move(ALLOCATION, x, None, dest))
        after = game.potential(inst, params, state)
        assert abs((after - before) - game.utility(inst, params, state, x, dest)) <= 1e-9
        checked += 1


# ---------------------------------------------------- available resources


def test_available_resources_all_full():
    inst = make(build_complete(2), (1, 1), (1, 1), (1.0, 1.0))
    state = AllocationState.from_entries(inst, [(0, 1, 1), (1, 0, 1)])
    assert game.available_resources(inst, state, 0) == []


def test_available_resources_blocked_line_state():
    # chain state where unit 0's only neighbor is already full
    inst = make(build_line(4), (1, 1, 1, 1), (1, 1, 1, 1), (1.0, 3.0, 1.0, 1.0))
    state = AllocationState.from_entries(inst, [(1, 0, 1), (2, 1, 1), (3, 2, 1)])
    assert game.available_resources(inst, state, 0) == []
    assert game.available_resources(inst, state, 2) == [3]


def test_available_resources_fresh_state():
    inst = make(build_complete(4), (1, 1, 1, 1), (1, 1, 1, 1), (1.0,) * 4)
    state = AllocationState.zeros(inst)
    assert game.available_resources(inst, state, 2) == [0, 1, 3]


# ------------------------------------------------------------------ gibbs


def test_gibbs_symmetric_candidates():
    inst = make(build_complete(3), (1, 1, 1), (2, 2, 2), (1.0, 1.0, 1.0))
    state = AllocationState.zeros(inst)
    probs = game.gibbs_choice_distribution(inst, GameParams(1.0, 0.0), state, 0, gamma=1.0)
    assert probs[1] == pytest.approx(0.5)
    assert probs[2] == pytest.approx(0.5)


def test_gibbs_small_gamma_limit_uniform():
    inst = make(build_complete(3), (1, 1, 1), (2, 2, 2), (0.1, 0.9, 0.4))
    state = AllocationState.zeros(inst)
    probs = game.gibbs_choice_distribution(inst, GameParams(1.0, 0.5), state, 0, gamma=1e-9)
    assert probs[1] == pytest.approx(0.5, abs=1e-6)


def test_gibbs_hand_computed_ratio():
    # post-placement utilities (1.0, 0.0) at gamma = ln 3 give (3/4, 1/4)
    inst = make(build_complete(3), (1, 1, 1), (5, 5, 5), (1.0, 1.0, 0.0))
    params = GameParams(k_c=0.0, k_a=0.0)
    state = AllocationState.zeros(inst)
    probs = game.gibbs_choice_distribution(inst, params, state, 0, gamma=math.log(3))
    assert probs[1] == pytest.approx(0.75)
    assert probs[2] == pytest.approx(0.25)


def test_gibbs_normalization_and_positivity():
    rng = random.Random(31)
    for _ in range(200):
        inst, params = random_setup(rng)
        state = partially_fill(rng, inst, AllocationState.zeros(inst))
        x = rng.randrange(inst.n)
        cands = game.available_resources(inst, state, x)
        if not cands:
            continue
        probs = game.gibbs_choice_distribution(inst, params, state, x, gamma=2.5)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(p > 0 for p in probs.values())


def test_gibbs_argmax_mass_nondecreasing_in_gamma():
    rng = random.Random(32)
    for _ in range(60):
        inst, params = random_setup(rng)
        state = partially_fill(rng, inst, AllocationState.zeros(inst))
        x = rng.randrange(inst.n)
        cands = game.available_resources(inst, state, x)
        if not cands:
            continue
        masses = []
        for g in (1.0, 10.0, 100.0):
            probs = game.gibbs_choice_distribution(inst, params, state, x, gamma=g)
            top = max(probs.values())
            argmax = {y for y, p in probs.items() if p == top}
            infinite = game.gibbs_choice_distribution(inst, params, state, x, gamma=math.inf)
            hard_argmax = {y for y, p in infinite.items() if p > 0}
            masses.append(sum(probs[y] for y in hard_argmax))
        assert masses[0] <= masses[1] + 1e-12 <= masses[2] + 2e-12


def test_gibbs_infinite_gamma_uniform_over_ties():
    inst = make(build_complete(4), (1,) * 4, (2,) * 4, (0.5, 1.0, 1.0, 0.2))
    state = AllocationState.zeros(inst)
    probs = game.gibbs_choice_distribution(inst, GameParams(1.0, 0.0), state, 0, gamma=math.inf)
    assert probs[1] == pytest.approx(0.5)
    assert probs[2] == pytest.approx(0.5)
    assert probs[3] == 0.0


def test_gibbs_relocation_keeps_full_source_as_self_move():
    # unit 0's atom fills resource 1; leaving it makes room, so 1 (the
    # self-move) and 2 compete with post-move utilities (1.0, 0.0)
    inst = make(build_complete(3), (1, 1, 1), (1, 1, 1), (1.0, 2.0, 1.0))
    state = AllocationState.from_entries(inst, [(0, 1, 1)])
    params = GameParams(k_c=1.0, k_a=0.0)
    probs = game.gibbs_choice_distribution(inst, params, state, 0, source=1, gamma=math.log(3))
    assert probs[1] == pytest.approx(0.75)
    assert probs[2] == pytest.approx(0.25)
    with pytest.raises(ValueError):
        game.gibbs_choice_distribution(inst, params, state, 0, gamma=1.0, source=2)


def test_gibbs_empty_candidates_error():
    inst = make(build_complete(2), (1, 1), (1, 0), (1.0, 1.0))
    state = AllocationState.zeros(inst)
    with pytest.raises(NoAvailableResourceError):
        game.gibbs_choice_distribution(inst, GameParams(1.0, 0.0), state, 0, gamma=1.0)


def test_gibbs_argmax_invariant_under_reliability_shift():
    rng = random.Random(33)
    for _ in range(50):
        inst, params = random_setup(rng)
        state = partially_fill(rng, inst, AllocationState.zeros(inst))
        x = rng.randrange(inst.n)
        cands = game.available_resources(inst, state, x)
        if not cands:
            continue
        shifted = Instance(
            inst.topology,
            inst.alpha,
            inst.beta,
            tuple(v + 0.37 for v in inst.reliability),
        )
        base = game.gibbs_choice_distribution(inst, params, state, x, gamma=math.inf)
        moved = game.gibbs_choice_distribution(shifted, params, state, x, gamma=math.inf)
        assert {y for y, p in base.items() if p > 0} == {
            y for y, p in moved.items() if p > 0
        }


# ------------------------------------------------------------------- nash


def test_is_nash_two_units_forced():
    inst = make(build_complete(2), (1, 1), (2, 2), (1.0, 1.0))
    state = AllocationState.from_entries(inst, [(0, 1, 1), (1, 0, 1)])
    assert game.is_nash(inst, GameParams(1.0, 0.0), state)


def test_is_nash_detects_improvable_state():
    # unit 0 stores on the unreliable resource while a better one is free
    inst = make(build_complete(3), (1, 0, 0), (2, 2, 2), (0.0, 0.0, 1.0))
    state = AllocationState.from_entries(inst, [(0, 1, 1)])
    assert not game.is_nash(inst, GameParams(0.0, 0.0), state)


def test_is_nash_requires_full_state():
    inst = make(build_complete(3), (1, 1, 1), (2, 2, 2), (1.0, 1.0, 1.0))
    with pytest.raises(InvalidStateError):
        game.is_nash(inst, GameParams(1.0, 0.0), AllocationState.zeros(inst))


# -------------------------------------------------- global utility, weight


def test_global_utility_zero_demand():
    inst = make(build_complete(2), (0, 0), (1, 1), (1.0, 1.0))
    assert game.global_utility(inst, GameParams(1.0, 1.0), AllocationState.zeros(inst)) == 0.0


def test_global_utility_full_congestion_cancels_reliability():
    topo = Topology(2, frozenset({(0, 1)}))
    inst = make(topo, (2, 0), (0, 2), (0.0, 1.0))
    state = AllocationState.from_entries(inst, [(0, 1, 2)])
    assert game.global_utility(inst, GameParams(1.0, 0.0), state) == pytest.approx(0.0)


def test_multinomial_weight_unit_demands():
    inst = make(build_complete(3), (1, 1, 1), (2, 2, 2), (1.0,) * 3)
    state = AllocationState.from_entries(inst, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    assert game.multinomial_weight(inst, state) == 1


def test_multinomial_weight_split_pair():
    inst = make(build_complete(3), (2, 0, 0), (2, 2, 2), (1.0,) * 3)
    state = AllocationState.from_entries(inst, [(0, 1, 1), (0, 2, 1)])
    assert game.multinomial_weight(inst, state) == 2


def test_multinomial_weight_four_choose_two():
    inst = make(build_complete(3), (4, 0, 0), (4, 4, 4), (1.0,) * 3)
    state = AllocationState.from_entries(inst, [(0, 1, 2), (0, 2, 2)])
    assert game.multinomial_weight(inst, state) == 6
    assert game.log_multinomial_weight(inst, state) == pytest.approx(math.log(6))


# ------------------------------------------------------------- apply_move


def test_apply_move_rejects_full_resource():
    inst = make(build_complete(2), (1, 1), (1, 1), (1.0, 1.0))
    state = AllocationState.from_entries(inst, [(1, 0, 1)])
    with pytest.raises(RejectedMoveError):
        state.apply_move(inst, Move(ALLOCATION, 1, None, 0))
    state.validate(inst)


def test_apply_move_self_relocation_is_legal_noop():
    inst = make(build_complete(2), (1, 1), (1, 1), (1.0, 1.0))
    state = AllocationState.from_entries(inst, [(0, 1, 1)])
    before = state.key()
    state.apply_move(inst, Move(DISTRIBUTION, 0, 1, 1))
    assert state.key() == before


def test_apply_move_allocation_updates_caches():
    inst = make(build_complete(3), (2, 0, 0), (2, 2, 2), (1.0,) * 3)
    state = AllocationState.zeros(inst)
    state.apply_move(inst, Move(ALLOCATION, 0, None, 2))
    assert state.placed[0] == 1
    assert state.load[2] == 1
    assert state.get(0, 2) == 1
    state.validate(inst)


def test_apply_move_rejects_zero_source():
    inst = make(build_complete(2), (1, 1), (1, 1), (1.0, 1.0))
    state = AllocationState.from_entries(inst, [(0, 1, 1)])
    with pytest.raises(RejectedMoveError):
        state.apply_move(inst, Move(DISTRIBUTION, 1, 0, 0))


def test_apply_move_rejects_non_edge():
    inst = make(build_line(3), (1, 1, 1), (2, 2, 2), (1.0,) * 3)
    state = AllocationState.zeros(inst)
    with pytest.raises(RejectedMoveError):
        state.apply_move(inst, Move(ALLOCATION, 0, None, 2))


def _corrupt(**changes):
    # A state edit that bypasses _shift, then the invariant check.
    def edit(inst, state):
        for attr, (index, value) in changes.items():
            getattr(state, attr)[index] = value
        state.validate(inst)
    return edit


def _move(*fields):
    return lambda inst, state: state.apply_move(inst, Move(*fields))


# On the line 0 - 1 - 2, with alpha (2, 1, 1) and beta 2, from the state
# whose resource 1 holds one atom of unit 0 and one of unit 2: the error
# and the words of its message, then the rejected action.
_REJECTIONS = {
    "negative-count": (ValueError, "negative count", lambda inst, _s:
                       AllocationState.from_entries(inst, [(0, 1, -1)])),
    "duplicate-entry": (ValueError, "duplicate entry", lambda inst, _s:
                        AllocationState.from_entries(inst, [(0, 1, 1), (0, 1, 1)])),
    "n-mismatch": (InvalidStateError, "instance n=2", lambda _i, state: state.validate(
        make(build_complete(2), (1, 1), (1, 1), (1.0, 1.0)))),
    "nonpositive-count": (InvalidStateError, "nonpositive", _corrupt(counts=(0, {1: 0}))),
    "non-edge": (InvalidStateError, "non-edge", _corrupt(counts=(0, {1: 1, 2: 1}))),
    "stale-row-cache": (InvalidStateError, "stale row", _corrupt(placed=(0, 2))),
    "placed-above-alpha": (InvalidStateError, "> alpha", _corrupt(
        counts=(0, {1: 3}), placed=(0, 3), load=(1, 4))),
    "stale-column-cache": (InvalidStateError, "stale column", _corrupt(load=(1, 1))),
    "load-above-beta": (InvalidStateError, "> beta", _corrupt(
        counts=(0, {1: 2}), placed=(0, 2), load=(1, 3))),
    "unit-out-of-range": (RejectedMoveError, "out of range", _move(ALLOCATION, 5, None, 1)),
    "allocation-with-source": (RejectedMoveError, "cannot carry a source",
                               _move(ALLOCATION, 0, 1, 1)),
    "allocation-on-full-unit": (RejectedMoveError, "fully allocated",
                                _move(ALLOCATION, 2, None, 1)),
    "distribution-without-source": (RejectedMoveError, "needs a source",
                                    _move(DISTRIBUTION, 0, None, 1)),
    "unknown-kind": (RejectedMoveError, "unknown move kind", _move("teleport", 0, None, 1)),
}


@pytest.mark.parametrize("case", sorted(_REJECTIONS))
def test_state_rejections_are_typed(case):
    inst = make(build_line(3), (2, 1, 1), (2, 2, 2), (1.0,) * 3)
    state = AllocationState.from_entries(inst, [(0, 1, 1), (2, 1, 1)])
    error, words, action = _REJECTIONS[case]
    before = state.key()
    with pytest.raises(error, match=re.escape(words)):
        action(inst, state)
    if error is RejectedMoveError:
        assert state.key() == before


def test_adversarial_move_stream_never_corrupts_state():
    rng = random.Random(55)
    for _ in range(40):
        inst, _params = random_setup(rng)
        state = AllocationState.zeros(inst)
        for _ in range(60):
            kind = rng.choice([ALLOCATION, DISTRIBUTION])
            x = rng.randrange(inst.n)
            dest = rng.randrange(inst.n)
            src = None if kind == ALLOCATION else rng.randrange(inst.n)
            before = state.key()
            try:
                state.apply_move(inst, Move(kind, x, src, dest))
            except RejectedMoveError:
                assert state.key() == before
            state.validate(inst)


def test_params_validation():
    with pytest.raises(ValueError):
        GameParams(k_c=-1.0, k_a=0.0)
    with pytest.raises(ValueError):
        GammaSchedule.fixed(0.0)
    GammaSchedule.fixed(math.inf)  # pure best response is valid
