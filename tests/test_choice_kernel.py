"""Property tests for the choice kernel shared by the engine, the exact
oracle and the public choice law."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from p2pstorage import game
from p2pstorage.game import ALLOCATION, DISTRIBUTION, AllocationState, GameParams, Move, _choice
from p2pstorage.topology import Instance, Topology


@st.composite
def choice_setups(draw):
    """A small instance, a reachable state, a unit and a source (None for
    a new atom of a unit with demand left, else one of its nonempty
    piles)."""
    n = draw(st.integers(2, 5))
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    edges = draw(st.sets(st.sampled_from(pairs), min_size=1))
    inst = Instance(
        Topology(n, frozenset(edges)),
        tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))),
        tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))),
        tuple(draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.7]), min_size=n, max_size=n))),
    )
    params = GameParams(
        k_c=draw(st.sampled_from([0.0, 0.5, 1.0, 2.5])),
        k_a=draw(st.sampled_from([0.0, 0.25, 0.45, 1.0])),
    )
    state = AllocationState.zeros(inst)
    for x, pick in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 10)), max_size=12)):
        room = game.available_resources(inst, state, x)
        if state.placed[x] < inst.alpha[x] and room:
            state.apply_move(inst, Move(ALLOCATION, x, None, room[pick % len(room)]))
    x = draw(st.integers(0, n - 1))
    sources = [None] if state.placed[x] < inst.alpha[x] else []
    sources += sorted(state.counts[x])
    assume(sources)
    source = draw(st.sampled_from(sources))
    return inst, params, state, x, source


@settings(max_examples=200, deadline=None)
@given(choice_setups())
def test_choice_candidates_are_neighbors_with_room_after_leaving_source(setup):
    inst, params, state, x, source = setup
    cands, utils = _choice(inst, params, state, x, source)
    expected = [
        y
        for y in inst.topology.out_neighbors(x)
        if state.load[y] - (y == source) < inst.beta[y]
    ]
    assert cands == expected
    assert len(utils) == len(cands)
    if source is not None:
        assert source in cands  # the self-move is always a choice


@settings(max_examples=200, deadline=None)
@given(choice_setups())
def test_choice_utility_differences_are_potential_differences(setup):
    inst, params, state, x, source = setup
    cands, utils = _choice(inst, params, state, x, source)
    before = game.potential(inst, params, state)
    u_source = 0.0 if source is None else utils[cands.index(source)]
    for dest, u_dest in zip(cands, utils):
        after_state = state.copy()
        kind = ALLOCATION if source is None else DISTRIBUTION
        after_state.apply_move(inst, Move(kind, x, source, dest))
        after = game.potential(inst, params, after_state)
        assert after - before == pytest.approx(u_dest - u_source, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(choice_setups())
def test_global_utility_sums_each_atom_utility(setup):
    inst, params, state, _x, _source = setup
    expected = sum(
        c * game.utility(inst, params, state, x, y)
        for x in range(inst.n)
        for y, c in state.counts[x].items()
    )
    assert game.global_utility(inst, params, state) == pytest.approx(expected, abs=1e-9)
