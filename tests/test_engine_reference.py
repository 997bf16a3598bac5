"""The engine against a reference stepper.

The reference below is the step rule written out directly, with no state
kept between steps: every activation scores each out-neighbour from
reliability, capacity, load and the unit's counts in one expression, sums
the Gibbs weights with ``sum()`` and scans them linearly.  The engine's
(t, x, source, dest) stream must match it draw for draw and bit for bit,
and its state's rows must match the reference's after every step.
"""

import math
import operator
import random
from bisect import bisect_right
from itertools import accumulate

from hypothesis import example, given, settings
from hypothesis import strategies as st

from p2pstorage import game
from p2pstorage.dynamics import (
    ALLOCATE_FIRST,
    PROPORTIONAL,
    GammaSchedule,
    SimConfig,
    _engine,
    _initial_state,
    _move_kind,
    run,
    state_stream,
)
from p2pstorage.game import ALLOCATION, AllocationState, GameParams, Move
from p2pstorage.topology import Instance, Topology, build_complete


def reference_choice(inst, params, state, x, source=None):
    lam, beta, load, row = inst.reliability, inst.beta, state.load, state.counts[x]
    cands, utils = [], []
    for y in inst.topology.out_neighbors(x):
        extra = 0 if y == source else 1
        w = load[y] + extra
        if w <= beta[y]:
            cands.append(y)
            utils.append(lam[y] - params.k_c * w / beta[y] + params.k_a * (row.get(y, 0) + extra))
    return cands, utils


def reference_weights(utils, gamma):
    top = max(utils)
    if gamma == math.inf:
        return [1.0 if u == top else 0.0 for u in utils]
    return [math.exp(gamma * (u - top)) for u in utils]


def reference_draw(rng, cands, utils, gamma):
    weights = reference_weights(utils, gamma)
    if gamma == math.inf:
        ties = [y for y, w in zip(cands, weights) if w]
        return ties[rng.randrange(len(ties))] if len(ties) > 1 else ties[0]
    r = rng.random() * sum(weights)
    acc = 0.0
    for y, w in zip(cands, weights):
        acc += w
        if r < acc:
            return y
    return cands[-1]


def reference_stream(config, state=None):
    inst = config.instance
    state = _initial_state(config) if state is None else state
    if inst.total_alpha == 0 or config.horizon == 0:
        return
    cum_alpha = list(accumulate(inst.alpha))
    rng = random.Random(config.seed)
    for t in range(config.horizon):
        x = bisect_right(cum_alpha, rng.random() * cum_alpha[-1])
        p_alloc, p_dist = _move_kind(inst.alpha[x], state.placed[x], config.variant)
        allocate = p_dist == 0 or (p_alloc > 0 and rng.random() < p_alloc)
        source = None
        if not allocate:
            r = rng.random() * state.placed[x]
            acc = 0
            for source, c in sorted(state.counts[x].items()):
                acc += c
                if r < acc:
                    break
        cands, utils = reference_choice(inst, config.params, state, x, source)
        if not cands:
            yield t, x, None, None
            continue
        dest = reference_draw(rng, cands, utils, config.schedule.gamma_at(t))
        kind = ALLOCATION if source is None else game.DISTRIBUTION
        state.apply_move(inst, Move(kind, x, source, dest))
        yield t, x, source, dest


def engine_stream(config):
    return list(_engine(config, _initial_state(config)))


@st.composite
def configs(draw):
    """Small instances with zero capacities and units without
    out-neighbours allowed, a partial initial state or none, k_a zero or
    not, every kind of schedule and both variants."""
    n = draw(st.integers(1, 5))
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    ints = st.lists(st.integers(0, 4), min_size=n, max_size=n)
    inst = Instance(
        Topology(n, frozenset(edges)),
        tuple(draw(ints)),
        tuple(draw(ints)),
        tuple(draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.7]), min_size=n, max_size=n))),
    )
    params = GameParams(
        k_c=draw(st.sampled_from([0.0, 0.5, 1.0, 2.5])),
        k_a=draw(st.sampled_from([0.0, 0.25, 0.45, 1.0])),
    )
    gamma0 = draw(st.sampled_from([0.1, 1.0, 1.5, 7.0, 200.0]))
    schedule = draw(st.sampled_from([
        GammaSchedule.fixed(gamma0),
        GammaSchedule(gamma0, 0.05),
        GammaSchedule.infinite(),
    ]))
    initial = None
    if draw(st.booleans()):
        initial = AllocationState.zeros(inst)
        for x, pick in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 9)),
                                     max_size=10)):
            room = game.available_resources(inst, initial, x)
            if initial.placed[x] < inst.alpha[x] and room:
                initial.apply_move(inst, Move(ALLOCATION, x, None, room[pick % len(room)]))
    return SimConfig(inst, params, schedule, horizon=draw(st.integers(0, 60)),
                     seed=draw(st.integers(0, 2**32)), variant=draw(st.sampled_from(
                         [PROPORTIONAL, ALLOCATE_FIRST])), initial_state=initial)


# Unit 0 has demand and no out-neighbour; resource 2 has no capacity.
_STRANDED = Instance(Topology(3, frozenset({(1, 2), (1, 0), (2, 0)})), (2, 3, 2), (2, 1, 0),
                     (0.5, 0.8, 1.7))
# Demand 30 on capacity 22 over six resources: they fill, and relocations
# run between full resources for most of the horizon.
_DENSE = Instance(build_complete(6), (5,) * 6, (4, 5, 4, 5, 4, 0), (0.4, 0.9, 0.6, 0.9, 0.5, 1.0))
# Unit 0's choices 1 and 3 tie, with resource 2 between them held full by
# unit 3, whose only out-neighbour it is.
_TIED = Instance(Topology(4, frozenset({(0, 1), (0, 2), (0, 3), (3, 2)})), (2, 0, 0, 1),
                 (2, 2, 1, 2), (0.5, 0.8, 0.3, 0.8))
# A full state where each relocation's only room is its own source: the
# other out-neighbour is full (unit 0) or has no capacity (unit 1).
_PINNED = Instance(build_complete(3), (1, 1, 0), (0, 1, 1), (0.5, 0.8, 0.6))
# Total demand 2**53 - 1, whose running sums a float still holds exactly,
# and 2**60, past it, each on capacity 7: it fills, then most steps block.
_HUGE = [Instance(build_complete(4), alpha, (2, 1, 3, 1), (0.5, 0.8, 0.6, 0.9)) for alpha in (
    (2**51 + 7, 2**52, 2**50, 2**50 - 8), (2**59 + 5, 2**58, 2**57, 2**57 - 5))]


@settings(max_examples=300, deadline=None)
@given(configs())
@example(SimConfig(_STRANDED, GameParams(1.0, 0.45), GammaSchedule.fixed(1.5), horizon=40,
                   seed=3, variant=PROPORTIONAL))
@example(SimConfig(_STRANDED, GameParams(1.0, 0.0), GammaSchedule.infinite(), horizon=40,
                   seed=4, variant=ALLOCATE_FIRST))
@example(SimConfig(_DENSE, GameParams(1.0, 0.45), GammaSchedule(1.0, 0.02), horizon=400,
                   seed=21, variant=PROPORTIONAL))
@example(SimConfig(_DENSE, GameParams(1.0, 0.45), GammaSchedule.infinite(), horizon=400,
                   seed=22, variant=PROPORTIONAL))
@example(SimConfig(_TIED, GameParams(1.0, 0.0), GammaSchedule.infinite(), horizon=20, seed=5,
                   initial_state=AllocationState.from_entries(_TIED, [(3, 2, 1)])))
@example(SimConfig(_PINNED, GameParams(1.0, 0.45), GammaSchedule.fixed(1.5), horizon=20, seed=6,
                   initial_state=AllocationState.from_entries(_PINNED, [(0, 1, 1), (1, 2, 1)])))
@example(SimConfig(_HUGE[0], GameParams(1.0, 0.45), GammaSchedule(1.0, 0.01), horizon=300,
                   seed=37, variant=PROPORTIONAL))
@example(SimConfig(_HUGE[1], GameParams(1.0, 0.45), GammaSchedule(1.0, 0.01), horizon=300,
                   seed=38, variant=ALLOCATE_FIRST))
def test_engine_stream_matches_reference_stepper(config):
    assert engine_stream(config) == list(reference_stream(config))
    # Step both on their own states again, and after every step compare the
    # states: the same count rows and row and column sums, each consistent.
    mine, ref = _initial_state(config), _initial_state(config)
    for _ in zip(_engine(config, mine), reference_stream(config, ref)):
        assert (mine.placed, mine.load, mine.rows) == (ref.placed, ref.load, ref.rows)
        mine.validate(config.instance)


def assert_state_forms_agree(inst, state):
    """The rows, read in ``game._edges`` order, are ``_bulk``'s counts, on
    the instance's own out-neighbour tuples; ``key()``, ``get`` and
    ``counts`` read the same atoms; and a copy shares no row."""
    units, resources = (a.tolist() for a in game._edges(inst))
    read = [state.rows[x][state.out[x].index(y)] for x, y in zip(units, resources)]
    assert read == game._bulk(inst, state)[1][0].tolist()
    assert all(a is b for a, b in zip(state.out, map(inst.topology.out_neighbors, range(inst.n))))
    nonzero = [(x, y, c) for x, y, c in zip(units, resources, read) if c]
    assert state.key() == tuple(nonzero)
    assert [state.get(x, y) for x, y in zip(units, resources)] == read
    assert all(state.get(x, y) == 0 for x in range(inst.n) for y in range(inst.n + 1)
               if y not in state.out[x])
    assert state.counts == [{y: c for u, y, c in nonzero if u == x} for x in range(inst.n)]
    twin = state.copy()
    assert twin.rows == state.rows and twin.out is state.out
    assert twin.rows is not state.rows and not any(map(operator.is_, twin.rows, state.rows))


@settings(max_examples=150, deadline=None)
@given(configs(), st.randoms(use_true_random=False))
def test_state_rows_key_get_and_counts_agree(config, rng):
    # States from engine runs (after every step), from copies and from
    # from_entries, its entries shuffled, with zero counts among them.
    inst = config.instance
    for _t, state, _move in state_stream(config):
        assert_state_forms_agree(inst, state)
    final = run(config).final_state
    entries = list(final.key()) + [(x, y, 0) for x, y, _c in final.key()[:1]]
    rng.shuffle(entries)
    for state in (final, final.copy(), AllocationState.from_entries(inst, entries)):
        assert_state_forms_agree(inst, state)
        assert state.key() == final.key()


def test_engine_never_draws_a_destination_of_probability_zero():
    # At a large finite gamma most Gibbs weights underflow to 0.0.  The
    # engine draws against the running sum's last value, the total the law
    # divides by, so it never returns a weight-0 candidate, on any Python
    # (sum() of floats is compensated from 3.12 on).
    inst = Instance(build_complete(4), (3, 2, 3, 2), (3, 3, 3, 2), (0.2, 0.9, 0.5, 0.7))
    params, gamma = GameParams(1.0, 0.25), 800.0
    state = AllocationState.from_entries(inst, [(0, 1, 2), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    for seed in range(300):
        config = SimConfig(inst, params, GammaSchedule.fixed(gamma), horizon=1, seed=seed,
                           initial_state=state)
        [(_t, _state, move)] = state_stream(config)
        if move is None:
            continue
        law = game.gibbs_choice_distribution(inst, params, state, move.unit, gamma, move.source)
        assert law[move.dest] > 0, (seed, move)


def test_a_draw_key_stays_below_its_total():
    # random() is at most 1 - 2**-53, so random() * p < p: a bisection for
    # it never runs off the end of a running sum ending in p.  The engine's
    # draws rely on this with no guard.  The bound fails on subnormal
    # floats, and no weight sum is subnormal: its top weight is 1.0.
    top = 1 - 2**-53
    rng = random.Random(53)
    ints = [1, 10**30] + [2**k + d for k in range(1, 81) for d in (-1, 0, 1)]
    ints += [rng.randrange(1, 2 ** rng.randint(1, 80)) for _ in range(300_000)]
    floats = [math.ldexp(1.0 + rng.random(), e) for e in range(1000) for _ in range(200)]
    powers = [math.ldexp(1.0, e) for e in range(1001)]
    floats += powers + [math.nextafter(p, math.inf) for p in powers[:-1]]
    floats += [math.nextafter(p, 0.0) for p in powers[1:]]
    assert [p for p in ints + floats if not top * p < p] == []
    assert top * 5e-324 == 5e-324  # the smallest subnormal
