import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2pstorage.feasibility import (
    SizeLimitExceeded,
    check_feasible_exhaustive,
    check_feasible_flow,
    check_feasible_matching,
    check_strict,
    check_strict_exhaustive,
    maximal_irreducible_subsets,
    witness_violates,
)
from p2pstorage.topology import (
    Instance,
    Topology,
    build_complete,
    build_line,
    build_random_regular,
    neighborhood_of_set,
)


def make(topo, alpha, beta):
    return Instance(topo, alpha, beta, tuple(1.0 for _ in range(topo.n)))


def random_instance(rng, max_n=8, max_atoms=5):
    n = rng.randint(1, max_n)
    edges = {
        (x, y) for x in range(n) for y in range(n) if x != y and rng.random() < rng.uniform(0.1, 0.9)
    }
    topo = Topology(n, frozenset(edges))
    alpha = tuple(rng.randint(0, max_atoms) for _ in range(n))
    beta = tuple(rng.randint(0, max_atoms) for _ in range(n))
    return make(topo, alpha, beta)


def test_flow_complete_unit_demands():
    inst = make(build_complete(3), (1, 1, 1), (1, 1, 1))
    assert check_feasible_flow(inst).feasible


def test_flow_complete_overloaded():
    inst = make(build_complete(3), (2, 1, 1), (1, 1, 1))
    verdict = check_feasible_flow(inst)
    assert not verdict.feasible
    # total demand 4 > total capacity 3, and the full set is the only violator
    assert verdict.witness == (0, 1, 2)
    assert witness_violates(inst, verdict.witness)


def test_flow_line_unit_demands():
    # oracle: all 15 nonempty subsets satisfy the covering inequality
    inst = make(build_line(4), (1, 1, 1, 1), (1, 1, 1, 1))
    topo = inst.topology
    for size in range(1, 5):
        for subset in itertools.combinations(range(4), size):
            cover = neighborhood_of_set(topo, set(subset))
            assert sum(inst.alpha[x] for x in subset) <= sum(inst.beta[y] for y in cover)
    assert check_feasible_flow(inst).feasible


def test_flow_zero_demand_is_feasible():
    inst = make(build_complete(3), (0, 0, 0), (0, 0, 0))
    assert check_feasible_flow(inst).feasible


def test_exhaustive_agrees_with_flow_on_random_instances():
    rng = random.Random(123)
    for _ in range(300):
        inst = random_instance(rng)
        flow = check_feasible_flow(inst)
        exhaustive = check_feasible_exhaustive(inst)
        assert flow.feasible == exhaustive.feasible
        if not flow.feasible:
            assert witness_violates(inst, flow.witness)
            assert witness_violates(inst, exhaustive.witness)


def test_exhaustive_large_benchmark_instance_guard():
    inst = make(build_complete(50), tuple([45] * 50), tuple([50] * 50))
    with pytest.raises(SizeLimitExceeded):
        check_feasible_exhaustive(inst)
    # flow route scales; strictness holds in this setting
    assert check_feasible_flow(inst).feasible
    assert check_strict(inst).feasible


def test_exhaustive_isolated_unit():
    inst = make(Topology(1, frozenset()), (1,), (1,))
    verdict = check_feasible_exhaustive(inst)
    assert not verdict.feasible
    assert verdict.witness == (0,)


def test_strict_holds():
    inst = make(build_complete(3), (1, 1, 1), (2, 2, 2))
    assert check_strict(inst).feasible
    assert check_strict_exhaustive(inst).feasible


def test_strict_fails_at_equality():
    inst = make(build_complete(3), (1, 1, 1), (1, 1, 1))
    verdict = check_strict(inst)
    assert not verdict.feasible
    assert witness_violates(inst, verdict.witness, strict=True)
    assert not check_strict_exhaustive(inst).feasible


def test_strict_fails_for_isolated_zero_demand_unit():
    # the singleton {2} gives 0 < 0, which is false
    topo = Topology(3, frozenset({(0, 1), (1, 0), (0, 2), (1, 2)}))
    inst = make(topo, (1, 1, 0), (2, 2, 2))
    assert not check_strict(inst).feasible
    assert not check_strict_exhaustive(inst).feasible


def test_strict_agrees_with_exhaustive_and_implies_feasible():
    rng = random.Random(321)
    strict_seen = 0
    for _ in range(200):
        inst = random_instance(rng, max_n=6)
        s_flow = check_strict(inst)
        s_exh = check_strict_exhaustive(inst)
        assert s_flow.feasible == s_exh.feasible
        if s_flow.feasible:
            strict_seen += 1
            assert check_feasible_flow(inst).feasible
        else:
            assert witness_violates(inst, s_flow.witness, strict=True)
    assert strict_seen > 10


def test_strict_fails_with_zero_demand_and_empty_capacity_neighbors():
    # every unit demands nothing, but unit 2 only reaches resources that
    # hold nothing, so the singleton {2} gives 0 < 0, which is false
    inst = make(build_complete(3), (0, 0, 0), (0, 0, 3))
    assert check_feasible_flow(inst).feasible
    verdict = check_strict(inst)
    assert not verdict.feasible
    assert witness_violates(inst, verdict.witness, strict=True)
    assert not check_strict_exhaustive(inst).feasible


def test_strict_fails_only_at_last_unit_of_regular_instance():
    # units 0..198 form a 10-regular graph with demand below capacity, so
    # every set of them has strict slack; unit 199 stores only into one
    # resource and needs all of it, which makes {199} the only tight set
    rng = random.Random(99)
    n, last = 200, 199
    regular = build_random_regular(last, 10, seed=7)
    target = rng.randrange(last)
    topo = Topology(n, regular.edges | {(last, target)})
    alpha = tuple(rng.randint(35, 44) for _ in range(last)) + (50,)
    inst = make(topo, alpha, tuple([50] * n))
    assert check_feasible_flow(inst).feasible
    verdict = check_strict(inst)
    assert not verdict.feasible
    assert last in verdict.witness
    assert witness_violates(inst, verdict.witness, strict=True)


def test_strict_agrees_with_exhaustive_on_thousand_instances():
    rng = random.Random(2718)
    outcomes = {True: 0, False: 0}
    for _ in range(1000):
        inst = random_instance(rng, max_n=9)
        verdict = check_strict(inst)
        assert verdict.feasible == check_strict_exhaustive(inst).feasible
        if not verdict.feasible:
            assert witness_violates(inst, verdict.witness, strict=True)
        outcomes[verdict.feasible] += 1
    assert min(outcomes.values()) > 50


@st.composite
def small_instances(draw):
    """n <= 10 units, a random directed edge set, alpha and beta <= 4."""
    n = draw(st.integers(1, 10))
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    alpha = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    beta = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return make(Topology(n, frozenset(edges)), tuple(alpha), tuple(beta))


@settings(max_examples=300, deadline=None)
@given(small_instances())
def test_flow_verdicts_agree_with_exhaustive_and_witnesses_violate(inst):
    flow = check_feasible_flow(inst)
    assert flow.feasible == check_feasible_exhaustive(inst).feasible
    if not flow.feasible:
        assert witness_violates(inst, flow.witness)
    strict = check_strict(inst)
    assert strict.feasible == check_strict_exhaustive(inst).feasible
    if not strict.feasible:
        assert witness_violates(inst, strict.witness, strict=True)


def _brute_force_maximal_irreducible(inst):
    """Definition checked literally: irreducibility against every
    2-partition, maximality against every irreducible strict superset."""
    topo = inst.topology
    n = inst.n

    def is_irreducible(d):
        members = sorted(d)
        for split in range(1, 2 ** (len(members) - 1)):
            part1 = {m for i, m in enumerate(members) if split >> i & 1}
            part2 = d - part1
            if not part1 or not part2:
                continue
            if not (neighborhood_of_set(topo, part1) & neighborhood_of_set(topo, part2)):
                return False
        return True

    irreducibles = []
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if is_irreducible(set(subset)):
                irreducibles.append(set(subset))

    out = []
    for d in irreducibles:
        nd = neighborhood_of_set(topo, d)
        maximal = all(
            neighborhood_of_set(topo, other) != nd
            for other in irreducibles
            if other > d
        )
        if maximal:
            out.append(tuple(sorted(d)))
    return sorted(out, key=lambda t: (len(t), t))


def test_maximal_irreducible_complete_four():
    inst = make(build_complete(4), (1, 1, 1, 1), (1, 1, 1, 1))
    result = maximal_irreducible_subsets(inst)
    assert result == [(0,), (1,), (2,), (3,), (0, 1, 2, 3)]


def test_maximal_irreducible_line_four():
    inst = make(build_line(4), (1, 1, 1, 1), (1, 1, 1, 1))
    result = maximal_irreducible_subsets(inst)
    # all members have the alternating form {i, i+2, ...}
    for subset in result:
        steps = {b - a for a, b in zip(subset, subset[1:])}
        assert steps <= {2}
    assert result == _brute_force_maximal_irreducible(inst)


def test_maximal_irreducible_single_unit():
    inst = make(Topology(1, frozenset()), (0,), (0,))
    assert maximal_irreducible_subsets(inst) == [(0,)]


def test_maximal_irreducible_matches_brute_force_random():
    rng = random.Random(77)
    for _ in range(30):
        inst = random_instance(rng, max_n=6)
        assert maximal_irreducible_subsets(inst) == _brute_force_maximal_irreducible(inst)


def test_covering_condition_restricted_to_maximal_irreducible():
    # testing the inequality only on maximal irreducible subsets is
    # equivalent to testing it on all subsets
    rng = random.Random(404)
    for _ in range(120):
        inst = random_instance(rng, max_n=6)
        topo = inst.topology
        restricted_ok = all(
            sum(inst.alpha[x] for x in d)
            <= sum(inst.beta[y] for y in neighborhood_of_set(topo, set(d)))
            for d in maximal_irreducible_subsets(inst)
        )
        assert restricted_ok == check_feasible_exhaustive(inst).feasible


def test_atom_bipartite_structure():
    inst = make(build_line(2), (1, 0), (0, 1))
    assert check_feasible_matching(inst).feasible


def test_atom_bipartite_guard():
    inst = make(build_complete(100), tuple([60] * 100), tuple([60] * 100))
    with pytest.raises(SizeLimitExceeded):
        check_feasible_matching(inst)


def test_matching_on_a_long_line_needs_no_recursion():
    # Augmenting paths run the length of the line: 4,000 atom-graph nodes,
    # under the size guard.
    inst = make(build_line(2000), (1,) * 2000, (1,) * 2000)
    assert check_feasible_matching(inst).feasible
    assert check_feasible_flow(inst).feasible


def chain_instance(m):
    # Users i < m store into resources 2m-i-1 and 2m-i; user 2m+1 stores only
    # into resource m, which user m-1 fills first, so the last augmenting
    # path walks back through every user and resource: 1,202 units in all.
    n = 2 * m + 2
    edges = {(i, 2 * m - i - 1) for i in range(m)} | {(i, 2 * m - i) for i in range(m)}
    topo = Topology(n, frozenset(edges | {(2 * m + 1, m)}))
    alpha = (1,) * m + (0,) * (m + 1) + (1,)
    beta = (0,) * m + (1,) * (m + 1) + (0,)
    return make(topo, alpha, beta)


def test_flow_on_a_long_augmenting_path_needs_no_recursion():
    inst = chain_instance(600)
    assert check_feasible_flow(inst).feasible
    assert check_feasible_matching(inst).feasible  # 1,202 atom-graph nodes
    verdict = check_strict(inst)  # demand equals capacity: tight, not strict
    assert not verdict.feasible
    assert witness_violates(inst, verdict.witness, strict=True)


def test_flow_time_does_not_grow_with_capacity():
    big = 10**30
    inst = make(build_complete(2), (big, big), (big, big))
    start = time.perf_counter()
    assert check_feasible_flow(inst).feasible
    verdict = check_strict(inst)
    assert time.perf_counter() - start < 1.0
    assert not verdict.feasible
    assert witness_violates(inst, verdict.witness, strict=True)


def test_matching_counts_uncovered_atoms():
    inst = make(build_complete(3), (2, 1, 1), (1, 1, 1))
    verdict = check_feasible_matching(inst)
    assert not verdict.feasible
    assert witness_violates(inst, verdict.witness)


def test_matching_agrees_with_flow_on_random_instances():
    rng = random.Random(2024)
    for _ in range(300):
        inst = random_instance(rng, max_n=6, max_atoms=4)
        flow = check_feasible_flow(inst)
        matching = check_feasible_matching(inst)
        assert flow.feasible == matching.feasible
        if not matching.feasible:
            assert witness_violates(inst, matching.witness)


def test_regular_constant_demand_rule():
    # on a d-regular graph with constant demand a and capacity b,
    # an allocation exists exactly when a <= b
    rng = random.Random(5150)
    for _ in range(60):
        n = rng.randint(4, 12)
        d = rng.randint(1, n - 1)
        if (n * d) % 2:
            continue
        topo = build_random_regular(n, d, seed=rng.randint(0, 10**6))
        a = rng.randint(0, 6)
        b = rng.randint(0, 6)
        inst = make(topo, tuple([a] * n), tuple([b] * n))
        assert check_feasible_flow(inst).feasible == (a <= b)
