import itertools
import random
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2pstorage import feasibility
from p2pstorage.feasibility import (
    FeasibilityVerdict,
    SizeLimitExceeded,
    check_feasible_exhaustive,
    check_feasible_flow,
    check_feasible_matching,
    check_strict,
    check_strict_exhaustive,
    witness_violates,
)
from p2pstorage.game import AllocationState
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


def test_an_empty_witness_violates_nothing():
    inst = make(build_complete(3), (2, 1, 1), (1, 1, 1))
    assert not witness_violates(inst, ())
    assert not witness_violates(inst, (), strict=True)


def test_a_witness_is_read_as_a_set_of_units():
    # {0} holds 2 atoms against 2 slots; a repeated entry adds no demand.
    inst = make(build_complete(3), (2, 1, 1), (1, 1, 1))
    assert not witness_violates(inst, (0,))
    assert not witness_violates(inst, (0, 0))
    assert witness_violates(inst, (2, 0, 1, 0))


@pytest.mark.parametrize("entry", [-3, 3, 5, True, False, 0.0, "0", None])
def test_a_witness_entry_that_is_not_a_unit_is_refused(entry):
    inst = make(build_complete(3), (2, 1, 1), (1, 1, 1))
    for witness in ((entry,), (1, entry)):
        with pytest.raises(ValueError, match="not a unit"):
            witness_violates(inst, witness)


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


def scalar_exhaustive(inst, strict):
    """The subset loop the exhaustive oracles replaced: each subset's units
    and its neighborhood's resources added one bit at a time."""
    n = inst.n
    nbr_mask = [sum(1 << y for y in inst.topology.out_neighbors(x)) for x in range(n)]
    for mask in range(1, 1 << n):
        demand = 0
        cover = 0
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            demand += inst.alpha[i]
            cover |= nbr_mask[i]
            m ^= low
        capacity = 0
        while cover:
            low = cover & -cover
            capacity += inst.beta[low.bit_length() - 1]
            cover ^= low
        if demand > capacity or (strict and demand == capacity):
            return False, tuple(i for i in range(n) if mask >> i & 1)
    return True, None


def equivalence_instance(rng, max_n=14):
    """n <= max_n with zero demands and capacities, isolated units (no edge
    in or out), and one instance in eight scaled by 10**30 (object arrays)."""
    n = min(rng.randint(1, max_n), rng.randint(1, max_n))  # small n more often: the loop is 2^n
    isolated = {x for x in range(n) if rng.random() < 0.15}
    p = rng.uniform(0.1, 0.9)
    edges = frozenset(
        (x, y) for x in range(n) for y in range(n)
        if x != y and x not in isolated and y not in isolated and rng.random() < p
    )
    scale = 10**30 if rng.random() < 0.125 else 1
    alpha = tuple(scale * rng.choice([0, 0, 1, 2, 3]) for _ in range(n))
    beta = tuple(scale * rng.choice([0, 1, 2, 4, 6]) for _ in range(n))
    return make(Topology(n, edges), alpha, beta)


def test_exhaustive_oracles_equal_the_scalar_subset_loop():
    rng = random.Random(1935)
    outcomes = {(strict, feasible): 0 for strict in (False, True) for feasible in (False, True)}
    scaled = 0
    for _ in range(1000):
        inst = equivalence_instance(rng)
        scaled += inst.total_alpha + inst.total_beta >= 2**62
        for strict, oracle in ((False, check_feasible_exhaustive), (True, check_strict_exhaustive)):
            verdict = oracle(inst)
            assert (verdict.feasible, verdict.witness) == scalar_exhaustive(inst, strict)
            outcomes[strict, verdict.feasible] += 1
    assert min(outcomes.values()) > 50 and scaled > 50


@pytest.mark.parametrize("scale", [1, 10**30])
@pytest.mark.parametrize("alpha3,feasible,strict_witness", [(1, True, (3, 17)), (2, False, (3,))])
def test_exhaustive_witness_past_the_low_sixteen_units(scale, alpha3, feasible, strict_witness):
    # Units 3 and 17 store only on resource 0 and fill it together; every
    # set without both has room, so the first violator past {3} is {3, 17},
    # whose unit 17 lies beyond the 16 low units of the subset tables.
    n = 18
    edges = {(x, y) for x in range(17) for y in range(17) if x != y and x != 3} | {(3, 0), (17, 0)}
    alpha = tuple(scale * (alpha3 if x == 3 else 1) for x in range(n))
    inst = make(Topology(n, frozenset(edges)), alpha, tuple([2 * scale] * n))
    verdict = check_feasible_exhaustive(inst)
    assert (verdict.feasible, verdict.witness) == (feasible, None if feasible else (3, 17))
    assert check_strict_exhaustive(inst).witness == strict_witness


def test_exhaustive_agrees_with_flow_beyond_sixteen_units():
    # The 16 low units always have room among themselves, so every verdict
    # is decided by sets holding high units.
    rng = random.Random(16)
    verdicts = set()
    for _ in range(30):
        n = rng.randint(17, 20)
        edges = {(x, y) for x in range(16) for y in range(16) if x != y}
        edges |= {(x, y) for x in range(16, n) for y in range(n) if x != y and rng.random() < 0.15}
        alpha = (1,) * 16 + tuple(rng.randint(0, 8) for _ in range(16, n))
        beta = (3,) * 16 + tuple(rng.randint(0, 3) for _ in range(16, n))
        inst = make(Topology(n, frozenset(edges)), alpha, beta)
        for strict, flow, oracle in (
            (False, check_feasible_flow, check_feasible_exhaustive),
            (True, check_strict, check_strict_exhaustive),
        ):
            verdict = oracle(inst)
            assert verdict.feasible == flow(inst).feasible
            assert verdict.feasible or witness_violates(inst, verdict.witness, strict=strict)
            verdicts.add((strict, verdict.feasible))
    assert len(verdicts) == 4


def test_exhaustive_decides_a_feasible_twenty_unit_instance_fast():
    inst = make(build_complete(20), tuple([1] * 20), tuple([2] * 20))
    start = time.perf_counter()
    assert check_feasible_exhaustive(inst).feasible
    assert check_strict_exhaustive(inst).feasible
    assert time.perf_counter() - start < 0.5


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


class ListOfListsDinic:
    """The reference max-flow: a generic Dinic network with per node a
    list of [to, cap, rev] edges, searched in insertion order."""

    def __init__(self, size):
        self.size = size
        self.adj = [[] for _ in range(size)]

    def add_edge(self, u, v, cap):
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def _bfs(self, s, t):
        self.level = [-1] * self.size
        self.level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for edge in self.adj[u]:
                if edge[1] > 0 and self.level[edge[0]] < 0:
                    self.level[edge[0]] = self.level[u] + 1
                    queue.append(edge[0])
        return self.level[t] >= 0

    def _augment(self, s, t):
        adj, level, it = self.adj, self.level, self.it
        u, path = s, []
        while u != t:
            edges, i, nxt = adj[u], it[u], level[u] + 1
            end = len(edges)
            while i < end:
                edge = edges[i]
                if edge[1] > 0 and level[edge[0]] == nxt:
                    break
                i += 1
            it[u] = i
            if i < end:
                path.append(edge)
                u = edge[0]
            elif path:
                edge = path.pop()
                u = adj[edge[0]][edge[2]][0]
                it[u] += 1
            else:
                return 0
        flow = min([edge[1] for edge in path])
        for edge in path:
            edge[1] -= flow
            adj[edge[0]][edge[2]][1] += flow
        return flow

    def max_flow(self, s, t):
        total = 0
        while self._bfs(s, t):
            self.it = [0] * self.size
            while flow := self._augment(s, t):
                total += flow
        return total

    def reachable_from(self, s, reverse=False):
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v, cap, rev in self.adj[u]:
                residual = self.adj[v][rev][1] if reverse else cap
                if residual > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


def reference_outcome(inst):
    """The shipped total and the flow and strict verdicts, read from the
    aggregated network: node 0 is the source, 1 + x unit x, 1 + n + y
    resource y and 2n + 1 the sink; source -> unit x (capacity alpha_x)
    -> resource y for every edge (x, y) (capacity above the total demand)
    -> sink (capacity beta_y)."""
    n, total = inst.n, inst.total_alpha
    net = ListOfListsDinic(2 * n + 2)
    for x, demand in enumerate(inst.alpha):
        if demand > 0:
            net.add_edge(0, 1 + x, demand)
        for y in inst.topology.out_neighbors(x):
            net.add_edge(1 + x, 1 + n + y, total + 1)
    for y, capacity in enumerate(inst.beta):
        if capacity > 0:
            net.add_edge(1 + n + y, 2 * n + 1, capacity)
    shipped = net.max_flow(0, 2 * n + 1)

    def units(nodes):
        return tuple(x for x in range(n) if 1 + x in nodes)

    if shipped < total:
        witness = units(net.reachable_from(0))
        return shipped, FeasibilityVerdict(False, witness), FeasibilityVerdict(False, witness)
    reaches_sink = net.reachable_from(2 * n + 1, reverse=True)
    for x in range(n):
        if 1 + x not in reaches_sink:
            strict = FeasibilityVerdict(False, units(net.reachable_from(1 + x)))
            return shipped, FeasibilityVerdict(True), strict
    return shipped, FeasibilityVerdict(True), FeasibilityVerdict(True)


def allocation_from_flow(inst, flow):
    """The solver's per-unit flow rows as an allocation state, with its row
    and column sums taken from the solver's unshipped demand and spare
    capacity."""
    placed = [a - left for a, left in zip(inst.alpha, flow.left)]
    load = [b - spare for b, spare in zip(inst.beta, flow.spare)]
    return AllocationState(inst.n, [dict(row) for row in flow.flow], placed, load)


def test_flow_equals_the_reference_network():
    # Every witness is a residual reach set that all maximum flows share,
    # so the solver must match the reference network's verdicts exactly;
    # a full flow is an allocation certificate.
    rng = random.Random(1970)
    outcomes, scaled, certified = set(), 0, 0
    for _ in range(1000):
        inst = equivalence_instance(rng, max_n=12)
        scaled += inst.total_alpha >= 10**30
        flow = feasibility._Transport(inst)
        outcome = (inst.total_alpha - sum(flow.left), check_feasible_flow(inst), check_strict(inst))
        assert outcome == reference_outcome(inst)
        assert flow.full == outcome[1].feasible
        if not outcome[2].feasible:  # a witness search meets no spare capacity
            start = [x for x, need in enumerate(flow.left) if need] or outcome[2].witness[:1]
            assert flow._search(start, [False] * inst.n)[0] == -1
        if flow.full:
            state = allocation_from_flow(inst, flow)
            state.validate(inst)
            assert state.is_full(inst)
            certified += 1
        outcomes.add((outcome[1].feasible, outcome[2].feasible))
    assert outcomes == {(False, False), (True, False), (True, True)} and scaled > 50
    assert certified > 100


def table4_instance(n, seed, tight):
    """check-scale's n = 300 shapes: a 10-regular instance with capacity 50
    and demands 35..44; ``tight`` makes unit n - 1 store only into one
    resource and need all of it, so {n - 1} is the only tight set."""
    rng = random.Random(seed)
    m = n - 1 if tight else n  # units of the regular part
    edges = build_random_regular(m, 10, seed=seed).edges
    alpha = tuple(rng.randint(35, 44) for _ in range(m))
    if tight:
        edges |= {(m, rng.randrange(m))}
        alpha += (50,)
    return make(Topology(n, edges), alpha, (50,) * n)


@pytest.mark.parametrize("tight", [False, True])
def test_full_flow_is_an_allocation_certificate_at_scale(tight):
    inst = table4_instance(300, 24, tight)
    flow = feasibility._Transport(inst)
    assert flow.full
    state = allocation_from_flow(inst, flow)
    state.validate(inst)
    assert state.is_full(inst)
    assert check_strict(inst) == (FeasibilityVerdict(False, (299,)) if tight else FeasibilityVerdict(True))


def unseeded_matching(inst):
    """The matching oracle before its first-fit seed: Kuhn's search from
    every atom in turn, then alternating reach from the atoms left
    unmatched."""
    n = inst.n
    slot_start = [0] * (n + 1)
    for y in range(n):
        slot_start[y + 1] = slot_start[y] + inst.beta[y]
    slot_owner = [-1] * slot_start[n]
    atom_unit = [x for x in range(n) for _ in range(inst.alpha[x])]

    def slots(atom):
        return [s for y in inst.topology.out_neighbors(atom_unit[atom])
                for s in range(slot_start[y], slot_start[y + 1])]

    def augment(atom, visited):
        path, tries, taken = [atom], [iter(slots(atom))], []
        while path:
            for slot in tries[-1]:
                if not visited[slot]:
                    break
            else:
                path.pop()
                tries.pop()
                if taken:
                    taken.pop()
                continue
            visited[slot] = True
            taken.append(slot)
            owner = slot_owner[slot]
            if owner < 0:
                for a, s in zip(path, taken):
                    slot_owner[s] = a
                return True
            path.append(owner)
            tries.append(iter(slots(owner)))
        return False

    unmatched = [a for a in range(len(atom_unit)) if not augment(a, [False] * len(slot_owner))]
    if not unmatched:
        return FeasibilityVerdict(True)
    reach, queue = set(unmatched), deque(unmatched)
    while queue:
        for slot in slots(queue.popleft()):
            owner = slot_owner[slot]
            if owner >= 0 and owner not in reach:
                reach.add(owner)
                queue.append(owner)
    return FeasibilityVerdict(False, tuple(sorted({atom_unit[a] for a in reach})))


def test_seeded_matching_equals_the_unseeded_search():
    # The alternating reach from the unmatched atoms is the same for every
    # maximum matching, so the first-fit seed changes no witness.
    rng = random.Random(1931)
    verdicts = {True: 0, False: 0}
    for _ in range(1000):
        inst = equivalence_instance(rng, max_n=12)
        if inst.total_alpha + inst.total_beta >= 10**30:
            with pytest.raises(SizeLimitExceeded):
                check_feasible_matching(inst)
            continue
        verdict = check_feasible_matching(inst)
        assert verdict == unseeded_matching(inst)
        verdicts[verdict.feasible] += 1
    assert min(verdicts.values()) > 100


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


def test_matching_keeps_a_failed_search_marks_over_one_full_region():
    # Units 0-39 of demand 50 share resources 40-49 of capacity 100: first
    # fit fills the region, and each of the 1,000 leftover atoms reaches it
    # all and no free slot.
    edges = frozenset((x, y) for x in range(40) for y in range(40, 50))
    inst = make(Topology(50, edges), (50,) * 40 + (0,) * 10, (0,) * 40 + (100,) * 10)
    matching, flow = check_feasible_matching(inst), check_feasible_flow(inst)
    assert matching == flow == FeasibilityVerdict(False, tuple(range(40)))
    assert witness_violates(inst, matching.witness)


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
