"""Allocation existence tests.

The efficient route reduces the question "can every unit place all of its
atoms into neighboring capacity?" to a max-flow problem on the aggregated
demand/capacity network.  Two independent oracles cross-validate it at
desk scale: exhaustive subset enumeration of the covering inequality, and
maximum matching on the expanded atom-level bipartite graph.

All arithmetic in this module is exact integer arithmetic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .topology import Instance, neighborhood_of_set

__all__ = [
    "FeasibilityVerdict",
    "SizeLimitExceeded",
    "check_feasible_exhaustive",
    "check_feasible_flow",
    "check_feasible_matching",
    "check_strict",
    "check_strict_exhaustive",
    "maximal_irreducible_subsets",
]

EXHAUSTIVE_MAX_UNITS = 25
IRREDUCIBLE_MAX_UNITS = 20
ATOM_GRAPH_MAX_NODES = 10_000


class SizeLimitExceeded(ValueError):
    """Instance too large for an exhaustive oracle; use the flow check."""


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of a feasibility test.

    ``witness`` is present exactly when infeasible and is a set of units
    whose total demand exceeds (or, for strict checks, reaches) the total
    capacity of its joint neighborhood.
    """

    feasible: bool
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.feasible


class _Dinic:
    """Max-flow with integer capacities (BFS levels + blocking DFS)."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.adj: list[list[list[int]]] = [[] for _ in range(size)]  # [to, cap, rev]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def _bfs(self, s: int, t: int) -> bool:
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

    def _augment(self, s: int, t: int) -> int:
        """Push the bottleneck of the first s-t path of the level graph.

        A depth-first walk with an explicit stack of edges, so long paths
        cannot overflow the recursion limit.  ``it[u]`` is the edge of u
        being tried, in insertion order; it moves on past dead ends only.
        Returns the amount pushed, 0 once the level graph is blocked.
        """
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
            elif path:  # dead end: back up to the tail of the last edge and skip it
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

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while self._bfs(s, t):
            self.it = [0] * self.size
            while flow := self._augment(s, t):
                total += flow
        return total

    def reachable_from(self, s: int, reverse: bool = False) -> set[int]:
        """Residual-graph nodes reachable from s (``reverse``: that reach s)."""
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


def _max_flow(inst: Instance) -> tuple[_Dinic, bool]:
    """Ship as much demand as the aggregated network allows.

    Node 0 is the source, 1 + x unit x, 1 + n + y resource y and 2n + 1 the
    sink: source -> unit x (capacity alpha_x) -> resource y for every edge
    (x, y) -> sink (capacity beta_y).  Unit-to-resource edges exceed the
    total demand, so no flow ever saturates them.  Returns the solved
    network and whether all demand was shipped.
    """
    n = inst.n
    total = inst.total_alpha
    net = _Dinic(2 * n + 2)
    for x in range(n):
        if inst.alpha[x] > 0:
            net.add_edge(0, 1 + x, inst.alpha[x])
        for y in inst.topology.out_neighbors(x):
            net.add_edge(1 + x, 1 + n + y, total + 1)
    for y in range(n):
        if inst.beta[y] > 0:
            net.add_edge(1 + n + y, 2 * n + 1, inst.beta[y])
    return net, net.max_flow(0, 2 * n + 1) == total


def _units_in(nodes: set[int], n: int) -> tuple[int, ...]:
    return tuple(x for x in range(n) if 1 + x in nodes)


def check_feasible_flow(inst: Instance) -> FeasibilityVerdict:
    """Decide allocation existence by max-flow on the aggregated network.

    Feasible iff the max flow ships all demand.  On infeasibility the units
    on the source side of the min cut form a violating subset.
    """
    net, full = _max_flow(inst)
    if full:
        return FeasibilityVerdict(True)
    return FeasibilityVerdict(False, _units_in(net.reachable_from(0), inst.n))


def check_strict(inst: Instance) -> FeasibilityVerdict:
    """Strict covering condition: every nonempty subset's demand is
    strictly below its neighborhood capacity.

    Equivalently, bumping any single alpha_x by one atom keeps the instance
    feasible.  One max-flow decides all n bumps: once all demand ships,
    the bump of x succeeds iff node x still reaches the sink in the
    residual graph, so one backward search from the sink settles every
    unit.  When x cannot reach the sink, the set R of nodes it reaches is
    closed under residual edges.  Its units S therefore have every
    out-neighbor in R, and every unit sending flow into R is in S; every
    resource of R is saturated to the sink.  Flow conservation over R gives
    alpha(S) = beta(N(S)): S is a tight set containing x, the witness.  If
    not all demand ships, the min-cut witness of the flow check is
    returned, whose demand exceeds its capacity.
    """
    n = inst.n
    net, full = _max_flow(inst)
    if not full:
        return FeasibilityVerdict(False, _units_in(net.reachable_from(0), n))
    reaches_sink = net.reachable_from(2 * n + 1, reverse=True)
    for x in range(n):
        if 1 + x not in reaches_sink:
            return FeasibilityVerdict(False, _units_in(net.reachable_from(1 + x), n))
    return FeasibilityVerdict(True)


def _nbr_masks(inst: Instance) -> list[int]:
    """Bitmask of each unit's out-neighborhood."""
    return [sum(1 << y for y in inst.topology.out_neighbors(x)) for x in range(inst.n)]


def _exhaustive(inst: Instance, strict: bool) -> FeasibilityVerdict:
    # The covering inequality (strict: demand < capacity) on every nonempty
    # subset, in increasing bitmask order; the first violator is the witness.
    n = inst.n
    if n > EXHAUSTIVE_MAX_UNITS:
        raise SizeLimitExceeded(
            f"subset enumeration is limited to n <= {EXHAUSTIVE_MAX_UNITS} "
            f"(got n={n}); use {'check_strict' if strict else 'check_feasible_flow'}"
        )
    nbr_mask = _nbr_masks(inst)
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
            witness = tuple(i for i in range(n) if mask >> i & 1)
            return FeasibilityVerdict(False, witness)
    return FeasibilityVerdict(True)


def check_feasible_exhaustive(inst: Instance) -> FeasibilityVerdict:
    """Test the covering inequality on every nonempty subset of units.

    Subsets are scanned in increasing bitmask order; the first violator is
    returned as the witness.  Guarded to n <= 25.
    """
    return _exhaustive(inst, strict=False)


def check_strict_exhaustive(inst: Instance) -> FeasibilityVerdict:
    """Exhaustive variant of the strict condition (witness has demand >= capacity)."""
    return _exhaustive(inst, strict=True)


def _is_irreducible(members: list[int], nbr_mask: list[int]) -> bool:
    # A subset splits into two independent halves iff the graph "neighborhoods
    # overlap" on its members is disconnected.
    if len(members) <= 1:
        return True
    seen = {members[0]}
    stack = [members[0]]
    while stack:
        u = stack.pop()
        for v in members:
            if v not in seen and nbr_mask[u] & nbr_mask[v]:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(members)


def maximal_irreducible_subsets(inst: Instance) -> list[tuple[int, ...]]:
    """Enumerate the subsets it suffices to test the covering inequality on.

    A subset is irreducible when it cannot be split into two nonempty
    parts with disjoint neighborhoods, and maximal when every irreducible
    strict superset strictly grows its neighborhood.  Quantifying
    maximality over irreducible supersets (rather than all supersets)
    keeps the reduction sound when units with empty neighborhoods exist.
    Exhaustive; guarded to n <= 20 and intended for desk-scale checks.
    """
    n = inst.n
    if n > IRREDUCIBLE_MAX_UNITS:
        raise SizeLimitExceeded(
            f"maximal_irreducible_subsets is limited to n <= {IRREDUCIBLE_MAX_UNITS}"
        )
    nbr_mask = _nbr_masks(inst)
    # Irreducible subsets grouped by their neighborhood mask.  An
    # irreducible superset can only share the neighborhood of a smaller
    # set within the same group, so maximality is decided group-wise.
    groups: dict[int, list[int]] = {}
    for mask in range(1, 1 << n):
        cover = 0
        members = []
        for i in range(n):
            if mask >> i & 1:
                cover |= nbr_mask[i]
                members.append(i)
        if _is_irreducible(members, nbr_mask):
            groups.setdefault(cover, []).append(mask)
    found: list[tuple[int, ...]] = []
    for masks in groups.values():
        for mask in masks:
            if any(other != mask and other & mask == mask for other in masks):
                continue
            found.append(tuple(i for i in range(n) if mask >> i & 1))
    found.sort(key=lambda d: (len(d), d))
    return found


def check_feasible_matching(inst: Instance) -> FeasibilityVerdict:
    """Independent oracle: maximum matching on the atom-level graph.

    Feasible iff some matching covers every atom.  When it does not, the
    units whose atoms are reachable from an unmatched atom by alternating
    paths form a violating subset.
    """
    total = inst.total_alpha + inst.total_beta
    if total > ATOM_GRAPH_MAX_NODES:
        raise SizeLimitExceeded(
            f"atom bipartite graph would have {total} nodes "
            f"(limit {ATOM_GRAPH_MAX_NODES}); use check_feasible_flow"
        )
    n = inst.n
    # Slot ids grouped per resource.
    slot_start = [0] * (n + 1)
    for y in range(n):
        slot_start[y + 1] = slot_start[y] + inst.beta[y]
    num_slots = slot_start[n]
    slot_owner = [-1] * num_slots  # atom id occupying the slot
    atom_unit = [x for x in range(n) for _ in range(inst.alpha[x])]
    out = inst.topology.out_neighbors

    def slots(atom: int):
        return (s for y in out(atom_unit[atom]) for s in range(slot_start[y], slot_start[y + 1]))

    def augment(atom: int, visited: list[bool]) -> bool:
        # Kuhn's search for an augmenting path, with an explicit stack:
        # path[k] tries the slots left in tries[k], taken[k] is its pick.
        path, tries, taken = [atom], [slots(atom)], []
        while path:
            for slot in tries[-1]:
                if not visited[slot]:
                    break
            else:  # no slot left for path[-1]: back up
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
            tries.append(slots(owner))
        return False

    unmatched = []
    for atom in range(len(atom_unit)):
        if not augment(atom, [False] * num_slots):
            unmatched.append(atom)
    if not unmatched:
        return FeasibilityVerdict(True)

    # Alternating-path reachability from every unmatched atom.
    matched_slot_of_atom: dict[int, list[int]] = {}
    for slot, owner in enumerate(slot_owner):
        if owner >= 0:
            matched_slot_of_atom.setdefault(owner, []).append(slot)
    reach_atoms = set(unmatched)
    queue = deque(unmatched)
    reach_slots: set[int] = set()
    while queue:
        atom = queue.popleft()
        x = atom_unit[atom]
        for y in out(x):
            for slot in range(slot_start[y], slot_start[y + 1]):
                if slot in reach_slots:
                    continue
                reach_slots.add(slot)
                owner = slot_owner[slot]
                if owner >= 0 and owner not in reach_atoms:
                    reach_atoms.add(owner)
                    queue.append(owner)
    witness = tuple(sorted({atom_unit[a] for a in reach_atoms}))
    return FeasibilityVerdict(False, witness)


def witness_violates(inst: Instance, witness: tuple[int, ...], strict: bool = False) -> bool:
    """Check that a reported witness actually breaks the covering inequality."""
    if not witness:
        return False
    demand = sum(inst.alpha[x] for x in witness)
    capacity = sum(inst.beta[y] for y in neighborhood_of_set(inst.topology, set(witness)))
    return demand >= capacity if strict else demand > capacity
