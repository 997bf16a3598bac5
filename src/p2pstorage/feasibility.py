"""Allocation existence tests.

The efficient route decides "can every unit place all of its atoms into
neighboring capacity?" with one maximum flow, solved on the instance's own
adjacency (``_Transport``).  One residual search finds its augmenting paths
and both witnesses.  A witness search never meets spare capacity: it starts
at the units with demand left after a maximum flow (else the flow would
augment), or at a unit that the strict check found to reach none.
Exhaustive subset enumeration of the covering inequality and maximum
matching on the expanded atom-level bipartite graph cross-validate the flow
at desk scale.  All arithmetic in this module is exact integer arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .topology import Instance, neighborhood_of_set

__all__ = [
    "FeasibilityVerdict",
    "SizeLimitExceeded",
    "check_feasible_exhaustive",
    "check_feasible_flow",
    "check_feasible_matching",
    "check_strict",
    "check_strict_exhaustive",
]

EXHAUSTIVE_MAX_UNITS = 25
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


class _Transport:
    """A maximum flow of demand into capacity along the instance's edges.

    ``flow[x]`` maps resource -> atoms unit x ships there and ``held[y]``
    maps unit -> atoms resource y holds (nonzero entries only); ``left[x]``
    is unit x's unshipped demand and ``spare[y]`` resource y's unused
    capacity.  First fit fills each unit's out-neighbors in ascending
    order.  Each unit with demand left then searches to a resource with
    spare capacity and pushes the path's bottleneck, so no capacity sets
    the number of pushes.  A unit stops at its first failed search: no
    residual arc leaves the set it reached, so no later path enters it.
    A witness is such a closed reach set without the sink: a minimum cut's
    source side, or a set no arc of positive capacity leaves, the same for
    every maximum flow (Picard & Queyranne 1980).  Without first fit, or
    with in-neighbor lists filtered by the flow rows in place of ``held``,
    ``check_strict`` at 3,000 and 30,000 units ran 2-4x and up to 1.5x slower.
    """

    def __init__(self, inst: Instance) -> None:
        n = inst.n
        self.out = out = inst.topology.out_neighbors
        self.flow: list[dict[int, int]] = [{} for _ in range(n)]
        self.held: list[dict[int, int]] = [{} for _ in range(n)]
        self.left, self.spare = left, spare = list(inst.alpha), list(inst.beta)
        for x, row in enumerate(self.flow):
            for y in out(x):
                if not left[x]:
                    break
                if take := min(left[x], spare[y]):
                    row[y] = self.held[y][x] = take
                    left[x] -= take
                    spare[y] -= take
        closed = [False] * n  # resources of a set some search failed to leave
        for x in range(n):
            while left[x]:
                end, via, came = self._search((x,), closed)
                if end < 0:
                    for y in via:
                        closed[y] = True
                    break
                self._push(x, end, via, came)
        self.full = not any(left)

    def _search(self, units, closed: list[bool]) -> tuple[int, dict[int, int], dict[int, int]]:
        """Breadth-first from ``units`` over residual arcs: each out-neighbor
        not closed, then the units holding atoms there.  The first resource
        with spare capacity (-1: none), ``via`` (resource -> the unit whose
        edge reached it) and ``came`` (unit -> the resource before it)."""
        out, held, spare = self.out, self.held, self.spare
        via: dict[int, int] = {}
        came = dict.fromkeys(units, -1)
        queue = list(came)
        for u in queue:  # the list grows as it is read: first in, first out
            for y in out(u):
                if y in via or closed[y]:
                    continue
                via[y] = u
                if spare[y]:
                    return y, via, came
                for v in held[y]:
                    if v not in came:
                        came[v] = y
                        queue.append(v)
        return -1, via, came

    def _push(self, x: int, end: int, via: dict[int, int], came: dict[int, int]) -> None:
        # Each unit on the path moves atoms from the resource that reached it.
        flow, held = self.flow, self.held
        steps, y = [], end
        while y >= 0:
            u = via[y]
            steps.append((u, y, came[u]))
            y = came[u]
        amount = min([self.left[x], self.spare[end]] + [flow[u][b] for u, _, b in steps if b >= 0])
        for u, y, back in steps:
            row = flow[u]
            row[y] = held[y][u] = row.get(y, 0) + amount
            if back >= 0:
                row[back] = held[back][u] = row[back] - amount
                if not row[back]:
                    del row[back], held[back][u]
        self.left[x] -= amount
        self.spare[end] -= amount

    def reach(self, units) -> tuple[int, ...]:
        """The units reachable from ``units`` (None: the units with demand
        left) in the residual network, sorted."""
        if units is None:
            units = [x for x, need in enumerate(self.left) if need]
        return tuple(sorted(self._search(units, [False] * len(self.left))[2]))


def check_feasible_flow(inst: Instance) -> FeasibilityVerdict:
    """Feasible iff a maximum flow ships all demand.  Otherwise the units
    reachable from those with demand left (the source side of the min cut
    nearest the source) violate the covering inequality."""
    flow = _Transport(inst)
    return FeasibilityVerdict(True) if flow.full else FeasibilityVerdict(False, flow.reach(None))


def check_strict(inst: Instance) -> FeasibilityVerdict:
    """Strict covering condition: every nonempty subset's demand is
    strictly below its neighborhood capacity.

    Equivalently, one more atom of any alpha_x still ships.  Once all
    demand ships, that holds iff unit x reaches spare capacity in the
    residual network, which one backward search from the resources with
    spare capacity (over in-neighbors, then back along the flow rows)
    settles for every unit.  Otherwise the set that x reaches is closed:
    its units S ship only into N(S), all full, and every unit shipping
    there is in S, so alpha(S) = beta(N(S)) and S is a tight witness.  If
    not all demand ships, the flow check's witness is returned.
    """
    flow = _Transport(inst)
    if not flow.full:
        return FeasibilityVerdict(False, flow.reach(None))
    into: list[list[int]] = [[] for _ in range(inst.n)]
    for x in range(inst.n):
        for y in flow.out(x):
            into[y].append(x)
    queue = [y for y, room in enumerate(flow.spare) if room]
    live = [False] * inst.n  # reaches spare capacity
    for y in queue:
        for x in into[y]:
            if not live[x]:
                live[x] = True
                queue.extend(flow.flow[x])
        into[y] = ()  # a resource queued again has nothing left to mark
    for x in range(inst.n):
        if not live[x]:
            return FeasibilityVerdict(False, flow.reach([x]))
    return FeasibilityVerdict(True)


def _subset_tables(values, low: int, combine, dtype) -> list[np.ndarray]:
    """For ``values[:low]`` and ``values[low:]``, the table whose entry m
    combines the values at the set bits of m, filled in place by doubling."""
    tables = []
    for part in (values[:low], values[low:]):
        table = np.zeros(1 << len(part), dtype)
        for k, value in enumerate(part):
            combine(table[: 1 << k], value, out=table[1 << k : 2 << k])
        tables.append(table)
    return tables


def _exhaustive(inst: Instance, strict: bool) -> FeasibilityVerdict:
    """The covering inequality (strict: demand < capacity) on every nonempty
    subset, in increasing bitmask order; the first violator is the witness.
    Demand and neighborhood union per subset of the low min(n, 16) units and
    of the rest, and capacity per low and per high resource mask, are
    tabulated (memory O(2^16)); each block of subsets sharing their high
    units is one array comparison, whose argmax is its first violator."""
    n = inst.n
    if n > EXHAUSTIVE_MAX_UNITS:
        raise SizeLimitExceeded(
            f"subset enumeration is limited to n <= {EXHAUSTIVE_MAX_UNITS} "
            f"(got n={n}); use {'check_strict' if strict else 'check_feasible_flow'}"
        )
    dtype = np.int64 if inst.total_alpha + inst.total_beta < 2**62 else object
    low = min(n, 16)
    nbr_mask = [sum(1 << y for y in inst.topology.out_neighbors(x)) for x in range(n)]
    demand_lo, demand_hi = _subset_tables(inst.alpha, low, np.add, dtype)
    cover_lo, cover_hi = _subset_tables(nbr_mask, low, np.bitwise_or, np.int64)
    cap_lo, cap_hi = _subset_tables(inst.beta, low, np.add, dtype)
    violates = np.greater_equal if strict else np.greater
    for high in range(len(demand_hi)):
        cover = cover_lo | cover_hi[high]
        capacity = cap_lo[cover & ((1 << low) - 1)] + cap_hi[cover >> low]
        bad = violates(demand_lo + demand_hi[high], capacity)
        bad[0] &= high > 0  # the empty set is no witness
        first = int(bad.argmax())
        if bad[first]:
            mask = high << low | first
            return FeasibilityVerdict(False, tuple(i for i in range(n) if mask >> i & 1))
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


def check_feasible_matching(inst: Instance) -> FeasibilityVerdict:
    """Independent oracle: maximum matching on the atom-level graph.

    Feasible iff some matching covers every atom.  A first-fit pass (each
    unit's atoms fill its resources' free slots in order) seeds Kuhn's
    search, which then runs only from the atoms left over.  Otherwise the
    units whose atoms are reachable from an unmatched atom by alternating
    paths form a violating subset, the same for every maximum matching
    (Dulmage-Mendelsohn).
    """
    total = inst.total_alpha + inst.total_beta
    if total > ATOM_GRAPH_MAX_NODES:
        raise SizeLimitExceeded(
            f"atom bipartite graph would have {total} nodes "
            f"(limit {ATOM_GRAPH_MAX_NODES}); use check_feasible_flow"
        )
    n = inst.n
    slot_start = [0, *itertools.accumulate(inst.beta)]  # slot ids grouped per resource
    num_slots = slot_start[n]
    slot_owner = [-1] * num_slots  # atom id occupying the slot
    atom_unit = [x for x in range(n) for _ in range(inst.alpha[x])]
    out = inst.topology.out_neighbors

    free = slot_start[:n]  # first free slot of each resource
    left_over, atom = [], 0
    for x, demand in enumerate(inst.alpha):
        first, atom = atom, atom + demand
        for y in out(x):
            take = min(atom - first, slot_start[y + 1] - free[y])
            slot_owner[free[y] : free[y] + take] = range(first, first + take)
            free[y] += take
            first += take
        left_over.extend(range(first, atom))

    ranges = [[range(slot_start[y], slot_start[y + 1]) for y in out(x)] for x in range(n)]

    def slots(atom: int):
        return itertools.chain.from_iterable(ranges[atom_unit[atom]])

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

    # A failed search changes no slot, so its marks hold until an augmentation.
    unmatched, visited = [], [False] * num_slots
    for atom in left_over:
        if augment(atom, visited):
            visited = [False] * num_slots
        else:
            unmatched.append(atom)
    if not unmatched:
        return FeasibilityVerdict(True)

    # The matching is maximum, so each search fails again, and together
    # they visit every slot an alternating path from an unmatched atom reaches.
    visited = [False] * num_slots
    for atom in unmatched:
        augment(atom, visited)
    reach_atoms = unmatched + [slot_owner[s] for s in range(num_slots) if visited[s]]
    return FeasibilityVerdict(False, tuple(sorted({atom_unit[a] for a in reach_atoms})))


def witness_violates(inst: Instance, witness: tuple[int, ...], strict: bool = False) -> bool:
    """Check that a reported witness, read as a set of units, breaks the
    covering inequality.  An entry that is not a unit (an int in 0..n-1,
    never a bool) is a ValueError."""
    for x in witness:
        if type(x) is not int or not 0 <= x < inst.n:
            raise ValueError(f"witness entry {x!r} is not a unit in 0..{inst.n - 1}")
    units = set(witness)
    if not units:
        return False
    demand = sum(inst.alpha[x] for x in units)
    capacity = sum(inst.beta[y] for y in neighborhood_of_set(inst.topology, units))
    return demand >= capacity if strict else demand > capacity
