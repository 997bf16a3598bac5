import json
import random
import tracemalloc
from collections import Counter

import pytest

from p2pstorage.topology import (
    GenerationFailed,
    Instance,
    Topology,
    build_complete,
    build_line,
    build_random_regular,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    neighborhood_of_set,
)


def test_complete_smallest():
    topo = build_complete(2)
    assert topo.edges == frozenset({(0, 1), (1, 0)})


def test_complete_edge_count():
    assert len(build_complete(3).edges) == 6


def test_complete_out_degree_50():
    topo = build_complete(50)
    assert all(len(topo.out_neighbors(x)) == 49 for x in range(50))


def test_complete_rejects_zero():
    with pytest.raises(ValueError):
        build_complete(0)


def test_line_smallest():
    assert build_line(2).edges == frozenset({(0, 1), (1, 0)})


def test_line_four_units():
    topo = build_line(4)
    assert len(topo.edges) == 6
    assert len(topo.out_neighbors(0)) == 1
    assert len(topo.out_neighbors(1)) == 2


def test_line_middle_neighbors():
    assert build_line(3).out_neighbors(1) == (0, 2)


def test_line_rejects_single():
    with pytest.raises(ValueError):
        build_line(1)


def test_topology_rejects_self_loop():
    with pytest.raises(ValueError):
        Topology(2, frozenset({(0, 0)}))


def test_topology_rejects_out_of_range():
    with pytest.raises(ValueError):
        Topology(2, frozenset({(0, 5)}))


@pytest.mark.parametrize("edge", [(0.5, 1), (True, 2), (1, False), ("0", 1)],
                         ids=["fraction", "bool-tail", "bool-head", "string"])
def test_topology_rejects_non_integer_endpoints(edge):
    # The instance file's integer rule: int() would read 0.5 as 0 and True as 1.
    with pytest.raises(ValueError, match="must be an integer"):
        Topology(3, frozenset({edge}))


@pytest.mark.parametrize("n", [2.5, True, "3"], ids=["fraction", "bool", "string"])
def test_topology_rejects_a_non_integer_unit_count(n):
    with pytest.raises(ValueError, match="must be an integer"):
        Topology(n, frozenset())


def test_topology_reads_integral_float_endpoints_as_ints():
    topo = Topology(3, frozenset({(0.0, 1), (2, 1.0)}))
    assert topo.edges == {(0, 1), (2, 1)}
    assert all(type(v) is int for edge in topo.edges for v in edge)
    assert topo.to_dict() == {"n": 3, "edges": [[0, 1], [2, 1]]}


@pytest.mark.parametrize("edges", [((x, (x + 1) % 3) for x in range(3)), [[0, 1], [1, 2], [2, 0]]],
                         ids=["one-shot-iterator", "list-pairs"])
def test_topology_reads_any_iterable_of_pairs_once(edges):
    # A generator can be read only once, and a list pair is not hashable.
    topo, ring = Topology(3, edges), Topology(3, [(0, 1), (1, 2), (2, 0)])
    assert topo.edges == ring.edges == {(0, 1), (1, 2), (2, 0)}
    assert topo.to_dict() == ring.to_dict() == {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}
    assert topo == ring and hash(topo) == hash(ring)


def test_topology_holds_only_its_adjacency():
    # Table 4's n=1000 preset graph: 1,000 tuples of ten shared ints.
    tracemalloc.start()
    try:
        topo = build_random_regular(1000, 10, 1093)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(topo.edges) == 10_000
    assert held <= 0.5 * 2**20


def test_a_loaded_edge_list_holds_one_int_per_unit():
    # Parsed JSON gives every endpoint above 256 its own int object.
    n = 3000
    text = json.dumps({"n": n, "edges": [[x, (x + k) % n] for x in range(n) for k in (1, 7, 100)],
                       "alpha": 1, "beta": 1, "lambda": 1.0})
    topo = instance_from_dict(json.loads(text)).topology
    assert len({id(y) for x in range(n) for y in topo.out_neighbors(x)}) <= n


def test_random_regular_d3_n4_is_complete():
    # the only 3-regular graph on 4 nodes
    topo = build_random_regular(4, 3, seed=11)
    assert topo.edges == build_complete(4).edges


def test_random_regular_degrees():
    topo = build_random_regular(50, 10, seed=0)
    in_degree = Counter(y for _x, y in topo.edges)
    for x in range(50):
        assert len(topo.out_neighbors(x)) == 10
        assert in_degree[x] == 10


def test_random_regular_symmetric():
    topo = build_random_regular(20, 4, seed=5)
    for (x, y) in topo.edges:
        assert (y, x) in topo.edges


def test_random_regular_one_regular_is_perfect_matching():
    # d=1 forces three disjoint edges: every node appears exactly once
    topo = build_random_regular(6, 1, seed=2)
    undirected = {tuple(sorted(e)) for e in topo.edges}
    assert len(undirected) == 3
    touched = [x for e in undirected for x in e]
    assert sorted(touched) == list(range(6))


def test_random_regular_rejects_odd_product():
    with pytest.raises(ValueError):
        build_random_regular(5, 3, seed=1)


def test_random_regular_rejects_degree_too_large():
    with pytest.raises(ValueError):
        build_random_regular(4, 4, seed=1)


def test_random_regular_degree_histogram_many_seeds():
    for seed in range(25):
        topo = build_random_regular(12, 4, seed=seed)
        degrees = {len(topo.out_neighbors(x)) for x in range(12)}
        assert degrees == {4}


def test_random_regular_deterministic_serialization():
    a = build_random_regular(30, 6, seed=42)
    b = build_random_regular(30, 6, seed=42)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


def test_random_regular_generation_failure_is_typed():
    # a near-complete pairing almost always repeats an edge, so every
    # attempt fails
    with pytest.raises(GenerationFailed):
        build_random_regular(30, 28, seed=1)


def test_instance_from_dict_generator_giving_up_is_a_value_error():
    doc = {
        "generator": {"kind": "random_regular", "n": 30, "d": 28, "seed": 1},
        "alpha": 1,
        "beta": 1,
        "lambda": 1.0,
    }
    with pytest.raises(ValueError, match="random_regular generator gave up"):
        instance_from_dict(doc)


def test_neighborhood_complete_singleton():
    topo = build_complete(3)
    assert neighborhood_of_set(topo, {0}) == {1, 2}


def test_neighborhood_complete_pair_covers_all():
    topo = build_complete(3)
    assert neighborhood_of_set(topo, {0, 1}) == {0, 1, 2}


def test_neighborhood_empty_set():
    assert neighborhood_of_set(build_complete(4), set()) == set()


def test_neighborhood_monotone():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(2, 8)
        edges = {
            (x, y) for x in range(n) for y in range(n) if x != y and rng.random() < 0.4
        }
        topo = Topology(n, frozenset(edges))
        small = {x for x in range(n) if rng.random() < 0.4}
        large = small | {x for x in range(n) if rng.random() < 0.4}
        assert neighborhood_of_set(topo, small) <= neighborhood_of_set(topo, large)


def _example_instance() -> Instance:
    return Instance(build_line(3), (1, 2, 0), (1, 1, 1), (0.5, 0.8, 0.5))


def test_instance_validates_lengths():
    with pytest.raises(ValueError):
        Instance(build_line(3), (1, 2), (1, 1, 1), (0.5, 0.8, 0.5))


def test_instance_rejects_negative():
    with pytest.raises(ValueError):
        Instance(build_line(3), (1, -1, 0), (1, 1, 1), (0.5, 0.8, 0.5))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_instance_rejects_nonfinite_reliability(bad):
    with pytest.raises(ValueError, match="finite"):
        Instance(build_line(3), (1, 1, 0), (1, 1, 1), (0.5, bad, 0.5))


@pytest.mark.parametrize(
    "alpha, beta",
    [((1.7, True), (2.9, 1)), ((1, 1), (2.9, 1)), ((1, True), (2, 1)), ((1, 1), (2, False))],
    ids=["fraction-and-bool", "fractional-beta", "bool-alpha", "bool-beta"],
)
def test_instance_rejects_bool_or_fractional_counts(alpha, beta):
    with pytest.raises(ValueError, match="must be an integer"):
        Instance(build_line(2), alpha, beta, (0.5, 0.5))


@pytest.mark.parametrize("bad", ["0.5", True, None], ids=["string", "bool", "none"])
def test_instance_rejects_non_number_reliability(bad):
    # The rule of "lambda" in an instance file: float() would read '0.5'
    # as 0.5 and True as 1.0.
    with pytest.raises(ValueError, match="must be a number"):
        Instance(build_line(3), (1, 1, 0), (1, 1, 1), (0.5, bad, 1))


def test_instance_accepts_integral_float_counts():
    inst = Instance(build_line(2), (2.0, 1), (3, 1.0), (0.5, 0.5))
    assert inst.alpha == (2, 1) and inst.beta == (3, 1)
    assert all(type(v) is int for v in inst.alpha + inst.beta)


def test_instance_file_round_trip(tmp_path):
    inst = _example_instance()
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_dict(inst)))
    again = load_instance(path)
    assert again == inst
    assert again.fingerprint() == inst.fingerprint()


def test_instance_from_dict_generator_and_broadcast():
    inst = instance_from_dict(
        {
            "generator": {"kind": "complete", "n": 4},
            "alpha": 2,
            "beta": [3, 3, 3, 3],
            "lambda": 0.5,
        }
    )
    assert inst.alpha == (2, 2, 2, 2)
    assert inst.reliability == (0.5, 0.5, 0.5, 0.5)


def test_instance_from_dict_rejects_unknown_keys():
    doc = instance_to_dict(_example_instance())
    doc["surprise"] = 1
    with pytest.raises(ValueError, match="unknown instance keys"):
        instance_from_dict(doc)


def test_instance_from_dict_requires_exactly_one_source():
    with pytest.raises(ValueError):
        instance_from_dict({"alpha": 1, "beta": 1, "lambda": 1.0})


def test_instance_from_dict_random_regular():
    inst = instance_from_dict(
        {
            "generator": {"kind": "random_regular", "n": 10, "d": 4, "seed": 7},
            "alpha": 1,
            "beta": 2,
            "lambda": 1.0,
        }
    )
    assert all(len(inst.topology.out_neighbors(x)) == 4 for x in range(10))


@pytest.mark.parametrize("missing", ["d", "seed"])
def test_instance_from_dict_random_regular_needs_d_and_seed(missing):
    generator = {"kind": "random_regular", "n": 10, "d": 4, "seed": 7}
    del generator[missing]
    doc = {"generator": generator, "alpha": 1, "beta": 2, "lambda": 1.0}
    with pytest.raises(ValueError, match="random_regular generator needs 'd' and 'seed'"):
        instance_from_dict(doc)


def test_instance_from_dict_rejects_n_disagreeing_with_the_generator():
    doc = {"n": 5, "generator": {"kind": "complete", "n": 4}, "alpha": 1, "beta": 1, "lambda": 1.0}
    with pytest.raises(ValueError, match="'n' disagrees with generator 'n'"):
        instance_from_dict(doc)


def test_instance_from_dict_edge_list_needs_n():
    doc = {"edges": [[0, 1], [1, 0]], "alpha": 1, "beta": 1, "lambda": 1.0}
    with pytest.raises(ValueError, match="'n' is required with an explicit edge list"):
        instance_from_dict(doc)


BAD_INSTANCE_VALUES = {
    "bool-n": {"n": True, "edges": []},
    "fractional-n": {"n": 2.5},
    "bool-alpha": {"alpha": True},
    "fractional-alpha": {"alpha": [1, 1.5]},
    "fractional-beta": {"beta": 1.7},
    "string-beta": {"beta": "2"},
    "bool-lambda": {"lambda": [True, 0.5]},
    "infinite-lambda": {"lambda": float("inf")},
    "nan-lambda": {"lambda": [0.5, float("nan")]},
    "huge-integer-lambda": {"lambda": 10**400},
    "fractional-edge": {"edges": [[0, 1.5]]},
    "bool-generator-n": {"generator": {"kind": "complete", "n": True}},
    "fractional-generator-n": {"generator": {"kind": "line", "n": 3.5}},
    "bool-generator-d": {"generator": {"kind": "random_regular", "n": 4, "d": True, "seed": 1}},
    "fractional-generator-d": {"generator": {"kind": "random_regular", "n": 4, "d": 2.5, "seed": 1}},
    "fractional-generator-seed": {
        "generator": {"kind": "random_regular", "n": 4, "d": 2, "seed": 0.5}
    },
}


def bad_instance_doc(change: dict) -> dict:
    """A valid two-unit document with ``change`` applied; a generator
    replaces the edge list and drops ``n``."""
    doc = {"n": 2, "edges": [[0, 1], [1, 0]], "alpha": 1, "beta": 1, "lambda": 0.5}
    if "generator" in change:
        del doc["n"], doc["edges"]
    doc.update(change)
    return doc


@pytest.mark.parametrize("change", BAD_INSTANCE_VALUES.values(), ids=BAD_INSTANCE_VALUES.keys())
def test_instance_from_dict_rejects_bad_values(change):
    with pytest.raises(ValueError):
        instance_from_dict(bad_instance_doc(change))


def test_instance_from_dict_accepts_integral_floats():
    inst = instance_from_dict(bad_instance_doc({"n": 2.0, "alpha": [1.0, 2], "beta": 3.0}))
    assert inst.n == 2
    assert inst.alpha == (1, 2)
    assert inst.beta == (3, 3)


def test_instance_from_dict_merges_repeated_edges():
    doc = bad_instance_doc({"edges": [[0, 1], [0, 1], [0.0, 1]]})
    topo = instance_from_dict(doc).topology
    assert topo.edges == {(0, 1)}
    assert topo.out_neighbors(0) == (1,) and topo.out_neighbors(1) == ()


@pytest.mark.parametrize("edges", [[[0, 1], [False, 1]], [[1, 0], [True, 0], [0, 1]]],
                         ids=["bool-after", "bool-amid"])
def test_instance_from_dict_rejects_a_bool_hidden_by_a_repeat(edges):
    # false == 0 and true == 1, so a set of the entries alone would drop it.
    with pytest.raises(ValueError, match="must be an integer"):
        instance_from_dict(bad_instance_doc({"edges": edges}))


@pytest.mark.parametrize("edges", [[5], [[[0], 1]], ["01"]], ids=["number", "unhashable", "string"])
def test_instance_from_dict_rejects_malformed_edge_entries(edges):
    with pytest.raises(ValueError, match="edge"):
        instance_from_dict(bad_instance_doc({"edges": edges}))


def test_load_instance_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_instance(path)
