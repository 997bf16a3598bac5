"""Tests of the workload inputs: determinism and constructed verdicts."""

import pytest

import run
import workloads


@pytest.fixture(scope="module")
def pkg():
    return run.Package(*run.import_package())


@pytest.mark.parametrize("name", ["check-scale", "verify-exact"])
def test_same_seed_same_fingerprints_other_seed_different(name, pkg, tmp_path):
    workload = workloads.WORKLOADS[name]
    prints = []
    for i, seed in enumerate((1, 1, 2)):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        inputs = workload.generate(seed, workdir, pkg)
        prints.append(workload.fingerprints(inputs, pkg))
    assert prints[0] == prints[1]
    changed = [key for key in prints[0] if prints[0][key] != prints[2][key]]
    # Seeded inputs change; fixed ones (the eight-state and line-4
    # instances of verify-exact) do not.
    assert changed
    assert all(key in ("eight", "line4") for key in prints[0] if key not in changed)


def test_random_regular_pairs_is_simple_and_regular():
    import random

    pairs = workloads.random_regular_pairs(60, 10, random.Random(3))
    assert len(pairs) == len(set(pairs)) == 60 * 10 // 2
    degree = [0] * 60
    for a, b in pairs:
        assert a < b
        degree[a] += 1
        degree[b] += 1
    assert degree == [10] * 60


def test_constructed_verdicts(pkg):
    import random

    feas = pkg.feasibility
    rng = random.Random(11)
    strict = pkg.topology.instance_from_dict(workloads._table4_doc(40, rng))
    assert feas.check_strict(strict).feasible

    infeasible = pkg.topology.instance_from_dict(workloads._infeasible_doc(40, rng))
    assert not feas.check_feasible_flow(infeasible).feasible

    tight = pkg.topology.instance_from_dict(workloads._tight_doc(40, rng))
    assert feas.check_feasible_flow(tight).feasible
    # Only unit n-1 lies in a tight set: bumping any other unit's demand
    # keeps the instance feasible.
    for x in range(tight.n):
        alpha = list(tight.alpha)
        alpha[x] += 1
        bumped = pkg.topology.Instance(tight.topology, tuple(alpha), tight.beta,
                                       tight.reliability)
        assert feas.check_feasible_flow(bumped).feasible == (x < tight.n - 1)
