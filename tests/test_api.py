import importlib

import pytest

MODULES = [
    "p2pstorage",
    "p2pstorage.analysis",
    "p2pstorage.benchmarks",
    "p2pstorage.dynamics",
    "p2pstorage.feasibility",
    "p2pstorage.game",
    "p2pstorage.topology",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


# The engine calls these every step.  Span tracers (perfbench/spans.py)
# wrap every name in __all__, so exporting one would record a span per step.
PER_STEP_KERNELS = {
    "_choice", "_gibbs_weights", "_move_kind", "_draw", "_sample", "_candidates", "_resource_term",
    "_unit_term", "_utilities",
}


@pytest.mark.parametrize("name", MODULES)
def test_per_step_kernels_stay_unexported(name):
    exported = set(getattr(importlib.import_module(name), "__all__", []))
    assert exported & PER_STEP_KERNELS == set()
