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
PER_STEP_KERNELS = {"_choice", "_gibbs_weights", "_move_kind", "_resource_term", "_unit_term"}


def test_per_step_kernels_are_defined():
    # A renamed or deleted kernel must leave the list, or the check below
    # would pass for a name that no longer exists.
    defined = {
        name
        for module in ("p2pstorage.game", "p2pstorage.dynamics")
        for name, value in vars(importlib.import_module(module)).items()
        if callable(value) and getattr(value, "__module__", None) == module
    }
    assert PER_STEP_KERNELS - defined == set()


@pytest.mark.parametrize("name", MODULES)
def test_per_step_kernels_stay_unexported(name):
    exported = set(getattr(importlib.import_module(name), "__all__", []))
    assert exported & PER_STEP_KERNELS == set()
