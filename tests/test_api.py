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
