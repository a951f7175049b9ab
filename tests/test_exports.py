"""The package's exported names."""

import importlib

import pytest

MODULES = [
    "roughvix",
    *(
        f"roughvix.{layer}"
        for layer in (
            "model", "hypergeometric", "sampler", "schemes", "payoffs",
            "estimators", "experiments", "cli",
        )
    ),
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # Tools that wrap or re-export a module's public functions read its
    # __all__, so a name left there after its function is gone breaks them.
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)
