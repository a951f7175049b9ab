"""The package's exported names and the layering of its modules."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

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


# The package's layers, lowest first: a module may import only the layers
# below it, so that moving a routine never makes an import cycle.
LAYERS = (
    "errors", "hypergeometric", "model", "schemes", "sampler", "payoffs",
    "estimators", "experiments", "cli",
)
PACKAGE = Path(importlib.import_module("roughvix").__file__).parent


def _package_imports(layer):
    """The package modules that `layer` imports, as ``from .x import ...``."""
    tree = ast.parse((PACKAGE / f"{layer}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[0]


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("layer", LAYERS)
def test_no_module_imports_a_layer_above_it(layer):
    below = LAYERS[: LAYERS.index(layer)]
    assert [name for name in _package_imports(layer) if name not in below] == []


def test_importing_the_package_loads_no_quadrature():
    # Only the covariance oracle integrates, and it imports scipy.integrate
    # when called.  A fresh interpreter, because the test process has it
    # loaded for its IntegrationWarning filter.
    probe = "import sys, roughvix; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=PACKAGE.parent, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
