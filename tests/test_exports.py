"""The package's exported names, the layering of its modules, its input rules."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from roughvix import (
    MlmcPlan,
    ModelParams,
    Payoff,
    PayoffKind,
    SchemeKind,
    UsageError,
    X0Curve,
    batch_size,
    batch_sizes,
    black_scholes,
    cholesky_factor,
    covariance_entry,
    fit_loglog_slope,
    hyp2f1,
    mc_price,
    mlmc_plan,
    mse_cost_curve,
    payoff_eval,
    strong_error_curve,
    weak_error_curve,
)

MODULES = [
    "roughvix",
    *(
        f"roughvix.{layer}"
        for layer in (
            "errors", "model", "hypergeometric", "sampler", "schemes", "payoffs",
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


def test_the_package_exports_each_layers_names_once():
    # A public name is one entry in its layer's __all__; the package reads
    # them, lowest layer first, and leaves the command-line front end out.
    package = importlib.import_module("roughvix")
    layers = [importlib.import_module(f"roughvix.{layer}") for layer in LAYERS[:-1]]
    assert package.__all__ == ["__version__", *(n for m in layers for n in m.__all__)]
    assert len(set(package.__all__)) == len(package.__all__)
    for module in layers:
        for name in module.__all__:
            value = getattr(package, name)
            assert value is getattr(module, name), name
            assert getattr(value, "__module__", module.__name__) == module.__name__, name


def _loaded_by_import(modules):
    """Whether a fresh ``import roughvix`` loads each of `modules`."""
    probe = f"import sys, roughvix; print(*(m in sys.modules for m in {modules!r}))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=PACKAGE.parent, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_importing_the_package_loads_no_quadrature():
    # Only the covariance oracle integrates, and it imports scipy.integrate
    # when called.  A fresh interpreter, because the test process has it
    # loaded for its IntegrationWarning filter.
    assert _loaded_by_import(["scipy.integrate"]) == ["False"]


def test_importing_the_package_loads_no_front_end():
    # The CLI loads only when the command runs, so it stays out of the
    # import that the benchmark's setup_s times.
    assert _loaded_by_import(["roughvix.cli"]) == ["False"]


# --- the input rules --------------------------------------------------------

GOOD = dict(H=0.1, eta=0.5, T=0.5, Delta=1.0 / 12.0, x0=-2.9)
PB = ModelParams(**GOOD)
CALL = Payoff(PayoffKind.CALL, strike=0.1)
RECT = SchemeKind.RECTANGLE

# Text or an array where a number is taken, and text where a bool is taken:
# each is refused with UsageError, before any work.
NOT_A_NUMBER = {
    "H as text": lambda: ModelParams(**{**GOOD, "H": "0.1"}),
    "x0 as text": lambda: ModelParams(**{**GOOD, "x0": "1.5"}),
    "eta as an array": lambda: ModelParams(**{**GOOD, "eta": np.array([0.5, 0.6])}),
    "H as a 0-d array": lambda: ModelParams(**{**GOOD, "H": np.array(0.1)}),
    "a knot as text": lambda: X0Curve(knots=("a",), values=(0.0,)),
    "T as text": lambda: ModelParams(**{**GOOD, "T": "0.5"}),
    "strike as text": lambda: Payoff(PayoffKind.CALL, "0.1"),
    "strike as an array": lambda: Payoff(PayoffKind.CALL, np.array([0.1])),
    "forward as text": lambda: black_scholes(PayoffKind.CALL, "1", 1.0, 0.2),
    "2F1 a as text": lambda: hyp2f1("1", 0.6, 1.6, -1.0),
    "date as text": lambda: covariance_entry("0.5", 0.55, PB),
    "use_cv as text": lambda: mc_price(RECT, 4, 10, CALL, "no", PB, seed=0),
    "epsilon as text": lambda: mlmc_plan("0.01", 6, RECT, CALL, PB),
    "reference as text": lambda: weak_error_curve(RECT, (4,), CALL, "0.1", 0.0, 10, PB, 0),
    "an epsilon as text": lambda: mse_cost_curve("mc-rect", ("a",), 2, 0.1, PB, CALL, 0),
}


@pytest.mark.parametrize("call", NOT_A_NUMBER.values(), ids=NOT_A_NUMBER)
def test_a_value_that_is_no_number_is_a_usage_error(call):
    with pytest.raises(UsageError, match="must be a"):
        call()


def test_an_int_beyond_the_float_range_is_out_of_every_bound():
    with pytest.raises(UsageError, match="T must be finite and > 0"):
        ModelParams(**{**GOOD, "T": 10**400})
    with pytest.raises(UsageError, match="x0 must be finite"):
        ModelParams(**{**GOOD, "x0": -(10**400)})


def test_the_model_stores_its_numbers_as_floats():
    params = ModelParams(H=np.float64(0.1), eta=1, T=np.float32(0.5), Delta=0.25, x0=-3)
    assert all(type(getattr(params, name)) is float for name in GOOD)
    assert params == ModelParams(H=0.1, eta=1.0, T=0.5, Delta=0.25, x0=-3.0)
    assert hash(params) == hash(ModelParams(H=0.1, eta=1.0, T=0.5, Delta=0.25, x0=-3.0))
    assert type(Payoff(PayoffKind.PUT, 1).strike) is float


# A choice given as text where an Enum member is taken, a scalar or text
# where a list is taken, a grid size below 1 or as text, and text where an
# array is taken.  Each is refused with UsageError naming the argument; each
# was once taken, priced as something else, or refused with a raw TypeError,
# a raw ValueError or a message about another argument.
PLAN = dict(lam=None, c1=1.0, c2=1.0, epsilon=0.1, scheme=RECT)
REFUSED = {
    "payoff kind as text": (lambda: Payoff("call"), "unknown payoff kind"),
    "payoff kind as text, with a strike": (lambda: Payoff("call", 0.1), "unknown payoff kind"),
    "Black-Scholes kind as text": (
        lambda: black_scholes("call", 1.0, 1.0, 0.2), "unknown black_scholes kind"
    ),
    "plan scheme as text": (lambda: mlmc_plan(0.01, 6, "rect", CALL, PB), "unknown scheme"),
    "hand-built plan scheme as text": (
        lambda: MlmcPlan(n0=6, m_levels=(4, 2), **{**PLAN, "scheme": "rect"}), "unknown scheme"
    ),
    "hand-built plan constants source 'auto'": (
        lambda: MlmcPlan(n0=6, m_levels=(4, 2), **PLAN, constants_source="auto"),
        "unknown constants_source 'auto'; choose from closed-form, pilot",
    ),
    "plan constants of a plain MC study": (
        lambda: mse_cost_curve("mc-rect", (0.1,), 2, 0.1, PB, CALL, 0, constants="guess"),
        "unknown constants 'guess'",
    ),
    "epsilons as a scalar": (
        lambda: mse_cost_curve("mc-rect", 0.1, 2, 0.1, PB, CALL, 0), "epsilons must be a list"
    ),
    "epsilons as text": (
        lambda: mse_cost_curve("mc-rect", "0.1", 2, 0.1, PB, CALL, 0), "epsilons must be a list"
    ),
    "n_values as a scalar": (
        lambda: strong_error_curve(RECT, 8, 64, 2000, PB, 0), "n_values must be a list"
    ),
    "knots as a scalar": (
        lambda: X0Curve(knots=1.0, values=(0.0,)), "x0 knots must be a list"
    ),
    "values as text": (lambda: X0Curve(knots=(1.0,), values="0"), "x0 values must be a list"),
    "m_levels as a scalar": (
        lambda: MlmcPlan(n0=6, m_levels=4, **PLAN), "m_levels must be a list"
    ),
    "batch width grid size -5": (
        lambda: batch_size(-5), "grid size n must be an integer >= 1"
    ),
    "batch grid size 0": (lambda: batch_sizes(0, 10), "grid size n must be an integer >= 1"),
    "batch grid size -5": (lambda: batch_sizes(-5, 10), "grid size n must be an integer >= 1"),
    "batch grid size as text": (
        lambda: batch_sizes("8", 10), "grid size n must be an integer >= 1"
    ),
    "VIX^2 as text": (lambda: payoff_eval(CALL, "0.04"), "vix2 must be an array of numbers"),
    "2F1 x as text": (lambda: hyp2f1(0.4, 0.6, 1.6, "abc"), "x must be an array of numbers"),
    "slope x as text": (
        lambda: fit_loglog_slope(["a", "b", "c"], [1.0, 2.0, 3.0]),
        "x must be an array of numbers",
    ),
    "covariance as text": (lambda: cholesky_factor("abc"), "cov must be an array of numbers"),
    "curve date as text": (
        lambda: X0Curve(knots=(0.5, 0.6), values=(1.0, 2.0))("0.55"), "u must be an array"
    ),
    "model date as text": (lambda: PB.x0_at("0.55"), "u must be an array of numbers"),
}


@pytest.mark.parametrize("call, message", REFUSED.values(), ids=REFUSED)
def test_a_choice_list_or_array_of_the_wrong_kind_is_a_usage_error(call, message):
    with pytest.raises(UsageError, match=re.escape(message)):
        call()


def test_a_list_may_be_any_iterable_but_text():
    curve = X0Curve(knots=np.array([1.0, 2.0]), values=iter((0.0, 1.0)))
    assert curve.knots == (1.0, 2.0) and curve.values == (0.0, 1.0)
    for empty in ((), [], np.array([])):
        with pytest.raises(UsageError, match="m_levels must not be empty"):
            MlmcPlan(n0=6, m_levels=empty, **PLAN)
    with pytest.raises(UsageError, match="m_levels must be a list"):
        MlmcPlan(n0=6, m_levels=np.array(4), **PLAN)


def test_a_choice_is_compared_member_by_member():
    # Text equal to a member's value is not the member, on every Python.
    assert Payoff(PayoffKind.CALL, 0.1).kind is PayoffKind.CALL
    with pytest.raises(UsageError, match=r"choose from PayoffKind\.CALL, PayoffKind\.PUT"):
        black_scholes(PayoffKind.FUTURE, 1.0, 1.0, 0.2)
    with pytest.raises(UsageError, match="unknown x0 mode 'cubic'; choose from step, linear"):
        X0Curve(knots=(1.0,), values=(0.0,), mode="cubic")
    assert X0Curve(knots=(1.0,), values=(0.0,), mode=np.str_("linear")).mode == "linear"
