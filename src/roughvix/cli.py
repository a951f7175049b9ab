"""Command-line front end for pricing and the benchmark experiments.

Subcommands: ``price``, ``strong-error``, ``weak-error``, ``mse-cost``,
``covariance-check``.  Every run resolves flags, an optional config file
(JSON or ``key=value`` lines; flags override the file), and an optional
named preset into one validated :class:`RunConfig`, then writes a results
table (CSV by default, JSON on request) plus a JSON manifest that
round-trips the exact configuration.  Exit codes: 0 success, 2 usage
error, 3 numeric failure, 4 I/O failure.

:class:`RunConfig` is the one table of keys: each field's annotation is
the key's type and its metadata holds the help text, choices, bound and
any flag alias.  The subcommands' parsers, the typing of values and the
choice and bound checks of :func:`validate` are all built from it; the
presets are written in its keys.  A flag, a ``key=value`` entry and a
JSON value are typed by the same rule (:func:`_coerce`), and any value
it cannot type or that breaks its key's bound exits 2.  ``_COMMANDS``
gives each subcommand its flags, its required keys and its runner, to
which :func:`run` hands the run's model and payoff, each built once.  A
runner returns its rows as records and the grid sizes it sampled, which
the manifest's rank record reads.

The environment variable ``ROUGHVIX_OUTPUT_DIR`` sets the default output
directory; it is ignored when ``--output`` is given.  Parent directories
are never created implicitly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time
import typing
from dataclasses import dataclass
from datetime import datetime, timezone

from .errors import NumericError, UsageError
from .errors import _FINITE, _NONNEGATIVE, _POSITIVE, _UNIT_INTERVAL
from .estimators import PLAN_CONSTANTS, mc_price, mlmc_plan, mlmc_price
from .experiments import (
    FAMILIES,
    PRESET_NAMES,
    Z95,
    mse_cost_curve,
    preset,
    strong_error_curve,
    weak_error_curve,
)
from .model import (
    RANK_TOL,
    X0_MODES,
    ModelParams,
    X0Curve,
    covariance_entry,
    covariance_quadrature_oracle,
)
from .payoffs import Payoff, PayoffKind
from .sampler import DOMAIN_COV_CHECK, factor_for, platform, stream_for
from .schemes import SchemeKind

__all__ = ["RunConfig", "parse_config", "validate", "run", "main"]

MANIFEST_SCHEMA_VERSION = 3


def _key(help: str, default=None, **flag) -> dataclasses.Field:
    """A CLI key's field, with its help text and flag options.

    The options are ``choices``, ``aliases`` (more flags for the key),
    ``negatable`` (a boolean flag that also has a ``--no-`` form) and
    ``check``, the key's bound as ``(condition, text)``: every value that
    is set, or every item of a list, must satisfy the condition.  A float
    key's bound is one of :mod:`.errors`' pairs, which the library's
    ``_real`` checks its arguments against.
    """
    return dataclasses.field(default=default, metadata={"help": help, **flag})


def _at_least(low: int) -> tuple:
    return (lambda v: v >= low, f">= {low}")


@dataclass
class RunConfig:
    """Complete, explicit description of one CLI run."""

    command: str
    H: float | None = _key("Hurst index", check=_UNIT_INTERVAL)
    eta: float | None = _key("vol-of-vol", check=_NONNEGATIVE)
    T: float | None = _key("option maturity in years", check=_POSITIVE)
    Delta: float | None = _key("VIX window width in years", check=_POSITIVE)
    x0: float | None = _key("constant initial log-forward-variance", check=_FINITE)
    x0_csv: str | None = _key("two-column CSV (date, value) with header")
    x0_interp: str = _key("interpolation for --x0-csv (default step)", "step", choices=X0_MODES)
    payoff: str = _key(
        "payoff kind", "call", choices=tuple(kind.value for kind in PayoffKind)
    )
    strike: float | None = _key(
        "strike (call/put)", aliases=("--kappa",), check=_POSITIVE
    )
    scheme: str = _key(
        "integration scheme", "rect", choices=tuple(kind.value for kind in SchemeKind)
    )
    estimator: str = _key("estimator family", "mc", choices=("mc", "mlmc"))
    n: int | None = _key("grid size (mc)", check=_at_least(1))
    M: int | None = _key(
        "sample count (per grid size for weak-error)", check=_at_least(2)
    )
    cv: bool = _key("control variate on/off (mc only)", False, negatable=True)
    epsilon: float | None = _key("target RMSE (mlmc)", check=_POSITIVE)
    n0: int = _key("base grid size (mlmc, default 6)", 6, check=_at_least(1))
    plan_constants: str = _key(
        "where the plan constants come from", "auto", choices=PLAN_CONSTANTS
    )
    n_ref: int | None = _key("reference grid size", check=_at_least(2))
    n_values: tuple[int, ...] | None = _key(
        "comma-separated grid sizes", check=_at_least(1)
    )
    family: str | None = _key("estimator family", choices=FAMILIES)
    epsilons: tuple[float, ...] | None = _key(
        "comma-separated RMSE targets", check=_POSITIVE
    )
    n_mse: int | None = _key("replications per target", check=_at_least(2))
    reference_price: float | None = _key("frozen reference", check=_FINITE)
    reference_ci: float = _key("reference uncertainty", 0.0, check=_NONNEGATIVE)
    pairs: int = _key("number of random pairs (default 100)", 100, check=_at_least(1))
    tolerance: float = _key(
        "max relative deviation (default 1e-9)", 1e-9, check=_POSITIVE
    )
    seed: int = _key(
        "root seed (default 0)", 0, check=(lambda v: 0 <= v < 2**64, "in [0, 2^64)")
    )
    output: str | None = _key("results file path (default derived name)")
    format: str = _key("results format", "csv", choices=("csv", "json"))
    paper_scale: bool = _key("use the full-scale protocol for the preset", False)
    preset: str | None = _key("named protocol", choices=PRESET_NAMES)

    def to_dict(self) -> dict:
        """The keys and values; JSON writes the list keys' tuples as arrays."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return cls(**_typed(data))


# ---------------------------------------------------------------------------
# Argument parsing and config resolution

_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}

# Each key's value type: its annotation without ``| None``.
_TYPES = {
    name: typing.get_args(hint)[0] if type(None) in typing.get_args(hint) else hint
    for name, hint in typing.get_type_hints(RunConfig).items()
}


def _add_flag(p: argparse.ArgumentParser, key: str) -> None:
    meta = _FIELDS[key].metadata
    flags = ["--" + key.replace("_", "-"), *meta.get("aliases", ())]
    options = {"dest": key, "help": meta["help"]}
    if "check" in meta:
        options["help"] += f"; must be {meta['check'][1]}"
    # An absent flag parses as None, so a file's or preset's value stands.
    if _TYPES[key] is bool and meta.get("negatable"):
        options["action"] = argparse.BooleanOptionalAction
    elif _TYPES[key] is bool:
        options.update(action="store_const", const=True)
    else:
        options["choices"] = meta.get("choices")
    p.add_argument(*flags, **options)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughvix",
        description="VIX option pricing and benchmarks in the rough Bergomi model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, row in _COMMANDS.items():
        p = sub.add_parser(command, help=row.summary)
        for key in row.keys.split():
            _add_flag(p, key)
        p.add_argument("--config", help="config file (JSON or key=value lines)")
    return parser


_TRUE = ("true", "1", "yes", "on")
_FALSE = ("false", "0", "no", "off")
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "a boolean", str: "text"}


def _coerce_item(key: str, kind: type, value):
    """One value of type `kind` for `key`, from text or a JSON value."""
    if isinstance(value, str) and kind is bool:
        text = value.strip().lower()
        if text in _TRUE + _FALSE:
            return text in _TRUE
    elif isinstance(value, str):
        try:
            return kind(value)
        except ValueError:
            pass
    elif isinstance(value, bool) == (kind is bool):
        # A JSON value; a bool is no number, and a number no bool.
        if isinstance(value, kind):
            return value
        if kind is float and isinstance(value, int):
            return float(value)
    raise UsageError(f"{key}: expected {_TYPE_NAMES[kind]}, got {value!r}")


def _coerce(key: str, value):
    """Give a flag's or config file's `value` the type of `key`.

    Text is parsed: ``int`` or ``float`` syntax, a boolean as one of
    ``true/false``, ``1/0``, ``yes/no``, ``on/off`` in any case, a list
    as comma-separated items.  A JSON value must have the type already,
    except that any JSON number is a float and a list's items may be
    text.  Null is taken only by a key whose default is None.
    """
    kind = _TYPES[key]
    if value is None and _FIELDS[key].default is None:
        return None
    if typing.get_origin(kind) is not tuple:
        return _coerce_item(key, kind, value)
    if isinstance(value, str):
        value = [item for item in value.split(",") if item.strip()]
    if not isinstance(value, (list, tuple)):
        raise UsageError(f"{key}: expected a list, got {value!r}")
    return tuple(_coerce_item(key, typing.get_args(kind)[0], item) for item in value)


def _typed(data: dict) -> dict:
    """`data` with each value given its key's type; unknown keys are refused."""
    unknown = sorted(set(data) - set(_FIELDS))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    return {key: _coerce(key, value) for key, value in data.items()}


def _load_config_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {path}: invalid JSON ({exc})")
    data = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config file {path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        data[key.strip().replace("-", "_")] = value.strip()
    return data


def _preset_values(name: str, command: str, paper_scale: bool) -> dict:
    values = preset(name, paper_scale)
    owner = values.pop("command")
    if owner != command:
        raise UsageError(f"preset {name!r} belongs to the {owner!r} command")
    return values


def parse_config(argv) -> RunConfig:
    """Resolve flags, config file, and preset into a RunConfig.

    Precedence: explicit flag > config-file entry > preset value >
    built-in default.  Flag and file values are typed alike.
    """
    namespace = _build_parser().parse_args(argv)
    values = _load_config_file(namespace.config) if namespace.config else {}
    values.pop("command", None)
    for key, value in vars(namespace).items():
        if key not in ("command", "config") and value is not None:
            values[key] = value
    values = _typed(values)

    if values.get("preset") is not None:
        paper_scale = values.get("paper_scale", False)
        preset_vals = _preset_values(values["preset"], namespace.command, paper_scale)
        if values.get("x0_csv") is not None:
            del preset_vals["x0"]  # the run's curve replaces the preset's constant
        for key, value in preset_vals.items():
            values.setdefault(key, value)
    return RunConfig(command=namespace.command, **values)


# ---------------------------------------------------------------------------
# Validation


def validate(config: RunConfig) -> RunConfig:
    """Check every key's bound and the command's rules; report all problems at once.

    A set key is checked against its choices and bound even when the
    command does not read it.
    """
    if config.command not in _COMMANDS:
        raise UsageError(f"command: unknown command {config.command!r}")
    row = _COMMANDS[config.command]
    takes = row.keys.split()
    errors = []

    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        choices = field.metadata.get("choices")
        check, text = field.metadata.get("check", (None, None))
        if value is None:
            continue
        items = value if isinstance(value, tuple) else (value,)
        if choices and value not in choices:
            errors.append(f"{field.name}: {value!r} is not one of {', '.join(choices)}")
        elif check and not all(map(check, items)):
            each = "every item " if isinstance(value, tuple) else ""
            errors.append(f"{field.name}: {each}must be {text}, got {value!r}")

    required = row.required.split()
    if "estimator" in takes:
        required += _ESTIMATOR_KEYS.get(config.estimator, "").split()
    for key in required:
        if getattr(config, key) in (None, ()):
            errors.append(f"{key}: required for {config.command}")

    if "x0" in takes and (config.x0 is None) == (config.x0_csv is None):
        errors.append("x0: give exactly one of --x0 and --x0-csv")
    if "payoff" in takes:
        if config.payoff in ("call", "put") and config.strike is None:
            errors.append(f"strike: required for a {config.payoff}")
        elif config.payoff == "future" and config.strike is not None:
            errors.append("strike: a future takes no strike")
    if "estimator" in takes and config.estimator == "mlmc" and config.cv:
        errors.append("cv: the multilevel estimator does not take a control variate")
    if (
        "plan_constants" in takes
        and config.plan_constants == "closed-form"
        and config.H is not None
        and config.H >= 0.5
    ):
        errors.append(
            f"plan_constants: the closed-form error constant requires H < 1/2 "
            f"(got H={config.H}); use --plan-constants pilot"
        )
    if config.command == "strong-error":
        if config.M is not None and config.M < 1000:
            errors.append(f"M: must be >= 1000 for strong-error, got {config.M}")
        if config.n_ref is not None and config.n_values:
            n_ref = config.n_ref
            bad = [n for n in config.n_values if n < 1 or n >= n_ref or n_ref % n]
            if bad:
                errors.append(
                    f"n_values: every n must be a proper divisor of n_ref={n_ref}; "
                    f"offending {bad}"
                )

    if errors:
        raise UsageError("invalid configuration: " + "; ".join(errors))
    return config


# ---------------------------------------------------------------------------
# Builders


def _load_x0_csv(path: str, interp: str) -> X0Curve:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise UsageError(f"x0 CSV {path}: need a header row plus at least one data row")
    knots, values = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < 2:
            raise UsageError(f"x0 CSV {path}:{lineno}: need two columns (date, value)")
        try:
            knots.append(float(row[0]))
            values.append(float(row[1]))
        except ValueError:
            raise UsageError(f"x0 CSV {path}:{lineno}: non-numeric entry {row!r}")
    return X0Curve(knots=tuple(knots), values=tuple(values), mode=interp)


def _build_params(config: RunConfig) -> ModelParams:
    if config.x0_csv is not None:
        x0 = _load_x0_csv(config.x0_csv, config.x0_interp)
    else:
        x0 = config.x0
    return ModelParams(H=config.H, eta=config.eta, T=config.T, Delta=config.Delta, x0=x0)


# ---------------------------------------------------------------------------
# Output writing


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_results(path: str, fmt: str, rows: list) -> None:
    """Write the records `rows`; a CSV's header is the first record's keys."""
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow([_format_cell(cell) for cell in row.values()])
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _config_hash(config: RunConfig) -> str:
    canon = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _factor_record(params: ModelParams | None, grids: list) -> dict:
    """The factorization's stopping tolerance and its rank on each of `grids`."""
    ranks = [{"n": n, "rank": factor_for(params, n).rank} for n in grids]
    return {"rank_tol": RANK_TOL, "ranks": ranks}


def _write_manifest(
    path: str, config: RunConfig, outputs: list, summary: dict, factor: dict, wall: float
) -> None:
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "command": config.command,
        "config": config.to_dict(),
        "seed": config.seed,
        "config_sha256": _config_hash(config),
        "outputs": [os.path.basename(p) for p in outputs],
        "wall_clock_seconds": wall,
        "summary": summary,
        "factor": factor,
        "platform": platform(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_output(config: RunConfig) -> str:
    if config.output:
        return config.output
    out_dir = os.environ.get("ROUGHVIX_OUTPUT_DIR", ".")
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    scheme = config.scheme if config.command != "covariance-check" else "check"
    if config.command == "mse-cost":
        scheme = config.family or "mse"
    ext = "csv" if config.format == "csv" else "json"
    return os.path.join(out_dir, f"{config.command}_{scheme}_{stamp}.{ext}")


# ---------------------------------------------------------------------------
# Commands (each runner takes the config and the run's model and payoff, or
# None for a command without them, and returns its rows as records (one dict
# per row, keys in column order), summary dict, one-liner, the grid sizes it
# sampled (pilot probes aside), and a failure to raise once the outputs are
# written, or None)


def _run_price(config: RunConfig, params: ModelParams, payoff: Payoff):
    scheme = SchemeKind(config.scheme)
    summary: dict = {}
    if config.estimator == "mc":
        est = mc_price(scheme, config.n, config.M, payoff, config.cv, params, config.seed)
        grids = [config.n]
    else:
        plan = mlmc_plan(
            config.epsilon, config.n0, scheme, payoff, params, constants=config.plan_constants
        )
        est = mlmc_price(plan, payoff, params, config.seed)
        grids = list(plan.n_levels)
        summary["plan"] = {
            "n0": plan.n0,
            "L": plan.L,
            "n_levels": list(plan.n_levels),
            "m_levels": list(plan.m_levels),
            "lambda": plan.lam,
            "c1": plan.c1,
            "c2": plan.c2,
            "epsilon": plan.epsilon,
            "constants_source": plan.constants_source,
        }
    hw = Z95 * est.std_error
    rows = [
        dict(
            estimator=config.estimator, scheme=config.scheme, cv=est.cv_used,
            value=est.value, std_error=est.std_error, ci95_halfwidth=hw,
            cost=est.cost, samples=";".join(str(m) for m in est.samples_used),
        )
    ]
    summary.update(
        value=est.value, std_error=est.std_error, ci95_halfwidth=hw, cost=est.cost
    )
    if est.bias_proxy is not None:
        summary["bias_proxy"] = est.bias_proxy
    line = f"value={est.value!r} ± {hw:.3e} (95% CI), cost={est.cost:.4g}"
    return rows, summary, line, grids, None


def _run_strong(config: RunConfig, params: ModelParams, payoff: None):
    curve = strong_error_curve(
        SchemeKind(config.scheme), config.n_values, config.n_ref, config.M, params, config.seed
    )
    overlay = curve.lambda_over_n or (None,) * len(curve.n_values)
    rows = [
        dict(n=n, error=e, ci95_halfwidth=hw, lambda_over_n=ov)
        for n, e, hw, ov in zip(
            curve.n_values, curve.errors, curve.ci_halfwidths, overlay
        )
    ]
    summary = {"fitted_slope": curve.fitted_slope}
    line = f"fitted log-log slope={curve.fitted_slope:.4f} over n={list(curve.n_values)}"
    return rows, summary, line, [config.n_ref], None


def _run_weak(config: RunConfig, params: ModelParams, payoff: Payoff):
    curve = weak_error_curve(
        SchemeKind(config.scheme), config.n_values, payoff, config.reference_price,
        config.reference_ci, config.M, params, config.seed,
    )
    rows = [
        dict(n=n, estimate=est, std_error=se, abs_error=err, ci95_halfwidth=hw)
        for n, est, se, err, hw in zip(
            curve.n_values,
            curve.protocol["estimates"],
            curve.protocol["std_errors"],
            curve.errors,
            curve.ci_halfwidths,
        )
    ]
    summary = {
        "fitted_slope": curve.fitted_slope,
        "reference_ci_warning": curve.protocol["reference_ci_warning"],
    }
    line = f"fitted log-log slope={curve.fitted_slope:.4f} over n={list(curve.n_values)}"
    return rows, summary, line, sorted(curve.n_values), None


def _run_mse(config: RunConfig, params: ModelParams, payoff: Payoff):
    curve = mse_cost_curve(
        config.family,
        config.epsilons,
        config.n_mse,
        config.reference_price,
        params,
        payoff,
        config.seed,
        n0=config.n0,
        constants=config.plan_constants,
    )
    rows = [
        dict(epsilon=e, cost=c, mse=m, mse_ci95_halfwidth=hw)
        for e, c, m, hw in zip(
            curve.epsilons, curve.costs, curve.mses, curve.mse_ci_halfwidths
        )
    ]
    summary = {"fitted_slope": curve.fitted_slope, "plans": curve.protocol["plans"]}
    line = f"MSE-vs-cost slope={curve.fitted_slope:.4f} for {config.family}"
    return rows, summary, line, curve.protocol["grids"], None


def _run_cov_check(config: RunConfig, params: None, payoff: None):
    rng = stream_for(config.seed, DOMAIN_COV_CHECK)
    rows = []
    worst = 0.0
    for index in range(config.pairs):
        H = float(rng.uniform(0.05, 0.45))
        eta = float(rng.uniform(0.1, 2.0))
        T = float(rng.uniform(0.1, 1.5))
        Delta = float(rng.uniform(1.0 / 24.0, 1.0 / 3.0))
        params = ModelParams(H=H, eta=eta, T=T, Delta=Delta, x0=0.0)
        u, v = sorted(float(x) for x in rng.uniform(T, T + Delta, size=2))
        if index % 10 == 9:
            v = u
        closed = covariance_entry(u, v, params)
        quad = covariance_quadrature_oracle(u, v, params)
        rel = abs(closed - quad) / max(abs(quad), 1e-300)
        worst = max(worst, rel)
        rows.append(
            dict(index=index, H=H, eta=eta, T=T, Delta=Delta, u=u, v=v,
                 closed_form=closed, quadrature=quad, rel_deviation=rel)
        )
    summary = {"max_rel_deviation": worst, "tolerance": config.tolerance}
    line = f"max relative deviation={worst:.3e} over {config.pairs} pairs (tolerance {config.tolerance:g})"
    failure = None
    if worst > config.tolerance:
        failure = NumericError(
            f"covariance check failed: max relative deviation {worst:.3e} "
            f"exceeds tolerance {config.tolerance:g}"
        )
    return rows, summary, line, [], failure


class _Command(typing.NamedTuple):
    summary: str  # the subcommand's help line
    keys: str  # the keys it takes as flags, besides ``--config``
    required: str  # the keys it needs set
    runner: typing.Callable


# The four studies share the model's keys and a preset.
_MODEL_KEYS = "H eta T Delta"
_STUDY_KEYS = f"{_MODEL_KEYS} x0 x0_csv x0_interp preset paper_scale"
_COMMANDS = {
    "price": _Command(
        "price one option",
        f"{_STUDY_KEYS} payoff strike scheme estimator n M cv epsilon n0 "
        "plan_constants seed output format",
        _MODEL_KEYS,
        _run_price,
    ),
    "strong-error": _Command(
        "L2 error versus grid size",
        f"{_STUDY_KEYS} scheme n_ref n_values M seed output format",
        f"{_MODEL_KEYS} n_ref n_values M",
        _run_strong,
    ),
    "weak-error": _Command(
        "price bias versus grid size",
        f"{_STUDY_KEYS} payoff strike scheme n_values M reference_price "
        "reference_ci seed output format",
        f"{_MODEL_KEYS} n_values M reference_price",
        _run_weak,
    ),
    "mse-cost": _Command(
        "empirical MSE versus normalized cost",
        f"{_STUDY_KEYS} payoff strike family epsilons n_mse reference_price n0 "
        "plan_constants seed output format",
        f"{_MODEL_KEYS} family epsilons n_mse reference_price",
        _run_mse,
    ),
    "covariance-check": _Command(
        "closed-form covariance versus quadrature",
        "pairs tolerance seed output format",
        "",
        _run_cov_check,
    ),
}

# The keys a command that takes ``estimator`` also needs, by estimator.
_ESTIMATOR_KEYS = {"mc": "n M", "mlmc": "epsilon"}


def run(config: RunConfig) -> int:
    """Execute a validated config: compute, write results + manifest, summarize."""
    validate(config)
    start = time.perf_counter()
    row = _COMMANDS[config.command]
    takes = row.keys.split()
    params = _build_params(config) if "x0" in takes else None
    payoff = None
    if "payoff" in takes:
        payoff = Payoff(PayoffKind(config.payoff), config.strike)
    rows, summary, line, grids, failure = row.runner(config, params, payoff)
    wall = time.perf_counter() - start

    results_path = _resolve_output(config)
    manifest_path = results_path + ".manifest.json"
    _write_results(results_path, config.format, rows)
    factor = _factor_record(params, grids)
    _write_manifest(manifest_path, config, [results_path], summary, factor, wall)
    print(f"{config.command}: {line}, wall={wall:.2f}s -> {results_path}")
    if failure is not None:
        raise failure
    return 0


def main(argv=None) -> int:
    """CLI entry point; maps error categories to exit codes."""
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
        return run(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
