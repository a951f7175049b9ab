"""Command-line front end for pricing and the benchmark experiments.

Subcommands: ``price``, ``strong-error``, ``weak-error``, ``mse-cost``,
``covariance-check``.  Every run resolves flags, an optional config file
(JSON or ``key=value`` lines; flags override the file), and an optional
named preset into one validated :class:`RunConfig`, then writes a results
table (CSV by default, JSON on request) plus a JSON manifest that
round-trips the exact configuration.  Exit codes: 0 success, 2 usage
error, 3 numeric failure, 4 I/O failure.

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
import math
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone

from .errors import NumericError, UsageError
from .estimators import mc_price, mlmc_plan, mlmc_price
from .experiments import (
    FAMILIES,
    PRESET_NAMES,
    Z95,
    mse_cost_curve,
    preset,
    strong_error_curve,
    weak_error_curve,
)
from .model import ModelParams, X0Curve, covariance_entry, covariance_quadrature_oracle
from .payoffs import Payoff, PayoffKind
from .sampler import RANK_TOL, factor_for, stream_for
from .schemes import SchemeKind

__all__ = ["RunConfig", "parse_config", "validate", "run", "main"]

MANIFEST_SCHEMA_VERSION = 2

_COMMANDS = ("price", "strong-error", "weak-error", "mse-cost", "covariance-check")
_SCHEMES = {"rect": SchemeKind.RECTANGLE, "trap": SchemeKind.TRAPEZOID}
_PAYOFFS = {"call": PayoffKind.CALL, "put": PayoffKind.PUT, "future": PayoffKind.FUTURE}

# Stream namespace for the covariance spot-check's random parameter draws
# (disjoint from the estimator domains 1-4).
_DOMAIN_COV_CHECK = 5


@dataclass
class RunConfig:
    """Complete, explicit description of one CLI run."""

    command: str
    H: float | None = None
    eta: float | None = None
    T: float | None = None
    Delta: float | None = None
    x0: float | None = None
    x0_csv: str | None = None
    x0_interp: str = "step"
    payoff: str = "call"
    strike: float | None = None
    scheme: str = "rect"
    estimator: str = "mc"
    n: int | None = None
    M: int | None = None
    cv: bool = False
    epsilon: float | None = None
    n0: int = 6
    plan_constants: str = "auto"
    n_ref: int | None = None
    n_values: tuple | None = None
    family: str | None = None
    epsilons: tuple | None = None
    n_mse: int | None = None
    reference_price: float | None = None
    reference_ci: float = 0.0
    pairs: int = 100
    tolerance: float = 1e-9
    seed: int = 0
    output: str | None = None
    format: str = "csv"
    paper_scale: bool = False
    preset: str | None = None

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for key in ("n_values", "epsilons"):
            if out[key] is not None:
                out[key] = list(out[key])
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        data = dict(data)
        for key in ("n_values", "epsilons"):
            if data.get(key) is not None:
                data[key] = tuple(data[key])
        return cls(**data)


# ---------------------------------------------------------------------------
# Argument parsing and config resolution


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--H", type=float, help="Hurst index in (0, 1)")
    p.add_argument("--eta", type=float, help="vol-of-vol, >= 0")
    p.add_argument("--T", type=float, help="option maturity in years")
    p.add_argument("--Delta", type=float, help="VIX window width in years")
    p.add_argument("--x0", type=float, help="constant initial log-forward-variance")
    p.add_argument(
        "--x0-csv", dest="x0_csv", help="two-column CSV (date, value) with header"
    )
    p.add_argument(
        "--x0-interp",
        dest="x0_interp",
        choices=("step", "linear"),
        help="interpolation for --x0-csv (default step)",
    )


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, help="root seed (default 0)")
    p.add_argument("--output", help="results file path (default derived name)")
    p.add_argument("--format", choices=("csv", "json"), help="results format")
    p.add_argument("--config", help="config file (JSON or key=value lines)")


def _add_payoff_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--payoff", choices=tuple(_PAYOFFS), help="payoff kind")
    p.add_argument(
        "--strike", "--kappa", dest="strike", type=float, help="strike (call/put)"
    )


def _add_preset_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=PRESET_NAMES, help="named protocol")
    p.add_argument(
        "--paper-scale",
        dest="paper_scale",
        action="store_const",
        const=True,
        help="use the full-scale protocol for the preset",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughvix",
        description="VIX option pricing and benchmarks in the rough Bergomi model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="price one option")
    _add_model_flags(p)
    _add_payoff_flags(p)
    _add_preset_flag(p)
    _add_common_flags(p)
    p.add_argument("--scheme", choices=tuple(_SCHEMES), help="integration scheme")
    p.add_argument("--estimator", choices=("mc", "mlmc"), help="estimator family")
    p.add_argument("--n", type=int, help="grid size (mc)")
    p.add_argument("--M", type=int, help="sample count (mc)")
    p.add_argument(
        "--cv",
        dest="cv",
        action=argparse.BooleanOptionalAction,
        help="control variate on/off (mc only)",
    )
    p.add_argument("--epsilon", type=float, help="target RMSE (mlmc)")
    p.add_argument("--n0", type=int, help="base grid size (mlmc, default 6)")
    p.add_argument(
        "--plan-constants",
        dest="plan_constants",
        choices=("auto", "closed-form", "pilot"),
        help="where the plan constants come from",
    )

    p = sub.add_parser("strong-error", help="L2 error versus grid size")
    _add_model_flags(p)
    _add_preset_flag(p)
    _add_common_flags(p)
    p.add_argument("--scheme", choices=tuple(_SCHEMES))
    p.add_argument("--n-ref", dest="n_ref", type=int, help="reference grid size")
    p.add_argument("--n-values", dest="n_values", help="comma-separated grid sizes")
    p.add_argument("--M", type=int, help="sample count")

    p = sub.add_parser("weak-error", help="price bias versus grid size")
    _add_model_flags(p)
    _add_payoff_flags(p)
    _add_preset_flag(p)
    _add_common_flags(p)
    p.add_argument("--scheme", choices=tuple(_SCHEMES))
    p.add_argument("--n-values", dest="n_values", help="comma-separated grid sizes")
    p.add_argument("--M", type=int, help="sample count per grid size")
    p.add_argument(
        "--reference-price", dest="reference_price", type=float, help="frozen reference"
    )
    p.add_argument(
        "--reference-ci", dest="reference_ci", type=float, help="reference uncertainty"
    )

    p = sub.add_parser("mse-cost", help="empirical MSE versus normalized cost")
    _add_model_flags(p)
    _add_payoff_flags(p)
    _add_preset_flag(p)
    _add_common_flags(p)
    p.add_argument("--family", choices=FAMILIES, help="estimator family")
    p.add_argument("--epsilons", help="comma-separated RMSE targets")
    p.add_argument("--n-mse", dest="n_mse", type=int, help="replications per target")
    p.add_argument(
        "--reference-price", dest="reference_price", type=float, help="frozen reference"
    )
    p.add_argument(
        "--reference-ci", dest="reference_ci", type=float, help="reference uncertainty"
    )
    p.add_argument("--n0", type=int, help="base grid size (default 6)")
    p.add_argument(
        "--plan-constants",
        dest="plan_constants",
        choices=("auto", "closed-form", "pilot"),
    )

    p = sub.add_parser(
        "covariance-check", help="closed-form covariance versus quadrature"
    )
    _add_common_flags(p)
    p.add_argument("--pairs", type=int, help="number of random pairs (default 100)")
    p.add_argument(
        "--tolerance", type=float, help="max relative deviation (default 1e-9)"
    )

    return parser


def _parse_int_list(text: str, flag: str) -> tuple:
    try:
        return tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"{flag} must be a comma-separated integer list, got {text!r}")


def _parse_float_list(text: str, flag: str) -> tuple:
    try:
        return tuple(float(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"{flag} must be a comma-separated number list, got {text!r}")


def _load_config_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {path}: invalid JSON ({exc})")
        if not isinstance(data, dict):
            raise UsageError(f"config file {path}: top level must be an object")
        return data
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


_PRESET_COMMAND = {
    "fig1": "strong-error",
    "fig1-h01": "strong-error",
    "fig1-h02": "strong-error",
    "fig1-h03": "strong-error",
    "fig2": "weak-error",
    "fig3": "mse-cost",
    "ref-a": "price",
    "ref-b": "price",
}

_SCHEME_NAMES = {SchemeKind.RECTANGLE: "rect", SchemeKind.TRAPEZOID: "trap"}


def _preset_values(name: str, command: str, paper_scale: bool) -> dict:
    if _PRESET_COMMAND[name] != command:
        raise UsageError(
            f"preset {name!r} belongs to the {_PRESET_COMMAND[name]!r} command"
        )
    proto = preset(name, paper_scale)
    params = proto["params"]
    values = {
        "H": params.H,
        "eta": params.eta,
        "T": params.T,
        "Delta": params.Delta,
        "x0": params.x0,
    }
    if "payoff" in proto:
        values["payoff"] = proto["payoff"].kind.value
        values["strike"] = proto["payoff"].strike
    if command == "strong-error":
        values.update(
            n_ref=proto["n_ref"], M=proto["M"], n_values=tuple(proto["n_values"])
        )
    elif command == "weak-error":
        values.update(
            n_values=tuple(proto["n_values"]),
            M=proto["M"],
            reference_price=proto["reference_price"],
            reference_ci=proto["reference_ci"],
        )
    elif command == "mse-cost":
        values.update(
            epsilons=tuple(proto["epsilons"]),
            n_mse=proto["N_mse"],
            reference_price=proto["reference_price"],
            reference_ci=proto["reference_ci"],
            n0=proto["n0"],
            family=proto["family"],
        )
    elif command == "price":
        values.update(
            scheme=_SCHEME_NAMES[proto["scheme"]],
            estimator="mc",
            n=proto["n"],
            M=proto["M"],
            cv=proto["use_cv"],
        )
    return values


_FIELD_TYPES = {f.name: f for f in dataclasses.fields(RunConfig)}

_INT_FIELDS = ("n", "M", "n0", "n_ref", "n_mse", "pairs", "seed")
_FLOAT_FIELDS = (
    "H",
    "eta",
    "T",
    "Delta",
    "x0",
    "strike",
    "epsilon",
    "reference_price",
    "reference_ci",
    "tolerance",
)
_BOOL_FIELDS = ("cv", "paper_scale")


def _coerce_file_value(key: str, value):
    """Turn a config-file string into the RunConfig field's type."""
    if not isinstance(value, str):
        return value
    if key in _INT_FIELDS:
        try:
            return int(value)
        except ValueError:
            raise UsageError(f"config key {key}: expected integer, got {value!r}")
    if key in _FLOAT_FIELDS:
        try:
            return float(value)
        except ValueError:
            raise UsageError(f"config key {key}: expected number, got {value!r}")
    if key in _BOOL_FIELDS:
        low = value.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise UsageError(f"config key {key}: expected boolean, got {value!r}")
    if key == "n_values":
        return _parse_int_list(value, "n_values")
    if key == "epsilons":
        return _parse_float_list(value, "epsilons")
    return value


def parse_config(argv) -> RunConfig:
    """Resolve flags, config file, and preset into a RunConfig.

    Precedence: explicit flag > config-file entry > preset value >
    built-in default.
    """
    namespace = _build_parser().parse_args(argv)
    cli = {k: v for k, v in vars(namespace).items() if k != "config" and v is not None}
    command = cli.pop("command")

    if "n_values" in cli:
        cli["n_values"] = _parse_int_list(cli["n_values"], "--n-values")
    if "epsilons" in cli:
        cli["epsilons"] = _parse_float_list(cli["epsilons"], "--epsilons")

    file_values = {}
    if namespace.config:
        raw = _load_config_file(namespace.config)
        raw.pop("command", None)
        unknown = sorted(set(raw) - set(_FIELD_TYPES))
        if unknown:
            raise UsageError(f"config file: unknown keys: {', '.join(unknown)}")
        file_values = {k: _coerce_file_value(k, v) for k, v in raw.items()}

    merged = dict(file_values)
    merged.update(cli)

    preset_name = merged.get("preset")
    if preset_name is not None:
        paper_scale = bool(merged.get("paper_scale", False))
        preset_vals = _preset_values(preset_name, command, paper_scale)
        for key, value in preset_vals.items():
            merged.setdefault(key, value)

    merged["command"] = command
    return RunConfig.from_dict(merged)


# ---------------------------------------------------------------------------
# Validation


def _require(errors, config, fields):
    for name in fields:
        if getattr(config, name) is None:
            errors.append(f"{name}: required for {config.command}")


def _validate_model(errors, config) -> None:
    _require(errors, config, ("H", "eta", "T", "Delta"))
    if config.H is not None and not (0.0 < config.H < 1.0):
        errors.append(f"H: must lie in (0, 1), got {config.H}")
    if config.eta is not None and config.eta < 0:
        errors.append(f"eta: must be >= 0, got {config.eta}")
    if config.T is not None and config.T <= 0:
        errors.append(f"T: must be > 0, got {config.T}")
    if config.Delta is not None and config.Delta <= 0:
        errors.append(f"Delta: must be > 0, got {config.Delta}")
    if config.x0 is None and config.x0_csv is None:
        errors.append("x0: give --x0 or --x0-csv")
    if config.x0 is not None and config.x0_csv is not None:
        errors.append("x0: --x0 and --x0-csv are mutually exclusive")


def _validate_payoff(errors, config) -> None:
    if config.payoff not in _PAYOFFS:
        errors.append(f"payoff: unknown kind {config.payoff!r}")
        return
    if config.payoff in ("call", "put"):
        if config.strike is None:
            errors.append(f"strike: required for a {config.payoff}")
        elif config.strike <= 0:
            errors.append(f"strike: must be > 0, got {config.strike}")
    elif config.strike is not None:
        errors.append("strike: a future takes no strike")


def _validate_closed_form(errors, config) -> None:
    if config.plan_constants == "closed-form" and config.H is not None and config.H >= 0.5:
        errors.append(
            f"plan_constants: the closed-form error constant requires H < 1/2 "
            f"(got H={config.H}); use --plan-constants pilot"
        )


def validate(config: RunConfig) -> RunConfig:
    """Check every field and cross-field rule; report all problems at once."""
    errors = []
    if config.command not in _COMMANDS:
        errors.append(f"command: unknown command {config.command!r}")
        raise UsageError("; ".join(errors))

    if not (0 <= config.seed < 2**64):
        errors.append(f"seed: must fit in 64 bits, got {config.seed}")
    if config.format not in ("csv", "json"):
        errors.append(f"format: must be csv or json, got {config.format!r}")
    if config.x0_interp not in ("step", "linear"):
        errors.append(f"x0_interp: must be step or linear, got {config.x0_interp!r}")

    if config.command == "price":
        _validate_model(errors, config)
        _validate_payoff(errors, config)
        if config.scheme not in _SCHEMES:
            errors.append(f"scheme: unknown scheme {config.scheme!r}")
        if config.estimator == "mc":
            if config.n is None or config.n < 1:
                errors.append(f"n: must be >= 1 for the mc estimator, got {config.n}")
            if config.M is None or config.M < 2:
                errors.append(f"M: must be >= 2 for the mc estimator, got {config.M}")
        elif config.estimator == "mlmc":
            if config.epsilon is None or config.epsilon <= 0:
                errors.append(
                    f"epsilon: must be > 0 for the mlmc estimator, got {config.epsilon}"
                )
            if config.n0 < 1:
                errors.append(f"n0: must be >= 1, got {config.n0}")
            if config.cv:
                errors.append("cv: the multilevel estimator does not take a control variate")
            _validate_closed_form(errors, config)
        else:
            errors.append(f"estimator: unknown estimator {config.estimator!r}")
    elif config.command == "strong-error":
        _validate_model(errors, config)
        if config.scheme not in _SCHEMES:
            errors.append(f"scheme: unknown scheme {config.scheme!r}")
        if config.n_ref is None or config.n_ref < 2:
            errors.append(f"n_ref: must be >= 2, got {config.n_ref}")
        if not config.n_values:
            errors.append("n_values: required (comma-separated grid sizes)")
        elif config.n_ref is not None and config.n_ref >= 2:
            bad = [n for n in config.n_values if n < 1 or n >= config.n_ref or config.n_ref % n]
            if bad:
                errors.append(
                    f"n_values: every n must be a proper divisor of n_ref={config.n_ref}; "
                    f"offending {bad}"
                )
        if config.M is None or config.M < 1000:
            errors.append(f"M: must be >= 1000, got {config.M}")
    elif config.command == "weak-error":
        _validate_model(errors, config)
        _validate_payoff(errors, config)
        if config.scheme not in _SCHEMES:
            errors.append(f"scheme: unknown scheme {config.scheme!r}")
        if not config.n_values:
            errors.append("n_values: required (comma-separated grid sizes)")
        elif any(n < 1 for n in config.n_values):
            errors.append("n_values: grid sizes must be >= 1")
        if config.M is None or config.M < 2:
            errors.append(f"M: must be >= 2, got {config.M}")
        if config.reference_price is None:
            errors.append("reference_price: required")
        if config.reference_ci < 0:
            errors.append(f"reference_ci: must be >= 0, got {config.reference_ci}")
    elif config.command == "mse-cost":
        _validate_model(errors, config)
        _validate_payoff(errors, config)
        if config.family not in FAMILIES:
            errors.append(f"family: choose from {FAMILIES}, got {config.family!r}")
        if not config.epsilons:
            errors.append("epsilons: required (comma-separated targets)")
        elif any(e <= 0 for e in config.epsilons):
            errors.append("epsilons: all targets must be > 0")
        if config.n_mse is None or config.n_mse < 2:
            errors.append(f"n_mse: must be >= 2, got {config.n_mse}")
        if config.reference_price is None:
            errors.append("reference_price: required")
        if config.n0 < 1:
            errors.append(f"n0: must be >= 1, got {config.n0}")
        _validate_closed_form(errors, config)
    elif config.command == "covariance-check":
        if config.pairs < 1:
            errors.append(f"pairs: must be >= 1, got {config.pairs}")
        if config.tolerance <= 0:
            errors.append(f"tolerance: must be > 0, got {config.tolerance}")

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


def _build_payoff(config: RunConfig) -> Payoff:
    return Payoff(_PAYOFFS[config.payoff], strike=config.strike)


# ---------------------------------------------------------------------------
# Output writing


def _coerce_cell(value):
    """Normalize a table cell to a plain Python scalar."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, int):
        return int(value)
    return value


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_results(path: str, fmt: str, header: list, rows: list) -> None:
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_format_cell(cell) for cell in row])
    else:
        payload = [
            {key: _coerce_cell(cell) for key, cell in zip(header, row)} for row in rows
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _config_hash(config: RunConfig) -> str:
    canon = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _sampled_grids(config: RunConfig, summary: dict) -> list:
    """Grid sizes the run's results were sampled on (pilot probes aside)."""
    if config.command == "price":
        return summary["plan"]["n_levels"] if "plan" in summary else [config.n]
    if config.command == "strong-error":
        return [config.n_ref]
    if config.command == "weak-error":
        return sorted(set(config.n_values))
    if config.command == "mse-cost":
        if config.family == "mc-rect":
            return sorted({math.ceil(1.0 / e) for e in config.epsilons})
        levels = max(plan["L"] for plan in summary["plans"])
        return [config.n0 * 2**level for level in range(levels + 1)]
    return []


def _factor_record(config: RunConfig, summary: dict) -> dict:
    """The factorization's stopping tolerance and its rank on each sampled grid."""
    grids = _sampled_grids(config, summary)
    params = _build_params(config) if grids else None
    return {
        "rank_tol": RANK_TOL,
        "ranks": [{"n": n, "rank": factor_for(params, n).rank} for n in grids],
    }


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
# Command implementations (each returns header, rows, summary dict, one-liner)


def _run_price(config: RunConfig):
    params = _build_params(config)
    payoff = _build_payoff(config)
    scheme = _SCHEMES[config.scheme]
    summary: dict = {}
    if config.estimator == "mc":
        est = mc_price(
            scheme, config.n, config.M, payoff, config.cv, params, config.seed
        )
    else:
        plan = mlmc_plan(
            config.epsilon,
            config.n0,
            scheme,
            payoff,
            params,
            constants=config.plan_constants,
        )
        est = mlmc_price(plan, payoff, params, config.seed)
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
    header = [
        "estimator",
        "scheme",
        "cv",
        "value",
        "std_error",
        "ci95_halfwidth",
        "cost",
        "samples",
    ]
    rows = [
        [
            config.estimator,
            config.scheme,
            est.cv_used,
            est.value,
            est.std_error,
            hw,
            est.cost,
            ";".join(str(m) for m in est.samples_used),
        ]
    ]
    summary.update(
        value=est.value, std_error=est.std_error, ci95_halfwidth=hw, cost=est.cost
    )
    if est.bias_proxy is not None:
        summary["bias_proxy"] = est.bias_proxy
    line = f"value={est.value!r} ± {hw:.3e} (95% CI), cost={est.cost:.4g}"
    return header, rows, summary, line


def _run_strong(config: RunConfig):
    params = _build_params(config)
    curve = strong_error_curve(
        _SCHEMES[config.scheme],
        config.n_values,
        config.n_ref,
        config.M,
        params,
        config.seed,
    )
    header = ["n", "error", "ci95_halfwidth", "lambda_over_n"]
    overlay = curve.lambda_over_n or (None,) * len(curve.n_values)
    rows = [
        [n, e, hw, ov]
        for n, e, hw, ov in zip(
            curve.n_values, curve.errors, curve.ci_halfwidths, overlay
        )
    ]
    summary = {"fitted_slope": curve.fitted_slope}
    line = f"fitted log-log slope={curve.fitted_slope:.4f} over n={list(curve.n_values)}"
    return header, rows, summary, line


def _run_weak(config: RunConfig):
    params = _build_params(config)
    payoff = _build_payoff(config)
    curve = weak_error_curve(
        _SCHEMES[config.scheme],
        config.n_values,
        payoff,
        config.reference_price,
        config.reference_ci,
        config.M,
        params,
        config.seed,
    )
    header = ["n", "estimate", "std_error", "abs_error", "ci95_halfwidth"]
    rows = [
        [n, est, se, err, hw]
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
    return header, rows, summary, line


def _run_mse(config: RunConfig):
    params = _build_params(config)
    payoff = _build_payoff(config)
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
    header = ["epsilon", "cost", "mse", "mse_ci95_halfwidth"]
    rows = [
        [e, c, m, hw]
        for e, c, m, hw in zip(
            curve.epsilons, curve.costs, curve.mses, curve.mse_ci_halfwidths
        )
    ]
    summary = {"fitted_slope": curve.fitted_slope, "plans": curve.protocol["plans"]}
    line = f"MSE-vs-cost slope={curve.fitted_slope:.4f} for {config.family}"
    return header, rows, summary, line


def _run_cov_check(config: RunConfig):
    rng = stream_for(config.seed, _DOMAIN_COV_CHECK)
    header = [
        "index",
        "H",
        "eta",
        "T",
        "Delta",
        "u",
        "v",
        "closed_form",
        "quadrature",
        "rel_deviation",
    ]
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
        rows.append([index, H, eta, T, Delta, u, v, closed, quad, rel])
    summary = {"max_rel_deviation": worst, "tolerance": config.tolerance}
    line = f"max relative deviation={worst:.3e} over {config.pairs} pairs (tolerance {config.tolerance:g})"
    return header, rows, summary, line, worst


def run(config: RunConfig) -> int:
    """Execute a validated config: compute, write results + manifest, summarize."""
    validate(config)
    start = time.perf_counter()
    failure = None
    if config.command == "price":
        header, rows, summary, line = _run_price(config)
    elif config.command == "strong-error":
        header, rows, summary, line = _run_strong(config)
    elif config.command == "weak-error":
        header, rows, summary, line = _run_weak(config)
    elif config.command == "mse-cost":
        header, rows, summary, line = _run_mse(config)
    else:
        header, rows, summary, line, worst = _run_cov_check(config)
        if worst > config.tolerance:
            failure = NumericError(
                f"covariance check failed: max relative deviation {worst:.3e} "
                f"exceeds tolerance {config.tolerance:g}"
            )
    wall = time.perf_counter() - start

    results_path = _resolve_output(config)
    manifest_path = results_path + ".manifest.json"
    _write_results(results_path, config.format, header, rows)
    factor = _factor_record(config, summary)
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
