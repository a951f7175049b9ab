"""Command-line interface: config resolution, validation, outputs, exit codes."""

import dataclasses
import json
import math
import os
import re
import typing

import pytest

from roughvix import PayoffKind, SchemeKind, UsageError, cli, errors
from roughvix import estimators, experiments, model
from roughvix.cli import RunConfig, main, parse_config, run, validate
from roughvix.sampler import platform

X0 = math.log(0.235**2)

BASE_MODEL = [
    "--H", "0.3", "--eta", "0.5", "--T", "0.25", "--Delta", "0.08333333333333333",
    "--x0", str(X0),
]


# --- config resolution ------------------------------------------------------


def test_flags_resolve_to_a_complete_config():
    config = parse_config(
        ["price", *BASE_MODEL, "--payoff", "call", "--strike", "0.1",
         "--n", "50", "--M", "1000", "--cv", "--seed", "11"]
    )
    assert config.command == "price"
    assert config.H == 0.3
    assert config.cv is True
    assert config.seed == 11
    validate(config)


def test_strike_accepts_the_kappa_alias():
    config = parse_config(
        ["price", *BASE_MODEL, "--payoff", "call", "--kappa", "0.1",
         "--n", "10", "--M", "100"]
    )
    assert config.strike == 0.1


def test_config_file_keyvalue_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# price run\n"
        "H = 0.3\neta = 0.5\nT = 0.25\nDelta = 0.08333333333333333\n"
        f"x0 = {X0}\npayoff = call\nstrike = 0.1\nn = 10\nM = 500\ncv = true\n"
    )
    config = parse_config(["price", "--config", str(cfg), "--M", "2000"])
    assert config.M == 2000  # flag wins
    assert config.n == 10  # file fills the rest
    assert config.cv is True
    validate(config)


def test_config_file_json(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps({"H": 0.3, "eta": 0.5, "T": 0.25, "Delta": 1 / 12, "x0": X0,
                    "payoff": "put", "strike": 0.1, "n": 10, "M": 500})
    )
    config = parse_config(["price", "--config", str(cfg)])
    assert config.payoff == "put"
    validate(config)


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate = 1\n")
    with pytest.raises(UsageError, match="frobnicate"):
        parse_config(["price", "--config", str(cfg)])


def test_preset_fills_every_required_field():
    for args in (
        ["strong-error", "--preset", "fig1"],
        ["strong-error", "--preset", "fig1-h03"],
        ["weak-error", "--preset", "fig2"],
        ["mse-cost", "--preset", "fig3"],
        ["price", "--preset", "ref-a"],
        ["price", "--preset", "ref-b"],
    ):
        config = parse_config(args)
        validate(config)  # fully populated


def test_preset_command_mismatch_is_rejected():
    with pytest.raises(UsageError, match="belongs to"):
        parse_config(["price", "--preset", "fig1"])


def test_preset_respects_flag_overrides():
    config = parse_config(["strong-error", "--preset", "fig1", "--M", "5000"])
    assert config.M == 5000
    assert config.n_ref == 512


def test_x0_csv_replaces_the_preset_curve(tmp_path):
    # A preset's constant x0 is a default like any other: a run that names
    # an x0 curve file prices on that curve instead.
    path = tmp_path / "curve.csv"
    path.write_text("date,x0\n0.5,-2.9\n0.54,-2.7\n")
    args = ["price", "--preset", "ref-b", "--x0-csv", str(path), "--M", "100"]
    config = parse_config(args)
    assert config.x0 is None and config.x0_csv == str(path)
    validate(config)
    assert main([*args, "--n", "8", "--output", str(tmp_path / "out.csv")]) == 0


def test_paper_scale_switches_protocol():
    desk = parse_config(["strong-error", "--preset", "fig1"])
    full = parse_config(["strong-error", "--preset", "fig1", "--paper-scale"])
    assert desk.n_ref == 512 and desk.M == 20_000
    assert full.n_ref == 2000 and full.M == 100_000


# --- validation -------------------------------------------------------------


def test_validation_reports_all_errors_at_once():
    config = RunConfig(command="price", estimator="mc")
    with pytest.raises(UsageError) as err:
        validate(config)
    message = str(err.value)
    for field in ("H", "eta", "T", "Delta", "x0", "strike", "n", "M"):
        assert field in message


def test_validation_rejects_smooth_hurst_with_closed_form_plan():
    config = parse_config(
        ["price", "--H", "0.6", "--eta", "0.5", "--T", "0.5", "--Delta",
         "0.08333333333333333", "--x0", str(X0), "--payoff", "call",
         "--strike", "0.1", "--estimator", "mlmc", "--epsilon", "0.01",
         "--plan-constants", "closed-form"]
    )
    with pytest.raises(UsageError, match="H < 1/2"):
        validate(config)
    # The message must point at the working alternative.
    with pytest.raises(UsageError, match="pilot"):
        validate(config)


def test_validation_rejects_cv_on_multilevel():
    config = parse_config(
        ["price", *BASE_MODEL, "--payoff", "call", "--strike", "0.1",
         "--estimator", "mlmc", "--epsilon", "0.01", "--cv"]
    )
    with pytest.raises(UsageError, match="control variate"):
        validate(config)


def test_validation_rejects_bad_divisor_grid():
    config = parse_config(
        ["strong-error", *BASE_MODEL, "--scheme", "rect", "--n-ref", "64",
         "--n-values", "8,12", "--M", "2000"]
    )
    with pytest.raises(UsageError, match="divisor"):
        validate(config)


def test_validation_requires_strike_for_calls():
    config = parse_config(
        ["price", *BASE_MODEL, "--payoff", "call", "--n", "10", "--M", "100"]
    )
    with pytest.raises(UsageError, match="strike"):
        validate(config)


# A valid run of each command, and the command a bounded key is tried on.
CALL = ["--payoff", "call", "--strike", "0.1"]
RUNS = {
    "price": ["price", *BASE_MODEL, *CALL, "--n", "4", "--M", "10"],
    "mlmc": ["price", *BASE_MODEL, *CALL, "--estimator", "mlmc", "--epsilon", "0.01"],
    "strong-error": ["strong-error", *BASE_MODEL, "--n-ref", "64",
                     "--n-values", "8,16,32", "--M", "2000"],
    "weak-error": ["weak-error", *BASE_MODEL, *CALL, "--n-values", "4", "--M", "10",
                   "--reference-price", "0.1"],
    "mse-cost": ["mse-cost", *BASE_MODEL, *CALL, "--family", "mc-rect",
                 "--epsilons", "0.1", "--n-mse", "2", "--reference-price", "0.1"],
    "covariance-check": ["covariance-check", "--pairs", "2"],
}
# Each bounded key: the run it is given to, its NaN if it is a float key,
# and values just outside its bound.
OUTSIDE = {
    "H": ("price", ["nan", "0", "1"]),
    "eta": ("price", ["nan", "-5e-324", "inf"]),
    "T": ("price", ["nan", "0", "inf"]),
    "Delta": ("price", ["nan", "0", "inf"]),
    "x0": ("price", ["nan", "inf", "-inf"]),
    "strike": ("price", ["nan", "0", "inf"]),
    "n": ("price", ["0"]),
    "M": ("price", ["1"]),
    "epsilon": ("mlmc", ["nan", "0", "inf"]),
    "n0": ("mlmc", ["0"]),
    "n_ref": ("strong-error", ["1"]),
    "n_values": ("strong-error", ["8,0"]),
    "epsilons": ("mse-cost", ["nan,0.1", "0.1,0", "0.1,inf"]),
    "n_mse": ("mse-cost", ["1"]),
    "reference_price": ("mse-cost", ["nan", "inf"]),
    "reference_ci": ("weak-error", ["nan", "-5e-324", "inf"]),
    "pairs": ("covariance-check", ["0"]),
    "tolerance": ("covariance-check", ["nan", "0", "inf"]),
    "seed": ("covariance-check", ["-1", str(2**64)]),
}


@pytest.mark.parametrize(
    "key, value",
    [(key, value) for key, (_, values) in OUTSIDE.items() for value in values],
)
def test_each_bound_refuses_values_outside_it(tmp_path, capsys, key, value):
    hints = typing.get_type_hints(RunConfig)
    fields = dataclasses.fields(RunConfig)
    bounded = [field.name for field in fields if "check" in field.metadata]
    assert sorted(bounded) == sorted(OUTSIDE)
    floats = [name for name in bounded if "float" in str(hints[name])]
    assert all(any("nan" in v for v in OUTSIDE[name][1]) for name in floats)
    out = tmp_path / "x.csv"
    args = RUNS[OUTSIDE[key][0]]
    assert main([*args, "--output", str(out)]) == 0
    out.unlink()
    flag = "--" + key.replace("_", "-")
    assert main([*args, f"{flag}={value}", "--output", str(out)]) == 2
    assert f" {key}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["strong-error", "weak-error"])
def test_a_repeated_grid_size_exits_2_without_results(tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    args = [*RUNS[command], "--n-values", "8,8,16", "--output", str(out)]
    assert main(args) == 2
    assert "without repeats" in capsys.readouterr().err
    assert not out.exists()


PRICE_ARGS = ["price", "--payoff", "call", "--strike", "0.1", "--n", "4", "--M", "10"]
FILE = "<file>"
# Refusals that need a file or a pair of keys: each case's file text (or
# None), its arguments, in which FILE stands for the file, and a piece of
# the message.
REFUSALS = {
    "choice from a file": ('{"scheme": "simpson"}', ["--config", FILE, *BASE_MODEL],
                           "scheme: 'simpson' is not one of"),
    "invalid JSON": ('{"H": 0.3,', ["--config", FILE, *BASE_MODEL], "invalid JSON"),
    "line without =": ("H 0.3\n", ["--config", FILE, *BASE_MODEL], ":1: expected key=value"),
    "JSON array": ("[1, 2]\n", ["--config", FILE, *BASE_MODEL], ":1: expected key=value"),
    "strike on a future": (None, [*BASE_MODEL, "--payoff", "future"],
                           "a future takes no strike"),
    "x0 CSV of a header": ("date,x0\n", [*BASE_MODEL[:-2], "--x0-csv", FILE],
                           "need a header row plus"),
    "x0 CSV row of one column": ("date,x0\n0.5\n", [*BASE_MODEL[:-2], "--x0-csv", FILE],
                                 ":2: need two columns"),
}


@pytest.mark.parametrize("text, args, message", REFUSALS.values(), ids=REFUSALS)
def test_a_refused_run_exits_2_without_results(tmp_path, capsys, text, args, message):
    path, out = tmp_path / "input", tmp_path / "x.csv"
    if text is not None:
        path.write_text(text)
    args = [str(path) if arg == FILE else arg for arg in args]
    assert main([*PRICE_ARGS, *args, "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_float_keys_share_the_library_bounds():
    shared = {errors._POSITIVE, errors._NONNEGATIVE, errors._FINITE, errors._UNIT_INTERVAL}
    hints = typing.get_type_hints(RunConfig)
    floats = [f for f in dataclasses.fields(RunConfig) if "float" in str(hints[f.name])]
    assert floats and all(f.metadata["check"] in shared for f in floats)


def test_choice_keys_share_the_library_choices():
    # The keys whose value the library takes read the library's own choices;
    # estimator and format are the CLI's own.
    fields = {f.name: f.metadata.get("choices") for f in dataclasses.fields(RunConfig)}
    assert fields["x0_interp"] is model.X0_MODES
    assert fields["plan_constants"] is estimators.PLAN_CONSTANTS
    assert fields["family"] is experiments.FAMILIES
    assert fields["preset"] is experiments.PRESET_NAMES
    assert fields["payoff"] == tuple(kind.value for kind in PayoffKind)
    assert fields["scheme"] == tuple(kind.value for kind in SchemeKind)
    own = {"estimator", "format"}
    assert {name for name, choices in fields.items() if choices} - own == {
        "x0_interp", "plan_constants", "family", "preset", "payoff", "scheme"
    }


def test_strong_error_refuses_fewer_than_1000_samples(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main([*RUNS["strong-error"], "--M", "500", "--output", str(out)]) == 2
    assert "M: must be >= 1000 for strong-error, got 500" in capsys.readouterr().err
    assert not out.exists()


# --- x0 curve loading -------------------------------------------------------


def test_x0_csv_step_curve(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("date,x0\n0.5,-2.9\n0.54,-2.7\n")
    config = parse_config(
        ["price", "--H", "0.1", "--eta", "0.5", "--T", "0.5", "--Delta",
         "0.08333333333333333", "--x0-csv", str(path), "--x0-interp", "step",
         "--payoff", "call", "--strike", "0.1", "--n", "8", "--M", "100",
         "--output", str(tmp_path / "out.csv")]
    )
    validate(config)
    assert run(config) == 0
    assert (tmp_path / "out.csv").exists()


def test_x0_csv_is_read_once_per_run(tmp_path, monkeypatch):
    path = tmp_path / "curve.csv"
    path.write_text("date,x0\n0.5,-2.9\n0.54,-2.7\n")
    reads = []
    load_x0_csv = cli._load_x0_csv

    def load(*args):
        reads.append(args)
        return load_x0_csv(*args)

    monkeypatch.setattr(cli, "_load_x0_csv", load)
    code = main(
        ["price", "--H", "0.1", "--eta", "0.5", "--T", "0.5", "--Delta",
         "0.08333333333333333", "--x0-csv", str(path), "--payoff", "call",
         "--strike", "0.1", "--n", "8", "--M", "100",
         "--output", str(tmp_path / "out.csv")]
    )
    assert code == 0
    assert len(reads) == 1


def test_x0_csv_malformed_rows_are_usage_errors(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("date,x0\n0.5,notanumber\n")
    code = main(
        ["price", "--H", "0.1", "--eta", "0.5", "--T", "0.5", "--Delta",
         "0.08333333333333333", "--x0-csv", str(path), "--payoff", "call",
         "--strike", "0.1", "--n", "8", "--M", "100",
         "--output", str(tmp_path / "out.csv")]
    )
    assert code == 2


def test_x0_csv_missing_file_is_io_error(tmp_path):
    code = main(
        ["price", "--H", "0.1", "--eta", "0.5", "--T", "0.5", "--Delta",
         "0.08333333333333333", "--x0-csv", str(tmp_path / "absent.csv"),
         "--payoff", "call", "--strike", "0.1", "--n", "8", "--M", "100",
         "--output", str(tmp_path / "out.csv")]
    )
    assert code == 4


# --- outputs ----------------------------------------------------------------


def test_price_flat_model_writes_exact_value(tmp_path, capsys):
    out = tmp_path / "flat.csv"
    code = main(
        ["price", "--H", "0.3", "--eta", "0", "--T", "0.25", "--Delta",
         "0.08333333333333333", "--x0", str(X0), "--payoff", "call",
         "--strike", "0.1", "--n", "4", "--M", "10", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    value = float(row[header.index("value")])
    assert value == math.exp(X0 / 2) - 0.1
    assert float(row[header.index("std_error")]) == 0.0
    assert "value=" in capsys.readouterr().out


def test_same_config_and_seed_is_byte_identical(tmp_path):
    args = ["strong-error", "--H", "0.1", "--eta", "0.5", "--T", "0.5",
            "--Delta", "0.08333333333333333", "--x0", str(X0),
            "--scheme", "rect", "--n-ref", "64", "--n-values", "8,16,32",
            "--M", "2000", "--seed", "7"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main([*args, "--output", str(out1)]) == 0
    assert main([*args, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_manifest_round_trips_the_exact_config(tmp_path):
    out = tmp_path / "curve.csv"
    args = ["strong-error", "--preset", "fig1", "--M", "2000",
            "--n-values", "8,16,32", "--seed", "5", "--output", str(out)]
    config = parse_config(args)
    assert main(args) == 0
    manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
    assert manifest["schema_version"] == 3
    assert manifest["platform"] == platform()
    assert RunConfig.from_dict(manifest["config"]) == config
    assert manifest["outputs"] == ["curve.csv"]
    assert "fitted_slope" in manifest["summary"]
    # The strong-error study samples only the n_ref = 512 grid.
    assert manifest["factor"]["rank_tol"] == 1e-14
    (grid,) = manifest["factor"]["ranks"]
    assert grid["n"] == 512 and 1 <= grid["rank"] <= 20


@pytest.mark.parametrize(
    "args, grids",
    [
        (["price", "--n", "10", "--M", "100"], [10]),
        # L = 2 at this epsilon, n0 = 6.
        (["price", "--estimator", "mlmc", "--epsilon", "0.001"], [6, 12, 24]),
        (["weak-error", "--n-values", "8,4", "--M", "100",
          "--reference-price", "0.1"], [4, 8]),
        (["mse-cost", "--family", "mc-rect", "--epsilons", "0.1,0.05",
          "--n-mse", "2", "--reference-price", "0.1"], [10, 20]),
        # L = 1 and 2: the union of the plans' grids.
        (["mse-cost", "--family", "ml-trap", "--epsilons", "0.002,0.001",
          "--n-mse", "2", "--reference-price", "0.1"], [6, 12, 24]),
    ],
)
def test_manifest_records_the_rank_of_each_sampled_grid(tmp_path, args, grids):
    out = tmp_path / "res.csv"
    command, *rest = args
    code = main(
        [command, *BASE_MODEL, "--payoff", "call", "--strike", "0.1", *rest,
         "--output", str(out)]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "res.csv.manifest.json").read_text())
    ranks = manifest["factor"]["ranks"]
    assert [grid["n"] for grid in ranks] == grids
    assert all(1 <= grid["rank"] <= grid["n"] + 1 for grid in ranks)


def test_json_results_format(tmp_path):
    out = tmp_path / "res.json"
    code = main(
        ["price", *BASE_MODEL, "--payoff", "call", "--strike", "0.1",
         "--n", "8", "--M", "200", "--format", "json", "--output", str(out)]
    )
    assert code == 0
    rows = json.loads(out.read_text())
    assert isinstance(rows, list) and rows[0]["estimator"] == "mc"


def test_default_output_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("ROUGHVIX_OUTPUT_DIR", str(tmp_path))
    code = main(
        ["price", *BASE_MODEL, "--payoff", "call", "--strike", "0.1",
         "--n", "4", "--M", "50"]
    )
    assert code == 0
    names = os.listdir(tmp_path)
    results = [n for n in names if n.startswith("price_rect_") and n.endswith(".csv")]
    assert len(results) == 1
    assert f"{results[0]}.manifest.json" in names


def test_missing_parent_directory_is_io_error(tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = main(
        ["price", *BASE_MODEL, "--payoff", "call", "--strike", "0.1",
         "--n", "4", "--M", "50", "--output", str(out)]
    )
    assert code == 4


# --- exit codes -------------------------------------------------------------


def test_usage_error_exit_code(tmp_path):
    code = main(
        ["price", "--payoff", "call", "--n", "4", "--M", "50",
         "--output", str(tmp_path / "x.csv")]
    )
    assert code == 2


def test_covariance_check_passes_at_documented_tolerance(tmp_path):
    out = tmp_path / "cov.csv"
    code = main(
        ["covariance-check", "--pairs", "25", "--seed", "7", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    devs = [float(r.split(",")[header.index("rel_deviation")]) for r in lines[1:]]
    assert max(devs) <= 1e-9


def test_covariance_check_failure_exits_numeric(tmp_path):
    out = tmp_path / "cov.csv"
    code = main(
        ["covariance-check", "--pairs", "5", "--seed", "7",
         "--tolerance", "1e-30", "--output", str(out)]
    )
    assert code == 3
    assert out.exists()  # results still written for inspection


# --- the key table: flags, config-file values, docs --------------------------

# Each subcommand's option strings, as the hand-written parsers accepted them.
COMMON_FLAGS = {"-h", "--help", "--config", "--seed", "--output", "--format"}
MODEL_FLAGS = {"--H", "--eta", "--T", "--Delta", "--x0", "--x0-csv", "--x0-interp"}
PAYOFF_FLAGS = {"--payoff", "--strike", "--kappa"}
PRESET_FLAGS = {"--preset", "--paper-scale"}
FLAGS = {
    "price": COMMON_FLAGS | MODEL_FLAGS | PAYOFF_FLAGS | PRESET_FLAGS | {
        "--scheme", "--estimator", "--n", "--M", "--cv", "--no-cv", "--epsilon",
        "--n0", "--plan-constants"},
    "strong-error": COMMON_FLAGS | MODEL_FLAGS | PRESET_FLAGS | {
        "--scheme", "--n-ref", "--n-values", "--M"},
    "weak-error": COMMON_FLAGS | MODEL_FLAGS | PAYOFF_FLAGS | PRESET_FLAGS | {
        "--scheme", "--n-values", "--M", "--reference-price", "--reference-ci"},
    "mse-cost": COMMON_FLAGS | MODEL_FLAGS | PAYOFF_FLAGS | PRESET_FLAGS | {
        "--family", "--epsilons", "--n-mse", "--reference-price", "--n0",
        "--plan-constants"},
    "covariance-check": COMMON_FLAGS | {"--pairs", "--tolerance"},
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_each_subcommand_takes_exactly_its_flags(command, capsys):
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    # Option lines open with two spaces and a dash; a line's further
    # spellings follow ", ".
    text = capsys.readouterr().out
    flags = set(re.findall(r"(?:^  |, )(--?[A-Za-z][\w-]*)", text, re.MULTILINE))
    assert flags == FLAGS[command]


PRICE_FILE = {"H": 0.3, "eta": 0.5, "T": 0.25, "Delta": 1 / 12, "x0": X0,
              "payoff": "call", "strike": 0.1, "n": 4, "M": 50}


@pytest.mark.parametrize(
    "bad", [{"M": 1e3}, {"seed": 1.5}, {"scheme": ["rect"]}, {"n0": None}]
)
def test_config_file_json_value_of_the_wrong_type_exits_2(tmp_path, capsys, bad):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**PRICE_FILE, **bad}))
    code = main(["price", "--config", str(cfg), "--output", str(tmp_path / "x.csv")])
    assert code == 2
    (key,) = bad
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)
    assert not (tmp_path / "x.csv").exists()


def test_json_and_text_config_values_are_typed_alike(tmp_path):
    text = tmp_path / "run.cfg"
    text.write_text(
        "strike = 1\nM = 1000\ncv = yes\nn_values = 8, 16\nepsilons = 0.1,0.05\n"
        "reference_price = 0.1\nx0_csv = curve.csv\n"
    )
    as_json = tmp_path / "run.json"
    as_json.write_text(json.dumps(
        {"strike": 1, "M": "1000", "cv": True, "n_values": [8, "16"],
         "epsilons": "0.1,0.05", "reference_price": 0.1, "x0_csv": "curve.csv"}
    ))
    for path in (text, as_json):
        config = parse_config(["weak-error", "--config", str(path)])
        assert (config.strike, config.M, config.cv) == (1.0, 1000, True)
        assert type(config.strike) is float and type(config.M) is int
        assert config.n_values == (8, 16) and config.epsilons == (0.1, 0.05)
        assert config.x0_csv == "curve.csv"


@pytest.mark.parametrize(
    "args",
    [
        ["price", *BASE_MODEL, "--payoff", "call", "--strike", "0.1",
         "--estimator", "mlmc", "--epsilon", "0.01", "--seed", "3"],
        ["strong-error", *BASE_MODEL, "--n-ref", "64", "--n-values", "8,16,32",
         "--M", "2000", "--seed", "7"],
    ],
)
def test_manifest_config_reruns_the_run_exactly(tmp_path, args):
    first = tmp_path / "first.csv"
    assert main([*args, "--output", str(first)]) == 0
    manifest = json.loads((tmp_path / "first.csv.manifest.json").read_text())
    again = tmp_path / "again.csv"
    cfg = tmp_path / "manifest-config.json"
    cfg.write_text(json.dumps(dict(manifest["config"], output=str(again))))
    assert main([manifest["command"], "--config", str(cfg)]) == 0
    assert again.read_bytes() == first.read_bytes()


def _doc_key_rows():
    path = os.path.join(os.path.dirname(__file__), "..", "docs", "formats.md")
    with open(path, encoding="utf-8") as fh:
        section = fh.read().split("### Configuration keys", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    # Cells split on pipes that are not escaped as \|.
    cells = [re.split(r"(?<!\\)\|", row)[1:-1] for row in rows]
    return [[cell.strip() for cell in row] for row in cells]


def test_docs_list_every_config_key_with_its_type_and_default():
    hints = typing.get_type_hints(RunConfig)
    names = {int: "int", float: "float", bool: "bool", str: "path",
             tuple[int, ...]: "int list", tuple[float, ...]: "float list"}
    keys = [field for field in dataclasses.fields(RunConfig) if field.name != "command"]
    rows = _doc_key_rows()
    assert [row[0] for row in rows] == [f"`{field.name}`" for field in keys]
    for field, (_, kind, default, meaning) in zip(keys, rows):
        if "check" in field.metadata:
            assert field.metadata["check"][1] in meaning, field.name
        choices = field.metadata.get("choices")
        hint = hints[field.name]
        if type(None) in typing.get_args(hint):
            (hint,) = set(typing.get_args(hint)) - {type(None)}
        expected = "\\|".join(f"`{c}`" for c in choices) if choices else names[hint]
        assert kind == expected, field.name
        if field.default is None:
            assert default == "—", field.name
        elif isinstance(field.default, (bool, str)):
            assert default == f"`{str(field.default).lower()}`", field.name
        else:
            assert float(default.strip("`")) == field.default, field.name
