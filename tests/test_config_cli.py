import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glekit import cli, particles, quadratic
from glekit.cli import _fmt, main
from glekit.config import parse_config
from glekit.errors import ConfigError, RootFindingFailure, ShapeMismatch
from glekit.model import DoubleWell, Kind, Quadratic

REPO = Path(__file__).resolve().parents[1]

QUAD_GMV = REPO / "configs" / "quadratic_gmv.conf"
QUAD_UMV = REPO / "configs" / "quadratic_umv.conf"
QUAD_OMV = REPO / "bench" / "quadratic_omv.conf"


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


def test_parse_quadratic_config():
    cfg = parse_config(QUAD_GMV.read_text())
    spec = cfg.model_spec()
    assert spec.kind is Kind.GENERALIZED
    assert isinstance(spec.potential, Quadratic)
    assert spec.eta2 == 1.0
    assert cfg.model().m == 1
    rp = cfg.run_params()
    assert (rp.N, rp.T, rp.dt, rp.seed, rp.record_every) == (10000, 2.0, 0.001, 42, 100)


def test_parse_double_well_with_diag_memory():
    cfg = parse_config((REPO / "configs" / "doublewell_gmv.conf").read_text())
    spec = cfg.model_spec()
    assert isinstance(spec.potential, DoubleWell)
    assert spec.memory.A[0, 0] == 1.0


def test_unknown_key_is_error():
    with pytest.raises(ConfigError):
        parse_config("[model]\nkind = overdamped\nbogus = 1\n")


def test_unknown_section_is_error():
    with pytest.raises(ConfigError):
        parse_config("[model]\nkind = overdamped\n[extra]\nx = 1\n")


def test_duplicate_key_is_error():
    with pytest.raises(ConfigError):
        parse_config("[model]\nkind = overdamped\nkind = underdamped\n")


def test_model_section_required():
    with pytest.raises(ConfigError):
        parse_config("[run]\nN = 10\n")


def test_memory_needs_A_or_diag():
    text = "[model]\nkind = generalized\n[memory]\nm = 1\nlambda = [1.0]\n"
    cfg = parse_config(text)
    with pytest.raises(ConfigError):
        cfg.model_spec()


GMV_HEAD = "[model]\nkind = generalized\n[memory]\n"

# one case per ConfigError raise of glekit.config: (config text, text of the error line)
CONFIG_ERRORS = {
    "kind-missing": ("[model]\nd = 1\n", "model.kind missing or invalid"),
    "kind-invalid": ("[model]\nkind = frictionless\n", "model.kind missing or invalid"),
    "double-well-arity": ("[model]\nkind = overdamped\npotential.kind = double_well\n"
                          "potential.params = [1.0]\n", "double_well needs potential.params"),
    "potential-kind": ("[model]\nkind = overdamped\npotential.kind = quartic\n",
                       "unknown potential.kind 'quartic'"),
    "memory-without-m": (GMV_HEAD + "lambda = [1.0]\nA = [1.0]\n", "memory section needs m"),
    "memory-without-lambda": (GMV_HEAD + "m = 1\nA = [1.0]\n", "memory section needs lambda"),
    "lambda-size": (GMV_HEAD + "m = 1\nlambda = [1.0, 2.0]\nA = [1.0]\n",
                    "lambda needs 1 entries"),
    "diag-size": (GMV_HEAD + "m = 2\nlambda = [1.0, 2.0]\ndiag = [1.0]\n", "diag needs 2 entries"),
    "A-size": (GMV_HEAD + "m = 2\nlambda = [1.0, 2.0]\nA = [1.0, 0.0]\n", "A needs 4 entries"),
    "A-and-diag": (GMV_HEAD + "m = 1\nlambda = [1.0]\nA = [1.0]\ndiag = [1.0]\n",
                   "give either A or diag, not both"),
    "bare-word-for-a-list": (GMV_HEAD + "m = 1\nlambda = one\nA = [1.0]\n",
                             "lambda must be a list of numbers, got 'one'"),
    "unparseable-value": ("[model]\nkind = overdamped\nbeta = 1.0.0\n",
                          "cannot parse value '1.0.0'"),
    "unterminated-list": (GMV_HEAD + "m = 1\nlambda = [1.0\n", "unterminated list '[1.0'"),
    "section-header": ("[model\nkind = overdamped\n", "line 1: malformed section header"),
    "line-without-equals": ("[model]\nkind overdamped\n", "line 2: expected key = value"),
    "key-before-a-section": ("kind = overdamped\n[model]\n", "line 1: key outside any section"),
}


@pytest.mark.parametrize("text, message", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS.keys())
def test_each_config_error_exits_two_with_its_message(tmp_path, capsys, text, message):
    conf = tmp_path / "model.conf"
    conf.write_text(text)
    assert main(["validate", "--config", str(conf), "--out", str(tmp_path / "out")]) == 2
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith("ConfigError: ") and message in first
    assert not (tmp_path / "out").exists()


def test_a_whole_float_count_reads_as_an_int():
    rp = parse_config("[model]\nkind = overdamped\n[run]\nN = 100.0\nseed = 7.0\n").run_params()
    assert (rp.N, rp.seed) == (100, 7) and type(rp.N) is int and type(rp.seed) is int


# ---------------------------------------------------------------------------
# CLI dispatch
# ---------------------------------------------------------------------------


def run_cli(args):
    return main([str(a) for a in args])


# command-line inputs no other test gives: (argv after the subcommand, exit code, error line)
CLI_ERRORS = {
    "greens-x0-length": (["greens", "--config", QUAD_GMV, "--x0", "1,0"], 2,
                         "ConfigError: --x0 needs 3 comma-separated values"),
    "config-missing": (["validate", "--config", "{tmp}/missing.conf"], 2,
                       "ConfigError: [Errno 2] No such file or directory"),
    "out-name-too-long": (["validate", "--config", QUAD_GMV, "--out", "{tmp}/" + "x" * 300], 2,
                          "ConfigError: --out {tmp}/" + "x" * 300 + ": File name too long"),
}


@pytest.mark.parametrize("argv, code, line", CLI_ERRORS.values(), ids=CLI_ERRORS.keys())
def test_each_command_line_error_exits_with_its_code_and_error_line(tmp_path, capsys, argv, code,
                                                                    line):
    argv = [str(a).format(tmp=tmp_path) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == code
    assert capsys.readouterr().err.splitlines()[0].startswith(line.format(tmp=tmp_path))
    assert not any(tmp_path.iterdir())  # no output directory


@pytest.fixture(scope="module")
def cli_import(tmp_path_factory):
    # one interpreter imports glekit.cli, then lists the scipy* modules, concurrent.futures
    # and logging it loaded, and counts its threads, before and after an in-process simulate
    # at N = 2e4; the tests below each read their part
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    probe = ("import sys, threading, glekit.cli; print(' '.join(k for k in sys.modules if "
             "k.split('.')[0] == 'scipy' or k in ('concurrent.futures', 'logging'))); "
             "print(threading.active_count()); "
             "assert glekit.cli.main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2], "
             "'--n', '20000', '--t-final', '0.01']) == 0; print(threading.active_count())")
    out_dir = tmp_path_factory.mktemp("cli-import") / "simulate"
    out = subprocess.run(
        [sys.executable, "-c", probe, str(QUAD_GMV), str(out_dir)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    modules, threads, threads_after_simulate = out.stdout.split("\n")[:3]
    return modules.split(), int(threads), int(threads_after_simulate)


@pytest.fixture
def cli_import_modules(cli_import):
    return cli_import[0]


def test_cli_import_leaves_scipy_optimize_out(cli_import_modules):
    # importing scipy.optimize adds about 0.2 s to the start-up of every subcommand
    assert "scipy.optimize" not in cli_import_modules


def test_cli_import_loads_no_scipy(cli_import_modules):
    # scipy is a test oracle only; importing scipy.linalg alone costs about 0.3 s of start-up
    assert [k for k in cli_import_modules if k.split(".")[0] == "scipy"] == []


def test_cli_import_loads_no_thread_pool_or_logging(cli_import_modules):
    # concurrent.futures would pull in logging and add about 8 ms to the start-up of every
    # subcommand
    assert [k for k in cli_import_modules if k in ("concurrent.futures", "logging")] == []


def test_cli_import_starts_no_thread(cli_import):
    # neither the import nor a particle run starts a thread: the steps draw their normals
    # on the stepping thread
    assert cli_import[1:] == (1, 1)


def test_validate_exits_zero_and_reports_derived_quantities(tmp_path, capsys):
    code = run_cli(["validate", "--config", QUAD_GMV, "--out", tmp_path])
    assert code == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["effective_gamma"] == pytest.approx(1.0)
    assert len(echoed["base_spectrum"]) == 6
    summary = json.loads((tmp_path / "validate_summary.json").read_text())
    assert summary["spectral_gap"] > 0


def test_validate_domain_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text(
        "[model]\nkind = generalized\nbeta = 1.0\n"
        "[memory]\nm = 1\nlambda = [1.0]\nA = [-1.0]\n"
    )
    code = run_cli(["validate", "--config", bad, "--out", tmp_path])
    assert code == 1
    assert "NonSPDMatrix" in capsys.readouterr().err


def test_validate_exits_one_when_the_spectrum_root_finding_fails(tmp_path, capsys, monkeypatch):
    # only a non-quadratic model may leave the closed-form spectrum out of the summary
    def fail(model):
        raise RootFindingFailure("polynomial residual too large")

    monkeypatch.setattr(quadratic, "base_spectrum", fail)
    code = run_cli(["validate", "--config", QUAD_GMV, "--out", tmp_path])
    assert code == 1
    assert "RootFindingFailure" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")  # no numpy warning may precede the error
@pytest.mark.parametrize("cmd", ["validate", "spectrum"])
@pytest.mark.parametrize(
    "memory", [{"lambda": "[1e200]"}, {"lambda": "[1e160]"}, {"lambda": "[1e150]", "A": "[1e300]"}],
    ids=["lambda-1e200", "lambda-1e160", "lambda-1e150-A-1e300"],
)
def test_a_characteristic_polynomial_beyond_the_float_range_is_a_root_finding_failure(
        tmp_path, capsys, cmd, memory):
    # lambda^2 of a Python float ended in an untyped OverflowError; with A = 1e300 the
    # coefficients are finite but the residual overflowed in a leaked numpy warning
    out = tmp_path / "out"
    assert run_cli([cmd, "--config", _config_with(tmp_path, memory), "--out", out]) == 1
    assert _one_error_line(capsys, out).startswith("RootFindingFailure: ")


FRICTION_OVERFLOW = "ShapeMismatch: effective friction lam^T A^-1 lam is not finite"
DOUBLE_WELL = {"potential.kind": "double_well", "potential.params": "[1.0, 1.0]"}
WHITENOISE_FLAGS = ["--n", "4", "--t-final", "0.01", "--checkpoints", "0.01", "--base-dt", "0.005"]
# (potential, subcommand, flags, error line) with lambda = 1e200
FRICTION_OVERFLOWS = {
    "double-well-validate": (DOUBLE_WELL, "validate", [], FRICTION_OVERFLOW),
    "double-well-whitenoise": (DOUBLE_WELL, "whitenoise", WHITENOISE_FLAGS, FRICTION_OVERFLOW),
    # validate runs the closed-form spectrum, which fails first, before the friction
    "quadratic-validate": ({}, "validate", [], "RootFindingFailure: "),
    "quadratic-whitenoise": ({}, "whitenoise", WHITENOISE_FLAGS, FRICTION_OVERFLOW),
}


@pytest.mark.filterwarnings("error")  # no numpy warning may precede the error
@pytest.mark.parametrize("potential, cmd, flags, line", FRICTION_OVERFLOWS.values(),
                         ids=FRICTION_OVERFLOWS.keys())
def test_an_effective_friction_beyond_the_float_range_is_one_typed_error(
        tmp_path, capsys, potential, cmd, flags, line):
    # validate printed "effective_gamma": Infinity for the double well and exited 0;
    # whitenoise leaked a RuntimeWarning from the underdamped reference
    out = tmp_path / "out"
    cfg = _config_with(tmp_path, {**potential, "lambda": "[1e200]"})
    assert run_cli([cmd, "--config", cfg, "--out", out, *flags]) == 1
    assert _one_error_line(capsys, out).startswith(line)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("potential", [DOUBLE_WELL, {}], ids=["double-well", "quadratic"])
def test_a_run_that_needs_no_effective_friction_is_not_stopped_by_an_overflowing_one(
        tmp_path, capsys, potential):
    # the model with lambda = 1e200 is valid: stationary runs, and simulate stops at
    # its own step map
    cfg = _config_with(tmp_path, {**potential, "lambda": "[1e200]"})
    assert run_cli(["stationary", "--config", cfg, "--out", tmp_path / "stationary"]) == 0
    out = tmp_path / "simulate"
    assert run_cli(["simulate", "--config", cfg, "--out", out]) == 1
    assert _one_error_line(capsys, out).startswith("MatrixOverflow: ")


def test_out_naming_an_existing_file_is_a_usage_error(tmp_path, capsys):
    # checked before the run: validate used to print its summary first
    taken = tmp_path / "taken"
    taken.write_text("")
    code = run_cli(["validate", "--config", QUAD_GMV, "--out", taken])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.count("\n") == 1 and str(taken) in err and "Traceback" not in err
    assert out == ""


def test_out_below_an_existing_file_is_a_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = run_cli(["validate", "--config", QUAD_GMV, "--out", taken / "sub"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.count("\n") == 1 and str(taken / "sub") in err and "Traceback" not in err
    assert out == ""


def test_out_naming_an_existing_file_stops_simulate_before_its_run(tmp_path, capsys, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("")
    ran = []
    monkeypatch.setattr(cli, "cmd_simulate", lambda *args: ran.append(args))
    code = run_cli(["simulate", "--config", QUAD_GMV, "--out", taken, "--n", "16"])
    assert code == 2
    assert "not a directory" in capsys.readouterr().err
    assert ran == []
    assert taken.read_text() == ""


# short runs of the commands that read [run] seed (thermo has no --n)
SEEDED_RUNS = {
    "simulate": ["--n", "100", "--t-final", "0.01"],
    "whitenoise": ["--n", "100", "--t-final", "0.01"],
    "thermo": ["--t-final", "0.01"],
}


@pytest.mark.parametrize("cmd", sorted(SEEDED_RUNS))
def test_a_negative_seed_flag_is_a_usage_error(tmp_path, capsys, cmd):
    # numpy seeds only from non-negative integers: simulate and whitenoise ended in a
    # ValueError traceback, and thermo, which draws nothing, exited 0
    out = tmp_path / "out"
    code = run_cli([cmd, "--config", QUAD_GMV, "--out", out, "--seed", "-5", *SEEDED_RUNS[cmd]])
    err = capsys.readouterr().err
    assert code == 2
    assert "seed" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("cmd", sorted(SEEDED_RUNS))
def test_a_negative_seed_in_the_config_is_a_usage_error(tmp_path, capsys, cmd):
    cfg = tmp_path / "neg_seed.conf"
    cfg.write_text(QUAD_GMV.read_text().replace("seed = ", "seed = -5\n# was ", 1))
    assert "seed = -5" in cfg.read_text()
    out = tmp_path / "out"
    code = run_cli([cmd, "--config", cfg, "--out", out, *SEEDED_RUNS[cmd]])
    err = capsys.readouterr().err
    assert code == 2
    assert "seed" in err and "Traceback" not in err
    assert not out.exists()


def test_a_failed_run_leaves_no_out_directory(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text(
        "[model]\nkind = generalized\nbeta = 1.0\n"
        "[memory]\nm = 1\nlambda = [1.0]\nA = [-1.0]\n"
    )
    code = run_cli(["validate", "--config", bad, "--out", tmp_path / "newdir" / "sub"])
    assert code == 1
    assert "NonSPDMatrix" in capsys.readouterr().err
    assert not (tmp_path / "newdir").exists()


@pytest.mark.parametrize("threads", [0, -4])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, threads):
    out = tmp_path / "t"
    with pytest.raises(SystemExit) as exc:
        run_cli(["spectrum", "--config", QUAD_GMV, "--out", out, "--threads", threads, "--cap", 1])
    assert exc.value.code == 2
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_config_grammar_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("[model]\nkind = overdamped\nwhat = 1\n")
    code = run_cli(["validate", "--config", bad, "--out", tmp_path])
    assert code == 2
    assert "ConfigError" in capsys.readouterr().err


MISFIT_KEYS = {
    # read by nothing: the generalized kind has no gamma of its own
    "gamma-generalized": (QUAD_GMV, "[model]\n", "[model]\ngamma = 7.0\n", "gamma"),
    # the underdamped kind runs with its own gamma, not lambda^2/alpha = 12.5
    "memory-underdamped": (QUAD_UMV, "[run]",
                           "[memory]\nm = 1\nlambda = [5.0]\ndiag = [2.0]\n[run]", "memory"),
    # a quadratic potential reads exactly one number, omega2
    "quadratic-no-params": (QUAD_GMV, "params = [1.0]", "params = []", "omega2"),
    "quadratic-two-params": (QUAD_GMV, "params = [1.0]", "params = [2.0, 3.0]", "omega2"),
}


@pytest.mark.parametrize("conf, old, new, named", MISFIT_KEYS.values(), ids=MISFIT_KEYS.keys())
def test_a_key_that_does_not_fit_the_kind_is_a_config_error(tmp_path, capsys, conf, old, new,
                                                             named):
    bad = tmp_path / "bad.conf"
    bad.write_text(conf.read_text().replace(old, new, 1))
    assert new in bad.read_text()
    out = tmp_path / "out"
    code = run_cli(["validate", "--config", bad, "--out", out])
    err = capsys.readouterr().err
    assert code == 2
    assert "ConfigError" in err and named in err
    assert not out.exists()


def test_unknown_subcommand_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate", "--config", QUAD_GMV])
    assert exc.value.code == 2


COMMANDS = ("validate", "simulate", "spectrum", "greens", "stationary", "bifurcation", "thermo",
            "whitenoise")
USAGE_RUNS = [["-h"], *([cmd, "-h"] for cmd in COMMANDS), ["frobnicate", "--config", "x"],
              ["--version"], [], ["bifurcation", "--config", "x"],
              ["bifurcation", "--config", "x", "extra"], ["thermo", "--config", "x", "--bogus"]]


def _exit_and_text(capsys, run):
    with pytest.raises(SystemExit) as exc:
        run()
    return exc.value.code, capsys.readouterr()


@pytest.mark.parametrize("argv", USAGE_RUNS, ids=" ".join)
def test_usage_text_equals_that_of_the_parser_with_every_option(capsys, monkeypatch, argv):
    # main builds the parser of the subcommand it runs alone; help, version and usage
    # errors print what the parser with every subcommand prints
    monkeypatch.setenv("COLUMNS", "80")
    full = _exit_and_text(capsys, lambda: cli.build_parser().parse_args(argv))
    assert _exit_and_text(capsys, lambda: main(argv)) == full


def test_threads_error_text_equals_that_of_the_parser_with_every_option(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    message = "--threads must be at least 1, got 0"
    full = _exit_and_text(capsys, lambda: cli.build_parser().error(message))
    argv = ["validate", "--config", str(QUAD_GMV), "--threads", "0"]
    assert _exit_and_text(capsys, lambda: main(argv)) == full


def test_parser_builds_only_the_subcommands_named():
    parser = cli.build_parser(["simulate"])
    assert parser.parse_args(["simulate", "--config", "x", "--n", "3"]).n == 3
    with pytest.raises(SystemExit):
        parser.parse_args(["validate", "--config", "x"])


def test_spectrum_outputs(tmp_path):
    code = run_cli(["spectrum", "--config", QUAD_GMV, "--out", tmp_path, "--cap", "2"])
    assert code == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "re,im,k_multiindex"
    assert len(lines) > 5
    summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
    assert summary["spectral_gap"] > 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert any(o["path"] == "spectrum.csv" for o in manifest["outputs"])


# per kind, the [model] lines beyond the common ones, and the parameters the spectrum
# summary carries beyond beta, d, kind, omega2 and eta2
SPECTRUM_PARAMETERS = {
    "overdamped": ("", {}),
    "underdamped": ("gamma = 1.5\n", {"gamma": 1.5}),
    "generalized": ("[memory]\nm = 2\nlambda = [1.0, 0.5]\ndiag = [1.0, 3.0]\n",
                    {"lambdas": [1.0, 0.5], "alphas": [1.0, 3.0]}),
}


@pytest.mark.parametrize("kind, lines, extra",
                         [(k, *v) for k, v in SPECTRUM_PARAMETERS.items()], ids=SPECTRUM_PARAMETERS)
def test_spectrum_summary_carries_the_kind_cap_and_parameters_of_its_model(tmp_path, kind, lines,
                                                                           extra):
    cfg = tmp_path / "model.conf"
    cfg.write_text(f"[model]\nkind = {kind}\nd = 1\nbeta = 2.0\npotential.kind = quadratic\n"
                   f"potential.params = [1.3]\ninteraction.eta2 = 0.7\n{lines}")
    assert run_cli(["spectrum", "--config", cfg, "--out", tmp_path / "out", "--cap", "2"]) == 0
    summary = json.loads((tmp_path / "out" / "spectrum_summary.json").read_text())
    assert (summary["kind"], summary["cap"]) == (kind, 2)
    common = {"beta": 2.0, "d": 1, "kind": kind, "omega2": 1.3, "eta2": 0.7}
    assert summary["parameters"] == {**common, **extra}


def test_greens_outputs(tmp_path):
    code = run_cli(["greens", "--config", QUAD_GMV, "--out", tmp_path, "--times", "0.5,1"])
    assert code == 0
    lines = (tmp_path / "greens.csv").read_text().splitlines()
    assert lines[0].startswith("t,mean_0,mean_1,mean_2,cov_0_0")
    assert len(lines) == 3


def test_simulate_csv_contract(tmp_path):
    code = run_cli(
        ["simulate", "--config", QUAD_GMV, "--out", tmp_path, "--n", "64", "--t-final", "0.05",
         "--dt", "0.005", "--record-every", "5"]
    )
    assert code == 0
    lines = (tmp_path / "simulate.csv").read_text().splitlines()
    assert lines[0].startswith(
        "t,mean_q,mean_p,var_q,var_p,cov_qp,magnetization,se_mean_q,se_mean_p"
    )
    assert len(lines) == 4  # header + t=0, t=0.025, t=0.05


@pytest.mark.parametrize("record_every", ["0", "-5"])
def test_simulate_rejects_a_nonpositive_record_interval(tmp_path, capsys, record_every):
    code = run_cli(
        ["simulate", "--config", QUAD_GMV, "--out", tmp_path, "--n", "8", "--t-final", "0.05",
         "--dt", "0.005", "--record-every", record_every]
    )
    assert code == 1
    assert "ShapeMismatch" in capsys.readouterr().err
    assert not (tmp_path / "simulate.csv").exists()


def test_simulate_rejects_a_horizon_off_the_step_grid(tmp_path, capsys):
    # 0.25 / 0.1 steps: the rows would stop at t = 0.2 under a summary saying T = 0.25
    out = tmp_path / "out"
    code = run_cli(["simulate", "--config", QUAD_GMV, "--out", out, "--n", "8",
                    "--t-final", "0.25", "--dt", "0.1"])
    assert code == 1
    assert "ShapeMismatch" in capsys.readouterr().err
    assert not out.exists()


def test_stationary_and_bifurcation_outputs(tmp_path):
    code = run_cli(["stationary", "--config", REPO / "configs" / "doublewell_gmv.conf",
                    "--out", tmp_path])
    assert code == 0
    lines = (tmp_path / "stationary.csv").read_text().splitlines()
    assert lines[0] == "m_star,stability,residual"
    assert len(lines) == 4  # three branches at beta = 3

    code = run_cli(
        ["bifurcation", "--config", REPO / "configs" / "doublewell_gmv.conf", "--out", tmp_path,
         "--beta-min", "1.5", "--beta-max", "3.0", "--beta-steps", "4"]
    )
    assert code == 0
    lines = (tmp_path / "bifurcation.csv").read_text().splitlines()
    assert lines[0] == "beta,m_star,stable,residual"
    summary = json.loads((tmp_path / "bifurcation_summary.json").read_text())
    assert summary["beta_critical"] == pytest.approx(2.1884396, abs=1e-4)


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning must not precede the error
@pytest.mark.parametrize(
    "beta_min, beta_max, beta_steps, flag",
    [("0", "1", "3", "--beta-min"), ("-1", "1", "3", "--beta-min"), ("1", "nan", "3", "--beta-max"),
     ("1", "inf", "3", "--beta-max"), ("1", "2", "-1", "--beta-steps"),
     ("1", "2", "0", "--beta-steps")],
    ids=["0-1", "-1-1", "1-nan", "1-inf", "1-2-steps-1", "1-2-steps0"],
)
def test_bifurcation_rejects_a_beta_grid_off_the_positive_reals(
    tmp_path, capsys, beta_min, beta_max, beta_steps, flag
):
    code = run_cli(
        ["bifurcation", "--config", REPO / "configs" / "doublewell_gmv.conf", "--out", tmp_path,
         "--beta-min", beta_min, "--beta-max", beta_max, "--beta-steps", beta_steps]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "ShapeMismatch" in err and flag in err
    assert not (tmp_path / "bifurcation.csv").exists()


def test_thermo_outputs(tmp_path):
    code = run_cli(
        ["thermo", "--config", QUAD_GMV, "--out", tmp_path, "--t-final", "0.5", "--dt", "0.002"]
    )
    assert code == 0
    lines = (tmp_path / "thermo.csv").read_text().splitlines()
    assert lines[0] == "t,E,S,F,dissipation"
    summary = json.loads((tmp_path / "thermo_summary.json").read_text())
    assert summary["energy_drift"] <= 1e-6
    assert summary["entropy_monotone"] and summary["free_energy_monotone"]


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning must not precede the error
@pytest.mark.parametrize("times", ["inf", "0.5,nan"])
def test_greens_rejects_a_time_that_is_not_finite(tmp_path, capsys, times):
    code = run_cli(["greens", "--config", QUAD_GMV, "--out", tmp_path, "--times", times])
    assert code == 1
    err = capsys.readouterr().err
    assert "ShapeMismatch: t must be finite and nonnegative" in err
    assert "RuntimeWarning" not in err
    assert not (tmp_path / "greens.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x0", ["nan,0,0", "inf,0,0", "0,-inf,0"])
def test_greens_rejects_a_start_point_that_is_not_finite(tmp_path, capsys, x0):
    # not a table of nan or inf means with exit 0
    code = run_cli(["greens", "--config", QUAD_GMV, "--out", tmp_path, "--x0", x0])
    assert code == 1
    assert "ShapeMismatch: mean has non-finite entries" in capsys.readouterr().err
    assert not (tmp_path / "greens.csv").exists()


def test_whitenoise_outputs(tmp_path):
    code = run_cli(
        ["whitenoise", "--config", QUAD_GMV, "--out", tmp_path, "--n", "200",
         "--t-final", "0.5", "--epsilons", "0.5,0.25", "--checkpoints", "0.25,0.5",
         "--base-dt", "0.002"]
    )
    assert code == 0
    lines = (tmp_path / "whitenoise.csv").read_text().splitlines()
    assert lines[0] == "epsilon,error,se,steps,wallclock_s"
    assert len(lines) == 3
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    entry = next(o for o in manifest["outputs"] if o["path"] == "whitenoise.csv")
    assert "canonical_sha256" in entry


def test_json_format_table(tmp_path):
    code = run_cli(["spectrum", "--config", QUAD_GMV, "--out", tmp_path, "--format", "json"])
    assert code == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert isinstance(payload, list) and {"re", "im", "k_multiindex"} <= set(payload[0])


def test_seed_flag_overrides_run_seed(tmp_path):
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    args = ["simulate", "--config", QUAD_GMV, "--n", "64", "--t-final", "0.05", "--dt", "0.005"]
    assert run_cli(args + ["--out", out_a, "--seed", "1"]) == 0
    assert run_cli(args + ["--out", out_b, "--seed", "2"]) == 0
    assert run_cli(args + ["--out", out_c, "--seed", "1"]) == 0
    a = (out_a / "simulate.csv").read_bytes()
    b = (out_b / "simulate.csv").read_bytes()
    c = (out_c / "simulate.csv").read_bytes()
    assert a != b
    assert a == c


DOUBLEWELL_GMV = REPO / "configs" / "doublewell_gmv.conf"


@pytest.mark.parametrize(
    "cmd, flag, value",
    [
        ("greens", "--times", ","),
        ("greens", "--times", "0.5,abc"),
        ("greens", "--x0", "1,x,0"),
        ("whitenoise", "--epsilons", "0.5,abc"),
        ("whitenoise", "--checkpoints", ","),
    ],
)
def test_malformed_list_flag_is_config_error(tmp_path, capsys, cmd, flag, value):
    code = run_cli([cmd, "--config", QUAD_GMV, "--out", tmp_path, flag, value])
    assert code == 2
    assert "ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cmd, flag, value",
    [
        ("greens", "--x0", "-1,0,0"),
        ("greens", "--times", "-0.5,1"),
        ("whitenoise", "--epsilons", "-0.5,0.25"),
        ("whitenoise", "--epsilon", "-0.5,0.25"),
        ("whitenoise", "--checkpoints", "-0.5,1"),
    ],
)
def test_a_list_flag_led_by_a_negative_value_reads_like_its_equals_form(
    tmp_path, capsys, cmd, flag, value
):
    results = []
    for form, argv in (("split", [flag, value]), ("equals", [f"{flag}={value}"])):
        code = run_cli([cmd, "--config", QUAD_GMV, "--out", tmp_path / form] + argv)
        table = tmp_path / form / f"{cmd}.csv"
        results.append((code, capsys.readouterr().err, table.exists() and table.read_bytes()))
    assert results[0] == results[1]
    if flag == "--x0":
        assert results[0][0] == 0
        assert (tmp_path / "split" / "greens.csv").read_text().splitlines()[1].startswith("0.5,-")


@pytest.mark.parametrize("flag", ["--x0", "--times"])
def test_a_list_flag_followed_by_another_flag_still_misses_its_value(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli(["greens", "--config", QUAD_GMV, "--out", tmp_path, flag, "--seed", "3"])
    assert exc.value.code == 2


# cells of a table: plain floats (with the special values), numpy floats, ints, bools, text
_SPECIAL = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
_FLOATS = st.one_of(st.floats(), _SPECIAL)
_CELLS = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.integers(-(10**20), 10**20),
    st.integers(-5, 5).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(max_size=4),
)


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(0, 6))
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):  # a float column, perhaps with one other cell in it
            col = draw(st.lists(_FLOATS, min_size=n_rows, max_size=n_rows))
            if n_rows and draw(st.booleans()):
                col[draw(st.integers(0, n_rows - 1))] = draw(_CELLS)
        else:
            col = draw(st.lists(_CELLS, min_size=n_rows, max_size=n_rows))
        cols.append(col)
    header = [f"c{i}" for i in range(len(cols))]
    return header, [list(row) for row in zip(*cols)]


def _csv_of_each_value(header, rows) -> bytes:
    """A CSV table rendered one value at a time by ``_fmt``: the reference."""
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


@settings(max_examples=200, deadline=None)
@given(_tables())
def test_csv_render_equals_formatting_each_value(table):
    header, rows = table
    assert b"".join(cli._table_blocks(header, rows, "csv")) == _csv_of_each_value(header, rows)


_B = cli._ROW_BLOCK


def _body(kind: str, n_rows: int):
    """A 5-column table body of ``n_rows``: a float array, or rows of mixed cells."""
    rng = np.random.default_rng(n_rows)
    values = rng.standard_normal((n_rows, 5)) * 10.0 ** rng.integers(-300, 300, (n_rows, 5))
    specials = [np.nan, np.inf, -np.inf, -0.0, 1e16][:n_rows]
    values[: len(specials), 0] = specials
    if kind == "array":
        return values
    rows = [
        [float(a), np.float64(b), i**5 - 10**20 if i % 2 else np.int64(i), bool(i % 3), f"k{i};"]
        for i, (a, b) in enumerate(values[:, :2])
    ]
    for row in rows[1::5]:
        row[3] = np.bool_(row[3])
    if n_rows > _B:  # a plain-float column with one numpy float, in the second block only
        rows[_B][0] = np.float64(rows[_B][0])
    return rows


@pytest.mark.parametrize("n_rows", [0, 1, _B - 1, _B, _B + 1, 2 * _B + 1])
@pytest.mark.parametrize("kind", ["array", "mixed"])
def test_streamed_csv_file_equals_formatting_each_value(tmp_path, kind, n_rows):
    header = [f"c{i}" for i in range(5)]
    rows = _body(kind, n_rows)
    out = cli.write_table(tmp_path, "table", header, rows, "csv")
    data = out.path.read_bytes()
    assert data == _csv_of_each_value(header, rows)
    assert out.sha256 == hashlib.sha256(data).hexdigest()
    assert out.sha256 == cli._sha256(cli._table_blocks(header, rows, "csv"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "rows",
    [[[0.5, 1.5], [1.0]], [[0.5, 1.5], [1.0, 2.0, 3.0]], np.ones((4, 3))],
    ids=["short", "long", "array"],
)
def test_a_ragged_table_row_is_an_error(tmp_path, fmt, rows):
    with pytest.raises(ValueError, match="values for 2 columns"):
        cli.write_table(tmp_path, "table", ["a", "b"], rows, fmt)
    assert list(tmp_path.iterdir()) == []


def test_writing_a_long_table_holds_one_block_at_a_time():
    # one block of rows at a time traces about 0.3 MB; the whole table at once, about 29 MB
    rows = np.random.default_rng(0).standard_normal((50_000, 5))
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        try:
            cli.write_table(Path(tmp), "table", list("abcde"), rows, "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("checkpoints", ["5", "0", "-0.5", "0.0001", "inf", "nan"])
def test_whitenoise_rejects_unrecorded_checkpoints(tmp_path, capsys, checkpoints):
    # T = 0.01: a checkpoint beyond T, at or before 0, below half a step or not finite is
    # never recorded
    code = run_cli(
        ["whitenoise", "--config", QUAD_GMV, "--out", tmp_path, "--n", "50",
         "--t-final", "0.01", "--checkpoints", checkpoints]
    )
    assert code == 1
    assert "ShapeMismatch" in capsys.readouterr().err
    assert not (tmp_path / "whitenoise.csv").exists()


@pytest.mark.parametrize(
    "config, error",
    [(QUAD_UMV, "ShapeMismatch"), (QUAD_OMV, "ShapeMismatch"),
     (DOUBLEWELL_GMV, "UnsupportedPotential")],
)
def test_thermo_rejects_models_without_gaussian_flow(tmp_path, capsys, config, error):
    code = run_cli(["thermo", "--config", config, "--out", tmp_path, "--t-final", "0.01"])
    assert code == 1
    assert error in capsys.readouterr().err


def test_whitenoise_rejects_a_checkpoint_between_steps(tmp_path, capsys):
    # the state at step round(0.25/0.2) = 1 is t = 0.2, not the law's t = 0.25
    code = run_cli(
        ["whitenoise", "--config", QUAD_GMV, "--out", tmp_path, "--n", "2000",
         "--t-final", "1", "--base-dt", "0.2", "--checkpoints", "0.25,1", "--epsilons", "0.5,0.25"]
    )
    assert code == 1
    assert "ShapeMismatch" in capsys.readouterr().err
    assert not (tmp_path / "whitenoise.csv").exists()


def test_whitenoise_rejects_a_single_particle(tmp_path, capsys):
    # one particle has no standard error: no table of NaNs
    code = run_cli(
        ["whitenoise", "--config", QUAD_GMV, "--out", tmp_path, "--n", "1",
         "--t-final", "0.01", "--checkpoints", "0.01"]
    )
    assert code == 1
    assert "InsufficientParticles" in capsys.readouterr().err
    assert not (tmp_path / "whitenoise.csv").exists()


@pytest.mark.parametrize("base_dt", ["0", "-0.001"])
def test_whitenoise_rejects_a_nonpositive_step(tmp_path, capsys, base_dt):
    code = run_cli(
        ["whitenoise", "--config", QUAD_GMV, "--out", tmp_path, "--n", "10",
         "--t-final", "0.01", "--checkpoints", "0.01", "--base-dt", base_dt]
    )
    assert code == 1
    assert "ShapeMismatch" in capsys.readouterr().err


def test_whitenoise_without_a_closed_form_reference_fails_before_its_first_step(
        tmp_path, capsys, monkeypatch):
    # the double well has no closed-form underdamped law; the study used to step its
    # whole first eps before the reference law raised
    steps = []
    step = particles._Stepper.step
    monkeypatch.setattr(particles._Stepper, "step",
                        lambda self, ens: steps.append(1) or step(self, ens))
    out = tmp_path / "out"
    assert run_cli(["whitenoise", "--config", DOUBLEWELL_GMV, "--out", out, "--n", "20",
                    "--t-final", "0.02", "--checkpoints", "0.01,0.02", "--base-dt", "0.01"]) == 1
    assert _one_error_line(capsys, out).startswith("UnsupportedPotential: ")
    assert steps == []


@pytest.mark.filterwarnings("error")  # no numpy warning may precede the error
@pytest.mark.parametrize("epsilons", ["1e300,1e299", "1e-300,1e-301", "0.5,1e-300"],
                         ids=["eps^2 overflows", "A/eps^2 overflows", "after a good eps"])
def test_an_epsilon_that_scales_the_memory_out_of_the_float_range_is_one_shape_mismatch(
        tmp_path, capsys, monkeypatch, epsilons):
    # eps**2 of 1e300 was an untyped OverflowError, and A/eps^2 at 1e-300 leaked a
    # RuntimeWarning after a whole good eps was stepped; every eps is scaled first
    steps = []
    step = particles._Stepper.step
    monkeypatch.setattr(particles._Stepper, "step",
                        lambda self, ens, force=None: steps.append(1) or step(self, ens, force))
    out = tmp_path / "out"
    assert run_cli(["whitenoise", "--config", QUAD_GMV, "--out", out,
                    "--epsilons", epsilons, *WHITENOISE_FLAGS]) == 1
    assert _one_error_line(capsys, out).startswith("ShapeMismatch: epsilon ")
    assert steps == []


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 72.8 TiB for an array with shape (3, 10000000000000) "
                 "and data type float64"), "RunTooLarge: Unable to allocate 72.8 TiB"),
    (MemoryError(), "RunTooLarge: out of memory"),
], ids=["numpy", "bare"])
def test_a_memory_error_in_a_run_is_one_typed_line(tmp_path, capsys, monkeypatch, exc, line):
    # was an untyped _ArrayMemoryError traceback; the callee raises instead of allocating
    def simulate(*args):
        raise exc

    monkeypatch.setattr(particles, "simulate", simulate)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", QUAD_GMV, "--out", out, "--n", "4",
                    "--t-final", "0.01", "--dt", "0.005"]) == 1
    assert _one_error_line(capsys, out).startswith(line)


def test_thermo_rejects_a_horizon_off_the_step_grid(tmp_path, capsys):
    # 1 / 0.3 steps: the rows would stop at t = 0.9 under a summary saying T = 1
    code = run_cli(
        ["thermo", "--config", QUAD_GMV, "--out", tmp_path, "--dt", "0.3", "--t-final", "1"]
    )
    assert code == 1
    assert "ShapeMismatch" in capsys.readouterr().err
    assert not (tmp_path / "thermo.csv").exists()


def test_spectrum_rejects_a_negative_cap(tmp_path, capsys):
    code = run_cli(["spectrum", "--config", QUAD_GMV, "--out", tmp_path, "--cap", "-1"])
    assert code == 1
    assert "ShapeMismatch" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()


def test_spectrum_refuses_a_lattice_beyond_the_ceiling_before_enumerating_it(tmp_path, capsys):
    # cap 100 over the six drift eigenvalues of one memory mode is C(106, 6) = 1.7e9
    # multi-indices, which were enumerated as Python tuples
    out = tmp_path / "out"
    t0 = time.perf_counter()
    assert run_cli(["spectrum", "--config", QUAD_GMV, "--out", out, "--cap", "100"]) == 1
    assert time.perf_counter() - t0 < 0.5
    assert _one_error_line(capsys, out).startswith("ShapeMismatch: lattice cap 100 over 6 ")


def test_the_spectral_gap_does_not_depend_on_the_cap(tmp_path):
    # the cap-0 lattice holds only 0, and the gap read from it was 0.0
    gaps = []
    for cap in ("0", "3"):
        out = tmp_path / cap
        assert run_cli(["spectrum", "--config", QUAD_GMV, "--out", out, "--cap", cap]) == 0
        gaps.append(json.loads((out / "spectrum_summary.json").read_text())["spectral_gap"])
    assert gaps[0] == gaps[1] > 0


@pytest.mark.parametrize("factor", ["nan", "inf", "0", "-1"])
def test_thermo_rejects_a_z_variance_factor_off_the_positive_reals(tmp_path, capsys, factor):
    code = run_cli(["thermo", "--config", QUAD_GMV, "--out", tmp_path, "--t-final", "0.01",
                    "--dt", "0.005", "--z-var-factor", factor])
    assert code == 1
    err = capsys.readouterr().err
    assert "ShapeMismatch" in err and "--z-var-factor" in err
    assert not (tmp_path / "thermo.csv").exists()


@pytest.mark.parametrize("cmd", ["validate", "stationary", "spectrum"])
def test_nonfinite_coupling_is_rejected_by_name(tmp_path, capsys, cmd):
    cfg = _config_with(tmp_path, {"interaction.eta2": "nan"})
    code = run_cli([cmd, "--config", cfg, "--out", tmp_path])
    assert code == 1
    assert "ShapeMismatch: eta2 must be finite" in capsys.readouterr().err


def test_spectrum_of_a_two_dimensional_diag_memory(tmp_path):
    from glekit import matrixkit as mk
    from glekit.config import load_config
    from glekit.quadratic import split_BK

    cfg = tmp_path / "d2.conf"
    cfg.write_text(SMALL_GMV.replace("d = 1", "d = 2")
                   .replace("lambda = [1.0]", "lambda = [1.0, 0.0, 0.0, 1.0]")
                   .replace("A = [1.0]", "diag = [1.0, 1.0]"))
    assert run_cli(["spectrum", "--config", cfg, "--out", tmp_path / "out", "--cap", "1"]) == 0
    summary = json.loads((tmp_path / "out" / "spectrum_summary.json").read_text())
    base = [complex(re, im) for re, im in summary["base_eigenvalues"]]
    B, K, _ = split_BK(load_config(cfg).model())
    # each root once per spatial coordinate: the mean branch of B, the fluctuation branch of B+K
    drift = list(np.concatenate([mk.eig(B), mk.eig(B + K)]))
    for nu in base * 2:
        i = int(np.argmin([abs(nu - e) for e in drift]))
        assert abs(nu - drift.pop(i)) <= 1e-10
    assert not drift


@pytest.mark.parametrize("cmd", ["simulate", "whitenoise", "thermo"])
def test_infinite_horizon_is_a_typed_error(tmp_path, capsys, cmd):
    code = run_cli(
        [cmd, "--config", QUAD_GMV, "--out", tmp_path, "--t-final", "inf"]
        + {"simulate": ["--n", "8"], "whitenoise": ["--n", "8", "--checkpoints", "0.01"],
           "thermo": []}[cmd]
    )
    assert code == 1
    assert "ShapeMismatch" in capsys.readouterr().err
    assert not (tmp_path / f"{cmd}.csv").exists()


# ---------------------------------------------------------------------------
# the time grid: every horizon is a whole number k >= 1 of steps dt > 0
# ---------------------------------------------------------------------------

GRID_ERROR = "ShapeMismatch: t={} is not a positive whole number of steps dt={}"


def _one_error_line(capsys, out) -> str:
    """The one line on stderr of a run that left no output directory."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert not out.exists()
    return lines[0]


@pytest.mark.parametrize("config, T", [(QUAD_UMV, 2.0), (QUAD_OMV, 1.0)],
                         ids=["underdamped", "overdamped"])
def test_simulate_with_an_infinite_step_is_a_shape_mismatch(tmp_path, capsys, config, T):
    # it took 0 steps: one record at t = 0 under a summary saying T = 2 (or 1)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", config, "--out", out, "--n", "8", "--dt", "inf"]) == 1
    assert _one_error_line(capsys, out) == GRID_ERROR.format(T, "inf")


@pytest.mark.parametrize("config", [QUAD_GMV, QUAD_UMV, QUAD_OMV, DOUBLEWELL_GMV],
                         ids=["generalized", "underdamped", "overdamped", "double-well"])
def test_simulate_with_a_horizon_below_half_a_step_is_a_shape_mismatch(tmp_path, capsys, config):
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", config, "--out", out, "--n", "8",
                    "--t-final", "1e-12"]) == 1
    assert _one_error_line(capsys, out) == GRID_ERROR.format(1e-12, 0.001)


@pytest.mark.parametrize("flag, value, T, dt", [("--base-dt", "inf", 2.0, "inf"),
                                                ("--t-final", "1e-12", 1e-12, 0.001)])
def test_whitenoise_names_the_horizon_and_step_it_cannot_run(tmp_path, capsys, flag, value, T,
                                                             dt):
    # the error said the checkpoints "do not fall on distinct steps"
    out = tmp_path / "out"
    assert run_cli(["whitenoise", "--config", QUAD_GMV, "--out", out, "--n", "8",
                    flag, value]) == 1
    assert _one_error_line(capsys, out) == GRID_ERROR.format(T, dt)


_BAD_STEPS = st.sampled_from([0.0, -1e-3, math.nan, math.inf, -math.inf])
_BAD_HORIZONS = st.sampled_from([0.0, -1.0, math.nan, math.inf, 1e-12])


@st.composite
def _grids(draw):
    """(dt, T): dt bad or in [1e-3, 0.5]; T bad or near k steps, 0 <= k <= 200.

    Each is bad one time in four.  Near k steps means k h (1 + delta), with
    delta in {0, +-1e-12, +-1e-6, +-0.3/k} and h = dt where dt is a step, else
    drawn from [1e-3, 0.5], so that a bad dt meets a finite T.
    """
    dt = draw(_BAD_STEPS if draw(st.integers(0, 3)) == 0 else st.floats(1e-3, 0.5))
    if draw(st.integers(0, 3)) == 0:
        return dt, draw(_BAD_HORIZONS)
    h = dt if 0 < dt < math.inf else draw(st.floats(1e-3, 0.5))
    k = draw(st.integers(0, 200))
    off = 0.3 / max(k, 1)
    delta = draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-6, -1e-6, off, -off]))
    return dt, k * h * (1.0 + delta)


def _last_time(cmd, out: Path, dt: float) -> float:
    if cmd == "simulate":
        return json.loads((out / "simulate_summary.json").read_text())["final_time"]
    if cmd == "thermo":
        return float((out / "thermo.csv").read_text().splitlines()[-1].split(",")[0])
    rows = json.loads((out / "whitenoise_summary.json").read_text())["rows"]
    assert len({r["steps"] for r in rows}) == 1
    return rows[0]["steps"] * dt


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cmd=st.sampled_from(["simulate", "thermo", "whitenoise"]), grid=_grids())
def test_a_run_ends_at_its_horizon_or_is_one_shape_mismatch(cmd, grid):
    dt, T = grid
    argv = [cmd, "--config", str(QUAD_GMV), f"--t-final={T!r}"]
    argv += {"simulate": ["--n", "4", f"--dt={dt!r}"], "thermo": [f"--dt={dt!r}"],
             "whitenoise": ["--n", "4", f"--base-dt={dt!r}", "--epsilons", "0.5,0.25",
                            f"--checkpoints={T!r}"]}[cmd]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--out", str(out)])
        assert code in (0, 1)
        if code == 0:
            assert abs(_last_time(cmd, out, dt) - T) <= 1e-9 * max(1.0, T)
        else:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("ShapeMismatch: ")
            assert not out.exists()


SMALL_GMV = """\
[model]
kind = generalized
d = 1
beta = 1.0
potential.kind = quadratic
potential.params = [1.0]
interaction.eta2 = 1.0
[memory]
m = 1
lambda = [1.0]
A = [1.0]
[run]
N = 16
T = 0.01
dt = 0.005
seed = 3
record_every = 1
"""


def _config_with(tmp_path, changes):
    """SMALL_GMV with the value of each key in ``changes`` replaced."""
    lines = []
    for line in SMALL_GMV.splitlines():
        key = line.split(" = ")[0]
        lines.append(f"{key} = {changes[key]}" if key in changes else line)
    path = tmp_path / "model.conf"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "key, value",
    [("N", "abc"), ("beta", "abc"), ("dt", "fast"), ("lambda", "[one]"), ("N", "inf"),
     ("d", "nan"), ("N", "16.7"), ("d", "1.9"), ("seed", "4.5")],
)
def test_config_value_of_the_wrong_type_is_config_error(tmp_path, capsys, key, value):
    code = run_cli(["simulate", "--config", _config_with(tmp_path, {key: value}), "--out", tmp_path,
                    "--n", "16"])
    err = capsys.readouterr().err
    assert code == 2
    assert "ConfigError" in err and key in err
    assert not (tmp_path / "simulate.csv").exists()


@pytest.mark.parametrize(
    "changes", [{"m": "0", "lambda": "[]", "A": "[]"}, {"d": "-1"}], ids=["m=0", "d=-1"]
)
def test_memory_block_without_positive_dimensions_is_a_shape_mismatch(tmp_path, capsys, changes):
    cfg = _config_with(tmp_path, changes)
    assert run_cli(["validate", "--config", cfg, "--out", tmp_path]) == 1
    assert "ShapeMismatch" in capsys.readouterr().err
    with pytest.raises(ShapeMismatch, match="m >= 1"):
        parse_config(cfg.read_text()).model_spec()


D2_DIAG_GMV = SMALL_GMV.replace("d = 1", "d = 2").replace(
    "lambda = [1.0]\nA = [1.0]", "lambda = [1.0, 0.0, 0.0, 1.0]\ndiag = [1.0, 2.0]")
OVERDAMPED = "[model]\nkind = overdamped\nd = 1\nbeta = 1.0\ninteraction.eta2 = 1.0\n"
QP = "t,mean_q,mean_p,var_q,var_p,cov_qp,magnetization,se_mean_q,se_mean_p"


@pytest.mark.parametrize(
    "config, header",
    [
        (OVERDAMPED, QP),
        (QUAD_UMV, QP),
        (QUAD_GMV, QP + ",mean_z,var_z,se_mean_z"),
        (D2_DIAG_GMV, "t,mean_q_0,mean_q_1,mean_p_0,mean_p_1,var_q_0,var_q_1,var_p_0,var_p_1,"
         "cov_qp_0,cov_qp_1,magnetization_0,magnetization_1,se_mean_q_0,se_mean_q_1,"
         "se_mean_p_0,se_mean_p_1,mean_z_0,mean_z_1,var_z_0,var_z_1,se_mean_z_0,se_mean_z_1"),
    ],
    ids=["overdamped", "underdamped", "generalized", "generalized-d2"],
)
def test_simulate_header_is_pinned(tmp_path, config, header):
    if isinstance(config, str):
        (tmp_path / "model.conf").write_text(config)
        config = tmp_path / "model.conf"
    code = run_cli(["simulate", "--config", config, "--out", tmp_path, "--n", "8",
                    "--t-final", "0.01", "--dt", "0.005"])
    assert code == 0
    lines = (tmp_path / "simulate.csv").read_text().splitlines()
    assert lines[0] == header
    assert all(len(line.split(",")) == len(header.split(",")) for line in lines)


SMALL_RUNS = {
    "validate": [],
    "simulate": ["--n", "16", "--t-final", "0.01", "--dt", "0.005"],
    "spectrum": ["--cap", "2"],
    "greens": ["--times", "0.5"],
    "stationary": [],
    "bifurcation": ["--beta-min", "1.5", "--beta-max", "3.0", "--beta-steps", "2"],
    "thermo": ["--t-final", "0.02", "--dt", "0.01"],
    "whitenoise": ["--n", "16", "--t-final", "0.02", "--epsilons", "0.5,0.25",
                   "--checkpoints", "0.02", "--base-dt", "0.01"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("cmd", list(SMALL_RUNS))
def test_each_run_writes_its_table_summary_and_manifest(tmp_path, capsys, cmd, fmt):
    code = run_cli([cmd, "--config", QUAD_GMV, "--out", tmp_path, "--format", fmt]
                   + SMALL_RUNS[cmd])
    assert code == 0
    outputs = ([] if cmd == "validate" else [f"{cmd}.{fmt}"]) + [f"{cmd}_summary.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(outputs + ["manifest.json"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [e["path"] for e in manifest["outputs"]] == outputs
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((tmp_path / entry["path"]).read_bytes()).hexdigest()
        assert entry["sha256"] == digest


def test_whitenoise_json_has_a_canonical_digest_that_repeats(tmp_path):
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = run_cli(["whitenoise", "--config", QUAD_GMV, "--out", out, "--format", "json",
                        "--seed", "4"] + SMALL_RUNS["whitenoise"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        entry = next(e for e in manifest["outputs"] if e["path"] == "whitenoise.json")
        digests.append(entry["canonical_sha256"])
    assert digests[0] == digests[1]
