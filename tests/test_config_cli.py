import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glekit import quadratic
from glekit.cli import _fmt, _render_table, main
from glekit.config import parse_config
from glekit.errors import ConfigError, RootFindingFailure, ShapeMismatch
from glekit.model import DoubleWell, Kind, Quadratic

REPO = Path(__file__).resolve().parents[1]

QUAD_GMV = REPO / "configs" / "quadratic_gmv.conf"
QUAD_UMV = REPO / "configs" / "quadratic_umv.conf"


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


def test_parse_quadratic_config():
    cfg = parse_config(QUAD_GMV.read_text())
    spec = cfg.model_spec()
    assert spec.kind is Kind.GENERALIZED
    assert isinstance(spec.potential, Quadratic)
    assert spec.interaction.eta2 == 1.0
    assert spec.memory.m == 1
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


# ---------------------------------------------------------------------------
# CLI dispatch
# ---------------------------------------------------------------------------


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def cli_import_modules():
    # one interpreter imports glekit.cli and lists the scipy* modules, concurrent.futures
    # and logging it loaded; the three tests below each read their part of that list
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    probe = ("import sys, glekit.cli; print(' '.join(k for k in sys.modules if k.split('.')[0] == "
             "'scipy' or k in ('concurrent.futures', 'logging')))")
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    return out.stdout.split()


def test_cli_import_leaves_scipy_optimize_out(cli_import_modules):
    # importing scipy.optimize adds about 0.2 s to the start-up of every subcommand
    assert "scipy.optimize" not in cli_import_modules


def test_cli_import_loads_no_scipy(cli_import_modules):
    # scipy is a test oracle only; importing scipy.linalg alone costs about 0.3 s of start-up
    assert [k for k in cli_import_modules if k.split(".")[0] == "scipy"] == []


def test_cli_import_loads_no_thread_pool_or_logging(cli_import_modules):
    # the prefetch of the normals runs on a bare thread: concurrent.futures would pull in
    # logging and add about 8 ms to the start-up of every subcommand
    assert [k for k in cli_import_modules if k in ("concurrent.futures", "logging")] == []


def test_simulate_with_a_block_drawn_ahead_exits_promptly(tmp_path):
    # N = 2e4 is above the prefetch threshold, so the run ends with a fill pending on the
    # worker thread; the interpreter must not wait on it at exit
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "glekit.cli", "simulate", "--config", str(QUAD_GMV),
         "--out", str(tmp_path), "--n", "20000", "--t-final", "0.01"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "simulate.csv").exists()


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
    def fail(model, cap):
        raise RootFindingFailure("polynomial residual too large")

    monkeypatch.setattr(quadratic, "spectrum_report", fail)
    code = run_cli(["validate", "--config", QUAD_GMV, "--out", tmp_path])
    assert code == 1
    assert "RootFindingFailure" in capsys.readouterr().err


def test_out_naming_an_existing_file_is_a_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = run_cli(["validate", "--config", QUAD_GMV, "--out", taken])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and str(taken) in err and "Traceback" not in err


def test_config_grammar_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("[model]\nkind = overdamped\nwhat = 1\n")
    code = run_cli(["validate", "--config", bad, "--out", tmp_path])
    assert code == 2
    assert "ConfigError" in capsys.readouterr().err


def test_unknown_subcommand_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate", "--config", QUAD_GMV])
    assert exc.value.code == 2


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


@settings(max_examples=200, deadline=None)
@given(_tables())
def test_csv_render_equals_formatting_each_value(table):
    header, rows = table
    expected = "\n".join([",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows])
    assert _render_table(header, rows, "csv") == expected + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("row", [[1.0], [1.0, 2.0, 3.0]], ids=["short", "long"])
def test_a_ragged_table_row_is_an_error(fmt, row):
    with pytest.raises(ValueError, match="values for 2 columns"):
        _render_table(["a", "b"], [[0.5, 1.5], row], fmt)


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
    "config, error", [(QUAD_UMV, "MissingField"), (DOUBLEWELL_GMV, "UnsupportedPotential")]
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
