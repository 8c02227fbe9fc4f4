"""Command-line entry point.

Subcommands: ``validate``, ``simulate``, ``spectrum``, ``greens``,
``stationary``, ``bifurcation``, ``thermo``, ``whitenoise``.  Global flags:
``--config <path>`` (model truth; see :mod:`glekit.config` for the grammar),
``--seed``, ``--out <dir>``, ``--format csv|json``, ``--threads <n>``.

Command-line flags may override scalar run parameters (N, T, dt, grids);
the physics always comes from the config file.  Every run writes the result
table ``<cmd>.<fmt>``, a ``<cmd>_summary.json``, and a ``manifest.json`` with
config echo, seed, version, and sha256 checksums of the outputs.  Identical
config, seed, and flags reproduce the result files byte-identically; a table
column named ``wallclock_s`` (``whitenoise``) is the one inherently
nondeterministic field, so that table is also checksummed in canonical form
(the column zeroed, rendered again in the run's format) and the measured
values are recorded in the manifest timings.  ``--threads`` is only recorded
in the manifest.  Whatever its value, a particle run with at least
``particles.PREFETCH_MIN`` normals per step has one helper thread draw the
next step's normals while the current step runs, so no output depends on it.

Each subparser names its handler ``cmd_<name>(args, model, rp)``.  ``main``
builds both inputs once per run: ``model`` is the config's validated model,
and ``rp`` its ``[run]`` parameters with any ``--seed``, ``--n``,
``--t-final``, ``--dt`` or ``--record-every`` flag applied.  A handler returns
``(table, summary, timings)``: the table as ``(header, rows)`` (None for
``validate``), the summary dict, and the manifest timings or None.  ``main``
alone writes files.

Exit codes: 0 success, 1 domain error (error class name on stderr),
2 usage or config error (grammar, or a value of the wrong type).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import limits, particles, quadratic, stationary, thermo
from .config import Config, load_config
from .errors import ConfigError, GlekitError, ShapeMismatch, UnsupportedPotential
from .model import Kind


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    # floats first, the bulk of every table; bool is no float and np.bool_ no np.floating
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # shortest representation that round-trips
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _render_table(header: list[str], rows: list[list], fmt: str) -> str:
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"table row has {len(row)} values for {len(header)} columns")
    if fmt == "json":
        payload = [dict(zip(header, [_json_safe(v) for v in row])) for row in rows]
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"
    # one formatter per column: repr where every value is a plain float, else _fmt
    cols = [
        map(repr if all(type(v) is float for v in col) else _fmt, col) for col in zip(*rows)
    ]
    lines = [",".join(header)] + [",".join(vals) for vals in zip(*cols)]
    return "\n".join(lines) + "\n"


def write_table(out_dir: Path, name: str, header: list[str], rows: list[list], fmt: str) -> Path:
    path = out_dir / f"{name}.{fmt}"
    path.write_text(_render_table(header, rows, fmt), encoding="utf-8")
    return path


def _json_safe(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return [_json_safe(x) for x in v.tolist()]
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _json_safe(x) for k, x in v.items()}
    return v


def write_summary(out_dir: Path, name: str, payload: dict) -> Path:
    path = out_dir / f"{name}_summary.json"
    path.write_text(
        json.dumps(_json_safe(payload), sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    return path


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_manifest(
    out_dir, args, cfg: Config, rp, outputs: list[Path], timings, canonical
) -> Path:
    """The run manifest; ``canonical`` maps an output name to its canonical sha256."""
    entries = []
    for p in outputs:
        entry = {"path": p.name, "sha256": _sha256(p.read_bytes())}
        if p.name in canonical:
            entry["canonical_sha256"] = canonical[p.name]
            entry["note"] = "canonical form zeroes the wallclock_s column"
        entries.append(entry)
    manifest = {
        "tool": "glekit",
        "tool_version": __version__,
        "command": args.command,
        "config": cfg.sections,
        "seed": rp.seed,
        "threads": args.threads,
        "format": args.format,
        "argv_overrides": {
            k: v
            for k, v in vars(args).items()
            if not k.startswith("_")
            and k not in ("command", "config", "out", "seed", "threads", "format")
            and v is not None
        },
        "outputs": entries,
        "started_at": args._started_at,
        "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if timings:
        manifest["timings_s"] = timings
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(_json_safe(manifest), sort_keys=True, indent=1) + "\n")
    return path


def _parse_floats(text: str) -> list[float]:
    """Comma-separated numbers of a list flag; ConfigError when malformed or empty."""
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None
    if not vals:
        raise ConfigError(f"expected at least one number, got {text!r}")
    return vals


_RUN_OVERRIDES = (
    ("seed", "seed"), ("n", "N"), ("t_final", "T"), ("dt", "dt"), ("record_every", "record_every")
)


def _run_params(args, cfg: Config):
    """The config's run parameters with each flag of _RUN_OVERRIDES applied where given."""
    rp = cfg.run_params()
    for flag, field in _RUN_OVERRIDES:
        value = getattr(args, flag, None)
        if value is not None:
            setattr(rp, field, value)
    return rp


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args, model, rp):
    summary = {
        "kind": model.kind.value,
        "d": model.d,
        "beta": model.beta,
        "eta2": model.eta2,
        "state_dim": model.state_dim(),
    }
    if model.kind is Kind.GENERALIZED:
        g = limits.effective_gamma(model.memory.lam, model.memory.A)
        summary["effective_gamma"] = g if np.ndim(g) == 0 else np.asarray(g)
    try:
        rep = quadratic.spectrum_report(model, cap=4)
        summary["base_spectrum"] = [[v.real, v.imag] for v in rep.base_eigenvalues]
        summary["spectral_gap"] = quadratic.spectral_gap(rep)
    except UnsupportedPotential:
        pass  # non-quadratic models have no closed-form spectrum
    print(json.dumps(_json_safe(summary), sort_keys=True))
    return None, summary, None


def cmd_spectrum(args, model, rp):
    rep = quadratic.spectrum_report(model, cap=args.cap)
    rows = [
        [pt.real, pt.imag, ";".join(str(k) for k in idx)]
        for pt, idx in zip(rep.lattice, rep.multi_indices)
    ]
    summary = {
        "kind": rep.kind,
        "cap": rep.cap,
        "parameters": rep.parameters,
        "base_eigenvalues": [[v.real, v.imag] for v in rep.base_eigenvalues],
        "spectral_gap": quadratic.spectral_gap(rep),
        "lattice_size": int(rep.lattice.size),
    }
    return (["re", "im", "k_multiindex"], rows), summary, None


def cmd_greens(args, model, rp):
    B, K, D = quadratic.split_BK(model)
    n = B.shape[0]
    x0 = np.zeros(n)
    if args.x0:
        vals = _parse_floats(args.x0)
        if len(vals) != n:
            raise ConfigError(f"--x0 needs {n} comma-separated values")
        x0 = np.asarray(vals)
    else:
        x0[0] = 1.0
    times = _parse_floats(args.times)
    header = ["t"] + [f"mean_{i}" for i in range(n)] + [
        f"cov_{i}_{j}" for i in range(n) for j in range(i, n)
    ]
    rows = []
    for t in times:
        law = quadratic.meanfield_green(B, K, D, t, x0)
        row = [t] + list(law.mean) + [law.cov[i, j] for i in range(n) for j in range(i, n)]
        rows.append(row)
    summary = {"times": times, "x0": x0, "final_mean": law.mean, "final_cov": law.cov}
    return (header, rows), summary, None


def cmd_stationary(args, model, rp):
    prob = stationary.SelfConsistencyProblem.from_model(model)
    pts = stationary.fixed_points(prob)
    rows = [[p.m_star, p.stability, p.residual] for p in pts]
    summary = {
        "beta": prob.beta,
        "eta2": prob.eta2,
        "window": prob.window(),
        "fixed_points": [
            {"m_star": p.m_star, "stability": p.stability, "residual": p.residual} for p in pts
        ],
    }
    return (["m_star", "stability", "residual"], rows), summary, None


def cmd_bifurcation(args, model, rp):
    prob = stationary.SelfConsistencyProblem.from_model(model)
    for flag, beta in (("--beta-min", args.beta_min), ("--beta-max", args.beta_max)):
        if not 0.0 < beta < math.inf:
            raise ShapeMismatch(f"{flag} must be finite and positive, got {beta}")
    if args.beta_steps < 1:
        raise ShapeMismatch(f"--beta-steps must be at least 1, got {args.beta_steps}")
    betas = np.linspace(args.beta_min, args.beta_max, args.beta_steps)
    diagram = stationary.bifurcation_diagram(prob, betas)
    rows = [[b, m, stab, resid] for (b, m, stab, resid) in diagram.rows()]
    summary = {
        "beta_critical": diagram.beta_critical,
        "beta_min": args.beta_min,
        "beta_max": args.beta_max,
        "beta_steps": args.beta_steps,
        "branch_counts": [len(b) for b in diagram.branches],
    }
    return (["beta", "m_star", "stable", "residual"], rows), summary, None


def cmd_simulate(args, model, rp):
    init = _default_init(model)
    series = particles.simulate(model, rp.N, rp.T, rp.dt, rp.seed, init, rp.record_every)
    summary = {
        "N": rp.N,
        "T": rp.T,
        "dt": rp.dt,
        "seed": rp.seed,
        "record_every": rp.record_every,
        "records": series.n_records(),
        "final_time": float(series.times[-1]),
    }
    return _series_rows(series), summary, None


def _default_init(model) -> particles.InitProduct:
    bi = model.beta_inv
    var = bi if bi > 0 else 1.0
    return particles.InitProduct(
        q=particles.BlockLaw(point=1.0),
        p=particles.BlockLaw(mean=0.0, var=var),
        z=particles.BlockLaw(mean=0.0, var=var),
    )


# the simulate table after its t column, in order: ObservableSeries fields
_SERIES_COLUMNS = (
    "mean_q", "mean_p", "var_q", "var_p", "cov_qp", "magnetization", "se_mean_q", "se_mean_p",
    "mean_z", "var_z", "se_mean_z",
)


def _series_rows(series: particles.ObservableSeries):
    """Header and rows of the simulate table; a block wider than 1 gets ``_i`` suffixes.

    Overdamped runs carry no momentum block, and the pinned header keeps zeros
    there; the z columns appear only for the generalized kind.
    """
    header, cols = ["t"], [series.times[:, None]]
    for name in _SERIES_COLUMNS:
        col = getattr(series, name)
        if col is None:
            if name.endswith("_z"):
                continue
            col = np.zeros_like(series.mean_q)
        width = col.shape[1]
        header += [name] if width == 1 else [f"{name}_{i}" for i in range(width)]
        cols.append(col)
    return header, np.hstack(cols).tolist()


def cmd_thermo(args, model, rp):
    if not 0 < args.z_var_factor < math.inf:
        raise ShapeMismatch(f"--z-var-factor must be finite and positive, got {args.z_var_factor}")
    law0 = thermo.stationary_law(model)
    cov = law0.cov.copy()
    d = model.d
    cov[2 * d :, 2 * d :] *= args.z_var_factor
    state = thermo.GenericState(
        rho=thermo.GaussianEnsembleLaw(
            law=quadratic.GaussianLaw(mean=law0.mean, cov=cov), model=model
        ),
        e=0.0,
    )
    dt = rp.dt
    # thermo's horizon defaults to 5.0 rather than [run] T, the particle-run horizon
    T = args.t_final if args.t_final is not None else 5.0
    series = thermo.evolve_coupled(state, model, dt, T)
    rows = np.column_stack(
        [series.times, series.energy, series.entropy, series.free_energy, series.dissipation]
    ).tolist()
    summary = {
        "T": T,
        "dt": dt,
        "z_var_factor": args.z_var_factor,
        "energy_drift": float(np.max(np.abs(series.energy - series.energy[0]))),
        "entropy_monotone": bool(np.all(np.diff(series.entropy) >= -1e-8)),
        "free_energy_monotone": bool(np.all(np.diff(series.free_energy) <= 1e-8)),
    }
    return (["t", "E", "S", "F", "dissipation"], rows), summary, None


def cmd_whitenoise(args, model, rp):
    study = limits.ScalingStudy(
        base_model=model,
        epsilons=tuple(_parse_floats(args.epsilons)),
        N=rp.N,
        T=rp.T,
        base_dt=args.base_dt if args.base_dt is not None else rp.dt,
        seed=rp.seed,
        checkpoints=tuple(_parse_floats(args.checkpoints)),
    )
    result = limits.run_study(study)
    rows = [[r.epsilon, r.error, r.se, r.steps, r.wallclock_s] for r in result.rows]
    summary = {
        "gamma": result.gamma,
        "checkpoints": result.checkpoints,
        "rows": [
            {"epsilon": r.epsilon, "error": r.error, "se": r.se, "steps": r.steps}
            for r in result.rows
        ],
    }
    timings = {repr(r.epsilon): r.wallclock_s for r in result.rows}
    return (["epsilon", "error", "se", "steps", "wallclock_s"], rows), summary, timings


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="glekit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"glekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(_run=handler)  # the leading _ keeps it out of argv_overrides
        p.add_argument("--config", required=True, help="model config file")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--threads", type=int, default=1, help="only recorded in the manifest")
        return p

    command("validate", cmd_validate, "check a config and echo derived quantities")

    p = command("simulate", cmd_simulate, "run the particle integrator")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t-final", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--record-every", type=int, default=None)

    p = command("spectrum", cmd_spectrum, "drift eigenvalues and generator lattice")
    p.add_argument("--cap", type=int, default=4)

    p = command("greens", cmd_greens, "Gaussian mean-field law at chosen times")
    p.add_argument("--times", default="0.5,1,2")
    p.add_argument("--x0", default=None)

    command("stationary", cmd_stationary, "fixed points of the self-consistency map")

    p = command("bifurcation", cmd_bifurcation, "fixed-point branches over a beta grid")
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--beta-steps", type=int, default=32)

    p = command("thermo", cmd_thermo, "energy/entropy/free-energy series")
    p.add_argument("--t-final", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--z-var-factor", type=float, default=2.0)

    p = command("whitenoise", cmd_whitenoise, "memory-to-friction limit study")
    p.add_argument("--epsilons", default="0.5,0.25,0.125")
    p.add_argument("--checkpoints", default="0.5,1,2")
    p.add_argument("--base-dt", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t-final", type=float, default=None)
    return parser


# flags whose value is a comma-separated list of numbers
_LIST_FLAGS = ("--x0", "--times", "--epsilons", "--checkpoints")


def _attach_list_values(argv: list[str]) -> list[str]:
    """Write ``--x0 -1,0,0`` as ``--x0=-1,0,0``.

    argparse reads a token led by ``-`` as an option unless it is one plain
    number, so a list whose first value is negative needs the ``=`` form.  A
    following token joins the flag, or an abbreviation of it, only when it
    starts with a number.
    """
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if tok.startswith("-") and len(prev) > 2 and any(f.startswith(prev) for f in _LIST_FLAGS):
            try:
                float(tok.split(",", 1)[0])
                out[-1] += "=" + tok
                continue
            except ValueError:
                pass
        out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_list_values(sys.argv[1:] if argv is None else argv))
    args._started_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        cfg = load_config(args.config)
        rp = _run_params(args, cfg)  # a mistyped [run] value stops any run
    except FileNotFoundError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        print("see `glekit.config` for the exact grammar", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"ConfigError: --out {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    try:
        table, summary, timings = args._run(args, cfg.model(), rp)
    except ConfigError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 2
    except GlekitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    outputs, canonical = [], {}
    if table is not None:
        header, rows = table
        path = write_table(out_dir, args.command, header, rows, args.format)
        outputs.append(path)
        if "wallclock_s" in header:
            i = header.index("wallclock_s")
            zeroed = [row[:i] + [0.0] + row[i + 1 :] for row in rows]
            canonical[path.name] = _sha256(_render_table(header, zeroed, args.format).encode())
    outputs.append(write_summary(out_dir, args.command, summary))
    write_manifest(out_dir, args, cfg, rp, outputs, timings, canonical)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
