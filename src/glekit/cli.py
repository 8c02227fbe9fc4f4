"""Command-line entry point.

Subcommands: ``validate``, ``simulate``, ``spectrum``, ``greens``,
``stationary``, ``bifurcation``, ``thermo``, ``whitenoise``.  Global flags:
``--config <path>`` (model truth; see :mod:`glekit.config` for the grammar),
``--seed``, ``--out <dir>``, ``--format csv|json``, ``--threads <n>``.

Command-line flags may override scalar run parameters (N, T, dt, grids);
the physics always comes from the config file.  Every run writes the result
table, a ``<cmd>_summary.json``, and a ``manifest.json`` with config echo,
seed, version, and sha256 checksums of the outputs.  Identical config, seed,
and flags reproduce the result files byte-identically; the one inherently
nondeterministic field (the wallclock column of ``whitenoise``) is
checksummed in canonical form (column zeroed) and recorded separately in the
manifest timings.  ``--threads`` is accepted and recorded in the manifest;
every run is sequential.

Each subparser names its handler ``cmd_<name>(args, cfg, out_dir)``, which
returns ``(outputs, timings or None)``.

Exit codes: 0 success, 1 domain error (error class name on stderr),
2 usage or config-grammar error.
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
from .errors import ConfigError, GlekitError, ShapeMismatch
from .model import Kind


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # shortest representation that round-trips
    return str(v)


def write_table(out_dir: Path, name: str, header: list[str], rows: list[list], fmt: str) -> Path:
    if fmt == "json":
        path = out_dir / f"{name}.json"
        payload = [dict(zip(header, [_json_safe(v) for v in row])) for row in rows]
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        return path
    path = out_dir / f"{name}.csv"
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _canonical_sha256(path: Path, zero_columns: tuple[str, ...]) -> str:
    """Checksum with the named CSV columns zeroed (for wallclock fields)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    idxs = [header.index(c) for c in zero_columns if c in header]
    out = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        for i in idxs:
            parts[i] = "0.0"
        out.append(",".join(parts))
    return hashlib.sha256(("\n".join(out) + "\n").encode("utf-8")).hexdigest()


def write_manifest(out_dir, args, cfg: Config, outputs: list[Path], timings=None) -> Path:
    entries = []
    for p in outputs:
        entry = {"path": p.name, "sha256": _sha256(p)}
        if p.name == "whitenoise.csv":
            entry["canonical_sha256"] = _canonical_sha256(p, ("wallclock_s",))
            entry["note"] = "canonical form zeroes the wallclock_s column"
        entries.append(entry)
    manifest = {
        "tool": "glekit",
        "tool_version": __version__,
        "command": args.command,
        "config": cfg.sections,
        "seed": _effective_seed(args, cfg),
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


def _effective_seed(args, cfg: Config) -> int:
    if args.seed is not None:
        return int(args.seed)
    return cfg.run_params().seed


def _parse_floats(text: str) -> list[float]:
    """Comma-separated numbers of a list flag; ConfigError when malformed or empty."""
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None
    if not vals:
        raise ConfigError(f"expected at least one number, got {text!r}")
    return vals


_RUN_OVERRIDES = (("n", "N"), ("t_final", "T"), ("dt", "dt"), ("record_every", "record_every"))


def _run_params(args, cfg: Config):
    """The config's run parameters with any --n/--t-final/--dt/--record-every flag applied."""
    rp = cfg.run_params()
    for flag, field in _RUN_OVERRIDES:
        value = getattr(args, flag, None)
        if value is not None:
            setattr(rp, field, value)
    return rp


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args, cfg: Config, out_dir: Path):
    model = cfg.model()
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
        rep = quadratic.spectrum_report(model, cap=1)
        summary["base_spectrum"] = [[v.real, v.imag] for v in rep.base_eigenvalues]
        summary["spectral_gap"] = quadratic.spectral_gap(quadratic.spectrum_report(model, cap=4))
    except GlekitError:
        pass  # non-quadratic models have no closed-form spectrum
    path = write_summary(out_dir, "validate", summary)
    print(json.dumps(_json_safe(summary), sort_keys=True))
    return [path], None


def cmd_spectrum(args, cfg: Config, out_dir: Path):
    model = cfg.model()
    rep = quadratic.spectrum_report(model, cap=args.cap)
    rows = [
        [pt.real, pt.imag, ";".join(str(k) for k in idx)]
        for pt, idx in zip(rep.lattice, rep.multi_indices)
    ]
    t = write_table(out_dir, "spectrum", ["re", "im", "k_multiindex"], rows, args.format)
    s = write_summary(
        out_dir,
        "spectrum",
        {
            "kind": rep.kind,
            "cap": rep.cap,
            "parameters": rep.parameters,
            "base_eigenvalues": [[v.real, v.imag] for v in rep.base_eigenvalues],
            "spectral_gap": quadratic.spectral_gap(rep),
            "lattice_size": int(rep.lattice.size),
        },
    )
    return [t, s], None


def cmd_greens(args, cfg: Config, out_dir: Path):
    model = cfg.model()
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
    t_path = write_table(out_dir, "greens", header, rows, args.format)
    s_path = write_summary(
        out_dir,
        "greens",
        {"times": times, "x0": x0, "final_mean": law.mean, "final_cov": law.cov},
    )
    return [t_path, s_path], None


def cmd_stationary(args, cfg: Config, out_dir: Path):
    model = cfg.model()
    prob = stationary.SelfConsistencyProblem.from_model(model)
    pts = stationary.fixed_points(prob)
    rows = [[p.m_star, p.stability, p.residual] for p in pts]
    t = write_table(out_dir, "stationary", ["m_star", "stability", "residual"], rows, args.format)
    s = write_summary(
        out_dir,
        "stationary",
        {
            "beta": prob.beta,
            "eta2": prob.eta2,
            "window": prob.window(),
            "fixed_points": [
                {"m_star": p.m_star, "stability": p.stability, "residual": p.residual}
                for p in pts
            ],
        },
    )
    return [t, s], None


def cmd_bifurcation(args, cfg: Config, out_dir: Path):
    model = cfg.model()
    prob = stationary.SelfConsistencyProblem.from_model(model)
    for flag, beta in (("--beta-min", args.beta_min), ("--beta-max", args.beta_max)):
        if not 0.0 < beta < math.inf:
            raise ShapeMismatch(f"{flag} must be finite and positive, got {beta}")
    if args.beta_steps < 1:
        raise ShapeMismatch(f"--beta-steps must be at least 1, got {args.beta_steps}")
    betas = np.linspace(args.beta_min, args.beta_max, args.beta_steps)
    diagram = stationary.bifurcation_diagram(prob, betas)
    rows = [[b, m, stab, resid] for (b, m, stab, resid) in diagram.rows()]
    t = write_table(out_dir, "bifurcation", ["beta", "m_star", "stable", "residual"], rows, args.format)
    s = write_summary(
        out_dir,
        "bifurcation",
        {
            "beta_critical": diagram.beta_critical,
            "beta_min": args.beta_min,
            "beta_max": args.beta_max,
            "beta_steps": args.beta_steps,
            "branch_counts": [len(b) for b in diagram.branches],
        },
    )
    return [t, s], None


def cmd_simulate(args, cfg: Config, out_dir: Path):
    model = cfg.model()
    rp = _run_params(args, cfg)
    seed = _effective_seed(args, cfg)
    init = _default_init(model)
    series = particles.simulate(model, rp.N, rp.T, rp.dt, seed, init, rp.record_every)
    header, rows = _series_rows(model, series)
    t = write_table(out_dir, "simulate", header, rows, args.format)
    s = write_summary(
        out_dir,
        "simulate",
        {
            "N": rp.N,
            "T": rp.T,
            "dt": rp.dt,
            "seed": seed,
            "record_every": rp.record_every,
            "records": series.n_records(),
            "final_time": float(series.times[-1]),
        },
    )
    return [t, s], None


def _default_init(model) -> particles.InitProduct:
    bi = model.beta_inv
    var = bi if bi > 0 else 1.0
    return particles.InitProduct(
        q=particles.BlockLaw(point=1.0),
        p=particles.BlockLaw(mean=0.0, var=var),
        z=particles.BlockLaw(mean=0.0, var=var),
    )


def _series_rows(model, series: particles.ObservableSeries):
    d = model.d
    has_p = series.mean_p is not None
    has_z = series.mean_z is not None

    def names(base, width):
        return [base] if width == 1 else [f"{base}_{i}" for i in range(width)]

    header = ["t"]
    for base, width in (
        ("mean_q", d),
        ("mean_p", d),
        ("var_q", d),
        ("var_p", d),
        ("cov_qp", d),
        ("magnetization", d),
        ("se_mean_q", d),
        ("se_mean_p", d),
    ):
        header += names(base, width)
    if has_z:
        dm = series.mean_z.shape[1]
        for base in ("mean_z", "var_z", "se_mean_z"):
            header += names(base, dm)

    # overdamped runs carry no momentum block; the pinned header keeps zeros there
    zeros = np.zeros((len(series.times), d))
    cols = [
        series.mean_q,
        series.mean_p if has_p else zeros,
        series.var_q,
        series.var_p if has_p else zeros,
        series.cov_qp if has_p else zeros,
        series.magnetization,
        series.se_mean_q,
        series.se_mean_p if has_p else zeros,
    ]
    if has_z:
        cols += [series.mean_z, series.var_z, series.se_mean_z]
    rows = []
    for i, t in enumerate(series.times):
        row = [float(t)]
        for c in cols:
            row += [float(v) for v in np.atleast_1d(c[i])]
        rows.append(row)
    return header, rows


def cmd_thermo(args, cfg: Config, out_dir: Path):
    model = cfg.model()
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
    dt = args.dt if args.dt is not None else cfg.run_params().dt
    T = args.t_final if args.t_final is not None else 5.0
    series = thermo.evolve_coupled(state, model, dt, T)
    rows = [
        [t, E, S, F, w]
        for t, E, S, F, w in zip(
            series.times, series.energy, series.entropy, series.free_energy, series.dissipation
        )
    ]
    t_path = write_table(out_dir, "thermo", ["t", "E", "S", "F", "dissipation"], rows, args.format)
    drift = float(np.max(np.abs(series.energy - series.energy[0])))
    s_path = write_summary(
        out_dir,
        "thermo",
        {
            "T": T,
            "dt": dt,
            "z_var_factor": args.z_var_factor,
            "energy_drift": drift,
            "entropy_monotone": bool(np.all(np.diff(series.entropy) >= -1e-8)),
            "free_energy_monotone": bool(np.all(np.diff(series.free_energy) <= 1e-8)),
        },
    )
    return [t_path, s_path], None


def cmd_whitenoise(args, cfg: Config, out_dir: Path):
    model = cfg.model()
    rp = _run_params(args, cfg)
    epsilons = tuple(_parse_floats(args.epsilons))
    checkpoints = tuple(_parse_floats(args.checkpoints))
    study = limits.ScalingStudy(
        base_model=model,
        epsilons=epsilons,
        N=rp.N,
        T=rp.T,
        base_dt=args.base_dt if args.base_dt is not None else rp.dt,
        seed=_effective_seed(args, cfg),
        checkpoints=checkpoints,
    )
    result = limits.run_study(study)
    rows = [[r.epsilon, r.error, r.se, r.steps, r.wallclock_s] for r in result.rows]
    t = write_table(
        out_dir, "whitenoise", ["epsilon", "error", "se", "steps", "wallclock_s"], rows, args.format
    )
    s = write_summary(
        out_dir,
        "whitenoise",
        {
            "gamma": result.gamma,
            "checkpoints": result.checkpoints,
            "rows": [
                {"epsilon": r.epsilon, "error": r.error, "se": r.se, "steps": r.steps}
                for r in result.rows
            ],
        },
    )
    timings = {repr(r.epsilon): r.wallclock_s for r in result.rows}
    return [t, s], timings


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
        p.add_argument("--threads", type=int, default=1, help="recorded; runs are sequential")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._started_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        cfg = load_config(args.config)
    except FileNotFoundError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        print("see `glekit.config` for the exact grammar", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        outputs, timings = args._run(args, cfg, out_dir)
    except ConfigError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 2
    except GlekitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    write_manifest(out_dir, args, cfg, outputs, timings)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
