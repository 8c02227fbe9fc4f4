"""Command-line entry point.

Subcommands: ``validate``, ``simulate``, ``spectrum``, ``greens``,
``stationary``, ``bifurcation``, ``thermo``, ``whitenoise``.  Global flags:
``--config <path>`` (model truth; see :mod:`glekit.config` for the grammar),
``--seed``, ``--out <dir>``, ``--format csv|json``, ``--threads <n>`` (n >= 1).

Command-line flags may override scalar run parameters (N, T, dt, grids);
the physics always comes from the config file.  Every run writes the result
table ``<cmd>.<fmt>``, a ``<cmd>_summary.json``, and a ``manifest.json`` with
config echo, seed, version, and sha256 checksums of the outputs, each taken
from the bytes as they are written.  A CSV table is written in blocks of rows,
so its memory does not grow with its rows.  Identical
config, seed, and flags reproduce the result files byte-identically; a table
column named ``wallclock_s`` (``whitenoise``) is the one inherently
nondeterministic field, so that table is also checksummed in canonical form
(the column zeroed, rendered again in the run's format) and the measured
values are recorded in the manifest timings.  ``--threads`` is only recorded
in the manifest; glekit starts no thread of its own, and a particle run draws
its normals on the thread that steps it.

Each subparser names its handler ``cmd_<name>(args, model, rp)``.  ``main``
builds both inputs once per run: ``model`` is the config's validated model,
and ``rp`` its ``[run]`` parameters with any ``--seed``, ``--n``,
``--t-final``, ``--dt`` or ``--record-every`` flag applied.  A handler returns
``(table, summary, timings)``: the table as ``(header, rows)`` (None for
``validate``), with rows a list of rows or, for an all-float table, a 2-d
array; the summary dict; and the manifest timings or None.  ``main`` alone
writes files.

Exit codes: 0 success, 1 domain error (error class name on stderr),
2 usage or config error (grammar, or a value of the wrong type).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

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


_ROW_BLOCK = 512  # table rows rendered, written and hashed at a time


class Output(NamedTuple):
    """A written output file and the sha256 of the bytes written; path-like."""

    path: Path
    sha256: str

    def __fspath__(self) -> str:
        return str(self.path)


def _table_blocks(header: list[str], rows, fmt: str):
    """The bytes of a table file: JSON whole; CSV as its header, then blocks of rows."""
    if fmt == "json":
        rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
        yield _json_text([dict(zip(header, row)) for row in rows]).encode()
        return
    yield (",".join(header) + "\n").encode()
    floats = isinstance(rows, np.ndarray) and rows.dtype.kind == "f"
    for start in range(0, len(rows), _ROW_BLOCK):
        block = rows[start : start + _ROW_BLOCK]
        block = block.tolist() if isinstance(block, np.ndarray) else block
        # one formatter per column: repr for a float array (its tolist() holds plain floats)
        # or where every value is a plain float, else _fmt; choosing per block changes no
        # byte, since _fmt of a float is repr(float(v))
        cols = [
            map(repr if floats or all(type(v) is float for v in col) else _fmt, col)
            for col in zip(*block)
        ]
        yield "".join(",".join(vals) + "\n" for vals in zip(*cols)).encode()


def _sha256(blocks, fh=None) -> str:
    """The sha256 of byte blocks, each written to the binary file ``fh`` first if given."""
    digest = hashlib.sha256()
    for block in blocks:
        if fh is not None:
            fh.write(block)
        digest.update(block)
    return digest.hexdigest()


def _write(path: Path, blocks) -> Output:
    with open(path, "wb") as fh:
        return Output(path, _sha256(blocks, fh))


def write_table(out_dir: Path, name: str, header: list[str], rows, fmt: str) -> Output:
    """Write ``<name>.<fmt>``; a ragged row is a ValueError before the file is opened."""
    for width in [rows.shape[1]] if isinstance(rows, np.ndarray) else map(len, rows):
        if width != len(header):
            raise ValueError(f"table row has {width} values for {len(header)} columns")
    return _write(out_dir / f"{name}.{fmt}", _table_blocks(header, rows, fmt))


def _numpy_to_json(v):
    """json's hook for what it cannot encode: numpy arrays and scalars become lists and numbers.

    np.float64 is a float, so json writes it itself, with float's repr.
    """
    if isinstance(v, (np.ndarray, np.generic)):
        return v.tolist()
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def _json_text(payload) -> str:
    """The text of a JSON output file: sorted keys, one value a line, a final newline."""
    return json.dumps(payload, sort_keys=True, indent=1, default=_numpy_to_json) + "\n"


def write_summary(out_dir: Path, name: str, payload: dict) -> Output:
    return _write(out_dir / f"{name}_summary.json", [_json_text(payload).encode()])


def write_manifest(
    out_dir, args, cfg: Config, rp, outputs: list[Output], timings, canonical
) -> Output:
    """The run manifest; ``canonical`` maps an output name to its canonical sha256."""
    entries = []
    for out in outputs:
        entry = {"path": out.path.name, "sha256": out.sha256}
        if out.path.name in canonical:
            entry["canonical_sha256"] = canonical[out.path.name]
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
    return _write(Path(out_dir) / "manifest.json", [_json_text(manifest).encode()])


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
    """The config's run parameters with each flag of _RUN_OVERRIDES applied where given.

    A negative seed, from the flag or the config, is a ConfigError: numpy seeds
    only from non-negative integers.
    """
    rp = cfg.run_params()
    for flag, field in _RUN_OVERRIDES:
        value = getattr(args, flag, None)
        if value is not None:
            setattr(rp, field, value)
    if rp.seed < 0:
        raise ConfigError(f"seed must be a non-negative whole number, got {rp.seed}")
    return rp


def _out_blocker(out: str):
    """The path that keeps ``--out`` from being a directory, or None.

    That is ``--out`` itself or its nearest existing ancestor, when it exists
    but is no directory.
    """
    path = Path(out)
    # os.path.exists, unlike Path.exists, reads any stat failure (a too long name) as absent
    existing = next((p for p in (path, *path.parents) if os.path.exists(p)), None)
    return None if existing is None or existing.is_dir() else existing


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
    try:
        base = quadratic.base_spectrum(model)
        summary["base_spectrum"] = [[v.real, v.imag] for v in base]
        summary["spectral_gap"] = quadratic.spectral_gap(base)
    except UnsupportedPotential:
        pass  # non-quadratic models have no closed-form spectrum
    if model.kind is Kind.GENERALIZED:
        g = limits.effective_gamma(model.memory.lam, model.memory.A)
        summary["effective_gamma"] = g if np.ndim(g) == 0 else np.asarray(g)
    print(json.dumps(summary, sort_keys=True, default=_numpy_to_json))
    return None, summary, None


def cmd_spectrum(args, model, rp):
    rep = quadratic.spectrum_report(model, cap=args.cap)
    rows = list(zip(rep.lattice.real.tolist(), rep.lattice.imag.tolist(),
                    [";".join(map(str, k)) for k in rep.multi_indices.tolist()]))
    parameters = {"beta": model.beta, "d": model.d, "kind": model.kind.value,
                  "omega2": model.omega2, "eta2": model.eta2}
    if model.kind is Kind.UNDERDAMPED:
        parameters["gamma"] = model.gamma
    if model.kind is Kind.GENERALIZED:
        parameters["lambdas"], parameters["alphas"] = model.memory.diagonal_rates()
    summary = {
        "kind": model.kind.value,
        "cap": args.cap,
        "parameters": parameters,
        "base_eigenvalues": [[v.real, v.imag] for v in rep.base_eigenvalues],
        "spectral_gap": quadratic.spectral_gap(rep.base_eigenvalues),
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
    upper = np.triu_indices(n)
    header = ["t"] + [f"mean_{i}" for i in range(n)] + [f"cov_{i}_{j}" for i, j in zip(*upper)]
    rows = []
    for t in times:
        law = quadratic.meanfield_green(B, K, D, t, x0)
        rows.append(np.concatenate([[t], law.mean, law.cov[upper]]))
    summary = {"times": times, "x0": x0, "final_mean": law.mean, "final_cov": law.cov}
    return (header, np.array(rows)), summary, None


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
        "records": len(series.times),
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


def _series_rows(series: particles.ObservableSeries):
    """Header and rows of the simulate table; a block wider than 1 gets ``_i`` suffixes.

    Overdamped runs carry no momentum block, and the pinned header keeps zeros
    there; the z columns appear only for the generalized kind.
    """
    header, cols = ["t"], [series.times[:, None]]
    for f in dataclasses.fields(series)[1:]:
        name, col = f.name, getattr(series, f.name)
        if col is None:
            if name.endswith("_z"):
                continue
            col = np.zeros_like(series.mean_q)
        width = col.shape[1]
        header += [name] if width == 1 else [f"{name}_{i}" for i in range(width)]
        cols.append(col)
    return header, np.hstack(cols)


def cmd_thermo(args, model, rp):
    if not 0 < args.z_var_factor < math.inf:
        raise ShapeMismatch(f"--z-var-factor must be finite and positive, got {args.z_var_factor}")
    law0 = thermo.stationary_law(model)
    cov = law0.cov.copy()
    d = model.d
    cov[2 * d :, 2 * d :] *= args.z_var_factor
    dt = rp.dt
    # thermo's horizon defaults to 5.0 rather than [run] T, the particle-run horizon
    T = args.t_final if args.t_final is not None else 5.0
    series = thermo.evolve_coupled(quadratic.GaussianLaw(mean=law0.mean, cov=cov), model, dt, T)
    rows = np.column_stack(
        [series.times, series.energy, series.entropy, series.free_energy, series.dissipation]
    )
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
    checkpoints = tuple(_parse_floats(args.checkpoints))
    dt = args.base_dt if args.base_dt is not None else rp.dt
    result = limits.run_study(
        model, _parse_floats(args.epsilons), rp.N, rp.T, dt, rp.seed, checkpoints)
    rows = [[r.epsilon, r.error, r.se, r.steps, r.wallclock_s] for r in result.rows]
    summary = {
        "gamma": result.gamma,
        "checkpoints": checkpoints,
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


def build_parser(only=()) -> argparse.ArgumentParser:
    """The glekit parser; when ``only`` names subcommands, it builds just their parsers.

    ``main`` passes its first argument: building all eight subparsers cost
    more than parsing.  The top-level usage names all eight either way, so
    every usage line and error reads the same.
    """
    parser = argparse.ArgumentParser(prog="glekit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"glekit {__version__}")
    common = [
        ("--config", dict(required=True, help="model config file")),
        ("--seed", dict(type=int, help="override run.seed")),
        ("--out", dict(default=".", help="output directory")),
        ("--format", dict(choices=("csv", "json"), default="csv")),
        ("--threads", dict(type=int, default=1, help="only recorded in the manifest")),
    ]
    commands = [
        ("validate", cmd_validate, "check a config and echo derived quantities", []),
        ("simulate", cmd_simulate, "run the particle integrator",
         [("--n", dict(type=int)), ("--t-final", dict(type=float)), ("--dt", dict(type=float)),
          ("--record-every", dict(type=int))]),
        ("spectrum", cmd_spectrum, "drift eigenvalues and generator lattice",
         [("--cap", dict(type=int, default=4))]),
        ("greens", cmd_greens, "Gaussian mean-field law at chosen times",
         [("--times", dict(default="0.5,1,2")), ("--x0", {})]),
        ("stationary", cmd_stationary, "fixed points of the self-consistency map", []),
        ("bifurcation", cmd_bifurcation, "fixed-point branches over a beta grid",
         [("--beta-min", dict(type=float, required=True)),
          ("--beta-max", dict(type=float, required=True)),
          ("--beta-steps", dict(type=int, default=32))]),
        ("thermo", cmd_thermo, "energy/entropy/free-energy series",
         [("--t-final", dict(type=float)), ("--dt", dict(type=float)),
          ("--z-var-factor", dict(type=float, default=2.0))]),
        ("whitenoise", cmd_whitenoise, "memory-to-friction limit study",
         [("--epsilons", dict(default="0.5,0.25,0.125")),
          ("--checkpoints", dict(default="0.5,1,2")), ("--base-dt", dict(type=float)),
          ("--n", dict(type=int)), ("--t-final", dict(type=float))]),
    ]
    chosen = [c for c in commands if c[0] in only] or commands
    metavar = None if chosen is commands else "{" + ",".join(c[0] for c in commands) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, handler, summary, options in chosen:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(_run=handler)  # the leading _ keeps it out of argv_overrides
        for flag, kwargs in common + options:
            p.add_argument(flag, **kwargs)
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
    argv = _attach_list_values(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv[:1])
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be at least 1, got {args.threads}")
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
    blocker = _out_blocker(args.out)  # checked before the run, which may take long
    if blocker is not None:
        print(f"ConfigError: --out {args.out}: {blocker} is not a directory", file=sys.stderr)
        return 2

    try:
        table, summary, timings = args._run(args, cfg.model(), rp)
    except ConfigError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 2
    except GlekitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out)  # made only now, so a failed run leaves no directory
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"ConfigError: --out {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    outputs, canonical = [], {}
    if table is not None:
        header, rows = table
        outputs.append(write_table(out_dir, args.command, header, rows, args.format))
        if "wallclock_s" in header:
            i = header.index("wallclock_s")
            zeroed = [row[:i] + [0.0] + row[i + 1 :] for row in rows]
            canonical[outputs[0].path.name] = _sha256(_table_blocks(header, zeroed, args.format))
    outputs.append(write_summary(out_dir, args.command, summary))
    write_manifest(out_dir, args, cfg, rp, outputs, timings, canonical)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
