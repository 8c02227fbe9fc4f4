"""Workloads of the glekit benchmark and the checks on what they write.

A workload is a fixed list of ``glekit`` command-line invocations.  One pass
of a workload runs them in order, in one fresh process, with the benchmark
seed passed as ``--seed``.  The horizons (``--t-final``) are sized so that a
pass takes one to three seconds on a 2-core machine; see README.md for why
each workload exists and which layers it bypasses.

Each check returns a list of problems (empty when the output is right).  The
references and tolerances are the ones the acceptance suite uses; a failing
check is reported, never loosened.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BETA_CRITICAL_ORACLE = 2.188439615226477  # frozen trapezoid-oracle value (criterion 6)
BETA_C_TOL = 1e-4
WHITENOISE_ERROR_CAP = 0.03  # criterion 9
MC_SE_LIMIT = 4.0  # criterion 2: moments within 4 standard errors
ENERGY_DRIFT_CAP = 1e-6  # criterion 8
MONOTONE_SLACK = 1e-8  # criterion 8
GREENS_QUAD_TOL = 1e-8

# N = 2e4 particles, dt = 1e-3, 400 steps per dynamics kind
SIMULATE_FLAGS = ("--n", "20000", "--dt", "0.001", "--t-final", "0.4", "--record-every", "100")


@dataclass(frozen=True)
class Invocation:
    """One ``glekit`` call: subcommand, config (relative to the checkout) and flags."""

    label: str
    command: str
    config: str
    flags: tuple[str, ...] = ()
    check: Optional[Callable[[Path, Path], list[str]]] = None

    def argv(self, root: Path, out: Path, seed: int, threads: int) -> list[str]:
        return [
            self.command, "--config", str(root / self.config), "--out", str(out),
            "--seed", str(seed), "--threads", str(threads), *self.flags,
        ]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _read_numeric_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def _finite_table(path: Path) -> list[str]:
    _, rows = _read_numeric_csv(path)
    if not rows:
        return [f"{path.name}: no rows"]
    if not all(math.isfinite(v) for row in rows for v in row):
        return [f"{path.name}: non-finite value"]
    return []


def check_simulate_finite(out: Path, config: Path) -> list[str]:
    return _finite_table(out / "simulate.csv")


def check_simulate_gaussian(out: Path, config: Path) -> list[str]:
    """Finite table, and moments of a quadratic run match the exact law within 4 SE.

    The reference is ``quadratic.propagate_gaussian`` from the CLI's initial
    law: q at 1, p (and z) centred Gaussian with variance 1/beta.
    """
    import numpy as np
    from glekit import particles, quadratic
    from glekit.config import load_config
    from glekit.model import Kind

    problems = _finite_table(out / "simulate.csv")
    if problems:
        return problems
    model = load_config(config).model()
    B, K, D = quadratic.split_BK(model)
    var0 = model.beta_inv if model.beta_inv > 0 else 1.0
    kinetic = model.kind is not Kind.OVERDAMPED
    if kinetic:
        law0 = quadratic.GaussianLaw(mean=[1.0, 0.0], cov=np.diag([0.0, var0]))
    else:
        law0 = quadratic.GaussianLaw(mean=[1.0], cov=[[0.0]])
    N = json.loads((out / "simulate_summary.json").read_text())["N"]
    header, rows = _read_numeric_csv(out / "simulate.csv")
    col = {name: i for i, name in enumerate(header)}
    worst = 0.0
    for row in rows:
        t = row[col["t"]]
        if t <= 0.0:
            continue
        law = quadratic.propagate_gaussian(B, K, D, t, law0)
        if kinetic:
            mean = np.array([row[col["mean_q"]], row[col["mean_p"]]])
            se = np.array([row[col["se_mean_q"]], row[col["se_mean_p"]]])
            cqp = row[col["cov_qp"]]
            cov = np.array([[row[col["var_q"]], cqp], [cqp, row[col["var_p"]]]])
        else:
            mean = np.array([row[col["mean_q"]]])
            se = np.array([row[col["se_mean_q"]]])
            cov = np.array([[row[col["var_q"]]]])
        worst = max(worst, float(np.max(np.abs(mean - law.mean) / se)))
        cov_se = particles.covariance_se(cov, N)
        worst = max(worst, float(np.max(np.abs(cov - law.cov) / cov_se)))
    if worst > MC_SE_LIMIT:
        return [f"simulate moments {worst:.2f} SE from propagate_gaussian (limit {MC_SE_LIMIT})"]
    return []


def check_whitenoise(out: Path, config: Path) -> list[str]:
    """Errors do not increase within 2 SE; the error at the smallest epsilon is <= 0.03."""
    header, rows = _read_numeric_csv(out / "whitenoise.csv")
    col = {name: i for i, name in enumerate(header)}
    errs = [r[col["error"]] for r in rows]
    ses = [r[col["se"]] for r in rows]
    problems = []
    if len(errs) < 2 or not all(math.isfinite(e) and e >= 0.0 for e in errs):
        return [f"whitenoise errors missing or invalid: {errs}"]
    for i in range(len(errs) - 1):
        if errs[i + 1] > errs[i] + 2.0 * (ses[i] + ses[i + 1]):
            problems.append(f"whitenoise error rises at row {i + 1}: {errs}")
    if errs[-1] > WHITENOISE_ERROR_CAP:
        problems.append(f"whitenoise error {errs[-1]:.4f} above cap {WHITENOISE_ERROR_CAP}")
    return problems


def check_bifurcation(out: Path, config: Path) -> list[str]:
    """beta_c within 1e-4 of the oracle; one branch below beta_c, three above."""
    summary = json.loads((out / "bifurcation_summary.json").read_text())
    beta_c = summary["beta_critical"]
    if beta_c is None or abs(beta_c - BETA_CRITICAL_ORACLE) > BETA_C_TOL:
        return [f"beta_c {beta_c} not within {BETA_C_TOL} of {BETA_CRITICAL_ORACLE}"]
    lo, hi, steps = (summary[k] for k in ("beta_min", "beta_max", "beta_steps"))
    problems = []
    for i, count in enumerate(summary["branch_counts"]):
        beta = lo + (hi - lo) * i / (steps - 1)
        want = 1 if beta < beta_c else 3
        if count != want:
            problems.append(f"beta {beta:.4f}: {count} branches, expected {want}")
    return problems


def check_thermo(out: Path, config: Path) -> list[str]:
    """Energy drift <= 1e-6 (relative to max(1, |E0|)); entropy up, free energy down."""
    header, rows = _read_numeric_csv(out / "thermo.csv")
    col = {name: i for i, name in enumerate(header)}
    E = [r[col["E"]] for r in rows]
    S = [r[col["S"]] for r in rows]
    F = [r[col["F"]] for r in rows]
    problems = []
    drift = max(abs(e - E[0]) for e in E) / max(1.0, abs(E[0]))
    if drift > ENERGY_DRIFT_CAP:
        problems.append(f"energy drift {drift:.2e} above {ENERGY_DRIFT_CAP}")
    if any(b - a < -MONOTONE_SLACK for a, b in zip(S, S[1:])):
        problems.append("entropy decreases")
    if any(b - a > MONOTONE_SLACK for a, b in zip(F, F[1:])):
        problems.append("free energy increases")
    return problems


def check_greens(out: Path, config: Path) -> list[str]:
    """Covariances match an independent quad_vec quadrature of the Gram integral to 1e-8.

    The drift and diffusion matrices are written out here by hand for the
    generalized kind with d = m = 1, rather than taken from ``glekit.quadratic``.
    """
    import numpy as np
    from scipy.integrate import quad_vec
    from scipy.linalg import expm
    from glekit.config import load_config

    model = load_config(config).model()
    if model.d != 1 or model.m != 1:
        return ["greens reference is written for d = m = 1"]
    w2, eta2, bi = model.omega2, model.eta2, model.beta_inv
    lam = float(np.asarray(model.memory.lam).ravel()[0])
    alpha = float(np.asarray(model.memory.A).ravel()[0])
    M = np.array([[0.0, 1.0, 0.0], [-w2 - eta2, 0.0, lam], [0.0, -lam, -alpha]])
    D2 = np.diag([0.0, 0.0, 2.0 * bi * alpha])
    header, rows = _read_numeric_csv(out / "greens.csv")
    col = {name: i for i, name in enumerate(header)}
    worst = 0.0
    for row in rows:
        t = row[col["t"]]
        ref, _ = quad_vec(lambda s: expm(s * M) @ D2 @ expm(s * M).T, 0.0, t,
                          epsabs=1e-13, epsrel=1e-12)
        for i in range(3):
            for j in range(i, 3):
                worst = max(worst, abs(row[col[f"cov_{i}_{j}"]] - ref[i, j]))
    if worst > GREENS_QUAD_TOL:
        return [f"greens covariance {worst:.2e} from quadrature (limit {GREENS_QUAD_TOL})"]
    return []


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    "ensemble": (
        Invocation("generalized_doublewell", "simulate", "configs/doublewell_gmv.conf",
                   SIMULATE_FLAGS, check_simulate_finite),
        Invocation("underdamped_quadratic", "simulate", "configs/quadratic_umv.conf",
                   SIMULATE_FLAGS, check_simulate_gaussian),
        Invocation("overdamped_quadratic", "simulate", "bench/quadratic_omv.conf",
                   SIMULATE_FLAGS, check_simulate_gaussian),
    ),
    "whitenoise": (
        Invocation("whitenoise", "whitenoise", "configs/quadratic_gmv.conf",
                   ("--epsilons", "0.5,0.25,0.125", "--n", "10000", "--t-final", "0.2",
                    "--checkpoints", "0.1,0.2"),
                   check_whitenoise),
    ),
    "bifurcation": (
        Invocation("bifurcation", "bifurcation", "configs/doublewell_gmv.conf",
                   ("--beta-min", "1", "--beta-max", "4", "--beta-steps", "32"),
                   check_bifurcation),
    ),
    "gaussian": (
        Invocation("thermo", "thermo", "configs/quadratic_gmv.conf", (), check_thermo),
        Invocation("greens", "greens", "configs/quadratic_gmv.conf",
                   ("--times", "0.5,1,2"), check_greens),
        Invocation("spectrum", "spectrum", "configs/quadratic_gmv.conf", ("--cap", "4")),
    ),
}
