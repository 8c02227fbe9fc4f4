"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here; the heavy Monte Carlo runs use fixed seeds and are deterministic.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from glekit import limits, quadratic as qa, thermo
from glekit import matrixkit as mk
from glekit.cli import main as cli_main
from glekit.model import Kind
from glekit.particles import (
    BlockLaw,
    InitPoint,
    InitProduct,
    covariance_se,
    empirical_moments,
    init_ensemble,
    make_stepper,
)
from glekit.quadratic import GaussianLaw, propagate_gaussian, split_BK
from glekit.stationary import (
    SelfConsistencyProblem,
    bifurcation_diagram,
    extend_to_full_state,
    fixed_points,
    kfp_residual,
)

from conftest import doublewell_gmv, quadratic_gmv, random_quadratic

# frozen before the build: 10^6-node trapezoid scan of the slope condition
# R'(0; beta) = 1 for the quartic double well with unit interaction; agrees
# with the Gamma-function closed form [Gamma(1/4) / (2 Gamma(3/4))]^2
BETA_CRITICAL_ORACLE = 2.188439615226477

# frozen from the calibration run of the scaled-memory study (seed 2024):
# observed final moment error 0.0114 at eps = 0.125; cap set at ~2.6x
WHITENOISE_ERROR_CAP = 0.03


def report(criterion: str, ok: bool, detail: str, t0: float, budget_s: float):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"[{status}] {criterion}: {detail} ({elapsed:.1f}s / budget {budget_s:.0f}s)")
    assert ok, f"{criterion}: {detail}"
    assert elapsed < budget_s, f"{criterion}: runtime {elapsed:.1f}s over budget {budget_s}s"


def matched_distance(a, b):
    a, b = np.asarray(a, complex), np.asarray(b, complex)
    if a.shape != b.shape:
        return math.inf
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def test_criterion_01_spectrum_oracle_equivalence():
    # the two-particle drift is the smallest system whose eigenvalue multiset
    # equals the characteristic-equation roots branch for branch (a one-
    # particle system has no interaction term at all, so its drift cannot
    # carry the -(omega2+eta2) branch)
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for kind in (Kind.OVERDAMPED, Kind.UNDERDAMPED, Kind.GENERALIZED):
        for i in range(20):
            m = 1 + i % 3
            model = random_quadratic(kind, rng, m=m)
            base = qa.base_spectrum(model)
            eigs = mk.eig(qa.assemble(model, 2).B)
            worst = max(worst, matched_distance(base, eigs))
    report(
        "criterion 1 (spectrum vs assembled-drift eigenvalues)",
        worst <= 1e-10,
        f"worst multiset distance {worst:.2e} over 60 specs",
        t0,
        5.0,
    )


def test_criterion_02_greens_function_vs_monte_carlo():
    t0 = time.perf_counter()
    model = quadratic_gmv(omega2=1.0, eta2=1.0, beta=1.0, lambdas=(1.0,), alphas=(1.0,))
    N, dt = 10_000, 1e-3
    x0 = [1.0, 0.0, 0.0]
    ens = init_ensemble(model, N, seed=2718, init=InitPoint(x0))
    stepper = make_stepper(model, dt)
    checks = {int(round(t / dt)): t for t in (0.5, 1.0, 2.0)}
    worst = 0.0
    for k in range(1, max(checks) + 1):
        stepper.step(ens)
        if k in checks:
            mean, cov, se = empirical_moments(ens)
            law = qa.meanfield_law(model, checks[k], x0)
            worst = max(worst, float(np.max(np.abs(mean - law.mean) / se)))
            worst = max(worst, float(np.max(np.abs(cov - law.cov) / covariance_se(cov, N))))
    report(
        "criterion 2 (Gaussian law vs 1e4-particle Monte Carlo)",
        worst <= 4.0,
        f"worst moment deviation {worst:.2f} standard errors",
        t0,
        60.0,
    )


def test_criterion_03_covariance_ode_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 4))
        B = rng.uniform(-1, 1, (n, n)) - 2.0 * np.eye(n)
        K = rng.uniform(-0.5, 0.5, (n, n))
        R = rng.uniform(-1, 1, (n, n))
        D = R @ R.T
        for t in rng.uniform(0.05, 2.5, 10):
            Q = qa.riccati_covariance(B, K, D, t)
            h = 1e-5
            fd = (
                qa.riccati_covariance(B, K, D, t + h) - qa.riccati_covariance(B, K, D, t - h)
            ) / (2 * h)
            rhs = 2.0 * (D + (B + K) @ Q)
            worst = max(worst, np.max(np.abs(fd - rhs)) / max(1.0, np.max(np.abs(rhs))))
    report(
        "criterion 3 (closed-form covariance solves its defining ODE)",
        worst <= 1e-6,
        f"worst relative residual {worst:.2e} over 10 triples x 10 times",
        t0,
        1.0,
    )


def test_criterion_04_hypoellipticity_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    pairs = []
    for kind in (Kind.OVERDAMPED, Kind.UNDERDAMPED, Kind.GENERALIZED):
        dd = qa.assemble(random_quadratic(kind, rng), 1)
        pairs.append((dd.B, dd.D))
    while len(pairs) < 50:
        n = int(rng.integers(2, 6))
        B = rng.uniform(-1, 1, (n, n))
        k = int(rng.integers(0, n + 1))
        D = np.zeros((n, n))
        if k:
            R = rng.uniform(-1, 1, (n, k))
            D = R @ R.T
        pairs.append((B, D))
    agree = True
    for B, D in pairs:
        _, hypo = mk.kalman_rank(B, D)
        w = np.linalg.eigvalsh(mk.gram_integral(B, D, 1.0))
        nonsingular = w[0] > 1e-10 * max(w[-1], 1e-30)
        agree = agree and (hypo == nonsingular)
    report(
        "criterion 4 (rank test == integrated-noise nonsingularity)",
        agree,
        "50 pairs including the three built-in dynamics kinds",
        t0,
        2.0,
    )


def test_criterion_05_stationary_product_structure():
    t0 = time.perf_counter()
    model = doublewell_gmv(a=1.0, b=1.0, eta2=1.0, beta=3.0)
    N, dt, T = 20_000, 1e-3, 50.0
    init = InitProduct(
        q=BlockLaw(mean=1.0, var=0.25), p=BlockLaw(var=1 / 3), z=BlockLaw(var=1 / 3)
    )
    ens = init_ensemble(model, N, seed=99, init=init)
    stepper = make_stepper(model, dt)
    n_steps = int(round(T / dt))
    mags = []
    for k in range(1, n_steps + 1):
        stepper.step(ens)
        if k % 5000 == 0:
            mags.append(float(ens.q.mean()))
    mean, cov, se = empirical_moments(ens)
    beta_inv = 1.0 / 3.0
    ok, details = True, []

    for name, idx in (("p", 1), ("z", 2)):
        z_mean = abs(mean[idx]) / se[idx]
        var_se = cov[idx, idx] * math.sqrt(2.0 / (N - 1))
        z_var = abs(cov[idx, idx] - beta_inv) / var_se
        ok = ok and z_mean <= 4.0 and z_var <= 4.0
        details.append(f"{name}: mean {z_mean:.2f}SE var {z_var:.2f}SE")
    corr = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    for (i, j), label in (((1, 2), "p-z"), ((0, 1), "q-p"), ((0, 2), "q-z")):
        z_corr = abs(corr[i, j]) * math.sqrt(N)
        ok = ok and z_corr <= 4.0
        details.append(f"corr {label} {z_corr:.2f}SE")

    prob = SelfConsistencyProblem.from_model(model)
    pts = fixed_points(prob)
    mag_final = mags[-1]
    mag_gap = min(abs(mag_final - p.m_star) for p in pts)
    ok = ok and mag_gap <= 0.02
    details.append(f"magnetization {mag_final:.4f} within {mag_gap:.4f} of a fixed point")
    report(
        "criterion 5 (long-time product structure and magnetization)",
        ok,
        "; ".join(details),
        t0,
        300.0,
    )


def _write_bifurcation_config(path: Path, kind: str):
    lines = [
        "[model]",
        f"kind = {kind}",
        "d = 1",
        "beta = 3.0",
        "potential.kind = double_well",
        "potential.params = [1.0, 1.0]",
        "interaction.eta2 = 1.0",
    ]
    if kind == "underdamped":
        lines.append("gamma = 1.0")
    if kind == "generalized":
        lines += ["[memory]", "m = 1", "lambda = [1.0]", "A = [1.0]"]
    path.write_text("\n".join(lines) + "\n")


def test_criterion_06_bifurcation_diagram(tmp_path):
    t0 = time.perf_counter()
    prob = SelfConsistencyProblem.from_model(doublewell_gmv(beta=1.0))
    betas = np.linspace(1.0, 4.0, 16)
    diag = bifurcation_diagram(prob, betas)
    counts = np.array([len(b) for b in diag.branches])
    ok = diag.beta_critical is not None
    ok = ok and abs(diag.beta_critical - BETA_CRITICAL_ORACLE) <= 1e-4
    ok = ok and np.all((counts == 1) == (betas < diag.beta_critical))
    ok = ok and counts[0] == 1 and counts[-1] == 3

    blobs = {}
    for kind in ("overdamped", "underdamped", "generalized"):
        cfg = tmp_path / f"{kind}.conf"
        out = tmp_path / kind
        _write_bifurcation_config(cfg, kind)
        code = cli_main(
            ["bifurcation", "--config", str(cfg), "--out", str(out),
             "--beta-min", "1.0", "--beta-max", "4.0", "--beta-steps", "8"]
        )
        ok = ok and code == 0
        blobs[kind] = (
            (out / "bifurcation.csv").read_bytes(),
            (out / "bifurcation_summary.json").read_bytes(),
        )
    ok = ok and blobs["overdamped"] == blobs["underdamped"] == blobs["generalized"]
    report(
        "criterion 6 (branch transition, critical point, kind-independence)",
        ok,
        f"beta_c {diag.beta_critical:.6f} vs oracle {BETA_CRITICAL_ORACLE:.6f}; "
        "three dynamics kinds produce byte-identical diagrams",
        t0,
        30.0,
    )


def test_criterion_07_stationary_operator_residual():
    t0 = time.perf_counter()
    model = doublewell_gmv(beta=2.5)
    pts = fixed_points(SelfConsistencyProblem.from_model(model))
    dens = extend_to_full_state(pts[-1].m_star, model)
    residuals, spacings = [], []
    for h in (0.3, 0.15, 0.075):
        n = int(round(10.0 / h)) + 1
        ax = np.linspace(-5.0, 5.0, n)
        residuals.append(kfp_residual(dens.on_grid(ax, ax, ax), model))
        spacings.append(10.0 / (n - 1))
    orders = [
        math.log(residuals[i] / residuals[i + 1]) / math.log(spacings[i] / spacings[i + 1])
        for i in range(2)
    ]
    n = int(round(10.0 / 0.075)) + 1
    ax = np.linspace(-5.0, 5.0, n)
    bad = dens.on_grid(ax, ax, ax)
    scale = math.sqrt(1.2)
    bad.values = (
        bad.values / dens.gaussian_factor(ax)[None, :, None]
        * (dens.gaussian_factor(ax / scale) / scale)[None, :, None]
    )
    ratio = kfp_residual(bad, model) / residuals[-1]
    ok = all(o >= 1.8 for o in orders) and ratio >= 10.0
    report(
        "criterion 7 (stationary-operator residual convergence)",
        ok,
        f"orders {orders[0]:.2f}, {orders[1]:.2f}; perturbed/unperturbed ratio {ratio:.1f}",
        t0,
        120.0,
    )


def test_criterion_08_thermodynamic_laws():
    t0 = time.perf_counter()
    model = quadratic_gmv(beta=1.0)
    law0 = thermo.stationary_law(model)
    cov = law0.cov.copy()
    cov[2:, 2:] *= 2.0
    rho0 = GaussianLaw(mean=law0.mean, cov=cov)
    series = thermo.evolve_coupled(rho0, model, dt=1e-3, T=5.0)
    scale = max(1.0, abs(series.energy[0]))
    e_drift = float(np.max(np.abs(series.energy - series.energy[0]))) / scale
    f_mono = bool(np.all(np.diff(series.free_energy) <= 1e-8))
    s_mono = bool(np.all(np.diff(series.entropy) >= -1e-8))

    B, K, D = split_BK(model)
    delta, worst_rel = 1e-4, 0.0
    for t in np.linspace(0.4, 4.5, 10):
        f = lambda s: thermo.free_energy(propagate_gaussian(B, K, D, s, rho0), model)
        dF = (f(t + delta) - f(t - delta)) / (2 * delta)
        w = thermo.dissipation(propagate_gaussian(B, K, D, t, rho0), model)
        worst_rel = max(worst_rel, abs(dF + w) / max(abs(w), 1e-12))

    r1s, r2s = [], []
    for h in (0.2, 0.1):
        n = int(round(10.0 / h)) + 1
        ax = np.linspace(-5.0, 5.0, n)
        grid = _gaussian_grid(rho0, ax)
        r1, r2 = thermo.degeneracy_residual(grid, model)
        r1s.append(r1)
        r2s.append(r2)
    r1_order = math.log(r1s[0] / r1s[1]) / math.log(2.0)
    r2_exact = all(r <= 1e-12 for r in r2s)  # cancels nodewise, below any order

    ok = (
        e_drift <= 1e-6
        and f_mono
        and s_mono
        and worst_rel <= 1e-4
        and r1_order >= 1.8
        and r2_exact
    )
    report(
        "criterion 8 (first/second law, dissipation balance, degeneracy)",
        ok,
        f"E drift {e_drift:.1e}, dF/dt vs dissipation {worst_rel:.1e}, "
        f"reversible-block order {r1_order:.2f}, irreversible block exact to rounding",
        t0,
        30.0,
    )


def _gaussian_grid(law, ax):
    from glekit.stationary import GridDensity

    prec = np.linalg.inv(law.cov)
    qg, pg, zg = np.meshgrid(ax, ax, ax, indexing="ij")
    dx = np.stack([qg - law.mean[0], pg - law.mean[1], zg - law.mean[2]], axis=-1)
    quad = np.einsum("...i,ij,...j->...", dx, prec, dx)
    norm = (2 * np.pi) ** 1.5 * math.sqrt(np.linalg.det(law.cov))
    return GridDensity(q=ax, p=ax, z=ax, values=np.exp(-0.5 * quad) / norm)


def test_criterion_09_white_noise_limit():
    t0 = time.perf_counter()
    model = quadratic_gmv(omega2=1.0, eta2=1.0, beta=1.0, lambdas=(1.0,), alphas=(1.0,))
    res = limits.run_study(
        model,
        epsilons=(0.5, 0.25, 0.125),
        N=10_000,
        T=2.0,
        dt=1e-3,
        seed=2024,
        checkpoints=(0.5, 1.0, 2.0),
    )
    errs = [r.error for r in res.rows]
    ses = [r.se for r in res.rows]
    monotone = all(
        errs[i + 1] <= errs[i] + 2.0 * (ses[i] + ses[i + 1]) for i in range(len(errs) - 1)
    )
    decisive = errs[0] - errs[-1] > 2.0 * (ses[0] + ses[-1])
    capped = errs[-1] <= WHITENOISE_ERROR_CAP

    rng = np.random.default_rng(7)
    inv_ok = True
    for _ in range(20):
        lam = rng.uniform(-2, 2, (2, 1))
        A = np.diag(rng.uniform(0.3, 3, 2))
        eps = rng.uniform(0.05, 1.0)
        g0 = limits.effective_gamma(lam, A)
        g1 = limits.effective_gamma(lam / eps, A / eps**2)
        inv_ok = inv_ok and abs(g0 - g1) <= 1e-14 * max(1.0, abs(g0))

    gamma = limits.effective_gamma(model.memory.lam, model.memory.A)
    from conftest import quadratic_umv

    ref = qa.base_spectrum(quadratic_umv(omega2=1.0, eta2=1.0, gamma=gamma))
    slow_err = matched_distance(limits.slow_eigenvalues(model, 0.05), ref)

    ok = monotone and decisive and capped and inv_ok and slow_err <= 1e-2
    report(
        "criterion 9 (memory-to-friction limit)",
        ok,
        f"errors {['%.4f' % e for e in errs]}, cap {WHITENOISE_ERROR_CAP}, "
        f"slow-eigenvalue tracking {slow_err:.2e}",
        t0,
        300.0,
    )


SUBCOMMAND_RUNS = {
    "validate": [],
    "simulate": ["--n", "128", "--t-final", "0.1", "--dt", "0.005", "--record-every", "10"],
    "spectrum": ["--cap", "3"],
    "greens": ["--times", "0.5,1"],
    "stationary": [],
    "bifurcation": ["--beta-min", "1.5", "--beta-max", "3.0", "--beta-steps", "4"],
    "thermo": ["--t-final", "0.5", "--dt", "0.005"],
    "whitenoise": [
        "--n", "128", "--t-final", "0.5", "--epsilons", "0.5,0.25",
        "--checkpoints", "0.25,0.5", "--base-dt", "0.002",
    ],
}


def _run_all_subcommands(cfg: Path, out_root: Path, tag: str, threads: int):
    outputs = {}
    for cmd, extra in SUBCOMMAND_RUNS.items():
        out = out_root / f"{tag}-{cmd}"
        code = cli_main(
            [cmd, "--config", str(cfg), "--out", str(out), "--seed", "5",
             "--threads", str(threads)] + [str(a) for a in extra]
        )
        assert code == 0, f"{cmd} failed"
        manifest = json.loads((out / "manifest.json").read_text())
        for entry in manifest["outputs"]:
            key = (cmd, entry["path"])
            # the wallclock column is timing metadata; its canonical checksum
            # (column zeroed) is the reproducibility contract for that file
            outputs[key] = entry.get("canonical_sha256", entry["sha256"])
    return outputs


def test_criterion_10_byte_reproducibility(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "model.conf"
    cfg.write_text(
        "\n".join(
            [
                "[model]",
                "kind = generalized",
                "d = 1",
                "beta = 1.0",
                "potential.kind = quadratic",
                "potential.params = [1.0]",
                "interaction.eta2 = 1.0",
                "[memory]",
                "m = 1",
                "lambda = [1.0]",
                "A = [1.0]",
                "[run]",
                "N = 128",
                "T = 0.1",
                "dt = 0.005",
                "seed = 5",
                "record_every = 10",
            ]
        )
        + "\n"
    )
    runs = {
        tag: _run_all_subcommands(cfg, tmp_path, tag, threads)
        for tag, threads in (("t1", 1), ("t1-again", 1), ("t2", 2), ("t8", 8))
    }
    baseline = runs["t1"]
    ok = all(runs[tag] == baseline for tag in ("t1-again", "t2", "t8"))
    report(
        "criterion 10 (byte-identical outputs across reruns and thread counts)",
        ok,
        f"{len(baseline)} output files x 4 runs compared",
        t0,
        600.0,
    )
