import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glekit.stationary as stationary
from glekit.errors import GridTooCoarse, ShapeMismatch
from glekit.model import CustomPotential, DoubleWell, Quadratic
from glekit.stationary import (
    SelfConsistencyProblem,
    _critical_gap,
    _fold_slopes,
    bifurcation_diagram,
    critical_beta,
    default_window,
    extend_to_full_state,
    fixed_points,
    kfp_residual,
    map_derivative,
    self_consistency_map,
)

from conftest import doublewell_gmv, quadratic_gmv

# derived before the build with an independent 10^6-node trapezoid scan of
# R'(0; beta) = 1; agrees with the Gamma-function closed form for this family
BETA_CRITICAL_DW11_ETA1 = 2.188439615226477

# V = q^4/4 - q^2/2 + 0.05 q: the tilt turns the pitchfork into a fold (saddle-node)
# at beta_f ~ 3.2219453 for eta2 = 1, where an unstable and a stable root appear
# together at m ~ 0.415, within one scan spacing (2L/80 = 0.075) of each other
TILTED = CustomPotential(
    energy=lambda q: np.sum(0.25 * q**4 - 0.5 * q**2 + 0.05 * q, axis=-1),
    gradient=lambda q: q**3 - q + 0.05,
)
BETA_FOLD_TILTED = 3.2219453


# ---------------------------------------------------------------------------
# independent trapezoid oracle
# ---------------------------------------------------------------------------


def r_trapezoid(potential, eta2, beta, m, L=10.0, n=100_001):
    q = np.linspace(-L, L, n)
    phi = -beta * (potential.energy(q[:, None]) + 0.5 * eta2 * (q - m) ** 2)
    phi -= phi.max()
    w = np.exp(phi)
    return float(np.trapezoid(q * w, q) / np.trapezoid(w, q))


def bisected_roots(prob, width=1e-14):
    """The bisection solver fixed_points used before Newton: scan brackets, then halving."""
    quad = prob._quadrature
    ms = np.arange(-40, 41) * (quad.L / 40)
    _, mean, var = quad.moments(ms)
    f, df = mean - ms, quad.c * var - 1.0
    above = np.where(f == 0.0, np.sign(df), np.sign(f))
    below = np.where(f == 0.0, -np.sign(df), np.sign(f))
    i = np.flatnonzero(above[:-1] * below[1:] < 0)
    lo, hi, s_lo = ms[i], ms[i + 1], above[i]
    for _ in range(200):
        if not np.any(hi - lo > width):
            break
        mid = 0.5 * (lo + hi)
        s_mid = np.sign(quad.moments(mid)[1] - mid)
        lo = np.where(s_mid != -s_lo, mid, lo)
        hi = np.where(s_mid != s_lo, mid, hi)
    roots = []
    for r in np.sort(np.concatenate([ms[f == 0.0], 0.5 * (lo + hi)])):
        if not roots or r - roots[-1] >= 1e-8:
            roots.append(float(r))
    return roots


# ---------------------------------------------------------------------------
# the map
# ---------------------------------------------------------------------------


def test_map_quadratic_closed_form():
    prob = SelfConsistencyProblem(potential=Quadratic(1.0), eta2=1.0, beta=1.7)
    assert self_consistency_map(prob, 1.0) == pytest.approx(0.5, abs=1e-11)
    # contraction slope eta2/(omega2+eta2) everywhere
    for m in (-2.0, 0.3, 1.5):
        assert map_derivative(prob, m) == pytest.approx(0.5, abs=1e-6)


def test_map_derivative_is_exact_for_quadratic():
    # R'(m) = beta eta2 Var_m(q) = beta eta2 / (beta (omega2 + eta2)) = 1/2, with no step error
    prob = SelfConsistencyProblem(potential=Quadratic(1.0), eta2=1.0, beta=1.7)
    for m in (-2.0, 0.3, 1.5):
        assert map_derivative(prob, m) == pytest.approx(0.5, abs=1e-12)


def test_map_vanishes_at_zero_for_even_potential():
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=4.0)
    assert abs(self_consistency_map(prob, 0.0)) <= 1e-12


def test_map_against_trapezoid_oracle():
    pot = DoubleWell(1.0, 1.0)
    prob = SelfConsistencyProblem(potential=pot, eta2=1.0, beta=5.0, L=10.0)
    oracle = r_trapezoid(pot, 1.0, 5.0, 0.5, L=10.0, n=1_000_001)
    assert self_consistency_map(prob, 0.5) == pytest.approx(oracle, abs=1e-9)


@settings(deadline=None, max_examples=20)
@given(
    beta=st.floats(min_value=0.5, max_value=6.0),
    eta2=st.floats(min_value=0.0, max_value=2.0),
    m=st.floats(min_value=0.0, max_value=2.0),
)
def test_map_is_odd_for_even_potential(beta, eta2, m):
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=eta2, beta=beta)
    assert self_consistency_map(prob, m) == pytest.approx(
        -self_consistency_map(prob, -m), abs=1e-11
    )


@pytest.mark.parametrize("potential", [DoubleWell(1.0, 1.0), TILTED], ids=["doublewell", "tilted"])
@pytest.mark.parametrize("m", [-0.6, 0.1, 0.45, 1.3])
def test_second_slope_is_c_squared_times_the_third_central_moment(potential, m):
    # R''(m) = (beta eta2)^2 kappa3_m(q), against a central difference of the exact R'
    prob = SelfConsistencyProblem(potential=potential, eta2=1.0, beta=3.0)
    df, d2f = _fold_slopes(prob._quadrature, [m])
    assert df[0] == pytest.approx(map_derivative(prob, m) - 1.0, abs=1e-14)
    h = 1e-4
    fd = (map_derivative(prob, m + h) - map_derivative(prob, m - h)) / (2 * h)
    assert d2f[0] == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("beta", [1.5, BETA_CRITICAL_DW11_ETA1, 3.0])
def test_critical_gap_slope_matches_a_central_difference(beta):
    # g'(beta) = eta2 Var - beta eta2 Cov((q - mu)^2, V + eta2 q^2 / 2) at m = 0
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=1.0)
    g, dg = _critical_gap(prob, [beta])
    assert g[0] == pytest.approx(map_derivative(replace(prob, beta=beta), 0.0) - 1.0, abs=1e-14)
    h = 1e-4
    (g_hi, g_lo), _ = _critical_gap(prob, [beta + h, beta - h])
    assert dg[0] == pytest.approx((g_hi - g_lo) / (2 * h), rel=1e-6)


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
def test_problem_rejects_a_beta_that_is_not_finite_and_positive(beta):
    # exp(-beta V) with beta <= 0 cannot be normalized, and beta = inf has no density
    with pytest.raises(ShapeMismatch):
        SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=beta)
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=1.0)
    with pytest.raises(ShapeMismatch):
        critical_beta(prob, beta, 2.0)


def test_window_tail_bound():
    for beta in (0.5, 1.0, 5.0):
        pot = DoubleWell(1.0, 1.0)
        L = default_window(pot, 1.0, beta)
        qs = np.linspace(-L, L, 4001)
        phi = -beta * pot.energy(qs[:, None])
        assert np.exp(phi[0] - phi.max()) < 1e-14
        assert np.exp(phi[-1] - phi.max()) < 1e-14


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------


def test_fixed_points_quadratic_unique_stable():
    prob = SelfConsistencyProblem(potential=Quadratic(1.0), eta2=1.0, beta=3.0)
    pts = fixed_points(prob)
    assert len(pts) == 1
    assert pts[0].m_star == pytest.approx(0.0, abs=1e-10)
    assert pts[0].stable
    assert abs(pts[0].r_prime) == pytest.approx(0.5, abs=1e-6)


def test_fixed_points_high_temperature_single_branch():
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=1.0)
    pts = fixed_points(prob)
    assert len(pts) == 1
    assert pts[0].m_star == pytest.approx(0.0, abs=1e-10)
    assert pts[0].stable


def test_fixed_points_low_temperature_pitchfork():
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=3.0)
    pts = fixed_points(prob)
    assert len(pts) == 3
    ms = [p.m_star for p in pts]
    assert ms[0] == pytest.approx(-ms[2], abs=1e-9)
    assert ms[1] == pytest.approx(0.0, abs=1e-10)
    assert [p.stability for p in pts] == ["stable", "unstable", "stable"]
    assert all(p.residual <= 1e-10 for p in pts)


@pytest.mark.parametrize(
    "offset, stabilities",
    [(1e-4, ["stable", "unstable", "stable"]), (1e-3, ["stable", "unstable", "stable"]),
     (-1e-3, ["stable"])],
)
def test_fixed_points_near_beta_c(offset, stabilities):
    # just above beta_c the stable pair sits within one scan spacing of the root at m = 0
    prob = SelfConsistencyProblem(
        potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=BETA_CRITICAL_DW11_ETA1 + offset
    )
    pts = fixed_points(prob)
    assert [p.stability for p in pts] == stabilities
    ms = [p.m_star for p in pts]
    assert ms[len(ms) // 2] == pytest.approx(0.0, abs=1e-10)
    assert ms[0] == pytest.approx(-ms[-1], abs=1e-9)
    assert all(p.residual <= 1e-10 for p in pts)


def test_fixed_points_agree_with_trapezoid_scan_oracle():
    pot = DoubleWell(1.0, 1.0)
    settings_list = [(b, e) for b in (1.0, 2.0, 2.5, 3.0, 5.0) for e in (0.5, 1.0)]
    for beta, eta2 in settings_list:
        prob = SelfConsistencyProblem(potential=pot, eta2=eta2, beta=beta)
        pts = fixed_points(prob)
        # brute-force: bracket sign changes of the trapezoid map on a dense scan
        ms = np.linspace(-4.0, 4.0, 201)
        f = np.array([r_trapezoid(pot, eta2, beta, m) - m for m in ms])
        roots = []
        for i in range(len(ms) - 1):
            if f[i] == 0.0:
                roots.append(ms[i])
            elif f[i] * f[i + 1] < 0:
                a, b = ms[i], ms[i + 1]
                fa = f[i]
                for _ in range(60):
                    mid = 0.5 * (a + b)
                    fm = r_trapezoid(pot, eta2, beta, mid) - mid
                    if (fm < 0) == (fa < 0):
                        a, fa = mid, fm
                    else:
                        b = mid
                roots.append(0.5 * (a + b))
        assert len(roots) == len(pts), f"beta={beta}, eta2={eta2}"
        for r, p in zip(sorted(roots), pts):
            assert abs(r - p.m_star) <= 1e-7


def test_fixed_points_find_both_roots_born_past_a_fold():
    # just past the fold both new roots fall in one scan interval, where f < 0 at
    # both nodes; a dense scan of the same map finds -0.7761, 0.3830 and 0.4490
    prob = SelfConsistencyProblem(potential=TILTED, eta2=1.0, beta=BETA_FOLD_TILTED + 0.01)
    pts = fixed_points(prob)
    assert [p.stability for p in pts] == ["stable", "unstable", "stable"]
    assert [p.m_star for p in pts] == pytest.approx([-0.7761, 0.3830, 0.4490], abs=1e-4)
    assert all(p.residual <= 1e-12 for p in pts)
    ms = np.linspace(-2.0, 2.0, 4001)
    f = prob._quadrature.moments(ms)[1] - ms
    assert np.count_nonzero(np.sign(f[:-1]) != np.sign(f[1:])) == len(pts)


def test_fixed_points_before_the_fold_keep_one_root():
    prob = SelfConsistencyProblem(potential=TILTED, eta2=1.0, beta=BETA_FOLD_TILTED - 0.01)
    assert [p.stability for p in fixed_points(prob)] == ["stable"]


@pytest.mark.parametrize(
    "potential, betas",
    [
        (DoubleWell(1.0, 1.0), [*np.linspace(1.0, 4.0, 13), BETA_CRITICAL_DW11_ETA1 - 1e-3,
                                BETA_CRITICAL_DW11_ETA1 + 1e-3, 6.0]),
        (Quadratic(1.0), [0.5, 1.0, BETA_CRITICAL_DW11_ETA1 - 1e-3, BETA_CRITICAL_DW11_ETA1 + 1e-3,
                          4.0]),
        (TILTED, [*np.linspace(1.0, 4.0, 13), BETA_CRITICAL_DW11_ETA1 - 1e-3,
                  BETA_CRITICAL_DW11_ETA1 + 1e-3, BETA_FOLD_TILTED + 0.05, 6.0]),
    ],
    ids=["doublewell", "quadratic", "tilted"],
)
@pytest.mark.parametrize("eta2", [0.5, 1.0])
def test_newton_roots_agree_with_the_bisection_oracle(potential, betas, eta2):
    for beta in betas:
        prob = SelfConsistencyProblem(potential=potential, eta2=eta2, beta=float(beta))
        pts = fixed_points(prob)
        found = np.array([p.m_star for p in pts])
        for r in bisected_roots(prob):
            p = pts[int(np.argmin(np.abs(found - r)))]
            if abs(p.r_prime - 1.0) >= 1e-2:
                assert abs(p.m_star - r) <= 1e-12, f"beta={beta}, root {r}"
            else:  # near-double roots are fixed only to eps / |f'| by either solver
                assert abs(p.m_star - r) <= 1e-9, f"beta={beta}, root {r}"


# ---------------------------------------------------------------------------
# bifurcation diagram
# ---------------------------------------------------------------------------


def test_bifurcation_quadratic_no_transition():
    prob = SelfConsistencyProblem(potential=Quadratic(1.0), eta2=1.0, beta=1.0)
    diag = bifurcation_diagram(prob, np.linspace(0.5, 6.0, 12))
    assert diag.beta_critical is None
    assert all(len(b) == 1 for b in diag.branches)
    assert all(b[0].m_star == pytest.approx(0.0, abs=1e-10) for b in diag.branches)


def test_bifurcation_doublewell_branch_transition():
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=1.0)
    betas = np.linspace(1.0, 4.0, 13)
    diag = bifurcation_diagram(prob, betas)
    counts = np.array([len(b) for b in diag.branches])
    assert counts[0] == 1 and counts[-1] == 3
    assert diag.beta_critical == pytest.approx(BETA_CRITICAL_DW11_ETA1, abs=1e-4)
    # branch counts flip exactly at the critical crossing
    assert np.all((counts == 1) == (betas < diag.beta_critical))


def test_bifurcation_without_interaction_is_flat():
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=0.0, beta=1.0)
    diag = bifurcation_diagram(prob, np.linspace(1.0, 6.0, 6))
    assert diag.beta_critical is None
    for pts in diag.branches:
        assert len(pts) == 1
        assert pts[0].m_star == pytest.approx(0.0, abs=1e-10)


def test_bifurcation_workload_quadrature_pass_and_window_counts(monkeypatch):
    # the 32-beta scan of the bifurcation benchmark: 1094 quadrature passes and
    # 71 windows with bisection; the Newton solver needs about 265 and 38
    calls = {"passes": 0, "windows": 0}

    def counted(fn, key):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    for name in ("moments", "central"):
        monkeypatch.setattr(stationary._Quadrature, name,
                            counted(getattr(stationary._Quadrature, name), "passes"))
    monkeypatch.setattr(stationary, "default_window", counted(default_window, "windows"))
    prob = SelfConsistencyProblem.from_model(doublewell_gmv())
    diag = bifurcation_diagram(prob, np.linspace(1.0, 4.0, 32))
    assert abs(diag.beta_critical - BETA_CRITICAL_DW11_ETA1) <= 1e-12
    assert calls["passes"] <= 450
    assert calls["windows"] <= 45


def test_critical_beta_bisection_accuracy():
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=1.0)
    bc = critical_beta(prob, 1.0, 4.0, tol=1e-6)
    assert bc == pytest.approx(BETA_CRITICAL_DW11_ETA1, abs=1e-4)


def test_critical_beta_reaches_the_oracle_at_tight_tolerance():
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=1.0)
    bc = critical_beta(prob, 1.0, 4.0, tol=1e-12)
    assert abs(bc - BETA_CRITICAL_DW11_ETA1) <= 1e-9


# ---------------------------------------------------------------------------
# full-state density
# ---------------------------------------------------------------------------


def test_extend_marginal_variances():
    model = doublewell_gmv(beta=3.0)
    pts = fixed_points(SelfConsistencyProblem.from_model(model))
    dens = extend_to_full_state(pts[-1].m_star, model)
    # p and z factors are centered Gaussians with variance 1/beta
    xs = np.linspace(-6, 6, 20001)
    g = dens.gaussian_factor(xs)
    assert np.trapezoid(g, xs) == pytest.approx(1.0, abs=1e-12)
    assert np.trapezoid(xs**2 * g, xs) == pytest.approx(1.0 / 3.0, abs=1e-10)
    # q marginal is normalized and integrating out p, z leaves it unchanged
    h = dens.q_density(xs)
    assert np.trapezoid(h, xs) == pytest.approx(1.0, abs=1e-9)


def test_extend_full_density_normalization():
    model = doublewell_gmv(beta=3.0)
    pts = fixed_points(SelfConsistencyProblem.from_model(model))
    dens = extend_to_full_state(pts[-1].m_star, model)
    ax = np.linspace(-5.0, 5.0, 81)
    grid = dens.on_grid(ax, ax, ax)
    h = ax[1] - ax[0]
    assert grid.values.sum() * h**3 == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# stationary-operator residual
# ---------------------------------------------------------------------------


def _residuals_on_grids(model, dens, spacings):
    out = []
    for h in spacings:
        n = int(round(10.0 / h)) + 1
        ax = np.linspace(-5.0, 5.0, n)
        out.append(kfp_residual(dens.on_grid(ax, ax, ax), model))
    return out


def test_kfp_residual_second_order_convergence():
    model = doublewell_gmv(beta=3.0)
    pts = fixed_points(SelfConsistencyProblem.from_model(model))
    dens = extend_to_full_state(pts[-1].m_star, model)
    r_coarse, r_fine = _residuals_on_grids(model, dens, (0.2, 0.1))
    order = math.log(r_coarse / r_fine) / math.log(2.0)
    assert order >= 1.7, f"observed order {order}"


def test_kfp_residual_detects_wrong_momentum_temperature():
    model = doublewell_gmv(beta=3.0)
    pts = fixed_points(SelfConsistencyProblem.from_model(model))
    dens = extend_to_full_state(pts[-1].m_star, model)
    n = 134  # h = 0.075: fine enough that the true residual is far below the defect
    ax = np.linspace(-5.0, 5.0, n)
    good = dens.on_grid(ax, ax, ax)
    r_good = kfp_residual(good, model)
    bad = dens.on_grid(ax, ax, ax)
    scale = math.sqrt(1.2)
    fp_bad = dens.gaussian_factor(ax / scale) / scale  # variance 1.2 / beta
    fp_good = dens.gaussian_factor(ax)
    bad.values = bad.values / fp_good[None, :, None] * fp_bad[None, :, None]
    r_bad = kfp_residual(bad, model)
    assert r_bad > 10.0 * r_good


def test_kfp_residual_rejects_tiny_grids():
    model = doublewell_gmv(beta=3.0)
    dens = extend_to_full_state(0.0, model)
    ax = np.linspace(-5.0, 5.0, 4)
    with pytest.raises(GridTooCoarse):
        kfp_residual(dens.on_grid(ax, ax, ax), model)


def test_transport_matrix_is_antisymmetric():
    from glekit.thermo import j_matrix

    J = j_matrix(quadratic_gmv(lambdas=(1.3,), alphas=(0.7,)))
    assert np.array_equal(J + J.T, np.zeros_like(J))


def test_custom_potential_goes_through_solver_and_simulator():
    import glekit.particles as particles
    from glekit.model import (
        CurieWeiss,
        CustomPotential,
        Kind,
        MemorySpec,
        ModelSpec,
        validate,
    )

    custom = CustomPotential(
        energy=lambda q: np.sum(0.25 * q**4 - 0.5 * q**2, axis=-1),
        gradient=lambda q: q**3 - q,
    )
    prob_custom = SelfConsistencyProblem(potential=custom, eta2=1.0, beta=3.0)
    prob_builtin = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=3.0)
    for m in (-0.5, 0.0, 1.2):
        assert self_consistency_map(prob_custom, m) == pytest.approx(
            self_consistency_map(prob_builtin, m), abs=1e-12
        )
    model = validate(
        ModelSpec(
            d=1,
            beta=3.0,
            potential=custom,
            interaction=CurieWeiss(1.0),
            memory=MemorySpec.diagonal([1.0], [1.0]),
            kind=Kind.GENERALIZED,
        )
    )
    series = particles.simulate(
        model,
        N=128,
        T=0.2,
        dt=1e-2,
        seed=6,
        init=particles.InitProduct(
            q=particles.BlockLaw(mean=1.0, var=0.1),
            p=particles.BlockLaw(var=1 / 3),
            z=particles.BlockLaw(var=1 / 3),
        ),
        record_every=10,
    )
    assert np.all(np.isfinite(series.mean_q))
