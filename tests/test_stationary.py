import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glekit.stationary as stationary
from glekit import thermo
from glekit.errors import GridTooCoarse, QuadratureFailure, ShapeMismatch
from glekit.model import CustomPotential, DoubleWell, Quadratic
from glekit.quadratic import meanfield_law
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

# the same double well written as a custom potential: even, but not a DoubleWell
EVEN_CUSTOM = CustomPotential(energy=lambda q: np.sum(0.25 * q**4 - 0.5 * q**2, axis=-1),
                              gradient=lambda q: q**3 - q)


# ---------------------------------------------------------------------------
# independent trapezoid oracle
# ---------------------------------------------------------------------------


def r_trapezoid(potential, eta2, beta, m, L=10.0, n=100_001):
    q = np.linspace(-L, L, n)
    phi = -beta * (potential.energy(q[:, None]) + 0.5 * eta2 * (q - m) ** 2)
    phi -= phi.max()
    w = np.exp(phi)
    return float(np.trapezoid(q * w, q) / np.trapezoid(w, q))


def r_map(prob, m):
    """R(m) and R'(m) = beta eta2 Var_m(q), from one moments pass of the problem's rule."""
    quad = prob._quadrature
    _, mean, var = quad.moments(m)
    return float(mean[0]), float(quad.c * var[0])


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
    assert r_map(prob, 1.0)[0] == pytest.approx(0.5, abs=1e-11)
    # contraction slope eta2/(omega2+eta2) everywhere
    for m in (-2.0, 0.3, 1.5):
        assert r_map(prob, m)[1] == pytest.approx(0.5, abs=1e-6)


def test_map_derivative_is_exact_for_quadratic():
    # R'(m) = beta eta2 Var_m(q) = beta eta2 / (beta (omega2 + eta2)) = 1/2, with no step error
    prob = SelfConsistencyProblem(potential=Quadratic(1.0), eta2=1.0, beta=1.7)
    for m in (-2.0, 0.3, 1.5):
        assert r_map(prob, m)[1] == pytest.approx(0.5, abs=1e-12)


def test_map_vanishes_at_zero_for_even_potential():
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=4.0)
    assert abs(r_map(prob, 0.0)[0]) <= 1e-12


def test_map_against_trapezoid_oracle():
    pot = DoubleWell(1.0, 1.0)
    # the default window against a trapezoid rule on the wider [-10, 10]
    prob = SelfConsistencyProblem(potential=pot, eta2=1.0, beta=5.0)
    oracle = r_trapezoid(pot, 1.0, 5.0, 0.5, L=10.0, n=1_000_001)
    assert r_map(prob, 0.5)[0] == pytest.approx(oracle, abs=1e-9)


def test_window_keeps_the_wells_beyond_a_high_barrier():
    # beta b^2 / (4a) = 56 is above the window's tail target already at q = 0+,
    # yet the wells sit at +-sqrt(b / a) = +-3.87, past the 3.0 floor
    pot = DoubleWell(0.2, 3.0)
    pts = fixed_points(SelfConsistencyProblem(potential=pot, eta2=1.0, beta=5.0))
    assert len(pts) == 3
    for p in pts:
        assert r_trapezoid(pot, 1.0, 5.0, p.m_star) - p.m_star == pytest.approx(0.0, abs=1e-9)


@settings(deadline=None, max_examples=20)
@given(
    beta=st.floats(min_value=0.5, max_value=6.0),
    eta2=st.floats(min_value=0.0, max_value=2.0),
    m=st.floats(min_value=0.0, max_value=2.0),
)
def test_map_is_odd_for_even_potential(beta, eta2, m):
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=eta2, beta=beta)
    assert r_map(prob, m)[0] == pytest.approx(-r_map(prob, -m)[0], abs=1e-11)


@pytest.mark.parametrize("potential", [DoubleWell(1.0, 1.0), TILTED], ids=["doublewell", "tilted"])
@pytest.mark.parametrize("m", [-0.6, 0.1, 0.45, 1.3])
def test_second_slope_is_c_squared_times_the_third_central_moment(potential, m):
    # R''(m) = (beta eta2)^2 kappa3_m(q), against a central difference of the exact R'
    prob = SelfConsistencyProblem(potential=potential, eta2=1.0, beta=3.0)
    df, d2f = _fold_slopes(prob._quadrature, [m])
    assert df[0] == pytest.approx(r_map(prob, m)[1] - 1.0, abs=1e-14)
    h = 1e-4
    fd = (r_map(prob, m + h)[1] - r_map(prob, m - h)[1]) / (2 * h)
    assert d2f[0] == pytest.approx(fd, rel=1e-6)


def test_stacked_fold_slope_squares_c_as_a_python_float():
    # for c = beta eta2 = 3.231904596328192, Python's c**2 (libm pow) and numpy's c * c
    # differ in the last bit; with c * c on the stack, the tilted well's fixed points at
    # this beta moved from those of the scalar c of the one-rule solver
    beta = 3.231904596328192
    assert beta**2 != beta * beta
    quad = SelfConsistencyProblem(potential=TILTED, eta2=1.0, beta=beta)._quadrature
    m = [0.38, 0.42]
    _, d2f = _fold_slopes(stationary._stacked([quad]).take([0, 0]), m)
    assert np.array_equal(d2f, beta**2 * quad.central(m)[1])


@pytest.mark.parametrize("beta", [1.5, BETA_CRITICAL_DW11_ETA1, 3.0])
def test_critical_gap_slope_matches_a_central_difference(beta):
    # g'(beta) = eta2 Var - beta eta2 Cov((q - mu)^2, V + eta2 q^2 / 2) at m = 0,
    # against a central difference of g on the same rule
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=beta)
    quad = prob._quadrature
    g, dg = _critical_gap(quad, [beta])
    assert g[0] == pytest.approx(r_map(prob, 0.0)[1] - 1.0, abs=1e-14)
    h = 1e-4
    (g_hi, g_lo), _ = _critical_gap(quad, [beta + h, beta - h])
    assert dg[0] == pytest.approx((g_hi - g_lo) / (2 * h), rel=1e-6)


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
def test_problem_rejects_a_beta_that_is_not_finite_and_positive(beta):
    # exp(-beta V) with beta <= 0 cannot be normalized, and beta = inf has no density
    with pytest.raises(ShapeMismatch):
        SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=beta)
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=1.0)
    with pytest.raises(ShapeMismatch):
        critical_beta(prob, beta, 2.0)


def test_critical_beta_rejects_a_reversed_bracket():
    # g changes sign over [1, 4] either way round; a reversed bracket gave 1.75
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=1.0)
    with pytest.raises(ShapeMismatch):
        critical_beta(prob, 4.0, 1.0)


def test_window_tail_bound():
    for beta in (0.5, 1.0, 5.0):
        pot = DoubleWell(1.0, 1.0)
        L = default_window(pot, 1.0, beta)
        qs = np.linspace(-L, L, 4001)
        phi = -beta * pot.energy(qs[:, None])
        assert np.exp(phi[0] - phi.max()) < 1e-14
        assert np.exp(phi[-1] - phi.max()) < 1e-14


def test_window_tail_bound_on_the_low_side_of_a_tilted_well():
    # the tilt puts the deep well at q < 0; probing q > 0 alone left a 9e-12 tail at -L
    pot = CustomPotential(
        energy=lambda q: np.sum(0.25 * q**4 - 0.5 * q**2 + 2.0 * q, axis=-1),
        gradient=lambda q: q**3 - q + 2.0,
    )
    for beta in (0.5, 1.0, 5.0):
        L = default_window(pot, 1.0, beta)
        phi = -beta * pot.energy(np.linspace(-L, L, 4001)[:, None])
        assert np.exp(phi[0] - phi.max()) < 1e-14
        assert np.exp(phi[-1] - phi.max()) < 1e-14


def _walled(beyond):
    """q^2 + 0.1 q, with the energy ``beyond`` where |q| > 4."""
    return CustomPotential(
        energy=lambda q: np.sum(np.where(np.abs(q) > 4.0, beyond, q**2 + 0.1 * q), axis=-1),
        gradient=lambda q: 2 * q + 0.1,
    )


@pytest.mark.parametrize("beyond", [np.nan, -np.inf], ids=["nan", "-inf"])
def test_window_rejects_an_energy_that_is_nan_or_minus_inf_on_the_probe(beyond):
    # such an energy makes every node look outside, and L would fall to 3 for every beta
    with pytest.raises(QuadratureFailure, match=r"^potential energy is (nan|-inf) at q = 4\.01 "):
        default_window(_walled(beyond), 1.0, [1.0, 9.0])


def test_window_stops_at_a_hard_wall():
    # +inf is a wall: the window ends at the first probe node past it
    assert default_window(_walled(np.inf), 1.0, [1.0, 9.0]).tolist() == [4.01, 3.0]


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


@pytest.mark.parametrize(
    "potential, beta_c",
    [
        (DoubleWell(1.0, 1.0), BETA_CRITICAL_DW11_ETA1),
        (EVEN_CUSTOM, BETA_CRITICAL_DW11_ETA1),
        (TILTED, None),
    ],
    ids=["double well", "even custom well", "tilted well"],
)
def test_bifurcation_reports_beta_critical_only_at_a_pitchfork(potential, beta_c):
    # the tilted well's R'(0) crosses 1 near beta = 2.2, but R(0) = -0.05 there:
    # m = 0 is no fixed point, and its branches are born at the fold near 3.22
    prob = SelfConsistencyProblem(potential=potential, eta2=1.0, beta=1.0)
    diag = bifurcation_diagram(prob, np.linspace(1.0, 4.0, 32))
    if beta_c is None:
        assert diag.beta_critical is None
    else:
        assert abs(diag.beta_critical - beta_c) <= 1e-12


def test_bifurcation_without_interaction_is_flat():
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=0.0, beta=1.0)
    diag = bifurcation_diagram(prob, np.linspace(1.0, 6.0, 6))
    assert diag.beta_critical is None
    for pts in diag.branches:
        assert len(pts) == 1
        assert pts[0].m_star == pytest.approx(0.0, abs=1e-10)


def _count_passes_and_windows(monkeypatch):
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
    return calls


def test_bifurcation_workload_quadrature_pass_and_window_counts(monkeypatch):
    # the 32-beta scan of the bifurcation benchmark: 1094 quadrature passes and
    # 71 windows with bisection; 201 and 38 with a problem per Newton iterate in
    # beta; 193 and 33 with one rule per critical_beta bracket; 81 and 2 with
    # the grid solved in one pass per stage (74 scan passes on the ladder, the
    # fold, root and final passes of all betas together, and critical_beta's);
    # still 81 and 2 with each scan pass on its 41 nodes m >= 0 alone, mirrored; 32 and 2
    # with the ladder's scans in chunks of rules (6 chunks on 8 panels, 11 on 16, 2 for
    # critical_beta's check), 6 Newton passes and 1 at the roots, and 6 of beta_c's slope
    calls = _count_passes_and_windows(monkeypatch)
    prob = SelfConsistencyProblem.from_model(doublewell_gmv())
    diag = bifurcation_diagram(prob, np.linspace(1.0, 4.0, 32))
    assert abs(diag.beta_critical - BETA_CRITICAL_DW11_ETA1) <= 1e-12
    assert calls["passes"] <= 32
    assert calls["windows"] <= 2


def test_critical_beta_builds_one_window_for_its_bracket(monkeypatch):
    # grid points 12 and 13 of the bench grid, where the bifurcation scan refines beta_c
    betas = np.linspace(1.0, 4.0, 32)
    calls = _count_passes_and_windows(monkeypatch)
    prob = SelfConsistencyProblem.from_model(doublewell_gmv())
    bc = critical_beta(prob, float(betas[12]), float(betas[13]))
    assert abs(bc - BETA_CRITICAL_DW11_ETA1) <= 1e-15
    assert calls["windows"] == 1


def _spy_ladder_passes(monkeypatch):
    """Record every ladder pass as (node arrays of its rows' rules, its (rows, points) m)."""
    passes, pending = [], {}
    rows_fn, moments = stationary._rows, stationary._Quadrature.moments

    def spied_rows(quads):
        rows = rows_fn(quads)
        pending[id(rows)] = [id(quad.q) for quad in quads]  # at() keeps the rule's own q
        return rows

    def spied_moments(self, m):
        if id(self) in pending:
            passes.append((pending.pop(id(self)), np.array(m)))
        return moments(self, m)

    monkeypatch.setattr(stationary, "_rows", spied_rows)
    monkeypatch.setattr(stationary._Quadrature, "moments", spied_moments)
    return passes


def test_bifurcation_evaluates_each_scan_once(monkeypatch):
    # every beta's rule on every ladder rung is one row of exactly one batched pass, so
    # R(0), R'(0) and the brackets all come from that row: the 41 scan nodes m >= 0 for
    # an even rule, all 81 for the tilted one; the rules critical_beta checks at m = 0
    # alone are rows of their own passes
    rules = []
    rules_fn = stationary._rules
    in_critical_beta = []

    def counted_critical_beta(*args):
        in_critical_beta.append(True)
        try:
            return critical_beta(*args)
        finally:
            in_critical_beta.pop()

    def counted_rules(*args):
        built = rules_fn(*args)
        if not in_critical_beta:
            rules.extend(built)  # kept alive, so no two rules share an id
        return built

    monkeypatch.setattr(stationary, "_rules", counted_rules)
    monkeypatch.setattr(stationary, "critical_beta", counted_critical_beta)
    passes = _spy_ladder_passes(monkeypatch)
    for potential, points in [(DoubleWell(1.0, 1.0), 41), (TILTED, 81)]:
        rules.clear()
        passes.clear()
        prob = SelfConsistencyProblem(potential=potential, eta2=1.0, beta=1.0)
        diag = bifurcation_diagram(prob, np.linspace(1.0, 4.0, 32))
        assert (diag.beta_critical is None) == (potential is TILTED)
        assert len(rules) >= 2 * 32
        by_id = {id(quad.q): quad for quad in rules}
        scan_rows = [(i, m) for ids, ms in passes for i, m in zip(ids, ms) if i in by_id]
        assert Counter(i for i, _ in scan_rows) == Counter(by_id.keys())
        assert len(passes) < len(by_id)  # rules share passes
        for i, m in scan_rows:
            scan = stationary._scan(by_id[i].L)
            assert np.array_equal(m, scan[scan.size - points:])


@pytest.mark.parametrize("beta, nodes", [(3.0, 128), (40.0, 256)])
@pytest.mark.parametrize("potential", [DoubleWell(1.0, 1.0), Quadratic(1.0), EVEN_CUSTOM],
                         ids=["double well", "quadratic", "even custom well"])
def test_mirrored_scan_pass_equals_a_full_pass_bitwise(monkeypatch, potential, beta, nodes):
    # a rule with E+ == E- bitwise evaluates the 41 scan nodes m >= 0 and mirrors them:
    # -R[::-1], Var[::-1].  DoubleWell and Quadratic square |q|^2, so theirs always are;
    # numpy's q**4 can differ in the last bit between q and -q, and then the custom well
    # takes the full 81-node pass
    passes = _spy_ladder_passes(monkeypatch)
    quad = SelfConsistencyProblem(potential=potential, eta2=1.0, beta=beta)._quadrature
    even = np.array_equal(*quad.e)
    assert even or isinstance(potential, CustomPotential)
    assert quad.q.size == nodes
    assert {(len(ids), ms.size) for ids, ms in passes} == {
        (1, stationary._SCAN_HALF + 1 if even else 2 * stationary._SCAN_HALF + 1)}
    _, mean, var = stationary._Quadrature.moments(quad, quad.scan)
    assert np.array_equal(quad.scan_mean, mean) and np.array_equal(quad.scan_var, var)


def test_scan_pass_on_a_rule_that_is_not_even_covers_all_nodes(monkeypatch):
    passes = _spy_ladder_passes(monkeypatch)
    quad = SelfConsistencyProblem(potential=TILTED, eta2=1.0, beta=3.0)._quadrature
    assert {(len(ids), ms.size) for ids, ms in passes} == {(1, 2 * stationary._SCAN_HALF + 1)}
    assert np.array_equal(passes[-1][1][0], quad.scan)
    _, mean, var = stationary._Quadrature.moments(quad, quad.scan)
    assert np.array_equal(quad.scan_mean, mean) and np.array_equal(quad.scan_var, var)


def _scan_checks(prob, betas):
    """The ladder checks of a bifurcation scan: each beta on its own window's m scan."""
    scans = stationary._scan(default_window(prob.potential, prob.eta2, betas))
    return [([b], scan) for b, scan in zip(np.asarray(betas).tolist(), scans)]


def _assert_chunks_equal_rule_passes(prob, checks, n_panels, monkeypatch):
    """Each (rule, beta) row of the chunked ladder passes equals a full pass of its rule alone.

    ``checks[i]`` = (betas, ms), on the window of its first beta.  Returns the rules and
    the number of passes.
    """
    first = [bs[0] for bs, _ in checks]
    quads = stationary._rules(prob, default_window(prob.potential, prob.eta2, first), first,
                              n_panels)
    passes = _spy_ladder_passes(monkeypatch)
    results = stationary._checked_moments(quads, checks)
    monkeypatch.undo()
    for quad, (bs, ms), rule_passes in zip(quads, checks, results):
        assert len(rule_passes) == len(bs)
        for b, (mean, var) in zip(bs, rule_passes):
            _, alone_mean, alone_var = quad.at(b).moments(ms)
            assert np.array_equal(mean, alone_mean) and np.array_equal(var, alone_var)
    return quads, len(passes)


def test_ladder_chunks_equal_rule_passes_on_a_grid_that_is_not_a_multiple_of_the_chunk():
    # 6 rules of 64 nodes per chunk and 3 of 128: 13 betas leave one rule in a last chunk
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=1.0)
    checks = _scan_checks(prob, np.linspace(1.0, 4.0, 13))
    for n_panels, passes in [(8, 3), (16, 5)]:
        with pytest.MonkeyPatch.context() as mp:
            _, n = _assert_chunks_equal_rule_passes(prob, checks, n_panels, mp)
        assert n == passes


def test_ladder_chunks_equal_rule_passes_with_even_and_uneven_rules_on_one_rung():
    # numpy's q**4 is even bitwise on the custom well's 8-panel rule of beta = 1 + 3/31 and
    # not on the other 31 rules of the bench grid: 41-point rows and 81-point rows
    prob = SelfConsistencyProblem(potential=EVEN_CUSTOM, eta2=1.0, beta=1.0)
    checks = _scan_checks(prob, np.linspace(1.0, 4.0, 32))
    with pytest.MonkeyPatch.context() as mp:
        quads, _ = _assert_chunks_equal_rule_passes(prob, checks, 8, mp)
    assert {np.array_equal(*quad.e) for quad in quads} == {True, False}


def test_ladder_chunk_equals_rule_passes_on_the_critical_beta_check():
    # critical_beta checks one rule at both ends of its bracket at m = 0: one pass, two rows
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=1.0)
    bracket = np.linspace(1.0, 4.0, 32)[12:14].tolist()
    for n_panels in (8, 16):
        with pytest.MonkeyPatch.context() as mp:
            _, n = _assert_chunks_equal_rule_passes(prob, [(bracket, 0.0)], n_panels, mp)
        assert n == 1


def test_ladder_chunks_equal_rule_passes_on_256_node_rules():
    # one 256-node rule fills a chunk (41 x 256 pairs), so each row is a rule's own pass
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=1.0)
    with pytest.MonkeyPatch.context() as mp:
        quads, n = _assert_chunks_equal_rule_passes(
            prob, _scan_checks(prob, np.linspace(1.0, 40.0, 16)), 32, mp)
    assert {quad.q.size for quad in quads} == {256} and n == len(quads)


def test_quadrature_failure_names_the_window_of_the_failing_row():
    # V is nan beyond |q| = 4: outside the window [-3, 3], inside [-6, 6]; both rules are
    # uneven, so they are rows of one chunked ladder pass, and the second one fails
    bad = CustomPotential(
        energy=lambda q: np.sum(np.where(np.abs(q) > 4.0, np.nan, q**2 + 0.1 * q), axis=-1),
        gradient=lambda q: 2 * q + 0.1,
    )
    prob = SelfConsistencyProblem(potential=bad, eta2=1.0, beta=1.0)
    Ls = [3.0, 6.0]
    with pytest.raises(QuadratureFailure, match=r"^non-finite normalization on \[-6.0, 6.0\]$"):
        stationary._ladder(prob, Ls, [([1.0], scan) for scan in stationary._scan(Ls)])


@pytest.mark.parametrize("potential", [DoubleWell(1.0, 1.0), TILTED], ids=["doublewell", "tilted"])
def test_rule_moved_to_another_beta_equals_a_rule_built_there_bitwise(potential):
    prob = SelfConsistencyProblem(potential=potential, eta2=1.0, beta=1.0)
    [moved] = stationary._rules(prob, [4.5], [1.7], 16)
    [fresh] = stationary._rules(prob, [4.5], [3.1], 16)
    moved = moved.at(3.1)
    assert np.array_equal(moved.lw, fresh.lw)
    m = np.linspace(-1.5, 1.5, 7)
    for a, b in zip(moved.moments(m) + moved.central(m, True),
                    fresh.moments(m) + fresh.central(m, True)):
        assert np.array_equal(a, b)


def test_taken_stack_row_equals_its_rule_alone_bitwise():
    # rules of 128 and 256 nodes: the shorter runs padded with zero-weight nodes
    prob = SelfConsistencyProblem(potential=TILTED, eta2=1.0, beta=1.0)
    quads = stationary._scanned_rules(prob, [2.0, 3.0, 40.0])
    assert [quad.q.size for quad in quads] == [128, 128, 256]
    stack = stationary._stacked(quads)
    m = np.array([-0.9, -0.2, 0.0, 0.4, 1.1])
    for i, quad in enumerate(quads):
        row = stack.take([i] * m.size)
        for a, b in zip(row.moments(m) + row.central(m), quad.moments(m) + quad.central(m)):
            assert np.array_equal(a, b)


def test_bifurcation_workload_traced_peak_memory():
    # the 32-beta bench scan peaked at 1032 KB traced while a stack row kept log w, E+
    # and E-, four arrays gathered per pass; 922 KB with rows of q and log w - beta E,
    # most of it the final pass over the gathered rows of every root (numpy 2.4)
    prob = SelfConsistencyProblem.from_model(doublewell_gmv())
    betas = np.linspace(1.0, 4.0, 32)
    bifurcation_diagram(prob, betas)
    tracemalloc.start()
    try:
        bifurcation_diagram(prob, betas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 975 * 1024


def _assert_branches_equal_one_beta_at_a_time(prob, betas):
    """Every branch of the batched diagram is fixed_points at its beta, field by field."""
    diag = bifurcation_diagram(prob, betas)
    for beta, branch in zip(betas, diag.branches):
        alone = fixed_points(replace(prob, beta=float(beta)))
        assert len(branch) == len(alone), f"beta={beta}"
        for a, b in zip(branch, alone):
            assert a.m_star == b.m_star and a.stability == b.stability, f"beta={beta}"
            assert a.residual == b.residual and a.r_prime == b.r_prime, f"beta={beta}"
    return diag


def test_batched_diagram_equals_one_beta_at_a_time_on_the_bench_grid():
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=1.0)
    diag = _assert_branches_equal_one_beta_at_a_time(prob, np.linspace(1.0, 4.0, 32))
    assert abs(diag.beta_critical - BETA_CRITICAL_DW11_ETA1) <= 1e-12


def test_batched_diagram_equals_one_beta_at_a_time_across_rule_lengths():
    # beta <= 11.4 settles on 16 panels (128 nodes) and beta >= 14 on 32 (256 nodes),
    # so the shorter rules run padded with zero-weight nodes in the stacked passes
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=1.0)
    betas = np.linspace(1.0, 40.0, 16)
    sizes = {replace(prob, beta=float(b))._quadrature.q.size for b in betas}
    assert sizes == {128, 256}
    _assert_branches_equal_one_beta_at_a_time(prob, betas)


def test_batched_diagram_equals_one_beta_at_a_time_through_a_fold():
    # the grid crosses the tilted well's fold at 3.2219, where roots are born in pairs
    prob = SelfConsistencyProblem(potential=TILTED, eta2=1.0, beta=1.0)
    diag = _assert_branches_equal_one_beta_at_a_time(prob, np.linspace(3.0, 3.5, 11))
    assert diag.beta_critical is None
    assert [len(b) for b in diag.branches] == [1] * 5 + [3] * 6


def test_scan_moments_at_m_zero_equal_a_pass_at_zero_bitwise():
    for beta in np.linspace(1.0, 4.0, 32):
        quad = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0,
                                      beta=float(beta))._quadrature
        _, mean, var = quad.moments(0.0)
        k = stationary._SCAN_HALF
        assert quad.scan[k] == 0.0
        assert quad.scan_mean[k] == mean[0] and quad.scan_var[k] == var[0]


# a fast ripple on a harmonic well: no rule of the panel ladder resolves it
RIPPLED = CustomPotential(
    energy=lambda q: np.sum(0.5 * q**2, axis=-1) + 0.5 * np.cos(300.0 * q[..., 0]),
    gradient=lambda q: q - 150.0 * np.sin(300.0 * q),
)
DW11 = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=1.0)

# (call, error, text of the message) for the raises of the self-consistency solver
STATIONARY_ERRORS = {
    "ladder-does-not-stabilize": (
        lambda: SelfConsistencyProblem(potential=RIPPLED, eta2=1.0, beta=1.0).window(),
        QuadratureFailure, "quadrature did not stabilize on"),
    "grid-decreasing": (lambda: bifurcation_diagram(DW11, [2.0, 1.0]), ShapeMismatch,
                        "strictly increasing"),
    "grid-repeated": (lambda: bifurcation_diagram(DW11, [1.0, 1.0]), ShapeMismatch,
                      "strictly increasing"),
    "grid-empty": (lambda: bifurcation_diagram(DW11, []), ShapeMismatch, "strictly increasing"),
    "beta-zero": (lambda: bifurcation_diagram(DW11, [0.0, 1.0]), ShapeMismatch,
                  "finite and positive, got 0.0"),
    "beta-negative": (lambda: bifurcation_diagram(DW11, [-1.0, 1.0]), ShapeMismatch,
                      "finite and positive, got -1.0"),
    "beta-inf": (lambda: bifurcation_diagram(DW11, [1.0, math.inf]), ShapeMismatch,
                 "finite and positive, got inf"),
}


@pytest.mark.parametrize("call, error, message", STATIONARY_ERRORS.values(),
                         ids=STATIONARY_ERRORS.keys())
def test_each_solver_error_is_raised_with_its_message(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "potential, lo, hi", [(Quadratic(1.0), 0.5, 10.0), (DoubleWell(1.0, 1.0), 2.5, 4.0)],
    ids=["quadratic", "double-well-past-beta-c"],
)
def test_critical_beta_is_none_where_the_gap_keeps_its_sign(potential, lo, hi):
    # R'(0) = beta eta2 / (beta (omega2 + eta2)) = 1/2 at every beta for the quadratic well
    prob = SelfConsistencyProblem(potential=potential, eta2=1.0, beta=1.0)
    assert critical_beta(prob, lo, hi) is None


def test_critical_beta_reaches_the_oracle_at_tight_tolerance():
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=1.0)
    bc = critical_beta(prob, 1.0, 4.0)
    assert abs(bc - BETA_CRITICAL_DW11_ETA1) <= 1e-9


def test_critical_beta_on_a_wide_bracket_reaches_the_oracle():
    # one rule on the window of beta = 0.05 must also resolve R'(0) at beta = 300
    prob = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=1.0)
    bc = critical_beta(prob, 0.05, 300.0)
    assert abs(bc - BETA_CRITICAL_DW11_ETA1) <= 1e-12


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


def test_extend_q_variance_matches_the_gaussian_stationary_law():
    model = quadratic_gmv(omega2=1.0, eta2=1.0, beta=2.0)
    law_inf = thermo.stationary_law(model)
    (pt,) = fixed_points(SelfConsistencyProblem.from_model(model))
    dens = extend_to_full_state(pt.m_star, model)
    assert dens.q_var == pytest.approx(law_inf.cov[0, 0], abs=1e-10)
    # slowest drift mode decays at rate |2 Re nu| ~ 0.285: t = 100 reaches 1e-12
    late = meanfield_law(model, 100.0, [0.0, 0.0, 0.0])
    assert np.max(np.abs(late.cov - law_inf.cov)) <= 1e-9


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


def test_custom_potential_goes_through_solver_and_simulator():
    import glekit.particles as particles
    from glekit.model import CustomPotential, Kind, MemorySpec, ModelSpec, validate

    custom = CustomPotential(
        energy=lambda q: np.sum(0.25 * q**4 - 0.5 * q**2, axis=-1),
        gradient=lambda q: q**3 - q,
    )
    prob_custom = SelfConsistencyProblem(potential=custom, eta2=1.0, beta=3.0)
    prob_builtin = SelfConsistencyProblem(potential=DoubleWell(1.0, 1.0), eta2=1.0, beta=3.0)
    for m in (-0.5, 0.0, 1.2):
        assert r_map(prob_custom, m)[0] == pytest.approx(r_map(prob_builtin, m)[0], abs=1e-12)
    model = validate(
        ModelSpec(
            d=1,
            beta=3.0,
            potential=custom,
            eta2=1.0,
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
