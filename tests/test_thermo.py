import math
from pathlib import Path

import numpy as np
import pytest

from glekit import quadratic as qa
from glekit import thermo
from glekit.config import load_config
from glekit.errors import ShapeMismatch, SingularCovariance
from glekit.quadratic import GaussianLaw, propagate_gaussian, split_BK
from glekit.stationary import GridDensity

from conftest import quadratic_gmv, quadratic_omv, quadratic_umv

QUAD_GMV = Path(__file__).resolve().parents[1] / "configs" / "quadratic_gmv.conf"


def displaced_law(model, z_var_factor=2.0):
    law = thermo.stationary_law(model)
    cov = law.cov.copy()
    d = model.d
    cov[2 * d :, 2 * d :] *= z_var_factor
    return GaussianLaw(mean=law.mean, cov=cov)


def generic_pair(law, model):
    """(E, S) of a law, with the auxiliary energy e = 0: row 0 of the coupled series."""
    series = thermo.evolve_coupled(law, model, 0.01, 0.01)
    return series.energy[0], series.entropy[0]


def gaussian_on_grid(law: GaussianLaw, ax, axes=None) -> GridDensity:
    axes = (ax, ax, ax) if axes is None else axes
    prec = np.linalg.inv(law.cov)
    qg, pg, zg = np.meshgrid(*axes, indexing="ij")
    dx = np.stack([qg - law.mean[0], pg - law.mean[1], zg - law.mean[2]], axis=-1)
    quad = np.einsum("...i,ij,...j->...", dx, prec, dx)
    norm = (2 * np.pi) ** 1.5 * math.sqrt(np.linalg.det(law.cov))
    return GridDensity(q=axes[0], p=axes[1], z=axes[2], values=np.exp(-0.5 * quad) / norm)


# (model, law dimension, text of the message): a law the diagnostics cannot take
LAW_MISFITS = {
    "underdamped-kind": (quadratic_umv(), 2, "use the generalized kind"),
    "overdamped-kind": (quadratic_omv(), 1, "use the generalized kind"),
    "dimension": (quadratic_gmv(), 2, "law dimension 2 != model state dimension 3"),
}
LAW_FUNCTIONS = {
    "hamiltonian": thermo.hamiltonian,
    "free_energy": thermo.free_energy,
    "dissipation": thermo.dissipation,
    "evolve_coupled": lambda law, model: thermo.evolve_coupled(law, model, 0.01, 0.01),
}


@pytest.mark.parametrize("function", LAW_FUNCTIONS.values(), ids=LAW_FUNCTIONS.keys())
@pytest.mark.parametrize("model, dim, message", LAW_MISFITS.values(), ids=LAW_MISFITS.keys())
def test_an_ensemble_law_that_does_not_fit_its_model_is_a_shape_mismatch(model, dim, message,
                                                                         function):
    law = GaussianLaw(mean=np.zeros(dim), cov=np.eye(dim))
    with pytest.raises(ShapeMismatch, match=message):
        function(law, model)


KIND_MISFITS = {name: case for name, case in LAW_MISFITS.items() if name.endswith("-kind")}


@pytest.mark.parametrize("model, dim, message", KIND_MISFITS.values(), ids=KIND_MISFITS.keys())
def test_the_stationary_law_of_another_kind_is_a_shape_mismatch(model, dim, message):
    with pytest.raises(ShapeMismatch, match=message):
        thermo.stationary_law(model)


# ---------------------------------------------------------------------------
# free energy
# ---------------------------------------------------------------------------


def test_free_energy_of_noninteracting_stationary_state():
    model = quadratic_gmv(omega2=1.3, eta2=0.0, beta=2.0)
    law = thermo.stationary_law(model)
    F = thermo.free_energy(law, model)
    beta, omega2 = 2.0, 1.3
    log_zbar = 0.5 * (
        math.log(2 * math.pi / (beta * omega2)) + 2 * math.log(2 * math.pi / beta)
    )
    assert F == pytest.approx(-log_zbar / beta, rel=1e-12)
    # quadrature oracle for the defining integral
    ax = np.linspace(-7.0, 7.0, 201)
    g = gaussian_on_grid(law, ax)
    h = ax[1] - ax[0]
    rho = g.values
    qg, pg, zg = np.meshgrid(ax, ax, ax, indexing="ij")
    integrand = (0.5 * pg**2 + 0.5 * omega2 * qg**2 + 0.5 * zg**2) * rho
    integrand += np.where(rho > 0, rho * np.log(np.maximum(rho, 1e-300)), 0.0) / beta
    assert integrand.sum() * h**3 == pytest.approx(F, abs=1e-8)


def test_free_energy_bounded_below_along_trajectory():
    model = quadratic_gmv(beta=2.0)
    series = thermo.evolve_coupled(displaced_law(model, 3.0), model, dt=1e-2, T=6.0)
    law_inf = thermo.stationary_law(model)
    f_min = thermo.free_energy(law_inf, model)
    assert np.all(series.free_energy >= f_min - 1e-10)


def test_free_energy_minimized_at_stationary_state(rng):
    model = quadratic_gmv(beta=1.5)
    law = thermo.stationary_law(model)
    f_star = thermo.free_energy(law, model)
    for _ in range(20):
        bump = rng.uniform(-0.3, 0.3, (3, 3))
        cov = law.cov + bump @ bump.T
        f = thermo.free_energy(GaussianLaw(mean=law.mean, cov=cov), model)
        assert f >= f_star - 1e-12


# ---------------------------------------------------------------------------
# dissipation
# ---------------------------------------------------------------------------


def test_dissipation_vanishes_at_stationarity():
    model = quadratic_gmv(beta=2.0)
    law = thermo.stationary_law(model)
    assert thermo.dissipation(law, model) <= 1e-10


def test_dissipation_matches_quadrature_for_hot_memory():
    # independent z with variance 2/beta: flux vector reduces to z/2
    beta, alpha = 2.0, 1.0
    model = quadratic_gmv(beta=beta, alphas=(alpha,))
    val = thermo.dissipation(displaced_law(model, z_var_factor=2.0), model)
    zs = np.linspace(-12, 12, 200_001)
    g = np.exp(-(zs**2) / (2 * (2 / beta))) / math.sqrt(2 * math.pi * 2 / beta)
    root = np.sqrt(g)
    droot = np.gradient(root, zs[1] - zs[0], edge_order=2)
    flux = zs * root + (2 / beta) * droot
    oracle = float(np.trapezoid(alpha * flux * flux, zs))
    assert val == pytest.approx(alpha / beta / 2.0, rel=1e-12)
    assert val == pytest.approx(oracle, abs=1e-6)


def test_dissipation_matches_grid_quadrature_for_correlated_law():
    model = quadratic_gmv(beta=1.0)
    B, K, D = split_BK(model)
    law = qa.meanfield_green(B, K, D, 0.6, [1.0, 0.0, 0.5])
    val = thermo.dissipation(law, model)
    sig = np.sqrt(np.diag(law.cov))
    axes = tuple(
        np.linspace(law.mean[i] - 8 * sig[i], law.mean[i] + 8 * sig[i], 201) for i in range(3)
    )
    g = gaussian_on_grid(law, None, axes=axes)
    hs = [float(a[1] - a[0]) for a in axes]
    root = np.sqrt(g.values)
    droot = np.zeros_like(root)  # fourth-order central difference in z
    droot[:, :, 2:-2] = (
        -root[:, :, 4:] + 8 * root[:, :, 3:-1] - 8 * root[:, :, 1:-3] + root[:, :, :-4]
    ) / (12 * hs[2])
    zg = g.z[None, None, :]
    flux = zg * root + 2.0 * droot  # beta = 1
    flux[:, :, :2] = 0.0
    flux[:, :, -2:] = 0.0
    oracle = float(np.sum(flux * flux) * hs[0] * hs[1] * hs[2])
    assert val == pytest.approx(oracle, rel=2e-4)


def test_dissipation_consistent_with_free_energy_decay():
    model = quadratic_gmv(beta=1.0)
    B, K, D = split_BK(model)
    law0 = displaced_law(model, 2.0)
    delta = 1e-4
    for t in np.linspace(0.4, 4.0, 10):
        law_m = propagate_gaussian(B, K, D, t - delta, law0)
        law_p = propagate_gaussian(B, K, D, t + delta, law0)
        dF = (thermo.free_energy(law_p, model) - thermo.free_energy(law_m, model)) / (2 * delta)
        law_t = propagate_gaussian(B, K, D, t, law0)
        w = thermo.dissipation(law_t, model)
        assert dF == pytest.approx(-w, rel=1e-4)


# ---------------------------------------------------------------------------
# energy / entropy pair
# ---------------------------------------------------------------------------


def test_generic_functionals_at_stationarity():
    model = quadratic_gmv(beta=2.0)
    law = thermo.stationary_law(model)
    E, S = generic_pair(law, model)
    assert E == pytest.approx(thermo.hamiltonian(law, model))
    sign, logdet = np.linalg.slogdet(law.cov)
    ent = 0.5 * (3 * math.log(2 * math.pi * math.e) + logdet)
    assert S == pytest.approx(ent / 2.0, rel=1e-12)


def test_evolve_coupled_stationary_start_is_constant():
    model = quadratic_gmv(beta=2.0)
    law = thermo.stationary_law(model)
    series = thermo.evolve_coupled(law, model, dt=1e-2, T=2.0)
    assert np.max(np.abs(series.energy - series.energy[0])) <= 1e-10
    assert np.max(np.abs(series.entropy - series.entropy[0])) <= 1e-10


def test_evolve_coupled_laws_of_thermodynamics():
    model = quadratic_gmv(beta=1.0)
    series = thermo.evolve_coupled(displaced_law(model, 2.0), model, dt=1e-3, T=5.0)
    scale = max(1.0, abs(series.energy[0]))
    assert np.max(np.abs(series.energy - series.energy[0])) <= 1e-6 * scale
    assert np.all(np.diff(series.entropy) >= -1e-8)
    assert np.all(np.diff(series.free_energy) <= 1e-8)
    assert series.entropy[-1] > series.entropy[0]


def test_evolve_coupled_energy_drift_is_second_order():
    model = quadratic_gmv(beta=1.0)
    law = displaced_law(model, 2.0)
    drifts = []
    for dt in (2e-2, 1e-2):
        series = thermo.evolve_coupled(law, model, dt=dt, T=2.0)
        drifts.append(np.max(np.abs(series.energy - series.energy[0])))
    ratio = drifts[0] / drifts[1]
    assert 3.0 <= ratio <= 5.0, f"drift ratio {ratio}"


def test_evolve_coupled_rejects_singular_start():
    model = quadratic_gmv()
    law = GaussianLaw(mean=[1.0, 0.0, 0.0], cov=np.diag([0.0, 1.0, 1.0]))
    with pytest.raises(SingularCovariance):
        thermo.evolve_coupled(law, model, dt=1e-2, T=0.1)


def _rotated(eigenvalues, seed=3):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    M = Q @ np.diag(eigenvalues) @ Q.T
    return 0.5 * (M + M.T)


def test_covariance_check_covers_every_matrix_of_a_stack():
    good = np.eye(3)
    stack = np.stack([good, _rotated([2.0, 0.5, 1e-3])])
    L = qa.check_covariances(stack)  # the Cholesky factors of a positive definite stack
    assert np.array_equal(L, np.tril(L))
    assert np.allclose(L @ np.swapaxes(L, -1, -2), stack, rtol=0, atol=1e-15)
    # within 1e-12 of PSD: the check passes, but there is no factor for the entropy
    for within in (np.diag([1.0, -0.5e-12, 1.0]), _rotated([1.0, -0.5e-12, 1.0]),
                   np.diag([1.0, 0.0, 1.0])):
        assert qa.check_covariances(np.stack([good, within])) is None
    for indefinite in (np.diag([1.0, -1e-9, 1.0]), _rotated([1.0, -1e-11, 1.0]),
                       _rotated([1.0, -0.5, 2.0])):
        with pytest.raises(ShapeMismatch, match="negative eigenvalue"):
            qa.check_covariances(np.stack([good, indefinite, good]))
    asymmetric = good.copy()
    asymmetric[0, 1] = 1e-9
    with pytest.raises(ShapeMismatch, match="not symmetric"):
        qa.check_covariances(np.stack([asymmetric, good]))
    with pytest.raises(ShapeMismatch, match="non-finite"):
        qa.check_covariances(np.stack([good, np.diag([1.0, np.nan, 1.0])]))


def test_a_law_on_which_cholesky_fails_is_singular_for_the_entropy():
    model = quadratic_gmv()
    law = GaussianLaw(mean=[0.0, 0.0, 0.0], cov=_rotated([1.0, -0.5e-12, 1.0]))
    for functional in (thermo.free_energy, thermo.dissipation):
        with pytest.raises(SingularCovariance):
            functional(law, model)
    with pytest.raises(SingularCovariance):
        generic_pair(law, model)


def _dissipation_in_long_double(model, mean, cov):
    """The d = m = 1 dissipation from the long-double cofactor inverse of each covariance."""
    c = cov.astype(np.longdouble)
    det = (
        c[:, 0, 0] * (c[:, 1, 1] * c[:, 2, 2] - c[:, 1, 2] * c[:, 2, 1])
        - c[:, 0, 1] * (c[:, 1, 0] * c[:, 2, 2] - c[:, 1, 2] * c[:, 2, 0])
        + c[:, 0, 2] * (c[:, 1, 0] * c[:, 2, 1] - c[:, 1, 1] * c[:, 2, 0])
    )
    prec_zz = (c[:, 0, 0] * c[:, 1, 1] - c[:, 0, 1] * c[:, 1, 0]) / det
    bi = np.longdouble(model.beta_inv)
    a = np.longdouble(model.memory.A[0, 0])
    mu_z = mean[:, 2].astype(np.longdouble)
    return a * (c[:, 2, 2] - 2 * bi + bi * bi * prec_zz + mu_z * mu_z)


def test_dissipation_keeps_its_relative_accuracy_near_equilibrium():
    # glekit thermo's defaults on this config: T = 5, z variance doubled
    cfg = load_config(QUAD_GMV)
    model, dt = cfg.model(), cfg.run_params().dt
    law = displaced_law(model, 2.0)
    series = thermo.evolve_coupled(law, model, dt, 5.0)
    mean, cov = qa.affine_laws(*qa.flow_maps(*split_BK(model), dt), law.mean, law.cov, 5000)
    ref = _dissipation_in_long_double(model, mean, cov)
    assert float(ref[4315]) == pytest.approx(6.17e-10, rel=1e-3)
    rel = np.abs((series.dissipation - ref) / ref)
    assert float(np.max(rel)) <= 1e-8


# ---------------------------------------------------------------------------
# degeneracy residuals
# ---------------------------------------------------------------------------


def _degeneracy_on_spacings(model, law, spacings):
    out = []
    for h in spacings:
        n = int(round(10.0 / h)) + 1
        ax = np.linspace(-5.0, 5.0, n)
        out.append(thermo.degeneracy_residual(gaussian_on_grid(law, ax), model))
    return out


def test_degeneracy_residuals_vanish_with_grid():
    model = quadratic_gmv(beta=1.0)
    law = displaced_law(model, 2.0)
    (r1c, r2c), (r1f, r2f) = _degeneracy_on_spacings(model, law, (0.2, 0.1))
    order = math.log(r1c / r1f) / math.log(2.0)
    assert order >= 1.8, f"reversible-block order {order}"
    # the irreversible identity cancels nodewise: grad_z H = z exactly
    assert r2c <= 1e-12 and r2f <= 1e-12


def test_degeneracy_r2_cancellation_is_structural():
    # the cancellation does not use positivity of the relaxation coefficient
    model = quadratic_gmv(beta=1.0)
    law = displaced_law(model, 2.0)
    ax = np.linspace(-5.0, 5.0, 41)
    g = gaussian_on_grid(law, ax)
    h = ax[1] - ax[0]
    H = 0.5 * g.p[None, :, None] ** 2 + 0.5 * g.z[None, None, :] ** 2
    H = H + 0.5 * g.q[:, None, None] ** 2
    gzH = np.gradient(np.broadcast_to(H, g.values.shape).copy(), h, axis=2, edge_order=2)
    for alpha in (-0.7, 0.0, 3.2):  # arbitrary, even invalid, coefficients
        field = np.gradient(g.values * alpha * (g.z[None, None, :] - gzH), h, axis=2, edge_order=2)
        r = float(np.sqrt(np.sum(field[2:-2, 2:-2, 2:-2] ** 2) * h**3))
        assert r <= 1e-12


# ---------------------------------------------------------------------------
# maximum entropy at fixed energy
# ---------------------------------------------------------------------------


def test_stationary_law_maximizes_entropy_at_its_energy(rng):
    # H = tr(W Sigma)/2 + (omega2 mu_q^2 + mu_p^2 + mu_z^2)/2, W = diag(omega2 + eta2, 1, 1),
    # and entropy/beta = H - F
    omega2, eta2 = 1.3, 0.7
    model = quadratic_gmv(omega2=omega2, eta2=eta2, beta=2.0)
    law = thermo.stationary_law(model)
    H_star = thermo.hamiltonian(law, model)
    S_star = H_star - thermo.free_energy(law, model)
    W = np.diag([omega2 + eta2, 1.0, 1.0])
    trace_w = np.trace(W @ law.cov)
    sd = np.sqrt(np.diag(law.cov))
    laws = []
    for _ in range(20):
        X = rng.uniform(-0.1, 0.1, (3, 3))
        R = 0.5 * (X + X.T) * np.outer(sd, sd)
        delta = R - np.trace(W @ R) / trace_w * law.cov  # tr(W delta) = 0
        laws.append(GaussianLaw(mean=law.mean, cov=law.cov + delta))
        # a shifted mean, its energy taken out of the covariance
        mu = rng.uniform(-0.3, 0.3, 3)
        shrink = 1.0 - (omega2 * mu[0] ** 2 + mu[1] ** 2 + mu[2] ** 2) / trace_w
        laws.append(GaussianLaw(mean=mu, cov=shrink * law.cov))
    for other in laws:
        H = thermo.hamiltonian(other, model)
        assert H == pytest.approx(H_star, rel=0, abs=1e-12)
        assert H - thermo.free_energy(other, model) < S_star


# ---------------------------------------------------------------------------
# quadrature oracles of H and the entropy
# ---------------------------------------------------------------------------


def hamiltonian_grid(density: GridDensity, model) -> float:
    """H(rho) by tensor trapezoid-style quadrature on the grid."""
    hq, hp, hz = density.spacings()
    p = density.p[None, :, None]
    z = density.z[None, None, :]
    v = model.potential.energy(density.q[:, None])
    m0, m1, m2 = density.q_moments()  # (U * rho)(q) from the q-marginal
    u = 0.5 * model.eta2 * (density.q**2 * m0 - 2.0 * density.q * m1 + m2)
    integrand = (0.5 * p**2 + (v + 0.5 * u)[:, None, None] + 0.5 * z**2) * density.values
    return float(np.sum(integrand) * hq * hp * hz)


def entropy_grid(density: GridDensity) -> float:
    """Differential entropy -int rho log rho on the grid (0 log 0 = 0)."""
    hq, hp, hz = density.spacings()
    rho = density.values
    val = -np.sum(np.where(rho > 0, rho * np.log(np.maximum(rho, 1e-300)), 0.0))
    return float(val * hq * hp * hz)


def test_grid_functionals_match_gaussian_closed_forms():
    model = quadratic_gmv(beta=1.5)
    law = thermo.stationary_law(model)
    sig = np.sqrt(np.diag(law.cov))
    axes = tuple(np.linspace(-9 * s, 9 * s, 161) for s in sig)
    grid = gaussian_on_grid(law, None, axes=axes)
    assert hamiltonian_grid(grid, model) == pytest.approx(thermo.hamiltonian(law, model), abs=1e-6)
    E, S = generic_pair(law, model)
    assert hamiltonian_grid(grid, model) == pytest.approx(E, abs=1e-6)
    S_grid = model.beta_inv * entropy_grid(grid)
    assert S_grid == pytest.approx(S, abs=1e-6)
