"""Free-energy and energy/entropy diagnostics in the Gaussian regime.

For quadratic confinement the phase-space law stays Gaussian, so the free
energy

    F(rho) = int [ |p|^2/2 + V(q) + ||z||^2/2 + (U * rho)/2 + log(rho)/beta ] rho

and its dissipation rate

    -dF/dt = int A (z sqrt(rho) + 2 grad_z sqrt(rho)/beta)
               . (z sqrt(rho) + 2 grad_z sqrt(rho)/beta)

reduce to closed-form Gaussian moments.  Each covariance Sigma is factored
once, Sigma = L L^T (Cholesky): a factor that exists passes the PSD check,
the entropy reads log det Sigma = 2 sum log diag L, and the dissipation's
z-block matrix Sigma_zz - 2 I/beta + (Sigma^-1)_zz/beta^2 is the zz block
of W^T W with W = L^-1 (Sigma - I/beta), which is PSD by construction and,
unlike the three terms it sums, shrinks with Sigma - I/beta near
equilibrium.

``evolve_coupled`` marches the energy/entropy pair of the
reversible-irreversible decomposition,

    E(rho, e) = H(rho) + e,      S(rho, e) = -int rho log rho / beta + e,
    H(rho)    = int [ |p|^2/2 + V + (U * rho)/2 + ||z||^2/2 ] rho,

with the auxiliary energy variable e absorbing the heat exchanged through
the z-block, de/dt = int A z . z rho - Tr(A)/beta.  Along the coupled flow E
is conserved, S is nondecreasing, and F = E - S is the Lyapunov function.
The march starts e at 0, so E(0) = H(rho_0) and S(0) is the entropy/beta.

Each public function takes its data first and the model second:
``(law, model)`` for a Gaussian law, ``(density, model)`` for a grid.  A
Gaussian law must belong to a model of the generalized kind and have the
model's ``state_dim()``; otherwise the function raises ShapeMismatch.
``stationary_law`` takes only a model, which must be of the generalized kind
too.

On a d = m = 1 grid density, ``degeneracy_residual`` discretizes the
reversible and irreversible blocks with central differences; both residuals
must vanish with the grid spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, SingularCovariance
from .model import Kind, ValidatedModel
from .quadratic import GaussianLaw, affine_laws, check_covariances, mode, split_BK, whole_steps
from .stationary import GridDensity, d_axis, grid_memory

LOG_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------


def _check_kind(model: ValidatedModel) -> None:
    """ShapeMismatch unless the model is of the generalized kind."""
    if model.kind is not Kind.GENERALIZED:
        raise ShapeMismatch("thermodynamic diagnostics use the generalized kind")


def _check_law(law: GaussianLaw, model: ValidatedModel) -> None:
    """ShapeMismatch unless the model is of the generalized kind and the law spans its state."""
    _check_kind(model)
    if law.dim != model.state_dim():
        raise ShapeMismatch(f"law dimension {law.dim} != model state dimension {model.state_dim()}")


def stationary_law(model: ValidatedModel) -> GaussianLaw:
    """Stationary Gaussian (zero-magnetization branch) of the quadratic model."""
    _check_kind(model)
    omega2 = model.omega2
    d = model.d
    dm = d * model.m
    bi = model.beta_inv
    var = np.concatenate(
        [np.full(d, bi / (omega2 + model.eta2)), np.full(d, bi), np.full(dm, bi)]
    )
    return GaussianLaw(mean=np.zeros(2 * d + dm), cov=np.diag(var))


# ---------------------------------------------------------------------------
# Gaussian closed forms
# ---------------------------------------------------------------------------
#
# Each formula below takes a mean (..., n) and a covariance (..., n, n), so it
# serves one law and, in ``evolve_coupled``, a whole stack of laws at once.


def _blocks(model: ValidatedModel) -> tuple[slice, slice, slice]:
    d = model.d
    dm = d * model.m
    return slice(0, d), slice(d, 2 * d), slice(2 * d, 2 * d + dm)


def _trace(M: np.ndarray) -> np.ndarray:
    return np.trace(M, axis1=-2, axis2=-1)


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", u, v)


def _factor(cov: np.ndarray) -> np.ndarray:
    """Cholesky factors of a covariance stack, checked by ``check_covariances``."""
    L = check_covariances(cov)
    if L is None:
        raise SingularCovariance("covariance is singular; entropy undefined")
    return L


def _entropy(L: np.ndarray) -> np.ndarray:
    logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)
    n = L.shape[-1]
    return 0.5 * (n * math.log(2.0 * math.pi * math.e) + logdet)


def _hamiltonian_of(model: ValidatedModel, mu, cov) -> np.ndarray:
    sq, sp, sz = _blocks(model)
    tr_q = _trace(cov[..., sq, sq])
    kin = 0.5 * (_trace(cov[..., sp, sp]) + _dot(mu[..., sp], mu[..., sp]))
    pot = 0.5 * model.omega2 * (tr_q + _dot(mu[..., sq], mu[..., sq]))
    inter = 0.5 * model.eta2 * tr_q
    aux = 0.5 * (_trace(cov[..., sz, sz]) + _dot(mu[..., sz], mu[..., sz]))
    return kin + pot + inter + aux


def _a_form(model: ValidatedModel, mu_z, S) -> np.ndarray:
    """Tr(A S) + mu_z . A mu_z."""
    A = np.asarray(model.memory.A, dtype=float)
    return _trace(A @ S) + _dot(mu_z @ A, mu_z)


def _dissipation_of(model: ValidatedModel, mu, cov, L) -> np.ndarray:
    _, _, sz = _blocks(model)
    n = cov.shape[-1]
    W = np.linalg.solve(L, cov[..., :, sz] - model.beta_inv * np.eye(n)[:, sz])
    return _a_form(model, mu[..., sz], np.swapaxes(W, -1, -2) @ W)


def _heat_flux_of(model: ValidatedModel, mu, cov) -> np.ndarray:
    _, _, sz = _blocks(model)
    flux = _a_form(model, mu[..., sz], cov[..., sz, sz])
    return flux - model.beta_inv * float(np.trace(model.memory.A))


def hamiltonian(law: GaussianLaw, model: ValidatedModel) -> float:
    """H(rho) of the Gaussian law rho under the model, as Gaussian moments.

    Like every function here that takes ``(law, model)``, it raises
    ShapeMismatch unless the law fits the model (see the module docstring).
    """
    _check_law(law, model)
    return float(_hamiltonian_of(model, law.mean, law.cov))


def free_energy(law: GaussianLaw, model: ValidatedModel) -> float:
    """F(rho) = H(rho) - entropy(rho)/beta, exactly, for the Gaussian law rho."""
    H = hamiltonian(law, model)
    return H - model.beta_inv * float(_entropy(_factor(law.cov)))


def dissipation(law: GaussianLaw, model: ValidatedModel) -> float:
    """-dF/dt >= 0 for the Gaussian law rho under the model.

    The flux vector z + grad_z log(rho)/beta is affine in the state, so the
    quadratic integrand reduces to

        Tr[A (S_zz - 2 I/beta + (S^-1)_zz / beta^2)] + mu_z . A mu_z,

    which vanishes exactly on the stationary product law.  The bracket is
    the zz block of (S - I/beta) S^-1 (S - I/beta) = W^T W, with
    W = L^-1 (S - I/beta) on the z columns and S = L L^T, so it is formed
    as a PSD product that needs no clamp at zero.
    """
    _check_law(law, model)
    L = _factor(law.cov)
    return float(_dissipation_of(model, law.mean, law.cov, L))


# ---------------------------------------------------------------------------
# coupled evolution
# ---------------------------------------------------------------------------


@dataclass
class CoupledSeries:
    times: np.ndarray
    energy: np.ndarray
    entropy: np.ndarray
    free_energy: np.ndarray
    dissipation: np.ndarray
    e: np.ndarray


def evolve_coupled(law: GaussianLaw, model: ValidatedModel, dt: float, T: float) -> CoupledSeries:
    """March the Gaussian law exactly from ``law``, and the auxiliary energy e from 0 by trapezoid.

    The law propagates by ``quadratic.affine_laws`` with the exact one-step
    modes of ``quadratic.mode`` for B and B + K (matrix exponentials and
    one-step Gram integrals), which agrees with the step-by-step loop to
    rounding.  So E-drift measures only the second-order trapezoid error of
    e: halving dt cuts the drift about fourfold.  The law must fit the model, and T must be
    a whole number k >= 1 of steps dt > 0 (``quadratic.whole_steps``), else
    :class:`ShapeMismatch`, so the last row is at T.  Every covariance passes the symmetric-PSD check of a
    Gaussian law and must be nonsingular (:class:`SingularCovariance`
    otherwise); the stack is factored once by Cholesky, and a covariance
    on which Cholesky fails counts as singular for the entropy.
    """
    _check_law(law, model)
    n_steps = whole_steps(T, dt)
    B, K, D = split_BK(model)
    mean, cov = affine_laws(mode(B, D, dt), mode(B + K, D, dt), law.mean, law.cov, n_steps)
    L = _factor(cov)

    H = _hamiltonian_of(model, mean, cov)
    ent = model.beta_inv * _entropy(L)
    g = _heat_flux_of(model, mean, cov)
    e = np.cumsum(np.concatenate([[0.0], 0.5 * dt * (g[:-1] + g[1:])]))
    return CoupledSeries(
        times=np.arange(n_steps + 1) * dt,
        energy=H + e,
        entropy=ent + e,
        free_energy=H - ent,
        dissipation=_dissipation_of(model, mean, cov, L),
        e=e,
    )


# ---------------------------------------------------------------------------
# degeneracy residuals (d = m = 1)
# ---------------------------------------------------------------------------


def degeneracy_residual(density: GridDensity, model: ValidatedModel) -> tuple[float, float]:
    """Discrete norms of the two degeneracy identities.

    r1: the reversible block applied to the entropy variation,
        div( rho J grad(-(log rho + 1)/beta) ), which the antisymmetry of J
        cancels in the continuum and which converges to zero at second order.
    r2: the irreversible block applied to the energy variation,
        div_z( rho A (z - grad_z H) ); grad_z H = z is exact even for the
        central-difference stencil, so r2 cancels structurally (to rounding)
        whatever the matrix A.
    """
    lam, alpha = grid_memory(density, model)
    hq, hp, hz = density.spacings()
    rho = density.values
    bi = model.beta_inv

    xi = -bi * (np.log(np.maximum(rho, LOG_FLOOR)) + 1.0)
    gq = d_axis(xi, hq, 0)
    gp = d_axis(xi, hp, 1)
    gz = d_axis(xi, hz, 2)
    flux_q = rho * (-gp)
    flux_p = rho * (gq - lam * gz)
    flux_z = rho * (lam * gp)
    r1_field = d_axis(flux_q, hq, 0) + d_axis(flux_p, hp, 1) + d_axis(flux_z, hz, 2)
    core = (slice(2, -2),) * 3
    r1 = float(np.sqrt(np.sum(r1_field[core] ** 2) * hq * hp * hz))

    p = density.p[None, :, None]
    z = density.z[None, None, :]
    v = model.potential.energy(density.q[:, None])
    m0, m1, m2 = density.q_moments()  # (U * rho)(q) from the q-marginal
    u = 0.5 * model.eta2 * (density.q**2 * m0 - 2.0 * density.q * m1 + m2)
    H = 0.5 * p**2 + (v + u)[:, None, None] + 0.5 * z**2
    H = np.broadcast_to(H, rho.shape)
    gzH = d_axis(np.ascontiguousarray(H), hz, 2)
    r2_field = d_axis(rho * alpha * (z - gzH), hz, 2)
    r2 = float(np.sqrt(np.sum(r2_field[core] ** 2) * hq * hp * hz))
    return r1, r2
