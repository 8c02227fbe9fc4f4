"""Closed-form analytics for the quadratic (Gaussian) regime.

For quadratic confinement V = omega2 q^2 / 2 and Curie-Weiss interaction
U = eta2 xi^2 / 2 all three dynamics kinds are (degenerate) linear diffusions

    dY = B^N Y dt + sqrt(2 D / beta) dW,

and everything here is exact:

* ``assemble``          -- the N-particle drift/diffusion block matrices
* ``base_spectrum``     -- drift eigenvalues from the scalar characteristic
  equations (for the generalized kind, the 2m+4 roots of the two polynomials
  nu (nu + sum_j lambda_j^2/(nu+alpha_j)) = -omega2 and = -(omega2+eta2))
* ``spectrum_lattice``  -- the generator spectrum, all nonnegative-integer
  combinations of the drift eigenvalues
* ``ou_fundamental``    -- transition kernel of a hypoelliptic linear diffusion
* ``meanfield_green``   -- Gaussian law of the mean-field dynamics
  dX = BX dt + K(X - <X>) dt + sqrt(2D) dW started at a point:
  mean e^{tB} x0, covariance int_0^t e^{s(B+K)} (2D) e^{s(B+K)^T} ds
* ``riccati_covariance`` -- the one-sided matrix 2 int_0^t e^{2s(B+K)} D ds,
  the unique solution of dQ/dt = 2[D + (B+K)Q], Q(0) = 0.  In one dimension
  (or whenever B+K and D commute and are symmetric) it coincides with the
  covariance above; in general it does not and the Gaussian law carries the
  Gram form, which is what particle simulations reproduce.
* ``stepper_law``       -- the exact N -> infinity law a particle stepper
  produces, which measures an integrator's weak bias without Monte Carlo
  noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import matrixkit as mk
from .errors import RootFindingFailure, ShapeMismatch, SingularCovariance, UnsupportedPotential
from .model import CurieWeiss, Kind, NoInteraction, Quadratic, ValidatedModel

DEDUP_TOL = 1e-12
DEFAULT_LATTICE_CAP = 4


# ---------------------------------------------------------------------------
# container types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriftDiffusion:
    """Drift matrix B and diffusion shape D of a linear system.

    The noise convention is dY = B Y dt + sqrt(2 D / beta) dW: the inverse
    temperature multiplies D outside this container.
    """

    B: np.ndarray
    D: np.ndarray
    dim: int
    labels: tuple[str, ...]


def check_covariances(cov: np.ndarray) -> None:
    """Raise ShapeMismatch unless each matrix of a stack (..., n, n) is symmetric PSD.

    Both tests are relative to max(1, max |entry|) of each matrix, at 1e-12.
    """
    cov_t = np.swapaxes(cov, -1, -2)
    scale = np.maximum(1.0, np.max(np.abs(cov), axis=(-2, -1)))
    if np.any(np.max(np.abs(cov - cov_t), axis=(-2, -1)) > 1e-12 * scale):
        raise ShapeMismatch("covariance is not symmetric")
    w = np.linalg.eigvalsh(0.5 * (cov + cov_t))[..., 0]
    if np.any(w < -1e-12 * scale):
        raise ShapeMismatch(f"covariance has negative eigenvalue {np.min(w)}")


@dataclass(frozen=True)
class GaussianLaw:
    """Mean vector and covariance matrix of a Gaussian phase-space law."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        n = mean.shape[0]
        if cov.shape != (n, n):
            raise ShapeMismatch(f"cov shape {cov.shape} inconsistent with mean length {n}")
        check_covariances(cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class SpectrumReport:
    """Drift eigenvalues plus the generated lattice of generator eigenvalues."""

    base_eigenvalues: np.ndarray
    lattice: np.ndarray
    multi_indices: tuple[tuple[int, ...], ...]
    kind: str
    parameters: dict = field(default_factory=dict)
    cap: int = DEFAULT_LATTICE_CAP


# ---------------------------------------------------------------------------
# N-particle block matrices
# ---------------------------------------------------------------------------


def _require_quadratic(model: ValidatedModel) -> tuple[float, float]:
    if not isinstance(model.potential, Quadratic):
        raise UnsupportedPotential("block assembly needs a quadratic potential")
    if not isinstance(model.interaction, (CurieWeiss, NoInteraction)):
        raise UnsupportedPotential("block assembly needs a Curie-Weiss interaction")
    return model.omega2, model.eta2


def _omv_drift(omega2: float, eta2: float, N: int, d: int) -> np.ndarray:
    M = np.full((N, N), eta2 / N)
    np.fill_diagonal(M, -(omega2 + (N - 1) * eta2 / N))
    return np.kron(M, np.eye(d))


def assemble(model: ValidatedModel, N: int) -> DriftDiffusion:
    """Exact N-particle drift/diffusion block matrices for the model's kind.

    State ordering is (q_1..q_N, p_1..p_N, z_1..z_N) with each z_i of length
    d*m; for N = 1 this is the single-particle layout used everywhere else.
    """
    if N < 1:
        raise ShapeMismatch(f"N must be >= 1, got {N}")
    omega2, eta2 = _require_quadratic(model)
    d = model.d
    n = N * d
    Bo = _omv_drift(omega2, eta2, N, d)

    if model.kind is Kind.OVERDAMPED:
        labels = tuple(f"q{i}" for i in range(n))
        return DriftDiffusion(B=Bo, D=np.eye(n), dim=n, labels=labels)

    if model.kind is Kind.UNDERDAMPED:
        Z = np.zeros((n, n))
        B = np.block([[Z, np.eye(n)], [Bo, -model.gamma * np.eye(n)]])
        D = np.zeros((2 * n, 2 * n))
        D[n:, n:] = model.gamma * np.eye(n)
        labels = tuple(f"q{i}" for i in range(n)) + tuple(f"p{i}" for i in range(n))
        return DriftDiffusion(B=B, D=D, dim=2 * n, labels=labels)

    mem = model.memory
    dm = d * mem.m
    nz = N * dm
    lam = np.kron(np.eye(N), np.asarray(mem.lam, dtype=float))
    A = np.kron(np.eye(N), np.asarray(mem.A, dtype=float))
    B = np.zeros((2 * n + nz, 2 * n + nz))
    B[:n, n : 2 * n] = np.eye(n)
    B[n : 2 * n, :n] = Bo
    B[n : 2 * n, 2 * n :] = lam.T
    B[2 * n :, n : 2 * n] = -lam
    B[2 * n :, 2 * n :] = -A
    D = np.zeros_like(B)
    D[2 * n :, 2 * n :] = A
    labels = (
        tuple(f"q{i}" for i in range(n))
        + tuple(f"p{i}" for i in range(n))
        + tuple(f"z{i}" for i in range(nz))
    )
    return DriftDiffusion(B=B, D=D, dim=2 * n + nz, labels=labels)


# ---------------------------------------------------------------------------
# base spectrum
# ---------------------------------------------------------------------------


def _sorted_complex(vals) -> np.ndarray:
    w = np.asarray(vals, dtype=complex)
    return w[np.lexsort((w.imag, w.real))]


def _gle_branch_roots(c: float, lambdas, alphas) -> np.ndarray:
    """Roots of nu^2 prod(nu+a_j) + nu sum_j l_j^2 prod_{k!=j}(nu+a_k) + c prod(nu+a_j)."""
    poly = np.array([1.0, 0.0])  # nu^2 accumulates the alpha factors below
    for a in alphas:
        poly = np.polymul(poly, [1.0, a])
    poly = np.polymul(poly, [1.0, 0.0])  # now nu^2 * prod(nu + a_j)
    for j, lj in enumerate(lambdas):
        term = np.array([lj**2, 0.0])  # l_j^2 * nu
        for k, a in enumerate(alphas):
            if k != j:
                term = np.polymul(term, [1.0, a])
        poly = np.polyadd(poly, term)
    const = np.array([float(c)])
    for a in alphas:
        const = np.polymul(const, [1.0, a])
    poly = np.polyadd(poly, const)
    try:
        roots = np.roots(poly)
    except np.linalg.LinAlgError as exc:
        raise RootFindingFailure(str(exc)) from exc
    resid = np.abs(np.polyval(poly, roots))
    scale = max(1.0, float(np.max(np.abs(poly))))
    if np.any(resid > 1e-6 * scale):
        raise RootFindingFailure(f"polynomial residual too large: {resid.max()}")
    return roots


def base_spectrum(model: ValidatedModel) -> np.ndarray:
    """Drift eigenvalue multiset generating the Fokker-Planck spectrum.

    Overdamped: {-omega2, -(omega2+eta2)}.  Underdamped: the four values
    (-gamma +/- sqrt(gamma^2 - 4c))/2 with c in {omega2, omega2+eta2}.
    Generalized (diagonal memory): the 2m+4 roots of the two cleared-
    denominator polynomials, extracted as companion-matrix eigenvalues.
    Values are per spatial coordinate (the quadratic model decouples in d).
    """
    omega2, eta2 = _require_quadratic(model)
    cs = (omega2, omega2 + eta2)
    if model.kind is Kind.OVERDAMPED:
        return _sorted_complex([-c for c in cs])
    if model.kind is Kind.UNDERDAMPED:
        g = model.gamma
        vals = []
        for c in cs:
            disc = np.sqrt(complex(g * g - 4.0 * c))
            vals += [(-g + disc) / 2.0, (-g - disc) / 2.0]
        return _sorted_complex(vals)
    lambdas, alphas = model.memory.diagonal_rates()
    vals = []
    for c in cs:
        vals.extend(_gle_branch_roots(c, lambdas, alphas))
    return _sorted_complex(vals)


def spectrum_lattice(base: Sequence[complex], cap: int = DEFAULT_LATTICE_CAP) -> SpectrumReport:
    """All sums sum_j k_j nu_j with k_j >= 0 integers and sum k_j <= cap.

    Points are deduplicated to 1e-12; each retained point carries the
    multi-index of lowest total degree that produced it.  Zero (all k = 0)
    is always present.
    """
    base = np.asarray(base, dtype=complex)
    if base.size == 0:
        raise ShapeMismatch("base spectrum must be nonempty")
    if cap < 0:
        raise ShapeMismatch(f"lattice cap must be nonnegative, got {cap}")
    r = base.size
    entries: list[tuple[int, tuple[int, ...], complex]] = []

    def rec(idx: int, remaining: int, k: list[int], acc: complex):
        if idx == r:
            entries.append((sum(k), tuple(k), acc))
            return
        for kj in range(remaining + 1):
            k.append(kj)
            rec(idx + 1, remaining - kj, k, acc + kj * base[idx])
            k.pop()

    rec(0, int(cap), [], 0.0 + 0.0j)
    entries.sort(key=lambda e: (e[0], e[1]))
    seen: dict[tuple[float, float], None] = {}
    points, indices = [], []
    for _, k, val in entries:
        key = (round(val.real / DEDUP_TOL), round(val.imag / DEDUP_TOL))
        if key in seen:
            continue
        seen[key] = None
        points.append(val)
        indices.append(k)
    return SpectrumReport(
        base_eigenvalues=base,
        lattice=np.asarray(points, dtype=complex),
        multi_indices=tuple(indices),
        kind="",
        cap=int(cap),
    )


def spectrum_report(model: ValidatedModel, cap: int = DEFAULT_LATTICE_CAP) -> SpectrumReport:
    """Base spectrum plus lattice, tagged with the model's kind and parameters."""
    base = base_spectrum(model)
    rep = spectrum_lattice(base, cap)
    params = {"beta": model.beta, "d": model.d, "kind": model.kind.value}
    params["omega2"] = model.omega2
    params["eta2"] = model.eta2
    if model.kind is Kind.UNDERDAMPED:
        params["gamma"] = model.gamma
    if model.kind is Kind.GENERALIZED:
        lambdas, alphas = model.memory.diagonal_rates()
        params["lambdas"] = lambdas
        params["alphas"] = alphas
    return SpectrumReport(
        base_eigenvalues=rep.base_eigenvalues,
        lattice=rep.lattice,
        multi_indices=rep.multi_indices,
        kind=model.kind.value,
        parameters=params,
        cap=int(cap),
    )


def spectral_gap(report: SpectrumReport) -> float:
    """Distance from zero to the rest of the lattice: -max Re over nonzero points.

    For stable drifts this is the exponential convergence rate to equilibrium.
    """
    nz = report.lattice[np.abs(report.lattice) > 1e-12]
    if nz.size == 0:
        return 0.0
    return float(-np.max(nz.real))


# ---------------------------------------------------------------------------
# fundamental solution of a hypoelliptic linear diffusion
# ---------------------------------------------------------------------------


def ou_fundamental(B, D, t: float, x, y) -> float:
    """Transition kernel Gamma(t, x, y) of the generator Bx.grad + div(D grad).

    Implemented verbatim as

        (4 pi)^{-n/2} det(D_t)^{-1/2} exp(-(x - e^{-tB} y)^T D_t^{-1}
                                           (x - e^{-tB} y) / 4),

    with D_t the Gram integral of (B, D).  Note the e^{-tB} displacement:
    as a function of x this is the Gaussian of the time-reversed drift -B;
    ``fundamental_mc_discrepancy`` quantifies the mismatch against forward
    sample paths of dX = BX dt + sqrt(2D) dW rather than hiding it.
    Integrates to one over x for any displacement convention.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = B.shape[0]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != (n,) or y.shape != (n,):
        raise ShapeMismatch(f"x and y must have length {n}")
    if t <= 0:
        raise SingularCovariance("fundamental solution needs t > 0")
    Dt = mk.gram_integral(B, D, t)
    sign, logdet = np.linalg.slogdet(Dt)
    if sign <= 0 or not np.isfinite(logdet):
        raise SingularCovariance(
            "Gram matrix D_t is singular: the pair (B, D) is not hypoelliptic"
        )
    disp = x - mk.expm(-t * B) @ y
    quad = float(disp @ np.linalg.solve(Dt, disp))
    log_norm = -0.5 * n * np.log(4.0 * np.pi) - 0.5 * logdet
    return float(np.exp(log_norm - 0.25 * quad))


@dataclass(frozen=True)
class KernelMCReport:
    """Discrepancies between the printed kernel and forward Monte Carlo."""

    mean_err_printed: float
    mean_err_forward: float
    cov_err_forward: float
    mc_se: float


def fundamental_mc_discrepancy(
    B, D, t: float, y, n_samples: int = 20000, n_steps: int = 400, seed: int = 0
) -> KernelMCReport:
    """Euler-Maruyama check of which displacement convention the kernel matches.

    Simulates dX = BX dt + sqrt(2D) dW from y and compares the empirical mean
    against both e^{tB} y (forward) and e^{-tB} y (the kernel's convention as
    printed), plus the empirical covariance against 2 D_t.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    D = mk.check_psd(np.atleast_2d(np.asarray(D, dtype=float)))
    n = B.shape[0]
    y = np.atleast_1d(np.asarray(y, dtype=float))
    rng = np.random.default_rng(seed)
    S = mk.psd_sqrt(2.0 * D)
    dt = t / n_steps
    X = np.tile(y, (n_samples, 1))
    for _ in range(n_steps):
        X = X + (X @ B.T) * dt + rng.standard_normal((n_samples, n)) @ (S.T * np.sqrt(dt))
    emp_mean = X.mean(axis=0)
    emp_cov = np.cov(X.T).reshape(n, n)
    fwd = mk.expm(t * B) @ y
    bwd = mk.expm(-t * B) @ y
    cov_ref = 2.0 * mk.gram_integral(B, D, t)
    se = float(np.sqrt(np.max(np.diag(cov_ref)) / n_samples))
    return KernelMCReport(
        mean_err_printed=float(np.max(np.abs(emp_mean - bwd))),
        mean_err_forward=float(np.max(np.abs(emp_mean - fwd))),
        cov_err_forward=float(np.max(np.abs(emp_cov - cov_ref))),
        mc_se=se,
    )


# ---------------------------------------------------------------------------
# mean-field Gaussian law
# ---------------------------------------------------------------------------


def meanfield_green(B, K, D, t: float, x0) -> GaussianLaw:
    """Gaussian law at time t of dX = BX dt + K(X - <X>) dt + sqrt(2D) dW from x0.

    Mean e^{tB} x0 (the self-interaction K drops out of the mean equation);
    covariance the Gram integral of (B+K, 2D), i.e. the solution of the
    Lyapunov flow dS/dt = (B+K)S + S(B+K)^T + 2D from S(0) = 0.  This is the
    law that empirical moments of the interacting particle system converge
    to; see ``riccati_covariance`` for the one-sided variant.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    K = np.atleast_2d(np.asarray(K, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = B.shape[0]
    if K.shape != (n, n) or D.shape != (n, n) or x0.shape != (n,):
        raise ShapeMismatch("B, K, D, x0 dimensions are inconsistent")
    if t < 0:
        raise ShapeMismatch(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return GaussianLaw(mean=x0.copy(), cov=np.zeros((n, n)))
    mean = mk.expm(t * B) @ x0
    cov = mk.gram_integral(B + K, 2.0 * D, t)
    return GaussianLaw(mean=mean, cov=cov)


def propagate_gaussian(B, K, D, t: float, law: GaussianLaw) -> GaussianLaw:
    """Propagate a Gaussian initial law under the same mean-field dynamics."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    M = B + np.atleast_2d(np.asarray(K, dtype=float))
    if t == 0.0:
        return law
    E = mk.expm(t * M)
    cov = E @ law.cov @ E.T + mk.gram_integral(M, 2.0 * np.atleast_2d(np.asarray(D, float)), t)
    return GaussianLaw(mean=mk.expm(t * B) @ law.mean, cov=0.5 * (cov + cov.T))


def riccati_covariance(B, K, D, t: float) -> np.ndarray:
    """One-sided matrix Q(t) = 2 int_0^t e^{2s(B+K)} D ds.

    Q solves dQ/dt = 2 [D + (B+K) Q] with Q(0) = 0; the closed form used is
    the augmented exponential of [[2(B+K), I], [0, 0]], valid whether or not
    B+K is invertible.  Q is not symmetric in general -- it equals the Gram
    covariance only when (B+K) Q stays symmetric (always true in one
    dimension).
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    K = np.atleast_2d(np.asarray(K, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    n = B.shape[0]
    M = B + K
    H = np.zeros((2 * n, 2 * n))
    H[:n, :n] = 2.0 * M
    H[:n, n:] = np.eye(n)
    F = mk.expm(t * H)
    return 2.0 * F[:n, n:] @ D


def split_BK(model: ValidatedModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean-field (B, K, D) matrices of the model's kind.

    B carries confinement, transport, and memory; K carries only the
    interaction response -eta2 (q - <q>) in the force row; D is the
    Fokker-Planck diffusion including the 1/beta factor.
    """
    omega2, eta2 = _require_quadratic(model)
    d = model.d
    eye = np.eye(d)
    bi = model.beta_inv
    if model.kind is Kind.OVERDAMPED:
        return -omega2 * eye, -eta2 * eye, bi * eye
    if model.kind is Kind.UNDERDAMPED:
        Z = np.zeros((d, d))
        B = np.block([[Z, eye], [-omega2 * eye, -model.gamma * eye]])
        K = np.zeros((2 * d, 2 * d))
        K[d:, :d] = -eta2 * eye
        D = np.zeros((2 * d, 2 * d))
        D[d:, d:] = model.gamma * bi * eye
        return B, K, D
    mem = model.memory
    dm = d * mem.m
    lam = np.asarray(mem.lam, dtype=float)
    A = np.asarray(mem.A, dtype=float)
    n = 2 * d + dm
    B = np.zeros((n, n))
    B[:d, d : 2 * d] = eye
    B[d : 2 * d, :d] = -omega2 * eye
    B[d : 2 * d, 2 * d :] = lam.T
    B[2 * d :, d : 2 * d] = -lam
    B[2 * d :, 2 * d :] = -A
    K = np.zeros((n, n))
    K[d : 2 * d, :d] = -eta2 * eye
    D = np.zeros((n, n))
    D[2 * d :, 2 * d :] = bi * A
    return B, K, D


def meanfield_law(model: ValidatedModel, t: float, x0) -> GaussianLaw:
    """Convenience: meanfield_green evaluated on the model's own (B, K, D)."""
    B, K, D = split_BK(model)
    return meanfield_green(B, K, D, t, x0)


def stepper_law(stepper, mean, cov, n_steps: int) -> GaussianLaw:
    """Exact N -> infinity law of a particle stepper after ``n_steps`` steps.

    For quadratic V and a Curie-Weiss U every stepper of ``glekit.particles``
    is affine in the state, and the interaction enters only through
    q - mean(q).  So the ensemble mean follows mu -> Phi mu, where Phi is the
    one-step map with force constant omega2, and the fluctuations follow
    Sigma -> Phi~ Sigma Phi~^T + Q, where Phi~ uses omega2 + eta2 and Q is
    the step's injected noise carried through the rest of the step.  The
    maps are read from the stepper's own ``dt``, ``noise_std`` and
    ``ou_decay`` or (p, z) map ``T``, ``S``, so comparing the result with
    :func:`meanfield_law` gives the scheme's weak bias with no Monte Carlo
    noise.  Euler-Maruyama has bias O(dt); the B-A-O-A-B splittings have
    O(dt^2), with a constant that stays bounded, though not constant, as the
    white-noise scaling lam/eps, A/eps^2 sends eps -> 0.
    """
    model = stepper.model
    omega2, eta2 = _require_quadratic(model)
    d, dt, n = model.d, stepper.dt, model.state_dim()
    eye = np.eye(n)
    # the O step of the kinetic kinds: its map and the covariance of its noise
    o_map, o_noise = eye.copy(), np.zeros((n, n))
    if model.kind is Kind.UNDERDAMPED:
        o_map[d:, d:] *= stepper.ou_decay
        o_noise[d:, d:] = stepper.noise_std**2 * np.eye(d)
    elif model.kind is Kind.GENERALIZED:
        o_map[d:, d:] = stepper.T
        o_noise[d:, d:] = stepper.S @ stepper.S.T
    drift = eye.copy()
    drift[:d, d : 2 * d] = 0.5 * dt * np.eye(d)

    def one_step(c):
        """The step's affine map under force constant c, and the noise it injects."""
        if model.kind is Kind.OVERDAMPED:
            return (1.0 - dt * c) * eye, stepper.noise_std**2 * eye
        kick = eye.copy()
        kick[d : 2 * d, :d] = -0.5 * dt * c * np.eye(d)
        tail = kick @ drift
        return tail @ o_map @ drift @ kick, tail @ o_noise @ tail.T

    Phi, _ = one_step(omega2)
    Phi_t, Q = one_step(omega2 + eta2)
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if mean.shape != (n,) or cov.shape != (n, n):
        raise ShapeMismatch(f"stepper_law needs a mean of length {n} and a {n}x{n} covariance")
    if n_steps < 0:
        raise ShapeMismatch(f"n_steps must be nonnegative, got {n_steps}")
    for _ in range(int(n_steps)):
        mean = Phi @ mean
        cov = Phi_t @ cov @ Phi_t.T + Q
        cov = 0.5 * (cov + cov.T)
    return GaussianLaw(mean=mean, cov=cov)
