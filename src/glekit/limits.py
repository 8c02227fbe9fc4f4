"""White-noise limit experiments.

Rescaling the memory as lam -> lam/eps, A -> A/eps^2 collapses the auxiliary
variables onto an effective friction

    gamma = lam^T A^{-1} lam,

and the (q, p) dynamics converges weakly to the underdamped kind with that
gamma.  ``run_study`` quantifies the convergence on first and second moments
(which determine the Gaussian limit laws completely): for each eps it
simulates the rescaled system, compares the (q, p) empirical mean and
covariance at checkpoints against the exact underdamped Gaussian law, and
reports the worst moment error with its Monte Carlo standard error.

The integrator steps the whole (p, z) block exactly, so neither the lam/eps
coupling nor the A/eps^2 relaxation constrains dt: every eps runs
round(T/base_dt) steps of size base_dt.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import matrixkit as mk
from .errors import DegenerateFriction, InsufficientParticles, NonSPDMatrix, ShapeMismatch
from .model import Kind, MemorySpec, ModelSpec, ValidatedModel, validate
from .particles import BlockLaw, InitProduct, covariance_se, init_ensemble, make_stepper
from .quadratic import base_spectrum, meanfield_green, split_BK


def effective_gamma(lam, A):
    """Effective friction lam^T A^{-1} lam via a linear solve (no explicit inverse).

    Returns a scalar for d = 1, else the symmetric PSD d x d friction matrix.
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    if lam.shape[0] == 1 and lam.shape[1] != 1:
        lam = lam.T
    A = mk.check_psd(np.atleast_2d(np.asarray(A, dtype=float)), "A")
    if np.linalg.eigvalsh(A)[0] <= 0:
        raise NonSPDMatrix("A must be positive definite")
    if A.shape[0] != lam.shape[0]:
        raise ShapeMismatch(f"lam rows {lam.shape[0]} != A size {A.shape[0]}")
    G = lam.T @ np.linalg.solve(A, lam)
    G = 0.5 * (G + G.T)
    if G.shape == (1, 1):
        return float(G[0, 0])
    return G


def scaled_spec(model: ValidatedModel, epsilon: float) -> ValidatedModel:
    """Rescaled model with lam/eps and A/eps^2 (same potential, beta, kind)."""
    if model.kind is not Kind.GENERALIZED:
        raise ShapeMismatch("scaling applies to the generalized kind")
    if not epsilon > 0:
        raise ShapeMismatch(f"epsilon must be positive, got {epsilon}")
    mem = model.memory
    diag = None
    if mem.diag is not None:
        lambdas, alphas = mem.diag
        diag = (
            tuple(l / epsilon for l in lambdas),
            tuple(a / epsilon**2 for a in alphas),
        )
    scaled_mem = MemorySpec(
        m=mem.m,
        lam=np.asarray(mem.lam, dtype=float) / epsilon,
        A=np.asarray(mem.A, dtype=float) / epsilon**2,
        diag=diag,
    )
    return validate(replace(model.spec, memory=scaled_mem))


def underdamped_reference(model: ValidatedModel) -> ValidatedModel:
    """Underdamped model with gamma = lam^T A^{-1} lam derived from the memory."""
    g = effective_gamma(model.memory.lam, model.memory.A)
    g_scalar = float(g) if np.isscalar(g) or np.ndim(g) == 0 else float(np.trace(g) / g.shape[0])
    if g_scalar <= 0:
        raise DegenerateFriction("effective friction is zero; no noise reaches p")
    return validate(
        ModelSpec(
            d=model.d,
            beta=model.beta,
            potential=model.potential,
            interaction=model.interaction,
            gamma=g_scalar,
            kind=Kind.UNDERDAMPED,
        )
    )


def slow_eigenvalues(model: ValidatedModel, epsilon: float) -> np.ndarray:
    """The four drift eigenvalues of the rescaled system that stay O(1).

    The remaining 2m eigenvalues diverge like -alpha_j/eps^2; the slow four
    approach the underdamped eigenvalues computed with the effective gamma.
    """
    spec = base_spectrum(scaled_spec(model, epsilon))
    order = np.argsort(np.abs(spec))
    slow = spec[order[:4]]
    return slow[np.lexsort((slow.imag, slow.real))]


@dataclass(frozen=True)
class ScalingStudy:
    """A family of rescaled runs compared against the exact underdamped law.

    ``base_dt`` is the step of every run, whatever its eps.
    """

    base_model: ValidatedModel
    epsilons: tuple[float, ...]
    N: int
    T: float
    base_dt: float = 1e-3
    seed: int = 0
    checkpoints: tuple[float, ...] = (0.5, 1.0, 2.0)
    q0: float = 1.0
    p0: float = 0.0
    metric: str = "qp_mean_and_cov"

    def __post_init__(self):
        if self.base_model.kind is not Kind.GENERALIZED:
            raise ShapeMismatch("scaling study needs a generalized base model")
        eps = tuple(float(e) for e in self.epsilons)
        if len(eps) < 2 or any(b >= a for a, b in zip(eps, eps[1:])):
            raise ShapeMismatch("epsilons must be strictly decreasing, length >= 2")
        object.__setattr__(self, "epsilons", eps)
        if self.N < 2:
            raise InsufficientParticles(f"moment errors need N >= 2 particles, got N={self.N}")
        if not self.base_dt > 0:
            raise ShapeMismatch(f"base_dt must be positive, got {self.base_dt}")
        g = effective_gamma(self.base_model.memory.lam, self.base_model.memory.A)
        g_min = float(g) if np.ndim(g) == 0 else float(np.linalg.eigvalsh(g)[0])
        if g_min <= 0:
            raise DegenerateFriction("effective friction is zero; study refuses to run")


@dataclass(frozen=True)
class StudyRow:
    epsilon: float
    error: float
    se: float
    steps: int
    wallclock_s: float


@dataclass(frozen=True)
class StudyResult:
    rows: tuple[StudyRow, ...]
    gamma: float
    checkpoints: tuple[float, ...]


def _moment_errors_vs_reference(model_ref, study, ens_moments):
    """Max abs (q,p) moment error across checkpoints, with the matching SE."""
    B, K, D = split_BK(model_ref)
    x0 = np.array([study.q0, study.p0])
    worst_err, worst_se = -1.0, 0.0
    for t, (mean_qp, cov_qp, N) in ens_moments.items():
        law = meanfield_green(B, K, D, t, x0)
        err_mean = np.abs(mean_qp - law.mean)
        se_mean = np.sqrt(np.diag(cov_qp) / N)
        err_cov = np.abs(cov_qp - law.cov)
        se_cov = covariance_se(cov_qp, N)
        for e, s in zip(
            np.concatenate([err_mean, err_cov.ravel()]),
            np.concatenate([se_mean, se_cov.ravel()]),
        ):
            if e > worst_err:
                worst_err, worst_se = float(e), float(s)
    return worst_err, worst_se


def run_study(study: ScalingStudy) -> StudyResult:
    """Simulate each rescaled system and tabulate moment errors vs the limit law.

    Rows come in the input epsilon order; each run draws from its own
    sub-stream of ``study.seed`` and takes round(T/base_dt) steps.  Raises
    :class:`ShapeMismatch` before simulating unless every checkpoint falls on
    its own step in (0, T].
    """
    dt = study.base_dt
    n_steps = int(round(study.T / dt))
    check_steps = {int(round(t / dt)): t for t in study.checkpoints}
    if len(check_steps) < len(set(study.checkpoints)) or not all(
        1 <= k <= n_steps for k in check_steps
    ):
        raise ShapeMismatch(
            f"checkpoints {study.checkpoints} do not fall on distinct steps of "
            f"(0, T={study.T}] at dt={dt}"
        )
    gamma = effective_gamma(study.base_model.memory.lam, study.base_model.memory.A)
    ref = underdamped_reference(study.base_model)
    rows = []
    for idx, eps in enumerate(study.epsilons):
        t0 = time.perf_counter()
        scaled = scaled_spec(study.base_model, eps)
        seed_seq = np.random.SeedSequence(entropy=study.seed, spawn_key=(idx,))
        init = InitProduct(
            q=BlockLaw(point=study.q0),
            p=BlockLaw(point=study.p0),
            z=BlockLaw(mean=0.0, var=scaled.beta_inv),
        )
        ens = init_ensemble(scaled, study.N, seed_seq, init)
        stepper = make_stepper(scaled, dt)
        moments = {}
        for k in range(1, n_steps + 1):
            stepper.step(ens)
            if k in check_steps:
                qp = np.hstack([ens.q, ens.p])
                mean = qp.mean(axis=0)
                cov = np.cov(qp.T, ddof=1).reshape(2 * scaled.d, 2 * scaled.d)
                moments[check_steps[k]] = (mean, cov, study.N)
        err, se = _moment_errors_vs_reference(ref, study, moments)
        rows.append(
            StudyRow(
                epsilon=eps,
                error=err,
                se=se,
                steps=n_steps,
                wallclock_s=time.perf_counter() - t0,
            )
        )
    g_scalar = float(gamma) if np.ndim(gamma) == 0 else float(np.trace(gamma) / gamma.shape[0])
    return StudyResult(rows=tuple(rows), gamma=g_scalar, checkpoints=study.checkpoints)
