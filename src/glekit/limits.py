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
coupling nor the A/eps^2 relaxation constrains dt: every eps runs the same
``quadratic.whole_steps(T, dt)`` steps of one size dt (the ``--base-dt`` flag
of ``glekit whitenoise``).  The reference law at each checkpoint is built
once, before the first step, so a model without one fails at once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import matrixkit as mk
from .errors import DegenerateFriction, InsufficientParticles, NonSPDMatrix, ShapeMismatch
from .model import Kind, ValidatedModel
from .particles import BlockLaw, InitProduct, covariance_se, init_ensemble, make_stepper
from .quadratic import base_spectrum, meanfield_green, split_BK, whole_steps

# every particle of a study starts at q = 1, p = 0
Q0, P0 = 1.0, 0.0


def effective_gamma(lam, A):
    """Effective friction lam^T A^{-1} lam via a linear solve (no explicit inverse).

    ``lam`` is the (dm, d) coupling of a memory spec.  Returns a scalar for
    d = 1, else the symmetric PSD d x d friction matrix.  An entry beyond the
    float range raises ShapeMismatch, with no warning.
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    A = mk.check_psd(np.atleast_2d(np.asarray(A, dtype=float)), "A")
    if np.linalg.eigvalsh(A)[0] <= 0:
        raise NonSPDMatrix("A must be positive definite")
    if A.shape[0] != lam.shape[0]:
        raise ShapeMismatch(f"lam rows {lam.shape[0]} != A size {A.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        G = lam.T @ np.linalg.solve(A, lam)
        G = 0.5 * (G + G.T)
    if not np.all(np.isfinite(G)):
        raise ShapeMismatch("effective friction lam^T A^-1 lam is not finite")
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
    scaled_mem = replace(mem, lam=np.asarray(mem.lam, dtype=float) / epsilon,
                         A=np.asarray(mem.A, dtype=float) / epsilon**2)
    return replace(model, memory=scaled_mem)


def underdamped_reference(model: ValidatedModel) -> ValidatedModel:
    """Underdamped model with gamma = lam^T A^{-1} lam, which must be a multiple of I."""
    if model.kind is not Kind.GENERALIZED:
        raise ShapeMismatch("the underdamped reference applies to the generalized kind")
    g = np.atleast_2d(effective_gamma(model.memory.lam, model.memory.A))
    g_scalar = float(np.mean(np.diag(g)))
    if np.max(np.abs(g - g_scalar * np.eye(model.d))) > 1e-12 * abs(g_scalar):
        raise ShapeMismatch(f"effective friction {g} is not a multiple of the identity")
    if g_scalar <= 0:
        raise DegenerateFriction("effective friction is zero; no noise reaches p")
    return replace(model, memory=None, gamma=g_scalar, kind=Kind.UNDERDAMPED)


def slow_eigenvalues(model: ValidatedModel, epsilon: float) -> np.ndarray:
    """The four drift eigenvalues of the rescaled system that stay O(1).

    The remaining 2m eigenvalues diverge like -alpha_j/eps^2; the slow four
    approach the underdamped eigenvalues computed with the effective gamma.
    """
    spec = base_spectrum(scaled_spec(model, epsilon))
    order = np.argsort(np.abs(spec))
    return mk.sort_complex(spec[order[:4]])


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


def _moment_errors(laws, moments):
    """Max abs (q,p) moment error across checkpoints, with the matching SE.

    ``laws`` maps each checkpoint t to the reference law at t, and ``moments``
    maps it to the ensemble's (mean, cov, N); the maximum is the first one in
    the order of ``moments``.
    """
    errs, ses = [], []
    for t, (mean_qp, cov_qp, N) in moments.items():
        law = laws[t]
        errs += [np.abs(mean_qp - law.mean), np.abs(cov_qp - law.cov).ravel()]
        ses += [np.sqrt(np.diag(cov_qp) / N), covariance_se(cov_qp, N).ravel()]
    errs, ses = np.concatenate(errs), np.concatenate(ses)
    i = np.argmax(errs)  # the first maximum
    return float(errs[i]), float(ses[i])


def run_study(model: ValidatedModel, epsilons, N: int, T: float, dt: float, seed: int,
              checkpoints) -> StudyResult:
    """Simulate each rescaled system and tabulate moment errors vs the limit law.

    ``model`` is the generalized d = 1 model at eps = 1; every eps runs
    ``quadratic.whole_steps(T, dt)`` steps of size dt.  Rows come in the input
    epsilon order, and each run draws from its own sub-stream of ``seed``.
    Before any step, in this order: ShapeMismatch unless the model is of the
    generalized kind with d = 1 and the epsilons are finite, positive and
    strictly decreasing (at least two); InsufficientParticles for N < 2;
    whatever ``underdamped_reference`` raises for the effective friction
    (DegenerateFriction when it is zero); ShapeMismatch unless T and every
    checkpoint are whole numbers k >= 1 of steps dt > 0, there is a
    checkpoint, and each falls on its own step in (0, T]; and whatever the
    reference law at each checkpoint raises (UnsupportedPotential for a
    potential that is not quadratic).
    """
    if model.kind is not Kind.GENERALIZED:
        raise ShapeMismatch("scaling study needs a generalized base model")
    if model.d != 1:
        raise ShapeMismatch(f"scaling study needs d = 1, got d = {model.d}")
    epsilons = tuple(float(e) for e in epsilons)
    if not all(0 < e < math.inf for e in epsilons):
        raise ShapeMismatch(f"epsilons must be finite and positive, got {epsilons}")
    if len(epsilons) < 2 or any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise ShapeMismatch("epsilons must be strictly decreasing, length >= 2")
    if N < 2:
        raise InsufficientParticles(f"moment errors need N >= 2 particles, got N={N}")
    ref = underdamped_reference(model)
    n_steps = whole_steps(T, dt)
    check_steps = {whole_steps(t, dt): t for t in checkpoints}
    if not 0 < len(check_steps) == len(set(checkpoints)) or max(check_steps) > n_steps:
        raise ShapeMismatch(
            f"checkpoints {checkpoints} do not fall on distinct steps of (0, T={T}] at dt={dt}"
        )
    B, K, D = split_BK(ref)
    laws = {t: meanfield_green(B, K, D, t, np.array([Q0, P0])) for t in check_steps.values()}
    rows = []
    for idx, eps in enumerate(epsilons):
        t0 = time.perf_counter()
        scaled = scaled_spec(model, eps)
        seed_seq = np.random.SeedSequence(entropy=seed, spawn_key=(idx,))
        init = InitProduct(
            q=BlockLaw(point=Q0),
            p=BlockLaw(point=P0),
            z=BlockLaw(mean=0.0, var=scaled.beta_inv),
        )
        ens = init_ensemble(scaled, N, seed_seq, init)
        stepper = make_stepper(scaled, dt)
        moments, F = {}, None
        for k in range(1, n_steps + 1):
            F = stepper.step(ens, F)
            if k in check_steps:
                qp = np.hstack([ens.q, ens.p])
                mean = qp.mean(axis=0)
                cov = np.cov(qp.T, ddof=1).reshape(2 * scaled.d, 2 * scaled.d)
                moments[check_steps[k]] = (mean, cov, N)
        err, se = _moment_errors(laws, moments)
        rows.append(
            StudyRow(
                epsilon=eps,
                error=err,
                se=se,
                steps=n_steps,
                wallclock_s=time.perf_counter() - t0,
            )
        )
    return StudyResult(rows=tuple(rows), gamma=ref.gamma)
