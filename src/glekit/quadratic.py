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
  combinations of the drift eigenvalues, at most MAX_LATTICE_ENTRIES
  multi-indices; ``spectral_gap`` reads its gap from the drift eigenvalues
* ``ou_fundamental``    -- transition kernel of a hypoelliptic linear diffusion
* ``mode``              -- one mode's (map, noise) over one step: the exact
  flow of a drift M over t, (e^{tM}, Gram integral of (M, 2D)), or one step
  of a particle stepper's scheme under M
* ``affine_laws``       -- the one Gaussian-law recursion mu -> Phi mu,
  Sigma -> Phi~ Sigma Phi~^T + Q of a mean mode (B) and a fluctuation mode
  (B + K), stacked over k steps in blocks of steps (agrees with the
  step-by-step loop to rounding)
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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import matrixkit as mk
from .errors import RootFindingFailure, ShapeMismatch, SingularCovariance
from .model import Kind, ValidatedModel

DEDUP_TOL = 1e-12
DEFAULT_LATTICE_CAP = 4
# most multi-indices spectrum_lattice enumerates; C(20 + 6, 6) = 230230 (cap 20,
# one memory mode) is within it
MAX_LATTICE_ENTRIES = 250_000
# block size of affine_laws (see its docstring); a power of two, sized by
# speed and by error against the exact law
_LAW_BLOCK = 64


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


def check_covariances(cov: np.ndarray) -> np.ndarray | None:
    """Raise ShapeMismatch unless each matrix of a stack (..., n, n) is symmetric PSD.

    Both tests are relative to max(1, max |entry|) of each matrix, at 1e-12;
    a non-finite entry fails outright.  Returns the lower Cholesky factors L
    (Sigma = L L^T) of the stack.  When Cholesky fails on some matrix, its
    eigenvalues decide: one below the tolerance is a ShapeMismatch, and
    otherwise the stack passes, the return value is None, and the matrix
    counts as singular for the entropy (``thermo`` raises SingularCovariance),
    even where its determinant is a tiny positive number.
    """
    if not np.all(np.isfinite(cov)):
        raise ShapeMismatch("covariance has non-finite entries")
    cov_t = np.swapaxes(cov, -1, -2)
    scale = np.maximum(1.0, np.max(np.abs(cov), axis=(-2, -1)))
    if np.any(np.max(np.abs(cov - cov_t), axis=(-2, -1)) > 1e-12 * scale):
        raise ShapeMismatch("covariance is not symmetric")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    w = np.linalg.eigvalsh(0.5 * (cov + cov_t))[..., 0]
    if np.any(w < -1e-12 * scale):
        raise ShapeMismatch(f"covariance has negative eigenvalue {np.min(w)}")
    return None


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
        if not np.all(np.isfinite(mean)):
            raise ShapeMismatch("mean has non-finite entries")
        check_covariances(cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class SpectrumReport:
    """Drift eigenvalues, the lattice of generator eigenvalues they generate, and its multi-indices.

    ``lattice`` is a complex array of n points; ``multi_indices`` is an (n, r)
    integer array over the r ``base_eigenvalues``, whose row i is the k of
    ``lattice[i]``.  The model and the cap that produced the report stay with
    the caller.
    """

    base_eigenvalues: np.ndarray
    lattice: np.ndarray
    multi_indices: np.ndarray


# ---------------------------------------------------------------------------
# N-particle block matrices
# ---------------------------------------------------------------------------


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
    d = model.d
    n = N * d
    Bo = _omv_drift(model.omega2, model.eta2, N, d)

    if model.kind is Kind.OVERDAMPED:
        return DriftDiffusion(B=Bo, D=np.eye(n))

    if model.kind is Kind.UNDERDAMPED:
        Z = np.zeros((n, n))
        B = np.block([[Z, np.eye(n)], [Bo, -model.gamma * np.eye(n)]])
        D = np.zeros((2 * n, 2 * n))
        D[n:, n:] = model.gamma * np.eye(n)
        return DriftDiffusion(B=B, D=D)

    mem = model.memory
    nz = N * d * model.m
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
    return DriftDiffusion(B=B, D=D)


# ---------------------------------------------------------------------------
# base spectrum
# ---------------------------------------------------------------------------


def _gle_branch_roots(c: float, lambdas, alphas) -> np.ndarray:
    """Roots of nu^2 prod(nu+a_j) + nu sum_j l_j^2 prod_{k!=j}(nu+a_k) + c prod(nu+a_j).

    A coefficient that overflows, or a root whose residual is not small
    (non-finite included), is a :class:`RootFindingFailure`, with no warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        poly = np.array([1.0, 0.0])  # nu^2 accumulates the alpha factors below
        for a in alphas:
            poly = np.polymul(poly, [1.0, a])
        poly = np.polymul(poly, [1.0, 0.0])  # now nu^2 * prod(nu + a_j)
        for j, lj in enumerate(lambdas):
            try:
                term = np.array([lj**2, 0.0])  # l_j^2 * nu
            except OverflowError:  # lj**2 of a Python float raises rather than give inf
                term = np.array([math.inf, 0.0])
            for k, a in enumerate(alphas):
                if k != j:
                    term = np.polymul(term, [1.0, a])
            poly = np.polyadd(poly, term)
        const = np.array([float(c)])
        for a in alphas:
            const = np.polymul(const, [1.0, a])
        poly = np.polyadd(poly, const)
        if not np.all(np.isfinite(poly)):
            raise RootFindingFailure("a coefficient of the characteristic polynomial overflows")
        try:
            roots = np.roots(poly)
        except np.linalg.LinAlgError as exc:
            raise RootFindingFailure(str(exc)) from exc
        resid = np.abs(np.polyval(poly, roots))
    scale = max(1.0, float(np.max(np.abs(poly))))
    if not np.all(resid <= 1e-6 * scale):
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
    cs = (model.omega2, model.omega2 + model.eta2)
    if model.kind is Kind.OVERDAMPED:
        vals = [-c for c in cs]
    elif model.kind is Kind.UNDERDAMPED:
        g = model.gamma
        vals = []
        for c in cs:
            disc = np.sqrt(complex(g * g - 4.0 * c))
            vals += [(-g + disc) / 2.0, (-g - disc) / 2.0]
    else:
        lambdas, alphas = model.memory.diagonal_rates()
        vals = np.concatenate([_gle_branch_roots(c, lambdas, alphas) for c in cs])
    return mk.sort_complex(np.asarray(vals, dtype=complex))


def spectrum_lattice(base: Sequence[complex], cap: int = DEFAULT_LATTICE_CAP) -> SpectrumReport:
    """All sums sum_j k_j nu_j with k_j >= 0 integers and sum k_j <= cap.

    All C(cap + r, r) multi-indices of the r values of ``base`` are built as
    one integer array, ordered by total degree and then lexicographically,
    and each point is summed over the columns in order from complex zero.
    Points are deduplicated to 1e-12 (``DEDUP_TOL``): a point is kept, with
    its multi-index, where it first appears in that order, so it carries the
    multi-index of lowest total degree that produced it.  Zero (all k = 0)
    is always present and first.  More than MAX_LATTICE_ENTRIES (250000)
    multi-indices is a ShapeMismatch before any array is built: with one
    memory mode (r = 6) cap 20 is the largest cap allowed.
    """
    base = np.asarray(base, dtype=complex)
    if base.size == 0:
        raise ShapeMismatch("base spectrum must be nonempty")
    if cap < 0:
        raise ShapeMismatch(f"lattice cap must be nonnegative, got {cap}")
    r = base.size
    n_entries = math.comb(int(cap) + r, r)
    if n_entries > MAX_LATTICE_ENTRIES:
        raise ShapeMismatch(f"lattice cap {cap} over {r} drift eigenvalues needs {n_entries} "
                            f"multi-indices, more than {MAX_LATTICE_ENTRIES}")
    # the multi-indices in lexicographic order, one column at a time: a row with
    # `room` degree left gets children k_j = 0..room; then stably by total degree
    k = np.zeros((1, 0), dtype=np.int64)
    room = np.array([int(cap)])
    for _ in range(r):
        counts = room + 1
        kj = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        k = np.column_stack([np.repeat(k, counts, axis=0), kj])
        room = np.repeat(room, counts) - kj
    k = k[np.argsort(cap - room, kind="stable")]
    # each point is 0 + k_0 base[0] + k_1 base[1] + ..., added in that order
    points = np.zeros(len(k), dtype=complex)
    for j in range(r):
        points += k[:, j] * base[j]
    # the first point of each 1e-12 key (a complex number: it sorts faster than key rows)
    keys = np.rint(points.real / DEDUP_TOL) + 1j * np.rint(points.imag / DEDUP_TOL)
    keep = np.sort(np.unique(keys, return_index=True)[1])
    return SpectrumReport(base_eigenvalues=base, lattice=points[keep], multi_indices=k[keep])


def spectrum_report(model: ValidatedModel, cap: int = DEFAULT_LATTICE_CAP) -> SpectrumReport:
    """The model's drift eigenvalues (``base_spectrum``) and their lattice up to ``cap``."""
    return spectrum_lattice(base_spectrum(model), cap)


def spectral_gap(base: Sequence[complex]) -> float:
    """Distance from zero to the rest of the generator spectrum: -max Re over nonzero ``base``.

    ``base`` is the drift eigenvalue multiset (``base_spectrum``).  For a
    stable drift every nonzero lattice point sum_j k_j nu_j has a real part
    at most the largest Re nu_j, which is itself a lattice point of degree
    1, so this is the gap of the lattice at any cap >= 1 (and the cap-0
    lattice, which holds only 0, does not shrink it to 0).  The eigenvalues
    are those of both restoring constants, omega2 (B, which moves the mean
    of the mean-field law) and omega2 + eta2 (B + K: the relative modes of
    the particles, and the covariance of the law).  So for a stable drift
    this is the slowest of all those mode rates, not the rate of any one
    quantity: for ``quadratic_gmv(beta=1)`` it is 0.1424, the slowest pair
    of B + K, while the mean relaxes at 0.2151, the slowest rate of B.
    """
    base = np.asarray(base, dtype=complex)
    nz = base[np.abs(base) > 1e-12]
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
    as a function of x this is the N(e^{-tB} y, 2 D_t) density, while the
    forward law of dX = BX dt + sqrt(2D) dW from y (``propagate_gaussian``)
    has mean e^{tB} y and the same covariance 2 D_t.
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


# ---------------------------------------------------------------------------
# mean-field Gaussian law
# ---------------------------------------------------------------------------


def whole_steps(t: float, dt: float) -> int:
    """The number k >= 1 of steps dt in the horizon t: the one time-grid rule of glekit.

    Raises :class:`ShapeMismatch`, naming t and dt, unless dt > 0, 0 < t < inf,
    t/dt is finite and |k dt - t| <= 1e-9 max(1, t).  So a run that takes k
    steps ends at t, never at t = 0 or short of it.
    """
    k = round(t / dt) if dt > 0 and math.isfinite(t / dt) else 0
    if k < 1 or abs(k * dt - t) > 1e-9 * max(1.0, t):
        raise ShapeMismatch(f"t={t} is not a positive whole number of steps dt={dt}")
    return k


def mode(M, D, step) -> tuple[np.ndarray, np.ndarray]:
    """One mode of a Gaussian law: the (map, noise) of one step of dX = MX dt + sqrt(2D) dW.

    A Gaussian law moves in two modes (see :func:`affine_laws`): its mean
    with the drift B, its fluctuations with B + K (``split_BK``).  ``step`` is
    either a time t >= 0, for the exact flow over t: (e^{tM}, Gram integral
    of (M, 2D) over t); or a particle stepper of ``glekit.particles``, for
    the one step of its dt that its scheme takes under M, a drift of the
    stepper's own model (B or B + K).  Euler-Maruyama gives
    (I + dt M, noise_std^2 I).  B-A-O-A-B gives (R O A F, R V R^T), R = F A,
    where F and A are the exact half steps of M's force block on q and of its
    position rows, O is the stepper's exact (p, z) map ``T`` and V its noise
    ``S S^T``, each padded to the whole state with the identity (V with
    zeros).  D enters only the exact flow; a stepper injects its own noise.
    """
    if not hasattr(step, "dt"):  # a time, not a stepper
        return mk.expm(step * M), mk.gram_integral(M, 2.0 * D, step)
    dt, d, eye = step.dt, step.d, np.eye(M.shape[0])
    if step.kind is Kind.OVERDAMPED:
        return eye + dt * M, step.noise_std**2 * eye
    kick, drift, o_map, o_noise = eye.copy(), eye.copy(), eye.copy(), np.zeros_like(eye)
    kick[d : 2 * d, :d] = 0.5 * dt * M[d : 2 * d, :d]
    drift[:d, d : 2 * d] = 0.5 * dt * M[:d, d : 2 * d]
    o_map[d:, d:] = step.T
    o_noise[d:, d:] = step.S @ step.S.T
    tail = kick @ drift
    return tail @ o_map @ drift @ kick, tail @ o_noise @ tail.T


def affine_laws(mean_mode, fluct_mode, mean, cov, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Laws k = 0..n_steps of mu -> Phi mu, Sigma -> Phi~ Sigma Phi~^T + Q from (mean, cov).

    ``mean_mode`` = (Phi, Q_mean) and ``fluct_mode`` = (Phi~, Q) are the two
    modes of :func:`mode`: the mean moves with the first map, and the
    covariance with the second map and noise (Q_mean is not used here).
    Returns the means (n_steps + 1, n) and the covariances (n_steps + 1, n, n),
    each covariance after the start symmetrized as (c + c^T) / 2.

    Laws 1..b, b = _LAW_BLOCK = 64, are computed one step at a time, so for
    n_steps <= b the result is bitwise that of the sequential loop.  Later
    laws come in whole blocks of b, each from the block before it by
    one batched product: mu_{k+b} = Phi^b mu_k and Sigma_{k+b} = Phi~^b
    Sigma_k Phi~^bT + Q_b, where Q_b = sum_{j<b} Phi~^j Q Phi~^jT.  The
    b-step maps are built by log2(b) doublings, which round less than b
    single steps.  The block form agrees with the loop to rounding and is no
    less accurate against the exact law.
    """
    (Phi, _), (Phi_t, Q) = mean_mode, fluct_mode
    n = Phi.shape[0]
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if mean.shape != (n,) or cov.shape != (n, n):
        raise ShapeMismatch(f"the law needs a mean of length {n} and a {n}x{n} covariance")
    if n_steps < 0:
        raise ShapeMismatch(f"n_steps must be nonnegative, got {n_steps}")
    b = _LAW_BLOCK
    means, covs = np.empty((n_steps + 1, n)), np.empty((n_steps + 1, n, n))
    means[0], covs[0] = mean, cov
    for k in range(1, min(n_steps, b) + 1):
        means[k] = Phi @ means[k - 1]
        c = Phi_t @ covs[k - 1] @ Phi_t.T + Q
        covs[k] = 0.5 * (c + c.T)
    if n_steps <= b:
        return means, covs
    # b-step maps by doubling: Q_{2j} = Phi_t^j Q_j Phi_t^jT + Q_j
    Phi_b, Phi_t_b, Q_b = Phi, Phi_t, Q
    for _ in range(b.bit_length() - 1):
        Q_b = Phi_t_b @ Q_b @ Phi_t_b.T + Q_b
        Phi_b, Phi_t_b = Phi_b @ Phi_b, Phi_t_b @ Phi_t_b
    for k in range(b + 1, n_steps + 1, b):
        stop = min(k + b, n_steps + 1)
        means[k:stop] = means[k - b : stop - b] @ Phi_b.T
        c = Phi_t_b @ covs[k - b : stop - b] @ Phi_t_b.T + Q_b
        covs[k:stop] = 0.5 * (c + c.transpose(0, 2, 1))
    return means, covs


def propagate_gaussian(B, K, D, t: float, law: GaussianLaw) -> GaussianLaw:
    """Gaussian law at time t of dX = BX dt + K(X - <X>) dt + sqrt(2D) dW from ``law``.

    Mean e^{tB} mu (K drops out of the mean equation); covariance the solution
    of the Lyapunov flow dS/dt = (B+K)S + S(B+K)^T + 2D from S(0) = Sigma.
    """
    B, K, D = _flow_inputs(B, K, D, t)
    mean, cov = affine_laws(mode(B, D, t), mode(B + K, D, t), law.mean, law.cov, 1)
    return GaussianLaw(mean=mean[-1], cov=cov[-1])


def _flow_inputs(B, K, D, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, K, D) as float matrices; ShapeMismatch unless they share one shape and 0 <= t < inf."""
    B, K, D = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (B, K, D))
    if K.shape != B.shape or D.shape != B.shape:
        raise ShapeMismatch(f"B, K, D shapes {B.shape}, {K.shape}, {D.shape} are inconsistent")
    if not 0 <= t < np.inf:
        raise ShapeMismatch(f"t must be finite and nonnegative, got {t}")
    return B, K, D


def meanfield_green(B, K, D, t: float, x0) -> GaussianLaw:
    """:func:`propagate_gaussian` from the point x0: mean e^{tB} x0, covariance Gram(B+K, 2D).

    This is the law that empirical moments of the interacting particle system
    converge to; see ``riccati_covariance`` for the one-sided variant.
    """
    n = np.atleast_2d(B).shape[0]
    return propagate_gaussian(B, K, D, t, GaussianLaw(mean=x0, cov=np.zeros((n, n))))


def riccati_covariance(B, K, D, t: float) -> np.ndarray:
    """One-sided matrix Q(t) = 2 int_0^t e^{2s(B+K)} D ds.

    Q solves dQ/dt = 2 [D + (B+K) Q] with Q(0) = 0; the closed form used is
    the augmented exponential of [[2(B+K), I], [0, 0]], valid whether or not
    B+K is invertible.  Q is not symmetric in general -- it equals the Gram
    covariance only when (B+K) Q stays symmetric (always true in one
    dimension).
    """
    B, K, D = _flow_inputs(B, K, D, t)
    n = B.shape[0]
    M = B + K
    H = np.zeros((2 * n, 2 * n))
    H[:n, :n] = 2.0 * M
    H[:n, n:] = np.eye(n)
    F = mk.expm(t * H)
    return 2.0 * F[:n, n:] @ D


def split_BK(model: ValidatedModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean-field (B, K, D) matrices of the model's kind.

    B is the one-particle drift of :func:`assemble`; K carries only the
    interaction response -eta2 (q - <q>) in the force row; D is the
    Fokker-Planck diffusion including the 1/beta factor.
    """
    dd = assemble(model, 1)
    d = model.d
    K = np.zeros_like(dd.B)
    force = slice(0, d) if model.kind is Kind.OVERDAMPED else slice(d, 2 * d)
    K[force, :d] = -model.eta2 * np.eye(d)
    return dd.B, K, model.beta_inv * dd.D


def meanfield_law(model: ValidatedModel, t: float, x0) -> GaussianLaw:
    """Convenience: meanfield_green evaluated on the model's own (B, K, D)."""
    B, K, D = split_BK(model)
    return meanfield_green(B, K, D, t, x0)


def stepper_law(stepper, mean, cov, n_steps: int) -> GaussianLaw:
    """Exact N -> infinity law of a particle stepper after ``n_steps`` steps.

    For quadratic V and a Curie-Weiss U every stepper of ``glekit.particles``
    is affine in the state, and the interaction enters only through
    q - mean(q).  So the ensemble mean follows mu -> Phi mu, where Phi is the
    one-step map with force constant omega2 (B), and the fluctuations follow
    Sigma -> Phi~ Sigma Phi~^T + Q, where Phi~ uses omega2 + eta2 (B + K) and
    Q is the step's injected noise carried through the rest of the step:
    the two scheme modes of :func:`mode`.  They are read from the stepper's
    own ``dt`` and ``noise_std`` or exact (p, z) map ``T``, ``S``, so
    comparing the result with :func:`meanfield_law` gives the scheme's weak
    bias with no Monte Carlo noise.  Euler-Maruyama has bias O(dt); the
    B-A-O-A-B splittings have O(dt^2).  Under the white-noise scaling
    lam/eps, A/eps^2 the constant stays bounded only while ``T`` is
    accurate, and ``matrixkit.expm`` loses it as eps falls: the relative
    error of T_00 is 4.9e-13 at eps = 1e-4, 1.3e-8 at 1e-6 and 0.98 at
    1e-10 (lam = A = 1, dt = 1e-3).
    """
    B, K, D = split_BK(stepper.model)
    means, covs = affine_laws(mode(B, D, stepper), mode(B + K, D, stepper), mean, cov, n_steps)
    return GaussianLaw(mean=means[-1], cov=covs[-1])
