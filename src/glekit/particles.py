"""Stochastic integrators for the N-particle systems.

Schemes, per dynamics kind:

* overdamped   -- Euler-Maruyama,
* underdamped  -- B-A-O-A-B splitting: half kick, half drift, exact
  friction-noise relaxation of p, half drift, half kick,
* generalized  -- the same B-A-O-A-B splitting, whose O step is the exact
  transition of the linear (p, z) block
  dp = lam^T z dt, dz = -lam p dt - A z dt + sqrt(2A/beta) dW:
  x -> T x + S xi with T = e^{dt M}, M = [[0, lam^T], [-lam, -A]] and
  S S^T = (I - T T^T)/beta, because that block leaves N(0, I/beta)
  invariant.  Memory and coupling are exact for any size of lam and A, so
  the rescaled white-noise models (lam/eps, A/eps^2) run at the same dt for
  every eps.

Both kinetic schemes evaluate one force per step: the force at the end of a
step is kept on the ensemble and starts the next one.  The Curie-Weiss force
is computed in O(N) from the empirical mean: each force first reduces
m1 = mean(q), then updates all particles -- the one reduction barrier that
makes the mean-field coupling order-independent.  Randomness comes from a
counter-based Philox generator seeded per run, so identical
(model, N, seed, dt, T) reproduce observable series bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import matrixkit as mk
from .errors import InsufficientParticles, NonFiniteState, ShapeMismatch
from .model import Kind, ValidatedModel

# ---------------------------------------------------------------------------
# initial laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InitPoint:
    """All particles at the same full-state point [q, p, z]."""

    x0: Sequence[float]


@dataclass(frozen=True)
class InitGaussian:
    """Full-state Gaussian with given mean vector and covariance matrix."""

    mean: Sequence[float]
    cov: Sequence[Sequence[float]] | np.ndarray


@dataclass(frozen=True)
class BlockLaw:
    """Per-block law: point mass at ``point`` or Gaussian(mean, var) i.i.d. per coord."""

    point: Optional[float] = None
    mean: float = 0.0
    var: float = 1.0


@dataclass(frozen=True)
class InitProduct:
    """Independent q / p / z blocks, each a :class:`BlockLaw`."""

    q: BlockLaw
    p: Optional[BlockLaw] = None
    z: Optional[BlockLaw] = None


InitialLaw = Union[InitPoint, InitGaussian, InitProduct]


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------


@dataclass
class ParticleEnsemble:
    """N particle states in extended phase space with its own RNG and clock.

    ``end_force`` holds ``(q, model, force)`` from the end of the last
    kinetic step, so the next step of the same model can start from it.  It
    counts only while ``q`` is still that very array: rebinding ``q``
    discards it, and code that edits ``q`` in place between steps must set
    ``end_force = None``.
    """

    N: int
    q: np.ndarray
    p: Optional[np.ndarray]
    z: Optional[np.ndarray]
    time: float
    rng: np.random.Generator
    end_force: Optional[tuple] = field(default=None, repr=False, compare=False)

    def state_matrix(self) -> np.ndarray:
        """(N, state_dim) array in [q, p, z] layout."""
        blocks = [self.q]
        if self.p is not None:
            blocks.append(self.p)
        if self.z is not None:
            blocks.append(self.z)
        return np.hstack(blocks)


def _make_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def init_ensemble(model: ValidatedModel, N: int, seed, init: InitialLaw) -> ParticleEnsemble:
    """Sample an i.i.d. initial ensemble, deterministically in ``seed``."""
    if N < 1:
        raise ShapeMismatch(f"N must be >= 1, got {N}")
    d = model.d
    dim = model.state_dim()
    has_p = model.kind is not Kind.OVERDAMPED
    dm = d * model.m if model.kind is Kind.GENERALIZED else 0
    rng = _make_rng(seed)

    if isinstance(init, InitPoint):
        x0 = np.atleast_1d(np.asarray(init.x0, dtype=float))
        if x0.shape != (dim,):
            raise ShapeMismatch(f"x0 must have length {dim}, got {x0.shape}")
        X = np.tile(x0, (N, 1))
    elif isinstance(init, InitGaussian):
        mean = np.atleast_1d(np.asarray(init.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(init.cov, dtype=float))
        if mean.shape != (dim,) or cov.shape != (dim, dim):
            raise ShapeMismatch(f"Gaussian init must have dimension {dim}")
        L = mk.psd_sqrt(cov)
        X = mean + rng.standard_normal((N, dim)) @ L.T
    elif isinstance(init, InitProduct):
        cols = [_sample_block(init.q, N, d, rng)]
        if has_p:
            if init.p is None:
                raise ShapeMismatch("product init needs a p block for kinetic kinds")
            cols.append(_sample_block(init.p, N, d, rng))
        if dm:
            if init.z is None:
                raise ShapeMismatch("product init needs a z block for the generalized kind")
            cols.append(_sample_block(init.z, N, dm, rng))
        X = np.hstack(cols)
    else:
        raise ShapeMismatch(f"unknown initial law {type(init).__name__}")

    q = X[:, :d].copy()
    p = X[:, d : 2 * d].copy() if has_p else None
    z = X[:, 2 * d :].copy() if dm else None
    return ParticleEnsemble(N=N, q=q, p=p, z=z, time=0.0, rng=rng)


def _sample_block(law: BlockLaw, N: int, width: int, rng: np.random.Generator) -> np.ndarray:
    if law.point is not None:
        return np.full((N, width), float(law.point))
    return law.mean + math.sqrt(law.var) * rng.standard_normal((N, width))


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------


class _Stepper:
    """Precomputed transition maps for one (model, dt) pair."""

    def __init__(self, model: ValidatedModel, dt: float):
        if not dt > 0:
            raise ShapeMismatch(f"dt must be positive, got {dt}")
        self.model = model
        self.dt = dt
        self.kind = model.kind
        self.eta2 = model.eta2
        bi = model.beta_inv
        d = model.d
        if self.kind is Kind.OVERDAMPED:
            self.noise_std = math.sqrt(2.0 * bi * dt)
        elif self.kind is Kind.UNDERDAMPED:
            g = model.gamma
            self.ou_decay = math.exp(-g * dt)
            self.noise_std = math.sqrt(bi * (1.0 - self.ou_decay**2))
        else:
            mem = model.memory
            dm = d * mem.m
            lam = np.asarray(mem.lam, dtype=float)
            M = np.zeros((d + dm, d + dm))
            M[:d, d:] = lam.T
            M[d:, :d] = -lam
            M[d:, d:] = -np.asarray(mem.A, dtype=float)
            # exact (p, z) Ornstein-Uhlenbeck map x -> T x + S xi; the
            # invariant covariance is I/beta, so S S^T = (I - T T^T)/beta
            self.T = mk.expm(dt * M)
            Q = bi * (np.eye(d + dm) - self.T @ self.T.T)
            self.S = mk.psd_sqrt(0.5 * (Q + Q.T))
            self.d = d
            self.dm = dm

    def force(self, q: np.ndarray, m1: np.ndarray) -> np.ndarray:
        # confining force plus O(N) Curie-Weiss mean-field force
        return -self.model.grad_potential(q) - self.eta2 * (q - m1)

    def _start_force(self, ens: ParticleEnsemble) -> np.ndarray:
        """The force at the start of a step: the previous step's end force when it still holds."""
        cached = ens.end_force
        if cached is not None and cached[0] is ens.q and cached[1] is self.model:
            return cached[2]
        return self.force(ens.q, ens.q.mean(axis=0))

    def _end_force(self, ens: ParticleEnsemble) -> np.ndarray:
        F = self.force(ens.q, ens.q.mean(axis=0))
        ens.end_force = (ens.q, self.model, F)
        return F

    def _ou(self, ens: ParticleEnsemble) -> None:
        """Exact (p, z) step, one fused affine update per output column."""
        d, n = self.d, self.d + self.dm
        xi = ens.rng.standard_normal((n, ens.N))
        cols = [ens.p[:, j] for j in range(d)] + [ens.z[:, j] for j in range(self.dm)]
        p, z = np.empty_like(ens.p), np.empty_like(ens.z)
        out = [p[:, i] for i in range(d)] + [z[:, i] for i in range(self.dm)]
        T, S = self.T, self.S
        for i in range(n):
            np.multiply(cols[0], T[i, 0], out=out[i])
            for j in range(1, n):
                out[i] += T[i, j] * cols[j]
            for j in range(n):
                out[i] += S[i, j] * xi[j]
        ens.p, ens.z = p, z

    def step(self, ens: ParticleEnsemble) -> ParticleEnsemble:
        dt = self.dt
        if self.kind is Kind.OVERDAMPED:
            m1 = ens.q.mean(axis=0)
            xi = ens.rng.standard_normal(ens.q.shape)
            ens.q += self.force(ens.q, m1) * dt + self.noise_std * xi
        else:
            # B-A-O-A-B: half kick, half drift, exact O step, half drift, half kick
            ens.p += 0.5 * dt * self._start_force(ens)
            ens.q += 0.5 * dt * ens.p
            if self.kind is Kind.UNDERDAMPED:
                xi = ens.rng.standard_normal(ens.p.shape)
                ens.p *= self.ou_decay
                ens.p += self.noise_std * xi
            else:
                self._ou(ens)
            ens.q += 0.5 * dt * ens.p
            ens.p += 0.5 * dt * self._end_force(ens)
        ens.time += dt
        if not np.isfinite(np.sum(ens.q)):
            raise NonFiniteState(f"state became non-finite at t={ens.time}")
        return ens


def make_stepper(model: ValidatedModel, dt: float) -> _Stepper:
    """Build the stepper of one (model, dt) pair."""
    return _Stepper(model, dt)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


@dataclass
class ObservableSeries:
    """Low-order empirical moments recorded along a run.

    All per-coordinate quantities are arrays over record times; standard
    errors are sample standard deviations over sqrt(N).
    """

    times: np.ndarray
    mean_q: np.ndarray
    var_q: np.ndarray
    se_mean_q: np.ndarray
    magnetization: np.ndarray
    mean_p: Optional[np.ndarray] = None
    var_p: Optional[np.ndarray] = None
    cov_qp: Optional[np.ndarray] = None
    se_mean_p: Optional[np.ndarray] = None
    mean_z: Optional[np.ndarray] = None
    var_z: Optional[np.ndarray] = None
    se_mean_z: Optional[np.ndarray] = None

    def n_records(self) -> int:
        return len(self.times)


def _record(ens: ParticleEnsemble) -> dict:
    N = ens.N
    ddof = 1 if N > 1 else 0
    rec = {
        "t": ens.time,
        "mean_q": ens.q.mean(axis=0),
        "var_q": ens.q.var(axis=0, ddof=ddof),
        "magnetization": ens.q.mean(axis=0),
    }
    rec["se_mean_q"] = np.sqrt(rec["var_q"] / N)
    if ens.p is not None:
        rec["mean_p"] = ens.p.mean(axis=0)
        rec["var_p"] = ens.p.var(axis=0, ddof=ddof)
        rec["se_mean_p"] = np.sqrt(rec["var_p"] / N)
        qc = ens.q - rec["mean_q"]
        pc = ens.p - rec["mean_p"]
        rec["cov_qp"] = (qc * pc).sum(axis=0) / max(N - 1, 1)
    if ens.z is not None:
        rec["mean_z"] = ens.z.mean(axis=0)
        rec["var_z"] = ens.z.var(axis=0, ddof=ddof)
        rec["se_mean_z"] = np.sqrt(rec["var_z"] / N)
    return rec


def simulate(
    model: ValidatedModel,
    N: int,
    T: float,
    dt: float,
    seed,
    init: InitialLaw,
    record_every: int = 1,
) -> ObservableSeries:
    """Run the integrator to time T, recording observables every ``record_every`` steps.

    The number of steps is round(T/dt), so the final time is within dt of T;
    the final state is always recorded.  Raises :class:`NonFiniteState` with
    the failing time on blow-up.
    """
    if not T > 0:
        raise ShapeMismatch(f"T must be positive, got {T}")
    if dt > T:
        raise ShapeMismatch(f"dt={dt} exceeds T={T}")
    record_every = max(1, int(record_every))
    ens = init_ensemble(model, N, seed, init)
    stepper = make_stepper(model, dt)
    n_steps = int(round(T / dt))
    records = [_record(ens)]
    for k in range(1, n_steps + 1):
        stepper.step(ens)
        if k % record_every == 0 or k == n_steps:
            records.append(_record(ens))
    return _series_from_records(records)


def _series_from_records(records: list[dict]) -> ObservableSeries:
    def col(key):
        if key not in records[0]:
            return None
        return np.asarray([r[key] for r in records])

    return ObservableSeries(
        times=np.asarray([r["t"] for r in records]),
        mean_q=col("mean_q"),
        var_q=col("var_q"),
        se_mean_q=col("se_mean_q"),
        magnetization=col("magnetization"),
        mean_p=col("mean_p"),
        var_p=col("var_p"),
        cov_qp=col("cov_qp"),
        se_mean_p=col("se_mean_p"),
        mean_z=col("mean_z"),
        var_z=col("var_z"),
        se_mean_z=col("se_mean_z"),
    )


def empirical_moments(ens: ParticleEnsemble):
    """Full-state sample mean, covariance (N-1 normalization), and mean SEs."""
    if ens.N < 2:
        raise InsufficientParticles(f"need N >= 2 for sample covariance, got N={ens.N}")
    X = ens.state_matrix()
    mean = X.mean(axis=0)
    cov = np.cov(X.T, ddof=1).reshape(X.shape[1], X.shape[1])
    se = np.sqrt(np.diag(cov) / ens.N)
    return mean, cov, se


def covariance_se(cov: np.ndarray, N: int) -> np.ndarray:
    """Asymptotic standard error of each sample-covariance entry (Gaussian data)."""
    dia = np.diag(cov)
    return np.sqrt((np.outer(dia, dia) + cov**2) / max(N - 1, 1))
