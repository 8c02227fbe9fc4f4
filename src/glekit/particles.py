"""Stochastic integrators for the N-particle systems.

Schemes, per dynamics kind:

* overdamped   -- Euler-Maruyama,
* underdamped and generalized -- one B-A-O-A-B splitting: half kick, half
  drift, exact O step, half drift, half kick.  The O step is the exact
  transition of the linear block of the momentum p and the memory z,
  dp = lam^T z dt, dz = -lam p dt - A z dt + sqrt(2A/beta) dW, or, without
  memory, dp = -gamma p dt + sqrt(2 gamma/beta) dW:
  x -> T x + S xi with T = e^{-gamma dt} I or T = e^{dt M},
  M = [[0, lam^T], [-lam, -A]], and S S^T = (I - T T^T)/beta, because the
  block leaves N(0, I/beta) invariant.  Memory and coupling are exact for
  any size of lam and A, so the rescaled white-noise models (lam/eps,
  A/eps^2) run at the same dt for every eps.

The kinetic scheme evaluates one force per step: the force at the end of a
step is kept on the ensemble and starts the next one.  The Curie-Weiss force
is computed in O(N) from the empirical mean: each force first reduces
m1 = mean(q), then updates all particles -- the one reduction barrier that
makes the mean-field coupling order-independent.  A kinetic step reduces the
mean once: the end force's m1 also checks the final q for non-finite values.
Randomness comes from one SFC64 generator per run, seeded through a
``SeedSequence`` (the fastest of numpy's bit generators per normal; substreams
come from the seed sequence), so identical (model, N, seed, dt, T) reproduce
observable series bitwise.

A step allocates nothing of the state's size but the potential's gradient.
Every update is written in place or with ``out=`` into work arrays of the
ensemble: one (N, d) force array, one (N, d) scratch array, and one buffer for
the normals, at every N.  For the kinetic kinds that buffer is the O step's
stacked (2n, N) array [(p, z); xi] of the n (p, z) rows: the rows are copied
in, the normals drawn into its lower half, and one ``einsum`` with [T | S]
writes T (p, z) + S xi back, summed over the columns of T, then of S, in
order.  For the overdamped kind it is the (N, d) normals.  The work arrays are
made on first use and again when a shape changes, and left out of copies,
which hold only state.  They belong to the ensemble rather than to the stepper
because one stepper may step several ensembles from several threads.  Each
update keeps the operations and the order of the plain expressions, so no
number changes.  The kept end-of-step force is the force array, so the next
step overwrites it.

The normals are drawn through the ensemble's ``rng`` on the stepping thread,
into the step's own buffer: one ``standard_normal(out=)`` per step, of shape
(n, N) for the kinetic kinds and (N, d) for the overdamped one.

An ensemble is its state array ``X``: the particle count N is its column
count, and a stepper steps only a state of its own kind, (state_dim, N) with
its d, and raises :class:`ShapeMismatch` for any other before it touches the
work arrays.  Replacing ``X`` needs nothing further; an in-place edit of it
still needs ``end_force = None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import matrixkit as mk
from .errors import InsufficientParticles, NonFiniteState, ShapeMismatch
from .model import Kind, ValidatedModel
from .quadratic import whole_steps

# ---------------------------------------------------------------------------
# initial laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InitPoint:
    """All particles at the same full-state point [q, p, z]."""

    x0: Sequence[float]


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


InitialLaw = Union[InitPoint, InitProduct]


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------


@dataclass
class ParticleEnsemble:
    """N particle states in extended phase space with its own RNG and clock.

    The state is one C-contiguous (state_dim, N) array ``X`` with rows
    [q; p; z], and the particle count ``N`` is its column count.  ``q``,
    ``p`` and ``z`` are (N, d) and (N, d*m) transposed views of its row
    blocks (``None`` where the kind has no such block), so writing into one
    writes into ``X``; assigning one copies the value into ``X`` and clears
    ``end_force``.  An ``X`` that is not (k*d, N), or a value that does not
    broadcast to its block, is a :class:`ShapeMismatch`.

    ``end_force`` holds ``(model, X, force)`` from the end of the last
    kinetic step, so the next step of the same model on the same ``X`` object
    can start from it; a replaced ``X`` needs nothing further.  Code that
    edits ``X`` or a view of it in place between steps must set
    ``end_force = None``.  The force is the ensemble's one force work array
    (see the module docstring), so the next step overwrites it: a caller that
    keeps it must copy it.

    Steps draw their normals from ``rng`` (see the module docstring), so a
    caller that draws from ``rng`` between steps moves the steps' numbers.  A
    copy, deep or pickled, holds only state: ``end_force`` and the work arrays
    are made again by the copy's next step.
    """

    d: int
    X: np.ndarray
    time: float
    rng: np.random.Generator
    end_force: Optional[tuple] = field(default=None, repr=False, compare=False)
    _work: Optional["_Work"] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = np.shape(self.X)
        if not (self.d >= 1 and len(shape) == 2 and shape[0] >= self.d and shape[0] % self.d == 0):
            raise ShapeMismatch(f"X must be (k*d, N) = (k*{self.d}, N) for k >= 1, got {shape}")

    @property
    def N(self) -> int:
        return self.X.shape[1]

    def __getstate__(self):
        return {**self.__dict__, "end_force": None, "_work": None}

    def _work_arrays(self) -> "_Work":
        """The step's work arrays, made on first use and again when ``X`` changes shape."""
        if self._work is None or self._work.shape != self.X.shape:
            self._work = _Work(self.X.shape, self.d)
        return self._work

    def _rows(self, a: int, b: Optional[int]) -> slice:
        return slice(a * self.d, None if b is None else b * self.d)

    def _get(self, a: int, b: Optional[int]) -> Optional[np.ndarray]:
        block = self.X[self._rows(a, b)]
        return block.T if len(block) else None

    def _set(self, a: int, b: Optional[int], value) -> None:
        block = self.X[self._rows(a, b)].T
        value = np.asarray(value)
        try:
            fits = block.size > 0 and np.broadcast_shapes(value.shape, block.shape) == block.shape
        except ValueError:
            fits = False
        if not fits:
            raise ShapeMismatch(
                f"block of shape {block.shape} cannot take a value of shape {value.shape}")
        block[...] = value
        self.end_force = None

    # the row blocks [q; p; z] of X, in units of d rows
    q = property(lambda self: self._get(0, 1), lambda self, v: self._set(0, 1, v))
    p = property(lambda self: self._get(1, 2), lambda self, v: self._set(1, 2, v))
    z = property(lambda self: self._get(2, None), lambda self, v: self._set(2, None, v))


def _make_rng(seed) -> np.random.Generator:
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(int(seed))
    return np.random.Generator(np.random.SFC64(seed))


def init_ensemble(model: ValidatedModel, N: int, seed, init: InitialLaw) -> ParticleEnsemble:
    """Sample an i.i.d. initial ensemble, deterministically in ``seed``."""
    if N < 1:
        raise ShapeMismatch(f"N must be >= 1, got {N}")
    d = model.d
    dim = model.state_dim()
    dm = d * model.m if model.kind is Kind.GENERALIZED else 0
    rng = _make_rng(seed)

    if isinstance(init, InitPoint):
        x0 = np.atleast_1d(np.asarray(init.x0, dtype=float))
        if x0.shape != (dim,):
            raise ShapeMismatch(f"x0 must have length {dim}, got {x0.shape}")
        _check_finite_init("x0", x0)
        X = np.tile(x0, (N, 1))
    elif isinstance(init, InitProduct):
        widths = (("q", init.q, d), ("p", init.p, dim - d - dm), ("z", init.z, dm))
        X = np.hstack([_sample_block(name, law, N, w, rng) for name, law, w in widths if w])
    else:
        raise ShapeMismatch(f"unknown initial law {type(init).__name__}")

    return ParticleEnsemble(d=d, X=np.ascontiguousarray(X.T), time=0.0, rng=rng)


def _check_finite_init(what: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise ShapeMismatch(f"{what} must be finite, got {value}")


def _sample_block(name: str, law: Optional[BlockLaw], N: int, width: int,
                  rng: np.random.Generator) -> np.ndarray:
    if law is None:
        raise ShapeMismatch(f"product init needs a {name} block for this kind")
    if law.point is not None:
        _check_finite_init(f"{name} block point", law.point)
        return np.full((N, width), float(law.point))
    if not (math.isfinite(law.mean) and 0 <= law.var < math.inf):
        raise ShapeMismatch(
            f"{name} block needs a finite mean and a finite var >= 0, got mean={law.mean}, var={law.var}"
        )
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
        d = self.d = model.d
        self.rows = model.state_dim()
        if self.kind is Kind.OVERDAMPED:
            self.noise_std = math.sqrt(2.0 * bi * dt)
            return
        if self.kind is Kind.UNDERDAMPED:
            # math.exp rather than a 1x1 expm, whose Pade value can differ in the last bit
            self.T = math.exp(-model.gamma * dt) * np.eye(d)
        else:
            mem = model.memory
            dm = d * mem.m
            lam = np.asarray(mem.lam, dtype=float)
            M = np.zeros((d + dm, d + dm))
            M[:d, d:] = lam.T
            M[d:, :d] = -lam
            M[d:, d:] = -np.asarray(mem.A, dtype=float)
            self.T = mk.expm(dt * M)
        # exact (p, z) Ornstein-Uhlenbeck map x -> T x + S xi; the invariant
        # covariance is I/beta, so S S^T = (I - T T^T)/beta
        n = self.T.shape[0]
        Q = bi * (np.eye(n) - self.T @ self.T.T)
        self.S = mk.psd_sqrt(0.5 * (Q + Q.T))
        self.TS = np.hstack([self.T, self.S])

    def force(self, q: np.ndarray, m1: np.ndarray, out=None, tmp=None) -> np.ndarray:
        """Confining force plus the O(N) Curie-Weiss force, -grad V(q) - eta2 (q - m1).

        Written into ``out`` with ``tmp`` as scratch when given, both shaped like ``q``.
        """
        out = np.negative(self.model.grad_potential(q), out=out)
        tmp = np.subtract(q, m1, out=tmp)
        tmp *= self.eta2
        out -= tmp
        return out

    def _ou(self, ens: ParticleEnsemble, W: np.ndarray) -> None:
        """Exact O step of the n (p, z) rows: [T | S] [(p, z); xi] on the stacked ``W``.

        ``einsum`` sums each output over the columns of T, then of S, in order;
        ``matmul`` would be faster but is not bitwise the same sum.
        """
        pz = ens.X[self.d :]
        n = len(pz)
        W[:n] = pz
        ens.rng.standard_normal(out=W[n:])
        np.einsum("ij,jk->ik", self.TS, W, out=pz)

    def step(self, ens: ParticleEnsemble) -> ParticleEnsemble:
        """One step of ``ens``, in place; a state of another kind is a :class:`ShapeMismatch`."""
        X = ens.X
        if not (np.ndim(X) == 2 and len(X) == self.rows and ens.d == self.d):
            raise ShapeMismatch(f"a {self.kind.value} step of d = {self.d} needs a ({self.rows}, N) "
                                f"state, got {np.shape(X)} of d = {ens.d}")
        dt = self.dt
        q = ens.q
        w = ens._work_arrays()
        tmp = w.tmp
        if self.kind is Kind.OVERDAMPED:
            m1 = q.mean(axis=0)
            ens.rng.standard_normal(out=w.W)
            F = self.force(q, m1, w.force, tmp)
            F *= dt
            F += np.multiply(w.W, self.noise_std, out=tmp)
            q += F
            finite = np.isfinite(np.sum(q))
        else:
            # B-A-O-A-B: half kick, half drift, exact O step, half drift, half kick
            h = 0.5 * dt
            p = ens.p
            kept_model, kept_X, F = ens.end_force or (None, None, None)
            if kept_model is not self.model or kept_X is not X:
                F = self.force(q, q.mean(axis=0), w.force, tmp)
            p += np.multiply(F, h, out=tmp)
            q += np.multiply(p, h, out=tmp)
            self._ou(ens, w.W)
            q += np.multiply(p, h, out=tmp)
            # bitwise q.mean(axis=0); q is final, so its mean also checks the state
            m1 = np.add.reduce(q, axis=0) / ens.N
            F = self.force(q, m1, w.force, tmp)  # the start force is spent
            ens.end_force = (self.model, X, F)
            p += np.multiply(F, h, out=tmp)
            finite = np.isfinite(m1).all()
        ens.time += dt
        if not finite:
            raise NonFiniteState(f"state became non-finite at t={ens.time}")
        return ens


class _Work:
    """One ensemble's step work arrays (see the module docstring): ``force`` and ``tmp`` are
    transposed (d, N) arrays, laid out like ``ens.q``; ``W`` is the O step's stacked (2n, N)
    rows of a kinetic state, or the (N, d) normals of an overdamped one."""

    def __init__(self, shape: tuple, d: int):
        rows, N = self.shape = shape
        self.force = np.empty((d, N)).T
        self.tmp = np.empty((d, N)).T
        self.W = np.empty((2 * (rows - d), N) if rows > d else (N, d))


def make_stepper(model: ValidatedModel, dt: float) -> _Stepper:
    """Build the stepper of one (model, dt) pair."""
    return _Stepper(model, dt)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


@dataclass(kw_only=True)
class ObservableSeries:
    """Low-order empirical moments recorded along a run.

    All per-coordinate quantities are arrays over record times; standard
    errors are sample standard deviations over sqrt(N).  The fields are in
    the column order of the simulate table.
    """

    times: np.ndarray
    mean_q: np.ndarray
    mean_p: Optional[np.ndarray] = None
    var_q: np.ndarray
    var_p: Optional[np.ndarray] = None
    cov_qp: Optional[np.ndarray] = None
    magnetization: np.ndarray
    se_mean_q: np.ndarray
    se_mean_p: Optional[np.ndarray] = None
    mean_z: Optional[np.ndarray] = None
    var_z: Optional[np.ndarray] = None
    se_mean_z: Optional[np.ndarray] = None


def _record(ens: ParticleEnsemble) -> dict:
    """One record, keyed by :class:`ObservableSeries` field names."""
    N, d = ens.N, ens.d
    mean = ens.X.mean(axis=1)
    var = ens.X.var(axis=1, ddof=1 if N > 1 else 0)
    se = np.sqrt(var / N)
    rec = {"times": ens.time, "mean_q": mean[:d], "var_q": var[:d], "se_mean_q": se[:d],
           "magnetization": mean[:d]}
    if ens.p is not None:
        rec.update(mean_p=mean[d : 2 * d], var_p=var[d : 2 * d], se_mean_p=se[d : 2 * d])
        rec["cov_qp"] = ((ens.q - mean[:d]) * (ens.p - mean[d : 2 * d])).sum(axis=0) / max(N - 1, 1)
    if ens.z is not None:
        rec.update(mean_z=mean[2 * d :], var_z=var[2 * d :], se_mean_z=se[2 * d :])
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

    T must be a whole number of steps dt (``quadratic.whole_steps``), else
    :class:`ShapeMismatch`; the final state is always recorded.  Raises
    :class:`NonFiniteState` with the failing time on blow-up.
    """
    if not 0 < T < math.inf:
        raise ShapeMismatch(f"T must be positive and finite, got {T}")
    if record_every < 1:
        raise ShapeMismatch(f"record_every must be a positive step count, got {record_every}")
    ens = init_ensemble(model, N, seed, init)
    stepper = make_stepper(model, dt)
    n_steps = whole_steps(T, dt)
    records = [_record(ens)]
    for k in range(1, n_steps + 1):
        stepper.step(ens)
        if k % record_every == 0 or k == n_steps:
            records.append(_record(ens))
    return ObservableSeries(**{key: np.asarray([r[key] for r in records]) for key in records[0]})


def empirical_moments(ens: ParticleEnsemble):
    """Full-state sample mean, covariance (N-1 normalization), and mean SEs."""
    if ens.N < 2:
        raise InsufficientParticles(f"need N >= 2 for sample covariance, got N={ens.N}")
    X = ens.X
    mean = X.mean(axis=1)
    cov = np.cov(X, ddof=1).reshape(len(X), len(X))
    se = np.sqrt(np.diag(cov) / ens.N)
    return mean, cov, se


def covariance_se(cov: np.ndarray, N: int) -> np.ndarray:
    """Asymptotic standard error of each sample-covariance entry (Gaussian data)."""
    dia = np.diag(cov)
    return np.sqrt((np.outer(dia, dia) + cov**2) / max(N - 1, 1))
