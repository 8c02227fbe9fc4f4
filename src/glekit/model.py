"""Model specification shared by every other module.

A model is a confining potential, a Curie-Weiss interaction of strength
eta2 >= 0 (0 for free particles), an inverse temperature, and one of three
dynamics kinds:

* ``overdamped``   -- dq = -grad V dt - grad U * rho dt + sqrt(2/beta) dW
* ``underdamped``  -- kinetic (q, p) dynamics with friction gamma
* ``generalized``  -- kinetic dynamics with dm auxiliary variables z carrying
  the memory, coupled through a matrix ``lam`` (shape dm x d) and relaxed by a
  symmetric positive definite matrix ``A`` (shape dm x dm):

      dq = p dt
      dp = -grad V dt - grad U * rho dt + lam^T z dt
      dz = -lam p dt - A z dt + sqrt(2 A / beta) dW

State layout everywhere in the package is ``[q (d), p (d), z (dm)]``.

``validate`` checks a :class:`ModelSpec` and returns it as an immutable
:class:`ValidatedModel`, which is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import MissingField, NonSPDMatrix, ShapeMismatch, UnsupportedPotential

SYMMETRY_TOL = 1e-12


class Kind(str, Enum):
    """Dynamics kind."""

    OVERDAMPED = "overdamped"
    UNDERDAMPED = "underdamped"
    GENERALIZED = "generalized"


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


def _norm2(q) -> np.ndarray:
    """|q|^2 over the last axis, one column at a time, which is cheaper than a per-row np.sum."""
    q = np.asarray(q, dtype=float)
    r2 = q[..., 0] * q[..., 0]
    for j in range(1, q.shape[-1]):
        r2 += q[..., j] * q[..., j]
    return r2


@dataclass(frozen=True)
class Quadratic:
    """Harmonic confinement V(q) = omega2 |q|^2 / 2, omega2 > 0."""

    omega2: float

    def energy(self, q):
        return 0.5 * self.omega2 * _norm2(q)

    def gradient(self, q):
        q = np.asarray(q, dtype=float)
        return self.omega2 * q


@dataclass(frozen=True)
class DoubleWell:
    """Nonconvex confinement V(q) = a |q|^4 / 4 - b |q|^2 / 2, a > 0.

    Grows like |q|^4 at infinity, so the toolkit's stationary analysis
    (which needs at-least-quartic growth minus a quadratic) applies.
    """

    a: float
    b: float

    def energy(self, q):
        r2 = _norm2(q)
        return 0.25 * self.a * r2 * r2 - 0.5 * self.b * r2

    def gradient(self, q):
        q = np.asarray(q, dtype=float)
        r2 = _norm2(q)[..., None]
        return (self.a * r2 - self.b) * q


@dataclass(frozen=True)
class CustomPotential:
    """User-supplied confinement; ``energy`` and ``gradient`` are callables.

    Both must be vectorized over points: ``energy`` maps (..., d) arrays to
    (...) values and ``gradient`` maps (..., d) to (..., d).  ``gradient``
    must agree with central finite differences of ``energy``; ``validate``
    spot-checks this on random probes.  Custom potentials enter the particle
    integrators and the quadrature-based stationary solver; the closed-form
    spectral/Gaussian analytics stay quadratic-only.
    """

    energy: Callable
    gradient: Callable


Potential = Quadratic | DoubleWell | CustomPotential


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemorySpec:
    """Auxiliary-variable memory: coupling ``lam`` (dm x d) and SPD ``A`` (dm x dm).

    The number m of auxiliary processes per coordinate is not stored: it is
    the row count of ``lam`` over d (``ValidatedModel.m``).  ``diagonal``
    builds the common block form with scalar couplings lambda_j and
    relaxation rates alpha_j, j = 1..m, for which the spectrum of the full
    drift reduces to scalar polynomial equations.
    """

    lam: np.ndarray
    A: np.ndarray

    @staticmethod
    def diagonal(lambdas: Sequence[float], alphas: Sequence[float], d: int = 1) -> "MemorySpec":
        if len(lambdas) != len(alphas):
            raise ShapeMismatch(
                f"need one alpha per lambda, got {len(lambdas)} lambdas, {len(alphas)} alphas"
            )
        eye = np.eye(d)
        lam = np.kron(np.asarray(lambdas, dtype=float)[:, None], eye)
        return MemorySpec(lam=lam, A=np.kron(np.diag(alphas), eye))

    def diagonal_rates(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Scalar (lambda_j, alpha_j) when lam = [lambda_j I_d]_j and A = diag(alpha) (x) I_d exactly."""
        lam, A = np.asarray(self.lam, dtype=float), np.asarray(self.A, dtype=float)
        d = lam.shape[1]
        eye = np.eye(d)
        lambdas, alphas = lam[::d, 0], np.diagonal(A)[::d]
        if np.array_equal(lam, np.kron(lambdas[:, None], eye)) and np.array_equal(
            A, np.kron(np.diag(alphas), eye)
        ):
            return tuple(lambdas.tolist()), tuple(alphas.tolist())
        raise UnsupportedPotential(
            "memory is not in diagonal (lambda_j, alpha_j) form; "
            "closed-form spectra need lam = lambda_j I_d stacked and A = diag(alpha) (x) I_d"
        )


# ---------------------------------------------------------------------------
# model spec and validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Single source of truth for the dynamics.

    ``beta`` is the inverse temperature (``math.inf`` switches the noise
    off, which some deterministic tests use).  ``eta2`` >= 0 is the strength
    of the one interaction, the Curie-Weiss pair potential
    U(xi) = eta2 |xi|^2 / 2, whose mean-field force depends only on the
    empirical mean; free particles have eta2 = 0, the default.  ``gamma``
    belongs to the underdamped kind and ``memory`` to the generalized kind
    alone.
    """

    d: int
    beta: float
    potential: Potential
    eta2: float = 0.0
    memory: Optional[MemorySpec] = None
    gamma: Optional[float] = None
    kind: Kind = Kind.GENERALIZED


@dataclass(frozen=True)
class ValidatedModel(ModelSpec):
    """A :class:`ModelSpec` that passed ``validate``'s checks; immutable, safe to share by threads.

    The checks run on every construction, ``dataclasses.replace`` included.
    It adds no field, only quantities derived from the spec's.
    """

    def __post_init__(self):
        if not self.beta > 0:
            raise ShapeMismatch(f"beta must be positive, got {self.beta}")
        if self.d < 1:
            raise ShapeMismatch(f"spatial dimension must be >= 1, got {self.d}")
        _check_potential(self.potential)
        _check_finite(eta2=self.eta2)
        if self.eta2 < 0:
            raise NonSPDMatrix(f"interaction needs eta2 >= 0, got {self.eta2}")
        for name, kind in (("gamma", Kind.UNDERDAMPED), ("memory", Kind.GENERALIZED)):
            if getattr(self, name) is not None and self.kind is not kind:
                raise ShapeMismatch(
                    f"{name} is for the {kind.value} kind only, not {self.kind.value}")
        if self.kind is Kind.UNDERDAMPED:
            if self.gamma is None:
                raise MissingField("underdamped kind requires gamma")
            _check_finite(gamma=self.gamma)
            if not self.gamma > 0:
                raise NonSPDMatrix(f"friction gamma must be positive, got {self.gamma}")
        if self.kind is Kind.GENERALIZED:
            if self.memory is None:
                raise MissingField("generalized kind requires a memory spec")
            lam = np.asarray(self.memory.lam, dtype=float)
            A = np.asarray(self.memory.A, dtype=float)
            if lam.ndim != 2 or lam.shape[1] != self.d or lam.shape[0] % self.d or not len(lam):
                raise ShapeMismatch(
                    f"lam must have shape (d*m, {self.d}) with m >= 1, got {lam.shape}")
            dm = lam.shape[0]
            if A.shape != (dm, dm):
                raise ShapeMismatch(f"A must have shape {(dm, dm)}, got {A.shape}")
            if not np.all(np.isfinite(lam)) or not np.all(np.isfinite(A)):
                raise ShapeMismatch("memory matrices contain non-finite entries")
            if np.max(np.abs(A - A.T)) > SYMMETRY_TOL * max(1.0, np.max(np.abs(A))):
                raise NonSPDMatrix("A is not symmetric")
            a_min = np.linalg.eigvalsh(A)[0]
            if a_min <= 0:
                raise NonSPDMatrix(f"A must be positive definite, min eigenvalue {a_min}")

    @property
    def beta_inv(self) -> float:
        return 0.0 if math.isinf(self.beta) else 1.0 / self.beta

    @property
    def m(self) -> int:
        """The number of auxiliary processes per coordinate: ``lam``'s row count over d."""
        if self.memory is None:
            raise MissingField("memory not set")
        return np.shape(self.memory.lam)[0] // self.d

    @property
    def omega2(self) -> float:
        if not isinstance(self.potential, Quadratic):
            raise UnsupportedPotential("closed-form analytics need a quadratic potential")
        return self.potential.omega2

    def state_dim(self) -> int:
        """Total phase-space dimension per particle for this kind."""
        if self.kind is Kind.OVERDAMPED:
            return self.d
        if self.kind is Kind.UNDERDAMPED:
            return 2 * self.d
        return 2 * self.d + self.d * self.m

    def grad_potential(self, q):
        return self.potential.gradient(q)


def _check_finite(**values: float) -> None:
    """Raise ShapeMismatch naming the first coefficient that is nan or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ShapeMismatch(f"{name} must be finite, got {value}")


def _check_potential(potential: Potential) -> None:
    if isinstance(potential, Quadratic):
        _check_finite(omega2=potential.omega2)
        if not potential.omega2 > 0:
            raise NonSPDMatrix(f"quadratic potential needs omega2 > 0, got {potential.omega2}")
    elif isinstance(potential, DoubleWell):
        _check_finite(a=potential.a, b=potential.b)
        if not potential.a > 0:
            raise NonSPDMatrix(f"double well needs a > 0, got a={potential.a}")
    elif isinstance(potential, CustomPotential):
        _probe_gradient(potential)
    else:
        raise ShapeMismatch(f"unknown potential type {type(potential).__name__}")


def _probe_gradient(potential: CustomPotential, n_probe: int = 8, step: float = 1e-5) -> None:
    # spot-check that the supplied gradient matches finite differences of the energy
    rng = np.random.default_rng(0)
    for _ in range(n_probe):
        q = float(rng.uniform(-2.0, 2.0))
        g = float(np.asarray(potential.gradient(np.array([q]))).reshape(-1)[0])
        fd = (potential.energy(np.array([q + step])) - potential.energy(np.array([q - step]))) / (
            2 * step
        )
        scale = max(1.0, abs(g), abs(float(fd)))
        if abs(g - float(fd)) > 1e-4 * scale:
            raise ShapeMismatch(
                f"custom potential gradient disagrees with finite differences at q={q}: "
                f"{g} vs {float(fd)}"
            )


def validate(spec: ModelSpec) -> ValidatedModel:
    """Check a :class:`ModelSpec` and return it as a :class:`ValidatedModel`.

    Raises
    ------
    NonSPDMatrix
        ``A`` is not symmetric positive definite (or a potential coefficient
        has the wrong sign).
    ShapeMismatch
        d < 1, a ``lam`` that is not (d*m, d) with m >= 1, an ``A`` that is
        not (d*m, d*m), a coefficient (omega2, a, b, eta2, gamma, lam, A) that
        is not finite, a ``beta`` that is nan or not positive (``math.inf`` is
        allowed), or a field of another kind.
    MissingField
        Generalized kind without memory, underdamped without gamma.
    """
    return ValidatedModel(**{f.name: getattr(spec, f.name) for f in fields(ModelSpec)})

