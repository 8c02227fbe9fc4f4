"""Domain error types shared across the toolkit.

Every error below signals a violated precondition or a numerical failure in
one of the toolkit's operations; they all derive from :class:`GlekitError`
so callers (and the CLI) can catch domain failures in one place.
"""


class GlekitError(Exception):
    """Base class for all toolkit domain errors."""


class NonSPDMatrix(GlekitError):
    """A matrix required to be symmetric positive (semi)definite is not."""


class ShapeMismatch(GlekitError):
    """Array shapes are inconsistent with the declared dimensions."""


class MissingField(GlekitError):
    """A model field required by the chosen dynamics kind is absent."""


class UnsupportedPotential(GlekitError):
    """Closed-form analytics require quadratic potentials / Curie-Weiss interaction."""


class MatrixOverflow(GlekitError):
    """Matrix exponential exceeded floating-point range."""


class ConvergenceFailure(GlekitError):
    """An iterative eigenvalue computation failed to converge."""


class RootFindingFailure(GlekitError):
    """Polynomial root extraction failed or produced inaccurate roots."""


class SingularCovariance(GlekitError):
    """A covariance/Gram matrix is singular where positivity is required."""


class QuadratureFailure(GlekitError):
    """Adaptive quadrature did not reach the requested tolerance."""


class GridTooCoarse(GlekitError):
    """A finite-difference grid is too small for the stencils used."""


class NonFiniteState(GlekitError):
    """Particle state became non-finite (blow-up detection)."""


class InsufficientParticles(GlekitError):
    """An estimator needs more particles than the ensemble provides."""


class DegenerateFriction(GlekitError):
    """Effective friction is zero: no noise reaches the momentum equation."""


class RunTooLarge(GlekitError):
    """A run needs more memory than the machine gives it."""


class ConfigError(GlekitError):
    """Config file violates the documented grammar (usage error, exit 2)."""
