"""Stationary states of the mean-field dynamics and their bifurcations.

Stationary densities factorize as

    rho(q, p, z) = h(q) x Gaussian(p; 0, I/beta) x Gaussian(z; 0, I/beta),

where the q-marginal h solves a self-consistency fixed point.  With a
Curie-Weiss interaction the convolution U * rho depends on rho only through
its mean, so stationarity reduces to the scalar fixed-point equation
m = R(m) for the magnetization, with

    R(m) = int q exp(-beta [V(q) + eta2 (q-m)^2 / 2]) dq
         / int   exp(-beta [V(q) + eta2 (q-m)^2 / 2]) dq.

The exponent is -beta [V(q) + eta2 q^2 / 2] + beta eta2 q m plus a constant
in m, so one set of log-weights on fixed Gauss nodes per problem gives the
log-mass, R(m) and Var_m(q) for a vector of m in one log-sum-exp pass, and
R'(m) = beta eta2 Var_m(q) exactly.  Fixed points are bracketed on a scan of
R(m) - m and bisected, stability is |R'(m*)| vs 1, and the critical inverse
temperature is the bisected root of R'(0; beta) = 1.  Only (V, eta2, beta)
enter, so the branch structure is the same for all three dynamics kinds.

``kfp_residual`` provides the independent verification route: it evaluates
the full stationary operator on a (q, p, z) grid with second-order central
differences and reports the discrete L2 residual.  The d = m = 1 grid
operators it uses (``GridDensity.q_moments``, ``grid_memory``, ``d_axis``)
also serve the grid diagnostics of :mod:`glekit.thermo`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import GridTooCoarse, QuadratureFailure, ShapeMismatch
from .model import Kind, Potential, ValidatedModel

MARGINAL_BAND = 1e-8

_GL_NODES, _GL_WEIGHTS = leggauss(16)
_PANEL_LADDER = (8, 16, 32, 64, 128, 256)
_SCAN_HALF = 40  # the m scan has 2 * 40 + 1 nodes on [-L, L]
_ROOT_WIDTH = 1e-14  # bracket width at which a fixed point is accepted


# ---------------------------------------------------------------------------
# problem definition
# ---------------------------------------------------------------------------


def default_window(potential: Potential, eta2: float, beta: float) -> float:
    """Truncation half-width L with relative tail weight below 1e-14.

    Chosen from exp(-beta V(L)) <= 1e-14 * peak, then checked on a probe
    grid; the interaction term only narrows the density further.
    """
    target = 14.0 * math.log(10.0) + 4.0  # margin over 1e-14
    qs = np.linspace(0.0, 60.0, 6001)[1:]
    v = potential.energy(qs[:, None]) - float(np.min(potential.energy(qs[:, None])))
    ok = qs[beta * v >= target]
    L = float(ok[0]) if ok.size else 60.0
    return max(L, 3.0)


def _scan(L: float) -> np.ndarray:
    """The m scan on [-L, L]: exactly mirrored, with m = 0 among its nodes."""
    return np.arange(-_SCAN_HALF, _SCAN_HALF + 1) * (L / _SCAN_HALF)


class _Quadrature:
    """Composite Gauss rule on [-L, L] with the m-independent Boltzmann log-weights.

    The nodes of the rule come in mirrored pairs +q, -q, stored as the
    positive half ``q`` with one log-weight array per sign.  This makes R
    exactly odd, and R(0) exactly 0, for an even potential.
    """

    def __init__(self, prob: SelfConsistencyProblem, L: float, n_panels: int):
        half = L / n_panels
        self.L = L
        self.c = prob.beta * prob.eta2
        self.q = ((2 * np.arange(n_panels // 2) + 1)[:, None] * half + half * _GL_NODES).ravel()
        log_w = np.log(np.tile(half * _GL_WEIGHTS, n_panels // 2))

        def base(x):  # -beta [V(x) + eta2 x^2 / 2]
            return -prob.beta * (prob.potential.energy(x[:, None]) + 0.5 * prob.eta2 * x**2)

        self.log_w_pos = log_w + base(self.q)
        self.log_w_neg = log_w + base(-self.q)

    def moments(self, m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log Z, mean R and variance of q under exp(-beta [V + eta2 (q - m)^2 / 2]), per m."""
        m = np.atleast_1d(np.asarray(m, dtype=float))
        cm = self.c * m[:, None]
        a_pos = self.log_w_pos + cm * self.q
        a_neg = self.log_w_neg - cm * self.q
        shift = np.maximum(a_pos.max(axis=1), a_neg.max(axis=1))
        w_pos = np.exp(a_pos - shift[:, None])
        w_neg = np.exp(a_neg - shift[:, None])
        z = np.sum(w_pos + w_neg, axis=1)
        if not np.all(np.isfinite(z)):
            raise QuadratureFailure(f"non-finite normalization on [-{self.L}, {self.L}]")
        mean = np.sum(self.q * (w_pos - w_neg), axis=1) / z
        mu = mean[:, None]
        var = np.sum((self.q - mu) ** 2 * w_pos + (self.q + mu) ** 2 * w_neg, axis=1) / z
        return shift + np.log(z) - 0.5 * self.c * m**2, mean, var


@dataclass(frozen=True)
class SelfConsistencyProblem:
    """Scalar self-consistency problem in one spatial dimension.

    ``L`` fixes the truncation half-width; by default :func:`default_window`
    sets it.  The window and the quadrature are worked out once per problem.
    """

    potential: Potential
    eta2: float
    beta: float
    L: Optional[float] = None

    def __post_init__(self):
        # exp(-beta V) has no normalizable density unless 0 < beta < inf
        if not 0.0 < self.beta < math.inf:
            raise ShapeMismatch(f"beta must be finite and positive, got {self.beta}")

    def window(self) -> float:
        return float(self._quadrature.L)

    @cached_property
    def _quadrature(self) -> _Quadrature:
        """The first ladder rule whose R and R' on the m scan agree with the rule before."""
        L = self.L if self.L is not None else default_window(self.potential, self.eta2, self.beta)
        scan = _scan(L)
        prev = None
        for n_panels in _PANEL_LADDER:
            quad = _Quadrature(self, L, n_panels)
            _, mean, var = quad.moments(scan)
            cur = np.concatenate([mean, quad.c * var])
            if prev is not None and np.max(np.abs(cur - prev)) <= 5e-12:
                return quad
            prev = cur
        raise QuadratureFailure(f"quadrature did not stabilize on [-{L}, {L}]")

    @staticmethod
    def from_model(model: ValidatedModel) -> "SelfConsistencyProblem":
        if model.d != 1:
            raise ShapeMismatch("self-consistency solver is one-dimensional")
        return SelfConsistencyProblem(potential=model.potential, eta2=model.eta2, beta=model.beta)


def self_consistency_map(prob: SelfConsistencyProblem, m: float) -> float:
    """R(m): the mean of the density proportional to exp(-beta [V + eta2 (q-m)^2/2])."""
    return float(prob._quadrature.moments(m)[1][0])


def map_derivative(prob: SelfConsistencyProblem, m: float) -> float:
    """R'(m) = beta eta2 Var_m(q), exact: m enters the exponent only through beta eta2 q m."""
    quad = prob._quadrature
    return float(quad.c * quad.moments(m)[2][0])


def _bisect(f, lo, hi, s_lo, width: float) -> np.ndarray:
    """Bisect every bracket [lo_i, hi_i] at once until each is narrower than ``width``.

    f (vectorized) has sign ``s_lo_i`` just above lo_i and the opposite sign
    at hi_i; a midpoint where f vanishes closes its bracket.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    for _ in range(200):
        if not np.any(hi - lo > width):
            break
        mid = 0.5 * (lo + hi)
        s_mid = np.sign(f(mid))
        lo = np.where(s_mid != -s_lo, mid, lo)
        hi = np.where(s_mid != s_lo, mid, hi)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# fixed points and bifurcation diagram
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPoint:
    m_star: float
    stability: str  # "stable" | "unstable" | "marginal"
    residual: float
    r_prime: float

    @property
    def stable(self) -> bool:
        return self.stability == "stable"


def _classify(r_prime: float) -> str:
    if abs(abs(r_prime) - 1.0) < MARGINAL_BAND:
        return "marginal"
    return "stable" if abs(r_prime) < 1.0 else "unstable"


def fixed_points(prob: SelfConsistencyProblem) -> list[FixedPoint]:
    """All solutions of R(m) = m, bracketed on a scan of f = R - m and bisected.

    The scan has 81 nodes on [-L, L].  A node where f vanishes is a root, and
    the sign of f' = R' - 1 there is the sign of f beside it, so a second
    root between it and the next node is bracketed too.  Roots are bisected
    to a bracket width of 1e-14 and deduplicated to 1e-8.
    """
    quad = prob._quadrature
    ms = _scan(quad.L)
    _, mean, var = quad.moments(ms)
    f, df = mean - ms, quad.c * var - 1.0
    above = np.where(f == 0.0, np.sign(df), np.sign(f))  # sign of f just above each node
    below = np.where(f == 0.0, -np.sign(df), np.sign(f))  # and just below it
    i = np.flatnonzero(above[:-1] * below[1:] < 0)
    bracketed = _bisect(
        lambda x: quad.moments(x)[1] - x, ms[i], ms[i + 1], above[i], _ROOT_WIDTH
    )
    roots: list[float] = []
    for r in np.sort(np.concatenate([ms[f == 0.0], bracketed])):
        if not roots or r - roots[-1] >= 1e-8:
            roots.append(float(r))
    _, mean, var = quad.moments(roots)
    return [
        FixedPoint(m_star=r, stability=_classify(rp), residual=float(abs(R - r)), r_prime=float(rp))
        for r, R, rp in zip(roots, mean, quad.c * var)
    ]


@dataclass(frozen=True)
class BifurcationDiagram:
    """Per-beta fixed points with stability flags plus the critical crossing."""

    betas: np.ndarray
    branches: tuple[tuple[FixedPoint, ...], ...]
    beta_critical: Optional[float]

    def rows(self):
        """Flat (beta, m_star, stability, residual) rows for serialization."""
        for beta, pts in zip(self.betas, self.branches):
            for pt in pts:
                yield float(beta), pt.m_star, pt.stability, pt.residual


def critical_beta(
    prob: SelfConsistencyProblem, beta_lo: float, beta_hi: float, tol: float = 1e-12
) -> Optional[float]:
    """Root of g(beta) = R'(0; beta) - 1, bisected to width ``tol``; None when g keeps its sign."""

    def g(betas):
        return np.array([map_derivative(replace(prob, beta=float(b)), 0.0) - 1.0 for b in betas])

    g_lo, g_hi = g([beta_lo, beta_hi])
    if g_lo == 0.0:
        return beta_lo
    if g_lo * g_hi > 0:
        return None
    return float(_bisect(g, [beta_lo], [beta_hi], np.sign(g_lo), tol)[0])


def bifurcation_diagram(
    prob: SelfConsistencyProblem, beta_grid: Sequence[float]
) -> BifurcationDiagram:
    """Fixed-point branches over an increasing beta grid.

    The critical inverse temperature is refined by :func:`critical_beta`
    whenever R'(0) - 1 changes sign between consecutive grid points.
    """
    betas = np.asarray(list(beta_grid), dtype=float)
    if betas.size < 1 or np.any(np.diff(betas) <= 0):
        raise ShapeMismatch("beta grid must be strictly increasing")
    branches, slopes = [], []
    for beta in betas:
        p = replace(prob, beta=float(beta))
        branches.append(tuple(fixed_points(p)))
        slopes.append(map_derivative(p, 0.0))
    slopes = np.array(slopes)

    beta_c = None
    crossings = np.where(np.diff(np.sign(slopes - 1.0)) != 0)[0]
    if crossings.size:
        i = int(crossings[0])
        beta_c = critical_beta(prob, float(betas[i]), float(betas[i + 1]))
    return BifurcationDiagram(betas=betas, branches=tuple(branches), beta_critical=beta_c)


# ---------------------------------------------------------------------------
# full-state stationary density
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StationaryDensity:
    """Product stationary density for a magnetization fixed point m*.

    q-factor proportional to exp(-beta [V(q) + eta2 (q - m*)^2 / 2]),
    p and z factors centered Gaussians with variance 1/beta per coordinate.
    """

    model: ValidatedModel
    m_star: float
    q_log_norm: float  # log of the q-factor normalization
    q_var: float  # variance of the q marginal
    window: float

    def beta(self) -> float:
        return self.model.beta

    def q_density(self, q):
        q = np.asarray(q, dtype=float)
        model = self.model
        v = model.potential_energy(q.reshape(-1, 1)).reshape(q.shape)
        phi = -model.beta * (v + 0.5 * model.eta2 * (q - self.m_star) ** 2)
        return np.exp(phi - self.q_log_norm)

    def gaussian_factor(self, x):
        """Standard stationary factor exp(-beta |x|^2/2), normalized per coordinate."""
        x = np.asarray(x, dtype=float)
        beta = self.model.beta
        norm = math.sqrt(2.0 * math.pi / beta)
        return np.exp(-0.5 * beta * x**2) / norm

    def on_grid(self, q_ax, p_ax, z_ax) -> "GridDensity":
        """Tensor-product evaluation on a regular (q, p, z) grid (d = m = 1)."""
        fq = self.q_density(q_ax)
        fp = self.gaussian_factor(p_ax)
        fz = self.gaussian_factor(z_ax)
        vals = fq[:, None, None] * fp[None, :, None] * fz[None, None, :]
        return GridDensity(q=np.asarray(q_ax, float), p=np.asarray(p_ax, float),
                           z=np.asarray(z_ax, float), values=vals)


def extend_to_full_state(m_star: float, model: ValidatedModel) -> StationaryDensity:
    """Closed-form product density for a fixed point of the scalar map."""
    quad = SelfConsistencyProblem.from_model(model)._quadrature
    log_z, _, var = quad.moments(m_star)
    return StationaryDensity(
        model=model,
        m_star=float(m_star),
        q_log_norm=float(log_z[0]),
        q_var=float(var[0]),
        window=quad.L,
    )


# ---------------------------------------------------------------------------
# d = m = 1 grid densities and their operators
# ---------------------------------------------------------------------------


@dataclass
class GridDensity:
    """Density values on a regular tensor (q, p, z) grid, d = m = 1."""

    q: np.ndarray
    p: np.ndarray
    z: np.ndarray
    values: np.ndarray

    def spacings(self) -> tuple[float, float, float]:
        return (
            float(self.q[1] - self.q[0]),
            float(self.p[1] - self.p[0]),
            float(self.z[1] - self.z[0]),
        )

    def check(self, min_nodes: int = 5):
        for name, ax in (("q", self.q), ("p", self.p), ("z", self.z)):
            if ax.size < min_nodes:
                raise GridTooCoarse(f"axis {name} has {ax.size} nodes, need >= {min_nodes}")
            h = np.diff(ax)
            if np.max(np.abs(h - h[0])) > 1e-9 * abs(h[0]):
                raise GridTooCoarse(f"axis {name} is not uniform")
        if self.values.shape != (self.q.size, self.p.size, self.z.size):
            raise ShapeMismatch(
                f"values shape {self.values.shape} does not match axes "
                f"{(self.q.size, self.p.size, self.z.size)}"
            )

    def q_moments(self) -> tuple[float, float, float]:
        """Mass, first and second moment of the q-marginal, by Riemann sums."""
        hq, hp, hz = self.spacings()
        marg = self.values.sum(axis=(1, 2)) * hp * hz
        return (
            float(np.sum(marg) * hq),
            float(np.sum(self.q * marg) * hq),
            float(np.sum(self.q**2 * marg) * hq),
        )


def grid_memory(density: GridDensity, model: ValidatedModel) -> tuple[float, float]:
    """Check a grid density against a generalized d = m = 1 model; return (lam, alpha)."""
    density.check()
    if model.kind is not Kind.GENERALIZED or model.d != 1 or model.m != 1:
        raise ShapeMismatch("grid operators are implemented for the generalized kind, d = m = 1")
    lam = float(np.asarray(model.memory.lam).reshape(()))
    alpha = float(np.asarray(model.memory.A).reshape(()))
    return lam, alpha


def d_axis(F: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order central first derivative (interior nodes; one-sided at edges)."""
    return np.gradient(F, h, axis=axis, edge_order=2)


def _d2_axis(F: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Three-point central second derivative (edges zero-filled; trimmed by callers)."""
    out = np.zeros_like(F)
    inner = [slice(None)] * F.ndim
    lo, hi, mid = list(inner), list(inner), list(inner)
    lo[axis], hi[axis], mid[axis] = slice(0, -2), slice(2, None), slice(1, -1)
    out[tuple(mid)] = (F[tuple(hi)] - 2.0 * F[tuple(mid)] + F[tuple(lo)]) / (h * h)
    return out


def kfp_residual(density: GridDensity, model: ValidatedModel) -> float:
    """Discrete L2 norm of the stationary operator applied to a grid density.

    The operator combines transport (q, p), force (confining + convolution of
    the interaction with the q-marginal + memory coupling), and relaxation /
    diffusion in z; all derivatives are second-order central differences and
    the norm is taken over interior nodes two layers in from the boundary.
    """
    lam, alpha = grid_memory(density, model)
    bi = model.beta_inv
    hq, hp, hz = density.spacings()
    p = density.p[None, :, None]
    z = density.z[None, None, :]
    rho = density.values

    # convolution force from the q-marginal: eta2 * (q * mass - first moment)
    mass, mom1, _ = density.q_moments()
    grad_u_conv = model.eta2 * (density.q * mass - mom1)

    v_prime = model.grad_potential(density.q[:, None]).reshape(-1)
    force_p = (v_prime + grad_u_conv)[:, None, None] - lam * z

    r = (
        -d_axis(p * rho, hq, 0)
        + d_axis(force_p * rho, hp, 1)
        + d_axis((lam * p + alpha * z) * rho, hz, 2)
        + bi * alpha * _d2_axis(rho, hz, 2)
    )
    core = r[2:-2, 2:-2, 2:-2]
    return float(np.sqrt(np.sum(core**2) * hq * hp * hz))
