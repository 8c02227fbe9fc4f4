"""Stationary states of the mean-field dynamics and their bifurcations.

Stationary densities factorize as

    rho(q, p, z) = h(q) x Gaussian(p; 0, I/beta) x Gaussian(z; 0, I/beta),

where the q-marginal h solves a self-consistency fixed point.  With a
Curie-Weiss interaction the convolution U * rho depends on rho only through
its mean, so stationarity reduces to the scalar fixed-point equation
m = R(m) for the magnetization, with

    R(m) = int q exp(-beta [V(q) + eta2 (q-m)^2 / 2]) dq
         / int   exp(-beta [V(q) + eta2 (q-m)^2 / 2]) dq.

The solver works entirely on R: fixed points by bisection on sign changes,
stability from |R'(m*)| vs 1, and the critical inverse temperature from the
crossing R'(0; beta) = 1.  Because only (V, eta2, beta) enter, the branch
structure is identical for all three dynamics kinds.

``kfp_residual`` provides the independent verification route: it evaluates
the full stationary operator on a (q, p, z) grid with second-order central
differences and reports the discrete L2 residual.  The d = m = 1 grid
operators it uses (``GridDensity.q_moments``, ``grid_memory``, ``d_axis``)
also serve the grid diagnostics of :mod:`glekit.thermo`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import GridTooCoarse, QuadratureFailure, ShapeMismatch
from .model import Kind, Potential, ValidatedModel

FIXED_POINT_TOL = 1e-10
QUAD_ABS_TOL = 1e-11
MARGINAL_BAND = 1e-8
STABILITY_STEP = 1e-5


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


@dataclass(frozen=True)
class SelfConsistencyProblem:
    """Scalar self-consistency problem in one spatial dimension."""

    potential: Potential
    eta2: float
    beta: float
    L: Optional[float] = None
    quad_tol: float = QUAD_ABS_TOL

    def window(self) -> float:
        if self.L is not None:
            return float(self.L)
        return default_window(self.potential, self.eta2, self.beta)

    @staticmethod
    def from_model(model: ValidatedModel, L: Optional[float] = None) -> "SelfConsistencyProblem":
        if model.d != 1:
            raise ShapeMismatch("self-consistency solver is one-dimensional")
        return SelfConsistencyProblem(
            potential=model.potential, eta2=model.eta2, beta=model.beta, L=L
        )


def _exponent(prob: SelfConsistencyProblem, q: np.ndarray, m: float) -> np.ndarray:
    v = prob.potential.energy(np.atleast_2d(q).T.reshape(-1, 1))
    return -prob.beta * (v + 0.5 * prob.eta2 * (q - m) ** 2)


_GL_NODES, _GL_WEIGHTS = leggauss(16)
_PANEL_LADDER = (8, 16, 32, 64, 128, 256)


def _weighted_integrals(
    prob: SelfConsistencyProblem, m: float, moments=(0, 1)
) -> tuple[float, list[float]]:
    """Moments int q^k exp(phi - shift) dq over [-L, L], phi the Boltzmann exponent.

    Composite 16-point Gauss panels, doubled until the normalized mean is
    self-consistent below ``quad_tol``; returns (shift, values) where shift
    is the exponent maximum factored out for stability.
    """
    L = prob.window()
    shift = None
    prev_ratio = None
    for n_panels in _PANEL_LADDER:
        edges = np.linspace(-L, L, n_panels + 1)
        half = 0.5 * (edges[1] - edges[0])
        qs = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * _GL_NODES[None, :]).ravel()
        phi = _exponent(prob, qs, m)
        if shift is None:
            shift = float(np.max(phi))
        w = np.exp(phi - shift) * np.tile(half * _GL_WEIGHTS, n_panels)
        vals = [float(np.sum((qs**k) * w)) for k in moments]
        if vals[0] <= 0 or not np.isfinite(vals[0]):
            raise QuadratureFailure(f"degenerate normalization at m={m}: {vals[0]}")
        ratio = tuple(v / vals[0] for v in vals)
        if prev_ratio is not None and all(
            abs(a - b) <= prob.quad_tol * 0.5 for a, b in zip(ratio, prev_ratio)
        ):
            return shift, vals
        prev_ratio = ratio
    raise QuadratureFailure(f"quadrature did not stabilize at m={m} with L={L}")


def self_consistency_map(prob: SelfConsistencyProblem, m: float) -> float:
    """R(m): the mean of the density proportional to exp(-beta [V + eta2 (q-m)^2/2])."""
    _, (i0, i1) = _weighted_integrals(prob, float(m), (0, 1))
    return i1 / i0


def map_derivative(prob: SelfConsistencyProblem, m: float, step: float = STABILITY_STEP) -> float:
    """Centered-difference derivative R'(m)."""
    return (self_consistency_map(prob, m + step) - self_consistency_map(prob, m - step)) / (
        2.0 * step
    )


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


def fixed_points(
    prob: SelfConsistencyProblem, m_scan: Optional[Sequence[float]] = None
) -> list[FixedPoint]:
    """All solutions of R(m) = m located by sign changes of R(m) - m plus bisection.

    The default scan grid covers [-L, L]; roots are refined until the
    residual |R(m*) - m*| drops below 1e-10 and deduplicated to 1e-8.
    """
    L = prob.window()
    if m_scan is None:
        m_scan = np.linspace(-L, L, 81)
    m_scan = np.asarray(m_scan, dtype=float)
    f_vals = np.array([self_consistency_map(prob, m) - m for m in m_scan])

    roots: list[float] = []
    for i in range(len(m_scan) - 1):
        a, b = m_scan[i], m_scan[i + 1]
        fa, fb = f_vals[i], f_vals[i + 1]
        if fa == 0.0:
            roots.append(float(a))
            continue
        if fa * fb < 0:
            roots.append(_bisect(prob, a, b, fa, fb))
    if f_vals[-1] == 0.0:
        roots.append(float(m_scan[-1]))

    out: list[FixedPoint] = []
    for r in sorted(roots):
        if out and abs(r - out[-1].m_star) < 1e-8:
            continue
        rp = map_derivative(prob, r)
        resid = abs(self_consistency_map(prob, r) - r)
        out.append(FixedPoint(m_star=r, stability=_classify(rp), residual=resid, r_prime=rp))
    return out


def _bisect(prob, a, b, fa, fb, tol=FIXED_POINT_TOL, max_iter=200) -> float:
    best, best_f = (a, abs(fa)) if abs(fa) < abs(fb) else (b, abs(fb))
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        fm = self_consistency_map(prob, mid) - mid
        if abs(fm) < best_f:
            best, best_f = mid, abs(fm)
        if abs(fm) <= tol * 0.1 or (b - a) < 1e-14:
            return mid if abs(fm) <= best_f else best
        if (fm < 0) == (fa < 0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return best


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


def _at_beta(prob: SelfConsistencyProblem, beta: float) -> SelfConsistencyProblem:
    return SelfConsistencyProblem(
        potential=prob.potential, eta2=prob.eta2, beta=beta, L=prob.L, quad_tol=prob.quad_tol
    )


def critical_beta(
    prob: SelfConsistencyProblem, beta_lo: float, beta_hi: float, tol: float = 1e-6
) -> Optional[float]:
    """Bisection on g(beta) = R'(0; beta) - 1; None when g does not change sign."""
    g_lo = map_derivative(_at_beta(prob, beta_lo), 0.0) - 1.0
    g_hi = map_derivative(_at_beta(prob, beta_hi), 0.0) - 1.0
    if g_lo == 0.0:
        return beta_lo
    if g_lo * g_hi > 0:
        return None
    lo, hi = beta_lo, beta_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        gm = map_derivative(_at_beta(prob, mid), 0.0) - 1.0
        if (gm < 0) == (g_lo < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bifurcation_diagram(
    prob: SelfConsistencyProblem, beta_grid: Sequence[float]
) -> BifurcationDiagram:
    """Fixed-point branches over an increasing beta grid.

    The critical inverse temperature is refined by bisection whenever
    R'(0) - 1 changes sign between consecutive grid points.
    """
    betas = np.asarray(list(beta_grid), dtype=float)
    if betas.size < 1 or np.any(np.diff(betas) <= 0):
        raise ShapeMismatch("beta grid must be strictly increasing")
    branches, slopes = [], []
    for beta in betas:
        p = _at_beta(prob, beta)
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
        prob = SelfConsistencyProblem(
            potential=self.model.potential, eta2=self.model.eta2, beta=self.model.beta
        )
        return np.exp(_exponent(prob, q, self.m_star) - self.q_log_norm)

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
    if model.d != 1:
        raise ShapeMismatch("full-state stationary density implemented for d = 1")
    prob = SelfConsistencyProblem(potential=model.potential, eta2=model.eta2, beta=model.beta)
    L = prob.window()
    shift, (i0, i1, i2) = _weighted_integrals(prob, float(m_star), (0, 1, 2))
    mean = i1 / i0
    return StationaryDensity(
        model=model,
        m_star=float(m_star),
        q_log_norm=shift + math.log(i0),
        q_var=i2 / i0 - mean**2,
        window=L,
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
