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
log-mass, R(m) and Var_m(q) for a vector of m in one log-sum-exp pass.  The
slopes are exact: R'(m) = beta eta2 Var_m(q) and R''(m) = (beta eta2)^2
kappa3_m(q), the third central moment.  Fixed points are bracketed on a scan
of f = R(m) - m, with a fold (an extremum of f between two scan nodes that
crosses zero) split into two brackets, and each bracket is solved by one
vectorized, safeguarded Newton iteration (``_newton``) on f and f' = R' - 1.
Stability is |R'(m*)| vs 1.  The critical inverse temperature is the root of
g(beta) = R'(0; beta) - 1, found by the same solver with the exact slope
g'(beta) = eta2 Var - beta eta2 Cov((q - mu)^2, E), since the log-weights
are -beta E with E = V + eta2 q^2 / 2: one rule, on the window of the low
end of the beta bracket, serves every iterate by reweighting its nodes.
Only (V, eta2, beta) enter, so the branch structure is the same for all
three dynamics kinds.

``kfp_residual`` provides the independent verification route: it evaluates
the full stationary operator on a (q, p, z) grid with second-order central
differences and reports the discrete L2 residual.  The d = m = 1 grid
operators it uses (``GridDensity.q_moments``, ``grid_memory``, ``d_axis``)
also serve the grid diagnostics of :mod:`glekit.thermo`.
"""

from __future__ import annotations

import copy
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
_ROOT_WIDTH = 1e-14  # bracket width or last step at which a fixed point is accepted
_FOLD_WIDTH = 1e-8  # an extremum of f only has to decide the sign of f there


# ---------------------------------------------------------------------------
# problem definition
# ---------------------------------------------------------------------------


# default_window's probe grid, q on (0, 60] and then -q, built once: a new grid
# per call made every window of a bifurcation scan grow and trim the heap again
_PROBE = np.linspace(0.0, 60.0, 6001)[1:]
_PROBE_BOTH_SIGNS = np.concatenate([_PROBE, -_PROBE])[:, None]
_PROBE_BOTH_SIGNS.setflags(write=False)


def default_window(potential: Potential, eta2: float, beta: float) -> float:
    """Truncation half-width L with relative tail weight below 1e-14.

    L is the first node of a probe grid on (0, 60] past the last one where
    beta (V - min V) is below the target at q or at -q, with min V taken over
    both signs, so that the wells beyond a high barrier stay inside on either
    side; L does not grow with beta.  The interaction term only narrows the
    density further.
    """
    target = 14.0 * math.log(10.0) + 4.0  # margin over 1e-14
    v = potential.energy(_PROBE_BOTH_SIGNS).reshape(2, -1)
    last = np.flatnonzero(np.any(beta * (v - float(np.min(v))) < target, axis=0))[-1]
    L = float(_PROBE[last + 1]) if last + 1 < _PROBE.size else 60.0
    return max(L, 3.0)


def _scan(L: float) -> np.ndarray:
    """The m scan on [-L, L]: exactly mirrored, with m = 0 among its nodes."""
    return np.arange(-_SCAN_HALF, _SCAN_HALF + 1) * (L / _SCAN_HALF)


class _Quadrature:
    """Composite Gauss rule on [-L, L] with the m-independent Boltzmann log-weights.

    The nodes of the rule come in mirrored pairs +q, -q, stored as the
    positive half ``q`` with the energy E = V + eta2 q^2 / 2 at each sign.
    This makes R exactly odd, and R(0) exactly 0, for an even potential.
    The log-weights are log w - beta E, so :meth:`at` moves the rule to
    another beta without evaluating V again, and E gives the slopes in beta.
    """

    def __init__(self, prob: SelfConsistencyProblem, L: float, n_panels: int):
        half = L / n_panels
        self.L, self.beta, self.eta2 = L, prob.beta, prob.eta2
        self.q = ((2 * np.arange(n_panels // 2) + 1)[:, None] * half + half * _GL_NODES).ravel()
        self.log_w = np.log(np.tile(half * _GL_WEIGHTS, n_panels // 2))

        def energy(x):  # V(x) + eta2 x^2 / 2
            return prob.potential.energy(x[:, None]) + 0.5 * prob.eta2 * x**2

        self.e_pos, self.e_neg = energy(self.q), energy(-self.q)

    @property
    def c(self) -> float:
        return self.beta * self.eta2

    def at(self, beta: float) -> _Quadrature:
        """The same nodes and energies, weighted for inverse temperature ``beta``."""
        quad = copy.copy(self)
        quad.beta = beta
        return quad

    def _weights(self, m) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per m (rows): the log-shift, the shifted weights at +q and -q, and their sum."""
        m = np.atleast_1d(np.asarray(m, dtype=float))
        cm = self.c * m[:, None]
        a_pos = self.log_w - self.beta * self.e_pos + cm * self.q
        a_neg = self.log_w - self.beta * self.e_neg - cm * self.q
        shift = np.maximum(a_pos.max(axis=1), a_neg.max(axis=1))
        w_pos = np.exp(a_pos - shift[:, None])
        w_neg = np.exp(a_neg - shift[:, None])
        z = np.sum(w_pos + w_neg, axis=1)
        if not np.all(np.isfinite(z)):
            raise QuadratureFailure(f"non-finite normalization on [-{self.L}, {self.L}]")
        return m, shift, w_pos, w_neg, z

    def moments(self, m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log Z, mean R and variance of q under exp(-beta [V + eta2 (q - m)^2 / 2]), per m."""
        m, shift, w_pos, w_neg, z = self._weights(m)
        mean = np.sum(self.q * (w_pos - w_neg), axis=1) / z
        mu = mean[:, None]
        var = np.sum((self.q - mu) ** 2 * w_pos + (self.q + mu) ** 2 * w_neg, axis=1) / z
        return shift + np.log(z) - 0.5 * self.c * m**2, mean, var

    def central(self, m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per m: Var(q), the third central moment kappa3 and Cov((q - mu)^2, E)."""
        _, _, w_pos, w_neg, z = self._weights(m)
        w_pos, w_neg = w_pos / z[:, None], w_neg / z[:, None]
        mu = np.sum(self.q * (w_pos - w_neg), axis=1)[:, None]
        d_pos, d_neg = self.q - mu, -self.q - mu
        e_bar = (w_pos @ self.e_pos + w_neg @ self.e_neg)[:, None]
        var = np.sum(d_pos**2 * w_pos + d_neg**2 * w_neg, axis=1)
        k3 = np.sum(d_pos**3 * w_pos + d_neg**3 * w_neg, axis=1)
        cov = np.sum(
            d_pos**2 * (self.e_pos - e_bar) * w_pos + d_neg**2 * (self.e_neg - e_bar) * w_neg, axis=1
        )
        return var, k3, cov


@dataclass(frozen=True)
class SelfConsistencyProblem:
    """Scalar self-consistency problem in one spatial dimension.

    :func:`default_window` sets the truncation half-width.  The window and
    the quadrature are worked out once per problem.
    """

    potential: Potential
    eta2: float
    beta: float

    def __post_init__(self):
        # exp(-beta V) has no normalizable density unless 0 < beta < inf
        if not 0.0 < self.beta < math.inf:
            raise ShapeMismatch(f"beta must be finite and positive, got {self.beta}")

    def window(self) -> float:
        return float(self._quadrature.L)

    @cached_property
    def _quadrature(self) -> _Quadrature:
        """The :func:`_ladder` rule on the window, checked on the m scan.

        The rule keeps that last pass as ``scan``, ``scan_mean`` and
        ``scan_var``: R(m) and Var_m(q) at the scan nodes.
        """
        L = default_window(self.potential, self.eta2, self.beta)
        scan = _scan(L)
        quad, [(mean, var)] = _ladder(self, L, [self.beta], scan)
        quad.scan, quad.scan_mean, quad.scan_var = scan, mean, var
        return quad

    @staticmethod
    def from_model(model: ValidatedModel) -> "SelfConsistencyProblem":
        if model.d != 1:
            raise ShapeMismatch("self-consistency solver is one-dimensional")
        return SelfConsistencyProblem(potential=model.potential, eta2=model.eta2, beta=model.beta)


def _ladder(prob: SelfConsistencyProblem, L: float, betas, ms) -> tuple[_Quadrature, list]:
    """The first panel-ladder rule on [-L, L] whose R and R' at ``ms`` agree with the rule before.

    The check holds at every beta in ``betas``.  Returns the rule, weighted for
    ``prob.beta``, and its last pass: (R, Var) at ``ms`` per beta.
    """
    prev = None
    for n_panels in _PANEL_LADDER:
        quad = _Quadrature(prob, L, n_panels)
        passes = [quad.at(b).moments(ms)[1:] for b in betas]
        cur = np.array([(mean, b * prob.eta2 * var) for b, (mean, var) in zip(betas, passes)])
        if prev is not None and np.max(np.abs(cur - prev)) <= 5e-12:
            return quad, passes
        prev = cur
    raise QuadratureFailure(f"quadrature did not stabilize on [-{L}, {L}]")


def _newton(fdf, lo, hi, s_lo, width: float) -> np.ndarray:
    """The root of f in every bracket [lo_i, hi_i] at once, by safeguarded Newton.

    ``fdf`` maps a vector of points to (f, f') there; f has sign ``s_lo_i``
    just above lo_i and the opposite sign at hi_i.  As in rtsafe (Press et
    al., Numerical Recipes, 9.4), each iterate takes the Newton step when it
    lands strictly inside the bracket and is shorter than half the step
    before last, and bisects otherwise; f at the new point then shrinks the
    bracket.  A bracket is done when its width or its last step is at most
    ``width``, or when f vanishes.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    s_lo = np.asarray(s_lo, dtype=float)
    x = 0.5 * (lo + hi)
    step = np.abs(hi - lo)
    prev = step.copy()
    todo = np.flatnonzero(step > width)
    for _ in range(200):
        if not todo.size:
            break
        xt = x[todo]
        f, df = fdf(xt)
        s = np.sign(f)
        lo[todo] = np.where(s == s_lo[todo], xt, lo[todo])
        hi[todo] = np.where(s == -s_lo[todo], xt, hi[todo])
        a, b = lo[todo], hi[todo]
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = xt - f / df
        take = (a < newton) & (newton < b) & (2.0 * np.abs(f) < np.abs(prev[todo] * df))
        x_new = np.where(take, newton, 0.5 * (a + b))
        prev[todo], step[todo] = step[todo], np.abs(x_new - xt)
        x[todo] = np.where(s == 0.0, xt, x_new)
        todo = todo[(s != 0.0) & (step[todo] > width) & (b - a > width)]
    return x


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


def _fold_slopes(quad: _Quadrature, m) -> tuple[np.ndarray, np.ndarray]:
    """f' = R' - 1 and f'' = R'' = c^2 kappa3 per m, for f = R - m and c = beta eta2."""
    var, k3, _ = quad.central(m)
    return quad.c * var - 1.0, quad.c**2 * k3


def fixed_points(prob: SelfConsistencyProblem) -> list[FixedPoint]:
    """All solutions of R(m) = m, bracketed on a scan of f = R - m and solved by Newton.

    The scan has 81 nodes on [-L, L].  A node where f vanishes is a root, and
    the sign of f' = R' - 1 there is the sign of f beside it, so a second
    root between it and the next node is bracketed too.  Where f keeps its
    nonzero sign over a scan interval while f' turns from towards zero to
    away from it, f has an extremum there that may cross zero (a fold); it
    is found by :func:`_newton` on f' with the exact f'' = R'' = c^2 kappa3,
    c = beta eta2, to 1e-8, and if f has the other sign there, the interval
    splits into two brackets.  Every bracket is solved by :func:`_newton` on
    f and f' = c Var - 1, both from one quadrature pass, to a bracket width
    or last step of 1e-14; roots are deduplicated to 1e-8.
    """
    quad = prob._quadrature
    ms = quad.scan
    f, df = quad.scan_mean - ms, quad.c * quad.scan_var - 1.0
    above = np.where(f == 0.0, np.sign(df), np.sign(f))  # sign of f just above each node
    below = np.where(f == 0.0, -np.sign(df), np.sign(f))  # and just below it
    i = np.flatnonzero(above[:-1] * below[1:] < 0)
    lo, hi, s_lo = ms[i], ms[i + 1], above[i]

    j = np.flatnonzero((f[:-1] * f[1:] > 0) & (f[:-1] * df[:-1] < 0) & (df[:-1] * df[1:] < 0))
    if j.size:
        m_ext = _newton(lambda x: _fold_slopes(quad, x), ms[j], ms[j + 1], np.sign(df[j]),
                        _FOLD_WIDTH)
        f_ext = quad.moments(m_ext)[1] - m_ext
        k = np.sign(f_ext) == -np.sign(f[j])
        lo = np.concatenate([lo, ms[j[k]], m_ext[k]])
        hi = np.concatenate([hi, m_ext[k], ms[j[k] + 1]])
        s_lo = np.concatenate([s_lo, np.sign(f[j[k]]), np.sign(f_ext[k])])

    def fdf(x):
        _, mean_x, var_x = quad.moments(x)
        return mean_x - x, quad.c * var_x - 1.0

    bracketed = _newton(fdf, lo, hi, s_lo, _ROOT_WIDTH)
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
    """Per-beta fixed points and stability flags; ``beta_critical`` is None without a pitchfork."""

    betas: np.ndarray
    branches: tuple[tuple[FixedPoint, ...], ...]
    beta_critical: Optional[float]

    def rows(self):
        """Flat (beta, m_star, stability, residual) rows for serialization."""
        for beta, pts in zip(self.betas, self.branches):
            for pt in pts:
                yield float(beta), pt.m_star, pt.stability, pt.residual


def _critical_gap(quad: _Quadrature, betas) -> tuple[np.ndarray, np.ndarray]:
    """g(beta) = R'(0; beta) - 1 and its exact slope g'(beta), per beta, on one rule.

    g'(beta) = eta2 Var - beta eta2 Cov((q - mu)^2, E) with E = V + eta2 q^2 / 2,
    all at m = 0: the log-weights are -beta E, so d Var / d beta = -Cov.
    """
    out = []
    for b in betas:
        var, _, cov = quad.at(b).central(0.0)
        out.append((b * quad.eta2 * var[0] - 1.0, quad.eta2 * (var[0] - b * cov[0])))
    return tuple(np.array(out).T)


def critical_beta(
    prob: SelfConsistencyProblem, beta_lo: float, beta_hi: float, tol: float = 1e-12
) -> Optional[float]:
    """Root of g(beta) = R'(0; beta) - 1 to width ``tol``; None when g keeps its sign.

    One rule serves the whole bracket: the window of ``beta_lo``, the wider
    one, with the panel count of :func:`_ladder` checked on R(0) and R'(0)
    at both ends.  The root is found by :func:`_newton` with the exact slope
    g'(beta) of :func:`_critical_gap`, reweighting that rule at each iterate.
    """
    if not 0.0 < beta_lo < beta_hi < math.inf:
        raise ShapeMismatch(f"need 0 < beta_lo < beta_hi < inf, got [{beta_lo}, {beta_hi}]")
    L = default_window(prob.potential, prob.eta2, beta_lo)
    quad, _ = _ladder(prob, L, [beta_lo, beta_hi], 0.0)
    (g_lo, g_hi), _ = _critical_gap(quad, [beta_lo, beta_hi])
    if g_lo == 0.0:
        return beta_lo
    if g_lo * g_hi > 0:
        return None
    return float(
        _newton(lambda b: _critical_gap(quad, b), [beta_lo], [beta_hi], [np.sign(g_lo)], tol)[0]
    )


def bifurcation_diagram(
    prob: SelfConsistencyProblem, beta_grid: Sequence[float]
) -> BifurcationDiagram:
    """Fixed-point branches over an increasing beta grid.

    The critical inverse temperature is refined by :func:`critical_beta` in
    the first grid interval where R'(0) - 1 changes sign and |R(0)| <= 1e-14
    at both ends: a pitchfork needs m = 0 to be a fixed point.  It is None
    when no interval qualifies, as for a potential that is not even.
    """
    betas = np.asarray(list(beta_grid), dtype=float)
    if betas.size < 1 or np.any(np.diff(betas) <= 0):
        raise ShapeMismatch("beta grid must be strictly increasing")
    branches, at_zero = [], []
    for beta in betas:
        p = replace(prob, beta=float(beta))
        branches.append(tuple(fixed_points(p)))
        quad = p._quadrature  # m = 0 is node _SCAN_HALF of its scan
        at_zero.append((quad.scan_mean[_SCAN_HALF], quad.c * quad.scan_var[_SCAN_HALF]))
    r0, slopes = np.array(at_zero).T
    fixed = np.abs(r0) <= _ROOT_WIDTH

    beta_c = None
    crossings = np.flatnonzero((np.diff(np.sign(slopes - 1.0)) != 0) & fixed[:-1] & fixed[1:])
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

    def check(self):
        for name, ax in (("q", self.q), ("p", self.p), ("z", self.z)):
            if ax.size < 5:
                raise GridTooCoarse(f"axis {name} has {ax.size} nodes, need >= 5")
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
