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
Stability is |R'(m*)| vs 1.

A bifurcation scan solves its whole beta grid in one pass per stage: one
window call for every beta, one evaluation of V per panel-ladder rung for
every beta still climbing, the 81-node scans of those betas in a few
passes, each over as many rules as fit in 2^14 (m, node) pairs (the 41
nodes m >= 0 alone, mirrored, on a rule whose energies are even bitwise),
then one Newton run over the fold brackets of all betas, one over all root
brackets and one moment pass at all roots.  Each point is evaluated on its
own beta's rule, a row of a zero-padded stack, so ``fixed_points``, the
one-beta case of the same solver, agrees with every branch bitwise.

The critical inverse temperature is the root of
g(beta) = R'(0; beta) - 1, found by the same Newton solver with the exact slope
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

import math
from dataclasses import dataclass
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
_CRITICAL_WIDTH = 1e-12  # bracket width or last step at which a critical beta is accepted
_FOLD_WIDTH = 1e-8  # an extremum of f only has to decide the sign of f there
_CHUNK = 1 << 14  # (m, node) pairs per work array of a ladder pass: 128 KB


# ---------------------------------------------------------------------------
# problem definition
# ---------------------------------------------------------------------------


# default_window's probe grid, q on (0, 60] and then -q, built once: a new grid
# per call made every window of a bifurcation scan grow and trim the heap again
_PROBE = np.linspace(0.0, 60.0, 6001)[1:]
_PROBE_BOTH_SIGNS = np.concatenate([_PROBE, -_PROBE])[:, None]
_PROBE_BOTH_SIGNS.setflags(write=False)


def default_window(potential: Potential, eta2: float, beta) -> np.ndarray:
    """Truncation half-width L per beta, with relative tail weight below 1e-14.

    L is the first node of a probe grid on (0, 60] past the last one where
    beta (V - min V) is below the target at q or at -q, with min V taken over
    both signs, so that the wells beyond a high barrier stay inside on either
    side; L does not grow with beta.  The interaction term only narrows the
    density further.  One evaluation of V serves every beta, and only the
    nodes where the smallest beta is below the target are compared: rounding
    is monotone, so no larger beta is below it anywhere else.  An energy of
    +inf is a hard wall; nan or -inf on the probe is a QuadratureFailure.
    """
    target = 14.0 * math.log(10.0) + 4.0  # margin over 1e-14
    beta = np.asarray(beta, dtype=float)
    v = potential.energy(_PROBE_BOTH_SIGNS).reshape(2, -1)
    bad = ~(v > -np.inf)  # nan or -inf; +inf is a hard wall
    if bad.any():
        i, sign = np.argwhere(bad.T)[0]  # the bad node nearest 0, +q before -q
        q = (1 - 2 * sign) * _PROBE[i]
        raise QuadratureFailure(
            f"potential energy is {v[sign, i]} at q = {q:g} on the window probe"
        )
    y = np.min(v, axis=0) - np.min(v)
    # the nodes where beta y is below the target are among those where it is
    # for the smallest beta, so the (beta, node) comparison stays small
    j = np.flatnonzero(np.min(beta) * y < target)
    past = np.max(np.where(beta[..., None] * y[j] < target, j + 1, 0), axis=-1, initial=0)
    return np.maximum(_PROBE[np.minimum(past, _PROBE.size - 1)], 3.0)


def _scan(L) -> np.ndarray:
    """The m scan on [-L, L] per window: exactly mirrored, with m = 0 among its nodes."""
    return np.arange(-_SCAN_HALF, _SCAN_HALF + 1) * (np.asarray(L)[..., None] / _SCAN_HALF)


class _Quadrature:
    """Composite Gauss rule on [-L, L] with the m-independent Boltzmann log-weights.

    The nodes of the rule come in mirrored pairs +q, -q, stored as the
    positive half ``q`` with e = (E+, E-), the energy E = V + eta2 q^2 / 2 at
    each sign.  This makes R exactly odd, and R(0) exactly 0, for an even
    potential.  The log-weights ``lw`` are log w - beta E, so :meth:`at` moves
    the rule to another beta without evaluating V again, and E gives the
    slopes in beta.

    A stack (:func:`_stacked`) holds rules as rows of ``L``, ``beta``, ``q``
    and ``lw`` alone, so it is never reweighted.  One pass serves every
    shape: a rule evaluates a vector of points m, :meth:`take` gives each
    point its own row of a stack, and :func:`_rows` gives each row of a
    stack its own vector of points.  Every sum runs over the contiguous node
    axis of one (row, m), so it is bitwise that of the rule alone.
    """

    def __init__(self, L, beta, eta2, q, log_w=None, e=None, lw=None):
        self.L, self.beta, self.eta2, self.q = L, beta, eta2, q
        self.log_w, self.e, self._lw = log_w, e, lw

    @property
    def lw(self):
        """log w - beta E at +q and at -q: kept by a stack, worked out per pass on a rule."""
        return self.log_w - self.beta * self.e if self._lw is None else self._lw

    @property
    def c(self):
        return self.beta * self.eta2

    def at(self, beta: float) -> _Quadrature:
        """The same nodes and energies, weighted for inverse temperature ``beta``."""
        return _Quadrature(self.L, beta, self.eta2, self.q, self.log_w, self.e)

    def take(self, rows) -> _Quadrature:
        """Row ``rows[i]`` of a stack as the rule of evaluation point i."""
        return _Quadrature(self.L[rows], self.beta[rows], self.eta2, self.q[rows],
                           lw=self.lw[:, rows])

    def _weights(self, m) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per point m: the log-shift, the shifted weights at +q and -q, and their sum.

        The (m, node) work arrays, with a leading row axis for :func:`_rows`,
        are updated in place here and in :meth:`moments`: every extra
        temporary of their size grows the heap (and page-faults) again on
        each pass.
        """
        m = np.atleast_1d(np.asarray(m, dtype=float))
        cm = (self.c * m)[..., None]  # c is one value, or one per stack row
        lw = self.lw
        w_pos = cm * self.q
        w_pos += lw[0]
        w_neg = -cm * self.q
        w_neg += lw[1]
        shift = np.maximum(w_pos.max(axis=-1), w_neg.max(axis=-1))
        for w in (w_pos, w_neg):
            w -= shift[..., None]
            np.exp(w, out=w)
        z = np.sum(w_pos + w_neg, axis=-1)
        if not np.all(np.isfinite(z)):
            L = np.broadcast_to(self.L, z.shape)[~np.isfinite(z)][0]
            raise QuadratureFailure(f"non-finite normalization on [-{L}, {L}]")
        return m, shift, w_pos, w_neg, z

    def moments(self, m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log Z, mean R and variance of q under exp(-beta [V + eta2 (q - m)^2 / 2]), per m."""
        m, shift, w_pos, w_neg, z = self._weights(m)
        d = w_pos - w_neg
        d *= self.q
        mean = np.sum(d, axis=-1) / z
        mu = mean[..., None]
        w_pos *= np.square(np.subtract(self.q, mu, out=d), out=d)  # (q - mu)^2 w_pos
        w_neg *= np.square(np.add(self.q, mu, out=d), out=d)  # (q + mu)^2 w_neg
        w_pos += w_neg
        var = np.sum(w_pos, axis=-1) / z
        return shift + np.log(z) - 0.5 * self.c * m**2, mean, var

    def central(self, m, cov: bool = False) -> tuple[np.ndarray, ...]:
        """Per m: Var(q) and the third central moment kappa3.

        With ``cov``, also Cov((q - mu)^2, E), on a rule that is not a stack.
        """
        _, _, w_pos, w_neg, z = self._weights(m)
        w_pos, w_neg = w_pos / z[:, None], w_neg / z[:, None]
        mu = np.sum(self.q * (w_pos - w_neg), axis=1)[:, None]
        d_pos, d_neg = self.q - mu, -self.q - mu
        var = np.sum(d_pos**2 * w_pos + d_neg**2 * w_neg, axis=1)
        k3 = np.sum(d_pos**3 * w_pos + d_neg**3 * w_neg, axis=1)
        if not cov:
            return var, k3
        e_bar = (w_pos @ self.e[0] + w_neg @ self.e[1])[:, None]
        cov = np.sum(
            d_pos**2 * (self.e[0] - e_bar) * w_pos + d_neg**2 * (self.e[1] - e_bar) * w_neg, axis=1
        )
        return var, k3, cov


def _stacked(quads: Sequence[_Quadrature]) -> _Quadrature:
    """The rules ``quads`` as the rows of one stack, each padded to the longest.

    A row holds q and log w - beta E at each sign; a padded node has zero
    weight (q = 0, log w - beta E = -inf) and sits after the rule's own
    nodes.  Node counts are powers of two, and numpy sums a row pairwise,
    over halves down to blocks of 128 and within a block in eight interleaved
    partial sums; the padding only adds zeros at the end of each.  So each
    row's sums are bitwise those of its rule alone.
    """
    q = np.zeros((len(quads), max(quad.q.size for quad in quads)))
    lw = np.full((2, *q.shape), -np.inf)
    for i, quad in enumerate(quads):
        q[i, : quad.q.size], lw[:, i, : quad.q.size] = quad.q, quad.lw
    L, beta = (np.array([getattr(quad, name) for quad in quads]) for name in ("L", "beta"))
    return _Quadrature(L, beta, quads[0].eta2, q, lw=lw)


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
        """The :func:`_scanned_rules` rule of this problem's beta."""
        return _scanned_rules(self, [self.beta])[0]

    @staticmethod
    def from_model(model: ValidatedModel) -> "SelfConsistencyProblem":
        if model.d != 1:
            raise ShapeMismatch("self-consistency solver is one-dimensional")
        return SelfConsistencyProblem(potential=model.potential, eta2=model.eta2, beta=model.beta)


def _rules(prob: SelfConsistencyProblem, Ls, betas, n_panels: int) -> list[_Quadrature]:
    """The ``n_panels``-panel rule on [-L_i, L_i], weighted for ``betas[i]``, per window L_i.

    The rules are the rows of one array per field, and one evaluation of V
    gives the energies of all of them.
    """
    half = (np.asarray(Ls, dtype=float) / n_panels)[:, None, None]
    q = ((2 * np.arange(n_panels // 2) + 1)[:, None] * half + half * _GL_NODES).reshape(len(Ls), -1)
    log_w = np.tile(np.log(half[:, 0] * _GL_WEIGHTS), n_panels // 2)
    x = np.concatenate([q.ravel(), -q.ravel()])
    e = (prob.potential.energy(x[:, None]) + 0.5 * prob.eta2 * x**2).reshape(2, *q.shape)
    return [_Quadrature(L, b, prob.eta2, *rule)
            for L, b, *rule in zip(Ls, betas, q, log_w, e.swapaxes(0, 1))]


def _rows(quads: Sequence[_Quadrature]) -> _Quadrature:
    """The rules ``quads``, of one node count, as the rows of a pass with an m axis each.

    A rule alone is its own row, as its (n,) nodes broadcast against (1, k)
    points, and needs no stack.  Several rules are the rows of
    :func:`_stacked`, as q of shape (rows, 1, n) and log-weights of shape
    (2, rows, 1, n).  Each row's sums are bitwise those of its rule alone.
    """
    if len(quads) == 1:
        return quads[0]
    st = _stacked(quads)
    return _Quadrature(st.L[:, None], st.beta[:, None], st.eta2, st.q[:, None],
                       lw=st.lw[:, :, None])


def _checked_moments(quads: Sequence[_Quadrature], checks) -> list[list[tuple]]:
    """Per rule ``quads[j]`` with ``checks[j]`` = (betas, ms): (R, Var) at ``ms`` per beta.

    Each (rule, beta) is one row of points m.  On an even rule (E+ == E-
    bitwise) a row holds the points m >= 0 of ``ms``, which are mirrored about
    m = 0, alone: c (-m) = -(c m) swaps the terms at +q and -q in every sum,
    so R(-m) = -R(m) and Var(-m) = Var(m) bitwise.  Rows of one length run in
    chunks of at most ``_CHUNK`` (m, node) pairs, one :meth:`_Quadrature.moments`
    pass on the :func:`_rows` of each chunk.
    """
    groups: dict[tuple, list] = {}
    for j, (quad, (betas, ms)) in enumerate(zip(quads, checks)):
        ms = np.atleast_1d(ms)
        even = np.array_equal(*quad.e)
        ms = ms[ms.size // 2:] if even else ms
        groups.setdefault((even, ms.size), []).extend((j, b, ms) for b in betas)
    out: list[list[tuple]] = [[] for _ in quads]
    for (even, k), group in groups.items():
        per = max(1, _CHUNK // (k * quads[0].q.size))
        for chunk in (group[s:s + per] for s in range(0, len(group), per)):
            rows = _rows([quads[j].at(b) for j, b, _ in chunk])
            _, mean, var = rows.moments(np.array([ms for _, _, ms in chunk]))
            if even:
                mean = np.concatenate([-mean[:, :0:-1], mean], axis=1)
                var = np.concatenate([var[:, :0:-1], var], axis=1)
            for (j, _, _), R, v in zip(chunk, mean, var):
                out[j].append((R, v))
    return out


def _ladder(prob: SelfConsistencyProblem, Ls, checks) -> list[tuple[_Quadrature, list]]:
    """Per window L_i, the first panel-ladder rule on [-L_i, L_i] that agrees with the rule before.

    ``checks[i]`` is (betas, ms): R and R' at the points ``ms``, mirrored
    about m = 0, must agree at every beta in ``betas``.  Each rung builds the
    rules of all windows still climbing at once (:func:`_rules`) and
    evaluates all their checks in a few chunked passes (:func:`_checked_moments`).
    Returns per window the rule, weighted for its first beta, and its last
    pass: (R, Var) at ``ms`` per beta.
    """
    out, prev = [None] * len(Ls), [None] * len(Ls)
    todo = list(range(len(Ls)))
    for n_panels in _PANEL_LADDER:
        quads = _rules(prob, [Ls[i] for i in todo], [checks[i][0][0] for i in todo], n_panels)
        climbing = []
        for i, quad, passes in zip(todo, quads, _checked_moments(quads, [checks[i] for i in todo])):
            cur = np.array([(mean, b * prob.eta2 * var)
                            for b, (mean, var) in zip(checks[i][0], passes)])
            if prev[i] is not None and np.max(np.abs(cur - prev[i])) <= 5e-12:
                out[i] = quad, passes
            else:
                prev[i] = cur
                climbing.append(i)
        if not climbing:
            return out
        todo = climbing
    L = Ls[todo[0]]
    raise QuadratureFailure(f"quadrature did not stabilize on [-{L}, {L}]")


def _scanned_rules(prob: SelfConsistencyProblem, betas) -> list[_Quadrature]:
    """Per beta, the :func:`_ladder` rule on its own window, checked on its m scan.

    One :func:`default_window` call gives every window, and each ladder rung
    scans the rules of all betas still climbing in a few chunked passes.
    Each rule keeps its row of the last pass as ``scan``, ``scan_mean`` and
    ``scan_var``: R(m) and Var_m(q) at the scan nodes.
    """
    Ls = default_window(prob.potential, prob.eta2, betas)
    scans = _scan(Ls)
    rules = _ladder(prob, Ls, [([b], scan) for b, scan in zip(betas, scans)])
    for (quad, [(mean, var)]), scan in zip(rules, scans):
        quad.scan, quad.scan_mean, quad.scan_var = scan, mean, var
    return [quad for quad, _ in rules]


def _newton(fdf, lo, hi, s_lo, width: float) -> np.ndarray:
    """The root of f in every bracket [lo_i, hi_i] at once, by safeguarded Newton.

    ``fdf(x, i)`` maps the points x of the brackets i to (f, f') there; f has
    sign ``s_lo_i`` just above lo_i and the opposite sign at hi_i.  As in
    rtsafe (Press et al., Numerical Recipes, 9.4), each iterate takes the
    Newton step when it lands strictly inside the bracket and is shorter than
    half the step before last, and bisects otherwise; f at the new point then
    shrinks the bracket.  A bracket is done when its width or its last step is
    at most ``width``, or when f vanishes.  Each bracket's iterates depend on
    its own f alone, so solving brackets together or one by one agrees bitwise.
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
        f, df = fdf(xt, todo)
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
    var, k3 = quad.central(m)
    # c**2 of a Python float is libm's pow, which is not always c * c in the last bit
    c2 = np.array([c**2 for c in np.atleast_1d(quad.c).tolist()])
    return quad.c * var - 1.0, c2 * k3


def _fixed_point_sets(quads: Sequence[_Quadrature]) -> list[tuple[FixedPoint, ...]]:
    """All solutions of R(m) = m on each scanned rule, every rule in one pass per stage.

    Per rule, f = R - m and f' = R' - 1 are known at its 81 scan nodes on
    [-L, L].  A node where f vanishes is a root, and the sign of f' there is
    the sign of f beside it, so a second root between it and the next node is
    bracketed too.  Where f keeps its nonzero sign over a scan interval while
    f' turns from towards zero to away from it, f has an extremum there that
    may cross zero (a fold).  The stages run on all rules together:

    1. brackets and folds are read off the (rule, 81) scan arrays;
    2. one :func:`_newton` run finds every fold's extremum, on f' with the
       exact f'' = R'' = c^2 kappa3, c = beta eta2, to 1e-8, and one
       quadrature pass gives f there; a fold where f has the other sign
       splits its interval into two brackets;
    3. one :func:`_newton` run solves every bracket, on f and f' = c Var - 1
       from one quadrature pass, to a bracket width or last step of 1e-14;
    4. the roots of each rule are deduplicated to 1e-8, and one quadrature
       pass gives R and R' at all of them.

    Each point is evaluated on its own rule, a row of :func:`_stacked`, so
    every result equals that of solving the rule alone, bitwise.
    """
    stack = _stacked(quads)
    ms = np.array([quad.scan for quad in quads])
    f = np.array([quad.scan_mean for quad in quads]) - ms
    df = stack.c[:, None] * np.array([quad.scan_var for quad in quads]) - 1.0
    above = np.where(f == 0.0, np.sign(df), np.sign(f))  # sign of f just above each node
    below = np.where(f == 0.0, -np.sign(df), np.sign(f))  # and just below it
    rows, i = np.nonzero(above[:, :-1] * below[:, 1:] < 0)
    lo, hi, s_lo = ms[rows, i], ms[rows, i + 1], above[rows, i]

    f0, f1, df0, df1 = f[:, :-1], f[:, 1:], df[:, :-1], df[:, 1:]
    fold, j = np.nonzero((f0 * f1 > 0) & (f0 * df0 < 0) & (df0 * df1 < 0))
    if j.size:
        m_ext = _newton(lambda x, k: _fold_slopes(stack.take(fold[k]), x), ms[fold, j],
                        ms[fold, j + 1], np.sign(df[fold, j]), _FOLD_WIDTH)
        f_ext = stack.take(fold).moments(m_ext)[1] - m_ext
        k = np.sign(f_ext) == -np.sign(f[fold, j])
        lo = np.concatenate([lo, ms[fold[k], j[k]], m_ext[k]])
        hi = np.concatenate([hi, m_ext[k], ms[fold[k], j[k] + 1]])
        s_lo = np.concatenate([s_lo, np.sign(f[fold[k], j[k]]), np.sign(f_ext[k])])
        rows = np.concatenate([rows, fold[k], fold[k]])

    def fdf(x, k):
        quad = stack.take(rows[k])
        _, mean_x, var_x = quad.moments(x)
        return mean_x - x, quad.c * var_x - 1.0

    bracketed = _newton(fdf, lo, hi, s_lo, _ROOT_WIDTH)
    at_node, node = np.nonzero(f == 0.0)
    candidates = zip(np.concatenate([at_node, rows]).tolist(),
                     np.concatenate([ms[at_node, node], bracketed]).tolist())
    roots: list[float] = []
    root_rows: list[int] = []
    for row, r in sorted(candidates):
        if not roots or row != root_rows[-1] or r - roots[-1] >= 1e-8:
            roots.append(r)
            root_rows.append(row)
    quad = stack.take(root_rows)
    _, mean, var = quad.moments(roots)
    points: list[list[FixedPoint]] = [[] for _ in quads]
    for row, r, R, rp in zip(root_rows, roots, mean, quad.c * var):
        points[row].append(
            FixedPoint(m_star=r, stability=_classify(rp), residual=float(abs(R - r)),
                       r_prime=float(rp))
        )
    return [tuple(pts) for pts in points]


def fixed_points(prob: SelfConsistencyProblem) -> list[FixedPoint]:
    """All solutions of R(m) = m, in increasing order: :func:`_fixed_point_sets` on one rule.

    The rule is the problem's own (its window, the :func:`_ladder` rule,
    checked on the 81-node m scan), so this is the one-beta case of
    :func:`bifurcation_diagram`.
    """
    return list(_fixed_point_sets([prob._quadrature])[0])


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
        var, _, cov = quad.at(b).central(0.0, True)
        out.append((b * quad.eta2 * var[0] - 1.0, quad.eta2 * (var[0] - b * cov[0])))
    return tuple(np.array(out).T)


def critical_beta(prob: SelfConsistencyProblem, beta_lo: float, beta_hi: float) -> Optional[float]:
    """Root of g(beta) = R'(0; beta) - 1 to width 1e-12; None when g keeps its sign.

    One rule serves the whole bracket: the window of ``beta_lo``, the wider
    one, with the panel count of :func:`_ladder` checked on R(0) and R'(0)
    at both ends.  The root is found by :func:`_newton` with the exact slope
    g'(beta) of :func:`_critical_gap`, reweighting that rule at each iterate.
    """
    if not 0.0 < beta_lo < beta_hi < math.inf:
        raise ShapeMismatch(f"need 0 < beta_lo < beta_hi < inf, got [{beta_lo}, {beta_hi}]")
    L = default_window(prob.potential, prob.eta2, beta_lo)
    [(quad, _)] = _ladder(prob, [L], [([beta_lo, beta_hi], 0.0)])
    (g_lo, g_hi), _ = _critical_gap(quad, [beta_lo, beta_hi])
    if g_lo == 0.0:
        return beta_lo
    if g_lo * g_hi > 0:
        return None
    root = _newton(lambda b, _: _critical_gap(quad, b), [beta_lo], [beta_hi], [np.sign(g_lo)],
                   _CRITICAL_WIDTH)
    return float(root[0])


def bifurcation_diagram(
    prob: SelfConsistencyProblem, beta_grid: Sequence[float]
) -> BifurcationDiagram:
    """Fixed-point branches over an increasing beta grid, all betas in one pass per stage.

    One :func:`default_window` call gives every beta its window; each
    :func:`_ladder` rung builds the rules of all betas still climbing from
    one evaluation of V, and scans them in a few chunked passes;
    :func:`_fixed_point_sets` then brackets, folds, solves and evaluates the
    roots of all betas together.  Every branch equals :func:`fixed_points`
    of the problem at that beta.

    The critical inverse temperature is refined by :func:`critical_beta` in
    the first grid interval where R'(0) - 1 changes sign and |R(0)| <= 1e-14
    at both ends: a pitchfork needs m = 0 to be a fixed point.  R(0) and
    R'(0) are read off each scan, whose node _SCAN_HALF is m = 0.  It is
    None when no interval qualifies, as for a potential that is not even.
    """
    betas = np.asarray(list(beta_grid), dtype=float)
    if betas.size < 1 or np.any(np.diff(betas) <= 0):
        raise ShapeMismatch("beta grid must be strictly increasing")
    bad = betas[~((0.0 < betas) & (betas < math.inf))]
    if bad.size:
        raise ShapeMismatch(f"beta must be finite and positive, got {float(bad[0])}")
    quads = _scanned_rules(prob, betas.tolist())
    branches = _fixed_point_sets(quads)
    r0 = np.array([quad.scan_mean[_SCAN_HALF] for quad in quads])
    slopes = np.array([quad.c * quad.scan_var[_SCAN_HALF] for quad in quads])
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

    def q_density(self, q):
        q = np.asarray(q, dtype=float)
        model = self.model
        v = model.potential.energy(q.reshape(-1, 1)).reshape(q.shape)
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
