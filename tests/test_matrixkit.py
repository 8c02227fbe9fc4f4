from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from glekit import matrixkit as mk
from glekit import particles, thermo
from glekit.config import load_config
from glekit.errors import MatrixOverflow, NonSPDMatrix
from glekit.model import Kind, Quadratic

from conftest import quadratic_gmv
from glekit.quadratic import assemble, split_BK

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.conf"))
# the 1-norm bounds at which expm switches Pade degree (3, 5, 7, 9) or starts scaling (13)
PADE_THETAS = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
               2.097847961257068, 5.371920351148152)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def gram_quadrature_oracle(B, D, t, tol=1e-10):
    """Composite Gauss quadrature of e^{sB} D e^{sB^T}, refined to self-consistency."""
    xs, ws = leggauss(12)
    prev = None
    for n_panels in (8, 16, 32, 64, 128):
        total = np.zeros_like(B, dtype=float)
        for k in range(n_panels):
            a, b = t * k / n_panels, t * (k + 1) / n_panels
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            for x, w in zip(xs, ws):
                E = scipy.linalg.expm((mid + half * x) * B)
                total += (w * half) * (E @ D @ E.T)
        if prev is not None and np.max(np.abs(total - prev)) < tol:
            return total
        prev = total
    return total


def cubic_roots_oracle(b, c, d, lo=-10.0, hi=10.0):
    """Roots of x^3 + b x^2 + c x + d via bisection on the real root + deflation."""

    def p(x):
        return ((x + b) * x + c) * x + d

    a_, b_ = lo, hi
    assert p(a_) * p(b_) < 0
    for _ in range(200):
        mid = 0.5 * (a_ + b_)
        if p(a_) * p(mid) <= 0:
            b_ = mid
        else:
            a_ = mid
    r = 0.5 * (a_ + b_)
    for _ in range(5):  # Newton polish
        dp = (3 * r + 2 * b) * r + c
        r -= p(r) / dp
    # synthetic division by (x - r): x^2 + (b + r) x + (c + r (b + r))
    q1 = b + r
    q0 = c + r * q1
    disc = np.sqrt(complex(q1 * q1 - 4 * q0))
    return sorted([complex(r), (-q1 + disc) / 2, (-q1 - disc) / 2], key=lambda z: (z.real, z.imag))


# ---------------------------------------------------------------------------
# expm
# ---------------------------------------------------------------------------


def test_expm_zero_matrix():
    assert np.array_equal(mk.expm(np.zeros((3, 3))), np.eye(3))


def test_expm_nilpotent():
    E = mk.expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(E, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


def test_expm_against_eigendecomposition_oracle():
    M = np.diag([-1.0, -2.0])
    E = mk.expm(M)
    w, V = np.linalg.eig(M)
    oracle = V @ np.diag(np.exp(w)) @ np.linalg.inv(V)
    assert np.max(np.abs(E - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_expm_multiplicative_on_commuting_matrices(seed):
    # polynomials in one random matrix commute
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (3, 3))
    M = 0.3 * A + 0.1 * A @ A
    N = -0.5 * A + 0.2 * A @ A
    left = mk.expm(M + N)
    right = mk.expm(M) @ mk.expm(N)
    assert np.max(np.abs(left - right)) <= 1e-10 * max(1.0, np.max(np.abs(left)))


def _rel_err_vs_scipy(M) -> float:
    ref = scipy.linalg.expm(M)
    return float(np.max(np.abs(mk.expm(M) - ref)) / np.max(np.abs(ref)))


def test_expm_matches_scipy_across_the_degree_switches(rng):
    # 1-norms just below and just above every theta, then up to 60 (2^3 scaling or more)
    norms = [theta * f for theta in PADE_THETAS for f in (1.0 - 1e-6, 1.0 + 1e-6)]
    norms += [10.0, 25.0, 60.0]
    worst = 0.0
    for n in range(1, 9):
        for norm in norms:
            for _ in range(3):
                A = rng.standard_normal((n, n))
                worst = max(worst, _rel_err_vs_scipy(A * (norm / np.linalg.norm(A, 1))))
    assert worst <= 1e-11


def test_expm_matches_scipy_on_the_matrices_glekit_builds(monkeypatch):
    # record every matrix the stepper, the Gram integral and the GENERIC law flow exponentiate
    models = [load_config(path).model() for path in CONFIGS]
    quadratic = [m for m in models if isinstance(m.potential, Quadratic)]
    seen, real = [], mk.expm
    monkeypatch.setattr(mk, "expm", lambda M: seen.append(np.array(M, dtype=float)) or real(M))
    for model in models:
        for dt in (1e-3, 1e-2, 0.1):
            particles.make_stepper(model, dt)
    for model in quadratic:
        B, K, D = split_BK(model)
        for t in (0.5, 1.0, 2.0, 50.0):
            mk.gram_integral(B + K, 2.0 * D, t)
    for model in (m for m in quadratic if m.kind is Kind.GENERALIZED):
        rho = thermo.GaussianEnsembleLaw(law=thermo.stationary_law(model), model=model)
        for dt in (1e-3, 1e-2, 0.1):
            thermo.evolve_coupled(thermo.GenericState(rho=rho, e=0.0), model, dt, dt)
    monkeypatch.undo()
    assert seen
    assert max(_rel_err_vs_scipy(M) for M in seen) <= 1e-13


def test_expm_of_zero_is_the_identity_bitwise():
    for n in range(1, 9):
        assert np.array_equal(mk.expm(np.zeros((n, n))), np.eye(n))


def test_expm_reports_an_overflowing_norm():
    with pytest.raises(MatrixOverflow):
        mk.expm(np.full((2, 2), 1e308))


# ---------------------------------------------------------------------------
# gram_integral
# ---------------------------------------------------------------------------


def test_gram_integral_constant_integrand():
    G = mk.gram_integral(np.zeros((2, 2)), np.eye(2), 2.0)
    assert np.allclose(G, 2.0 * np.eye(2), atol=1e-13)


def test_gram_integral_scalar():
    for t in (0.1, 1.0, 5.0, 50.0):
        G = mk.gram_integral(np.array([[-1.0]]), np.array([[1.0]]), t)
        assert G[0, 0] == pytest.approx((1 - np.exp(-2 * t)) / 2, rel=1e-12)


def test_gram_integral_vs_quadrature_oracle(rng):
    B = rng.uniform(-1.0, 1.0, (3, 3)) - 2.0 * np.eye(3)
    R = rng.uniform(-1.0, 1.0, (3, 3))
    D = R @ R.T
    G = mk.gram_integral(B, D, 1.0)
    oracle = gram_quadrature_oracle(B, D, 1.0)
    assert np.max(np.abs(G - oracle)) <= 1e-8


def test_gram_integral_time_derivative(rng):
    B = rng.uniform(-1.0, 1.0, (3, 3)) - 1.5 * np.eye(3)
    R = rng.uniform(-1.0, 1.0, (3, 3))
    D = R @ R.T
    t, h = 0.7, 1e-5
    fd = (mk.gram_integral(B, D, t + h) - mk.gram_integral(B, D, t - h)) / (2 * h)
    E = mk.expm(t * B)
    exact = E @ D @ E.T
    assert np.max(np.abs(fd - exact)) <= 1e-6 * max(1.0, np.max(np.abs(exact)))


def test_gram_integral_result_is_psd(rng):
    for _ in range(10):
        B = rng.uniform(-1.0, 1.0, (4, 4))
        R = rng.uniform(-1.0, 1.0, (4, 2))
        D = R @ R.T
        G = mk.gram_integral(B, D, 0.8)
        assert np.max(np.abs(G - G.T)) <= 1e-10 * max(1.0, np.max(np.abs(G)))
        assert np.linalg.eigvalsh(G)[0] >= -1e-10 * max(1.0, np.max(np.abs(G)))


def test_gram_integral_rejects_asymmetric_D():
    with pytest.raises(NonSPDMatrix):
        mk.gram_integral(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]), 1.0)


# ---------------------------------------------------------------------------
# eig
# ---------------------------------------------------------------------------


def test_eig_diagonal_sorted():
    w = mk.eig(np.diag([-1.0, -2.0]))
    assert np.allclose(w, [-2.0, -1.0])


def test_eig_rotation_generator():
    w = mk.eig(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(w, [-1j, 1j], atol=1e-14)


def test_eig_companion_vs_root_finder_oracle():
    # companion matrix of x^3 + x^2 + 2x + 1
    b, c, d = 1.0, 2.0, 1.0
    companion = np.array([[0.0, 0.0, -d], [1.0, 0.0, -c], [0.0, 1.0, -b]])
    w = mk.eig(companion)
    oracle = cubic_roots_oracle(b, c, d)
    for lam, mu in zip(w, oracle):
        assert abs(lam - mu) <= 1e-10


# ---------------------------------------------------------------------------
# kalman_rank
# ---------------------------------------------------------------------------


def test_kalman_kinetic_pair():
    rank, hypo = mk.kalman_rank(np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([0.0, 1.0]))
    assert (rank, hypo) == (2, True)


def test_kalman_zero_noise():
    rank, hypo = mk.kalman_rank(np.random.default_rng(0).normal(size=(3, 3)), np.zeros((3, 3)))
    assert (rank, hypo) == (0, False)


def test_kalman_memory_block_matches_gram_nonsingularity():
    model = quadratic_gmv(eta2=0.0)
    dd = assemble(model, 1)
    rank, hypo = mk.kalman_rank(dd.B, dd.D)
    assert (rank, hypo) == (3, True)
    Dt = mk.gram_integral(dd.B, dd.D, 1.0)
    assert np.linalg.eigvalsh(Dt)[0] > 0


def _random_pair(rng):
    n = int(rng.integers(2, 6))
    B = rng.uniform(-1.0, 1.0, (n, n))
    k = int(rng.integers(0, n + 1))
    if k == 0:
        D = np.zeros((n, n))
    else:
        R = rng.uniform(-1.0, 1.0, (n, k))
        D = R @ R.T
    return B, D


def test_kalman_agrees_with_gram_nonsingularity_on_random_pairs(rng):
    # the two hypoellipticity criteria are equivalent; check 50 random pairs
    for _ in range(50):
        B, D = _random_pair(rng)
        n = B.shape[0]
        _, hypo = mk.kalman_rank(B, D)
        Dt = mk.gram_integral(B, D, 1.0)
        w = np.linalg.eigvalsh(Dt)
        nonsingular = w[0] > 1e-10 * max(w[-1], 1e-30)
        assert hypo == nonsingular, f"disagreement for B={B}, D={D}"


def test_expm_overflow_is_reported():
    from glekit.errors import MatrixOverflow

    with pytest.raises(MatrixOverflow):
        mk.expm(np.array([[2000.0]]))
