import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from glekit import limits
from glekit.errors import DegenerateFriction, InsufficientParticles, NonSPDMatrix
from glekit.quadratic import base_spectrum

from conftest import quadratic_gmv, quadratic_umv


def matched_distance(a, b):
    """Max pairwise distance under the optimal matching of two multisets."""
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def test_effective_gamma_scalar():
    assert limits.effective_gamma([[1.0]], [[1.0]]) == pytest.approx(1.0)


def test_effective_gamma_two_modes():
    g = limits.effective_gamma(np.array([[1.0], [2.0]]), np.diag([1.0, 4.0]))
    assert g == pytest.approx(2.0)


def test_effective_gamma_zero_coupling_is_degenerate():
    assert limits.effective_gamma([[0.0]], [[1.0]]) == 0.0
    model = quadratic_gmv(lambdas=(0.0,), alphas=(1.0,))
    with pytest.raises(DegenerateFriction):
        limits.ScalingStudy(base_model=model, epsilons=(0.5, 0.25), N=10, T=0.5)


def test_effective_gamma_rejects_non_spd():
    with pytest.raises(NonSPDMatrix):
        limits.effective_gamma([[1.0]], [[-1.0]])


def test_scaled_spec_identity_and_scaling():
    model = quadratic_gmv()
    same = limits.scaled_spec(model, 1.0)
    assert np.array_equal(same.memory.lam, model.memory.lam)
    assert np.array_equal(same.memory.A, model.memory.A)
    half = limits.scaled_spec(model, 0.5)
    assert half.memory.lam[0, 0] == pytest.approx(2.0)
    assert half.memory.A[0, 0] == pytest.approx(4.0)


@settings(deadline=None, max_examples=30)
@given(
    lam=st.floats(min_value=-3.0, max_value=3.0),
    alpha=st.floats(min_value=0.2, max_value=4.0),
    eps=st.floats(min_value=0.05, max_value=1.0),
)
def test_effective_gamma_is_scaling_invariant(lam, alpha, eps):
    g0 = limits.effective_gamma([[lam]], [[alpha]])
    g1 = limits.effective_gamma([[lam / eps]], [[alpha / eps**2]])
    assert abs(g0 - g1) <= 1e-14 * max(1.0, abs(g0))


def test_scaling_study_needs_two_particles():
    # one particle has no sample covariance: the study refuses before simulating
    with pytest.raises(InsufficientParticles):
        limits.ScalingStudy(base_model=quadratic_gmv(), epsilons=(0.5, 0.25), N=1, T=0.5)


def test_slow_eigenvalues_approach_underdamped_spectrum():
    model = quadratic_gmv(omega2=1.0, eta2=1.0, lambdas=(1.0,), alphas=(1.0,))
    gamma = limits.effective_gamma(model.memory.lam, model.memory.A)
    ref = base_spectrum(quadratic_umv(omega2=1.0, eta2=1.0, gamma=gamma))
    slow = limits.slow_eigenvalues(model, 0.05)
    assert matched_distance(slow, ref) <= 1e-2
    # and the fast pair diverges like -alpha/eps^2
    full = base_spectrum(limits.scaled_spec(model, 0.05))
    fast = sorted(full, key=abs)[-2:]
    for nu in fast:
        assert nu.real == pytest.approx(-1.0 / 0.05**2, rel=0.05)


def test_slow_eigenvalue_error_shrinks_linearly():
    model = quadratic_gmv()
    gamma = limits.effective_gamma(model.memory.lam, model.memory.A)
    ref = base_spectrum(quadratic_umv(omega2=1.0, eta2=1.0, gamma=gamma))
    errs = [matched_distance(limits.slow_eigenvalues(model, eps), ref) for eps in (0.2, 0.1, 0.05)]
    assert errs[0] > errs[1] > errs[2]
    # consistent with a first-order rate: halving eps about halves the error
    assert errs[2] <= errs[0] / 3.0


def test_underdamped_reference_carries_effective_gamma():
    model = quadratic_gmv(lambdas=(1.0, 2.0), alphas=(1.0, 4.0))
    ref = limits.underdamped_reference(model)
    assert ref.gamma == pytest.approx(2.0)
    assert ref.omega2 == model.omega2


def test_run_study_smoke_and_determinism():
    model = quadratic_gmv()
    study = limits.ScalingStudy(
        base_model=model,
        epsilons=(0.5, 0.25),
        N=400,
        T=1.0,
        base_dt=2e-3,
        seed=3,
        checkpoints=(0.5, 1.0),
    )
    res1 = limits.run_study(study)
    res2 = limits.run_study(study)
    assert res1.gamma == pytest.approx(1.0)
    assert [r.epsilon for r in res1.rows] == [0.5, 0.25]
    for a, b in zip(res1.rows, res2.rows):
        assert a.error == b.error and a.se == b.se and a.steps == b.steps
    # every eps runs at base_dt
    assert [r.steps for r in res1.rows] == [500, 500]
    assert all(np.isfinite(r.error) and r.se > 0 for r in res1.rows)
