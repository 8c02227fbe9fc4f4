import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from glekit import limits
from glekit.errors import DegenerateFriction, InsufficientParticles, NonSPDMatrix, ShapeMismatch
from glekit.model import Kind, MemorySpec, ModelSpec, Quadratic, ValidatedModel, validate
from glekit.quadratic import base_spectrum

from conftest import quadratic_gmv, quadratic_omv, quadratic_umv


# a study that each check test changes in one argument; every check runs before a step
STUDY = dict(epsilons=(0.5, 0.25), N=10, T=0.5, dt=0.005, seed=0, checkpoints=(0.5,))


def run_study(model, **changes):
    return limits.run_study(model, **{**STUDY, **changes})


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
        run_study(model)


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


@pytest.mark.parametrize(
    "epsilons",
    [(0.5, 0.0), (0.5, math.nan), (math.inf, 0.5), (1e300, 1e299), (1e-300, 1e-301)],
    ids=["zero", "nan", "inf", "eps^2 overflows", "A/eps^2 overflows"],
)
def test_scaling_study_rejects_an_epsilon_that_is_not_finite_and_positive(epsilons):
    # checked before any step, so no eps is simulated before the bad one is reached;
    # a nan would pass the strictly-decreasing check, as every comparison with it is false
    with pytest.raises(ShapeMismatch, match="finite and positive"):
        run_study(quadratic_gmv(), epsilons=epsilons)


def test_scaling_study_needs_two_particles():
    # one particle has no sample covariance: the study refuses before simulating
    with pytest.raises(InsufficientParticles):
        run_study(quadratic_gmv(), N=1)


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
    assert ref.kind is Kind.UNDERDAMPED and ref.memory is None


@pytest.mark.parametrize("model", [quadratic_umv(), quadratic_omv()],
                         ids=["underdamped", "overdamped"])
def test_underdamped_reference_needs_a_generalized_model(model):
    with pytest.raises(ShapeMismatch, match="generalized"):
        limits.underdamped_reference(model)


def _gmv_2d(memory):
    return validate(
        ModelSpec(d=2, beta=1.0, potential=Quadratic(1.0), eta2=1.0,
                  memory=memory, kind=Kind.GENERALIZED)
    )


def test_scaling_study_rejects_two_dimensions():
    # the moment errors compare (q, p) against a d = 1 reference law
    with pytest.raises(ShapeMismatch):
        run_study(_gmv_2d(MemorySpec.diagonal([1.0], [1.0], d=2)))


def test_underdamped_reference_needs_an_isotropic_friction():
    iso = limits.underdamped_reference(_gmv_2d(MemorySpec.diagonal([1.0], [1.0], d=2)))
    assert iso.gamma == pytest.approx(1.0)
    # gamma = diag(1, 4) has no scalar underdamped counterpart
    aniso = _gmv_2d(MemorySpec(lam=np.diag([1.0, 2.0]), A=np.eye(2)))
    with pytest.raises(ShapeMismatch):
        limits.underdamped_reference(aniso)


def test_each_eps_of_a_study_evaluates_one_force_per_step(monkeypatch):
    # each eps steps a fresh ensemble: one start force, then one end force per step
    calls = []
    grad = ValidatedModel.grad_potential

    def counted(self, q):
        calls.append(self)
        return grad(self, q)

    monkeypatch.setattr(ValidatedModel, "grad_potential", counted)
    res = run_study(quadratic_gmv())
    steps = res.rows[0].steps
    assert steps == 100
    assert sorted(Counter(map(id, calls)).values()) == [steps + 1] * len(STUDY["epsilons"])


def test_run_study_smoke_and_determinism():
    study = dict(epsilons=(0.5, 0.25), N=400, T=1.0, dt=2e-3, seed=3, checkpoints=(0.5, 1.0))
    res1 = limits.run_study(quadratic_gmv(), **study)
    res2 = limits.run_study(quadratic_gmv(), **study)
    assert res1.gamma == pytest.approx(1.0)
    assert [r.epsilon for r in res1.rows] == [0.5, 0.25]
    for a, b in zip(res1.rows, res2.rows):
        assert a.error == b.error and a.se == b.se and a.steps == b.steps
    # every eps runs at the one dt
    assert [r.steps for r in res1.rows] == [500, 500]
    assert all(np.isfinite(r.error) and r.se > 0 for r in res1.rows)


def test_run_study_rejects_an_empty_checkpoint_list():
    # no checkpoint means no moment error: no row reporting an error of -1
    with pytest.raises(ShapeMismatch, match="checkpoints"):
        run_study(quadratic_gmv(), T=0.01, checkpoints=())


@pytest.mark.parametrize(
    "T, checkpoints", [(1.0, (0.25, 1.0)), (1.1, (0.2, 1.0)), (1.0, (0.2, 0.9999))],
    ids=["checkpoint-between-steps", "horizon-between-steps", "checkpoint-near-a-step"],
)
def test_run_study_rejects_times_off_the_step_grid(T, checkpoints):
    # at dt = 0.2, step 1 is t = 0.2: its state is not the law at t = 0.25, and
    # T = 1.1 would run 6 steps, to t = 1.2
    with pytest.raises(ShapeMismatch, match="whole number of steps"):
        run_study(quadratic_gmv(), T=T, dt=0.2, checkpoints=checkpoints)


@pytest.mark.parametrize("scale", [0.0, 0.01], ids=["all-tied", "perturbed"])
def test_moment_error_is_the_first_maximum_across_checkpoints(scale):
    # the reference: a running strict maximum over the entries in checkpoint order
    model_ref = limits.underdamped_reference(quadratic_gmv())
    B, K, D = limits.split_BK(model_ref)
    x0 = np.array([limits.Q0, limits.P0])
    rng = np.random.default_rng(0)
    laws = {t: limits.meanfield_green(B, K, D, t, x0) for t in (0.5, 1.0)}
    moments = {}
    for t, law in laws.items():
        bump = scale * rng.standard_normal(2)
        moments[t] = (law.mean + bump, law.cov + np.diag(bump**2), 50)
    worst_err, worst_se = -1.0, 0.0
    for t, (mean, cov, N) in moments.items():
        law = laws[t]
        errs = np.concatenate([np.abs(mean - law.mean), np.abs(cov - law.cov).ravel()])
        ses = np.concatenate([np.sqrt(np.diag(cov) / N), limits.covariance_se(cov, N).ravel()])
        for e, s in zip(errs, ses):
            if e > worst_err:
                worst_err, worst_se = float(e), float(s)
    assert limits._moment_errors(laws, moments) == (worst_err, worst_se)
