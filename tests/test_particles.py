import copy
import math
import pickle
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from glekit import quadratic as qa
from glekit.errors import InsufficientParticles, NonFiniteState, ShapeMismatch
from glekit.model import (
    DoubleWell, Kind, MemorySpec, ModelSpec, Quadratic, ValidatedModel, validate,
)
from glekit.particles import (
    BlockLaw,
    InitPoint,
    InitProduct,
    ParticleEnsemble,
    covariance_se,
    empirical_moments,
    init_ensemble,
    make_stepper,
    simulate,
)

from conftest import doublewell_gmv, quadratic_gmv, quadratic_omv, quadratic_umv


def test_point_init():
    model = quadratic_gmv()
    ens = init_ensemble(model, 3, seed=0, init=InitPoint([1.0, 0.0, 0.0]))
    assert np.all(ens.q == 1.0)
    assert ens.time == 0.0


@pytest.mark.parametrize(
    "model, init",
    [
        (quadratic_omv(), InitProduct(q=BlockLaw(var=-1.0))),
        (quadratic_omv(), InitProduct(q=BlockLaw(var=math.nan))),
        (quadratic_omv(), InitProduct(q=BlockLaw(var=math.inf))),
        (quadratic_omv(), InitProduct(q=BlockLaw(point=math.nan))),
        (quadratic_omv(), InitProduct(q=BlockLaw(point=-math.inf))),
        (quadratic_omv(), InitProduct(q=BlockLaw(mean=math.inf))),
        (quadratic_umv(), InitProduct(q=BlockLaw(), p=BlockLaw(var=math.nan))),
        (quadratic_gmv(), InitProduct(q=BlockLaw(), p=BlockLaw(), z=BlockLaw(mean=math.nan))),
        (quadratic_gmv(), InitPoint([1.0, math.inf, 0.0])),
    ],
    ids=["var-negative", "var-nan", "var-inf", "point-nan", "point-inf", "mean-inf",
         "p-var-nan", "z-mean-nan", "x0-inf"],
)
def test_a_non_finite_or_negative_initial_law_is_a_shape_mismatch(model, init):
    # caught at init, not as a bare math domain error or as "non-finite at t=dt"
    with pytest.raises(ShapeMismatch):
        init_ensemble(model, 4, seed=0, init=init)


def test_init_is_deterministic_in_seed():
    model = quadratic_gmv()
    init = InitProduct(q=BlockLaw(var=1.0), p=BlockLaw(var=1.0), z=BlockLaw(var=1.0))
    a = init_ensemble(model, 100, seed=9, init=init)
    b = init_ensemble(model, 100, seed=9, init=init)
    assert np.array_equal(a.q, b.q) and np.array_equal(a.p, b.p) and np.array_equal(a.z, b.z)


@pytest.mark.parametrize(
    "d, shape",
    [(1, (5,)), (2, (3, 5)), (1, (1, 5, 1)), (1, (0, 5))],
    ids=["1-D", "rows-not-a-multiple-of-d", "3-D", "no-rows"],
)
def test_an_ensemble_state_of_the_wrong_shape_is_a_shape_mismatch(d, shape):
    # X is (k*d, N); a state of another shape would step silently or record nonsense, so it
    # is refused when an ensemble is built on it and when it replaces X before a step
    with pytest.raises(ShapeMismatch):
        ParticleEnsemble(d=d, X=np.zeros(shape), time=0.0, rng=sfc64(0))
    ens = init_ensemble(quadratic_omv(d=d), 5, seed=0, init=INIT_PZ)
    ens.X = np.zeros(shape)
    with pytest.raises(ShapeMismatch):
        make_stepper(quadratic_omv(d=d), 0.01).step(ens)


def test_series_is_deterministic_in_seed():
    model = quadratic_gmv()
    kw = dict(N=128, T=0.5, dt=1e-2, seed=11, init=InitPoint([1.0, 0.0, 0.0]), record_every=5)
    s1 = simulate(model, **kw)
    s2 = simulate(model, **kw)
    assert np.array_equal(s1.mean_q, s2.mean_q)
    assert np.array_equal(s1.var_z, s2.var_z)


def test_harmonic_oscillator_period_with_noise_off():
    # beta = inf kills the noise; lambda = 0 decouples z: plain oscillation
    model = validate(
        ModelSpec(
            d=1,
            beta=math.inf,
            potential=Quadratic(1.0),
            eta2=0.0,
            memory=MemorySpec.diagonal([0.0], [1.0]),
            kind=Kind.GENERALIZED,
        )
    )
    ens = init_ensemble(model, 1, seed=0, init=InitPoint([1.0, 0.0, 0.0]))
    dt = 1e-4
    stepper = make_stepper(model, dt)
    F = None
    for _ in range(int(round(2 * math.pi / dt))):
        F = stepper.step(ens, F)
    assert abs(ens.q[0, 0] - 1.0) <= 1e-3


def test_deterministic_self_convergence_is_at_least_first_order():
    model = quadratic_gmv(beta=math.inf)
    x0 = [0.7, -0.1, 0.4]

    def final_q(dt, T=1.0):
        ens = init_ensemble(model, 1, seed=0, init=InitPoint(x0))
        stepper = make_stepper(model, dt)
        F = None
        for _ in range(int(round(T / dt))):
            F = stepper.step(ens, F)
        return ens.q[0, 0]

    ref = final_q(1.0 / 4096)
    err_coarse = abs(final_q(1.0 / 16) - ref)
    err_fine = abs(final_q(1.0 / 32) - ref)
    assert err_fine <= err_coarse / 1.8


def test_curie_weiss_force_vanishes_at_the_mean():
    model = quadratic_gmv(omega2=1.0, eta2=3.0)
    stepper = make_stepper(model, 1e-3)
    q = np.full((4, 1), 0.8)
    m1 = q.mean(axis=0)
    force = stepper.force(q, m1)
    assert np.allclose(force, -1.0 * q)  # interaction contributes nothing at q = m1


def test_simulate_tracks_gaussian_law_at_checkpoints():
    model = quadratic_gmv()
    N = 4000
    series = simulate(
        model, N=N, T=1.0, dt=1e-3, seed=3, init=InitPoint([1.0, 0.0, 0.0]), record_every=500
    )
    for i, t in enumerate(series.times):
        if t == 0.0:
            continue
        law = qa.meanfield_law(model, float(t), [1.0, 0.0, 0.0])
        assert abs(series.mean_q[i, 0] - law.mean[0]) <= 4.0 * series.se_mean_q[i, 0]
        assert abs(series.mean_p[i, 0] - law.mean[1]) <= 4.0 * series.se_mean_p[i, 0]
        var_se = law.cov[0, 0] * math.sqrt(2.0 / (N - 1)) + 1e-12
        assert abs(series.var_q[i, 0] - law.cov[0, 0]) <= 4.0 * var_se


def test_long_run_momentum_variance_single_particle():
    # one free particle: time average of p^2 relaxes to 1/beta
    model = quadratic_gmv(eta2=0.0, beta=2.0)
    series = simulate(
        model, N=1, T=400.0, dt=5e-3, seed=21, init=InitPoint([0.0, 0.0, 0.0]), record_every=20
    )
    p = series.mean_p[series.times > 20.0, 0]
    est = float(np.mean(p**2))
    batches = np.array_split(p**2, 20)
    se = float(np.std([np.mean(b) for b in batches], ddof=1) / math.sqrt(20))
    assert abs(est - 0.5) <= 4.0 * se


def test_record_every_full_span_gives_two_rows():
    model = quadratic_omv()
    series = simulate(
        model, N=16, T=0.2, dt=1e-2, seed=1, init=InitProduct(q=BlockLaw(var=1.0)), record_every=20
    )
    assert len(series.times) == 2
    assert series.times[0] == 0.0
    assert series.times[-1] == pytest.approx(0.2)


def test_exchangeability_of_observables():
    model = quadratic_gmv(beta=math.inf)
    init = InitProduct(q=BlockLaw(var=1.0), p=BlockLaw(var=1.0), z=BlockLaw(var=1.0))
    ens = init_ensemble(model, 64, seed=5, init=init)
    perm = np.random.default_rng(0).permutation(64)
    ens_perm = copy.deepcopy(ens)
    ens_perm.X = ens_perm.X[:, perm]
    stepper = make_stepper(model, 1e-2)
    for _ in range(100):
        stepper.step(ens)
        stepper.step(ens_perm)
    m1, c1, _ = empirical_moments(ens)
    m2, c2, _ = empirical_moments(ens_perm)
    assert np.allclose(m1, m2, atol=1e-12)
    assert np.allclose(c1, c2, atol=1e-12)


@pytest.mark.parametrize("kind", ["underdamped", "generalized"])
def test_force_reuse_matches_recomputing_the_force_every_step(kind):
    # a step started from the force the last step returned is the step that computes it
    # afresh, across a switch of model and in-place edits of q, where the caller passes None
    if kind == "underdamped":
        model, other = quadratic_umv(gamma=1.5), quadratic_umv(eta2=3.0, gamma=1.5)
        init = InitProduct(q=BlockLaw(var=1.0), p=BlockLaw(var=1.0))
    else:
        model = quadratic_gmv(lambdas=(1.0, 2.0), alphas=(1.0, 3.0))
        other = quadratic_gmv(eta2=3.0, lambdas=(1.0, 2.0), alphas=(1.0, 3.0))
        init = InitProduct(q=BlockLaw(var=1.0), p=BlockLaw(var=1.0), z=BlockLaw(var=1.0))
    stepper, other_stepper = make_stepper(model, 1e-2), make_stepper(other, 1e-2)
    a = init_ensemble(model, 64, seed=5, init=init)
    b = init_ensemble(model, 64, seed=6, init=init)
    ref_a, ref_b = copy.deepcopy(a), copy.deepcopy(b)
    forces = [None, None]
    for k in range(60):
        st = other_stepper if k == 20 else stepper
        if k in (20, 21):
            forces = [None, None]  # the last force is of the other model
        for i, (ens, ref) in enumerate(((a, ref_a), (b, ref_b))):
            forces[i] = st.step(ens, forces[i])
            st.step(ref)  # the reference recomputes the start force
        if k % 7 == 3:
            b.q[:] *= 0.5
            ref_b.q[:] *= 0.5
            forces[1] = None  # the last force is of the state before the edit
    for ens, ref in ((a, ref_a), (b, ref_b)):
        assert np.array_equal(ens.q, ref.q) and np.array_equal(ens.p, ref.p)
        if kind == "generalized":
            assert np.array_equal(ens.z, ref.z)


@pytest.mark.parametrize("kind", ["underdamped", "generalized"])
@pytest.mark.parametrize("N", [64, 40], ids=["same-N", "other-N"])
def test_a_replaced_state_steps_as_a_fresh_ensemble_on_it(kind, N):
    # N is X's column count and the work arrays follow X's shape, so a replaced X, started
    # from its own force, steps as an ensemble built on it with the same generator state does
    model = quadratic_umv() if kind == "underdamped" else quadratic_gmv()
    stepper = make_stepper(model, 1e-2)
    ens = init_ensemble(model, 64, seed=5, init=INIT_PZ)
    F = None
    for _ in range(3):
        F = stepper.step(ens, F)
    fresh = init_ensemble(model, N, seed=6, init=INIT_PZ)
    fresh.time, fresh.rng = ens.time, copy.deepcopy(ens.rng)
    ens.X = fresh.X.copy()
    F = G = None
    for _ in range(2):
        F = stepper.step(ens, F)
        G = stepper.step(fresh, G)
    assert np.array_equal(ens.X, fresh.X) and ens.N == N


@pytest.mark.parametrize("kind", ["underdamped", "generalized"])
def test_a_step_after_an_in_place_edit_through_a_view_steps_the_edited_state(kind):
    # a view writes into X without the ensemble seeing it, so the next step must start from
    # the force of the edited state, as a fresh ensemble on that state does
    model = quadratic_umv() if kind == "underdamped" else quadratic_gmv()
    stepper = make_stepper(model, 1e-2)
    ens = init_ensemble(model, 64, seed=5, init=INIT_PZ)
    stepper.step(ens)
    ens.q[:] += 1.0
    fresh = ParticleEnsemble(d=ens.d, X=ens.X.copy(), time=ens.time, rng=copy.deepcopy(ens.rng))
    stepper.step(ens)
    stepper.step(fresh)
    assert np.array_equal(ens.X, fresh.X) and ens.time == fresh.time


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
@pytest.mark.parametrize("model", [quadratic_omv(), quadratic_umv(), quadratic_gmv()],
                         ids=["overdamped", "underdamped", "generalized"])
def test_a_state_that_is_not_float64_is_a_shape_mismatch(model, dtype):
    # a float32 state stepped in single precision or failed half-way with an untyped error,
    # and an int one failed in a cast; both are refused before anything is touched
    ens = init_ensemble(model, 16, seed=5, init=INIT_PZ)
    ens.X = ens.X.astype(dtype)
    X, rng = ens.X.copy(), copy.deepcopy(ens.rng)
    with pytest.raises(ShapeMismatch, match="float64"):
        make_stepper(model, 1e-2).step(ens)
    assert ens._work is None and ens.time == 0.0 and ens.X.dtype == dtype
    assert np.array_equal(ens.X, X)
    assert np.array_equal(ens.rng.standard_normal(4), rng.standard_normal(4))


@pytest.mark.parametrize("model", [quadratic_omv(), quadratic_umv(), quadratic_gmv()],
                         ids=["overdamped", "underdamped", "generalized"])
def test_a_run_evaluates_one_force_per_step(monkeypatch, model):
    # a kinetic step's end force starts the next step, so a kinetic run of k steps pays one
    # start force and k end forces; an overdamped run pays one force per step
    calls = []
    grad = ValidatedModel.grad_potential

    def counted(self, q):
        calls.append(self)
        return grad(self, q)

    monkeypatch.setattr(ValidatedModel, "grad_potential", counted)
    simulate(model, N=16, T=0.25, dt=0.01, seed=1, init=INIT_PZ, record_every=5)
    assert len(calls) == 25 + (model.kind is not Kind.OVERDAMPED)


MISMATCHED_KINDS = {
    "underdamped-on-overdamped": (quadratic_umv(), quadratic_omv()),
    "generalized-on-underdamped": (quadratic_gmv(), quadratic_umv()),
    "underdamped-on-generalized": (quadratic_umv(), quadratic_gmv()),
    "overdamped-on-generalized": (quadratic_omv(), quadratic_gmv()),
    # the same four rows as a generalized d = 1, m = 2 state, but d = 2
    "underdamped-d2-on-generalized-d1": (
        validate(ModelSpec(d=2, beta=1.0, potential=Quadratic(1.0), eta2=1.0,
                           gamma=1.0, kind=Kind.UNDERDAMPED)),
        quadratic_gmv(lambdas=(1.0, 2.0), alphas=(1.0, 3.0))),
}


@pytest.mark.parametrize("model, state_model", MISMATCHED_KINDS.values(),
                         ids=MISMATCHED_KINDS.keys())
def test_a_step_of_another_kind_is_a_shape_mismatch(model, state_model):
    # a stepper steps only a state of its own kind; the check comes before the work arrays
    ens = init_ensemble(state_model, 16, seed=5, init=INIT_PZ)
    X, rng = ens.X.copy(), copy.deepcopy(ens.rng)
    with pytest.raises(ShapeMismatch):
        make_stepper(model, 1e-2).step(ens)
    assert ens._work is None and ens.time == 0.0 and np.array_equal(ens.X, X)
    assert np.array_equal(ens.rng.standard_normal(4), rng.standard_normal(4))


def test_empirical_moments_two_particles():
    model = quadratic_omv()
    ens = init_ensemble(model, 2, seed=0, init=InitProduct(q=BlockLaw(point=0.0)))
    ens.X = np.array([[1.0, -1.0]])
    mean, cov, se = empirical_moments(ens)
    assert mean[0] == 0.0
    assert cov[0, 0] == 2.0


def test_empirical_moments_identical_particles():
    model = quadratic_omv()
    ens = init_ensemble(model, 5, seed=0, init=InitProduct(q=BlockLaw(point=0.3)))
    _, cov, _ = empirical_moments(ens)
    assert np.all(cov == 0.0)


def test_empirical_moments_needs_two_particles():
    model = quadratic_omv()
    ens = init_ensemble(model, 1, seed=0, init=InitProduct(q=BlockLaw(point=0.0)))
    with pytest.raises(InsufficientParticles):
        empirical_moments(ens)


def test_empirical_covariance_clt_bound():
    model = quadratic_umv()
    N = 100_000
    ens = init_ensemble(model, N, seed=8, init=InitProduct(q=BlockLaw(), p=BlockLaw()))
    _, cov, _ = empirical_moments(ens)
    assert np.all(np.abs(cov - np.eye(2)) <= 4.0 * math.sqrt(2.0 / N))
    # the entrywise SE estimate is consistent with the CLT bound
    cse = covariance_se(cov, N)
    assert np.all(cse <= 2.0 * math.sqrt(2.0 / N) + 1e-12)


@pytest.mark.filterwarnings("error")  # no numpy warning may precede the error
@pytest.mark.parametrize("model", [quadratic_omv(), quadratic_umv(), quadratic_gmv()],
                         ids=["overdamped", "underdamped", "generalized"])
@pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -1e-3])
def test_a_step_that_is_not_positive_and_finite_is_a_shape_mismatch(model, dt):
    # an infinite dt built an underdamped stepper with T = 0, an overdamped one with
    # infinite noise, and ended a generalized one in a warning on a non-finite e^{dt M}
    with pytest.raises(ShapeMismatch, match=f"dt must be positive and finite, got {dt}"):
        make_stepper(model, dt)


def test_blow_up_raises_non_finite_state():
    model = quadratic_omv(omega2=1.0, eta2=0.0)
    ens = init_ensemble(model, 4, seed=0, init=InitProduct(q=BlockLaw(point=1.0)))
    stepper = make_stepper(model, dt=1000.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteState):
        for _ in range(500):
            stepper.step(ens)


@pytest.mark.parametrize("kind, d, N, steps", [
    ("overdamped", 1, 16, 9), ("overdamped", 3, 16, 7),
    ("overdamped", 1, 9000, 7), ("overdamped", 3, 9000, 7),
    ("underdamped", 1, 16, 98), ("underdamped", 3, 16, 39),
    ("underdamped", 1, 9000, 8), ("underdamped", 3, 9000, 8),
    ("generalized", 1, 16, 16), ("generalized", 3, 16, 11),
    ("generalized", 1, 9000, 7), ("generalized", 3, 9000, 7),
])
def test_a_diverging_double_well_raises_at_a_pinned_step(kind, d, N, steps):
    # dt = 0.9 is far past the double well's stable step; each run blows up at the step it
    # always has, and the error names that step's time
    extra = {"generalized": {"memory": MemorySpec.diagonal([1.0], [1.0], d)},
             "underdamped": {"gamma": 1.0}, "overdamped": {}}[kind]
    model = validate(ModelSpec(d=d, beta=3.0, potential=DoubleWell(1.0, 1.0),
                               eta2=1.0, kind=Kind(kind), **extra))
    dt = 0.9
    ens = init_ensemble(model, N, 7, INIT_PZ)
    stepper = make_stepper(model, dt)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteState) as raised:
        for _ in range(200):
            stepper.step(ens)
    t = 0.0
    for _ in range(steps):
        t += dt
    assert ens.time == t and str(raised.value) == f"state became non-finite at t={t}"


def test_underdamped_relaxes_to_momentum_temperature():
    model = quadratic_umv(omega2=1.0, eta2=0.5, beta=2.0, gamma=1.5)
    N = 8000
    series = simulate(
        model,
        N=N,
        T=15.0,
        dt=2e-3,
        seed=13,
        init=InitProduct(q=BlockLaw(point=1.0), p=BlockLaw(point=0.0)),
        record_every=1500,
    )
    var_p = series.var_p[-1, 0]
    se = 0.5 * math.sqrt(2.0 / (N - 1))
    assert abs(var_p - 0.5) <= 4.0 * se


def test_two_dimensional_states_are_supported():
    # the analytics are one-dimensional, but the integrator is not
    from glekit.model import Kind, MemorySpec, ModelSpec, Quadratic, validate
    from glekit import quadratic as qa2

    model = validate(
        ModelSpec(
            d=2,
            beta=1.0,
            potential=Quadratic(1.0),
            eta2=0.5,
            memory=MemorySpec.diagonal([1.0], [1.0], d=2),
            kind=Kind.GENERALIZED,
        )
    )
    assert model.state_dim() == 6
    series = simulate(
        model,
        N=256,
        T=0.2,
        dt=1e-2,
        seed=4,
        init=InitProduct(q=BlockLaw(var=1.0), p=BlockLaw(var=1.0), z=BlockLaw(var=1.0)),
        record_every=10,
    )
    assert series.mean_q.shape[1] == 2
    assert np.all(np.isfinite(series.var_z))
    dd = qa2.assemble(model, 2)
    assert dd.B.shape == (12, 12)


@pytest.mark.parametrize("kind", ["overdamped", "underdamped", "generalized"])
def test_each_kind_tracks_the_gaussian_law(kind):
    if kind == "overdamped":
        model, x0 = quadratic_omv(omega2=1.0, eta2=1.0, beta=1.0), [1.0]
    elif kind == "underdamped":
        model, x0 = quadratic_umv(omega2=1.0, eta2=1.0, beta=1.0, gamma=1.5), [1.0, 0.0]
    else:
        model, x0 = quadratic_gmv(), [1.0, 0.0, 0.0]
    N, dt = 4000, 1e-3
    ens = init_ensemble(model, N, seed=17, init=InitPoint(x0))
    stepper = make_stepper(model, dt)
    checkpoints = (0.2, 0.5, 1.0, 1.5, 2.0)
    checks = {int(round(t / dt)): t for t in checkpoints}
    for k in range(1, max(checks) + 1):
        stepper.step(ens)
        if k in checks:
            mean, cov, se = empirical_moments(ens)
            law = qa.meanfield_law(model, checks[k], x0)
            assert np.all(np.abs(mean - law.mean) <= 4.0 * se), f"{kind} t={checks[k]}"
            cse = covariance_se(cov, N)
            assert np.all(np.abs(cov - law.cov) <= 4.0 * cse), f"{kind} t={checks[k]}"


def sfc64(seed):
    """The stream a run with this seed draws from."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))


def overdamped_bitwise(N):
    # init block, then q + (F dt + sqrt(2 dt / beta) xi) with xi of shape (N, d), by hand
    omega2, eta2, beta = 1.3, 0.7, 2.0
    model = quadratic_omv(omega2=omega2, eta2=eta2, beta=beta)
    dt, seed = 0.01, 11
    ens = init_ensemble(model, N, seed, InitProduct(q=BlockLaw(mean=0.5, var=0.2)))
    stepper = make_stepper(model, dt)
    rng = sfc64(seed)
    q = 0.5 + math.sqrt(0.2) * rng.standard_normal((N, 1))
    sigma = math.sqrt(2.0 * (1.0 / beta) * dt)
    for _ in range(20):
        stepper.step(ens)
        force = -omega2 * q - eta2 * (q - q.mean(axis=0))
        q = q + (force * dt + sigma * rng.standard_normal((N, 1)))
    assert np.array_equal(ens.q, q)
    return ens


def generalized_bitwise(N):
    # init blocks q, p, z in that order, then B-A-O-A-B by hand at d = m = 1 with the
    # O step (p, z) -> T (p, z) + S xi, xi of shape (2, N); T and S are the stepper's maps
    omega2, eta2, beta = 1.3, 0.7, 2.0
    model = quadratic_gmv(omega2=omega2, eta2=eta2, beta=beta, lambdas=(0.9,), alphas=(1.7,))
    dt, seed = 0.01, 11
    init = InitProduct(q=BlockLaw(mean=0.5, var=0.2), p=BlockLaw(var=0.5), z=BlockLaw(var=0.5))
    ens = init_ensemble(model, N, seed, init)
    stepper = make_stepper(model, dt)
    T, S = stepper.T, stepper.S
    rng = sfc64(seed)
    q = 0.5 + math.sqrt(0.2) * rng.standard_normal((N, 1))
    p = 0.0 + math.sqrt(0.5) * rng.standard_normal((N, 1))
    z = 0.0 + math.sqrt(0.5) * rng.standard_normal((N, 1))

    def force(q):
        return -omega2 * q - eta2 * (q - q.mean(axis=0))

    F = None
    for _ in range(20):
        F = stepper.step(ens, F)
        p = p + 0.5 * dt * force(q)
        q = q + 0.5 * dt * p
        xi = rng.standard_normal((2, N))
        p, z = (T[0, 0] * p[:, 0] + T[0, 1] * z[:, 0] + S[0, 0] * xi[0] + S[0, 1] * xi[1],
                T[1, 0] * p[:, 0] + T[1, 1] * z[:, 0] + S[1, 0] * xi[0] + S[1, 1] * xi[1])
        p, z = p[:, None], z[:, None]
        q = q + 0.5 * dt * p
        p = p + 0.5 * dt * force(q)
    assert np.array_equal(ens.q, q) and np.array_equal(ens.p, p) and np.array_equal(ens.z, z)
    return ens


def underdamped_bitwise(N):
    # B-A-O-A-B by hand, with the O step p e^{-gamma dt} + sigma xi on the same SFC64 stream
    omega2, eta2, beta, gamma = 1.3, 0.7, 2.0, 0.8
    model = quadratic_umv(omega2=omega2, eta2=eta2, beta=beta, gamma=gamma)
    dt, seed = 0.01, 11
    ens = init_ensemble(model, N, seed, InitPoint([0.5, -0.2]))
    stepper = make_stepper(model, dt)
    rng = sfc64(seed)
    q, p = np.full((N, 1), 0.5), np.full((N, 1), -0.2)
    decay = math.exp(-gamma * dt)
    sigma = math.sqrt((1.0 - decay**2) / beta)

    def force(q):
        return -omega2 * q - eta2 * (q - q.mean(axis=0))

    F = None
    for _ in range(20):
        F = stepper.step(ens, F)
        p = p + 0.5 * dt * force(q)
        q = q + 0.5 * dt * p
        p = p * decay + sigma * rng.standard_normal((N, 1))
        q = q + 0.5 * dt * p
        p = p + 0.5 * dt * force(q)
    assert np.array_equal(ens.q, q) and np.array_equal(ens.p, p)
    return ens


def test_overdamped_euler_maruyama_on_the_sfc64_stream_bitwise():
    overdamped_bitwise(64)


def test_generalized_pz_step_on_the_sfc64_stream_bitwise():
    generalized_bitwise(64)


def test_underdamped_o_step_is_the_scalar_ou_map_bitwise():
    underdamped_bitwise(64)


def general_memory_d3():
    # d = 3, m = 2: a full 6 x 3 coupling and a non-diagonal SPD A
    lam = np.arange(18.0).reshape(6, 3) / 10.0 - 0.8
    B = np.tril(np.arange(1.0, 37.0).reshape(6, 6)) / 40.0
    return MemorySpec(lam=lam, A=B @ B.T + 0.5 * np.eye(6))


def baoab_by_hand(q, pz, force, T, S, dt, rng):
    """One B-A-O-A-B step on rows q (d, N) and pz (n, N): the O step sums each output over
    the columns of T, then of S, in order, with xi of shape (n, N)."""
    d, (n, N) = len(q), pz.shape
    pz[:d] = pz[:d] + 0.5 * dt * force(q)
    q = q + 0.5 * dt * pz[:d]
    xi = rng.standard_normal((n, N))
    new = np.empty_like(pz)
    for i in range(n):
        acc = T[i, 0] * pz[0]
        for j in range(1, n):
            acc = acc + T[i, j] * pz[j]
        for j in range(n):
            acc = acc + S[i, j] * xi[j]
        new[i] = acc
    pz = new
    q = q + 0.5 * dt * pz[:d]
    pz[:d] = pz[:d] + 0.5 * dt * force(q)
    return q, pz


@pytest.mark.parametrize("kind", ["generalized", "underdamped"])
def test_o_step_at_d3_is_the_column_ordered_sum_on_the_sfc64_stream_bitwise(kind):
    # B-A-O-A-B by hand on rows: the force subtracts each q row's mean, and the O step
    # sums each output over the columns of T, then of S, in order; N * n > 8192
    omega2, eta2, dt, seed, d = 1.3, 0.7, 0.01, 11, 3
    extra = ({"memory": general_memory_d3()} if kind == "generalized" else {"gamma": 0.8})
    model = validate(ModelSpec(d=d, beta=2.0, potential=Quadratic(omega2),
                               eta2=eta2, kind=Kind(kind), **extra))
    n = model.state_dim() - d
    N = 8192 // n + 1
    ens = init_ensemble(model, N, seed, INIT_PZ)
    stepper = make_stepper(model, dt)
    T, S = stepper.T, stepper.S
    rng = sfc64(seed)
    X = np.hstack([0.5 + math.sqrt(0.2) * rng.standard_normal((N, d))]
                  + [math.sqrt(0.5) * rng.standard_normal((N, w)) for w in (d, n - d) if w])
    X = np.ascontiguousarray(X.T)  # rows, so that a row's mean is a pairwise sum
    q, pz = X[:d].copy(), X[d:].copy()

    def force(q):
        return -omega2 * q - eta2 * (q - q.mean(axis=1)[:, None])

    F = None
    for _ in range(20):
        F = stepper.step(ens, F)
        q, pz = baoab_by_hand(q, pz, force, T, S, dt, rng)
    assert np.array_equal(ens.X, np.vstack([q, pz]))
    # the blocks are views of X, which no block can be assigned over
    for name in ("q", "p", "z")[: 2 + (kind == "generalized")]:
        assert np.shares_memory(getattr(ens, name), ens.X)
        with pytest.raises(AttributeError):
            setattr(ens, name, getattr(ens, name) * 1.0)
    assert np.array_equal(ens.X, np.vstack([q, pz]))


def double_well_force(a, b, eta2):
    """-(a |q|^2 - b) q - eta2 (q - mean q) on rows (d, N), |q|^2 summed over the rows in order."""
    def force(q):
        r2 = q[0] * q[0]
        for row in q[1:]:
            r2 = r2 + row * row
        return -((a * r2 - b) * q) - eta2 * (q - q.mean(axis=1)[:, None])

    return force


def test_generalized_double_well_on_the_sfc64_stream_bitwise():
    # the physics of configs/doublewell_gmv.conf, at N = 8192
    model = doublewell_gmv()
    dt, seed, N = 0.01, 11, 8192
    ens = init_ensemble(model, N, seed, INIT_PZ)
    stepper = make_stepper(model, dt)
    rng = sfc64(seed)
    q = 0.5 + math.sqrt(0.2) * rng.standard_normal((1, N))
    pz = math.sqrt(0.5) * np.vstack([rng.standard_normal((1, N)), rng.standard_normal((1, N))])
    force = double_well_force(1.0, 1.0, 1.0)
    F = None
    for _ in range(20):
        F = stepper.step(ens, F)
        q, pz = baoab_by_hand(q, pz, force, stepper.T, stepper.S, dt, rng)
    assert np.array_equal(ens.X, np.vstack([q, pz]))


def test_overdamped_double_well_at_d3_on_the_sfc64_stream_bitwise():
    # Euler-Maruyama q + (F dt + sqrt(2 dt / beta) xi), xi of shape (N, d), at N = 8192
    a, b, eta2, beta, dt, seed, d, N = 0.8, 1.3, 0.7, 2.0, 0.01, 11, 3, 8192
    model = validate(ModelSpec(d=d, beta=beta, potential=DoubleWell(a, b),
                               eta2=eta2, kind=Kind.OVERDAMPED))
    ens = init_ensemble(model, N, seed, INIT_PZ)
    stepper = make_stepper(model, dt)
    rng = sfc64(seed)
    q = np.ascontiguousarray((0.5 + math.sqrt(0.2) * rng.standard_normal((N, d))).T)
    sigma = math.sqrt(2.0 * (1.0 / beta) * dt)
    force = double_well_force(a, b, eta2)
    for _ in range(20):
        stepper.step(ens)
        q = q + (force(q) * dt + sigma * rng.standard_normal((N, d)).T)
    assert np.array_equal(ens.X, q)


# ---------------------------------------------------------------------------
# the normals
# ---------------------------------------------------------------------------

INIT_PZ = InitProduct(q=BlockLaw(mean=0.5, var=0.2), p=BlockLaw(var=0.5), z=BlockLaw(var=0.5))


@pytest.mark.parametrize(
    "kind, N",
    [("underdamped", 8192), ("generalized", 8192), ("generalized", 6144)],
    ids=["underdamped-both-prefetched", "generalized-both-prefetched", "generalized-one-inline"],
)
def test_draws_of_two_shapes_keep_the_inline_stream(kind, N):
    # a kinetic ensemble, xi of shape (n, N), and an overdamped one of the same d, xi of shape
    # (N, d), share one generator and are stepped in turn by their own steppers: the kept
    # buffers change nothing against buffers made afresh for every step, and the steps draw
    # exactly those shapes, in that order, from the stream (in the ids, "prefetched" marks a
    # draw of at least 8192 normals and "inline" a smaller one)
    model = quadratic_umv() if kind == "underdamped" else quadratic_gmv()
    steppers = (make_stepper(model, 0.01), make_stepper(quadratic_omv(), 0.01))

    def run(fresh):
        kinetic = init_ensemble(model, N, 4, INIT_PZ)
        overdamped = init_ensemble(quadratic_omv(), N, 3, INIT_PZ)
        overdamped.rng = kinetic.rng
        stream = copy.deepcopy(kinetic.rng)
        for k in range(12):
            ens = (kinetic, overdamped)[k % 3 == 2]
            stepper = steppers[k % 3 == 2]
            if fresh:
                ens._work = None
            stepper.step(ens)
            stream.standard_normal(ens.q.shape if stepper.kind is Kind.OVERDAMPED
                                   else (len(ens.X) - ens.d, N))
        return kinetic, overdamped, stream

    (kept, kept_o, stream), (fresh, fresh_o, _) = run(False), run(True)
    assert np.array_equal(kept.X, fresh.X) and np.array_equal(kept_o.X, fresh_o.X)
    assert np.array_equal(kept.rng.standard_normal(4), stream.standard_normal(4))


def test_deepcopy_mid_run_continues_bit_for_bit():
    model = quadratic_gmv()
    stepper = make_stepper(model, 0.01)

    def run(ens, steps, F=None):
        for _ in range(steps):
            F = stepper.step(ens, F)
        return F

    ens, five = (init_ensemble(model, 8192, 8, INIT_PZ) for _ in range(2))
    F = run(ens, 5)
    twin = copy.deepcopy(ens)
    at_copy = copy.deepcopy(twin.rng)
    run(ens, 10, F)
    run(twin, 10)  # the force F belongs to ens, so the copy starts from its own
    assert np.array_equal(ens.q, twin.q) and np.array_equal(ens.p, twin.p)
    assert np.array_equal(ens.z, twin.z)
    # the copy's generator stands where the run's stood after five steps
    run(five, 5)
    assert np.array_equal(at_copy.standard_normal(4), five.rng.standard_normal(4))


def test_ensembles_stepped_from_several_threads_keep_their_streams():
    # more stepping threads than cores, sharing one stepper, with a short switch interval:
    # a work array or a generator shared across ensembles would change their numbers
    model = quadratic_umv()
    stepper = make_stepper(model, 0.01)
    seeds = range(4)

    def run(seed, out):
        ens = init_ensemble(model, 8192, seed, INIT_PZ)
        F = None
        for _ in range(30):
            F = stepper.step(ens, F)
        out[seed] = ens.q

    threaded = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(s, threaded), daemon=True) for s in seeds]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 60
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    alone = {}
    for s in seeds:
        run(s, alone)
        assert np.array_equal(threaded[s], alone[s])


class ThreadLog:
    """Stands in for an ensemble's generator and records the thread of every use."""

    def __init__(self, rng, threads):
        self._rng, self._threads = rng, threads

    def __getattr__(self, attr):
        self._threads.append(threading.current_thread())
        value = getattr(self._rng, attr)
        if not callable(value):
            return value

        def call(*args, **kwargs):
            self._threads.append(threading.current_thread())
            return value(*args, **kwargs)

        return call


@pytest.mark.parametrize("model", [quadratic_omv(), quadratic_umv(), quadratic_gmv()],
                         ids=["overdamped", "underdamped", "generalized"])
def test_wrapped_generator_and_force_run_only_on_the_main_thread(monkeypatch, model):
    # a tracer that wraps ens.rng or the force keeps one span stack: every draw goes
    # through the wrapper, once per step, on the stepping thread, and changes no number
    threads = []

    def run(logged):
        ens = init_ensemble(model, 8192, 2, INIT_PZ)
        if logged:
            ens.rng = ThreadLog(ens.rng, threads)
        stepper = make_stepper(model, 0.01)
        for _ in range(10):
            stepper.step(ens)
        return ens

    plain = run(False)
    logged = run(True)
    assert len(threads) == 2 * 10  # the attribute, then the call, of one draw per step
    grad = ValidatedModel.grad_potential

    def logged_grad(self, q):
        threads.append(threading.current_thread())
        return grad(self, q)

    monkeypatch.setattr(ValidatedModel, "grad_potential", logged_grad)
    run(False)
    assert set(threads) == {threading.main_thread()}
    for name in ("q", "p", "z"):
        a, b = getattr(plain, name), getattr(logged, name)
        assert (a is None and b is None) or np.array_equal(a, b)


# ---------------------------------------------------------------------------
# the step's work arrays
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d, N", [(1, 8192), (3, 8192), (1, 1024), (3, 1024)],
                         ids=["1", "3", "1-below-prefetch", "3-below-prefetch"])
@pytest.mark.parametrize("kind", list(Kind), ids=[k.value for k in Kind])
def test_a_step_allocates_nothing_of_the_state_size_but_the_gradient(kind, d, N):
    # every update runs in the ensemble's own work arrays, and the normals land in its kept
    # buffer: one warmed-up step's traced peak is the gradient's (N, d) result and a few
    # small objects, and after two steps every array is where it was.  N = 1024 puts n N
    # below numpy's 8192-element ufunc buffer, which buffered whole broadcast products of an
    # O step written as a sum of products
    extra = {Kind.GENERALIZED: {"memory": MemorySpec.diagonal([1.0], [1.0], d)},
             Kind.UNDERDAMPED: {"gamma": 0.8}, Kind.OVERDAMPED: {}}[kind]
    model = validate(ModelSpec(d=d, beta=2.0, potential=Quadratic(1.3),
                               eta2=0.7, kind=kind, **extra))
    ens = init_ensemble(model, N, 3, INIT_PZ)
    stepper = make_stepper(model, 0.01)
    F = None
    for _ in range(2):
        F = stepper.step(ens, F)

    def pointers():
        w = ens._work
        return [a.__array_interface__["data"][0] for a in (w.force, w.tmp, w.W)]

    before = pointers()
    tracemalloc.start()
    try:
        F = stepper.step(ens, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= N * d * 8 + 4096
    F = stepper.step(ens, F)
    assert pointers() == before
    # a kinetic step returns its force work array; the overdamped kind returns none
    assert F is None if kind is Kind.OVERDAMPED else F is ens._work.force
    # the work arrays are not state: copies leave them out and make their own
    for twin in (copy.deepcopy(ens), pickle.loads(pickle.dumps(ens))):
        assert twin._work is None
