import copy
import math

import numpy as np
import pytest

from glekit import quadratic as qa
from glekit.errors import InsufficientParticles, NonFiniteState
from glekit.model import Kind, MemorySpec, ModelSpec, Quadratic, CurieWeiss, validate
from glekit.particles import (
    BlockLaw,
    InitGaussian,
    InitPoint,
    InitProduct,
    covariance_se,
    empirical_moments,
    init_ensemble,
    make_stepper,
    simulate,
)

from conftest import quadratic_gmv, quadratic_omv, quadratic_umv


def test_point_init():
    model = quadratic_gmv()
    ens = init_ensemble(model, 3, seed=0, init=InitPoint([1.0, 0.0, 0.0]))
    assert np.all(ens.q == 1.0)
    assert ens.time == 0.0


def test_gaussian_init_clt_bound():
    model = quadratic_umv()
    N = 100_000
    ens = init_ensemble(model, N, seed=42, init=InitGaussian(np.zeros(2), np.eye(2)))
    mean, cov, se = empirical_moments(ens)
    assert np.all(np.abs(mean) <= 4.0 / math.sqrt(N))
    assert np.all(np.abs(cov - np.eye(2)) <= 4.0 * math.sqrt(2.0 / N))


def test_init_is_deterministic_in_seed():
    model = quadratic_gmv()
    init = InitProduct(q=BlockLaw(var=1.0), p=BlockLaw(var=1.0), z=BlockLaw(var=1.0))
    a = init_ensemble(model, 100, seed=9, init=init)
    b = init_ensemble(model, 100, seed=9, init=init)
    assert np.array_equal(a.q, b.q) and np.array_equal(a.p, b.p) and np.array_equal(a.z, b.z)


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
            interaction=CurieWeiss(0.0),
            memory=MemorySpec.diagonal([0.0], [1.0]),
            kind=Kind.GENERALIZED,
        )
    )
    ens = init_ensemble(model, 1, seed=0, init=InitPoint([1.0, 0.0, 0.0]))
    dt = 1e-4
    stepper = make_stepper(model, dt)
    for _ in range(int(round(2 * math.pi / dt))):
        stepper.step(ens)
    assert abs(ens.q[0, 0] - 1.0) <= 1e-3


def test_deterministic_self_convergence_is_at_least_first_order():
    model = quadratic_gmv(beta=math.inf)
    x0 = [0.7, -0.1, 0.4]

    def final_q(dt, T=1.0):
        ens = init_ensemble(model, 1, seed=0, init=InitPoint(x0))
        stepper = make_stepper(model, dt)
        for _ in range(int(round(T / dt))):
            stepper.step(ens)
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
    assert series.n_records() == 2
    assert series.times[0] == 0.0
    assert series.times[-1] == pytest.approx(0.2)


def test_exchangeability_of_observables():
    model = quadratic_gmv(beta=math.inf)
    init = InitProduct(q=BlockLaw(var=1.0), p=BlockLaw(var=1.0), z=BlockLaw(var=1.0))
    ens = init_ensemble(model, 64, seed=5, init=init)
    perm = np.random.default_rng(0).permutation(64)
    ens_perm = copy.deepcopy(ens)
    ens_perm.q = ens_perm.q[perm]
    ens_perm.p = ens_perm.p[perm]
    ens_perm.z = ens_perm.z[perm]
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
    # the end-of-step force starts the next step only while it still belongs
    # to that ensemble, that q array and that model
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
    for k in range(60):
        st = other_stepper if k == 20 else stepper
        for ens, ref in ((a, ref_a), (b, ref_b)):
            st.step(ens)
            ref.end_force = None  # the reference recomputes the start force
            st.step(ref)
        if k % 7 == 3:
            b.q = 0.5 * b.q
            ref_b.q = 0.5 * ref_b.q
    for ens, ref in ((a, ref_a), (b, ref_b)):
        assert np.array_equal(ens.q, ref.q) and np.array_equal(ens.p, ref.p)
        if kind == "generalized":
            assert np.array_equal(ens.z, ref.z)


def test_empirical_moments_two_particles():
    model = quadratic_omv()
    ens = init_ensemble(model, 2, seed=0, init=InitProduct(q=BlockLaw(point=0.0)))
    ens.q = np.array([[1.0], [-1.0]])
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
    ens = init_ensemble(model, N, seed=8, init=InitGaussian(np.zeros(2), np.eye(2)))
    _, cov, _ = empirical_moments(ens)
    assert np.all(np.abs(cov - np.eye(2)) <= 4.0 * math.sqrt(2.0 / N))
    # the entrywise SE estimate is consistent with the CLT bound
    cse = covariance_se(cov, N)
    assert np.all(cse <= 2.0 * math.sqrt(2.0 / N) + 1e-12)


def test_blow_up_raises_non_finite_state():
    model = quadratic_omv(omega2=1.0, eta2=0.0)
    ens = init_ensemble(model, 4, seed=0, init=InitProduct(q=BlockLaw(point=1.0)))
    stepper = make_stepper(model, dt=1000.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteState):
        for _ in range(500):
            stepper.step(ens)


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
    from glekit.model import CurieWeiss, Kind, MemorySpec, ModelSpec, Quadratic, validate
    from glekit import quadratic as qa2

    model = validate(
        ModelSpec(
            d=2,
            beta=1.0,
            potential=Quadratic(1.0),
            interaction=CurieWeiss(0.5),
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
