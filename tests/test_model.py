import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glekit.errors import MissingField, NonSPDMatrix, ShapeMismatch
from glekit.model import (
    CustomPotential,
    DoubleWell,
    Kind,
    MemorySpec,
    ModelSpec,
    Quadratic,
    ValidatedModel,
    validate,
)

from conftest import doublewell_gmv, quadratic_gmv, quadratic_umv


def test_validate_accepts_basic_generalized_model():
    m = quadratic_gmv()
    assert m.d == 1
    assert m.state_dim() == 3
    assert m.eta2 == 1.0


def test_validate_returns_the_spec_as_a_model_spec_with_no_field_of_its_own():
    spec = ModelSpec(d=1, beta=2.0, potential=Quadratic(1.0), eta2=0.5,
                     memory=MemorySpec.diagonal([1.0], [1.0]), kind=Kind.GENERALIZED)
    model = validate(spec)
    assert isinstance(model, ModelSpec)
    assert fields(ValidatedModel) == fields(ModelSpec)
    assert all(getattr(model, f.name) is getattr(spec, f.name) for f in fields(ModelSpec))


def test_m_without_memory_is_a_missing_field():
    model = quadratic_umv()
    assert model.memory is None
    with pytest.raises(MissingField):
        model.m


def test_validate_rejects_asymmetric_A():
    mem = MemorySpec(lam=np.ones((2, 1)), A=np.array([[1.0, 2.0], [0.0, 1.0]]))
    spec = ModelSpec(d=1, beta=1.0, potential=Quadratic(1.0), memory=mem, kind=Kind.GENERALIZED)
    with pytest.raises(NonSPDMatrix):
        validate(spec)


@pytest.mark.parametrize(
    "field, changes",
    [
        ("omega2", dict(potential=Quadratic(math.inf))),
        ("omega2", dict(potential=Quadratic(math.nan))),
        ("a", dict(potential=DoubleWell(math.inf, 1.0))),
        ("b", dict(potential=DoubleWell(1.0, math.nan))),
        ("b", dict(potential=DoubleWell(1.0, -math.inf))),
        ("eta2", dict(eta2=math.nan)),
        ("eta2", dict(eta2=math.inf)),
        ("gamma", dict(kind=Kind.UNDERDAMPED, memory=None, gamma=math.inf)),
        ("gamma", dict(kind=Kind.UNDERDAMPED, memory=None, gamma=math.nan)),
    ],
    ids=["omega2=inf", "omega2=nan", "a=inf", "b=nan", "b=-inf", "eta2=nan", "eta2=inf",
         "gamma=inf", "gamma=nan"],
)
def test_validate_rejects_a_nonfinite_coefficient_by_name(field, changes):
    base = dict(d=1, beta=1.0, potential=Quadratic(1.0), eta2=1.0,
                memory=MemorySpec.diagonal([1.0], [1.0]), kind=Kind.GENERALIZED)
    with pytest.raises(ShapeMismatch, match=f"^{field} must be finite"):
        validate(ModelSpec(**{**base, **changes}))


@pytest.mark.parametrize(
    "shape", [(3, 2), (0, 2), (4, 1), (4, 3), (4,), (2, 2, 1)],
    ids=["rows-not-a-multiple", "no-rows", "one-column", "three-columns", "flat", "three-axes"],
)
def test_validate_needs_lam_of_shape_dm_by_d(shape):
    # d = 2: lam is (2m, 2) with m >= 1, and m is read from it; lam is checked before A
    mem = MemorySpec(lam=np.ones(shape), A=np.eye(2))
    spec = ModelSpec(d=2, beta=1.0, potential=Quadratic(1.0), memory=mem, kind=Kind.GENERALIZED)
    with pytest.raises(ShapeMismatch, match=r"^lam must have shape \(d\*m, 2\) with m >= 1"):
        validate(spec)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_m_is_the_number_of_memory_modes(d):
    model = quadratic_gmv(lambdas=(1.0, 0.5, 2.0), alphas=(1.0, 3.0, 0.5), d=d)
    assert model.m == 3
    assert model.state_dim() == 2 * d + 3 * d


@pytest.mark.parametrize("beta", [math.nan, 0.0, -1.0])
def test_validate_rejects_a_beta_that_is_not_positive_by_name(beta):
    # a bad value, not an absent field; beta = inf (no noise) stays valid
    spec = ModelSpec(d=1, beta=beta, potential=Quadratic(1.0), kind=Kind.OVERDAMPED)
    with pytest.raises(ShapeMismatch, match="beta"):
        validate(spec)


def test_validate_rejects_generalized_without_memory():
    spec = ModelSpec(d=1, beta=1.0, potential=Quadratic(1.0), kind=Kind.GENERALIZED)
    with pytest.raises(MissingField):
        validate(spec)


def test_validate_rejects_underdamped_without_gamma():
    spec = ModelSpec(d=1, beta=1.0, potential=Quadratic(1.0), kind=Kind.UNDERDAMPED)
    with pytest.raises(MissingField):
        validate(spec)


@pytest.mark.parametrize(
    "field, kind, extra",
    [
        ("memory", Kind.UNDERDAMPED, dict(gamma=1.0, memory=MemorySpec.diagonal([1.0], [1.0]))),
        ("memory", Kind.OVERDAMPED, dict(memory=MemorySpec.diagonal([1.0], [1.0]))),
        ("gamma", Kind.GENERALIZED, dict(gamma=1.0, memory=MemorySpec.diagonal([1.0], [1.0]))),
        ("gamma", Kind.OVERDAMPED, dict(gamma=1.0)),
    ],
    ids=["memory-underdamped", "memory-overdamped", "gamma-generalized", "gamma-overdamped"],
)
def test_validate_rejects_a_field_of_another_kind(field, kind, extra):
    # an underdamped model with a one-term memory had state_dim() 2, while
    # thermo.stationary_law gave it a 3 x 3 covariance
    spec = ModelSpec(d=1, beta=1.0, potential=Quadratic(1.0), kind=kind, **extra)
    with pytest.raises(ShapeMismatch, match=f"^{field} is for the"):
        validate(spec)


@pytest.mark.parametrize(
    "changes, error",
    [
        (dict(beta=-1.0), ShapeMismatch),
        (dict(gamma=1.0), ShapeMismatch),
        (dict(memory=None), MissingField),
        (dict(potential=DoubleWell(-1.0, 1.0)), NonSPDMatrix),
        (dict(eta2=math.nan), ShapeMismatch),
        (dict(eta2=-1.0), NonSPDMatrix),
    ],
    ids=["beta", "gamma-generalized", "no-memory", "double-well-a", "eta2-nan", "eta2-negative"],
)
def test_a_replaced_validated_model_is_checked_again(changes, error):
    # dataclasses.replace builds a new ValidatedModel; it used to skip every check
    with pytest.raises(error):
        replace(doublewell_gmv(), **changes)


def test_eval_potential_quadratic():
    potential = quadratic_gmv().potential
    assert potential.energy(np.array([2.0])) == pytest.approx(2.0)
    assert potential.gradient(np.array([2.0]))[0] == pytest.approx(2.0)


def test_eval_potential_double_well_origin_and_minimum():
    potential = DoubleWell(1.0, 1.0)
    assert potential.energy(np.array([0.0])) == 0.0
    assert potential.gradient(np.array([0.0]))[0] == 0.0
    assert potential.energy(np.array([1.0])) == pytest.approx(-0.25)
    assert potential.gradient(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize(
    "potential",
    [Quadratic(1.7), DoubleWell(0.8, 1.3)],
    ids=["quadratic", "double_well"],
)
def test_gradient_matches_finite_differences(potential, rng):
    # 100 probe points, central differences with step 1e-5, relative tol 1e-6
    step = 1e-5
    for q in rng.uniform(-3.0, 3.0, 100):
        g = float(potential.gradient(np.array([q]))[0])
        fd = float(
            potential.energy(np.array([q + step])) - potential.energy(np.array([q - step]))
        ) / (2 * step)
        assert abs(g - fd) <= 1e-6 * max(1.0, abs(g))


def test_custom_potential_validated_against_finite_differences():
    good = CustomPotential(
        energy=lambda q: np.sum(np.cosh(q), axis=-1),
        gradient=lambda q: np.sinh(q),
    )
    validate(ModelSpec(d=1, beta=1.0, potential=good, kind=Kind.OVERDAMPED))
    bad = CustomPotential(
        energy=lambda q: np.sum(np.cosh(q), axis=-1),
        gradient=lambda q: 2.0 * np.sinh(q),
    )
    with pytest.raises(Exception):
        validate(ModelSpec(d=1, beta=1.0, potential=bad, kind=Kind.OVERDAMPED))


@settings(deadline=None, max_examples=30)
@given(
    omega2=st.floats(min_value=0.1, max_value=10.0),
    q=st.floats(min_value=-5.0, max_value=5.0),
)
def test_quadratic_gradient_property(omega2, q):
    pot = Quadratic(omega2)
    step = 1e-5
    g = float(pot.gradient(np.array([q]))[0])
    fd = float(pot.energy(np.array([q + step])) - pot.energy(np.array([q - step]))) / (2 * step)
    assert abs(g - fd) <= 1e-6 * max(1.0, abs(g))


def test_infinite_beta_disables_noise():
    m = quadratic_gmv(beta=math.inf)
    assert m.beta_inv == 0.0
