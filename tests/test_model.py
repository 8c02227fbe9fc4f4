import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glekit.errors import MissingField, NonSPDMatrix, ShapeMismatch
from glekit.model import (
    CurieWeiss,
    CustomPotential,
    DoubleWell,
    Kind,
    MemorySpec,
    ModelSpec,
    Quadratic,
    validate,
)

from conftest import quadratic_gmv


def test_validate_accepts_basic_generalized_model():
    m = quadratic_gmv()
    assert m.d == 1
    assert m.state_dim() == 3
    assert m.eta2 == 1.0


def test_validate_rejects_asymmetric_A():
    mem = MemorySpec(m=2, lam=np.ones((2, 1)), A=np.array([[1.0, 2.0], [0.0, 1.0]]))
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
        ("eta2", dict(interaction=CurieWeiss(math.nan))),
        ("eta2", dict(interaction=CurieWeiss(math.inf))),
        ("gamma", dict(kind=Kind.UNDERDAMPED, memory=None, gamma=math.inf)),
        ("gamma", dict(kind=Kind.UNDERDAMPED, memory=None, gamma=math.nan)),
    ],
    ids=["omega2=inf", "omega2=nan", "a=inf", "b=nan", "b=-inf", "eta2=nan", "eta2=inf",
         "gamma=inf", "gamma=nan"],
)
def test_validate_rejects_a_nonfinite_coefficient_by_name(field, changes):
    base = dict(d=1, beta=1.0, potential=Quadratic(1.0), interaction=CurieWeiss(1.0),
                memory=MemorySpec.diagonal([1.0], [1.0]), kind=Kind.GENERALIZED)
    with pytest.raises(ShapeMismatch, match=f"^{field} must be finite"):
        validate(ModelSpec(**{**base, **changes}))


def test_validate_rejects_memory_without_auxiliary_variables():
    mem = MemorySpec(m=0, lam=np.zeros((0, 1)), A=np.zeros((0, 0)))
    spec = ModelSpec(d=1, beta=1.0, potential=Quadratic(1.0), memory=mem, kind=Kind.GENERALIZED)
    with pytest.raises(ShapeMismatch, match="m >= 1"):
        validate(spec)


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
