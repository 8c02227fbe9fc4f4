import numpy as np
import pytest

from glekit.model import (
    DoubleWell,
    Kind,
    MemorySpec,
    ModelSpec,
    Quadratic,
    validate,
)


def quadratic_gmv(omega2=1.0, eta2=1.0, beta=1.0, lambdas=(1.0,), alphas=(1.0,), d=1):
    return validate(
        ModelSpec(
            d=d,
            beta=beta,
            potential=Quadratic(omega2),
            eta2=eta2,
            memory=MemorySpec.diagonal(lambdas, alphas, d),
            kind=Kind.GENERALIZED,
        )
    )


def quadratic_umv(omega2=1.0, eta2=1.0, beta=1.0, gamma=1.0, d=1):
    return validate(
        ModelSpec(
            d=d,
            beta=beta,
            potential=Quadratic(omega2),
            eta2=eta2,
            gamma=gamma,
            kind=Kind.UNDERDAMPED,
        )
    )


def quadratic_omv(omega2=1.0, eta2=1.0, beta=1.0, d=1):
    return validate(
        ModelSpec(
            d=d,
            beta=beta,
            potential=Quadratic(omega2),
            eta2=eta2,
            kind=Kind.OVERDAMPED,
        )
    )


def doublewell_gmv(a=1.0, b=1.0, eta2=1.0, beta=3.0, lambdas=(1.0,), alphas=(1.0,)):
    return validate(
        ModelSpec(
            d=1,
            beta=beta,
            potential=DoubleWell(a, b),
            eta2=eta2,
            memory=MemorySpec.diagonal(lambdas, alphas),
            kind=Kind.GENERALIZED,
        )
    )


def random_quadratic(kind: Kind, rng: np.random.Generator, m: int = 1):
    omega2 = float(rng.uniform(0.3, 3.0))
    eta2 = float(rng.uniform(0.0, 3.0))
    beta = float(rng.uniform(0.5, 3.0))
    if kind is Kind.OVERDAMPED:
        return quadratic_omv(omega2, eta2, beta)
    if kind is Kind.UNDERDAMPED:
        return quadratic_umv(omega2, eta2, beta, gamma=float(rng.uniform(0.5, 3.0)))
    lambdas = rng.uniform(-2.0, 2.0, m)
    lambdas[np.abs(lambdas) < 0.1] = 0.5
    alphas = rng.uniform(0.3, 3.0, m)
    return quadratic_gmv(omega2, eta2, beta, tuple(lambdas), tuple(alphas))


@pytest.fixture
def rng():
    return np.random.default_rng(20240)
