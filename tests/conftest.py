import numpy as np
import pytest

from ttolab import BlaschkeProduct, ModelSpace, sample_blaschke

# The hard zero families of the benchmark's hard-spaces workload (repeated,
# clustered, near-circle, degree 64 and 128), plus a generic degree-16 space.
STRESS_FAMILIES = {
    "repeated 0.9 x8": BlaschkeProduct((0.9,) * 8),
    "repeated 0.5 x16": BlaschkeProduct((0.5,) * 16),
    "cluster of 12": BlaschkeProduct(
        tuple(0.7 + 0.05 * np.exp(2j * np.pi * k / 12) for k in range(12))),
    "near circle 0.995 x8": BlaschkeProduct(
        tuple(0.995 * np.exp(2j * np.pi * (k + 0.5) / 8) for k in range(8))),
    "random 64": sample_blaschke(np.random.default_rng(64), 64),
    "random 128": sample_blaschke(np.random.default_rng(128), 128),
    "random 16": sample_blaschke(np.random.default_rng(16), 16),
}


def stein_solve(a, b, rhs) -> np.ndarray:
    """X = sum_k A^k R B^k, the solution of X - A X B = R, as an oracle for the frame builds.

    Doubling: X += A X B, then A = A^2 and B = B^2, so pass j adds the terms
    2^j <= k < 2^{j+1}.  Callers pass compressed shifts and generalized shifts
    S_alpha with |alpha| < 1, their adjoints and conjugates, whose powers decay;
    the tail left out is A X B, so stop at ||A||_F^2 ||B||_F^2 <= 1e-36.
    """
    x = np.asarray(rhs, dtype=complex)
    while np.vdot(a, a).real * np.vdot(b, b).real > 1e-36:
        x = x + a @ x @ b
        a, b = a @ a, b @ b
    return x


def pytest_generate_tests(metafunc):
    if "stress_family" in metafunc.fixturenames:
        metafunc.parametrize("stress_family", list(STRESS_FAMILIES))


@pytest.fixture(scope="session")
def stress_spaces():
    """ModelSpace of each stress family, by name."""
    return {name: ModelSpace(u) for name, u in STRESS_FAMILIES.items()}


@pytest.fixture(scope="session")
def z2():
    return ModelSpace(BlaschkeProduct((0.0, 0.0)))


@pytest.fixture(scope="session")
def z3():
    return ModelSpace(BlaschkeProduct((0.0, 0.0, 0.0)))


@pytest.fixture(scope="session")
def pair_space():
    # distinct zeros, one complex: exercises the generic Takenaka-Malmquist path
    return ModelSpace(BlaschkeProduct((0.5, -0.3j)))


@pytest.fixture(scope="session")
def triple_space():
    # repeated zero plus a negative one: the hardest of the small fixtures
    return ModelSpace(BlaschkeProduct((0.5, 0.5, -0.2)))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
