import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from ttolab import (BlaschkeProduct, ModelSpace, PoleHit, PoleOnCircle, RationalPair,
                    RationalTerm, SpaceMismatch, sample_blaschke)
from ttolab.model_space import same_space
from ttolab.tolerances import DISC_MARGIN, ON_CIRCLE_TOL, POLE_TOL

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


def symbol_values(symbol, space, points, u_values) -> np.ndarray:
    """Values of a SymbolExpr at circle points, given the values of u there.

    The symbol of the quadrature oracle: build_refined(space, lambda pts, uv:
    symbol_values(symbol, space, pts, uv)) compresses it independently of the
    closed forms that build_tto reads off its parts.
    """
    points = np.asarray(points, dtype=complex)
    vals = np.full(points.shape, symbol.constant, dtype=complex)
    if symbol.analytic is not None or symbol.coanalytic is not None:
        basis_values = space.basis_values_at(points)
    if symbol.analytic is not None:
        if not same_space(symbol.analytic.space, space):
            raise SpaceMismatch("analytic part lives in a different model space")
        vals = vals + symbol.analytic.coords @ basis_values
    if symbol.coanalytic is not None:
        if not same_space(symbol.coanalytic.space, space):
            raise SpaceMismatch("coanalytic part lives in a different model space")
        vals = vals + np.conj(symbol.coanalytic.coords @ basis_values)
    for term in symbol.rational_terms:
        roots = term.pair.denominator_roots()
        if roots.size and np.min(np.abs(np.abs(roots) - 1.0)) < ON_CIRCLE_TOL:
            raise PoleOnCircle("rational symbol term has a pole on the unit circle")
        num = npoly.polyval(points, np.asarray(term.pair.numerator))
        den = npoly.polyval(points, np.asarray(term.pair.denominator))
        scale = max(np.max(np.abs(np.asarray(term.pair.denominator))), 1.0)
        if np.any(np.abs(den) < POLE_TOL * scale):
            raise PoleHit("rational evaluation at a pole")
        tv = num / den
        if term.clark_alpha is not None:
            alpha = complex(term.clark_alpha)
            if abs(alpha) >= 1.0 - DISC_MARGIN:
                raise PoleOnCircle("clark fraction with |alpha| >= 1 has circle poles")
            tv = tv / (1.0 - alpha * np.conj(u_values))
        vals = vals + tv
    return vals


def pole_terms(rng, alpha) -> list:
    """Rational terms over random degree-5 numerators, each plain and divided by 1 - alpha conj(u).

    One denominator has two inner and two outer poles, the other a double inner
    and a triple outer pole; inner poles have modulus 0.3 to 0.8, outer ones 1.3 to 2.3.
    """
    def pole(low, high):
        return rng.uniform(low, high) * np.exp(2j * np.pi * rng.uniform())

    terms = []
    for roots in ([pole(0.3, 0.8), pole(0.3, 0.8), pole(1.3, 2.3), pole(1.3, 2.3)],
                  [pole(0.3, 0.8)] * 2 + [pole(1.3, 2.3)] * 3):
        pair = RationalPair(tuple(rng.standard_normal(6) + 1j * rng.standard_normal(6)),
                            tuple(npoly.polyfromroots(roots) * (0.7 - 0.2j)))
        terms += [RationalTerm(pair), RationalTerm(pair, alpha)]
    return terms


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
