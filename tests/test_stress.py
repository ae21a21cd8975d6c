"""Root solving, Clark data, Crofoot transforms and the operator core on the stress families.

Each input below used to fail.  The roots of u = alpha came from the monomial
expansion of u and missed their residual or the unit circle; they are now the
spectrum of the closed-form S_alpha.  Operators and the conjugation came from
the space's quadrature grid, which under-resolved them on repeated zeros near
the circle; they are now Stein sums on the closed-form shift.  The fraction
reduction took a remainder modulo the monomial expansion of u_alpha; it is now
the projection phi(S') K'_0.  Every call must pass its own construction checks,
and the whole verify battery must pass on the stress corpus.
"""

import functools

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from ttolab import (BlaschkeProduct, ModelSpace, classify_type, clark_data, crofoot,
                    sample_blaschke, sample_typed_tto, verify_space)


@pytest.mark.parametrize("family, alpha", [
    ("repeated 0.9 x8", 0.5),
    ("cluster of 12", 1.0),
])
def test_solve_equals_on_stress_families(stress_spaces, family, alpha):
    u = stress_spaces[family].u
    roots = u.solve_equals(alpha)
    assert roots.shape == (u.degree,)
    assert np.max(np.abs(u.evaluate(roots) - alpha)) <= 1e-9
    if abs(alpha) == 1.0:
        assert np.max(np.abs(np.abs(roots) - 1.0)) <= 1e-8


@pytest.mark.parametrize("family, alpha", [
    ("random 64", 1.0),
    ("repeated 0.5 x16", 1j),
])
def test_clark_data_on_stress_families(stress_spaces, family, alpha):
    sp = stress_spaces[family]
    data = clark_data(sp, alpha)
    assert np.max(np.abs(np.abs(data.points) - 1.0)) <= 1e-12
    assert np.max(np.abs(sp.u.evaluate(data.points) - alpha)) <= 1e-9


@pytest.mark.parametrize("family, alpha", [
    ("repeated 0.5 x16", -0.4),
    ("random 64", 0.5),
])
def test_crofoot_on_stress_families(stress_spaces, family, alpha):
    sp = stress_spaces[family]
    transform = crofoot(sp, alpha)
    assert transform.source.dim == sp.dim
    assert np.linalg.norm(transform.mat.conj().T @ transform.mat - np.eye(sp.dim), 2) <= 1e-9


CROFOOT_AND_CLARK = {
    "crofoot_unitary", "crofoot_shift_intertwine", "crofoot_intertwining",
    "norm_equality", "clark_points", "clark_orthonormal", "clark_eigen",
    "clark_mass", "clark_reconstruction", "functional_calculus",
    "unitary_classification", "rank_one_interior",
}


@pytest.mark.parametrize("family", ["repeated 0.5 x16", "cluster of 12"])
def test_verify_space_on_stress_families(stress_spaces, family):
    report = verify_space(stress_spaces[family], seed=0, trials=4)
    checks = {c.name: c for c in report.checks}
    assert CROFOOT_AND_CLARK <= set(checks)
    for name in CROFOOT_AND_CLARK:
        assert checks[name].passed, (name, checks[name].note)
    assert not report.failures, [(c.name, c.max_residual, c.note) for c in report.failures]


def test_solve_equals_matches_monomial_roots():
    # reference route for small degrees: np.roots of rotation*N - alpha*D
    rng = np.random.default_rng(6)
    for degree in range(1, 7):
        u = sample_blaschke(rng, degree)
        a = np.asarray(u.zeros)
        num = u.rotation * npoly.polyfromroots(a)
        den = functools.reduce(npoly.polymul, ([1.0, -np.conj(z)] for z in a), np.ones(1))
        for alpha in (0.6 * np.exp(2j * np.pi * rng.uniform()),
                      np.exp(2j * np.pi * rng.uniform())):
            reference = np.roots((num - alpha * den)[::-1])
            roots = u.solve_equals(alpha)
            gaps = np.abs(roots[:, None] - reference[None, :])
            assert np.max(np.min(gaps, axis=1)) <= 1e-8
            assert np.max(np.min(gaps, axis=0)) <= 1e-8


def test_typed_operators_classify_on_repeated_zeros(stress_spaces):
    # used to classify as "none": the space's N=512 grid under-resolved the symbol
    sp = stress_spaces["repeated 0.9 x8"]
    rng = np.random.default_rng(9)
    for alpha in (0.0, 0.5 + 0.2j):
        tag = classify_type(sp, sample_typed_tto(sp, rng, alpha))
        assert tag.kind == "alpha"
        assert abs(tag.value - alpha) / (1.0 + abs(alpha)) <= 1e-6


# The stress corpus for the whole battery: the stress families but random 16, and two more.
MORE_FAMILIES = {
    "repeated 0.9 x16": BlaschkeProduct((0.9,) * 16),
    "random 32": sample_blaschke(np.random.default_rng(32), 32),
}


@pytest.mark.parametrize("family", [
    "repeated 0.9 x8", "repeated 0.9 x16", "repeated 0.5 x16", "cluster of 12",
    "near circle 0.995 x8", "random 32", "random 64", "random 128",
])
def test_verify_space_passes_every_check(stress_spaces, family):
    sp = stress_spaces[family] if family in stress_spaces else ModelSpace(MORE_FAMILIES[family])
    report = verify_space(sp, seed=2, trials=6)
    assert len(report.checks) == 45
    assert not report.failures, [(c.name, c.max_residual, c.note) for c in report.failures]
