"""Root solving, Clark data, Crofoot transforms and the operator core on the stress families.

Each input below used to fail.  The roots of u = alpha came from the monomial
expansion of u and missed their residual or the unit circle.  No eigensolver
finds them now: on the circle they come from the boundary phase of u, inside
the disc from Aberth-Ehrlich sweeps seeded at the Clark points.  The tests hold
both routes to the eigenvalues of S_alpha written out entry by entry, and
inside the disc also to Smith's inclusion discs, which stay certain where
those eigenvalues are ill-conditioned.  Operators and the conjugation came from
the space's quadrature grid, which under-resolved them on repeated zeros near
the circle; they are now built in the Clark frame of the space.  The fraction
reduction took a remainder modulo the monomial expansion of u_alpha; it is now
the projection phi(S') K'_0.  Every call must pass its own construction checks,
and the whole verify battery must pass on the stress corpus.
"""

import functools
import re

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from ttolab import (AlphaOnCircle, BlaschkeProduct, ModelSpace, NumericalFailure,
                    RationalPair, RationalTerm, RootSolveError, SymbolExpr, build_refined,
                    build_tto, classify_type, clark_data, compressed_shift, crofoot,
                    generalized_shift, sample_blaschke, sample_symbol, sample_typed_tto,
                    verify_space)
from ttolab.tto import spectral_norm

from conftest import STRESS_FAMILIES, symbol_values


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
    ("repeated 0.9 x8", -1.0),
    ("cluster of 12", np.exp(0.7j)),
    ("near circle 0.995 x8", 1.0),
    ("random 128", -1j),
    ("random 16", np.exp(2.0j)),
])
def test_clark_data_on_stress_families(stress_spaces, family, alpha):
    sp = stress_spaces[family]
    data = clark_data(sp, alpha)
    assert np.max(np.abs(np.abs(data.points) - 1.0)) <= 1e-12
    assert np.max(np.abs(sp.u.evaluate(data.points) - alpha)) <= 1e-9
    # the Clark atoms 1/|u'(zeta)|, with |u'(zeta)| = sum_k (1 - |a_k|^2)/|zeta - a_k|^2
    a = np.asarray(sp.u.zeros)
    atoms = 1.0 / np.sum((1.0 - np.abs(a) ** 2) / np.abs(data.points[:, None] - a) ** 2, axis=1)
    assert np.max(np.abs(data.weights - atoms) / atoms) <= 1e-12


@functools.lru_cache(maxsize=None)
def _closed_form_shift(u):
    """S, K_0 and Kt_0 entry by entry from the zeros."""
    a = np.asarray(u.zeros)
    n = a.size
    w = np.sqrt(1.0 - np.abs(a) ** 2)
    s = np.diag(a)
    for j in range(n):
        for k in range(j):
            s[j, k] = w[j] * w[k] * np.prod(-np.conj(a[k + 1:j]))
    k0 = np.array([w[k] * np.prod(-np.conj(a[:k])) for k in range(n)])
    kt0 = np.array([u.rotation * w[k] * np.prod(-a[k + 1:]) for k in range(n)])
    return s, k0, kt0


def _closed_form_s_alpha(u, alpha):
    """S_alpha = S + alpha/(1 - alpha conj(u(0))) K_0 (x) Kt_0, entry by entry from the zeros."""
    s, k0, kt0 = _closed_form_shift(u)
    gain = alpha / (1.0 - alpha * np.conj(u.evaluate(0.0)))
    return s + gain * np.outer(k0, np.conj(kt0))


def _assert_match(roots, reference, tol):
    match = np.abs(roots[:, None] - reference[None, :])
    assert np.max(np.min(match, axis=1)) <= tol
    assert np.max(np.min(match, axis=0)) <= tol


def _check_circle_route(u):
    # u(1) and u(-1) put a root on the seam of [-pi, pi]
    for alpha in (1.0, -1.0, 1j, np.exp(0.7j), u.evaluate(1.0), u.evaluate(-1.0)):
        roots = u.solve_equals(alpha)
        assert roots.shape == (u.degree,)
        gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(u.degree)
        assert np.min(gaps) > 1e-6
        _assert_match(roots, np.linalg.eigvals(_closed_form_s_alpha(u, alpha)), 1e-12)
        assert np.max(np.abs(u.evaluate(roots) - alpha)) <= 1e-12
        assert np.max(np.abs(np.abs(roots) - 1.0)) <= 1e-15
        assert np.array_equal(roots, roots[np.lexsort((np.abs(roots), np.angle(roots)))])


def test_circle_route_matches_clark_spectrum(stress_family, stress_spaces):
    _check_circle_route(stress_spaces[stress_family].u)


@pytest.mark.parametrize("seed, degree", [(640, 64), (1280, 128)])
def test_circle_route_on_random_degrees(seed, degree):
    _check_circle_route(sample_blaschke(np.random.default_rng(seed), degree))


def _inclusion_radii(u, alpha, roots):
    """Radii n |W_j| of Smith's inclusion discs about the roots of N = Q (u - alpha).

    W_j = N(z_j) / (c_n prod_{k != j} (z_j - z_k)) is the Weierstrass correction,
    with c_n = rotation (1 - alpha conj(u(0))) the leading coefficient of N.  The
    discs |z - z_j| <= n |W_j| cover the solutions, and a disc disjoint from the
    others holds exactly one (B. T. Smith, J. ACM 17, 1970).
    """
    a = np.asarray(u.zeros)
    dist = np.abs(roots[:, None] - roots[None, :]) + np.eye(roots.size)
    log_w = (np.log(np.abs(u.evaluate(roots) - alpha))
             + np.log(np.abs(1.0 - np.conj(a)[None, :] * roots[:, None])).sum(axis=1)
             - np.log(dist).sum(axis=1) - np.log(abs(1.0 - alpha * np.conj(u.evaluate(0.0)))))
    return roots.size * np.exp(log_w)


# 2.2e-311 is subnormal; like every |alpha| <= eps it is answered by the zeros of u.
# At 1e-15 some solutions round to zeros of u, where the sweeps read u' from
# leave-one-out products.
INTERIOR_MODULI = (2.2e-311, 1e-15, 1e-10, 1e-4, 0.3, 0.9, 1.0 - 1e-7)


def _check_interior_route(u, alpha):
    roots = u.solve_equals(alpha)
    assert roots.shape == (u.degree,)
    assert np.max(np.abs(u.evaluate(roots) - alpha)) <= 1e-12
    assert np.all(np.abs(roots) < 1.0)
    assert np.array_equal(roots, roots[np.lexsort((np.abs(roots), np.angle(roots)))])
    if abs(alpha) <= np.finfo(float).eps:
        # the zeros of u solve u = alpha to the residual |alpha|
        assert np.array_equal(np.sort_complex(roots), np.sort_complex(np.asarray(u.zeros)))
        return
    with np.errstate(divide="ignore"):  # a residual of exactly 0 gives a disc of radius 0
        radii = _inclusion_radii(u, alpha, roots)
    gaps = np.abs(roots[:, None] - roots[None, :]) - radii[:, None] - radii[None, :]
    assert np.max(radii) <= 1e-12
    assert np.min(gaps + 3.0 * np.eye(u.degree)) > 0.0
    # Below |alpha| = 1e-4 eigvals itself misses by up to 1e-7: there the
    # eigenvalues of S_alpha are conditioned like 1/|u'| at the solutions, while
    # the product form pins them to about |alpha|/|u'|; the discs above bound them.
    if abs(alpha) >= 1e-4:
        _assert_match(roots, np.linalg.eigvals(_closed_form_s_alpha(u, alpha)), 1e-12)


@pytest.mark.parametrize("modulus", INTERIOR_MODULI)
def test_interior_route_matches_generalized_shift(stress_family, stress_spaces, modulus):
    _check_interior_route(stress_spaces[stress_family].u, modulus * np.exp(0.7j))


def test_interior_route_on_symmetric_family(stress_spaces):
    # conjugate-closed zeros and real alpha: the Clark points of 1 sit between the
    # zeros, on lines of symmetry that the solutions avoid; seeds there stay on
    # them until rounding breaks the symmetry (67 sweeps at alpha = 0.5).  At
    # 1e-15 a sweep lands on zeros of u, which must still take a finite step.
    u = stress_spaces["near circle 0.995 x8"].u
    for alpha in (0.5, 0.3, -0.5, 1e-10, 1e-15):
        _check_interior_route(u, alpha)
        assert u._interior_preimages(alpha)[1] <= 8


@pytest.mark.parametrize("seed, degree", [(641, 64), (1281, 128), (2561, 256)])
@pytest.mark.parametrize("modulus", INTERIOR_MODULI)
def test_interior_route_on_random_degrees(seed, degree, modulus):
    _check_interior_route(sample_blaschke(np.random.default_rng(seed), degree),
                          modulus * np.exp(2.1j))


def test_no_route_needs_an_eigensolver(stress_spaces, monkeypatch):
    # preimages come from the phase of u on the circle and from Aberth sweeps inside
    def refuse(*_args, **_kwargs):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    for family in ("near circle 0.995 x8", "random 64"):
        u = stress_spaces[family].u
        for alpha in (np.exp(0.7j), 0.5, 0.3j, 1e-10):
            roots = u.solve_equals(alpha)
            assert roots.shape == (u.degree,)
            assert np.max(np.abs(u.evaluate(roots) - alpha)) <= 1e-12


@pytest.mark.parametrize("alpha, route", [(0.3j, "interior"), (np.exp(0.7j), "circle")],
                         ids=["interior", "circle"])
def test_root_solve_error_names_route(stress_spaces, monkeypatch, alpha, route):
    # an evaluation off by 1e-6 fails the residual gate on either route
    evaluate = BlaschkeProduct.evaluate
    monkeypatch.setattr(BlaschkeProduct, "evaluate",
                        lambda self, z: evaluate(self, z) + 1e-6)
    with pytest.raises(RootSolveError) as info:
        stress_spaces["random 16"].u.solve_equals(alpha)
    message = str(info.value)
    assert f"{route} route, degree 16, alpha {complex(alpha)}," in message
    assert re.search(r", [1-9][0-9]* sweeps, worst residual 1\.000e-06", message), message


@pytest.mark.parametrize("gap", [1e-10, 1e-11, 5e-12])
def test_crofoot_refuses_alpha_with_preimage_on_circle(stress_spaces, gap):
    # the solutions of u = alpha sit 7e-13 to 4e-14 from the circle
    with pytest.raises(AlphaOnCircle, match=f"1 - {gap:.3e} puts a solution of u = alpha"):
        crofoot(stress_spaces["random 128"], 1.0 - gap)


@pytest.mark.parametrize("family, alpha", [
    ("repeated 0.5 x16", -0.4),
    ("random 64", 0.5),
])
def test_crofoot_on_stress_families(stress_spaces, family, alpha):
    sp = stress_spaces[family]
    transform = crofoot(sp, alpha)
    assert transform.source.dim == sp.dim
    assert np.linalg.norm(transform.mat.conj().T @ transform.mat - np.eye(sp.dim), 2) <= 1e-9


@pytest.mark.parametrize("u, gap", [
    (sample_blaschke(np.random.default_rng(16), 16), 1e-6),
    (sample_blaschke(np.random.default_rng(128), 128), 1e-5),
    (BlaschkeProduct((0.995,) * 8), 1e-4),
], ids=["random 16", "random 128", "repeated 0.995 x8"])
def test_crofoot_reaches_near_the_circle(u, gap):
    # the kernel-frame product stays unitary to 1e-9 this close to the circle,
    # where the unitarity residual of a Stein solve read 2.4e-9 to 4.8e-9
    transform = crofoot(ModelSpace(u), (1.0 - gap) * np.exp(0.4j))
    assert transform.unitarity_residual <= 1e-9


REACH_FAMILIES = {
    "random 16": STRESS_FAMILIES["random 16"],
    "random 128": STRESS_FAMILIES["random 128"],
    "near circle 0.995 x8": STRESS_FAMILIES["near circle 0.995 x8"],
    "repeated 0.99 x32": BlaschkeProduct((0.99,) * 32),
    "repeated 0.5 x16": STRESS_FAMILIES["repeated 0.5 x16"],
}


@pytest.mark.parametrize("family", REACH_FAMILIES)
def test_crofoot_is_unitary_at_every_angle_near_the_circle(family):
    # in the Clark basis at alpha/|alpha| no phase depends on the angle of alpha,
    # so T stays unitary at every angle down to 1 - |alpha| = 1e-8
    sp = ModelSpace(REACH_FAMILIES[family])
    for angle in np.pi * np.arange(12) / 6 + 0.4:
        for gap in (1e-4, 1e-6, 1e-8):
            alpha = (1.0 - gap) * np.exp(1j * angle)
            transform = crofoot(sp, alpha)
            assert transform.unitarity_residual <= 1e-12, (angle, gap)
            t = transform.mat
            shift_gap = t.conj().T @ generalized_shift(sp, alpha).mat @ t - compressed_shift(
                transform.source).mat
            assert spectral_norm(shift_gap) <= 1e-12, (angle, gap)


def test_crofoot_refusal_names_the_residual_and_bound(monkeypatch, stress_spaces):
    # a target basis scaled by 2 makes T^* T = 4 I, so the gate reads 3
    original = ModelSpace._clark_basis
    monkeypatch.setattr(ModelSpace, "_clark_basis",
                        lambda self, beta: (lambda z, v, r: (z, 2.0 * v, r))(
                            *original(self, beta)))
    with pytest.raises(NumericalFailure) as info:
        crofoot(stress_spaces["random 16"], (1.0 - 1e-7) * np.exp(0.4j))
    assert str(info.value) == "Crofoot matrix unitarity residual 3.000e+00 above 1e-9"


def test_build_frame_keeps_near_circle_operators_accurate():
    # |u(0)| = 0.923 here: in the frame at u = 1 the gain 1/(1 - conj(u(0))) of S_1
    # is about 13 and these gaps read 2.3e-12 to 4.9e-12; at -u(0)/|u(0)|,
    # where |1 - conj(beta) u(0)| = 1 + |u(0)|, they stay below 8e-13
    sp = ModelSpace(BlaschkeProduct((0.995,) * 16))
    rng = np.random.default_rng(0)
    for _ in range(8):
        sym = sample_symbol(sp, rng)
        ref = build_refined(sp, lambda pts, uv: symbol_values(sym, sp, pts, uv)).mat
        assert spectral_norm(build_tto(sp, sym).mat - ref) <= 1.5e-12 * spectral_norm(ref)


@pytest.mark.parametrize("zeros", [(0.99,) * 16, (0.995,) * 16, (0.99,) * 32],
                         ids=["0.99 x16", "0.995 x16", "0.99 x32"])
def test_clark_divided_terms_match_the_crofoot_route(zeros):
    # (N/q_out + a/q_in)/(1 - alpha conj(u)) compresses to T A'_{N/q_out} T^* + A_{a/q_in},
    # with A' on K_{u_alpha}, whose zeros lie 1e-4 from the circle at |alpha| = 0.8;
    # quadrature of these terms on K_u stopped "still moving at 262144 points"
    sp = ModelSpace(BlaschkeProduct(zeros))
    rng = np.random.default_rng(1)
    for k in range(4):
        alpha = 0.8 * np.exp(2j * np.pi * rng.uniform())
        inner = [0.6 * np.exp(2j * np.pi * rng.uniform())] * 2
        outer = [1.7 * np.exp(2j * np.pi * rng.uniform())] * 3
        if k % 2:
            inner, outer = [inner[0], 0.4j], outer[:2]
        q_in, q_out = npoly.polyfromroots(inner), npoly.polyfromroots(outer)
        num = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a = rng.standard_normal(len(inner)) + 1j * rng.standard_normal(len(inner))
        pair = RationalPair(tuple(npoly.polyadd(npoly.polymul(num, q_in), npoly.polymul(a, q_out))),
                            tuple(npoly.polymul(q_in, q_out)))
        closed = build_tto(sp, SymbolExpr(rational_terms=(RationalTerm(pair, alpha),))).mat
        transform = crofoot(sp, alpha)
        analytic = build_tto(transform.source, SymbolExpr(
            rational_terms=(RationalTerm(RationalPair(tuple(num), tuple(q_out))),)))
        coanalytic = build_tto(sp, SymbolExpr(
            rational_terms=(RationalTerm(RationalPair(tuple(a), tuple(q_in))),)))
        ref = transform.map_to_target(analytic).mat + coanalytic.mat
        assert spectral_norm(closed - ref) <= 1e-10 * max(1.0, spectral_norm(ref)), (k, alpha)


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
