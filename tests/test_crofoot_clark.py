import json
import warnings

import numpy as np
import pytest

from ttolab import (
    AlphaNotUnimodular,
    AlphaOnCircle,
    BlaschkeProduct,
    IntertwineReport,
    ModelSpace,
    NumericalFailure,
    OutsideClosedDisc,
    QuadratureError,
    SpaceMismatch,
    SymbolExpr,
    build_clark_fraction_tto,
    build_refined,
    build_tto,
    circle_grid,
    clark_data,
    classify_unitary,
    commutant_check,
    commutant_symbol,
    compressed_shift,
    crofoot,
    crofoot_intertwine_check,
    disc_automorphism,
    fraction_invertibility_margin,
    functional_calculus,
    generalized_shift,
    invertibility_criterion,
    level_set_blaschke,
    multiplicativity_check,
    rank_one_boundary,
    rank_one_interior,
    reduce_mod_level_set,
    sample_blaschke,
)
from ttolab import crofoot_clark
from ttolab.classification import commutant_residual
from ttolab.sampling import sample_polynomial
from ttolab.tto import spectral_norm
from ttolab.verify import _power_sum

from conftest import stein_solve


def test_disc_automorphism_basics():
    assert disc_automorphism(0.3 - 0.2j, 0.3 - 0.2j) == pytest.approx(0.0)
    assert disc_automorphism(0.7j, 0.0) == pytest.approx(0.7j)
    # unimodular in, unimodular out
    w = np.exp(1.3j)
    assert abs(disc_automorphism(w, 0.4 + 0.1j)) == pytest.approx(1.0)


def test_level_set_blaschke_monomial(z2):
    ua = level_set_blaschke(z2.u, 0.25)
    assert np.allclose(np.sort_complex(np.asarray(ua.zeros)), [-0.5, 0.5], atol=1e-12)
    assert ua.rotation == pytest.approx(1.0, abs=1e-12)
    # u_alpha = tau_alpha(u) pointwise on the circle
    pts = np.exp(1j * np.linspace(0.1, 6.0, 13))
    assert np.allclose(ua.evaluate(pts), disc_automorphism(z2.u.evaluate(pts), 0.25),
                       atol=1e-12)


def test_level_set_blaschke_generic(triple_space):
    alpha = 0.2 - 0.4j
    ua = level_set_blaschke(triple_space.u, alpha)
    assert ua.degree == 3
    pts = np.exp(1j * np.linspace(0.0, 6.2, 17))
    assert np.allclose(ua.evaluate(pts),
                       disc_automorphism(triple_space.u.evaluate(pts), alpha), atol=1e-10)


def test_level_set_rejects_circle_alpha(z2):
    with pytest.raises(AlphaOnCircle):
        level_set_blaschke(z2.u, 1.0)


def test_crofoot_transform_is_unitary(pair_space, triple_space):
    for sp, alpha in ((pair_space, 0.3), (triple_space, -0.2 + 0.4j)):
        t = crofoot(sp, alpha)
        assert t.source.dim == sp.dim
        assert t.unitarity_residual == spectral_norm(t.mat.conj().T @ t.mat - np.eye(sp.dim))
        assert np.max(np.abs(t.mat.conj().T @ t.mat - np.eye(sp.dim))) < 1e-9
        assert np.max(np.abs(t.mat @ t.mat.conj().T - np.eye(sp.dim))) < 1e-9


def test_crofoot_maps_shift_to_generalized_shift(pair_space):
    # T S^{u_alpha} T^* = S_alpha on K_u: the core intertwining special case
    alpha = 0.3
    t = crofoot(pair_space, alpha)
    mapped = t.map_to_target(compressed_shift(t.source))
    assert np.max(np.abs(mapped.mat - generalized_shift(pair_space, alpha).mat)) < 1e-10


def test_crofoot_apply_preserves_norm(pair_space, rng):
    t = crofoot(pair_space, 0.25j)
    f = t.source.vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    assert t.apply(f).norm() == pytest.approx(f.norm(), rel=1e-10)


def test_crofoot_apply_rejects_a_target_vector(pair_space):
    t = crofoot(pair_space, 0.25j)
    with pytest.raises(SpaceMismatch):
        t.apply(t.target.vector(np.ones(2)))


def test_crofoot_round_trip(pair_space, rng):
    t = crofoot(pair_space, 0.4)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    back = t.map_to_source(t.map_to_target(a).mat)
    assert np.max(np.abs(back.mat - a)) < 1e-10


def _quadrature_crofoot(transform):
    """T by pairing the source and target bases on the finer of their two grids."""
    target, source, alpha = transform.target, transform.source, transform.alpha
    n_common = max(target.quad_points, source.quad_points)
    grid = circle_grid(n_common)
    weight = (1.0 - abs(alpha) ** 2) ** -0.5 * (1.0 - np.conj(alpha) * target.u.evaluate(grid))
    e_tgt, e_src = target.basis_values_at(grid), source.basis_values_at(grid)
    return e_tgt.conj() @ (weight * e_src).T / n_common


@pytest.mark.parametrize("alpha", [0.0, 0.3 + 0.2j, -0.55])
def test_crofoot_stein_matches_quadrature(stress_spaces, stress_family, alpha):
    transform = crofoot(stress_spaces[stress_family], alpha)
    quad = _quadrature_crofoot(transform)
    assert np.linalg.norm(transform.mat - quad, 2) <= 1e-12 * np.linalg.norm(quad, 2)


@pytest.mark.parametrize("alpha", [0.0, 0.3 + 0.2j, -0.55])
def test_crofoot_matches_stein_solve(stress_spaces, stress_family, alpha):
    # an independent oracle for the kernel-frame product: T is also the solution of
    # T - S_alpha T S'^* = (T K'_0) (x) K'_0 with T K'_0 = gain K_0
    sp = stress_spaces[stress_family]
    transform = crofoot(sp, alpha)
    s_src, k0_src, _ = transform.source.u.shift_data
    gain = np.sqrt(1.0 - abs(alpha) ** 2) / (1.0 - alpha * np.conj(sp.u.value_at_zero))
    stein = stein_solve(generalized_shift(sp, alpha).mat, s_src.conj().T,
                        np.outer(gain * sp.k0.coords, np.conj(k0_src)))
    assert spectral_norm(transform.mat - stein) <= 1e-12


def test_crofoot_solves_on_the_circle_at_alpha_over_its_modulus(monkeypatch):
    # T = V V'^* in the Clark basis at beta = alpha/|alpha| (1 at alpha = 0), built
    # afresh: a call solves u = alpha and u = beta, and caches no frame
    calls = []
    original = BlaschkeProduct.solve_equals

    def counting(self, alpha):
        calls.append(complex(alpha))
        return original(self, alpha)

    monkeypatch.setattr(BlaschkeProduct, "solve_equals", counting)
    sp = ModelSpace(BlaschkeProduct((0.5, 0.5, -0.2)))
    for alpha in (0.3, -0.2 + 0.4j, 0.0):
        crofoot(sp, alpha)
    assert calls == [0.3, 1.0, -0.2 + 0.4j, (-0.2 + 0.4j) / abs(-0.2 + 0.4j), 0.0, 1.0]
    assert "_clark_frame" not in vars(sp)


def test_a_space_caches_one_read_only_clark_frame(monkeypatch):
    # build_tto and the conjugation read the frame at -u(0)/|u(0)|; crofoot and
    # clark_data build theirs afresh and must not grow the space's state
    calls = []
    original = BlaschkeProduct.solve_equals
    monkeypatch.setattr(BlaschkeProduct, "solve_equals",
                        lambda self, alpha: calls.append(complex(alpha)) or original(self, alpha))
    sp = ModelSpace(BlaschkeProduct((0.5, 0.5, -0.2)))
    build_tto(sp, SymbolExpr(analytic=sp.k0, coanalytic=sp.kt0))
    state = set(vars(sp)) | set(sp._op_cache)
    for alpha in (0.3, -0.2 + 0.4j, 0.0):
        crofoot(sp, alpha)
    for t in (0.1, 0.7, 2.0):
        clark_data(sp, np.exp(1j * t))
    assert "_clark_frame" in state and set(vars(sp)) | set(sp._op_cache) == state
    assert calls.count(sp._frame_point) == 1
    points, kernels = sp._clark_frame
    assert not points.flags.writeable and not kernels.flags.writeable


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_crofoot_rejects_non_finite_source_kernels(monkeypatch, value):
    # a non-finite kernel of K_{u_alpha} is refused before the unitarity gate,
    # whose SVD would raise LinAlgError on it
    sp = ModelSpace(BlaschkeProduct((0.5, -0.3j)))
    original = ModelSpace.basis_values_at

    def poisoned(self, points):
        values = original(self, points)
        if self is not sp:
            values[0, 0] = value
        return values

    monkeypatch.setattr(ModelSpace, "basis_values_at", poisoned)
    # the norm of an infinite entry is NaN, with numpy's invalid-value warning
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericalFailure, match="angular derivative vanished at a Clark point"):
        crofoot(sp, 0.3)


def test_crofoot_gates_refuse_nan(monkeypatch, pair_space):
    # each gate reads `not residual <= bound`, so a NaN residual is refused
    monkeypatch.setattr(crofoot_clark, "DRIFT_POINTS", np.array([np.nan, 1j]))
    with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure, match="drifts"):
        crofoot(pair_space, 0.3)
    monkeypatch.undo()
    # a non-finite T reaches the unitarity gate, whose norm decision refuses it
    original = ModelSpace._clark_basis
    monkeypatch.setattr(ModelSpace, "_clark_basis",
                        lambda self, beta: (lambda z, v, r: (z, v * np.nan, r))(
                            *original(self, beta)))
    with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure,
                                                      match="residual nan is not finite"):
        crofoot(pair_space, 0.3)
    monkeypatch.undo()
    monkeypatch.setattr(crofoot_clark, "disc_automorphism", lambda w, alpha: np.nan)
    with pytest.raises(NumericalFailure, match="rotation modulus"):
        level_set_blaschke(pair_space.u, 0.3)


def test_crofoot_intertwining_polynomial_symbols(triple_space):
    t = crofoot(triple_space, 0.2 + 0.1j)
    for coeffs in ([0.0, 1.0], [1.0, -0.5, 2.0], [0.3j, 0.0, 1.0, -1.0]):
        report = crofoot_intertwine_check(t, np.array(coeffs, dtype=complex))
        assert report.max_residual < 1e-8


def test_intertwine_report_keeps_a_failed_conjugate_quadrature(triple_space, monkeypatch):
    # only the conjugate side refines a quadrature; its failure is recorded, and
    # the analytic residual and the norm gap read as they do without it
    message = "symbol compression still moving at 262144 points"

    def refuse(space, values_fn):
        raise QuadratureError(message)

    t = crofoot(triple_space, 0.2 + 0.1j)
    coeffs = np.array([1.0, -0.5, 2.0], dtype=complex)
    full = crofoot_intertwine_check(t, coeffs)
    monkeypatch.setattr(crofoot_clark, "build_refined", refuse)
    report = crofoot_intertwine_check(t, coeffs)
    assert report.conjugate_error == message and not full.conjugate_error
    assert report.residual_conjugate == np.inf and report.max_residual == np.inf
    assert np.isfinite(report.norm_gap) and report.norm_gap == full.norm_gap
    assert report.residual_analytic == full.residual_analytic


def test_fraction_phi_one_is_identity(z2, triple_space):
    for sp in (z2, triple_space):
        a = build_clark_fraction_tto(sp, np.array([1.0]), 0.4)
        assert np.max(np.abs(a.mat - np.eye(sp.dim))) < 1e-10


def test_fraction_phi_z_is_generalized_shift(z2):
    a = build_clark_fraction_tto(z2, np.array([0.0, 1.0]), 0.3)
    assert np.allclose(a.mat, [[0.0, 0.3], [1.0, 0.0]], atol=1e-12)


CLOSED_FORM_ZEROS = {
    "repeated 0.9 x8": (0.9,) * 8,
    "repeated 0.5 x16": (0.5,) * 16,
    "cluster of 12": tuple(0.7 + 0.05 * np.exp(2j * np.pi * k / 12) for k in range(12)),
    "near circle 0.995": tuple(0.995 * np.exp(2j * np.pi * (k + 0.5) / 8) for k in range(8)),
    "random 8": sample_blaschke(np.random.default_rng(8), 8).zeros,
    "random 16": sample_blaschke(np.random.default_rng(16), 16).zeros,
    "random 64": sample_blaschke(np.random.default_rng(64), 64).zeros,
}


@pytest.mark.parametrize("family", CLOSED_FORM_ZEROS)
def test_fraction_closed_form_matches_quadrature(family):
    # phi(S_alpha) built from its type-alpha symbol against the refined quadrature
    # of the fraction symbol, at |alpha| = 0.5, at alpha = 0 (plain A_phi) and
    # above the dimension
    sp = ModelSpace(BlaschkeProduct(CLOSED_FORM_ZEROS[family]))
    rng = np.random.default_rng(len(family))
    n = sp.dim
    cases = [(n - 1, 0.5j), (n - 1, 0.0)]
    if n <= 16:
        cases.append((2 * n + 1, -0.4 + 0.3j))
    for degree, alpha in cases:
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        built = build_clark_fraction_tto(sp, coeffs, alpha).mat
        quad = build_refined(
            sp, lambda pts, uv: np.polynomial.polynomial.polyval(pts, coeffs)
            / (1.0 - alpha * np.conj(uv))).mat
        assert np.linalg.norm(built - quad, 2) <= 1e-10 * np.linalg.norm(quad, 2)


@pytest.mark.parametrize("alpha", [0.3 + 0.2j, -0.55])
def test_source_operator_matches_quadrature(stress_family, stress_spaces, alpha):
    # crofoot_intertwine_check builds phi(S') on K_{u_alpha} from the analytic
    # symbol P phi; the refined quadrature of phi there is the comparison the
    # check no longer makes
    transform = crofoot(stress_spaces[stress_family], alpha)
    src = transform.source
    coeffs = sample_polynomial(np.random.default_rng(src.dim), src.dim)
    built = build_tto(src, SymbolExpr(analytic=reduce_mod_level_set(transform, coeffs))).mat
    quad = build_refined(src, lambda pts, uv: np.polynomial.polynomial.polyval(pts, coeffs)).mat
    assert np.linalg.norm(built - quad, 2) <= 1e-12 * np.linalg.norm(quad, 2)


@pytest.mark.parametrize("family", ["random 64", "random 128"])
def test_fraction_route_matches_power_sum_at_large_degree(stress_spaces, family):
    # the vector-Horner and Clark-frame route against sum c_k S_alpha^k from explicit
    # powers, at degrees n-1 and 2n+1
    sp = stress_spaces[family]
    n = sp.dim
    rng = np.random.default_rng(n)
    alpha = -0.4 + 0.3j
    s_alpha = generalized_shift(sp, alpha).mat
    for degree in (n - 1, 2 * n + 1):
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        built = build_clark_fraction_tto(sp, coeffs, alpha).mat
        direct = _power_sum(s_alpha, coeffs)
        assert spectral_norm(built - direct) <= 1e-12 * spectral_norm(direct)
        assert commutant_residual(sp, built, alpha) <= 1e-12


def test_fraction_vector_and_polynomial_routes_agree(triple_space):
    alpha = 0.35 - 0.15j
    coeffs = np.array([0.5, -1.0j, 2.0])
    # express the polynomial as a K_u vector by sampling: p lies in K_{z^3}
    # only for u = z^3, so project through the basis here instead
    grid_vals = np.polynomial.polynomial.polyval(triple_space.grid, coeffs)
    proj = triple_space.basis_values.conj() @ (grid_vals) / triple_space.quad_points
    vec = triple_space.vector(proj)
    a_poly = build_clark_fraction_tto(triple_space, coeffs, alpha).mat
    a_vec = build_clark_fraction_tto(triple_space, vec, alpha).mat
    # the two differ by the projection residual; compare through the operator
    # their difference must still be a fraction operator of the residual symbol
    from ttolab import is_tto

    assert is_tto(triple_space, a_poly).passed
    assert is_tto(triple_space, a_vec).passed
    # and on a monomial space (polynomials already in K_u) they agree exactly
    z3 = ModelSpace(BlaschkeProduct((0.0, 0.0, 0.0)))
    v = z3.vector(coeffs)
    assert np.max(np.abs(build_clark_fraction_tto(z3, coeffs, alpha).mat
                         - build_clark_fraction_tto(z3, v, alpha).mat)) < 1e-10


def test_reduce_mod_level_set(z2):
    # P z^3 on K_{u_alpha}, u_alpha zeros +-0.5: agrees with z^3 there, and with the
    # remainder of z^3 mod (z^2 - 0.25), which is 0.25 z
    transform = crofoot(z2, 0.25)
    reduced = reduce_mod_level_set(transform, np.array([0.0, 0.0, 0.0, 1.0]))
    assert reduced.space is transform.source
    assert np.allclose(reduced.evaluate(np.array([0.5, -0.5])), [0.125, -0.125], atol=1e-12)
    remainder = reduce_mod_level_set(transform, np.array([0.0, 0.25]))
    assert np.allclose(reduced.coords, remainder.coords, atol=1e-12)
    # low-degree polynomials keep their values on the level set
    passthrough = reduce_mod_level_set(transform, np.array([1.0, 2.0]))
    assert np.allclose(passthrough.evaluate(np.array([0.5, -0.5])), [2.0, 0.0])


def test_reduction_preserves_fraction_operator(triple_space):
    # phi(S_alpha) = T A_{P phi} T^* with P phi in K_{u_alpha}
    alpha = 0.3j
    coeffs = np.array([1.0, 0.5, -2.0, 1.0j, 0.25])
    transform = crofoot(triple_space, alpha)
    reduced = reduce_mod_level_set(transform, coeffs)
    assert reduced.space.dim == 3
    a = build_clark_fraction_tto(triple_space, coeffs, alpha).mat
    b = transform.map_to_target(build_tto(transform.source, SymbolExpr(analytic=reduced))).mat
    assert np.max(np.abs(a - b)) < 1e-9


def test_multiplicativity_frozen(z2):
    # z * z at alpha 0.3: S_alpha^2 = 0.3 I exactly
    res = multiplicativity_check(z2, [0.0, 1.0], [0.0, 1.0], 0.3)
    assert res < 1e-12
    sq = build_clark_fraction_tto(z2, np.array([0.0, 0.0, 1.0]), 0.3)
    assert np.allclose(sq.mat, 0.3 * np.eye(2), atol=1e-12)


def test_multiplicativity_random(triple_space, rng):
    for _ in range(5):
        phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        alpha = 0.5 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        assert multiplicativity_check(triple_space, phi, psi, alpha) < 1e-8


def test_invertibility_frozen_cases(z2):
    # phi = z vanishes at the zeros of u_0 = z^2
    assert not invertibility_criterion(z2, np.array([0.0, 1.0]), 0.0)
    # phi = z - 2 never vanishes on the disc
    assert invertibility_criterion(z2, np.array([-2.0, 1.0]), 0.0)
    # phi = z - 0.5 vanishes at a zero of u_{0.25}
    assert not invertibility_criterion(z2, np.array([-0.5, 1.0]), 0.25)


def test_invertibility_matches_singular_values(triple_space, rng):
    for _ in range(10):
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        alpha = 0.5 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        a = build_clark_fraction_tto(triple_space, coeffs, alpha).mat
        sigma_min = np.linalg.svd(a, compute_uv=False)[-1]
        verdict = invertibility_criterion(triple_space, coeffs, alpha)
        assert verdict == (sigma_min > 1e-8 * max(1.0, np.linalg.norm(coeffs)))


def test_invertibility_margin_is_exact_spectral_gap(z2):
    # A_{phi/(1-a conj u)} = phi(S_a) has eigenvalues phi(zeros of u_alpha)
    margin = fraction_invertibility_margin(z2, np.array([-0.5, 1.0]), 0.25)
    assert margin == pytest.approx(0.0, abs=1e-10)
    margin = fraction_invertibility_margin(z2, np.array([-2.0, 1.0]), 0.0)
    assert margin == pytest.approx(2.0, abs=1e-12)


def test_clark_data_monomial(z2):
    data = clark_data(z2, 1.0)
    assert np.allclose(np.sort_complex(data.points), [-1.0, 1.0], atol=1e-10)
    assert np.allclose(data.weights, [0.5, 0.5], atol=1e-12)
    assert data.total_mass == pytest.approx(1.0)


def test_clark_data_reads_atoms_off_kernel_norms(monkeypatch):
    # the atoms 1/|u'| are 1/||k_zeta||^2 of the kernels clark_data builds anyway
    calls = []
    original = BlaschkeProduct.derivative

    def counting(self, z):
        calls.append(z)
        return original(self, z)

    monkeypatch.setattr(BlaschkeProduct, "derivative", counting)
    sp = ModelSpace(BlaschkeProduct((0.5, 0.5, -0.2)))
    clark_data(sp, 1j)
    assert calls == []


@pytest.mark.parametrize("column", [0.0, np.nan])
def test_clark_data_rejects_vanishing_kernel_norms(monkeypatch, column):
    # a NaN norm fails the guard as a zero one does
    sp = ModelSpace(BlaschkeProduct((0.5, -0.3j)))
    monkeypatch.setattr(ModelSpace, "basis_values_at",
                        lambda self, pts: np.full((self.dim, len(pts)), column, dtype=complex))
    with pytest.raises(NumericalFailure, match="angular derivative vanished at a Clark point"):
        clark_data(sp, 1.0)


def test_clark_points_solve_level_equation(triple_space):
    alpha = np.exp(0.8j)
    data = clark_data(triple_space, alpha)
    assert np.max(np.abs(np.abs(data.points) - 1.0)) < 1e-10
    assert np.max(np.abs(triple_space.u.evaluate(data.points) - alpha)) < 1e-9


def test_clark_mass_identity(pair_space):
    alpha = np.exp(2.1j)
    data = clark_data(pair_space, alpha)
    u0 = pair_space.u.evaluate(0.0)
    expected = pair_space.k0.norm() ** 2 / abs(1.0 - np.conj(u0) * alpha) ** 2
    assert data.total_mass == pytest.approx(expected, rel=1e-10)


def test_clark_eigenvectors_diagonalize_shift(triple_space):
    alpha = np.exp(-0.5j)
    data = clark_data(triple_space, alpha)
    v = data.eigenvectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(3))) < 1e-9
    s = generalized_shift(triple_space, alpha).mat
    # the stored construction residuals are the ones a fresh computation gives
    assert data.ortho_residual == spectral_norm(v.conj().T @ v - np.eye(3))
    assert data.eigen_residual == spectral_norm(
        generalized_shift(triple_space, data.alpha).mat @ v - v * data.points[None, :])
    recon = v @ np.diag(data.points) @ v.conj().T
    assert np.max(np.abs(s - recon)) < 1e-9


def test_functional_calculus_frozen(z2):
    data = clark_data(z2, 1.0)
    order = np.argsort(data.points.real)
    vals = np.empty(2, dtype=complex)
    # value 1 at zeta=1, value 0 at zeta=-1: the projection onto K_1 direction
    vals[order[1]], vals[order[0]] = 1.0, 0.0
    proj = functional_calculus(data, vals)
    assert np.allclose(proj.mat, 0.5 * np.ones((2, 2)), atol=1e-10)
    vals[order[1]], vals[order[0]] = 1.0, -1.0
    flip = functional_calculus(data, vals)
    assert np.allclose(flip.mat, [[0.0, 1.0], [1.0, 0.0]], atol=1e-10)


def test_functional_calculus_reconstructs_shift(pair_space):
    alpha = np.exp(0.9j)
    data = clark_data(pair_space, alpha)
    rebuilt = functional_calculus(data, data.points)
    assert np.max(np.abs(rebuilt.mat - generalized_shift(pair_space, alpha).mat)) < 1e-9


def test_classify_unitary_recovers_clark_unitary(triple_space):
    alpha = np.exp(1.7j)
    verdict = classify_unitary(triple_space, generalized_shift(triple_space, alpha))
    assert verdict.unitary and not verdict.scalar
    assert verdict.alpha == pytest.approx(alpha, abs=1e-8)
    assert np.max(np.abs(np.abs(verdict.values) - 1.0)) < 1e-8


def test_classify_unitary_scalar_and_rejection(z2):
    eye = np.eye(2, dtype=complex)
    verdict = classify_unitary(z2, 1j * eye)
    assert verdict.unitary and verdict.scalar
    assert not classify_unitary(z2, 2.0 * eye).unitary
    assert not classify_unitary(z2, compressed_shift(z2).mat).unitary


def test_clark_json_round_trip(z2):
    data = clark_data(z2, 1.0)
    blob = json.loads(json.dumps(data.to_json()))
    assert blob["total_mass"] == pytest.approx(1.0)
    assert len(blob["points"]) == 2
    assert "eigenvectors" not in blob


def test_alpha_validation(z2):
    with pytest.raises(AlphaNotUnimodular):
        clark_data(z2, 0.5)
    with pytest.raises(AlphaOnCircle):
        crofoot(z2, np.exp(0.3j))
    with pytest.raises(AlphaOnCircle):
        build_clark_fraction_tto(z2, np.array([1.0]), 1.0)


BAD_COEFFS = {"empty": [], "nan": [np.nan, 1.0], "inf": [1.0, complex(0.0, np.inf)]}
POLYNOMIAL_ENTRY_POINTS = {
    "build_clark_fraction_tto": lambda sp, c: build_clark_fraction_tto(sp, c, 0.3),
    "reduce_mod_level_set": lambda sp, c: reduce_mod_level_set(crofoot(sp, 0.3), c),
    "fraction_invertibility_margin": lambda sp, c: fraction_invertibility_margin(sp, c, 0.3),
    "invertibility_criterion": lambda sp, c: invertibility_criterion(sp, c, 0.3),
    "multiplicativity_check": lambda sp, c: multiplicativity_check(sp, [1.0, 0.5], c, 0.3),
    "crofoot_intertwine_check": lambda sp, c: crofoot_intertwine_check(crofoot(sp, 0.3), c),
}


@pytest.mark.parametrize("coeffs", BAD_COEFFS)
@pytest.mark.parametrize("entry", POLYNOMIAL_ENTRY_POINTS)
def test_bad_polynomial_coefficients_raise(z2, entry, coeffs):
    with pytest.raises(ValueError, match="polynomial"):
        POLYNOMIAL_ENTRY_POINTS[entry](z2, BAD_COEFFS[coeffs])


NAN = complex(np.nan, 0.0)
NAN_GUARDS = {
    "solve_equals": (ValueError, lambda sp: sp.u.solve_equals(NAN)),
    "generalized_shift": (ValueError, lambda sp: generalized_shift(sp, NAN)),
    "kernel": (OutsideClosedDisc, lambda sp: sp.kernel(NAN)),
    "level_set_blaschke": (AlphaOnCircle, lambda sp: level_set_blaschke(sp.u, NAN)),
    "crofoot": (AlphaOnCircle, lambda sp: crofoot(sp, NAN)),
    "build_clark_fraction_tto": (AlphaOnCircle,
                                 lambda sp: build_clark_fraction_tto(sp, [1.0, 2.0], NAN)),
    "clark_data": (AlphaNotUnimodular, lambda sp: clark_data(sp, NAN)),
    "rank_one_interior": (OutsideClosedDisc, lambda sp: rank_one_interior(sp, NAN)),
    "rank_one_boundary": (OutsideClosedDisc, lambda sp: rank_one_boundary(sp, NAN)),
    "commutant_symbol": (ValueError, lambda sp: commutant_symbol(sp, np.eye(sp.dim), NAN)),
    "commutant_check": (ValueError, lambda sp: commutant_check(sp, np.eye(sp.dim), NAN)),
}


@pytest.mark.parametrize("entry", NAN_GUARDS)
def test_nan_fails_range_guards(triple_space, entry):
    error, call = NAN_GUARDS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error):
            call(triple_space)


def test_intertwine_report_maximum_keeps_nan():
    # max(0.1, nan, 0.2) is 0.2: a NaN residual read as a small one
    assert np.isnan(IntertwineReport(0.1, np.nan, 0.2).max_residual)
