import json
import tracemalloc

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from ttolab import tto
from ttolab import (
    BlaschkeProduct,
    KernelShiftReport,
    ModelSpace,
    NotATTO,
    NumericalFailure,
    PoleOnCircle,
    QuadratureError,
    RationalPair,
    RationalTerm,
    SpaceMismatch,
    SymbolExpr,
    TTOMatrix,
    analytic_symbol,
    build_refined,
    build_tto,
    c_symmetry_residual,
    circle_grid,
    classify_type,
    coanalytic_symbol,
    commutant_check,
    commutant_residual,
    commutant_symbol,
    compressed_shift,
    defect,
    extract_symbol,
    generalized_shift,
    inverse_type_check,
    is_tto,
    kernel_shift_identities,
    outer,
    sample_symbol,
    sample_vector,
    symbol_from_json,
    symbols_equivalent,
)
from ttolab.model_space import MAX_QUAD_POINTS
from ttolab.sampling import (
    sample_blaschke,
    sample_disc_point,
    sample_notype_tto,
    sample_tto,
    sample_typed_tto,
)
from ttolab.tolerances import VERDICT_TOL
from ttolab.tto import _norm_at_most, spectral_norm

from conftest import STRESS_FAMILIES, pole_terms, stein_solve, symbol_values


def test_constant_symbol_gives_identity(z2):
    a = build_tto(z2, SymbolExpr(constant=3.0 - 1j))
    assert np.allclose(a.mat, (3.0 - 1j) * np.eye(2), atol=1e-13)


def test_symbol_z_gives_shift_matrix(z2):
    a = build_tto(z2, analytic_symbol(z2.vector([0.0, 1.0])))
    assert np.allclose(a.mat, [[0.0, 0.0], [1.0, 0.0]], atol=1e-13)
    assert np.allclose(compressed_shift(z2).mat, a.mat, atol=1e-13)


def test_compressed_shift_is_nilpotent_jordan_block(z3):
    s = compressed_shift(z3).mat
    expected = np.diag([1.0, 1.0], -1)
    assert np.allclose(s, expected, atol=1e-13)


def test_coanalytic_symbol_is_adjoint_of_analytic(pair_space, rng):
    coords = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    f = pair_space.vector(coords)
    a = build_tto(pair_space, analytic_symbol(f))
    b = build_tto(pair_space, coanalytic_symbol(f))
    assert np.allclose(b.mat, a.mat.conj().T, atol=1e-12)


def test_generalized_shift_frozen_matrix(z2):
    alpha = 0.3 - 0.4j
    s = generalized_shift(z2, alpha)
    assert np.allclose(s.mat, [[0.0, alpha], [1.0, 0.0]], atol=1e-13)


def test_generalized_shift_unimodular_is_unitary(triple_space):
    s = generalized_shift(triple_space, np.exp(0.9j)).mat
    assert np.max(np.abs(s.conj().T @ s - np.eye(3))) < 1e-11


def test_generalized_shift_rejects_outside_disc(z2):
    with pytest.raises(ValueError):
        generalized_shift(z2, 1.5)


def test_shift_defect_identities_unnormalized(pair_space, triple_space):
    # I - S S* = K_0 (x) K_0 and I - S* S = Kt_0 (x) Kt_0 with raw kernels
    for sp in (pair_space, triple_space):
        s = compressed_shift(sp).mat
        eye = np.eye(sp.dim)
        assert np.max(np.abs(eye - s @ s.conj().T - outer(sp.k0, sp.k0))) < 1e-11
        assert np.max(np.abs(eye - s.conj().T @ s - outer(sp.kt0, sp.kt0))) < 1e-11


def test_backward_shift_formula(pair_space, rng):
    # S* f = (f - f(0))/z, checked pointwise
    s = compressed_shift(pair_space)
    f = pair_space.vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    g = s.adjoint().apply(f)
    for z in (0.4, -0.2 + 0.5j, 0.7j):
        assert g.evaluate(z) == pytest.approx((f.evaluate(z) - f.evaluate(0.0)) / z, abs=1e-11)


def test_shifted_conjugation_square(triple_space, rng):
    # (SC)^2 f = f - f(0) K_0
    sp = triple_space
    s = compressed_shift(sp)
    f = sp.vector(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    sc = lambda v: s.apply(sp.conjugate(v))
    lhs = sc(sc(f))
    rhs = f - complex(f.evaluate(0.0)) * sp.k0
    assert np.allclose(lhs.coords, rhs.coords, atol=1e-11)


def test_defect_of_identity_is_kernel_projection(pair_space):
    d = defect(pair_space, np.eye(2))
    assert np.allclose(d, outer(pair_space.k0, pair_space.k0), atol=1e-11)


def test_is_tto_matches_toeplitz_oracle_on_monomial_space(rng):
    # on K_{z^4} the truncated Toeplitz operators are exactly the Toeplitz matrices
    sp = ModelSpace(BlaschkeProduct((0.0,) * 4))
    for _ in range(50):
        diags = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        toep = np.array([[diags[3 + i - j] for j in range(4)] for i in range(4)])
        assert is_tto(sp, toep).passed
        generic = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        is_toeplitz = all(
            abs(generic[i, j] - generic[i + 1, j + 1]) < 1e-12
            for i in range(3) for j in range(3))
        assert is_tto(sp, generic).passed == is_toeplitz


def test_is_tto_rejects_single_entry_perturbation(z3):
    # the (2, 0) corner sits alone on its diagonal, so bumping it keeps the
    # matrix Toeplitz; bump an entry that shares a diagonal instead
    s = compressed_shift(z3).mat.copy()
    s[2, 0] += 0.05
    assert is_tto(z3, s).passed
    s = compressed_shift(z3).mat.copy()
    s[1, 0] += 0.05
    verdict = is_tto(z3, s)
    assert not verdict.passed
    assert verdict.residual > 1e-3


@pytest.mark.parametrize("entry", [1e308, float("inf"), float("nan")],
                         ids=["overflowing norm", "infinite entry", "nan entry"])
def test_is_tto_refuses_non_finite_norm(pair_space, entry):
    # an infinite norm made the threshold infinite, so every residual passed
    mat = np.full((2, 2), entry, dtype=complex)
    with pytest.raises(NumericalFailure, match="not finite"):
        is_tto(pair_space, mat)
    with pytest.raises(NumericalFailure, match="not finite"):
        classify_type(pair_space, mat)


NON_FINITE_ENTRY_POINTS = {
    "inverse_type_check": inverse_type_check,
    "commutant_residual": lambda sp, a: commutant_residual(sp, a, 0.5),
    "commutant_check": lambda sp, a: commutant_check(sp, a, 0.5),
    "commutant_symbol": lambda sp, a: commutant_symbol(sp, a, 0.5),
    "c_symmetry_residual": c_symmetry_residual,
    "TTOMatrix.norm": lambda sp, a: TTOMatrix(a, sp).norm(),
}


@pytest.mark.parametrize("entry", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("call", list(NON_FINITE_ENTRY_POINTS))
def test_non_finite_operator_raises_numerical_failure(pair_space, call, entry):
    # numpy's SVD raised LinAlgError on a NaN entry, an inf entry read a NaN
    # norm, and commutant_symbol returned NaN coordinates
    mat = 2.0 * np.eye(2, dtype=complex)
    mat[0, 1] = entry
    with pytest.raises(NumericalFailure, match="not finite"):
        NON_FINITE_ENTRY_POINTS[call](pair_space, mat)


# Relative perturbations eps ||A|| of a TTO, from none to rejection: those near
# VERDICT_TOL leave the residual inside the Frobenius bracket of the threshold.
PERTURBATIONS = (0.0, 1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 1e-6, 1e-4, 1e-2)
# Scales whose sums of squares underflow or overflow, applied at these eps.
EXTREME_SCALES = (1e-200, 1e-160, 1e150, 1e200)
SCALED_PERTURBATIONS = (0.0, 1e-8, 1e-2)


def _svd_norms(space, a):
    """Residual and threshold of the defect test, each from an SVD.

    The reference compresses the defect with a dense projector off K_0, a
    route independent of the one is_tto takes.
    """
    k0 = space.k0.coords
    pperp = np.eye(space.dim) - np.outer(k0, np.conj(k0)) / np.vdot(k0, k0).real
    comp = pperp @ defect(space, a) @ pperp
    return spectral_norm(comp), VERDICT_TOL * spectral_norm(a)


def test_certified_verdict_equals_svd_verdict(stress_family, stress_spaces):
    sp = stress_spaces[stress_family]
    rng = np.random.default_rng(sp.dim)
    bases = [sample_tto(sp, rng).mat,
             sample_typed_tto(sp, rng, sample_disc_point(rng)).mat,
             sample_notype_tto(sp, rng).mat]
    routes = set()
    for base in bases:
        for eps in PERTURBATIONS:
            g = rng.standard_normal(base.shape) + 1j * rng.standard_normal(base.shape)
            a = base + eps * spectral_norm(base) * g / spectral_norm(g)
            scales = (1.0,) + (EXTREME_SCALES if eps in SCALED_PERTURBATIONS else ())
            for scale in scales:
                scaled = scale * a
                dec = is_tto(sp, scaled)
                residual, tol = _svd_norms(sp, scaled)
                assert dec.passed == (residual <= tol), (eps, scale, residual, tol)
                assert dec.tol == tol
                assert dec.residual == spectral_norm(dec.compressed_defect)
                # the reference projects densely; the two agree to rounding
                assert abs(dec.residual - residual) <= 1e-15 * spectral_norm(scaled)
                routes.add(dec.route)
    assert routes == {"frobenius", "svd"}


def test_decomposition_satisfies_sarason_identity(stress_family, stress_spaces):
    # defect = phi (x) K_0 + K_0 (x) psi + compressed defect, the last with
    # K_0 in the kernel of both it and its adjoint
    sp = stress_spaces[stress_family]
    rng = np.random.default_rng(sp.dim + 1)
    k0 = sp.k0.coords
    typed = sample_typed_tto(sp, rng, sample_disc_point(rng)).mat
    untyped = sample_notype_tto(sp, rng).mat
    g = rng.standard_normal(untyped.shape) + 1j * rng.standard_normal(untyped.shape)
    perturbed = untyped + 1e-3 * spectral_norm(untyped) * g / spectral_norm(g)
    for a in (typed, untyped, perturbed):
        dec = is_tto(sp, a)
        assert dec.passed == (a is not perturbed)
        rounding = 1e-14 * spectral_norm(a)
        rebuilt = outer(dec.phi, sp.k0) + outer(sp.k0, dec.psi) + dec.compressed_defect
        assert spectral_norm(defect(sp, a) - rebuilt) <= rounding
        for side in (dec.compressed_defect, dec.compressed_defect.conj().T):
            assert np.linalg.norm(side @ k0) <= rounding * np.linalg.norm(k0)


def test_tiny_non_tto_is_rejected():
    # both squared sums underflow to 0 at this scale, which must not read as
    # a zero residual: the verdict goes to the SVD
    sp = ModelSpace(sample_blaschke(np.random.default_rng(3), 8))
    a = 1e-200 * np.random.default_rng(1).standard_normal((8, 8))
    dec = is_tto(sp, a)
    assert not dec.passed
    assert dec.route == "svd"
    assert dec.residual > 1e7 * dec.tol


def test_membership_route_is_recorded(triple_space, rng):
    a = sample_tto(triple_space, rng).mat
    clean = is_tto(triple_space, a)
    assert clean.passed and clean.route == "frobenius"
    # a residual at the threshold is inside every bracket of it
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    unit, _ = _svd_norms(triple_space, g)
    band = is_tto(triple_space, a + VERDICT_TOL * spectral_norm(a) / unit * g)
    assert band.route == "svd"
    assert band.passed == (band.residual <= band.tol)
    assert abs(band.residual / band.tol - 1.0) < 1e-3


def test_membership_keeps_the_values_of_its_call(triple_space, rng):
    a = sample_tto(triple_space, rng).mat.copy()
    a[0, 1] += 1e-3
    dec = is_tto(triple_space, a)
    before = a.copy()
    a *= 100.0
    a[1, 0] -= 5.0
    again = is_tto(triple_space, before)
    assert (dec.tol, dec.residual) == (again.tol, again.residual)
    assert not dec.operator.flags.writeable
    assert not dec.compressed_defect.flags.writeable


@pytest.mark.parametrize("floor", [0.0, 1.0])
def test_norm_comparison_matches_spectral_norms(floor):
    # the bracket decides in O(n^2) when it can and must agree with the SVD
    rng = np.random.default_rng(5)
    routes = set()
    for n in (1, 3, 12, 40):
        for c in (1e-12, 1e-8, 0.05, 0.5, 1.0, 4.0):
            for rank in sorted({1, n}):
                x = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n)) + 0j
                ys = [rng.standard_normal((n, n)) * rng.uniform(0.1, 10.0) for _ in range(2)]
                for size in (1e-14, 1e-9, 1e-3, 1.0, 1e3):
                    settled, route = _norm_at_most(size * x, ys, c, floor)
                    bound = c * max(floor, *(spectral_norm(y) for y in ys))
                    assert settled == (spectral_norm(size * x) <= bound), (n, c, rank, size)
                    routes.add(route)
    assert routes == {"frobenius", "svd"}


def test_extract_symbol_round_trip(triple_space, rng):
    for _ in range(10):
        phi = triple_space.vector(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        psi = triple_space.vector(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        a = build_tto(triple_space, SymbolExpr(analytic=phi, coanalytic=psi))
        sym = extract_symbol(triple_space, a)
        b = build_tto(triple_space, sym)
        assert np.max(np.abs(a.mat - b.mat)) < 1e-10
        # canonical normalization pins the coanalytic part at the origin
        assert abs(sym.coanalytic.evaluate(0.0)) < 1e-10


def test_extract_symbol_rejects_non_tto(z3, rng):
    bad = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    bad[2, 0] += 5.0
    with pytest.raises(NotATTO):
        extract_symbol(z3, bad)


def test_symbols_equivalent_constant_splitting(z2):
    # the constant can live in the analytic slot, the coanalytic slot, or the field
    as_const = SymbolExpr(constant=1.0)
    as_analytic = analytic_symbol(z2.vector([1.0, 0.0]))
    as_coanalytic = coanalytic_symbol(z2.vector([1.0, 0.0]))
    assert symbols_equivalent(z2, as_const, as_analytic)
    assert symbols_equivalent(z2, as_const, as_coanalytic)
    assert not symbols_equivalent(z2, as_const, analytic_symbol(z2.vector([0.0, 1.0])))


def test_symbols_equivalent_mod_u_directions(pair_space, rng):
    # adding a multiple of K_0 to phi changes the operator; the kernel directions do not
    phi = pair_space.vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    base = SymbolExpr(analytic=phi)
    shifted = SymbolExpr(analytic=phi + 2.0 * pair_space.k0,
                         coanalytic=pair_space.zero_vector(), constant=-2.0)
    assert symbols_equivalent(pair_space, base, shifted)


def test_symbols_equivalent_on_rational_terms(z3):
    # u = z^3 multiplies to zero, so (p + c u q)/q and p/q give one operator;
    # the structural check on their closed-form parts must agree with the matrices
    p, q = (1.0, 0.5j, -0.3), tuple(npoly.polyfromroots([0.5, 1.8j]))
    shifted = npoly.polyadd(p, (2.0 - 1j) * npoly.polymul((0, 0, 0, 1), q))
    base = SymbolExpr(rational_terms=(RationalTerm(RationalPair(p, q)),))
    assert symbols_equivalent(z3, base, SymbolExpr(
        rational_terms=(RationalTerm(RationalPair(tuple(shifted), q)),)))
    assert not symbols_equivalent(z3, base, SymbolExpr(
        rational_terms=base.rational_terms, constant=1e-3))


def test_c_symmetry_of_built_ttos(triple_space, rng):
    for _ in range(10):
        phi = triple_space.vector(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        psi = triple_space.vector(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        a = build_tto(triple_space, SymbolExpr(analytic=phi, coanalytic=psi))
        assert c_symmetry_residual(triple_space, a) < 1e-11


def test_c_symmetry_fails_for_non_symmetric_matrix(z2):
    assert c_symmetry_residual(z2, np.diag([1.0, 2.0])) == pytest.approx(1.0)


def test_kernel_shift_identities_at_origin(triple_space):
    rep = kernel_shift_identities(triple_space, 0.0)
    assert rep.residuals["forward_kernel"] is None
    assert rep.residuals["backward_conjugate_kernel"] is None
    assert rep.max_residual < 1e-11


def test_kernel_shift_report_maximum_keeps_nan():
    # max(0.1, nan) is 0.1, which would have passed a check on this report
    rep = KernelShiftReport(0.5, {"backward_kernel": 0.1, "forward_conjugate_kernel": np.nan,
                                  "forward_kernel": 0.2, "backward_conjugate_kernel": None})
    assert np.isnan(rep.max_residual)


def test_kernel_shift_identities_interior_and_boundary(triple_space):
    for lam in (0.5, -0.3 + 0.2j, np.exp(1.1j)):
        rep = kernel_shift_identities(triple_space, lam)
        assert rep.max_residual < 1e-9
        assert all(v is not None for v in rep.residuals.values())


def test_build_refined_matches_dense_quadrature(z2):
    # symbol u/(z - lam) with lam near the boundary: the basis grid is too coarse,
    # refinement has to kick in before the compression stabilizes
    lam = 0.95
    values_fn = lambda pts, uv: uv / (pts - lam)
    refined = build_refined(z2, values_fn).mat
    n = 1 << 14
    grid = circle_grid(n)
    basis = z2.basis_values_at(grid)
    vals = values_fn(grid, z2.u.evaluate(grid))
    dense = basis.conj() @ (vals * basis).T / n
    assert np.max(np.abs(refined - dense)) < 1e-10
    e = z2.basis_values
    coarse = e.conj() @ (values_fn(z2.grid, z2.u_values) * e).T / z2.quad_points
    assert np.max(np.abs(coarse - dense)) > 1e-6


def test_build_tto_reads_rational_terms_in_closed_form(z2):
    lam = 0.95
    # u/(z - lam) with u = z^2: numerator z^2, denominator z - lam
    num, den = (0j, 0j, 1 + 0j), (-lam + 0j, 1 + 0j)
    sym = SymbolExpr(rational_terms=(RationalTerm(RationalPair(num, den)),))
    built = build_tto(z2, sym).mat
    expected = outer(z2.conjugate_kernel(lam), z2.kernel(lam))
    assert np.max(np.abs(built - expected)) < 1e-9


def test_rational_terms_match_quadrature(stress_family, stress_spaces):
    # inner, outer and repeated poles, plain and divided by 1 - alpha conj(u)
    sp = stress_spaces[stress_family]
    rng = np.random.default_rng(3)
    for _ in range(2):
        for term in pole_terms(rng, 0.6 * np.exp(2j * np.pi * rng.uniform())):
            sym = SymbolExpr(rational_terms=(term,))
            ref = build_refined(sp, lambda pts, uv: symbol_values(sym, sp, pts, uv)).mat
            gap = spectral_norm(build_tto(sp, sym).mat - ref)
            assert gap <= 1e-12 * max(1.0, spectral_norm(ref)), (term, gap)


@pytest.mark.parametrize("term", [
    RationalTerm(RationalPair((1.0,), (-np.exp(0.3j) * (1.0 + 5e-11), 1.0))),
    RationalTerm(RationalPair((1.0, 2.0), (-0.5, 1.0)), (1.0 - 1e-13) * 1j),
], ids=["pole on the circle", "unimodular clark_alpha"])
def test_rational_term_with_circle_poles_raises(z2, term):
    with pytest.raises(PoleOnCircle):
        build_tto(z2, SymbolExpr(rational_terms=(term,)))


def test_build_tto_of_rational_terms_builds_no_grid(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_tto refined a quadrature")

    monkeypatch.setattr(tto, "build_refined", refuse)
    sp = ModelSpace(STRESS_FAMILIES["random 16"])
    built = build_tto(sp, SymbolExpr(rational_terms=tuple(pole_terms(np.random.default_rng(2),
                                                                     0.6j))))
    assert np.isfinite(built.mat).all()
    assert "_quadrature" not in sp.__dict__


def _full_grid_refined(sp, values_fn):
    """Refinement without nested grids: every level tabulates its whole grid.

    Returns the matrix and the final grid size.  Each level is summed in
    blocks of 4096 nodes only to bound the memory of the degree-128 tables.
    """
    num, prev = sp.quad_points, None
    while True:
        grid = circle_grid(num)
        acc = 0
        for start in range(0, num, 4096):
            pts = grid[start:start + 4096]
            basis = sp.basis_values_at(pts)
            acc = acc + basis.conj() @ (values_fn(pts, sp.u.evaluate(pts)) * basis).T
        mat = acc / num
        if prev is not None and np.linalg.norm(mat - prev, 2) <= 1e-12 * max(
                1.0, np.linalg.norm(mat, 2)):
            return mat, num
        assert num < MAX_QUAD_POINTS
        prev, num = mat, 2 * num


def _refinement_symbols(sp):
    """values_fn of the symbols the quadrature oracles refine.

    "rational build_tto" is the oracle of a Clark-divided rational term, which
    build_tto reads off in closed form.
    """
    rng = np.random.default_rng(7)
    p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi = sample_vector(sp, rng)
    lam, alpha = 0.9 * np.exp(0.4j), 0.8 * np.exp(-1.1j)
    rational = SymbolExpr(rational_terms=(
        RationalTerm(RationalPair((0.3, 1.0), (-0.85j, 1.0)), 0.6j),))
    return {
        "u p": lambda pts, uv: uv * npoly.polyval(pts, p),
        "u/(z - lam)": lambda pts, uv: uv / (pts - lam),
        "phi/(1 - alpha conj u)": lambda pts, uv: phi.evaluate(pts) / (1 - alpha * np.conj(uv)),
        "conj p/(1 - conj(alpha) u)":
            lambda pts, uv: np.conj(npoly.polyval(pts, p)) / (1 - np.conj(alpha) * uv),
        "rational build_tto": lambda pts, uv: symbol_values(rational, sp, pts, uv),
    }


def _recording(values_fn):
    batches = []

    def recorded(pts, uv):
        batches.append((pts, uv))
        return values_fn(pts, uv)

    return recorded, batches


@pytest.mark.parametrize("symbol", ["u p", "u/(z - lam)", "phi/(1 - alpha conj u)",
                                    "conj p/(1 - conj(alpha) u)", "rational build_tto"])
def test_nested_refinement_matches_full_grids(stress_family, stress_spaces, symbol):
    sp = stress_spaces[stress_family]
    values_fn = _refinement_symbols(sp)[symbol]
    ref, final = _full_grid_refined(sp, values_fn)
    fn, batches = _recording(values_fn)
    mat = build_refined(sp, fn).mat
    assert np.linalg.norm(mat - ref, 2) <= 1e-13 * max(1.0, np.linalg.norm(ref, 2))
    assert sum(len(pts) for pts, _ in batches) == final


@pytest.mark.parametrize("family", ["repeated 0.9 x8", "random 16"])
def test_nested_refinement_tabulates_only_new_nodes(stress_spaces, family):
    sp = stress_spaces[family]
    fn, batches = _recording(_refinement_symbols(sp)["phi/(1 - alpha conj u)"])
    build_refined(sp, fn)
    assert batches[0][0] is sp.grid and batches[0][1] is sp.u_values
    sizes = [len(pts) for pts, _ in batches]
    assert len(sizes) > 2
    assert all(size == sum(sizes[:k]) for k, size in enumerate(sizes) if k)
    total = sum(sizes)
    # every node of the final grid appears in exactly one batch
    pts = np.concatenate([pts for pts, _ in batches])
    index = np.rint(np.angle(pts) * total / (2 * np.pi)).astype(int) % total
    assert np.max(np.abs(pts - np.exp(2j * np.pi * index / total))) < 1e-12
    assert np.array_equal(np.sort(index), np.arange(total))
    for batch, uv in batches[1:]:
        assert np.array_equal(uv, sp.u.evaluate(batch))


def test_build_refined_memory_is_bounded_by_blocks(stress_spaces):
    # refines to 65536 points; its last batch of 32768 nodes held about 195 MiB
    # of numpy memory when the whole (n, N) table, its conjugate and
    # vals * basis were built at once
    sp = stress_spaces["random 128"]
    fn, batches = _recording(_refinement_symbols(sp)["phi/(1 - alpha conj u)"])
    sp.quad_points  # the space's own certified table is not the batch's
    tracemalloc.start()
    try:
        build_refined(sp, fn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(len(pts) for pts, _ in batches) == 32768
    assert peak <= 195 * 2**20 / 2


def test_build_refined_gives_up_at_max_points(z2):
    noise = np.random.default_rng(3)
    fn, batches = _recording(lambda pts, uv: noise.standard_normal(pts.size))
    with pytest.raises(QuadratureError, match="still moving"):
        build_refined(z2, fn)
    assert sum(len(pts) for pts, _ in batches) == MAX_QUAD_POINTS


def test_build_refined_rejects_non_finite_later_batch(z2):
    calls = []

    def values_fn(pts, uv):
        calls.append(pts.size)
        return np.full(pts.size, np.nan if len(calls) > 1 else 1.0)

    with pytest.raises(QuadratureError, match="not finite"):
        build_refined(z2, values_fn)
    assert len(calls) == 2


def test_symbol_json_round_trip(pair_space):
    sym = SymbolExpr(
        analytic=pair_space.vector([1.0, 2j]),
        coanalytic=pair_space.vector([0.0, -1.0]),
        constant=0.5 + 0.25j,
    )
    back = symbol_from_json(pair_space, json.loads(json.dumps(sym.to_json())))
    assert np.allclose(back.analytic.coords, sym.analytic.coords)
    assert np.allclose(back.coanalytic.coords, sym.coanalytic.coords)
    assert back.constant == sym.constant
    assert back.rational_terms == ()


def test_matrix_ops(z2):
    s = compressed_shift(z2)
    two_s = 2.0 * np.eye(2) @ s.mat
    assert np.allclose((s + s).mat, two_s)
    assert np.allclose((s - s).mat, np.zeros((2, 2)))
    assert np.allclose((s * 2.0).mat, two_s)
    assert np.allclose((s @ s).mat, np.zeros((2, 2)), atol=1e-13)
    assert np.allclose(s.adjoint().mat, s.mat.conj().T)
    assert s.norm() == pytest.approx(1.0)
    f = z2.vector([1.0, 0.0])
    assert np.allclose(s.apply(f).coords, [0.0, 1.0])


def test_dimension_one_space():
    sp = ModelSpace(BlaschkeProduct((0.5,)))
    assert sp.dim == 1
    # every 1x1 matrix is a truncated Toeplitz operator
    verdict = is_tto(sp, np.array([[2.0 + 1j]]))
    assert verdict.passed
    # the compressed shift is multiplication by <z e0, e0> = 0.5
    assert compressed_shift(sp).mat[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_build_tto_matches_quadrature(stress_family, stress_spaces):
    sp = stress_spaces[stress_family]
    sym = sample_symbol(sp, np.random.default_rng(5))
    ref = build_refined(sp, lambda pts, uv: symbol_values(sym, sp, pts, uv)).mat
    built = build_tto(sp, sym).mat
    assert np.linalg.norm(built - ref, 2) <= 1e-10 * np.linalg.norm(ref, 2)


# every stress family and a degree-1 space, where the frame is one point
PIN_SPACES = [*STRESS_FAMILIES, "degree 1"]


def _pin_space(stress_spaces, name):
    return stress_spaces[name] if name in stress_spaces else ModelSpace(
        BlaschkeProduct((0.3 + 0.2j,)))


@pytest.mark.parametrize("name", PIN_SPACES)
def test_build_tto_matches_stein_solve(stress_spaces, name):
    # the frame build against the Stein sum of A - S A S^* = (phi + c K_0) (x) K_0 + K_0 (x) psi
    sp = _pin_space(stress_spaces, name)
    s = compressed_shift(sp).mat
    rng = np.random.default_rng(7)
    for _ in range(4):
        sym = sample_symbol(sp, rng)
        phi, psi = sym.standard_parts(sp)
        ref = stein_solve(s, s.conj().T, outer(phi, sp.k0) + outer(sp.k0, psi))
        assert spectral_norm(build_tto(sp, sym).mat - ref) <= 1e-12 * spectral_norm(ref)


def test_build_tto_is_a_loewner_matrix_in_other_clark_frames(stress_family, stress_spaces):
    # Sarason's identity makes A - S_beta A S_beta^* rank two, and in a Clark basis
    # V of S_beta that defect is the Loewner matrix (1 - zeta_i conj(zeta_j)) V^* A V;
    # build_tto works in the frame at _frame_point, so these three are not its own
    sp = stress_spaces[stress_family]
    rng = np.random.default_rng(3)
    for _ in range(4):
        a = build_tto(sp, sample_symbol(sp, rng)).mat
        for beta in (1.0, 1j, -sp._frame_point):
            _, v, _ = sp._clark_basis(beta)
            s = generalized_shift(sp, beta).mat
            sv = np.linalg.svd(v.conj().T @ (a - s @ a @ s.conj().T) @ v, compute_uv=False)
            assert sv[2] <= 1e-12 * sv[0], (beta, sv[2] / sv[0])


@pytest.mark.parametrize("name", PIN_SPACES)
def test_conjugation_matches_stein_solve(stress_spaces, name):
    # C S C = S^* and C K_0 = Kt_0 give M - S M conj(S) = K_0 Kt_0^T for C f = M conj(f)
    sp = _pin_space(stress_spaces, name)
    s, k0, kt0 = sp.u.shift_data
    ref = stein_solve(s, s.conj(), np.outer(k0, kt0))
    assert spectral_norm(sp.conj_matrix - ref) <= 1e-12 * spectral_norm(ref)


def test_conjugation_matches_quadrature(stress_family, stress_spaces):
    # (C e_k)(zeta) = u(zeta) conj(zeta e_k(zeta)), compressed on a grid twice the space's
    sp = stress_spaces[stress_family]
    n = 2 * sp.quad_points
    grid = circle_grid(n)
    basis = sp.basis_values_at(grid)
    cvals = sp.u.evaluate(grid) * np.conj(grid * basis)
    ref = basis.conj() @ cvals.T / n
    assert np.linalg.norm(sp.conj_matrix - ref, 2) <= 1e-12


def test_build_tto_rejects_bad_symbol_parts(pair_space, z2):
    with pytest.raises(ValueError):
        build_tto(pair_space, SymbolExpr(analytic=pair_space.vector([1.0, np.nan])))
    with pytest.raises(ValueError):
        build_tto(pair_space, SymbolExpr(constant=complex(np.inf, 0.0)))
    with pytest.raises(SpaceMismatch):
        build_tto(pair_space, SymbolExpr(coanalytic=z2.vector([1.0, 0.0])))


def _quadrature_shift(sp, alpha):
    # refined compression of z plus the rank-one term, Kt_0 as the conjugation of K_0
    k0 = sp.kernel(0.0).coords
    kt0 = sp.conjugate_kernel(0.0).coords
    gain = alpha / (1.0 - alpha * np.conj(sp.u.evaluate(0.0)))
    return build_refined(sp, lambda pts, uv: pts).mat + gain * np.outer(k0, np.conj(kt0))


@pytest.mark.parametrize("alpha", [0.0, 0.5 + 0.2j, np.exp(0.7j)],
                         ids=["zero", "interior", "unimodular"])
def test_closed_form_shift_matches_quadrature(stress_family, stress_spaces, alpha):
    sp = stress_spaces[stress_family]
    ref = _quadrature_shift(sp, alpha)
    scale = np.linalg.norm(ref, 2)
    built = [generalized_shift(sp, alpha).mat]
    if alpha == 0:
        built.append(compressed_shift(sp).mat)
    for mat in built:
        assert np.linalg.norm(mat - ref, 2) <= 1e-12 * scale


def test_closed_form_shift_defects(stress_family, stress_spaces):
    # I - S S* = K_0 (x) K_0 and I - S* S = Kt_0 (x) Kt_0 for the closed-form vectors
    s, k0, kt0 = stress_spaces[stress_family].u.shift_data
    eye = np.eye(s.shape[0])
    assert np.linalg.norm(eye - s @ s.conj().T - np.outer(k0, np.conj(k0)), 2) <= 1e-12
    assert np.linalg.norm(eye - s.conj().T @ s - np.outer(kt0, np.conj(kt0)), 2) <= 1e-12
