import tracemalloc

import numpy as np
import pytest

from conftest import STRESS_FAMILIES
from ttolab import model_space
from ttolab import (
    BlaschkeProduct,
    ModelSpace,
    OutsideClosedDisc,
    PoleHit,
    SpaceMismatch,
    build_tto,
    circle_grid,
    classify_type,
    crofoot,
    crofoot_intertwine_check,
    is_tto,
    same_space,
    sample_blaschke,
    sample_symbol,
)


def test_monomial_basis_for_power_of_z(z3):
    # for u = z^3 the Takenaka-Malmquist basis is 1, z, z^2
    pts = np.array([0.3, 0.5j, -0.2 + 0.4j])
    vals = z3.basis_values_at(pts)
    for k in range(3):
        assert np.allclose(vals[k], pts**k, atol=1e-14)


def test_first_basis_function_is_normalized_kernel():
    # e_0(z) = sqrt(1-|a|^2)/(1 - conj(a) z)
    sp = ModelSpace(BlaschkeProduct((0.5,)))
    e0 = sp.basis_values_at([0.0, 0.5])[0]
    assert e0[0] == pytest.approx(np.sqrt(0.75))
    assert e0[1] == pytest.approx(np.sqrt(0.75) / 0.75)


def test_gram_matrix_against_independent_quadrature(pair_space):
    # re-do the inner products on a coarser unrelated grid size
    n = 3000
    grid = circle_grid(n)
    basis = pair_space.basis_values_at(grid)
    gram = basis.conj() @ basis.T / n
    assert np.max(np.abs(gram - np.eye(pair_space.dim))) < 1e-12


def test_gram_residual_is_small(pair_space, triple_space):
    assert pair_space.gram_residual < 1e-12
    assert triple_space.gram_residual < 1e-12


def test_quadrature_auto_doubles_for_near_boundary_zero():
    sp = ModelSpace(BlaschkeProduct((0.9,)))
    assert sp.quad_points == 512
    assert sp.gram_residual < 1e-12
    # the default for low degree stays at the floor
    assert ModelSpace(BlaschkeProduct((0.0, 0.0))).quad_points == 256


def _grid_built(space):
    return "_quadrature" in vars(space)


def test_grid_is_built_only_when_read():
    # the closed-form and Clark-frame routes never integrate on the circle
    u = sample_blaschke(np.random.default_rng(16), 16)
    sp = ModelSpace(u)
    rng = np.random.default_rng(3)
    a = build_tto(sp, sample_symbol(sp, rng))
    assert is_tto(sp, a).passed
    classify_type(sp, a)
    u.solve_equals(0.4 - 0.2j)
    transform = crofoot(sp, 0.3 + 0.2j)
    assert not _grid_built(sp) and not _grid_built(transform.source)
    assert "conj_matrix" not in vars(transform.source)
    # spaces are told apart by u alone
    other = ModelSpace(u)
    assert same_space(sp, other) and not _grid_built(other)
    # reading any grid attribute builds the whole certified grid once
    assert sp.basis_values.shape == (16, sp.quad_points)
    assert _grid_built(sp) and sp.gram_residual < 1e-12
    assert np.allclose(sp.u_values, u.evaluate(sp.grid), atol=1e-14)
    # the intertwining check builds phi(S') on the source space in closed form
    crofoot_intertwine_check(transform, [0.5, -1.0j, 0.25, 2.0])
    assert not _grid_built(transform.source)


def test_reproducing_property(z2):
    f = z2.vector([1.0, 1.0])  # f(z) = 1 + z
    k = z2.kernel(0.4)
    assert f.inner(k) == pytest.approx(1.4)


def test_reproducing_property_random(pair_space, rng):
    for _ in range(25):
        coords = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f = pair_space.vector(coords)
        lam = 0.85 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        assert f.inner(pair_space.kernel(lam)) == pytest.approx(f.evaluate(lam), abs=1e-10)


def test_kernel_coords_for_monomial(z2):
    # K_0 = 1 and conjugate kernel at 0.5 is (z^2 - 0.25)/(z - 0.5) = z + 0.5
    assert np.allclose(z2.k0.coords, [1.0, 0.0], atol=1e-14)
    assert np.allclose(z2.conjugate_kernel(0.5).coords, [0.5, 1.0], atol=1e-12)


def test_conjugate_kernel_difference_quotient(pair_space, rng):
    u = pair_space.u
    for _ in range(10):
        lam = 0.8 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        kt = pair_space.conjugate_kernel(lam)
        z = 0.7 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        expected = (u.evaluate(z) - u.evaluate(lam)) / (z - lam)
        assert kt.evaluate(z) == pytest.approx(expected, abs=1e-10)


def test_conjugation_on_monomials(z2):
    # C(e_k) = z^(1-k) on K_{z^2}: swaps the basis
    assert np.allclose(z2.conjugate(z2.vector([1, 0])).coords, [0, 1], atol=1e-13)
    assert np.allclose(z2.conjugate(z2.vector([0, 1])).coords, [1, 0], atol=1e-13)
    # antilinear: C(i f) = -i C(f)
    assert np.allclose(z2.conjugate(z2.vector([1j, 0])).coords, [0, -1j], atol=1e-13)


def test_conjugation_involution_and_isometry(triple_space, rng):
    for _ in range(20):
        f = triple_space.vector(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        cf = triple_space.conjugate(f)
        assert np.allclose(triple_space.conjugate(cf).coords, f.coords, atol=1e-11)
        assert cf.norm() == pytest.approx(f.norm())


def test_conjugation_matrix_symmetric_unitary(pair_space, triple_space):
    for sp in (pair_space, triple_space):
        m = sp.conj_matrix
        assert np.max(np.abs(m - m.T)) < 1e-11
        assert np.max(np.abs(m @ m.conj().T - np.eye(sp.dim))) < 1e-11


def test_conjugation_pairing(pair_space, rng):
    # (C f)(lam) = <conjugate_kernel(lam), f>
    for _ in range(10):
        f = pair_space.vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        lam = 0.8 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        cf = pair_space.conjugate(f)
        assert cf.evaluate(lam) == pytest.approx(
            pair_space.conjugate_kernel(lam).inner(f), abs=1e-10)


def test_boundary_kernel_norm_is_derivative_modulus(triple_space, rng):
    for _ in range(10):
        zeta = np.exp(2j * np.pi * rng.uniform())
        k = triple_space.kernel(zeta)
        assert k.norm() ** 2 == pytest.approx(abs(triple_space.u.derivative(zeta)), rel=1e-9)


def test_kernel_outside_disc_rejected(z2):
    with pytest.raises(OutsideClosedDisc):
        z2.kernel(1.5)


def test_vector_arithmetic(z2):
    f = z2.vector([1.0, 2.0])
    g = z2.vector([0.0, 1j])
    assert np.allclose((f + g).coords, [1.0, 2.0 + 1j])
    assert np.allclose((f - g).coords, [1.0, 2.0 - 1j])
    assert np.allclose((2j * f).coords, [2j, 4j])
    assert np.allclose((-f).coords, [-1.0, -2.0])
    assert f.norm() == pytest.approx(np.sqrt(5.0))


def test_space_mismatch(z2, z3):
    f = z2.vector([1.0, 0.0])
    g = z3.vector([1.0, 0.0, 0.0])
    with pytest.raises(SpaceMismatch):
        f.inner(g)
    with pytest.raises(SpaceMismatch):
        _ = f + g
    with pytest.raises(SpaceMismatch):
        z3.conjugate(f)


def test_vector_shape_validated(z2):
    with pytest.raises(ValueError):
        z2.vector([1.0, 0.0, 0.0])


def test_grid_values_match_pointwise_evaluation(pair_space):
    f = pair_space.vector([1.0, -2j])
    assert np.allclose(f.grid_values(), f.evaluate(pair_space.grid), atol=1e-13)


def _mixed_points(count):
    """Circle and interior points: the few-point callers evaluate both."""
    rng = np.random.default_rng(count)
    radius = np.where(np.arange(count) % 2 == 0, 1.0, 0.95 * rng.random(count))
    return radius * np.exp(2j * np.pi * rng.random(count))


def test_few_point_basis_matches_row_loop(stress_family, stress_spaces, monkeypatch):
    sp = stress_spaces[stress_family]
    assert sp.dim <= model_space.FEW_POINTS
    for count in (1, 2, sp.dim, model_space.FEW_POINTS):
        pts = _mixed_points(count)
        few, few_u = sp._tabulate(pts)
        with monkeypatch.context() as patched:
            patched.setattr(model_space, "FEW_POINTS", 0)
            rows, rows_u = sp._tabulate(pts)
        assert few.shape == rows.shape == (sp.dim, count)
        assert np.all(np.abs(few - rows) <= 1e-14 * np.abs(rows))
        assert np.array_equal(few, sp.basis_values_at(pts))
        # u from the last running product, by either path
        expected = sp.u.evaluate(pts)
        assert np.max(np.abs(few_u - expected)) <= 1e-14
        assert np.max(np.abs(rows_u - expected)) <= 1e-14


@pytest.mark.parametrize("few_points", [model_space.FEW_POINTS, 0])
def test_both_basis_paths_raise_at_reflected_zero(stress_spaces, monkeypatch, few_points):
    monkeypatch.setattr(model_space, "FEW_POINTS", few_points)
    sp = stress_spaces["random 16"]
    pole = 1.0 / np.conj(sp.u.zeros[5])
    with pytest.raises(PoleHit):
        sp.basis_values_at(np.array([0.3, pole, -0.2j]))


def test_row_loop_raises_at_reflected_zero_in_a_large_batch(stress_spaces):
    sp = stress_spaces["random 16"]
    pts = 0.5 * circle_grid(model_space.FEW_POINTS + 1)
    pts[7] = 1.0 / np.conj(sp.u.zeros[5])
    with pytest.raises(PoleHit):
        sp.basis_values_at(pts)


# Grid sizes certified by full tabulation at each size, before the grids were
# nested; the last three double to 8192 and 16384 points.
NESTED_GRID_POINTS = {
    "repeated 0.9 x8": 512, "repeated 0.5 x16": 512, "cluster of 12": 256,
    "near circle 0.995 x8": 8192, "random 64": 2048, "random 128": 4096, "random 16": 512,
    "repeated 0.99 x16": 8192, "repeated 0.995 x16": 16384, "repeated 0.99 x32": 16384,
}
NESTED_FAMILIES = {**STRESS_FAMILIES, "repeated 0.99 x16": BlaschkeProduct((0.99,) * 16),
                   "repeated 0.995 x16": BlaschkeProduct((0.995,) * 16),
                   "repeated 0.99 x32": BlaschkeProduct((0.99,) * 32)}


@pytest.mark.parametrize("family", list(NESTED_GRID_POINTS))
def test_nested_grid_matches_full_tabulation(family):
    sp = ModelSpace(NESTED_FAMILIES[family])
    assert sp.quad_points == NESTED_GRID_POINTS[family]
    grid = circle_grid(sp.quad_points)
    assert np.array_equal(sp.grid, grid)
    full = sp.basis_values_at(grid)
    assert np.all(np.abs(sp.basis_values - full) <= 1e-14 * np.abs(full))
    assert np.max(np.abs(sp.u_values - sp.u.evaluate(grid))) <= 1e-14
    # the running Gram sum against one recomputed from the returned table
    gram = sp.basis_values.conj() @ sp.basis_values.T / sp.quad_points
    assert abs(sp.gram_residual - np.max(np.abs(gram - np.eye(sp.dim)))) <= 1e-15


def test_nested_grid_memory_peak():
    # the last doubling holds the N-point table, the N new columns and the
    # 2N-point table; full tabulation with u.evaluate peaked at 24.5 MiB here
    sp = ModelSpace(BlaschkeProduct((0.99,) * 32))
    tracemalloc.start()
    try:
        assert sp.quad_points == 16384
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20
