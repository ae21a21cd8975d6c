import numpy as np
import pytest

from ttolab import classification, tto, verify
from ttolab import (
    BlaschkeProduct,
    ModelSpace,
    NotATTO,
    NumericalFailure,
    SingularMatrix,
    SymbolExpr,
    algebra_containment,
    analytic_symbol,
    build_tto,
    classify_type,
    classify_unitary,
    coanalytic_symbol,
    commutant_check,
    commutant_residual,
    commutant_symbol,
    compressed_shift,
    generalized_shift,
    inverse_type_check,
    is_tto,
    outer,
    product_classification,
    product_rank2_condition,
    product_rank2_residual,
    rank_one_boundary,
    rank_one_interior,
    rng_from,
    sample_notype_tto,
    sample_typed_tto,
    type_membership_residual,
    type_of_adjoint,
)


def test_identity_is_scalar(z3):
    tag = classify_type(z3, np.eye(3, dtype=complex) * (2.0 - 1j))
    assert tag.kind == "scalar"
    assert tag.value == pytest.approx(2.0 - 1j)


def test_zero_operator_is_scalar(z2):
    tag = classify_type(z2, np.zeros((2, 2), dtype=complex))
    assert tag.kind == "scalar"
    assert tag.value == 0.0


@pytest.mark.parametrize("entry", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_degree_one_refuses_non_finite_operator(entry):
    # the defect test runs at degree 1 too, so a non-finite norm raises there
    sp = ModelSpace(BlaschkeProduct((0.3,)))
    with pytest.raises(NumericalFailure, match="not finite"):
        classify_type(sp, [[entry]])


def test_degree_one_operator_is_its_scalar():
    sp = ModelSpace(BlaschkeProduct((0.3,)))
    a = np.array([[2.5 - 0.75j]])
    tag = classify_type(sp, a)
    assert tag.kind == "scalar"
    assert tag.value == a[0, 0]


def test_shift_has_type_zero(z3):
    tag = classify_type(z3, compressed_shift(z3))
    assert tag.kind == "alpha"
    assert abs(tag.value) < 1e-10


def test_backward_shift_has_type_infinity(z3):
    tag = classify_type(z3, compressed_shift(z3).adjoint())
    assert tag.kind == "infinity"


def test_generalized_shift_has_its_own_type(triple_space):
    alpha = 0.3 - 0.4j
    tag = classify_type(triple_space, generalized_shift(triple_space, alpha))
    assert tag.kind == "alpha"
    assert tag.value == pytest.approx(alpha, abs=1e-10)


def test_frozen_two_by_two_type(z2):
    # S plus twice the corner unit: type 2 (the type can leave the closed disc)
    tag = classify_type(z2, np.array([[0.0, 2.0], [1.0, 0.0]], dtype=complex))
    assert tag.kind == "alpha"
    assert tag.value == pytest.approx(2.0, abs=1e-12)


def test_typed_samples_classify_back(triple_space):
    rng = rng_from(42)
    for alpha in (0.0, 0.7j, 1.5 - 0.2j, np.exp(0.3j), None):
        a = sample_typed_tto(triple_space, rng, alpha)
        tag = classify_type(triple_space, a)
        if alpha is None:
            assert tag.kind == "infinity"
        else:
            assert tag.kind == "alpha"
            assert tag.value == pytest.approx(alpha, abs=1e-8)


def test_notype_samples_have_no_type(triple_space):
    rng = rng_from(43)
    for _ in range(5):
        tag = classify_type(triple_space, sample_notype_tto(triple_space, rng))
        assert tag.kind == "none"
        assert tag.residual > 1e-4


def test_type_membership_residual_discriminates(triple_space):
    rng = rng_from(44)
    a = sample_typed_tto(triple_space, rng, 0.5j)
    assert type_membership_residual(triple_space, a, 0.5j) < 1e-12
    assert type_membership_residual(triple_space, a, 0.9) > 1e-2
    assert type_membership_residual(triple_space, a, None) > 1e-2
    b = sample_typed_tto(triple_space, rng, None)
    assert type_membership_residual(triple_space, b, None) < 1e-12
    assert type_membership_residual(triple_space, b, 0.0) > 1e-2


def test_classification_residual_reported(triple_space):
    rng = rng_from(45)
    tag = classify_type(triple_space, sample_typed_tto(triple_space, rng, 0.3))
    assert tag.residual < 1e-10


def test_adjoint_type_duality():
    from ttolab import alpha_tag, infinity_tag, scalar_tag

    assert type_of_adjoint(alpha_tag(2j)).value == pytest.approx(0.5j)
    assert type_of_adjoint(alpha_tag(0.0)).kind == "infinity"
    assert type_of_adjoint(infinity_tag()).value == 0.0
    assert type_of_adjoint(scalar_tag(1 - 2j)).value == 1 + 2j


def test_adjoint_duality_numerically(triple_space):
    rng = rng_from(46)
    a = sample_typed_tto(triple_space, rng, 0.4 - 0.3j)
    tag = classify_type(triple_space, a)
    adj_tag = classify_type(triple_space, a.adjoint())
    assert adj_tag.value == pytest.approx(type_of_adjoint(tag).value, abs=1e-8)


def test_product_same_type_stays_tto(z3):
    s = compressed_shift(z3)
    eye = np.eye(3, dtype=complex)
    report = product_classification(z3, s, s.mat + eye)
    assert report.kind == "both_type"
    assert report.alpha.kind == "alpha" and abs(report.alpha.value) < 1e-10
    assert report.product.kind == "alpha" and abs(report.product.value) < 1e-9
    # S * S^2 = 0 on K_{z^3}: classification of the noise-level product is
    # scale-invariant, so accept scalar or a type compatible with 0
    report = product_classification(z3, s, s @ s)
    assert report.kind == "both_type"
    assert report.product.kind == "scalar" or abs(report.product.value) < 1e-9


def test_product_distinct_types_leaves_class(z3):
    s = compressed_shift(z3)
    report = product_classification(z3, s, s.adjoint())
    assert report.kind == "not_tto"
    assert report.product is None
    assert report.membership_residual > 1e-3


def test_product_scalar_factor_is_trivial(z3):
    s = compressed_shift(z3)
    report = product_classification(z3, 2.0 * np.eye(3, dtype=complex), s)
    assert report.kind == "trivial"
    assert report.product.kind == "alpha"


def test_product_typed_pair_random(triple_space):
    rng = rng_from(47)
    alpha = 0.6j
    a = sample_typed_tto(triple_space, rng, alpha)
    b = sample_typed_tto(triple_space, rng, alpha)
    report = product_classification(triple_space, a, b)
    assert report.kind == "both_type"
    assert report.product.kind in ("alpha", "scalar")
    if report.product.kind == "alpha":
        assert report.product.value == pytest.approx(alpha, abs=1e-7)


def test_product_rank2_lemma_matches_membership(triple_space):
    rng = rng_from(48)
    from ttolab.sampling import sample_typed_symbol, sample_symbol

    for k in range(20):
        if k % 2 == 0:
            alpha = 0.5 * np.exp(0.7j * k)
            s1 = sample_typed_symbol(triple_space, rng, alpha)
            s2 = sample_typed_symbol(triple_space, rng, alpha)
        else:
            s1 = sample_symbol(triple_space, rng)
            s2 = sample_symbol(triple_space, rng)
        prod = build_tto(triple_space, s1).mat @ build_tto(triple_space, s2).mat
        direct = is_tto(triple_space, prod).passed
        assert product_rank2_condition(triple_space, s1, s2) == direct
        res = product_rank2_residual(triple_space, s1, s2)
        assert (res < 1e-8) == direct


def test_commutant_characterizes_type(triple_space):
    rng = rng_from(49)
    alpha = 0.2 + 0.5j
    a = sample_typed_tto(triple_space, rng, alpha)
    assert commutant_residual(triple_space, a, alpha) < 1e-11
    assert commutant_check(triple_space, a, alpha)
    assert not commutant_check(triple_space, a, -0.4)
    b = sample_notype_tto(triple_space, rng)
    assert not commutant_check(triple_space, b, alpha)
    assert not commutant_check(triple_space, b, 0.0)


def test_commutant_symbol_round_trip(triple_space):
    rng = rng_from(50)
    alpha = 0.3
    a = sample_typed_tto(triple_space, rng, alpha)
    sym = commutant_symbol(triple_space, a, alpha)
    rebuilt = build_tto(triple_space, sym)
    assert np.max(np.abs(rebuilt.mat - a.mat)) < 1e-9


def test_rank_one_interior_frozen(z2):
    m, tag = rank_one_interior(z2, 0.5)
    assert np.allclose(m.mat, [[0.5, 0.25], [1.0, 0.5]], atol=1e-12)
    assert tag.kind == "alpha"
    assert tag.value == pytest.approx(0.25, abs=1e-10)  # u(0.5)
    # M^2 = u'(lam) M with u'(0.5) = 1: idempotent up to that factor
    assert np.allclose((m @ m).mat, m.mat, atol=1e-11)


def test_rank_one_interior_square_identity(triple_space):
    lam = 0.4 - 0.2j
    m, _ = rank_one_interior(triple_space, lam)
    du = triple_space.u.derivative(lam)
    assert np.max(np.abs((m @ m).mat - du * m.mat)) < 1e-10


def test_rank_one_boundary_frozen(z2):
    m, tag = rank_one_boundary(z2, 1.0)
    assert np.allclose(m.mat, np.ones((2, 2)), atol=1e-12)
    assert np.max(np.abs(m.mat - m.mat.conj().T)) < 1e-12
    assert tag.value == pytest.approx(1.0, abs=1e-10)  # u(1)
    assert abs(abs(tag.value) - 1.0) < 1e-10


def test_rank_one_boundary_random(triple_space):
    zeta = np.exp(2.2j)
    m, tag = rank_one_boundary(triple_space, zeta)
    k = triple_space.kernel(zeta)
    assert np.max(np.abs(m.mat - outer(k, k))) < 1e-10
    assert tag.value == pytest.approx(triple_space.u.evaluate(zeta), abs=1e-9)


def test_inverse_of_typed_is_typed(z2):
    report = inverse_type_check(z2, generalized_shift(z2, 0.3))
    assert report.inverse_is_tto
    assert report.consistent
    assert report.inverse_tag.value == pytest.approx(0.3, abs=1e-10)


def test_inverse_of_notype_is_not_tto(triple_space):
    rng = rng_from(51)
    a = sample_notype_tto(triple_space, rng)
    shifted = a.mat + 3.0 * np.linalg.norm(a.mat, 2) * np.eye(3)
    report = inverse_type_check(triple_space, shifted)
    assert report.input_tag.kind == "none"
    assert not report.inverse_is_tto
    assert report.consistent


def test_inverse_rejects_singular(z3):
    with pytest.raises(SingularMatrix):
        inverse_type_check(z3, compressed_shift(z3))


def test_algebra_containment_subalgebra(z3):
    s = compressed_shift(z3)
    ops = [np.eye(3, dtype=complex), s.mat, (s @ s).mat, s.mat + 2 * np.eye(3)]
    report = algebra_containment(z3, ops)
    assert report.kind == "subalgebra"
    assert abs(report.alpha.value) < 1e-10


def test_algebra_containment_violation(z3):
    s = compressed_shift(z3)
    report = algebra_containment(z3, [s.mat, s.mat.conj().T])
    assert report.kind == "not_algebra_candidate"
    assert report.violation is not None


def test_dimension_one_everything_is_scalar():
    sp = ModelSpace(BlaschkeProduct((0.5,)))
    tag = classify_type(sp, np.array([[3.0 - 1j]]))
    assert tag.kind == "scalar"
    assert tag.value == pytest.approx(3.0 - 1j)


def test_classify_rejects_non_tto(z3):
    bad = np.eye(3, dtype=complex)
    bad[1, 0] = 0.5
    with pytest.raises(NotATTO):
        classify_type(z3, bad)


def test_symbol_type_structure(pair_space):
    rng = rng_from(52)
    f = pair_space.vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    analytic_tag = classify_type(pair_space, build_tto(pair_space, analytic_symbol(f)))
    coanalytic_tag = classify_type(pair_space, build_tto(pair_space, coanalytic_symbol(f)))
    assert analytic_tag.kind == "alpha" and abs(analytic_tag.value) < 1e-9
    assert coanalytic_tag.kind == "infinity"


@pytest.fixture()
def defect_tests(monkeypatch):
    """Records every is_tto call, under each module name that binds it."""
    calls = []
    original = tto.is_tto

    def counting(space, operator):
        calls.append(operator)
        return original(space, operator)

    for module in (tto, classification, verify):
        monkeypatch.setattr(module, "is_tto", counting)
    return calls


def test_one_defect_test_per_operator(triple_space, defect_tests):
    # classification reads the decomposition its caller's membership test made
    rng = rng_from(53)
    a = sample_typed_tto(triple_space, rng, 0.4j)
    b = sample_typed_tto(triple_space, rng, 0.4j)
    assert product_classification(triple_space, a, b).kind == "both_type"
    assert len(defect_tests) == 3  # a, b, a b
    shifted = a.mat + 3.0 * a.norm() * np.eye(3)
    defect_tests.clear()
    assert inverse_type_check(triple_space, shifted).inverse_is_tto
    assert len(defect_tests) == 2  # the operator and its inverse
    s_alpha = generalized_shift(triple_space, 0.3).mat
    family = [np.eye(3), s_alpha, s_alpha @ s_alpha]
    defect_tests.clear()
    assert algebra_containment(triple_space, family).kind == "subalgebra"
    assert len(defect_tests) == 3 + 3 ** 2  # the elements, then every product
    defect_tests.clear()
    assert classify_unitary(triple_space, generalized_shift(triple_space, 1j)).unitary
    assert len(defect_tests) == 1


@pytest.mark.parametrize("check", ["check_typed_membership", "check_type_uniqueness",
                                   "check_membership_roundtrip", "check_rank_one_interior",
                                   "check_rank_one_boundary", "check_defect_rank_two"])
def test_verify_checks_test_each_operator_once(triple_space, defect_tests, check):
    # the rank-one checks read the residual of the test behind their classification
    residual, trials, _ = getattr(verify._Verifier(triple_space, 3, 5, 1.0), check)()
    assert trials == 5 and residual < 1e-9
    assert len(defect_tests) == trials


def test_operator_pool_builds_rank_one_operators_untested(triple_space, defect_tests):
    # five pool operators, one of them Kt_lam (x) K_lam, and no membership test
    residual, trials, _ = verify._Verifier(triple_space, 3, 5, 1.0).check_c_symmetry()
    assert trials == 5 and residual < 1e-9
    assert defect_tests == []
