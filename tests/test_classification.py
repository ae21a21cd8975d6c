import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from ttolab import classification, cli, tto, verify
from ttolab import (
    BlaschkeProduct,
    ModelSpace,
    NotATTO,
    NumericalFailure,
    RationalPair,
    RationalTerm,
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

from conftest import pole_terms


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


def _rational_pairs(rng):
    """(first, second, passes) pairs of rational symbols and the product theorem's verdict."""
    def outer_only(alpha=None):
        roots = rng.uniform(1.3, 2.3, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
        return SymbolExpr(rational_terms=(RationalTerm(RationalPair(
            tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)),
            tuple(npoly.polyfromroots(roots))), alpha),))

    def inner_only():
        roots = rng.uniform(0.3, 0.8, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
        return SymbolExpr(rational_terms=(RationalTerm(RationalPair(
            tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2)),
            tuple(npoly.polyfromroots(roots)))),))

    mixed = [SymbolExpr(rational_terms=(t,)) for t in pole_terms(rng, 0.6j)]
    # 1 + (0.3 + 0.85i)/(z - 0.85i), divided by 1 - 0.6i conj(u): the fraction operator of
    # the constant 1 is the identity, so this is the identity plus a coanalytic operator
    clark = SymbolExpr(rational_terms=(
        RationalTerm(RationalPair((0.3, 1.0), (-0.85j, 1.0)), 0.6j),))
    return [
        (outer_only(), outer_only(), True),  # type 0
        (inner_only(), inner_only(), True),  # type infinity
        (outer_only(0.6j), outer_only(0.6j), True),  # fraction symbols of one alpha
        (outer_only(0.6j), outer_only(-0.5), False),
        (outer_only(), inner_only(), False),
        (mixed[0], mixed[2], False),
        (mixed[1], mixed[3], False),
        (clark, clark, True),
        (clark, outer_only(0.6j), False),
        (clark, SymbolExpr(constant=2.0 - 1j), True),
    ]


@pytest.mark.parametrize("zeros", [(0.5, 0.5, -0.2), (0.99,) * 16, (0.995,) * 16],
                         ids=["triple", "0.99 x16", "0.995 x16"])
def test_product_rank2_lemma_on_rational_symbols(zeros):
    # near the circle the Clark-divided terms used to be standardized through a
    # quadrature that stopped "still moving at 262144 points"
    sp = ModelSpace(BlaschkeProduct(zeros))
    for first, second, passes in _rational_pairs(rng_from(49)):
        prod = build_tto(sp, first).mat @ build_tto(sp, second).mat
        assert is_tto(sp, prod).passed == passes
        assert product_rank2_condition(sp, first, second) == passes


@pytest.mark.parametrize("kind", ["alpha", "zero", "infinity", "none", "scalar"])
def test_type_tags_do_not_depend_on_scale(kind):
    # at 1e-200 the norms of the symbol parts underflowed to 0, and every operator
    # classified as the scalar 0; at 1e200 their squares overflowed
    from ttolab.sampling import sample_blaschke

    sp = ModelSpace(sample_blaschke(rng_from(16), 16))
    rng = rng_from(17)
    a = {"alpha": lambda: sample_typed_tto(sp, rng, 0.4 + 0.2j).mat,
         "zero": lambda: sample_typed_tto(sp, rng, 0.0).mat,
         "infinity": lambda: sample_typed_tto(sp, rng, None).mat,
         "none": lambda: sample_notype_tto(sp, rng).mat,
         "scalar": lambda: (2.0 - 1j) * np.eye(sp.dim)}[kind]()
    b = sample_typed_tto(sp, rng, 0.4 + 0.2j).mat

    def tags(scale):
        inverse = inverse_type_check(sp, scale * a)
        product = product_classification(sp, scale * a, b)
        return (classify_type(sp, scale * a), inverse.input_tag, inverse.inverse_tag,
                product.left, product.product), product.kind

    reference, product_kind = tags(1.0)
    assert reference[0].kind == kind.replace("zero", "alpha")
    for scale in (1e-200, 1e200):
        scaled, scaled_kind = tags(scale)
        assert scaled_kind == product_kind
        # the inverse of scale A is A^{-1}/scale
        for tag, ref, unit in zip(scaled, reference, (scale, scale, 1 / scale, scale, scale)):
            assert (tag is None) == (ref is None)
            if tag is None:
                continue
            assert tag.kind == ref.kind
            if tag.kind == "alpha":
                assert abs(tag.value - ref.value) <= 1e-12
            if tag.kind == "scalar":
                assert abs(tag.value - unit * ref.value) <= 1e-12 * abs(unit * ref.value)
            assert abs(tag.residual - unit * ref.residual) <= 1e-12 * unit


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


def test_inverse_failure_is_singular(z2, monkeypatch):
    # the condition gate accepts this typed operator; an inv that raises on it
    # used to be called again, and numpy's LinAlgError escaped
    def fail(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", fail)
    with pytest.raises(SingularMatrix, match="inverse failed"):
        inverse_type_check(z2, generalized_shift(z2, 0.3))


def _outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # the outcome is compared, not handled
        return type(exc), str(exc)


def _reference_inverse_gate(space, a):
    """inverse_type_check's tags under the full-SVD condition gate it replaced."""
    svals = np.linalg.svd(a, compute_uv=False)
    if svals[-1] <= 1e-8 * svals[0]:
        raise SingularMatrix(f"condition {svals[0] / max(svals[-1], 1e-300):.3e}")
    inv = np.linalg.inv(a)
    return classify_type(space, a), classify_type(space, inv) if is_tto(space, inv) else None


@pytest.mark.parametrize("n", [4, 16, 64])
def test_inverse_condition_gate_matches_svd_reference(n):
    # V diag(d) V^* in a Clark eigenbasis is a typed operator with singular
    # values |d|: conditions 1e6 to 1e11 straddle the gate's 1e8; at scales
    # 1e-200 and 1e200 a non-singular input (or its inverse) reaches about 1e200,
    # which both sides classify
    from ttolab.crofoot_clark import clark_data
    from ttolab.sampling import sample_blaschke

    sp = ModelSpace(sample_blaschke(rng_from(n), n))
    v = clark_data(sp, np.exp(0.4j)).eigenvectors
    phases = np.exp(2j * np.pi * rng_from(n + 1).random(n))
    zn = ModelSpace(BlaschkeProduct((0.0,) * n))
    cases = [(zn, np.zeros((n, n), dtype=complex)), (zn, compressed_shift(zn).mat)]
    for cond in np.logspace(6, 11, 51):
        d = phases * cond ** -np.linspace(0.0, 1.0, n)
        cases += [(sp, v @ ((scale * d)[:, None] * v.conj().T)) for scale in (1e-200, 1.0, 1e200)]
    singular = 0
    for space, a in cases:
        expected = _outcome(lambda: _reference_inverse_gate(space, a))
        report = _outcome(lambda: inverse_type_check(space, a))
        if isinstance(report, tuple):
            assert report == expected
            singular += report[0] is SingularMatrix
        else:
            assert (report.input_tag, report.inverse_tag) == expected
            assert report.inverse_is_tto and report.consistent
    assert 2 < singular < len(cases) - 2


def test_typed_gates_take_no_svd(stress_spaces, monkeypatch):
    from ttolab.crofoot_clark import clark_data, functional_calculus

    sp = stress_spaces["random 16"]
    rng = rng_from(52)
    a = sample_typed_tto(sp, rng, 0.4 + 0.3j).mat
    a = a + 3.0 * np.linalg.norm(a, 2) * np.eye(16)
    b = sample_typed_tto(sp, rng, 0.4 + 0.3j).mat
    unitary = functional_calculus(clark_data(sp, 1j), np.exp(1j * rng.uniform(0, 6, 16)))
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    data = clark_data(sp, np.exp(0.3j))
    assert inverse_type_check(sp, a).consistent
    assert product_classification(sp, a, b).kind == "both_type"
    assert calls == []
    # the Clark residuals take one SVD each, on first read only
    data.ortho_residual, data.eigen_residual, data.ortho_residual
    assert len(calls) == 2
    # classify_unitary: the reported gap ||A^* A - I|| and ||A||, nothing more
    assert classify_unitary(sp, unitary).unitary
    assert len(calls) == 4


def test_product_residual_is_the_frobenius_bracket_of_membership(triple_space):
    rng = rng_from(53)
    for alpha in (0.3, 0.5j, None):
        a = sample_typed_tto(triple_space, rng, 0.3)
        b = (sample_typed_tto(triple_space, rng, alpha) if alpha is not None
             else compressed_shift(triple_space).adjoint())
        report = product_classification(triple_space, a, b)
        spectral = is_tto(triple_space, a.mat @ b.mat).residual
        assert (1 - 1e-12) * spectral <= report.membership_residual
        assert report.membership_residual <= (1 + 1e-12) * np.sqrt(3) * spectral


def test_algebra_containment_subalgebra(z3):
    s, eye = compressed_shift(z3).mat, np.eye(3, dtype=complex)
    report = algebra_containment(z3, [eye, s, s @ s, s + 2 * eye])
    assert report.kind == "subalgebra"
    assert abs(report.alpha.value) < 1e-10
    # a family of scalars is the scalar algebra, which has no type
    report = algebra_containment(z3, [eye, (2.0 - 1j) * eye, 0 * eye])
    assert report.kind == "scalar_algebra" and report.alpha is None


def test_algebra_containment_violation(z3):
    s, eye = compressed_shift(z3).mat, np.eye(3, dtype=complex)
    for ops, violation in [
            ([s, s.conj().T], "element 1 has incompatible type infinity"),
            ([eye, sample_notype_tto(z3, rng_from(55)).mat, s], "element 1 has no type")]:
        report = algebra_containment(z3, ops)
        assert report.kind == "not_algebra_candidate"
        assert report.violation == violation


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

    for module in (tto, classification, verify, cli):
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


def test_cli_is_tto_task_tests_once(triple_space, defect_tests):
    # the reported symbol comes from the decomposition of the task's own test
    rng = rng_from(54)
    f = triple_space.vector(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    symbol = {"analytic": [[x.real, x.imag] for x in f.coords]}
    task = {"kind": "is_tto", "operator": {"symbol": symbol}}
    result, passed = cli.run_task(triple_space, task, None)
    assert passed and result["result"]["passed"] and "symbol" in result["result"]
    assert len(defect_tests) == 1


@pytest.mark.parametrize("check", ["check_typed_membership", "check_type_uniqueness",
                                   "check_membership_roundtrip", "check_rank_one_interior",
                                   "check_rank_one_boundary", "check_defect_rank_two"])
def test_verify_checks_test_each_operator_once(triple_space, defect_tests, check):
    # the rank-one checks read the residual of the test behind their classification
    residual, trials, _, _ = verify._Verifier(triple_space, 3, 5).run(check)
    assert trials == 5 and residual < 1e-9
    assert len(defect_tests) == trials


def test_operator_pool_builds_rank_one_operators_untested(triple_space, defect_tests):
    # five pool operators, one of them Kt_lam (x) K_lam, and no membership test
    residual, trials, _, _ = verify._Verifier(triple_space, 3, 5).run("check_c_symmetry")
    assert trials == 5 and residual < 1e-9
    assert defect_tests == []
