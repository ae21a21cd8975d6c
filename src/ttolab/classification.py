"""Type classification of truncated Toeplitz operators and the product algebra.

An operator A = A_{phi_1 + conj(phi_2)} has type alpha when its symbol can be
rewritten as phi + alpha conj(S C phi) + c; equivalently when
conj(alpha) S C phi_1 - phi_2 is a multiple of K_0.  Types stratify the
non-scalar operators into NoType, exactly one finite or infinite type, or
(scalars) every type.  The product, inverse and commutant theorems verified
here all pivot on that stratification:

* A B is a truncated Toeplitz operator iff one factor is scalar or both share
  a type alpha, in which case the product has type alpha as well.
* An invertible operator's inverse is a truncated Toeplitz operator iff the
  operator has a type, and then the type is preserved.
* For |alpha| <= 1, having type alpha is the same as commuting with the
  generalized shift S_alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, OutsideClosedDisc, SingularMatrix
from .model_space import ModelSpace
from .tolerances import DISC_MARGIN, ON_CIRCLE_TOL, TYPE_TOL, VERDICT_TOL
from .tto import (
    BRACKET_SLACK,
    DefectDecomposition,
    SymbolExpr,
    TTOMatrix,
    as_matrix,
    generalized_shift,
    is_tto,
    outer,
    spectral_norm,
    _frobenius_bracket,
    _k0_typed_symbol,
    _membership,
    _project_off_k0,
    _shift_conjugate,
)


@dataclass(frozen=True)
class TypeTag:
    """Classification verdict: scalar, one type (finite alpha or infinity), or none.

    ``value`` holds alpha for kind "alpha" and the scalar constant for kind
    "scalar"; ``residual`` is the parallelism residual of the type test that
    produced the verdict.
    """

    kind: str
    value: complex | None = None
    residual: float = 0.0

    def __post_init__(self):
        if self.kind not in ("scalar", "alpha", "infinity", "none"):
            raise ValueError(f"unknown type kind {self.kind!r}")

    @property
    def is_scalar(self) -> bool:
        return self.kind == "scalar"

    @property
    def is_typed(self) -> bool:
        return self.kind in ("scalar", "alpha", "infinity")

    def compatible_with(self, other: "TypeTag") -> bool:
        """Do the two verdicts admit a common type (scalars match anything typed)."""
        if not (self.is_typed and other.is_typed):
            return False
        if self.is_scalar or other.is_scalar:
            return True
        if self.kind != other.kind:
            return False
        if self.kind == "infinity":
            return True
        a, b = self.value, other.value
        return abs(a - b) <= TYPE_TOL * (1.0 + abs(a) + abs(b))

    def to_json(self):
        val = None if self.value is None else [self.value.real, self.value.imag]
        return {"type": self.kind, "value": val, "residuals": {"parallelism": self.residual}}


def scalar_tag(c) -> TypeTag:
    return TypeTag("scalar", complex(c))


def alpha_tag(alpha, residual: float = 0.0) -> TypeTag:
    return TypeTag("alpha", complex(alpha), residual)


def infinity_tag(residual: float = 0.0) -> TypeTag:
    return TypeTag("infinity", None, residual)


def no_type_tag(residual: float) -> TypeTag:
    return TypeTag("none", None, residual)


def _classification_data(space: ModelSpace, membership: DefectDecomposition):
    """Canonical symbol parts over ``unit``, the power of two at their largest modulus
    (exact, and no norm of them overflows), their K_0-quotient images, and ``unit``."""
    big = max(np.abs(membership.phi.coords).max(), np.abs(membership.psi.coords).max())
    unit = 2.0 ** (math.frexp(big)[1] - 1)
    phi1, phi2 = (space.vector(v.coords / unit) for v in (membership.phi, membership.psi))
    v1 = _project_off_k0(space, _shift_conjugate(space, phi1).coords)
    v2 = phi2.coords  # already normalized off K_0
    return phi1, phi2, v1, v2, unit


def classify_type(space: ModelSpace, operator) -> TypeTag:
    """Classify a truncated Toeplitz operator by its type.

    Returns Scalar for multiples of the identity, Type(0) for purely analytic
    symbols, Type(infinity) for purely coanalytic ones, Type(alpha) when the
    K_0-quotient images of S C phi_1 and phi_2 are parallel with ratio
    conj(alpha), and NoType with the parallelism residual otherwise.  Raises
    NotATTO when the membership test fails.
    """
    return _type_tag(space, _membership(space, operator))


def _type_tag(space: ModelSpace, membership: DefectDecomposition) -> TypeTag:
    """classify_type of an operator whose passed defect decomposition the caller holds."""
    if space.dim == 1:
        # every 1x1 matrix is a scalar
        return scalar_tag(membership.operator[0, 0])
    phi1, phi2, v1, v2, unit = _classification_data(space, membership)
    k0 = space.k0.coords
    scale = phi1.norm() + phi2.norm()
    if scale == 0.0:
        return scalar_tag(0.0)
    tol = VERDICT_TOL * scale
    off_k0 = np.linalg.norm(_project_off_k0(space, phi1.coords))
    if off_k0 <= tol and phi2.norm() <= tol:
        c = np.vdot(k0, phi1.coords) / np.vdot(k0, k0)
        return scalar_tag(c * unit)
    n1 = float(np.linalg.norm(v1))
    n2 = float(np.linalg.norm(v2))
    if n1 <= tol:
        return infinity_tag(n1 * unit)
    if n2 <= tol:
        return alpha_tag(0.0, n2 * unit)
    alpha_bar = np.vdot(v1, v2) / np.vdot(v1, v1)
    residual = float(np.linalg.norm(v2 - alpha_bar * v1))
    if residual <= VERDICT_TOL * (n1 + n2):
        return alpha_tag(np.conj(alpha_bar), residual * unit)
    return no_type_tag(residual * unit)


def type_membership_residual(space: ModelSpace, operator, alpha) -> float:
    """Relative residual of the type-alpha membership test (alpha=None means infinity).

    Normalized by the total symbol scale, not by the tested components alone,
    so that an exactly satisfied constraint measured against rounding noise
    still reports as zero (an analytic symbol tested against alpha = 0 has
    both sides of the constraint at machine epsilon).
    """
    return _type_residual(space, _membership(space, operator), alpha)


def _type_residual(space: ModelSpace, membership: DefectDecomposition, alpha) -> float:
    """type_membership_residual from a passed defect decomposition the caller holds."""
    phi1, phi2, v1, v2, _ = _classification_data(space, membership)
    scale = phi1.norm() + phi2.norm() + 1e-300
    if alpha is None:
        return float(np.linalg.norm(v1)) / scale
    alpha = complex(alpha)
    return float(np.linalg.norm(np.conj(alpha) * v1 - v2)) / ((1.0 + abs(alpha)) * scale)


def type_of_adjoint(tag: TypeTag) -> TypeTag:
    """Type of A^* given the type of A: alpha maps to conj(1/alpha), 0 <-> infinity."""
    if tag.kind == "scalar":
        return scalar_tag(np.conj(tag.value))
    if tag.kind == "infinity":
        return alpha_tag(0.0, tag.residual)
    if tag.kind == "alpha":
        if tag.value == 0:
            return infinity_tag(tag.residual)
        return alpha_tag(np.conj(1.0 / tag.value), tag.residual)
    return tag


# -- products -----------------------------------------------------------------


def product_rank2_residual(space: ModelSpace, first: SymbolExpr,
                           second: SymbolExpr) -> float:
    """Relative residual of the rank-two product test for A_first A_second.

    The product is a truncated Toeplitz operator iff
    phi_1 (x) psi_2 - (S C phi_2) (x) (S C psi_1) can be written
    Phi_0 (x) K_0 + K_0 (x) Psi_0, i.e. iff it vanishes after compressing
    both slots off K_0.  Constants fold into the analytic part as multiples
    of K_0, so the residual does not depend on the chosen representation.
    """
    phi1, phi2 = first.standard_parts(space)
    psi1, psi2 = second.standard_parts(space)
    sc_phi2 = _shift_conjugate(space, phi2)
    sc_psi1 = _shift_conjugate(space, psi1)
    # compressing f (x) g off K_0 in both slots projects f and g
    p_phi1, p_psi2, p_sc_phi2, p_sc_psi1 = (
        space.vector(_project_off_k0(space, v.coords)) for v in (phi1, psi2, sc_phi2, sc_psi1))
    residual = spectral_norm(outer(p_phi1, p_psi2) - outer(p_sc_phi2, p_sc_psi1))
    scale = phi1.norm() * psi2.norm() + sc_phi2.norm() * sc_psi1.norm() + 1.0
    return residual / scale


def product_rank2_condition(space: ModelSpace, first: SymbolExpr, second: SymbolExpr) -> bool:
    """Rank-two test deciding whether A_first A_second is a truncated Toeplitz operator."""
    return bool(product_rank2_residual(space, first, second) <= VERDICT_TOL)


@dataclass(frozen=True)
class ProductClassification:
    """Verdict of the product theorem for a pair of truncated Toeplitz operators.

    ``kind`` is "not_tto", "trivial" (a scalar factor), or "both_type" with
    ``alpha`` the shared type tag of the factors.  ``membership_residual`` is
    the Frobenius norm of the product's compressed defect, which lies between
    its spectral norm (``is_tto(space, a @ b).residual``) and sqrt(n) times it.
    """

    kind: str
    alpha: TypeTag | None
    left: TypeTag
    right: TypeTag
    product: TypeTag | None
    membership_residual: float


def _defect_frobenius(membership: DefectDecomposition) -> float:
    """||compressed defect||_F: the upper end of is_tto's bracket, or, where that is
    out of range, the norm scaled by the largest modulus so that it cannot overflow."""
    comp = membership.compressed_defect
    bracket = _frobenius_bracket(comp)
    if bracket is not None:
        return float(bracket[1])
    big = float(np.max(np.abs(comp)))
    return big * float(np.linalg.norm(comp / big)) if big else 0.0


def product_classification(space: ModelSpace, left, right) -> ProductClassification:
    """Classify A B per the product theorem, cross-checking every branch.

    Raises NotATTO when either factor fails membership and NumericalFailure
    when the numerical verdicts contradict the theorem (a trivial or shared
    type product failing membership, or a products-of-distinct-types passing).
    """
    a = as_matrix(space, left)
    b = as_matrix(space, right)
    tag_a = _type_tag(space, _membership(space, a, "left factor fails the membership test"))
    tag_b = _type_tag(space, _membership(space, b, "right factor fails the membership test"))
    membership = is_tto(space, a @ b)
    residual = _defect_frobenius(membership)
    if membership.passed:
        tag_p = _type_tag(space, membership)
        if tag_a.is_scalar or tag_b.is_scalar:
            return ProductClassification("trivial", None, tag_a, tag_b, tag_p, residual)
        if not tag_a.compatible_with(tag_b):
            raise NumericalFailure(
                "product passed membership but factors share no type")
        if not (tag_p.is_scalar or tag_p.compatible_with(tag_a)):
            raise NumericalFailure("product type differs from the shared factor type")
        return ProductClassification("both_type", tag_a, tag_a, tag_b, tag_p, residual)
    if tag_a.is_scalar or tag_b.is_scalar:
        raise NumericalFailure("scalar-factor product failed the membership test")
    if tag_a.compatible_with(tag_b):
        raise NumericalFailure("shared-type product failed the membership test")
    return ProductClassification("not_tto", None, tag_a, tag_b, None, residual)


# -- commutant ----------------------------------------------------------------


def commutant_residual(space: ModelSpace, operator, alpha) -> float:
    """Relative norm of the commutator with the generalized shift S_alpha."""
    a = as_matrix(space, operator)
    s_alpha = generalized_shift(space, alpha).mat
    comm = spectral_norm(a @ s_alpha - s_alpha @ a, "commutator")
    return comm / max(spectral_norm(a, "operator norm"), 1e-300)


def commutant_check(space: ModelSpace, operator, alpha) -> bool:
    """Does the operator commute with the generalized shift S_alpha (|alpha| <= 1)."""
    return bool(commutant_residual(space, operator, alpha) <= VERDICT_TOL)


def commutant_symbol(space: ModelSpace, operator, alpha) -> SymbolExpr:
    """Symbol of an operator A in the commutant of S_alpha, the type-alpha one of A K_0."""
    a = as_matrix(space, operator)
    alpha = complex(alpha)
    if not abs(alpha) <= 1.0 + DISC_MARGIN:
        raise ValueError("commutant_symbol requires |alpha| <= 1")
    return _k0_typed_symbol(space, a @ space.k0.coords, alpha)


# -- rank one -----------------------------------------------------------------


def rank_one_interior(space: ModelSpace, lam) -> tuple[TTOMatrix, TypeTag]:
    """Rank-one operator Kt_lam (x) K_lam for interior lambda; it has type u(lambda).

    Its symbol is u/(z - lambda), and it squares to u'(lambda) times itself.
    """
    return _rank_one_interior(space, lam)[:2]


def _rank_one_interior(space: ModelSpace, lam):
    """rank_one_interior, plus the defect decomposition behind the tag."""
    lam = complex(lam)
    if not abs(lam) < 1.0 - DISC_MARGIN:
        raise OutsideClosedDisc("rank_one_interior needs |lambda| < 1")
    op = TTOMatrix(outer(space.conjugate_kernel(lam), space.kernel(lam)), space)
    return _classified_rank_one(space, op, space.u.evaluate(lam))


def rank_one_boundary(space: ModelSpace, zeta) -> tuple[TTOMatrix, TypeTag]:
    """Self-adjoint rank-one operator K_zeta (x) K_zeta for |zeta| = 1; type u(zeta)."""
    return _rank_one_boundary(space, zeta)[:2]


def _rank_one_boundary(space: ModelSpace, zeta):
    """rank_one_boundary, plus the defect decomposition behind the tag."""
    zeta = complex(zeta)
    if not abs(abs(zeta) - 1.0) <= ON_CIRCLE_TOL:
        raise OutsideClosedDisc("rank_one_boundary needs |zeta| = 1")
    zeta /= abs(zeta)
    k = space.kernel(zeta)
    return _classified_rank_one(space, TTOMatrix(outer(k, k), space), space.u.evaluate(zeta))


def _classified_rank_one(space, op, expected):
    """(op, tag, membership): classify_type of op, asserted to be of type ``expected``."""
    membership = _membership(space, op)
    tag = _type_tag(space, membership)
    if not tag.is_scalar and (
            tag.kind != "alpha" or abs(tag.value - expected) > TYPE_TOL * (1.0 + abs(expected))):
        raise NumericalFailure(
            f"rank-one operator classified {tag.kind}/{tag.value} instead of {expected}")
    return op, tag, membership


# -- inverses and algebras ------------------------------------------------------


@dataclass(frozen=True)
class InverseTypeReport:
    """Outcome of the inverse theorem check on one invertible operator.

    ``membership_residual`` is the Frobenius norm of the inverse's compressed
    defect, between its spectral norm and sqrt(n) times it.
    """

    input_tag: TypeTag
    inverse_is_tto: bool
    inverse_tag: TypeTag | None
    consistent: bool
    membership_residual: float


def inverse_type_check(space: ModelSpace, operator) -> InverseTypeReport:
    """Verify that the inverse is a truncated Toeplitz operator iff the input is typed.

    When both are typed the tags must agree.  Raises SingularMatrix when the
    smallest singular value is below VERDICT_TOL times the norm or when inv
    fails, NotATTO when the input fails membership, NumericalFailure when an
    entry is not finite.  The inverse is formed first: ||A||_F ||A^{-1}||_F
    bounds cond_2(A) above, so below 1/VERDICT_TOL, less BRACKET_SLACK, it
    accepts A with no SVD; otherwise, and when inv fails or its norm is out of
    the bracket's range, the singular values decide.
    """
    a = as_matrix(space, operator)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        inv = None
    brackets = (_frobenius_bracket(a), None if inv is None else _frobenius_bracket(inv))
    if None in brackets or not (
            brackets[0][1] * brackets[1][1] * VERDICT_TOL < 1.0 - BRACKET_SLACK):
        svals = np.linalg.svd(a, compute_uv=False)
        if svals[-1] <= VERDICT_TOL * svals[0]:
            raise SingularMatrix(f"condition {svals[0] / max(svals[-1], 1e-300):.3e}")
    if inv is None:
        raise SingularMatrix("matrix inverse failed")
    tag = _type_tag(space, _membership(space, a,
                                       "inverse_type_check input fails the membership test"))
    membership = is_tto(space, inv)
    if membership.passed:
        inv_tag = _type_tag(space, membership)
        consistent = tag.is_typed and tag.compatible_with(inv_tag)
        if tag.kind == "alpha" and inv_tag.kind == "alpha":
            consistent = consistent and abs(tag.value - inv_tag.value) <= TYPE_TOL * (
                1.0 + abs(tag.value))
    else:
        inv_tag = None
        consistent = not tag.is_typed
    return InverseTypeReport(tag, membership.passed, inv_tag, consistent,
                             _defect_frobenius(membership))


@dataclass(frozen=True)
class AlgebraReport:
    """Containment verdict for a family of truncated Toeplitz operators.

    ``kind`` is "scalar_algebra" when every element is scalar, "subalgebra"
    when all non-scalar elements share type alpha and all pairwise products
    stay truncated Toeplitz, and "not_algebra_candidate" otherwise with the
    violating pair or element recorded.
    """

    kind: str
    alpha: TypeTag | None
    violation: str | None = None


def algebra_containment(space: ModelSpace, operators) -> AlgebraReport:
    """Check whether a family can sit inside one maximal algebra B_alpha."""
    mats = [as_matrix(space, op) for op in operators]
    tags = [_type_tag(space, _membership(space, mat, f"element {i} fails the membership test"))
            for i, mat in enumerate(mats)]
    non_scalar = [(i, t) for i, t in enumerate(tags) if not t.is_scalar]
    if not non_scalar:
        return AlgebraReport("scalar_algebra", None)
    shared = non_scalar[0][1]
    if shared.kind == "none":
        return AlgebraReport("not_algebra_candidate", None,
                             f"element {non_scalar[0][0]} has no type")
    for i, t in non_scalar[1:]:
        if t.kind == "none" or not shared.compatible_with(t):
            return AlgebraReport("not_algebra_candidate", shared,
                                 f"element {i} has incompatible type {t.kind}")
    for i in range(len(mats)):
        for j in range(len(mats)):
            if not is_tto(space, mats[i] @ mats[j]).passed:
                return AlgebraReport("not_algebra_candidate", shared,
                                     f"product of elements {i} and {j} leaves the class")
    return AlgebraReport("subalgebra", shared)
