"""Crofoot transforms between model spaces and Clark unitary spectral theory.

For |alpha| < 1 the disc automorphism tau_alpha(w) = (w - alpha)/(1 - conj(alpha) w)
turns u into another finite Blaschke product u_alpha = tau_alpha(u) whose zeros
are the solutions of u = alpha.  Multiplication by
(1 - |alpha|^2)^{-1/2} (1 - conj(alpha) u) is a unitary map T: K_{u_alpha} -> K_u
(the Crofoot transform); it intertwines the plain compressed shift S' on
K_{u_alpha} with the generalized shift S_alpha, T S' = S_alpha T, and transports
every analytic symbol phi to the fraction symbol phi/(1 - alpha conj(u)).
With I - S' S'^* = K'_0 (x) K'_0 this makes T the solution of the Stein equation
T - S_alpha T S'^* = (T K'_0) (x) K'_0, and T K'_0 is a multiple of K_0, so T is
built without circle quadrature; the transform keeps the unitarity residual
that certifies it.  Since the analytic operator A_phi on K_{u_alpha} is phi(S'),
the fraction operator is phi(S_alpha), which commutes with S_alpha: a
polynomial fraction symbol is built by build_tto from its type-alpha symbol,
fixed by phi(S_alpha) K_0, which Horner's rule forms on a vector.
crofoot_intertwine_check builds phi(S') on K_{u_alpha} the same way, so no
Crofoot source space is ever gridded.  Refined quadrature of a fraction symbol
stays only where it must be independent of that route or where no closed form
exists: the conjugate side of crofoot_intertwine_check and the fraction_symbol
check of the verify battery (oracles), and rational symbol terms in
tto.build_tto.

For |alpha| = 1 the generalized shift S_alpha is unitary with spectrum the n
distinct solutions of u = alpha on the circle, eigenvectors the normalized
boundary kernels, and spectral weights 1/|u'(zeta_j)| (the atoms of the Clark
measure).  Unitary truncated Toeplitz operators are exactly the functions of
one S_alpha that are unimodular at its spectrum.  The spectrum is not taken
from an eigensolver: solve_equals finds the points where the monotone boundary
phase of u meets arg(alpha), so the eigen-relation S_alpha v_j = zeta_j v_j
that clark_data certifies is an independent check of both.  clark_data builds
the n boundary kernels in one basis evaluation and keeps the orthonormality
and eigen-relation residuals that certify them.  The Clark points also seed
the interior solutions of u = alpha behind crofoot and the fraction checks:
solve_equals moves each Clark point of alpha/|alpha| inward to modulus about
|alpha|^{1/|u'(zeta_j)|} and runs Aberth-Ehrlich sweeps on the product form
of u - alpha, again with no eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .blaschke import BlaschkeProduct, stein_solve
from .classification import _type_tag
from .errors import (
    AlphaNotUnimodular,
    AlphaOnCircle,
    NumericalFailure,
    QuadratureError,
)
from .model_space import ModelSpace, ModelVector, same_space
from .tolerances import DISC_MARGIN, ON_CIRCLE_TOL, TYPE_TOL, VERDICT_TOL
from .tto import (
    TTOMatrix,
    analytic_symbol,
    as_matrix,
    build_refined,
    build_tto,
    generalized_shift,
    spectral_norm,
    _membership,
    _typed_symbol,
)


def disc_automorphism(w, alpha):
    alpha = complex(alpha)
    return (w - alpha) / (1.0 - np.conj(alpha) * w)


def level_set_blaschke(u: BlaschkeProduct, alpha) -> BlaschkeProduct:
    """The Blaschke product u_alpha = (u - alpha)/(1 - conj(alpha) u).

    Zeros are the preimages u = alpha; the rotation is fitted at a boundary
    anchor point well separated from the zeros and then normalized to modulus
    one.  An alpha so near the circle that a preimage lies within DISC_MARGIN
    of it raises AlphaOnCircle.
    """
    alpha = complex(alpha)
    if not abs(alpha) < 1.0 - DISC_MARGIN:
        raise AlphaOnCircle("level_set_blaschke requires |alpha| < 1")
    zeros = u.solve_equals(alpha)
    gap = 1.0 - float(np.max(np.abs(zeros)))
    if not gap > DISC_MARGIN:
        raise AlphaOnCircle(
            f"level_set_blaschke: |alpha| = 1 - {1.0 - abs(alpha):.3e} puts a solution of "
            f"u = alpha {gap:.3e} from the unit circle, within the zero margin {DISC_MARGIN}")
    anchors = np.exp(2j * np.pi * np.arange(7) / 7)
    gaps = np.min(np.abs(anchors[:, None] - zeros[None, :]), axis=1)
    anchor = anchors[int(np.argmax(gaps))]
    target = disc_automorphism(u.evaluate(anchor), alpha)
    tentative = BlaschkeProduct(tuple(zeros), 1.0)
    rho = target / tentative.evaluate(anchor)
    if abs(abs(rho) - 1.0) > 1e-6:
        raise NumericalFailure(f"level-set rotation modulus {abs(rho):.6f} is not 1")
    return BlaschkeProduct(tuple(zeros), rho / abs(rho))


@dataclass(frozen=True, eq=False)
class CrofootTransform:
    """Unitary multiplication operator T: K_{u_alpha} -> K_u as a matrix.

    ``unitarity_residual`` is ||T^* T - I||, computed and bounded by crofoot.
    """

    alpha: complex
    source: ModelSpace
    target: ModelSpace
    mat: np.ndarray
    unitarity_residual: float

    def map_to_target(self, operator) -> TTOMatrix:
        """Conjugate an operator on K_{u_alpha} into one on K_u."""
        a = as_matrix(self.source, operator)
        return TTOMatrix(self.mat @ a @ self.mat.conj().T, self.target)

    def map_to_source(self, operator) -> TTOMatrix:
        a = as_matrix(self.target, operator)
        return TTOMatrix(self.mat.conj().T @ a @ self.mat, self.source)

    def apply(self, f: ModelVector) -> ModelVector:
        if not same_space(f.space, self.source):
            raise NumericalFailure("Crofoot transform applied to a foreign vector")
        return self.target.vector(self.mat @ f.coords)


# Boundary points where u_alpha is compared with tau_alpha(u); none is one of the
# seventh roots of unity at which level_set_blaschke fits the rotation.
DRIFT_POINTS = np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)


def crofoot(space: ModelSpace, alpha) -> CrofootTransform:
    """Build the Crofoot transform of K_u at interior alpha.

    The matrix is the Stein solve of T - S_alpha T S'^* = (T K'_0) (x) K'_0 with
    T K'_0 = sqrt(1 - |alpha|^2)/(1 - alpha conj(u(0))) K_0, where S' and K'_0 are
    the shift and the kernel at 0 of K_{u_alpha}.  The constructed u_alpha is
    checked against tau_alpha(u) at 16 boundary points to 1e-10, and T is checked
    unitary to 1e-9.
    """
    alpha = complex(alpha)
    if not abs(alpha) < 1.0 - DISC_MARGIN:
        raise AlphaOnCircle("crofoot requires |alpha| < 1")
    u_alpha = level_set_blaschke(space.u, alpha)
    drift = float(np.max(np.abs(u_alpha.evaluate(DRIFT_POINTS) - disc_automorphism(
        space.u.evaluate(DRIFT_POINTS), alpha))))
    if drift > 1e-10:
        raise NumericalFailure(f"u_alpha drifts {drift:.3e} from tau_alpha(u)")
    source = ModelSpace(u_alpha)
    s_src, k0_src, _ = u_alpha.shift_data
    gain = np.sqrt(1.0 - abs(alpha) ** 2) / (1.0 - alpha * np.conj(space.u.value_at_zero))
    mat = stein_solve(generalized_shift(space, alpha).mat, s_src.conj().T,
                      np.outer(gain * space.k0.coords, np.conj(k0_src)))
    unitarity = spectral_norm(mat.conj().T @ mat - np.eye(space.dim))
    if unitarity > 1e-9:
        raise NumericalFailure(f"Crofoot matrix unitarity residual {unitarity:.3e}")
    return CrofootTransform(alpha, source, space, mat, unitarity)


# -- fraction symbols -----------------------------------------------------------


def _poly_coeffs(phi) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(phi, dtype=complex))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("polynomial symbols must be nonempty 1-d ascending coefficients")
    if not np.all(np.isfinite(arr)):
        raise ValueError("polynomial coefficients must be finite")
    return arr


def _horner_k0(s: np.ndarray, k0: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """phi(S) K_0 by Horner's rule on a vector: d products of S with a vector."""
    acc = coeffs[-1] * k0
    for c in coeffs[-2::-1]:
        acc = s @ acc + c * k0
    return acc


def build_clark_fraction_tto(space: ModelSpace, phi, alpha) -> TTOMatrix:
    """A_{phi/(1 - alpha conj(u))} for analytic phi and interior alpha.

    For phi given as a K_u vector the equivalent standard symbol
    phi + alpha conj(S C phi) is built exactly.  Polynomial coefficients give
    phi(S_alpha), which commutes with S_alpha and so is that build for the
    vector chi = phi(S_alpha) K_0 / (1 - alpha conj(u(0))), formed by Horner's
    rule on a vector.  Any degree is accepted; degrees at or above n give the
    same operator as their remainder modulo u_alpha.
    """
    alpha = complex(alpha)
    if not abs(alpha) < 1.0 - DISC_MARGIN:
        raise AlphaOnCircle("fraction symbols need |alpha| < 1")
    if not isinstance(phi, ModelVector):
        s_alpha = generalized_shift(space, alpha).mat
        chi = _horner_k0(s_alpha, space.k0.coords, _poly_coeffs(phi))
        phi = space.vector(chi / (1.0 - alpha * np.conj(space.u.value_at_zero)))
    return build_tto(space, _typed_symbol(space, phi, alpha))


def reduce_mod_level_set(transform: CrofootTransform, phi) -> ModelVector:
    """Canonical representative of phi modulo the fraction-symbol kernel.

    Two analytic symbols give the same fraction operator iff u_alpha divides
    their difference, so the representative is the projection of phi onto
    K_{u_alpha}, the source space of the Crofoot transform at alpha:
    P phi = phi(S') K'_0, evaluated by Horner's rule on a vector.
    """
    source = transform.source
    s, k0, _ = source.u.shift_data
    return source.vector(_horner_k0(s, k0, _poly_coeffs(phi)))


@dataclass(frozen=True)
class IntertwineReport:
    """Residuals of the Crofoot intertwining checks for one analytic symbol.

    ``conjugate_error`` is the message of the QuadratureError raised when the
    conjugate side's quadrature did not converge, ``residual_conjugate`` then
    being inf; the analytic residual and the norm gap need no quadrature and
    stand.
    """

    residual_analytic: float
    residual_conjugate: float
    norm_gap: float
    conjugate_error: str = ""

    @property
    def max_residual(self) -> float:
        return max(self.residual_analytic, self.residual_conjugate, self.norm_gap)


def crofoot_intertwine_check(transform: CrofootTransform, phi) -> IntertwineReport:
    """Verify T A^{u_alpha}_phi T^* = A^u_{phi/(1 - alpha conj(u))} and its adjoint form.

    A^{u_alpha}_phi is phi(S'), built from the analytic symbol P phi of the
    source space, and the fraction operator is phi(S_alpha), so the analytic
    residual tests the Crofoot relation T phi(S') T^* = phi(S_alpha); the source
    space is never gridded.  The adjoint residual is computed from an
    independent quadrature of conj(phi)/(1 - conj(alpha) u) on the target, not
    by transposing the first identity, and the norm gap compares the two
    unitarily equivalent operator norms.  A conjugate quadrature that does not
    converge is recorded in the report, not raised, so the analytic residual
    and the norm gap still read.
    """
    coeffs = _poly_coeffs(phi)
    tgt = transform.target
    a_src = build_tto(transform.source, analytic_symbol(reduce_mod_level_set(transform, coeffs)))
    rhs = build_clark_fraction_tto(tgt, coeffs, transform.alpha).mat
    rhs_norm = spectral_norm(rhs)
    scale = max(rhs_norm, 1.0)
    norm_gap = abs(spectral_norm(a_src.mat) - rhs_norm) / scale
    lhs = transform.map_to_target(a_src).mat
    residual_analytic = spectral_norm(lhs - rhs) / scale
    abar = np.conj(transform.alpha)
    try:
        rhs_conj = build_refined(
            tgt,
            lambda pts, uv: np.conj(npoly.polyval(pts, coeffs)) / (1.0 - abar * uv)).mat
    except QuadratureError as exc:
        return IntertwineReport(residual_analytic, np.inf, norm_gap, str(exc))
    lhs_conj = transform.map_to_target(a_src.adjoint()).mat
    residual_conjugate = spectral_norm(lhs_conj - rhs_conj) / scale
    return IntertwineReport(residual_analytic, residual_conjugate, norm_gap)


def multiplicativity_check(space: ModelSpace, phi, psi, alpha) -> float:
    """Relative residual of A_{phi/(1-a conj u)} A_{psi/(1-a conj u)} = A_{phi psi/(1-a conj u)}.

    All three operators are built by vector Horner and the Stein solve, so the
    residual measures their rounding and that of the matrix product, not a
    quadrature error.  That this route is the compressed fraction symbol is
    checked apart, against quadrature, by crofoot_intertwine_check.
    """
    phi = _poly_coeffs(phi)
    psi = _poly_coeffs(psi)
    a = build_clark_fraction_tto(space, phi, alpha).mat
    b = build_clark_fraction_tto(space, psi, alpha).mat
    ab = build_clark_fraction_tto(space, npoly.polymul(phi, psi), alpha).mat
    return spectral_norm(a @ b - ab) / max(spectral_norm(ab), 1.0)


def invertibility_criterion(space: ModelSpace, phi, alpha) -> bool:
    """Is A_{phi/(1 - alpha conj(u))} invertible: phi must not vanish where u = alpha."""
    margin = fraction_invertibility_margin(space, phi, alpha)
    coeffs = _poly_coeffs(phi)
    return bool(margin > VERDICT_TOL * max(1.0, float(np.linalg.norm(coeffs))))


def fraction_invertibility_margin(space: ModelSpace, phi, alpha) -> float:
    """min |phi| over the zeros of u_alpha, the exact spectral gap of the fraction operator."""
    coeffs = _poly_coeffs(phi)
    zeros = space.u.solve_equals(alpha)
    return float(np.min(np.abs(npoly.polyval(zeros, coeffs))))


# -- Clark theory ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ClarkData:
    """Spectral data of the Clark unitary S_alpha for unimodular alpha.

    ``points`` are the n distinct circle solutions of u = alpha, ``weights``
    the Clark measure atoms 1/|u'(zeta_j)|, and ``eigenvectors`` the unitary
    matrix whose columns are the normalized boundary kernels (phases fixed by
    making the first nonnegligible coordinate positive real).
    ``ortho_residual`` is ||V^* V - I|| and ``eigen_residual`` is
    ||S_alpha V - V diag(points)||, both computed and bounded by clark_data.
    """

    alpha: complex
    points: np.ndarray
    weights: np.ndarray
    eigenvectors: np.ndarray
    space: ModelSpace
    ortho_residual: float
    eigen_residual: float

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def to_json(self):
        return {
            "alpha": [self.alpha.real, self.alpha.imag],
            "points": [[z.real, z.imag] for z in self.points],
            "weights": list(map(float, self.weights)),
            "total_mass": self.total_mass,
        }


def clark_data(space: ModelSpace, alpha) -> ClarkData:
    """Diagonalize the Clark unitary S_alpha at unimodular alpha.

    The eigenvectors are the boundary kernels at the points, evaluated in one
    call, normalized and phase-fixed as arrays; they are not taken from an
    eigensolver, so the eigen-relation is an independent check.  Construction
    checks: eigenvector orthonormality and the eigen-relation
    S_alpha v_j = zeta_j v_j to 1e-8, and the total mass against
    ||K_0||^2 / |1 - conj(u(0)) alpha|^2 to 1e-8.
    """
    alpha = complex(alpha)
    if not abs(abs(alpha) - 1.0) <= ON_CIRCLE_TOL:
        raise AlphaNotUnimodular(f"|alpha| = {abs(alpha):.12f}")
    alpha /= abs(alpha)
    points = space.u.solve_equals(alpha)
    derivs = space.u.derivative(points)
    if np.min(np.abs(derivs)) < 1e-12:
        raise NumericalFailure("angular derivative vanished at a Clark point")
    weights = 1.0 / np.abs(derivs)
    n = space.dim
    vecs = np.conj(space.basis_values_at(points))
    vecs /= np.linalg.norm(vecs, axis=0)
    lead = vecs[np.argmax(np.abs(vecs) > 1e-12, axis=0), np.arange(n)]
    vecs *= np.conj(lead) / np.abs(lead)
    ortho = spectral_norm(vecs.conj().T @ vecs - np.eye(n))
    s_alpha = generalized_shift(space, alpha).mat
    eigen = spectral_norm(s_alpha @ vecs - vecs * points[None, :])
    if ortho > 1e-8 or eigen > 1e-8:
        raise NumericalFailure(
            f"Clark spectral residuals ortho={ortho:.3e} eigen={eigen:.3e}")
    u0 = space.u.value_at_zero
    expected_mass = float(np.real(np.vdot(space.k0.coords, space.k0.coords))) / abs(
        1.0 - np.conj(u0) * alpha) ** 2
    if abs(float(np.sum(weights)) - expected_mass) > 1e-8 * max(1.0, expected_mass):
        raise NumericalFailure("Clark measure mass disagrees with the kernel identity")
    return ClarkData(alpha, points, weights, vecs, space, ortho, eigen)


def functional_calculus(data: ClarkData, values) -> TTOMatrix:
    """Operator with the given eigenvalues at the Clark points: V diag(values) V^*."""
    vals = np.atleast_1d(np.asarray(values, dtype=complex))
    if vals.shape != (data.space.dim,):
        raise ValueError("one value per Clark point is required")
    v = data.eigenvectors
    return TTOMatrix(v @ (vals[:, None] * v.conj().T), data.space)


@dataclass(frozen=True, eq=False)
class UnitaryClassification:
    """Verdict of the unitary classification: either not unitary, or the Clark data.

    For a unitary truncated Toeplitz operator ``alpha`` is the (unimodular)
    type, ``values`` the unimodular eigenvalues at the Clark points of
    S_alpha, and ``clark`` the spectral data used.  Scalars report
    ``scalar=True`` with the conventional alpha = 1 basis.
    """

    unitary: bool
    scalar: bool = False
    alpha: complex | None = None
    values: np.ndarray | None = None
    clark: ClarkData | None = None
    residual: float = 0.0


def classify_unitary(space: ModelSpace, operator) -> UnitaryClassification:
    """Classify a unitary truncated Toeplitz operator through Clark spectral data.

    Checks A^* A = I, classifies the type (which the unitary theorem forces to
    be unimodular or scalar), and reads off the eigenvalues in the Clark
    eigenbasis of S_alpha, asserting they are unimodular to VERDICT_TOL.
    """
    a = as_matrix(space, operator)
    membership = _membership(space, a, "classify_unitary input fails the membership test")
    gap = spectral_norm(a.conj().T @ a - np.eye(space.dim))
    if gap > VERDICT_TOL * max(1.0, spectral_norm(a) ** 2):
        return UnitaryClassification(False, residual=gap)
    tag = _type_tag(space, membership)
    if tag.kind == "none" or tag.kind == "infinity":
        raise NumericalFailure(f"unitary operator classified as {tag.kind}")
    if tag.is_scalar:
        if abs(abs(tag.value) - 1.0) > VERDICT_TOL:
            raise NumericalFailure("unitary scalar with non-unimodular value")
        alpha = 1.0 + 0j
    else:
        if abs(abs(tag.value) - 1.0) > TYPE_TOL:
            raise NumericalFailure(
                f"unitary operator of non-unimodular type |alpha|={abs(tag.value):.8f}")
        alpha = tag.value / abs(tag.value)
    data = clark_data(space, alpha)
    diag = data.eigenvectors.conj().T @ a @ data.eigenvectors
    off = spectral_norm(diag - np.diag(np.diagonal(diag)))
    values = np.diagonal(diag).copy()
    if (off > VERDICT_TOL * max(1.0, spectral_norm(a))
            or np.max(np.abs(np.abs(values) - 1.0)) > VERDICT_TOL):
        raise NumericalFailure("unitary operator failed to diagonalize unimodularly")
    return UnitaryClassification(True, tag.is_scalar, alpha, values, data, gap)
