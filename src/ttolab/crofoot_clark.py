"""Crofoot transforms between model spaces and Clark unitary spectral theory.

For |alpha| < 1 the disc automorphism tau_alpha(w) = (w - alpha)/(1 - conj(alpha) w)
turns u into another finite Blaschke product u_alpha = tau_alpha(u) whose zeros
are the solutions of u = alpha.  Multiplication by
(1 - |alpha|^2)^{-1/2} (1 - conj(alpha) u) is a unitary map T: K_{u_alpha} -> K_u
(the Crofoot transform, Crofoot 1994); it intertwines the plain compressed shift
S' on K_{u_alpha} with the generalized shift S_alpha, T S' = S_alpha T, and
transports every analytic symbol phi to the fraction symbol phi/(1 - alpha conj(u)).
T is built from Clark's boundary kernels (Clark 1972), with no quadrature: at
the n solutions zeta of u = beta = alpha/|alpha|, u_alpha(zeta) = beta too, so T
carries each normalized kernel of K_{u_alpha} at zeta to a positive multiple of
the normalized kernel of K_u there, and T = V V'^*.  crofoot gates T unitary;
T S' = S_alpha T, which the construction does not solve for, is an independent
check of it.  Since the analytic operator A_phi on K_{u_alpha}
is phi(S'), the fraction operator is phi(S_alpha), which commutes with S_alpha: a
polynomial fraction symbol is built by build_tto from its type-alpha symbol,
fixed by phi(S_alpha) K_0, which Horner's rule (shared with tto) forms on a vector.
crofoot_intertwine_check builds phi(S') on K_{u_alpha} the same way, so no
Crofoot source space is ever gridded.  Refined quadrature of a fraction symbol
stays only where it must be independent of that route: the conjugate side of
crofoot_intertwine_check and the fraction_symbol check of the verify battery
(oracles).

For |alpha| = 1 the generalized shift S_alpha is unitary with spectrum the n
distinct solutions of u = alpha on the circle, eigenvectors the normalized
boundary kernels, and spectral weights 1/|u'(zeta_j)| (the atoms of the Clark
measure).  Unitary truncated Toeplitz operators are exactly the functions of
one S_alpha that are unimodular at its spectrum.  The spectrum is not taken
from an eigensolver: solve_equals finds the points where the monotone boundary
phase of u meets arg(alpha), so the eigen-relation S_alpha v_j = zeta_j v_j
that clark_data certifies is an independent check of both.  clark_data builds
the n boundary kernels in one basis evaluation and bounds the orthonormality
and eigen-relation residuals that certify them, each computed when read.  The
Clark points also seed the interior solutions of u = alpha behind crofoot and
the fraction checks: solve_equals moves each Clark point of alpha/|alpha|
inward to modulus about |alpha|^{1/|u'(zeta_j)|} and runs Aberth-Ehrlich sweeps
on the product form of u - alpha, again with no eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.polynomial.polynomial as npoly

from .blaschke import BlaschkeProduct
from .classification import _type_tag
from .errors import (
    AlphaNotUnimodular,
    AlphaOnCircle,
    NumericalFailure,
    QuadratureError,
    SpaceMismatch,
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
    _horner_k0,
    _k0_typed_symbol,
    _membership,
    _norm_at_most,
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
    if not abs(abs(rho) - 1.0) <= 1e-6:
        raise NumericalFailure(f"level-set rotation modulus {abs(rho):.6f} is not 1")
    return BlaschkeProduct(tuple(zeros), rho / abs(rho))


@dataclass(frozen=True, eq=False)
class CrofootTransform:
    """Unitary multiplication operator T: K_{u_alpha} -> K_u as a matrix."""

    alpha: complex
    source: ModelSpace
    target: ModelSpace
    mat: np.ndarray

    @cached_property
    def unitarity_residual(self) -> float:
        """||T^* T - I||, which crofoot bounds by 1e-9."""
        return spectral_norm(self.mat.conj().T @ self.mat - np.eye(self.target.dim))

    def map_to_target(self, operator) -> TTOMatrix:
        """Conjugate an operator on K_{u_alpha} into one on K_u."""
        a = as_matrix(self.source, operator)
        return TTOMatrix(self.mat @ a @ self.mat.conj().T, self.target)

    def map_to_source(self, operator) -> TTOMatrix:
        a = as_matrix(self.target, operator)
        return TTOMatrix(self.mat.conj().T @ a @ self.mat, self.source)

    def apply(self, f: ModelVector) -> ModelVector:
        if not same_space(f.space, self.source):
            raise SpaceMismatch("Crofoot transform applied to a foreign vector")
        return self.target.vector(self.mat @ f.coords)


# Boundary points where u_alpha is compared with tau_alpha(u); none is one of the
# seventh roots of unity at which level_set_blaschke fits the rotation.
DRIFT_POINTS = np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)


def crofoot(space: ModelSpace, alpha) -> CrofootTransform:
    """Build the Crofoot transform of K_u at interior alpha.

    At the n solutions zeta of u = beta, beta = alpha/|alpha| (1 when alpha = 0),
    u_alpha(zeta) = beta and (1 - conj(alpha) u) k'_zeta = (1 + |alpha|) k_zeta,
    with k and k' the boundary kernels of K_u and K_{u_alpha} (Clark 1972).  So T
    maps the normalized k'_zeta to a positive multiple of the normalized k_zeta,
    and T = V V'^*, where the columns of V and V' are those kernels.  A call solves
    u = alpha and u = beta, evaluates both bases at the n points and takes one
    matrix product.  The constructed u_alpha is checked against tau_alpha(u) at 16
    boundary points to 1e-10, and T is checked unitary to 1e-9 by _norm_at_most,
    which raises NumericalFailure on a non-finite T.  T S' = S_alpha T is not
    solved for, so it stays an independent check.
    """
    alpha = complex(alpha)
    if not abs(alpha) < 1.0 - DISC_MARGIN:
        raise AlphaOnCircle("crofoot requires |alpha| < 1")
    u_alpha = level_set_blaschke(space.u, alpha)
    drift = float(np.max(np.abs(u_alpha.evaluate(DRIFT_POINTS) - disc_automorphism(
        space.u.evaluate(DRIFT_POINTS), alpha))))
    if not drift <= 1e-10:
        raise NumericalFailure(f"u_alpha drifts {drift:.3e} from tau_alpha(u)")
    source = ModelSpace(u_alpha)
    points, kernels, _ = space._clark_basis(alpha / abs(alpha) if alpha else 1.0)
    transform = CrofootTransform(
        alpha, source, space, kernels @ source._boundary_kernels(points)[0].conj().T)
    gram_gap = transform.mat.conj().T @ transform.mat - np.eye(space.dim)
    if not _norm_at_most(gram_gap, (), 1e-9, floor=1.0)[0]:
        raise NumericalFailure(f"Crofoot matrix unitarity residual "
                               f"{transform.unitarity_residual:.3e} above 1e-9")
    return transform


# -- fraction symbols -----------------------------------------------------------


def _poly_coeffs(phi) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(phi, dtype=complex))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("polynomial symbols must be nonempty 1-d ascending coefficients")
    if not np.all(np.isfinite(arr)):
        raise ValueError("polynomial coefficients must be finite")
    return arr


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
    if isinstance(phi, ModelVector):
        return build_tto(space, _typed_symbol(space, phi, alpha))
    chi = _horner_k0(generalized_shift(space, alpha).mat, space.k0.coords, _poly_coeffs(phi))
    return build_tto(space, _k0_typed_symbol(space, chi, alpha))


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
        # np.max, unlike max, keeps a NaN
        return float(np.max([self.residual_analytic, self.residual_conjugate, self.norm_gap]))


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

    All three operators are built by vector Horner and the Clark frame, so the
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

    ``points`` are the n distinct circle solutions zeta_j of u = alpha, ``weights``
    the Clark atoms 1/|u'(zeta_j)| = 1/||k_zeta_j||^2 of the boundary kernels, and
    ``eigenvectors`` the unitary matrix whose columns are those kernels normalized
    (phases fixed by making the first nonnegligible coordinate positive real);
    ``points`` and ``eigenvectors`` are read-only.
    ``ortho_residual`` is ||V^* V - I|| and ``eigen_residual`` is
    ||S_alpha V - V diag(points)||; clark_data bounds both, and each is computed
    on first read, from the arrays the bound was decided on.
    """

    alpha: complex
    points: np.ndarray
    weights: np.ndarray
    eigenvectors: np.ndarray
    space: ModelSpace

    def _ortho_gap(self) -> np.ndarray:
        v = self.eigenvectors
        return v.conj().T @ v - np.eye(self.space.dim)

    def _eigen_gap(self) -> np.ndarray:
        v = self.eigenvectors
        return generalized_shift(self.space, self.alpha).mat @ v - v * self.points[None, :]

    @cached_property
    def ortho_residual(self) -> float:
        return spectral_norm(self._ortho_gap())

    @cached_property
    def eigen_residual(self) -> float:
        return spectral_norm(self._eigen_gap())

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

    The eigenvectors are the boundary kernels k_zeta at the points, evaluated in
    one call, divided by their norms and phase-fixed as arrays; the Clark atoms are
    1/||k_zeta||^2 = 1/|u'(zeta)|, so u' is never evaluated.  The kernels are not
    from an eigensolver, so the eigen-relation is an independent check.  Checks:
    orthonormality and S_alpha v_j = zeta_j v_j to 1e-8, decided by _norm_at_most
    (an SVD only when a Frobenius bracket straddles the bound), and the total mass
    against ||K_0||^2 / |1 - conj(u(0)) alpha|^2 to 1e-8.
    """
    alpha = complex(alpha)
    if not abs(abs(alpha) - 1.0) <= ON_CIRCLE_TOL:
        raise AlphaNotUnimodular(f"|alpha| = {abs(alpha):.12f}")
    alpha /= abs(alpha)
    points, vecs, norms = space._clark_basis(alpha)
    n = space.dim
    weights = 1.0 / norms**2
    lead = vecs[np.argmax(np.abs(vecs) > 1e-12, axis=0), np.arange(n)]
    vecs *= np.conj(lead) / np.abs(lead)
    for arr in (points, vecs):
        arr.setflags(write=False)
    data = ClarkData(alpha, points, weights, vecs, space)
    if not (_norm_at_most(data._ortho_gap(), (), 1e-8, floor=1.0)[0]
            and _norm_at_most(data._eigen_gap(), (), 1e-8, floor=1.0)[0]):
        raise NumericalFailure(f"Clark spectral residuals ortho={data.ortho_residual:.3e} "
                               f"eigen={data.eigen_residual:.3e}")
    u0 = space.u.value_at_zero
    expected_mass = float(np.real(np.vdot(space.k0.coords, space.k0.coords))) / abs(
        1.0 - np.conj(u0) * alpha) ** 2
    if abs(float(np.sum(weights)) - expected_mass) > 1e-8 * max(1.0, expected_mass):
        raise NumericalFailure("Clark measure mass disagrees with the kernel identity")
    return data


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
    norm = spectral_norm(a)
    if gap > VERDICT_TOL * max(1.0, norm ** 2):
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
    values = np.diagonal(diag).copy()
    diagonal, _ = _norm_at_most(diag - np.diag(values), (), VERDICT_TOL, floor=max(1.0, norm))
    if not diagonal or np.max(np.abs(np.abs(values) - 1.0)) > VERDICT_TOL:
        raise NumericalFailure("unitary operator failed to diagonalize unimodularly")
    return UnitaryClassification(True, tag.is_scalar, alpha, values, data, gap)
