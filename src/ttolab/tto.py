"""Truncated Toeplitz operators: construction, membership, symbol recovery.

A truncated Toeplitz operator on K_u is A_Phi = P_u M_Phi restricted to K_u,
with Phi a bounded symbol on the circle.  In the orthonormal basis the matrix
is (A)_{jk} = <Phi e_k, e_j>.  Every such A is characterized by its shift
defect (Sarason): A is a truncated Toeplitz operator iff

    A - S A S^* = phi (x) K_0  +  K_0 (x) psi

for some phi, psi in K_u, in which case A = A_{phi + conj(psi)}.  build_tto
solves it for A in the Clark frame of K_u, where it is a Loewner matrix, from
the symbol's standard parts, which rational terms reach in closed form; only
the independent checks use quadrature (build_refined).  The defect test lives
here, with the one NotATTO gate on it and the kernel shift identities.  With
D = A - S A S^* it takes phi = D K_0 / ||K_0||^2 and the psi with psi(0) = 0,
and decides on D - phi (x) K_0 - K_0 (x) psi, D projected off K_0 in both slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.polynomial.polynomial as npoly

from .blaschke import RationalPair, complex_pair
from .errors import (NotATTO, NumericalFailure, PoleOnCircle, QuadratureError, SchemaError,
                     SpaceMismatch)
from .model_space import MAX_QUAD_POINTS, ModelSpace, ModelVector, odd_nodes, same_space
from .tolerances import DISC_MARGIN, ON_CIRCLE_TOL, VERDICT_TOL


def spectral_norm(mat: np.ndarray, what: str = "spectral norm") -> float:
    """Largest singular value; NumericalFailure naming ``what`` when it is not finite."""
    # LAPACK returns singular values in descending order; numpy's SVD raises on NaN
    norm = float(np.linalg.svd(mat, compute_uv=False)[0]) if np.isfinite(mat).all() else np.nan
    if not np.isfinite(norm):
        raise NumericalFailure(f"{what} {norm:.3e} is not finite")
    return norm


# A Frobenius bracket settles a verdict only when it clears the threshold by
# this relative slack: far above the rounding of a Frobenius or a spectral norm
# (n^2 eps at most), far below the seven digits between membership noise,
# about 1e-15 ||A||, and VERDICT_TOL ||A||.
BRACKET_SLACK = 1e-6
# A sum of squares in this range neither overflowed nor lost more than 1e-50
# of itself to underflowing terms (each loses at most 2.3e-308); outside it,
# or when it is not finite, the SVD decides.
_SQUARES_RANGE = (1e-250, 1e250)


def _frobenius_bracket(mat: np.ndarray) -> tuple[float, float] | None:
    """(||M||_F / sqrt(r), ||M||_F) with r = min(shape), which bracket ||M||_2.

    None when the sum of squares is outside _SQUARES_RANGE and M is not zero.
    """
    squares = float(np.vdot(mat, mat).real)
    if _SQUARES_RANGE[0] <= squares <= _SQUARES_RANGE[1]:
        frob = np.sqrt(squares)
        return frob / np.sqrt(min(mat.shape)), frob
    if squares == 0.0 and not mat.any():
        return 0.0, 0.0
    return None


def _norm_at_most(x: np.ndarray, scales, c: float, floor: float = 0.0) -> tuple[bool, str]:
    """Decide ||x||_2 <= c max(floor, ||y||_2 for y in scales), and the route that did.

    ||M||_F / sqrt(r) <= ||M||_2 <= ||M||_F settles the comparison in O(n^2)
    ("frobenius") when the bracket clears the threshold by BRACKET_SLACK;
    otherwise the spectral norms decide it exactly ("svd"), and a norm that is
    not finite raises NumericalFailure.  Either route gives the verdict of the
    spectral norms.
    """
    bx = _frobenius_bracket(x)
    bys = [_frobenius_bracket(y) for y in scales]
    if bx is not None and None not in bys:
        if bx[1] <= c * max([floor, *(b[0] for b in bys)]) * (1.0 - BRACKET_SLACK):
            return True, "frobenius"
        if bx[0] > c * max([floor, *(b[1] for b in bys)]) * (1.0 + BRACKET_SLACK):
            return False, "frobenius"
    bound = c * max([floor, *(spectral_norm(y, "operator norm") for y in scales)])
    return bool(spectral_norm(x, "residual") <= bound), "svd"


def outer(f: ModelVector, g: ModelVector) -> np.ndarray:
    """Rank-one operator f (x) g, acting as h -> f <h, g>."""
    if not same_space(f.space, g.space):
        raise SpaceMismatch("outer product across different model spaces")
    return np.outer(f.coords, np.conj(g.coords))


@dataclass(frozen=True, eq=False)
class TTOMatrix:
    """Matrix tagged with the model space it acts on."""

    mat: np.ndarray
    space: ModelSpace

    def __post_init__(self):
        arr = np.array(self.mat, dtype=complex)
        n = self.space.dim
        if arr.shape != (n, n):
            raise ValueError(f"matrix shape {arr.shape} != ({n}, {n})")
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)

    def adjoint(self) -> "TTOMatrix":
        return TTOMatrix(self.mat.conj().T, self.space)

    def norm(self) -> float:
        return spectral_norm(self.mat, "operator norm")

    def apply(self, f: ModelVector) -> ModelVector:
        if not same_space(f.space, self.space):
            raise SpaceMismatch("operator applied to a foreign vector")
        return self.space.vector(self.mat @ f.coords)

    def _coerce(self, other):
        if isinstance(other, TTOMatrix):
            if not same_space(other.space, self.space):
                raise SpaceMismatch("arithmetic across different model spaces")
            return other.mat
        return np.asarray(other, dtype=complex)

    def __matmul__(self, other):
        return TTOMatrix(self.mat @ self._coerce(other), self.space)

    def __add__(self, other):
        return TTOMatrix(self.mat + self._coerce(other), self.space)

    def __sub__(self, other):
        return TTOMatrix(self.mat - self._coerce(other), self.space)

    def __mul__(self, scalar):
        return TTOMatrix(self.mat * complex(scalar), self.space)

    __rmul__ = __mul__


def as_matrix(space: ModelSpace, operator) -> np.ndarray:
    """A TTOMatrix bound to ``space`` or a bare (n, n) array; NumericalFailure if not finite."""
    if isinstance(operator, TTOMatrix):
        if not same_space(operator.space, space):
            raise SpaceMismatch("operator belongs to a different model space")
        arr = operator.mat
    else:
        arr = np.asarray(operator, dtype=complex)
        n = space.dim
        if arr.shape != (n, n):
            raise ValueError(f"matrix shape {arr.shape} != ({n}, {n})")
    if not np.isfinite(arr).all():
        raise NumericalFailure("operator has an entry that is not finite")
    return arr


# -- symbols ------------------------------------------------------------------


@dataclass(frozen=True)
class RationalTerm:
    """Rational symbol term, optionally divided by (1 - clark_alpha * conj(u))."""

    pair: RationalPair
    clark_alpha: complex | None = None

    def __post_init__(self):
        if self.clark_alpha is not None and not abs(self.clark_alpha) < np.inf:
            raise ValueError("clark_alpha must be finite")


@dataclass(frozen=True, eq=False)
class SymbolExpr:
    """Symbol Phi = analytic + conj(coanalytic) + constant + rational terms.

    ``analytic`` and ``coanalytic`` are K_u vectors; the coanalytic field
    stores phi_2 itself, the symbol contribution being conj(phi_2).  Rational
    terms cover symbols such as u/(z - lambda) and phi/(1 - alpha conj(u))
    that are not of the K_u + conj(K_u) + constant shape; standard_parts
    reduces them to it.
    """

    analytic: ModelVector | None = None
    coanalytic: ModelVector | None = None
    constant: complex = 0j
    rational_terms: tuple[RationalTerm, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constant", complex(self.constant))
        object.__setattr__(self, "rational_terms", tuple(self.rational_terms))
        spaces = [v.space for v in (self.analytic, self.coanalytic) if v is not None]
        if len(spaces) == 2 and not same_space(spaces[0], spaces[1]):
            raise SpaceMismatch("symbol parts live in different model spaces")

    def standard_parts(self, space: ModelSpace) -> tuple[ModelVector, ModelVector]:
        """(phi, psi) with A_Phi = A_{phi + conj(psi)}, checked to be finite and in ``space``."""
        parts = [v for v in (self.analytic, self.coanalytic) if v is not None]
        if not all(same_space(v.space, space) for v in parts):
            raise SpaceMismatch("symbol part lives in a different model space")
        if not (np.isfinite(self.constant) and all(np.isfinite(v.coords).all() for v in parts)):
            raise ValueError("symbol coefficients must be finite")
        zero = space.zero_vector()
        phi, psi = (self.analytic or zero) + self.constant * space.k0, self.coanalytic or zero
        for term_phi, term_psi in (_rational_parts(space, t) for t in self.rational_terms):
            phi, psi = phi + term_phi, psi + term_psi
        return phi, psi

    def to_json(self):
        def vec(v):
            return None if v is None else [[c.real, c.imag] for c in v.coords]

        return {
            "analytic": vec(self.analytic),
            "coanalytic": vec(self.coanalytic),
            "constant": [self.constant.real, self.constant.imag],
            "rational_terms": [
                {
                    "pair": t.pair.to_json(),
                    "clark_alpha": None
                    if t.clark_alpha is None
                    else [t.clark_alpha.real, t.clark_alpha.imag],
                }
                for t in self.rational_terms
            ],
        }


def analytic_symbol(f: ModelVector) -> SymbolExpr:
    return SymbolExpr(analytic=f)


def coanalytic_symbol(f: ModelVector) -> SymbolExpr:
    """Symbol conj(f) for f in K_u."""
    return SymbolExpr(coanalytic=f)


def symbol_from_json(space: ModelSpace, obj) -> SymbolExpr:
    """The inverse of SymbolExpr.to_json; every complex goes through complex_pair."""
    if not isinstance(obj, dict):
        raise SchemaError(f"symbol must be an object, got {obj!r}")

    def vec(key):
        raw = obj.get(key)
        return None if raw is None else space.vector(
            [complex_pair(p, f"{key} coordinate") for p in raw])

    terms = []
    for t in obj.get("rational_terms", []):
        if not isinstance(t, dict):
            raise SchemaError(f"rational term must be an object, got {t!r}")
        ca = t.get("clark_alpha")
        terms.append(RationalTerm(RationalPair.from_json(t["pair"]),
                                  None if ca is None else complex_pair(ca, "clark_alpha")))
    return SymbolExpr(vec("analytic"), vec("coanalytic"),
                      complex_pair(obj.get("constant", [0.0, 0.0]), "constant"), tuple(terms))


def _horner_k0(s: np.ndarray, k0: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """phi(S) K_0 by Horner's rule on a vector: d products of S with a vector."""
    acc = coeffs[-1] * k0
    for c in coeffs[-2::-1]:
        acc = s @ acc + c * k0
    return acc


def _rational_parts(space: ModelSpace, term: RationalTerm) -> tuple[ModelVector, ModelVector]:
    """(phi, psi) with A_{p/q} = A_{phi + conj(psi)} for one rational term, in closed form.

    With q_in, q_out the monic products over the m roots r_j of q inside the disc and
    those outside, p/q = P + a/q_in + b/q_out: P is the quotient, and a Sylvester solve
    splits the remainder as lead(q) (a q_out + b q_in).  g = P + b/q_out gives
    phi = g(S) K_0 = P_u g (Sarason 2007): Horner's rule on P q_out + b, then a solve
    with S - r per outer root r.  On the circle a/q_in = conj(h) for
    h = sum_k conj(a_k) z^(m - k) / prod_j (1 - conj(r_j) z), so psi = h(S) K_0.  Over
    1 - alpha conj(u), g gives the fraction operator g(S_alpha) as in
    build_clark_fraction_tto, and conj(h) the same operator, as u(S) = 0.
    """
    roots = term.pair.denominator_roots()
    if roots.size and np.min(np.abs(np.abs(roots) - 1.0)) < ON_CIRCLE_TOL:
        raise PoleOnCircle("rational symbol term has a pole on the unit circle")
    alpha = term.clark_alpha
    if alpha is not None and abs(alpha) >= 1.0 - DISC_MARGIN:
        raise PoleOnCircle("clark fraction with |alpha| >= 1 has circle poles")
    s, k0, eye = compressed_shift(space).mat, space.k0.coords, np.eye(space.dim)
    x = s if alpha is None else generalized_shift(space, alpha).mat
    inner, outer_ = roots[np.abs(roots) < 1.0], roots[np.abs(roots) > 1.0]
    q_in, q_out = npoly.polyfromroots(inner), npoly.polyfromroots(outer_)
    quot, rem = npoly.polydiv(term.pair.numerator, term.pair.denominator)
    m, d = inner.size, roots.size
    # columns z^i q_out for i < m, then z^j q_in for j < d - m
    sylvester = np.array([np.convolve(e, q_out) for e in np.eye(m)]
                         + [np.convolve(e, q_in) for e in np.eye(d - m)]).reshape(d, d).T
    rhs = np.concatenate((rem, np.zeros(d)))[:d] / term.pair.denominator[-1]
    a, b = np.split(np.linalg.solve(sylvester, rhs), [m])
    num = np.convolve(quot, q_out)
    num[:b.size] += b
    phi = _horner_k0(x, k0, num)
    for r in outer_:
        phi = np.linalg.solve(x - r * eye, phi)
    psi = _horner_k0(s, k0, np.concatenate(([0j], np.conj(a[::-1]))))
    for r in inner:
        psi = np.linalg.solve(eye - np.conj(r) * s, psi)
    if alpha is None:
        return space.vector(phi), space.vector(psi)
    typed = _k0_typed_symbol(space, phi, alpha)
    return typed.analytic, space.vector(psi) + typed.coanalytic


# -- construction -------------------------------------------------------------


# build_refined reads, evaluates and sums blocks of this many nodes, so no step holds
# a whole level's (n, N) table: at degree 128 one of 32768 nodes is 67 MB.
REFINE_BLOCK = 4096


def _grid_sum(points, basis, u_values, values_fn) -> np.ndarray:
    """Unnormalised sum_j conj(e(z_j)) Phi(z_j) e(z_j)^T over one block of nodes."""
    vals = np.asarray(values_fn(points, u_values), dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("symbol values are not finite on a refinement grid")
    return basis.conj() @ (vals * basis).T


def build_refined(space: ModelSpace, values_fn) -> TTOMatrix:
    """Compression of a symbol given as a callable values_fn(points, u_values).

    The trapezoid grid doubles until the compressed matrix moves by at most
    1e-12 max(1, ||A||); the independent checks use it as their oracle.  The
    space's own grid is tuned to integrate basis products, which is not enough
    for symbols whose poles approach the circle (fraction symbols whose level set
    sits near the boundary); the stopping rule measures that error.  The grids
    are nested and each node is read once, in blocks of REFINE_BLOCK nodes: the
    first level takes views of the space's certified grid, basis and u tables;
    each doubling from N to 2N points takes the N odd nodes, whose basis and u
    come from one tabulation per block.  values_fn is called once per block.
    """
    num = space.quad_points
    acc = 0
    for start in range(0, num, REFINE_BLOCK):
        view = slice(start, start + REFINE_BLOCK)
        acc = acc + _grid_sum(space.grid[view], space.basis_values[:, view],
                              space.u_values[view], values_fn)
    mat = acc / num
    while True:
        if num >= MAX_QUAD_POINTS:
            raise QuadratureError(
                f"symbol compression still moving at {MAX_QUAD_POINTS} points")
        new = odd_nodes(num)
        for start in range(0, num, REFINE_BLOCK):
            pts = new[start:start + REFINE_BLOCK]
            acc = acc + _grid_sum(pts, *space._tabulate(pts), values_fn)
        num *= 2
        prev, mat = mat, acc / num
        settled, _ = _norm_at_most(mat - prev, (mat,), 1e-12, floor=1.0)
        if settled:
            return TTOMatrix(mat, space)


def build_tto(space: ModelSpace, symbol: SymbolExpr) -> TTOMatrix:
    """A_Phi: Sarason's identity in a Clark frame.

    With (phi, psi) = Phi.standard_parts, a = A K_0 = phi + conj(psi(0)) K_0
    - conj(u(0)) S C psi, b = A^* K_0 its mirror and g = beta/(1 - beta conj(u(0)))
    for beta = _frame_point, A - S_beta A S_beta^* = x (x) K_0 + K_0 (x) y with
    x = phi - conj(g) S C b - |g|^2 <a, K_0> K_0 and y = psi - conj(g) S C a.  In the
    eigenbasis V of S_beta, V^* A V is that defect over 1 - zeta_i conj(zeta_j) off the
    diagonal, and V^* A K_0 = V^* a fixes the diagonal (Cima, Ross & Wogen 2008).
    """
    phi, psi = (f.coords for f in symbol.standard_parts(space))
    s, m, k0 = compressed_shift(space).mat, space.conj_matrix, space.k0.coords
    u0bar, beta = np.conj(space.u.value_at_zero), space._frame_point
    zeta, v = space._clark_frame
    gbar = np.conj(beta / (1.0 - beta * u0bar))
    a = phi + np.vdot(psi, k0) * k0 - u0bar * (s @ (m @ psi.conj()))
    b = psi + np.vdot(phi, k0) * k0 - u0bar * (s @ (m @ phi.conj()))
    x = phi - gbar * (s @ (m @ b.conj())) - abs(gbar) ** 2 * np.vdot(k0, a) * k0
    y = psi - gbar * (s @ (m @ a.conj()))
    x, y, a, w = (v.conj().T @ np.column_stack((x, y, a, k0))).T
    # 1 - zeta_i conj(zeta_j) = conj(zeta_j) (zeta_j - zeta_i) on the circle, without cancellation
    gap = np.conj(zeta) * (zeta - zeta[:, None])
    np.fill_diagonal(gap, 1.0)
    loewner = (np.outer(x, w.conj()) + np.outer(w, y.conj())) / gap
    np.fill_diagonal(loewner, 0.0)
    # |w_i| = (1 + |u(0)|) / ||k_zeta_i||: the frame point keeps it off zero
    np.fill_diagonal(loewner, (a - loewner @ w) / w)
    return TTOMatrix(v @ loewner @ v.conj().T, space)


def compressed_shift(space: ModelSpace) -> TTOMatrix:
    """A_z on K_u, the closed form of ``BlaschkeProduct.shift_data`` (cached per space)."""
    if "shift" not in space._op_cache:
        space._op_cache["shift"] = TTOMatrix(space.u.shift_data[0], space)
    return space._op_cache["shift"]


def generalized_shift(space: ModelSpace, alpha) -> TTOMatrix:
    """S_alpha = S + alpha/(1 - alpha conj(u(0))) K_0 (x) conjugate-K_0, |alpha| <= 1."""
    alpha = complex(alpha)
    if not abs(alpha) <= 1.0 + DISC_MARGIN:
        raise ValueError("generalized shift requires |alpha| <= 1")
    u0 = space.u.value_at_zero
    gain = alpha / (1.0 - alpha * np.conj(u0))
    mat = compressed_shift(space).mat + gain * outer(space.k0, space.kt0)
    return TTOMatrix(mat, space)


# -- membership ---------------------------------------------------------------


def defect(space: ModelSpace, operator) -> np.ndarray:
    """Shift defect A - S A S^*."""
    a = as_matrix(space, operator)
    s = compressed_shift(space).mat
    return a - s @ a @ s.conj().T


def _project_off_k0(space: ModelSpace, coords: np.ndarray) -> np.ndarray:
    k0 = space.k0.coords
    return coords - (np.vdot(k0, coords) / np.vdot(k0, k0)) * k0


def _shift_conjugate(space: ModelSpace, f: ModelVector) -> ModelVector:
    """S C f; a type-alpha symbol is phi + alpha conj(S C phi) + c."""
    return space.vector(compressed_shift(space).mat @ space.conjugate(f).coords)


def _typed_symbol(space: ModelSpace, phi: ModelVector, alpha, constant=0j) -> SymbolExpr:
    """The type-alpha symbol phi + alpha conj(S C phi) + constant."""
    return SymbolExpr(phi, np.conj(complex(alpha)) * _shift_conjugate(space, phi), constant)


def _k0_typed_symbol(space: ModelSpace, image: np.ndarray, alpha) -> SymbolExpr:
    """The type-alpha symbol phi + alpha conj(S C phi) of the A in B^alpha with A K_0 = image."""
    phi = space.vector(image / (1.0 - alpha * np.conj(space.u.value_at_zero)))
    return _typed_symbol(space, phi, alpha)


@dataclass(frozen=True, eq=False)
class DefectDecomposition:
    """Membership verdict plus the canonical defect decomposition.

    ``phi`` and ``psi`` satisfy defect ~ phi (x) K_0 + K_0 (x) psi with the
    normalization psi(0) = 0, so A = A_{phi + conj(psi)} when ``passed``.
    ``operator`` and ``compressed_defect`` are read-only snapshots of A and of
    defect - phi (x) K_0 - K_0 (x) psi, which is the defect compressed off K_0
    in both slots, taken by the call.
    ``residual`` is the spectral norm of the compressed defect and ``tol`` the
    absolute threshold VERDICT_TOL * ||A||; both are computed on first read,
    from the snapshots, so they are the values the verdict stands for.
    ``route`` names what settled the verdict: "frobenius" when the Frobenius
    brackets of both norms did, "svd" when the spectral norms had to.
    """

    passed: bool
    phi: ModelVector
    psi: ModelVector
    operator: np.ndarray
    compressed_defect: np.ndarray
    route: str

    @cached_property
    def residual(self) -> float:
        return spectral_norm(self.compressed_defect, "defect residual")

    @cached_property
    def tol(self) -> float:
        return float(VERDICT_TOL * spectral_norm(self.operator, "operator norm"))

    def __bool__(self):
        return self.passed


def is_tto(space: ModelSpace, operator) -> DefectDecomposition:
    """Defect membership test: is ``operator`` a truncated Toeplitz operator on K_u.

    The verdict is residual <= VERDICT_TOL * ||A||, with both norms spectral.
    Their Frobenius brackets settle it in O(n^2) unless the residual sits
    within a factor of about n of the threshold; only then are the
    spectral norms computed (``route`` "svd").  Either way the verdict is the
    one the spectral norms give, and the returned ``residual`` and ``tol`` are
    computed when first read.  The threshold scales with ||A||, so a norm that
    is not finite would pass any residual: raises NumericalFailure when ||A||
    or the residual is not finite.
    """
    a = as_matrix(space, operator)
    if a.flags.writeable or not a.flags.owndata:
        # the decomposition keeps the values its verdict was made on
        a = a.copy()
        a.setflags(write=False)
    if _frobenius_bracket(a) is None:
        # outside the bracket's range ||A|| is read now, so that one that is
        # not finite raises before the defect, which could overflow, is formed
        spectral_norm(a, "operator norm")
    d = defect(space, a)
    k0 = space.k0.coords
    nk2 = float(np.real(np.vdot(k0, k0)))
    phi = d @ k0 / nk2
    psi = _project_off_k0(space, d.conj().T @ k0 / nk2)
    # what Sarason's identity leaves over is the defect projected off K_0 in both slots
    comp = d - np.outer(phi, np.conj(k0)) - np.outer(k0, np.conj(psi))
    comp.setflags(write=False)
    passed, route = _norm_at_most(comp, (a,), VERDICT_TOL)
    return DefectDecomposition(passed, space.vector(phi), space.vector(psi), a, comp, route)


def _membership(space: ModelSpace, operator, message: str | None = None) -> DefectDecomposition:
    """is_tto, raising NotATTO with ``message`` (default: residual and tolerance) on failure."""
    membership = is_tto(space, operator)
    if not membership.passed:
        raise NotATTO(message or
                      f"defect residual {membership.residual:.3e} exceeds {membership.tol:.3e}")
    return membership


def extract_symbol(space: ModelSpace, operator) -> SymbolExpr:
    """Canonical K_u + conj(K_u) symbol of a truncated Toeplitz operator.

    The coanalytic part is normalized to vanish at 0, which pins down the
    otherwise one-parameter (phi, psi) ambiguity.  Raises NotATTO when the
    membership residual exceeds the tolerance.
    """
    membership = _membership(space, operator)
    return SymbolExpr(analytic=membership.phi, coanalytic=membership.psi)


def symbols_equivalent(space: ModelSpace, first: SymbolExpr, second: SymbolExpr) -> bool:
    """Do two symbols induce the same operator on K_u.

    Compares the built matrices and cross-checks the structural criterion on
    the standard parts (the difference must be gamma*K_0 analytically and
    -conj(gamma)*K_0 coanalytically); a hard disagreement raises
    NumericalFailure since it would mean an internal inconsistency.
    """
    a1 = build_tto(space, first).mat
    a2 = build_tto(space, second).mat
    matrices_agree, _ = _norm_at_most(a1 - a2, (a1, a2), VERDICT_TOL, floor=1.0)
    k0 = space.k0.coords
    p1, c1 = (v.coords for v in first.standard_parts(space))
    p2, c2 = (v.coords for v in second.standard_parts(space))
    scale = max(np.linalg.norm(p1) + np.linalg.norm(c1),
                np.linalg.norm(p2) + np.linalg.norm(c2), 1.0)
    gamma = np.vdot(k0, p1 - p2) / np.vdot(k0, k0)
    r1 = np.linalg.norm(p1 - p2 - gamma * k0)
    r2 = np.linalg.norm(c1 - c2 + np.conj(gamma) * k0)
    # generous factor: this guards conventions, not borderline tolerances
    if (max(r1, r2) <= 100 * VERDICT_TOL * scale) != matrices_agree:
        residual = spectral_norm(a1 - a2) / max(spectral_norm(a1), spectral_norm(a2), 1.0)
        raise NumericalFailure(
            f"symbol equivalence routes disagree (matrix residual {residual:.3e})")
    return matrices_agree


# -- structural identities ----------------------------------------------------


def c_symmetry_residual(space: ModelSpace, operator) -> float:
    """Residual of C A C = A^*, as || M conj(A) - A^H M || with M the conjugation matrix."""
    a = as_matrix(space, operator)
    m = space.conj_matrix
    return spectral_norm(m @ a.conj() - a.conj().T @ m, "C-symmetry residual")


@dataclass(frozen=True)
class KernelShiftReport:
    """Residuals of the four kernel shift identities at one point lambda.

    backward_kernel:            S^* K_lam = conj(lam) K_lam - conj(u(lam)) Kt_0
    forward_conjugate_kernel:   S Kt_lam  = lam Kt_lam - u(lam) K_0
    forward_kernel (lam != 0):  S K_lam   = (K_lam - K_0)/conj(lam)
    backward_conjugate_kernel (lam != 0): S^* Kt_lam = (Kt_lam - Kt_0)/lam
    """

    lam: complex
    residuals: dict

    @property
    def max_residual(self) -> float:
        # np.max, unlike max, keeps a NaN
        return float(np.max([v for v in self.residuals.values() if v is not None]))


def kernel_shift_identities(space: ModelSpace, lam) -> KernelShiftReport:
    lam = complex(lam)
    s = compressed_shift(space).mat
    k = space.kernel(lam).coords
    kt = space.conjugate_kernel(lam).coords
    k0 = space.k0.coords
    kt0 = space.kt0.coords
    ul = space.u.evaluate(lam)
    res = {
        "backward_kernel": float(
            np.linalg.norm(s.conj().T @ k - (np.conj(lam) * k - np.conj(ul) * kt0))),
        "forward_conjugate_kernel": float(
            np.linalg.norm(s @ kt - (lam * kt - ul * k0))),
        "forward_kernel": None,
        "backward_conjugate_kernel": None,
    }
    if abs(lam) > 1e-8:
        res["forward_kernel"] = float(
            np.linalg.norm(s @ k - (k - k0) / np.conj(lam)))
        res["backward_conjugate_kernel"] = float(
            np.linalg.norm(s.conj().T @ kt - (kt - kt0) / lam))
    return KernelShiftReport(lam, res)
