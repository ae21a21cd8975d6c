"""Truncated Toeplitz operators: construction, membership, symbol recovery.

A truncated Toeplitz operator on K_u is A_Phi = P_u M_Phi restricted to K_u,
with Phi a bounded symbol on the circle.  In the orthonormal basis the matrix
is (A)_{jk} = <Phi e_k, e_j>.  Every such A is characterized by its shift
defect (Sarason): A is a truncated Toeplitz operator iff

    A - S A S^* = phi (x) K_0  +  K_0 (x) psi

for some phi, psi in K_u, in which case A = A_{phi + conj(psi)}, and build_tto
solves it for A.  The defect test lives here, with the one NotATTO gate on it
and the kernel shift identities.  With D = A - S A S^* it takes
phi = D K_0 / ||K_0||^2 and the psi with psi(0) = 0, and decides on what the
identity leaves over, D - phi (x) K_0 - K_0 (x) psi: D projected off K_0 in
both slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blaschke import RationalPair, stein_solve
from .errors import NotATTO, NumericalFailure, PoleOnCircle, QuadratureError, SpaceMismatch
from .model_space import MAX_QUAD_POINTS, ModelSpace, ModelVector, same_space
from .tolerances import DISC_MARGIN, ON_CIRCLE_TOL, VERDICT_TOL


def spectral_norm(mat: np.ndarray) -> float:
    # LAPACK returns singular values in descending order
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def _finite_norm(mat: np.ndarray, what: str) -> float:
    """spectral_norm, raising NumericalFailure when it is not finite."""
    norm = spectral_norm(mat) if np.isfinite(mat).all() else np.nan
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
        if bx[1] <= c * max(floor, *(b[0] for b in bys)) * (1.0 - BRACKET_SLACK):
            return True, "frobenius"
        if bx[0] > c * max(floor, *(b[1] for b in bys)) * (1.0 + BRACKET_SLACK):
            return False, "frobenius"
    bound = c * max(floor, *(_finite_norm(y, "operator norm") for y in scales))
    return bool(_finite_norm(x, "residual") <= bound), "svd"


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
        return spectral_norm(self.mat)

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
    """Accept a TTOMatrix bound to ``space`` or a bare (n, n) array."""
    if isinstance(operator, TTOMatrix):
        if not same_space(operator.space, space):
            raise SpaceMismatch("operator belongs to a different model space")
        return operator.mat
    arr = np.asarray(operator, dtype=complex)
    n = space.dim
    if arr.shape != (n, n):
        raise ValueError(f"matrix shape {arr.shape} != ({n}, {n})")
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
    that are not of the K_u + conj(K_u) + constant shape.
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

    @property
    def is_standard_form(self) -> bool:
        return not self.rational_terms

    def standard_parts(self, space: ModelSpace) -> tuple[ModelVector, ModelVector]:
        """(phi + c K_0, psi) of a standard-form symbol, checked to be finite and in ``space``."""
        parts = [v for v in (self.analytic, self.coanalytic) if v is not None]
        if not all(same_space(v.space, space) for v in parts):
            raise SpaceMismatch("symbol part lives in a different model space")
        if not (np.isfinite(self.constant) and all(np.isfinite(v.coords).all() for v in parts)):
            raise ValueError("symbol coefficients must be finite")
        zero = space.zero_vector()
        return (self.analytic or zero) + self.constant * space.k0, self.coanalytic or zero

    def values_at(self, space: ModelSpace, points: np.ndarray,
                  u_values: np.ndarray) -> np.ndarray:
        """Symbol values at arbitrary circle points, given the values of u there."""
        points = np.asarray(points, dtype=complex)
        vals = np.full(points.shape, self.constant, dtype=complex)
        if self.analytic is not None or self.coanalytic is not None:
            basis_values = space.basis_values_at(points)
        if self.analytic is not None:
            if not same_space(self.analytic.space, space):
                raise SpaceMismatch("analytic part lives in a different model space")
            vals = vals + self.analytic.coords @ basis_values
        if self.coanalytic is not None:
            if not same_space(self.coanalytic.space, space):
                raise SpaceMismatch("coanalytic part lives in a different model space")
            vals = vals + np.conj(self.coanalytic.coords @ basis_values)
        for term in self.rational_terms:
            roots = term.pair.denominator_roots()
            if roots.size and np.min(np.abs(np.abs(roots) - 1.0)) < ON_CIRCLE_TOL:
                raise PoleOnCircle("rational symbol term has a pole on the unit circle")
            tv = term.pair.evaluate(points)
            if term.clark_alpha is not None:
                alpha = complex(term.clark_alpha)
                if abs(alpha) >= 1.0 - DISC_MARGIN:
                    raise PoleOnCircle("clark fraction with |alpha| >= 1 has circle poles")
                tv = tv / (1.0 - alpha * np.conj(u_values))
            vals = vals + tv
        return vals

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
    def vec(key):
        raw = obj.get(key)
        if raw is None:
            return None
        return space.vector([complex(p[0], p[1]) for p in raw])

    const = obj.get("constant", [0.0, 0.0])
    terms = []
    for t in obj.get("rational_terms", []):
        ca = t.get("clark_alpha")
        terms.append(
            RationalTerm(
                RationalPair.from_json(t["pair"]),
                None if ca is None else complex(ca[0], ca[1]),
            )
        )
    return SymbolExpr(vec("analytic"), vec("coanalytic"),
                      complex(const[0], const[1]), tuple(terms))


# -- construction -------------------------------------------------------------


# build_refined evaluates u, tabulates the basis and sums over blocks of this
# many nodes, so a batch never holds its whole (n, N) table and the copies made
# from it: at degree 128 one such table of 32768 nodes is 67 MB.
REFINE_BLOCK = 4096


def _blocks(size: int) -> list[slice]:
    return [slice(start, start + REFINE_BLOCK) for start in range(0, size, REFINE_BLOCK)]


def _grid_sum(space: ModelSpace, points, u_values, values_fn, basis=None) -> np.ndarray:
    """Unnormalised sum_j conj(e(z_j)) Phi(z_j) e(z_j)^T over one batch of nodes.

    values_fn sees the whole batch; the basis is tabulated (or read from
    ``basis``, the table at ``points``) and summed block by block.
    """
    vals = np.asarray(values_fn(points, u_values), dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("symbol values are not finite on a refinement grid")
    acc = 0
    for block in _blocks(points.size):
        e = space.basis_values_at(points[block]) if basis is None else basis[:, block]
        acc = acc + e.conj() @ (vals[block] * e).T
    return acc


def build_refined(space: ModelSpace, values_fn) -> TTOMatrix:
    """Compression of a symbol given as a callable values_fn(points, u_values).

    The trapezoid grid doubles until the compressed matrix moves by at most
    1e-12 max(1, ||A||).  The space's own grid is tuned to integrate basis
    products, which is not enough for symbols whose poles approach the circle
    (rational terms, fraction symbols whose level set sits near the boundary);
    the stopping rule measures exactly the error such symbols add.  The grids
    are nested: the first level reads the space's certified grid, basis table
    and u values, and each doubling from N to 2N points tabulates values_fn,
    the basis and u only at the N new odd nodes exp(2 pi i (2j+1) / 2N),
    adding their sum to the running unnormalised sum.  values_fn is called once
    per level with the whole batch; u, the basis and the sum are taken over
    blocks of REFINE_BLOCK nodes, which bounds the memory of a batch.
    """
    num = space.quad_points
    acc = _grid_sum(space, space.grid, space.u_values, values_fn, space.basis_values)
    mat = acc / num
    while True:
        if num >= MAX_QUAD_POINTS:
            raise QuadratureError(
                f"symbol compression still moving at {MAX_QUAD_POINTS} points")
        pts = np.exp(2j * np.pi * (2 * np.arange(num) + 1) / (2 * num))
        u_values = np.concatenate([space.u.evaluate(pts[block]) for block in _blocks(num)])
        acc = acc + _grid_sum(space, pts, u_values, values_fn)
        num *= 2
        prev, mat = mat, acc / num
        settled, _ = _norm_at_most(mat - prev, (mat,), 1e-12, floor=1.0)
        if settled:
            return TTOMatrix(mat, space)


def build_tto(space: ModelSpace, symbol: SymbolExpr) -> TTOMatrix:
    """A_Phi: Stein sum of (phi + c K_0) (x) K_0 + K_0 (x) psi, or quadrature of rational terms."""
    if symbol.rational_terms:
        return build_refined(space,
                             lambda pts, uv: symbol.values_at(space, pts, uv))
    phi, psi = symbol.standard_parts(space)
    s = compressed_shift(space).mat
    return TTOMatrix(stein_solve(s, s.conj().T, outer(phi, space.k0) + outer(space.k0, psi)),
                     space)


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
        return _finite_norm(self.compressed_defect, "defect residual")

    @cached_property
    def tol(self) -> float:
        return float(VERDICT_TOL * _finite_norm(self.operator, "operator norm"))

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
        _finite_norm(a, "operator norm")
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

    Compares the built matrices; for standard-form symbols the structural
    criterion (the difference must be gamma*K_0 analytically and
    -conj(gamma)*K_0 coanalytically) is cross-checked, and a hard disagreement
    raises NumericalFailure since it would mean an internal inconsistency.
    """
    a1 = build_tto(space, first).mat
    a2 = build_tto(space, second).mat
    matrices_agree, _ = _norm_at_most(a1 - a2, (a1, a2), VERDICT_TOL, floor=1.0)
    if first.is_standard_form and second.is_standard_form:
        structural = _structural_equivalence(space, first, second)
        if structural != matrices_agree:
            residual = spectral_norm(a1 - a2) / max(spectral_norm(a1), spectral_norm(a2), 1.0)
            raise NumericalFailure(
                f"symbol equivalence routes disagree (matrix residual {residual:.3e})")
    return matrices_agree


def _structural_equivalence(space, first, second) -> bool:
    k0 = space.k0.coords
    a1, c1 = (v.coords for v in first.standard_parts(space))
    a2, c2 = (v.coords for v in second.standard_parts(space))
    d_ana = a1 - a2
    d_coa = c1 - c2
    scale = max(np.linalg.norm(a1) + np.linalg.norm(c1),
                np.linalg.norm(a2) + np.linalg.norm(c2), 1.0)
    gamma = np.vdot(k0, d_ana) / np.vdot(k0, k0)
    r1 = np.linalg.norm(d_ana - gamma * k0)
    r2 = np.linalg.norm(d_coa + np.conj(gamma) * k0)
    # generous factor: this guards conventions, not borderline tolerances
    return bool(max(r1, r2) <= 100 * VERDICT_TOL * scale)


# -- structural identities ----------------------------------------------------


def c_symmetry_residual(space: ModelSpace, operator) -> float:
    """Residual of C A C = A^*, as || M conj(A) - A^H M || with M the conjugation matrix."""
    a = as_matrix(space, operator)
    m = space.conj_matrix
    return spectral_norm(m @ a.conj() - a.conj().T @ m)


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
        return max(v for v in self.residuals.values() if v is not None)


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
