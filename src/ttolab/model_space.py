"""Finite-dimensional model spaces K_u with the Takenaka-Malmquist basis.

K_u = H^2 ominus u H^2 for a finite Blaschke product u of degree n.  Vectors
are stored as coordinates in the orthonormal Takenaka-Malmquist basis

    e_k(z) = sqrt(1 - |a_k|^2)/(1 - conj(a_k) z) * prod_{j<k} (z - a_j)/(1 - conj(a_j) z),

which reduces to the monomials 1, z, ..., z^{n-1} when u = z^n.  The shift and
the kernels at 0 are closed forms in these coordinates.  The normalized
boundary kernels at the solutions of u = beta diagonalize S_beta for every
unimodular beta (Clark 1972); a space caches one such frame, at
beta = -u(0)/|u(0)|, in which the conjugation is diagonal and build_tto works,
and builds any other afresh.
Only quadrature oracles use the uniform trapezoid rule on the circle, whose
error decays geometrically for rational integrands with poles off the circle.
The conjugation and the grid are built the first time they are
read; the grid size is doubled until the basis Gram matrix is the identity to
GRAM_TOL (GRAM_TOL_FLOOR is a hard floor).  The grids are nested: the N-point
nodes are the even nodes of the 2N-point rule, so each doubling tabulates only
the N odd ones, adds their terms to a running Gram sum and interleaves them
into the table.  tto.build_refined reads this certified grid and refines on
nested grids the same way, tabulating each new node once, block by block.

One tabulation gives the basis and u: the k-th basis function is
sqrt(1 - |a_k|^2)/(1 - conj(a_k) z) times the running product of the first k
factors of u, so u is the rotation times the last running product, and the
grid's u values cost no second pass over the zeros.  The tabulation takes one
of two paths by the number of points.  Few-point calls (kernels,
ModelVector.evaluate at a point or a handful, the n boundary kernels of a
Clark decomposition, rank-one operators) form the whole (n, m) table as one
cumulative product over the zero axis, which costs a fixed handful of numpy
calls instead of a Python loop over the n zeros.  Grids (the certified
quadrature grid, refinement blocks, symbol values on them) loop over the n
rows instead, writing each row in place, because numpy's complex cumprod
along the zero axis of a long table runs as a scalar loop and is slower than
n row-wise array operations there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blaschke import BlaschkeProduct
from .errors import NumericalFailure, OutsideClosedDisc, PoleHit, QuadratureError, SpaceMismatch
from .tolerances import DISC_MARGIN, GRAM_TOL, GRAM_TOL_FLOOR, POLE_TOL

MAX_QUAD_POINTS = 1 << 18
# The tabulation takes the product over the zero axis up to this many points.
# The row loop measured faster from 512 points at n = 4, 16, 64 and 128, and
# slower at 256 (at n = 128, 0.74-0.95 against 0.98-1.5 ms; one BLAS thread).
FEW_POINTS = 256


def _next_pow2(m: int) -> int:
    return 1 << (int(m) - 1).bit_length()


def default_quad_points(degree: int) -> int:
    """Grid-size floor: a power of two, at least 256 and at least 8*(2n+1)."""
    return _next_pow2(max(256, 8 * (2 * degree + 1)))


def circle_grid(num_points: int) -> np.ndarray:
    j = np.arange(num_points)
    return np.exp(2j * np.pi * j / num_points)


def odd_nodes(num_points: int) -> np.ndarray:
    """The odd nodes of circle_grid(2 num_points), bit for bit: those that double the grid."""
    return np.exp(2j * np.pi * (2 * np.arange(num_points) + 1) / (2 * num_points))


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The 2N-point table along the last axis whose even and odd columns are given."""
    out = np.empty(even.shape[:-1] + (2 * even.shape[-1],), dtype=complex)
    out[..., 0::2] = even
    out[..., 1::2] = odd
    return out


class ModelSpace:
    """Computational handle for K_u; its conjugation and quadrature grid are built on first use."""

    def __init__(self, u: BlaschkeProduct):
        self.u = u
        self.dim = u.degree
        self._op_cache: dict = {}

    @cached_property
    def _quadrature(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, float]:
        """(quad_points, grid, basis_values, u_values, gram_residual), certified together.

        The grids are nested: each doubling from N to 2N points tabulates the
        basis and u only at the N new odd nodes, adds their conj(B) B^T to the
        running Gram sum and interleaves them with the N-point tables.
        """
        n_pts = default_quad_points(self.dim)
        grid = circle_grid(n_pts)
        basis, u_values = self._tabulate(grid)
        gram = basis.conj() @ basis.T
        eye = np.eye(self.dim)
        while True:
            err = float(np.max(np.abs(gram / n_pts - eye)))
            if err <= GRAM_TOL or n_pts >= MAX_QUAD_POINTS:
                break
            odd = odd_nodes(n_pts)
            odd_basis, odd_u = self._tabulate(odd)
            gram += odd_basis.conj() @ odd_basis.T
            grid = _interleave(grid, odd)
            basis = _interleave(basis, odd_basis)
            u_values = _interleave(u_values, odd_u)
            n_pts *= 2
        if err > GRAM_TOL_FLOOR:
            raise QuadratureError(
                f"Gram residual {err:.3e} above {GRAM_TOL_FLOOR} at N={n_pts}")
        return n_pts, grid, basis, u_values, err

    quad_points = property(lambda self: self._quadrature[0])
    grid = property(lambda self: self._quadrature[1])
    basis_values = property(lambda self: self._quadrature[2], doc="Basis on the grid, (dim, N).")
    u_values = property(lambda self: self._quadrature[3])
    gram_residual = property(lambda self: self._quadrature[4])

    @cached_property
    def _frame_point(self) -> complex:
        """beta = -u(0)/|u(0)|, or -1 when u(0) = 0, so that |1 - conj(beta) u(0)| = 1 + |u(0)|."""
        u0 = self.u.value_at_zero
        return -u0 / abs(u0) if u0 else -1.0 + 0j

    @cached_property
    def conj_matrix(self) -> np.ndarray:
        """M with C f = M conj(f), from a Clark frame, checked symmetric and involutive to 1e-10."""
        # C k_zeta = beta conj(zeta) k_zeta where u(zeta) = beta, and conj(V)^{-1} = V^T
        points, vecs = self._clark_frame
        m = (vecs * (self._frame_point * np.conj(points))) @ vecs.T
        sym = float(np.max(np.abs(m - m.T)))
        invol = float(np.max(np.abs(m @ m.conj() - np.eye(self.dim))))
        if sym > 1e-10 or invol > 1e-10:
            raise NumericalFailure(
                f"conjugation matrix residuals sym={sym:.3e} invol={invol:.3e}")
        return m

    def _boundary_kernels(self, points) -> tuple[np.ndarray, np.ndarray]:
        """(k_zeta / ||k_zeta||, ||k_zeta||) for the boundary kernels at circle points.

        The squared norms are |u'(zeta)|; each must be finite and at least 1e-12.
        """
        vecs = np.conj(self.basis_values_at(points))
        norms = np.linalg.norm(vecs, axis=0)
        if not (np.min(norms**2) >= 1e-12 and np.all(np.isfinite(norms))):
            raise NumericalFailure("angular derivative vanished at a Clark point "
                                   f"(kernel norms {np.min(norms):.3e} to {np.max(norms):.3e})")
        return vecs / norms, norms

    def _clark_basis(self, beta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(zeta, V, ||k_zeta||): u(zeta) = beta and S_beta V = V diag(zeta), built afresh."""
        points = self.u.solve_equals(beta)
        return (points, *self._boundary_kernels(points))

    @cached_property
    def _clark_frame(self) -> tuple[np.ndarray, np.ndarray]:
        """(zeta, V) of _clark_basis at _frame_point, read-only: the one frame a space caches."""
        points, vecs, _ = self._clark_basis(self._frame_point)
        for arr in (points, vecs):
            arr.setflags(write=False)
        return points, vecs

    def __repr__(self):
        return f"ModelSpace(degree={self.dim})"

    # -- basis and evaluation -------------------------------------------------

    def basis_values_at(self, points) -> np.ndarray:
        """Takenaka-Malmquist basis values, shape (dim, len(points)).

        Up to FEW_POINTS points: one product over the zero axis; more: a loop over rows.
        """
        return self._tabulate(points)[0]

    def _tabulate(self, points) -> tuple[np.ndarray, np.ndarray]:
        """(basis_values_at(points), u(points)): u is rotation times the last running product."""
        pts = np.atleast_1d(np.asarray(points, dtype=complex))
        a = self.u._zero_arr
        # hypot is the scalar |a|; np.abs on an array can differ from it by an
        # ulp, which 1 - |a|^2 amplifies near the circle
        w = np.sqrt(1.0 - np.hypot(a.real, a.imag) ** 2)
        if pts.size <= FEW_POINTS:
            a = a[:, None]
            den = 1.0 - np.conj(a) * pts
            if np.any(np.abs(den) < POLE_TOL):
                raise PoleHit("basis evaluation at a reflected zero")
            out = w[:, None] / den
            running = np.cumprod((pts - a) / den, axis=0)
            out[1:] *= running[:-1]
            return out, self.u.rotation * running[-1]
        out = np.empty((self.dim, pts.size), dtype=complex)
        running = np.ones(pts.size, dtype=complex)
        den, factor = np.empty_like(running), np.empty_like(running)
        # |1 - conj(a) z| >= 1 - |a| |z|, so no row can hit a pole unless this holds
        near_pole = np.max(np.abs(a)) * np.max(np.abs(pts)) >= 1.0 - POLE_TOL
        for k in range(self.dim):
            np.multiply(np.conj(a[k]), pts, out=den)
            np.subtract(1.0, den, out=den)
            if near_pole and np.any(np.abs(den) < POLE_TOL):
                raise PoleHit("basis evaluation at a reflected zero")
            # out[k] = w[k] / den * running; running = running * (pts - a[k]) / den
            np.divide(w[k], den, out=out[k])
            out[k] *= running
            np.subtract(pts, a[k], out=factor)
            running *= factor
            running /= den
        return out, self.u.rotation * running

    def vector(self, coords) -> "ModelVector":
        return ModelVector(np.asarray(coords, dtype=complex), self)

    def zero_vector(self) -> "ModelVector":
        return self.vector(np.zeros(self.dim, dtype=complex))

    # -- kernels and conjugation ----------------------------------------------

    def kernel(self, lam) -> "ModelVector":
        """Reproducing kernel K_lam, valid on the closed unit disc."""
        lam = complex(lam)
        if not abs(lam) <= 1.0 + DISC_MARGIN:
            raise OutsideClosedDisc(f"|lambda| = {abs(lam):.6f} > 1")
        coords = np.conj(self.basis_values_at(lam)[:, 0])
        return self.vector(coords)

    def conjugate_kernel(self, lam) -> "ModelVector":
        """Conjugate kernel, the conjugation image of K_lam; equals (u(z)-u(lam))/(z-lam)."""
        return self.conjugate(self.kernel(lam))

    def conjugate(self, f: "ModelVector") -> "ModelVector":
        """Apply the conjugation C f = u * conj(z f) in coordinates."""
        if f.space is not self and not same_space(f.space, self):
            raise SpaceMismatch("vector belongs to a different model space")
        return self.vector(self.conj_matrix @ np.conj(f.coords))

    @cached_property
    def k0(self) -> "ModelVector":
        return self.vector(self.u.shift_data[1])

    @cached_property
    def kt0(self) -> "ModelVector":
        return self.vector(self.u.shift_data[2])


def same_space(a: ModelSpace, b: ModelSpace) -> bool:
    return a is b or a.u == b.u


@dataclass(frozen=True, eq=False)
class ModelVector:
    """Element of K_u stored as Takenaka-Malmquist coordinates."""

    coords: np.ndarray
    space: ModelSpace

    def __post_init__(self):
        arr = np.array(self.coords, dtype=complex)
        if arr.shape != (self.space.dim,):
            raise ValueError(f"coordinate shape {arr.shape} != ({self.space.dim},)")
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    def evaluate(self, z):
        pts, scalar = np.atleast_1d(np.asarray(z, dtype=complex)), np.ndim(z) == 0
        vals = self.coords @ self.space.basis_values_at(pts)
        return complex(vals[0]) if scalar else vals

    def grid_values(self) -> np.ndarray:
        return self.coords @ self.space.basis_values

    def inner(self, other: "ModelVector") -> complex:
        if not same_space(self.space, other.space):
            raise SpaceMismatch("inner product across different model spaces")
        return complex(np.vdot(other.coords, self.coords))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def conjugate(self) -> "ModelVector":
        return self.space.conjugate(self)

    def _binary(self, other, op):
        if not same_space(self.space, other.space):
            raise SpaceMismatch("arithmetic across different model spaces")
        return ModelVector(op(self.coords, other.coords), self.space)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return ModelVector(self.coords * complex(scalar), self.space)

    __rmul__ = __mul__

    def __neg__(self):
        return ModelVector(-self.coords, self.space)
