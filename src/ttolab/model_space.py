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
Quadrature oracles and rational symbols use the uniform trapezoid rule on the
circle, whose error decays geometrically for rational integrands with poles off
the circle.  The conjugation and the grid are built the first time they are
read; the grid size is doubled until the basis Gram matrix is the identity to
GRAM_TOL (GRAM_TOL_FLOOR is a hard floor).  tto.build_refined starts from this
certified grid and refines on nested grids: the N-point nodes are the even nodes
of the 2N-point rule, so each doubling adds only the N odd ones.

basis_values_at takes one of two paths by the number of points.  Few-point
calls (kernels, ModelVector.evaluate at a point or a handful, the n boundary
kernels of a Clark decomposition, rank-one operators) form the whole (n, m)
table as one cumulative product over the zero axis, which costs a fixed
handful of numpy calls instead of a Python loop over the n zeros.  Grids
(the certified quadrature grid, refinement batches, symbol values on them)
loop over the n rows instead, because numpy's complex cumprod along the zero
axis of a long table runs as a scalar loop and is slower than n row-wise
array operations there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blaschke import BlaschkeProduct
from .errors import NumericalFailure, OutsideClosedDisc, PoleHit, QuadratureError, SpaceMismatch
from .tolerances import DISC_MARGIN, GRAM_TOL, GRAM_TOL_FLOOR, POLE_TOL

MAX_QUAD_POINTS = 1 << 18
# basis_values_at takes the product over the zero axis up to this many points;
# the row loop measured faster from 512 points at n = 128 and 1500 at n = 8.
FEW_POINTS = 256


def _next_pow2(m: int) -> int:
    return 1 << (int(m) - 1).bit_length()


def default_quad_points(degree: int) -> int:
    """Grid-size floor: a power of two, at least 256 and at least 8*(2n+1)."""
    return _next_pow2(max(256, 8 * (2 * degree + 1)))


def circle_grid(num_points: int) -> np.ndarray:
    j = np.arange(num_points)
    return np.exp(2j * np.pi * j / num_points)


class ModelSpace:
    """Computational handle for K_u; its conjugation and quadrature grid are built on first use."""

    def __init__(self, u: BlaschkeProduct):
        self.u = u
        self.dim = u.degree
        self._op_cache: dict = {}

    @cached_property
    def _quadrature(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, float]:
        """(quad_points, grid, basis_values, u_values, gram_residual), certified together."""
        n_pts = default_quad_points(self.dim)
        while True:
            grid = circle_grid(n_pts)
            basis = self.basis_values_at(grid)
            gram = basis.conj() @ basis.T / n_pts
            err = float(np.max(np.abs(gram - np.eye(self.dim))))
            if err <= GRAM_TOL or n_pts >= MAX_QUAD_POINTS:
                break
            n_pts *= 2
        if err > GRAM_TOL_FLOOR:
            raise QuadratureError(
                f"Gram residual {err:.3e} above {GRAM_TOL_FLOOR} at N={n_pts}")
        return n_pts, grid, basis, self.u.evaluate(grid), err

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
            out[1:] *= np.cumprod((pts - a[:-1]) / den[:-1], axis=0)
            return out
        out = np.empty((self.dim, pts.size), dtype=complex)
        running = np.ones(pts.size, dtype=complex)
        for k in range(self.dim):
            den = 1.0 - np.conj(a[k]) * pts
            if np.any(np.abs(den) < POLE_TOL):
                raise PoleHit("basis evaluation at a reflected zero")
            out[k] = w[k] / den * running
            running = running * (pts - a[k]) / den
        return out

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
