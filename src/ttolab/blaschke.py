"""Finite Blaschke products: evaluation, exact derivatives, the shift, preimages.

A finite Blaschke product is u(z) = rotation * prod_k (z - a_k)/(1 - conj(a_k) z)
with every zero a_k strictly inside the unit disc and |rotation| = 1.  It is the
canonical inner function with dim(H^2 ominus u H^2) = number of zeros, and all
model-space machinery downstream is parameterized by one of these.

The compressed shift S and the kernels K_0, Kt_0 of K_u have closed forms in
the zeros (Garcia & Ross, arXiv:1108.1858), so u is never expanded into
monomials.  The solutions of u = alpha are the spectrum of S_alpha (Clark,
1972), but no eigensolver finds them.  On the circle they are the n points
where the unwrapped boundary phase of u, continuous and strictly increasing by
2 pi n per turn, meets arg(alpha) modulo 2 pi: n scalar root solves in known
brackets.  Inside the disc each starts from a Clark point of alpha/|alpha|,
moved inward by the slope of that phase, and Aberth-Ehrlich sweeps (Aberth
1973; Bini & Robol 2014) run on the polynomial (u - alpha) prod_k (1 - conj(a_k) z),
evaluated in product form.  Both routes cost O(n^2) per sweep.  The solutions
on the circle carry the Clark frames of K_u, in which operators are built.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import PoleHit, RootSolveError, SchemaError
from .tolerances import DISC_MARGIN, POLE_TOL

_EPS = np.finfo(float).eps
# The interior route seeds from the Clark points of alpha/|alpha| times this.
_SEED_TURN = cmath.exp(2j * cmath.pi / 1000)


def complex_pair(raw, what: str) -> complex:
    """A JSON [real, imag] pair of finite numbers as a complex, else SchemaError."""
    # json reads NaN and Infinity and bool is an int; the bound refuses ints too large for a float
    if (not isinstance(raw, (list, tuple)) or len(raw) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       and abs(v) <= sys.float_info.max for v in raw)):
        raise SchemaError(f"{what} must be a finite [real, imag] pair, got {raw!r}")
    return complex(raw[0], raw[1])


def _as_points(z):
    arr = np.asarray(z, dtype=complex)
    return np.atleast_1d(arr), arr.ndim == 0


def _trim(coeffs: Sequence[complex]) -> tuple[complex, ...]:
    arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    scale = np.max(np.abs(arr)) if arr.size else 0.0
    if scale == 0.0:
        return (0j,)
    keep = arr.size
    while keep > 1 and abs(arr[keep - 1]) <= 1e-14 * scale:
        keep -= 1
    return tuple(complex(c) for c in arr[:keep])


@dataclass(frozen=True)
class RationalPair:
    """Ratio of two complex polynomials, coefficients in ascending degree."""

    numerator: tuple[complex, ...]
    denominator: tuple[complex, ...]

    def __post_init__(self):
        # before _trim, which would scale an infinite coefficient into the others
        if not np.all(np.abs(np.hstack((self.numerator, self.denominator))) < np.inf):
            raise ValueError("rational coefficients must be finite")
        object.__setattr__(self, "numerator", _trim(self.numerator))
        object.__setattr__(self, "denominator", _trim(self.denominator))
        if all(c == 0 for c in self.denominator):
            raise ValueError("denominator polynomial is identically zero")

    def denominator_roots(self) -> np.ndarray:
        den = np.asarray(self.denominator)
        if den.size <= 1:
            return np.zeros(0, dtype=complex)
        return np.roots(den[::-1])

    def to_json(self):
        return {
            "numerator": [[c.real, c.imag] for c in self.numerator],
            "denominator": [[c.real, c.imag] for c in self.denominator],
        }

    @classmethod
    def from_json(cls, obj) -> "RationalPair":
        num, den = (tuple(complex_pair(p, f"{key} coefficient") for p in obj[key])
                    for key in ("numerator", "denominator"))
        return cls(num, den)


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product with zeros strictly inside the unit disc.

    Parameters
    ----------
    zeros : sequence of complex
        Zeros a_k with |a_k| < 1, repetition allowed.  Order is preserved and
        fixes the Takenaka-Malmquist basis downstream.
    rotation : complex
        Unimodular front factor, defaults to 1.
    """

    zeros: tuple[complex, ...]
    rotation: complex = 1.0 + 0j
    _zero_arr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        zs = tuple(complex(a) for a in np.atleast_1d(np.asarray(self.zeros, dtype=complex)))
        if len(zs) == 0:
            raise ValueError("a finite Blaschke product needs at least one zero")
        moduli = np.abs(np.asarray(zs))
        if not np.all(moduli < 1.0 - DISC_MARGIN):
            raise ValueError(f"every zero must satisfy |a| < 1 - {DISC_MARGIN}")
        rot = complex(self.rotation)
        if not abs(abs(rot) - 1.0) <= 1e-14:
            raise ValueError("rotation must be unimodular within 1e-14")
        rot /= abs(rot)
        object.__setattr__(self, "zeros", zs)
        object.__setattr__(self, "rotation", rot)
        arr = np.asarray(zs, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "_zero_arr", arr)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def evaluate(self, z):
        """Value of u at z (scalar or array), raising PoleHit at 1/conj(a_k)."""
        pts, scalar = _as_points(z)
        a = self._zero_arr
        den = 1.0 - np.conj(a) * pts[..., None]
        if np.any(np.abs(den) < POLE_TOL):
            raise PoleHit("Blaschke evaluation at a reflected zero 1/conj(a)")
        vals = self.rotation * np.prod((pts[..., None] - a) / den, axis=-1)
        return complex(vals[0]) if scalar else vals

    def derivative(self, z):
        """Exact u'(z), the telescoped difference quotient at lam = z.

        Valid at zeros of u, repeated or not, where u * sum (1-|a|^2)/((z-a)(1-conj(a)z)) fails.
        """
        return self._difference_quotient(z, z)

    def _difference_quotient(self, z, lam):
        """(u(z) - u(lam)) / (z - lam) in telescoped product form, with no cancellation near lam.

        With factors b_k of u, u(z) - u(lam) = rotation sum_k b_<k(z) (b_k(z) - b_k(lam)) b_>k(lam)
        and b_k(z) - b_k(lam) = (z - lam)(1 - |a_k|^2) / ((1 - conj(a_k) z)(1 - conj(a_k) lam)).
        lam broadcasts against z over a trailing zero axis, along which the products run.
        """
        pts, scalar = _as_points(z)
        a = self._zero_arr
        z, lam = pts[..., None], np.asarray(lam, dtype=complex)[..., None]
        den_z, den_lam = 1.0 - np.conj(a) * z, 1.0 - np.conj(a) * lam
        if np.any(np.abs(den_z) < POLE_TOL) or np.any(np.abs(den_lam) < POLE_TOL):
            raise PoleHit("Blaschke derivative at a reflected zero 1/conj(a)")
        before = np.ones_like(den_z)
        before[..., 1:] = np.cumprod((z - a[:-1]) / den_z[..., :-1], axis=-1)
        after = np.ones_like(den_lam)
        after[..., :-1] = np.cumprod(((lam - a) / den_lam)[..., :0:-1], axis=-1)[..., ::-1]
        terms = (1.0 - np.abs(a) ** 2) / (den_z * den_lam) * before * after
        vals = self.rotation * np.sum(terms, axis=-1)
        return complex(vals[0]) if scalar else vals

    @cached_property
    def value_at_zero(self) -> complex:
        """u(0), from ``evaluate`` once per product."""
        return self.evaluate(0.0)

    @cached_property
    def shift_data(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (S, K_0, Kt_0) in Takenaka-Malmquist coordinates, in closed form.

        With w = sqrt(1 - |a|^2): S[j,j] = a_j, S[j,k] = w_j w_k prod_{k<l<j}(-conj a_l)
        for j > k, K_0[k] = w_k prod_{l<k}(-conj a_l), Kt_0[k] = rotation w_k prod_{l>k}(-a_l).
        """
        a = self._zero_arr
        n = a.size
        w = np.sqrt(1.0 - np.abs(a) ** 2)
        c = -np.conj(a)
        idx = np.arange(n)
        # factors[l, k] = c_l below the diagonal, else 1: runs[j, k] = prod_{k<l<j} c_l
        factors = np.where(idx[:, None] > idx[None, :], c[:, None], 1.0)
        runs = np.cumprod(np.vstack([np.ones((1, n)), factors[:-1]]), axis=0)
        s = np.tril(w[:, None] * w[None, :] * runs, -1)
        s[idx, idx] = a
        k0 = w * np.concatenate(([1.0], np.cumprod(c[:-1])))
        kt0 = self.rotation * w * np.concatenate((np.cumprod(-a[:0:-1])[::-1], [1.0]))
        for arr in (s, k0, kt0):
            arr.setflags(write=False)
        return s, k0, kt0

    def solve_equals(self, alpha) -> np.ndarray:
        """All n solutions of u(z) = alpha for |alpha| <= 1, deterministically ordered.

        Two routes, neither with an eigensolver.  On the circle (|alpha| within
        DISC_MARGIN of 1) the solutions are the n points where the monotone
        boundary phase of u meets arg(alpha) modulo 2 pi, found by
        ``_circle_preimages``.  Inside the disc ``_interior_preimages`` starts
        each solution from a Clark point of alpha/|alpha| moved inward and runs
        Aberth-Ehrlich sweeps on the product form of u - alpha; for
        |alpha| <= eps the solutions are the zeros of u, whose residual is
        |alpha|.  Both are sorted by ascending principal argument with modulus
        as tie break.  For |alpha| = 1 the roots are asserted unimodular to
        1e-8, for |alpha| < 1 strictly interior, and every root must satisfy
        |u(root) - alpha| < 1e-9; a RootSolveError names the route, the
        degree, alpha, the sweeps taken and the worst residual.
        """
        alpha = complex(alpha)
        if not abs(alpha) <= 1.0 + DISC_MARGIN:
            raise ValueError("solve_equals requires |alpha| <= 1")
        on_circle = abs(abs(alpha) - 1.0) <= DISC_MARGIN
        if on_circle:
            roots, sweeps = self._circle_preimages(alpha)
        elif abs(alpha) <= _EPS:
            roots, sweeps = self._zero_arr.copy(), 0
        else:
            roots, sweeps = self._interior_preimages(alpha)
        residual = np.max(np.abs(self.evaluate(roots) - alpha))
        where = (f"{'circle' if on_circle else 'interior'} route, degree {self.degree}, "
                 f"alpha {alpha}, {sweeps} sweeps, worst residual {residual:.3e}")
        if on_circle:
            if not np.max(np.abs(np.abs(roots) - 1.0)) <= 1e-8:
                raise RootSolveError(f"boundary preimages drifted off the unit circle ({where})")
        elif not np.all(np.abs(roots) < 1.0 + DISC_MARGIN):
            raise RootSolveError(f"interior preimages escaped the unit disc ({where})")
        if not residual <= 1e-9:
            raise RootSolveError(f"root residual exceeds 1e-9 ({where})")
        order = np.lexsort((np.abs(roots), np.angle(roots)))
        return roots[order]

    def _boundary_phase(self, alpha):
        """The boundary phase of u and a seed for each angle where it meets arg(alpha).

        On the circle each factor of u is e^{i theta} w_k / conj(w_k) with
        w_k = 1 - a_k e^{-i theta} and Re w_k > 0, so the unwrapped phase
        Phi(theta) = arg(rotation) + n theta + 2 sum_k arg(w_k) has no branch
        cut.  It rises by 2 pi n per turn at the rate
        Phi'(theta) = |u'(e^{i theta})| = sum_k (1 - |a_k|^2) / |w_k|^2 > 0
        (Clark 1972), so each solution of u = alpha/|alpha| is the one root of
        Phi(theta) = t_j for the targets t_j = t_0 + 2 pi j, j < n, with t_0 the
        first value of arg(alpha) + 2 pi Z at or above Phi at the smallest
        tabulated angle: n targets in one turn give n distinct points.

        Phi is tabulated on a uniform grid of 2 max(n, 64) cells over [-pi, pi],
        one node past each end, plus, for each of the m zeros nearer the circle
        than four cells, the preimages under its factor of max(8, 256 // m)
        equally spaced points of the circle (staggered from zero to zero, so
        repeated zeros add nodes).  The table does not depend on alpha: it is
        ``_phase_table``, built once per product, and each call only places
        its targets and seeds.  Each seed angle is cubic Hermite
        interpolation of the inverse of Phi on the cell holding its target, and
        its slope the linear interpolation of Phi' there.  Returns the function
        ``phase``, the targets t_j - arg(rotation), the seed angles and slopes,
        and brackets one cell wider than the seed's cell on each side, because
        the tabulated phase is only accurate to rounding.
        """
        phase, grid, table, table_slope = self._phase_table
        n = self.degree
        targets = table[0] + 2.0 * np.pi * np.arange(n) + (
            (cmath.phase(alpha) - cmath.phase(self.rotation) - table[0]) % (2.0 * np.pi))
        cell = np.minimum(np.maximum(np.searchsorted(table, targets), 1), grid.size - 1)
        left, width = grid[cell - 1], grid[cell] - grid[cell - 1]
        rise = table[cell] - table[cell - 1]
        s = np.minimum(np.maximum((targets - table[cell - 1]) / rise, 0.0), 1.0)
        r = 1.0 - s
        rate = rise / width
        shape = s + s * r * (r * (rate / table_slope[cell - 1] - 1.0)
                             - s * (rate / table_slope[cell] - 1.0))
        shape = np.minimum(np.maximum(shape, 0.0), 1.0)
        slope = table_slope[cell - 1] + shape * (table_slope[cell] - table_slope[cell - 1])
        lo = grid[np.maximum(cell - 2, 0)]
        hi = grid[np.minimum(cell + 1, grid.size - 1)]
        return phase, targets, left + width * shape, slope, lo, hi

    @cached_property
    def _phase_table(self):
        """(phase, nodes, Phi - arg(rotation) and Phi' at the nodes) of ``_boundary_phase``.

        The part that does not depend on alpha, built once per product; its arrays are read-only.
        """
        a = self._zero_arr
        n = a.size
        a_col = a[:, None]
        mass = 1.0 - (a_col * a_col.conj()).real

        def phase(theta):
            """e^{i theta}, w, |w|^2, the summands of Phi', Phi - arg(rotation) and Phi'."""
            z = np.exp(1j * theta)
            w = 1.0 - a_col @ z.conj()[None, :]  # an outer product, faster as a matmul
            w2 = w.real * w.real + w.imag * w.imag
            terms = mass / w2
            return (z, w, w2, terms, n * theta + 2.0 * np.arctan2(w.imag, w.real).sum(axis=0),
                    terms.sum(axis=0))

        cells = max(n, 64)
        spacing = np.pi / cells
        nodes = [spacing * np.arange(-cells - 1, cells + 2)]
        radius = np.abs(a)
        near = 1.0 - radius < 4.0 * spacing
        if near.any():
            # b_k(e^{i theta}) = e^{i (arg a_k + 2 psi - pi)} at these angles
            count = int(near.sum())
            per = max(8, 256 // count)
            psi = np.pi * (np.arange(per) + (np.arange(count)[:, None] + 0.5) / count) / per
            ratio = ((1.0 - radius[near]) / (1.0 + radius[near]))[:, None]
            graded = (np.angle(a[near])[:, None] - 2.0 * np.arctan(ratio / np.tan(psi))).ravel()
            graded = np.concatenate((graded - 2.0 * np.pi, graded, graded + 2.0 * np.pi))
            nodes.append(graded[np.abs(graded) <= np.pi + spacing])
        grid = np.sort(np.concatenate(nodes))
        table, table_slope = phase(grid)[4:]
        for arr in (grid, table, table_slope):
            arr.setflags(write=False)
        return phase, grid, table, table_slope

    def _circle_preimages(self, alpha) -> tuple[np.ndarray, int]:
        """The n solutions of u = alpha for unimodular alpha, and the sweeps taken.

        Each root starts from its seed in ``_boundary_phase`` and takes Halley
        steps on Phi(theta) = t_j, bisecting any step that leaves its bracket.
        Within a radian of its target the residual Phi - t_j is read from the
        product of the unimodular factors, accurate to about eps / |w_k| per
        factor, where the phase sum carries the rounding of numbers as large as
        n pi.  A root stops once its residual is within an ulp of theta or
        within that rounding, or its bracket is two adjacent floats; it keeps
        the angle last evaluated, turned by its Newton correction held to one
        ulp.
        """
        phase, targets, theta, _, lo, hi = self._boundary_phase(alpha)
        n = targets.size
        turn = alpha.conjugate() * self.rotation / abs(alpha)
        done = np.zeros(n, dtype=bool)
        # a Halley step far from its root may divide by zero; the bracket discards it
        with np.errstate(divide="ignore", invalid="ignore"):
            for sweep in range(100):
                z, w, w2, terms, value, slope = phase(theta)
                residual = value - targets
                wrapped = turn * (z * (w * w * (1.0 / w2))).prod(axis=0)
                residual = np.where(np.abs(residual) < 1.0,
                                    np.arctan2(wrapped.imag, wrapped.real), residual)
                below = residual < 0.0
                lo = np.where(below, theta, lo)
                hi = np.where(below, hi, theta)
                ulp = np.abs(np.spacing(theta))
                rounding = _EPS * (1.0 / np.sqrt(w2)).sum(axis=0)
                done |= (np.abs(residual) <= slope * ulp + rounding) | (np.nextafter(lo, hi) >= hi)
                if done.all() or sweep == 99:
                    break
                bend = (terms * w.imag / w2).sum(axis=0)  # Phi'' = -2 bend
                step = theta - residual / (slope + residual * bend / slope)
                step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
                theta = np.where(done, theta, step)
            return z * (1.0 - 1j * np.minimum(np.maximum(residual / slope, -ulp), ulp)), sweep + 1

    def _interior_preimages(self, alpha) -> tuple[np.ndarray, int]:
        """The n solutions of u = alpha for eps < |alpha| < 1, and the sweeps taken.

        Seeds.  Near the circle log u(r e^{i theta}) is about
        i Phi(theta) + Phi'(theta) log r, since z u'/u = Phi' on the circle, so
        the solution on the gradient line of log|u| through a Clark point
        e^{i theta_j} of alpha/|alpha| sits at log r_j = log|alpha| / Phi'(theta_j).
        The seeds of ``_boundary_phase`` give theta_j and Phi'(theta_j) without
        a Halley step.  The product of the n solutions has the modulus
        |u(0) - alpha| / |1 - conj(u(0)) alpha| (the last over the first
        coefficient of N below), so where the depths log r_j add up to less
        than its logarithm, as for small |alpha| on zeros near the circle, they
        are scaled down to add up to it.  The Clark points are those of
        alpha/|alpha| turned by 2 pi / 1000 in phase: a seed on a line of
        reflection symmetry of u = alpha (the real axis, for conjugate-closed
        zeros and real alpha and rotation) stays on it under the sweeps, which
        then stall until rounding breaks the symmetry.

        Sweeps.  Aberth-Ehrlich sweeps run on N = Q (u - alpha), a polynomial
        of degree n with Q = prod_k (1 - conj(a_k) z), whose Newton ratio
        N'/N = Q'/Q + u'/(u - alpha) is read from the product form, with
        u' = u sum_k (1 - |a_k|^2) / ((z - a_k)(1 - conj(a_k) z)), or from the
        leave-one-out products of ``derivative`` where z is a zero of u, as it
        can be to working precision for |alpha| near eps.  A root is frozen
        after the sweep whose correction is within an ulp of it, or whose
        residual |u - alpha| is within the rounding of the product form,
        eps (|u| sum_k (4 + 2 |a_k z| / |1 - conj(a_k) z|) + |alpha|); frozen
        roots keep repelling the others.  At most 100 sweeps.
        """
        a = self._zero_arr
        n = a.size
        _, _, theta, slope, _, _ = self._boundary_phase(alpha / abs(alpha) * _SEED_TURN)
        depth = np.log(abs(alpha)) / slope
        u0 = complex(self.rotation * np.prod(-a))
        product = abs(u0 - alpha) / abs(1.0 - u0.conjugate() * alpha)
        if product > 0.0:
            depth *= min(1.0, np.log(product) / depth.sum())
        roots = np.exp(depth + 1j * theta)
        a_row = a[None, :]
        ca_row = a_row.conj()
        size_row = np.abs(a_row)
        mass = 1.0 - size_row * size_row
        active = np.arange(n)
        # far from the solutions the sums may overflow; a non-finite step is not taken
        with np.errstate(all="ignore"):
            for sweep in range(1, 101):
                z = roots[active]
                modulus = np.abs(z)
                offset = z[:, None] - a_row
                den = 1.0 - z[:, None] @ ca_row  # an outer product, faster as a matmul
                value = self.rotation * np.prod(offset / den, axis=1)
                du = value * (mass / (offset * den)).sum(axis=1)
                hit = value == 0.0
                if hit.any():  # z is a zero of u, where only leave-one-out products give u'
                    du[hit] = self.derivative(z[hit])
                gap = value - alpha
                newton = 1.0 / ((-ca_row / den).sum(axis=1) + du / gap)
                diff = z[:, None] - roots[None, :]
                diff[np.arange(active.size), active] = np.inf
                step = newton / (1.0 - newton * (1.0 / diff).sum(axis=1))
                roots[active] = np.where(np.isfinite(step), z - step, z)
                rounding = _EPS * (np.abs(value) * (4.0 * n + 2.0 * (
                    modulus[:, None] * size_row / np.abs(den)).sum(axis=1)) + abs(alpha))
                done = (np.abs(step) <= np.spacing(modulus)) | (np.abs(gap) <= rounding)
                active = active[~done]
                if active.size == 0:
                    break
        return roots, sweep

    def to_json(self):
        return {
            "zeros": [[a.real, a.imag] for a in self.zeros],
            "rotation": [self.rotation.real, self.rotation.imag],
        }

    @classmethod
    def from_json(cls, obj) -> "BlaschkeProduct":
        zeros = tuple(complex_pair(p, "zero") for p in obj["zeros"])
        return cls(zeros, complex_pair(obj.get("rotation", [1.0, 0.0]), "rotation"))
