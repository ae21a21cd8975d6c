"""Finite Blaschke products: evaluation, exact derivatives, the shift, preimages.

A finite Blaschke product is u(z) = rotation * prod_k (z - a_k)/(1 - conj(a_k) z)
with every zero a_k strictly inside the unit disc and |rotation| = 1.  It is the
canonical inner function with dim(H^2 ominus u H^2) = number of zeros, and all
model-space machinery downstream is parameterized by one of these.

The compressed shift S and the kernels K_0, Kt_0 of K_u have closed forms in
the zeros (Garcia & Ross, arXiv:1108.1858), so u is never expanded into
monomials.  The solutions of u = alpha are the spectrum of S_alpha (Clark,
1972).  Inside the disc they are found as its eigenvalues.  On the circle they
are the n points where the unwrapped boundary phase of u, continuous and
strictly increasing by 2 pi n per turn, meets arg(alpha) modulo 2 pi: n scalar
root solves in known brackets, O(n^2) in all, with no eigensolver.  Operators
built on the shift solve a two-sided Stein equation X - A X B = R.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import PoleHit, RootSolveError
from .tolerances import DISC_MARGIN, POLE_TOL

_EPS = np.finfo(float).eps


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

    def evaluate(self, z):
        pts, scalar = _as_points(z)
        num = npoly.polyval(pts, np.asarray(self.numerator))
        den = npoly.polyval(pts, np.asarray(self.denominator))
        scale = max(np.max(np.abs(np.asarray(self.denominator))), 1.0)
        if np.any(np.abs(den) < POLE_TOL * scale):
            raise PoleHit("rational evaluation at a pole")
        vals = num / den
        return complex(vals[0]) if scalar else vals

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
        num = [complex(p[0], p[1]) for p in obj["numerator"]]
        den = [complex(p[0], p[1]) for p in obj["denominator"]]
        return cls(tuple(num), tuple(den))


def stein_solve(a, b, rhs) -> np.ndarray:
    """X = sum_k A^k R B^k, the solution of X - A X B = R.

    Doubling: X += A X B, then A = A^2 and B = B^2, so pass j adds the terms
    2^j <= k < 2^{j+1}.  Callers pass compressed shifts, their adjoints and
    conjugates, and S_alpha (|alpha| < 1, unitarily equivalent to a compressed
    shift): powers bounded by 1 that decay with the zeros inside the disc.  The
    tail left out is A X B, so stop at ||A||_F^2 ||B||_F^2 <= 1e-36.
    """
    x = np.asarray(rhs, dtype=complex)
    while np.vdot(a, a).real * np.vdot(b, b).real > 1e-36:
        x = x + a @ x @ b
        a, b = a @ a, b @ b
    return x


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
        """Exact analytic derivative of u at z.

        Uses leave-one-out products, so it stays valid at the zeros of u
        (where the logarithmic-derivative form u * sum (1-|a|^2)/((z-a)(1-conj(a)z))
        degenerates) and handles repeated zeros.  The products of the factors
        before and after each zero are two cumulative products along the zero axis.
        """
        pts, scalar = _as_points(z)
        a = self._zero_arr
        den = 1.0 - np.conj(a) * pts[..., None]
        if np.any(np.abs(den) < POLE_TOL):
            raise PoleHit("Blaschke derivative at a reflected zero 1/conj(a)")
        factors = (pts[..., None] - a) / den
        pre = np.ones_like(factors)
        suf = np.ones_like(factors)
        pre[..., 1:] = np.cumprod(factors[..., :-1], axis=-1)
        suf[..., :-1] = np.cumprod(factors[..., :0:-1], axis=-1)[..., ::-1]
        terms = (1.0 - np.abs(a) ** 2) / den**2 * pre * suf
        vals = self.rotation * np.sum(terms, axis=-1)
        return complex(vals[0]) if scalar else vals

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

        Two routes.  On the circle (|alpha| within DISC_MARGIN of 1) the
        solutions are the n points where the monotone boundary phase of u meets
        arg(alpha) modulo 2 pi, found by ``_circle_preimages``.  Inside the disc
        they are the eigenvalues of
        S_alpha = S + alpha/(1 - alpha conj(u(0))) K_0 (x) Kt_0 built from
        ``shift_data``, polished by three Newton steps on the product form of u
        (each kept only where it lowers the residual).  Both are sorted by
        ascending principal argument with modulus as tie break.  For |alpha| = 1
        the roots are asserted unimodular to 1e-8, for |alpha| < 1 strictly
        interior, and every root must satisfy |u(root) - alpha| < 1e-9.
        """
        alpha = complex(alpha)
        if abs(alpha) > 1.0 + DISC_MARGIN:
            raise ValueError("solve_equals requires |alpha| <= 1")
        on_circle = abs(abs(alpha) - 1.0) <= DISC_MARGIN
        if on_circle:
            roots = self._circle_preimages(alpha)
        elif alpha == 0:
            roots = self._zero_arr.copy()
        else:
            s, k0, kt0 = self.shift_data
            gain = alpha / (1.0 - alpha * np.conj(self.evaluate(0.0)))
            roots = np.linalg.eigvals(s + gain * np.outer(k0, np.conj(kt0)))
            res = self.evaluate(roots) - alpha
            # near a multiple zero u' can underflow: keep only finite steps that help
            with np.errstate(all="ignore"):
                for _ in range(3):
                    trial = roots - res / self.derivative(roots)
                    trial = np.where(np.isfinite(trial), trial, roots)
                    trial_res = self.evaluate(trial) - alpha
                    ok = np.abs(trial_res) < np.abs(res)
                    roots, res = np.where(ok, trial, roots), np.where(ok, trial_res, res)
        if on_circle:
            if not np.max(np.abs(np.abs(roots) - 1.0)) <= 1e-8:
                raise RootSolveError("boundary preimages drifted off the unit circle")
        elif not np.all(np.abs(roots) < 1.0 + DISC_MARGIN):
            raise RootSolveError("interior preimages escaped the unit disc")
        residual = np.max(np.abs(self.evaluate(roots) - alpha))
        if not residual <= 1e-9:
            raise RootSolveError(f"root residual {residual:.3e} exceeds 1e-9")
        order = np.lexsort((np.abs(roots), np.angle(roots)))
        return roots[order]

    def _circle_preimages(self, alpha) -> np.ndarray:
        """The n solutions of u = alpha for unimodular alpha, from the boundary phase of u.

        On the circle each factor of u is e^{i theta} w_k / conj(w_k) with
        w_k = 1 - a_k e^{-i theta} and Re w_k > 0, so the unwrapped phase
        Phi(theta) = arg(rotation) + n theta + 2 sum_k arg(w_k) has no branch
        cut.  It rises by 2 pi n per turn at the rate
        Phi'(theta) = |u'(e^{i theta})| = sum_k (1 - |a_k|^2) / |w_k|^2 > 0
        (Clark 1972), so each solution is the one root of Phi(theta) = t_j for
        the targets t_j = t_0 + 2 pi j, j < n, with t_0 the first value of
        arg(alpha) + 2 pi Z at or above Phi at the smallest tabulated angle:
        n targets in one turn give n distinct points.

        Phi is tabulated on a uniform grid of 2 max(n, 64) cells over [-pi, pi],
        one node past each end, plus, for each of the m zeros nearer the circle
        than four cells, the preimages under its factor of max(8, 256 // m)
        equally spaced points of the circle (staggered from zero to zero, so
        repeated zeros add nodes).  Each root starts from cubic Hermite
        interpolation of the inverse of Phi on the cell holding its target,
        within a bracket one cell wider on each side because the tabulated
        phase is only accurate to rounding, and takes Halley steps, bisecting
        any step that leaves the bracket.  Within a radian of its target the
        residual Phi - t_j is read from the product of the unimodular factors,
        accurate to about eps / |w_k| per factor, where the phase sum carries
        the rounding of numbers as large as n pi.  A root stops once its
        residual is within an ulp of theta or within that rounding, or its
        bracket is two adjacent floats; it keeps the angle last evaluated,
        turned by its Newton correction held to one ulp.
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
        # t_j - arg(rotation), to compare with phase()
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
        theta = left + width * np.minimum(np.maximum(shape, 0.0), 1.0)
        lo = grid[np.maximum(cell - 2, 0)]
        hi = grid[np.minimum(cell + 1, grid.size - 1)]
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
            return z * (1.0 - 1j * np.minimum(np.maximum(residual / slope, -ulp), ulp))

    def to_json(self):
        return {
            "zeros": [[a.real, a.imag] for a in self.zeros],
            "rotation": [self.rotation.real, self.rotation.imag],
        }

    @classmethod
    def from_json(cls, obj) -> "BlaschkeProduct":
        zeros = tuple(complex(p[0], p[1]) for p in obj["zeros"])
        rot = obj.get("rotation", [1.0, 0.0])
        return cls(zeros, complex(rot[0], rot[1]))
