"""Finite Blaschke products: evaluation, exact derivatives, preimage solving.

A finite Blaschke product is u(z) = rotation * prod_k (z - a_k)/(1 - conj(a_k) z)
with every zero a_k strictly inside the unit disc and |rotation| = 1.  It is the
canonical inner function with dim(H^2 ominus u H^2) = number of zeros, and all
model-space machinery downstream is parameterized by one of these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import DegenerateLeadingCoefficient, PoleHit, RootSolveError

EPS_DISC = 1e-12
POLE_TOL = 1e-14


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
        if np.any(moduli >= 1.0 - EPS_DISC):
            raise ValueError("every zero must satisfy |a| < 1 - 1e-12")
        rot = complex(self.rotation)
        if abs(abs(rot) - 1.0) > 1e-14:
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
        degenerates) and handles repeated zeros.
        """
        pts, scalar = _as_points(z)
        a = self._zero_arr
        n = a.size
        den = 1.0 - np.conj(a) * pts[..., None]
        if np.any(np.abs(den) < POLE_TOL):
            raise PoleHit("Blaschke derivative at a reflected zero 1/conj(a)")
        factors = (pts[..., None] - a) / den
        pre = np.ones_like(factors)
        suf = np.ones_like(factors)
        for k in range(1, n):
            pre[..., k] = pre[..., k - 1] * factors[..., k - 1]
            suf[..., n - 1 - k] = suf[..., n - k] * factors[..., n - k]
        terms = (1.0 - np.abs(a) ** 2) / den**2 * pre * suf
        vals = self.rotation * np.sum(terms, axis=-1)
        return complex(vals[0]) if scalar else vals

    def as_rational_pair(self) -> RationalPair:
        """u as numerator/denominator polynomials, rotation folded into the numerator."""
        num = self.rotation * npoly.polyfromroots(self._zero_arr)
        den = np.ones(1, dtype=complex)
        for a in self.zeros:
            den = npoly.polymul(den, np.array([1.0, -np.conj(a)], dtype=complex))
        return RationalPair(tuple(num), tuple(den))

    def solve_equals(self, alpha) -> np.ndarray:
        """All n solutions of u(z) = alpha for |alpha| <= 1, deterministically ordered.

        Roots come from the companion matrix of rotation*N(z) - alpha*D(z),
        polished with a few Newton steps, then sorted by ascending principal
        argument with modulus as tie break.  For |alpha| = 1 the roots are
        asserted unimodular, for |alpha| < 1 strictly interior, and every root
        must satisfy |u(root) - alpha| < 1e-9.
        """
        alpha = complex(alpha)
        if abs(alpha) > 1.0 + 1e-12:
            raise ValueError("solve_equals requires |alpha| <= 1")
        if alpha == 0:
            roots = self._zero_arr.copy()
        else:
            pair = self.as_rational_pair()
            num = np.zeros(self.degree + 1, dtype=complex)
            num[: len(pair.numerator)] = pair.numerator
            den = np.zeros(self.degree + 1, dtype=complex)
            den[: len(pair.denominator)] = pair.denominator
            p = num - alpha * den
            scale = np.max(np.abs(p))
            if abs(p[-1]) < 1e-14 * scale:
                raise DegenerateLeadingCoefficient(
                    "leading coefficient of rotation*N - alpha*D vanished"
                )
            roots = np.roots(p[::-1])
            dp = npoly.polyder(p)
            for _ in range(3):
                fz = npoly.polyval(roots, p)
                fpz = npoly.polyval(roots, dp)
                ok = np.abs(fpz) > 1e-14 * scale
                roots = roots - np.where(ok, fz / np.where(ok, fpz, 1.0), 0.0)
        boundary = abs(abs(alpha) - 1.0) <= 1e-12
        if boundary:
            if np.max(np.abs(np.abs(roots) - 1.0)) > 1e-8:
                raise RootSolveError("boundary preimages drifted off the unit circle")
        else:
            if np.any(np.abs(roots) >= 1.0 + 1e-12):
                raise RootSolveError("interior preimages escaped the unit disc")
        residual = np.max(np.abs(self.evaluate(roots) - alpha))
        if residual > 1e-9:
            raise RootSolveError(f"root residual {residual:.3e} exceeds 1e-9")
        order = np.lexsort((np.abs(roots), np.angle(roots)))
        return roots[order]

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
