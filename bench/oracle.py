"""Reference computations made apart from ttolab.

Every output the benchmark times is checked here, either against an
independent computation (product-form Blaschke values, the Takenaka-Malmquist
basis evaluated from its formula, trapezoid compression on a grid twice as
fine as the space's own) or against a property the method must have.  Nothing
in this module calls into ttolab; it only reads plain attributes (zeros,
rotation, grid size, matrices) off the objects ttolab returns.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)


def u_values(zeros, rotation, z):
    """u(z) = rotation * prod (z - a) / (1 - conj(a) z), in product form."""
    a = np.asarray(zeros, dtype=complex)
    z = np.asarray(z, dtype=complex)
    return rotation * np.prod((z[..., None] - a) / (1.0 - np.conj(a) * z[..., None]), axis=-1)


def boundary_derivative_modulus(zeros, zeta):
    """|u'(zeta)| on the unit circle: sum (1 - |a|^2) / |zeta - a|^2."""
    a = np.asarray(zeros, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex)
    return np.sum((1.0 - np.abs(a) ** 2) / np.abs(zeta[..., None] - a) ** 2, axis=-1)


def tm_basis(zeros, points):
    """Takenaka-Malmquist basis e_k at the points, shape (n, len(points))."""
    a = np.asarray(zeros, dtype=complex)[:, None]
    pts = np.asarray(points, dtype=complex)[None, :]
    den = 1.0 - np.conj(a) * pts
    blaschke_factors = (pts - a) / den
    prefix = np.cumprod(np.vstack([np.ones_like(pts), blaschke_factors[:-1]]), axis=0)
    return np.sqrt(1.0 - np.abs(a) ** 2) / den * prefix


def circle(num_points):
    return np.exp(2j * np.pi * np.arange(num_points) / num_points)


def compress(zeros, symbol_fn, num_points):
    """Trapezoid compression <Phi e_k, e_j> of a symbol on ``num_points`` circle points."""
    grid = circle(num_points)
    basis = tm_basis(zeros, grid)
    return basis.conj() @ (symbol_fn(grid) * basis).T / num_points


def standard_symbol_fn(zeros, analytic, coanalytic, constant):
    """Values of constant + sum analytic_k e_k + conj(sum coanalytic_k e_k)."""
    def values(grid):
        basis = tm_basis(zeros, grid)
        vals = np.full(grid.shape, constant, dtype=complex)
        if analytic is not None:
            vals = vals + analytic @ basis
        if coanalytic is not None:
            vals = vals + np.conj(coanalytic @ basis)
        return vals
    return values


def generalized_shift(zeros, rotation, alpha, num_points):
    """S_alpha = A_z + alpha / (1 - alpha conj(u(0))) K_0 (x) Kt_0 from first principles.

    K_0 has coordinates conj(e_k(0)); Kt_0 = (u(z) - u(0)) / z is projected by
    quadrature.
    """
    grid = circle(num_points)
    basis = tm_basis(zeros, grid)
    shift = basis.conj() @ (grid * basis).T / num_points
    u0 = complex(u_values(zeros, rotation, np.array([0j]))[0])
    k0 = np.conj(tm_basis(zeros, np.array([0j]))[:, 0])
    kt0_vals = (u_values(zeros, rotation, grid) - u0) / grid
    kt0 = basis.conj() @ kt0_vals / num_points
    gain = alpha / (1.0 - alpha * np.conj(u0))
    return shift + gain * np.outer(k0, np.conj(kt0))


def horner(coeffs, mat):
    """p(M) for ascending coefficients."""
    out = np.zeros_like(mat)
    eye = np.eye(mat.shape[0])
    for c in coeffs[::-1]:
        out = out @ mat + c * eye
    return out


def kernel0_norm2(zeros, rotation):
    """||K_0||^2 = 1 - |u(0)|^2."""
    return 1.0 - abs(complex(u_values(zeros, rotation, np.array([0j]))[0])) ** 2


def rel_gap(mat, ref):
    return float(np.linalg.norm(mat - ref, 2) / max(1.0, np.linalg.norm(ref, 2)))


def margin_digits(residual, bound):
    """log10(bound / residual) with the residual floored at machine epsilon."""
    return math.log10(bound / max(float(residual), EPS))
