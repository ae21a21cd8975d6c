"""Seeded random generators for spaces, symbols and operators.

Shared by the verification suite and the test corpus so randomized statements
are reproducible from a single integer seed.
"""

from __future__ import annotations

import numpy as np

from .blaschke import BlaschkeProduct
from .model_space import ModelSpace, ModelVector
from .tto import SymbolExpr, TTOMatrix, build_tto, _project_off_k0, _shift_conjugate, _typed_symbol


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_circle_point(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))

def sample_disc_point(rng, radius: float = 0.85) -> complex:
    # area-uniform draw in the disc of the given radius
    r = np.sqrt(rng.uniform(0.0, radius**2))
    return complex(r * np.exp(2j * np.pi * rng.uniform()))


def sample_blaschke(rng, degree: int, radius: float = 0.75) -> BlaschkeProduct:
    zeros = [sample_disc_point(rng, radius) for _ in range(degree)]
    return BlaschkeProduct(tuple(zeros), sample_circle_point(rng))


def sample_vector(space: ModelSpace, rng) -> ModelVector:
    n = space.dim
    coords = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    return space.vector(coords)


def sample_symbol(space: ModelSpace, rng) -> SymbolExpr:
    const = complex(rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
    return SymbolExpr(analytic=sample_vector(space, rng),
                      coanalytic=sample_vector(space, rng), constant=const)


def sample_tto(space: ModelSpace, rng) -> TTOMatrix:
    return build_tto(space, sample_symbol(space, rng))


def sample_typed_symbol(space: ModelSpace, rng, alpha) -> SymbolExpr:
    """Symbol phi + alpha conj(S C phi) + c of type alpha (alpha=None gives infinity)."""
    phi = sample_vector(space, rng)
    const = complex(rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
    if alpha is None:
        return SymbolExpr(coanalytic=phi, constant=const)
    return _typed_symbol(space, phi, alpha, const)


def sample_typed_tto(space: ModelSpace, rng, alpha) -> TTOMatrix:
    return build_tto(space, sample_typed_symbol(space, rng, alpha))


def sample_notype_symbol(space: ModelSpace, rng) -> SymbolExpr:
    """Symbol whose operator has no type: quotient images well off parallel.

    Requires dim >= 3; on a two-dimensional space the off-K_0 quotient is a
    line, so every operator is typed.
    """
    if space.dim < 3:
        raise ValueError("operators without a type need dim >= 3")
    for _ in range(200):
        phi1 = sample_vector(space, rng)
        phi2 = sample_vector(space, rng)
        v1 = _project_off_k0(space, _shift_conjugate(space, phi1).coords)
        v2 = _project_off_k0(space, phi2.coords)
        n1, n2 = np.linalg.norm(v1), np.linalg.norm(v2)
        if n1 < 0.2 or n2 < 0.2:
            continue
        cosine = abs(np.vdot(v1, v2)) / (n1 * n2)
        if np.sqrt(max(0.0, 1.0 - cosine**2)) >= 0.3:
            return SymbolExpr(analytic=phi1, coanalytic=phi2)
    raise RuntimeError("failed to sample a no-type symbol")


def sample_notype_tto(space: ModelSpace, rng) -> TTOMatrix:
    return build_tto(space, sample_notype_symbol(space, rng))


def sample_polynomial(rng, degree: int) -> np.ndarray:
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return c / np.sqrt(2)
