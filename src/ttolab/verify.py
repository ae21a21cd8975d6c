"""Randomized verification of every operator identity the package implements.

verify_space drives the whole library against one model space: quadrature and
reproducing kernels, the conjugation, defect structure and membership, type
classification, products and commutants, Crofoot transforms, fraction symbols
and Clark theory.  Each identity becomes one named check with an explicit
residual bound, and the report is deterministic for a fixed seed.  This module
is what the command line tool runs for a ``verify_all`` task.

Checks that do not apply to the given space (a one-dimensional space, or a
symbol that is not a monomial) report themselves as vacuous instead of
pretending to have tested something.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import classification, crofoot_clark, sampling
from .errors import QuadratureError, TTOLabError
from .model_space import ModelSpace
from .tolerances import GRAM_TOL_FLOOR
from .tto import (
    SymbolExpr,
    build_refined,
    build_tto,
    c_symmetry_residual,
    compressed_shift,
    extract_symbol,
    generalized_shift,
    is_tto,
    kernel_shift_identities,
    outer,
    spectral_norm,
    symbols_equivalent,
    _membership,
)

# Indicator checks report 0.0 (agreement) or 1.0 (contradiction) per trial and
# use this bound so that the verdict does not depend on tol_scale rescaling.
INDICATOR_BOUND = 0.5


@dataclass(frozen=True)
class CheckResult:
    """One verified identity: its worst residual against the allowed bound."""

    name: str
    passed: bool
    max_residual: float
    bound: float
    trials: int
    note: str = ""

    def to_json(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "bound": self.bound,
            "trials": self.trials,
            "note": self.note,
        }


@dataclass(frozen=True)
class VerifyReport:
    """Full verification run over one model space."""

    u_json: dict
    seed: int
    trials: int
    tol_scale: float
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_json(self):
        return {
            "u": self.u_json,
            "seed": self.seed,
            "trials": self.trials,
            "tol_scale": self.tol_scale,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _vacuous(reason: str):
    return 0.0, 0, f"vacuous: {reason}"


def _power_sum(s: np.ndarray, coeffs) -> np.ndarray:
    """sum_k c_k s^k from explicit powers, an oracle apart from the library's Horner route."""
    total = coeffs[0] * np.eye(s.shape[0])
    power = np.eye(s.shape[0])
    for ck in coeffs[1:]:
        power = power @ s
        total = total + ck * power
    return total


class _Verifier:
    """Stateful runner: one rng, one space, shared expensive fixtures built on first read."""

    def __init__(self, space: ModelSpace, seed: int, trials: int, tol_scale: float):
        self.space = space
        self.rng = np.random.default_rng(seed)
        self.trials = max(1, int(trials))
        self.heavy_trials = max(2, self.trials // 10)
        self.tol_scale = float(tol_scale)

    # -- shared sampling helpers ----------------------------------------------

    def _mixed_point(self, k: int):
        """Interior points with 0 and boundary points interleaved."""
        if k % 4 == 0:
            return 0.0 + 0.0j
        if k % 4 == 1:
            return sampling.sample_circle_point(self.rng)
        return sampling.sample_disc_point(self.rng, radius=0.9)

    def _operator_pool(self, k: int):
        """Rotates through generic, structured and rank-one operators."""
        sp = self.space
        if k % 5 == 0:
            return compressed_shift(sp).mat
        if k % 5 == 1:
            return generalized_shift(sp, sampling.sample_disc_point(self.rng)).mat
        if k % 5 == 2:
            lam = sampling.sample_disc_point(self.rng, radius=0.8)
            return outer(sp.conjugate_kernel(lam), sp.kernel(lam))
        return sampling.sample_tto(sp, self.rng).mat

    @cached_property
    def _crofoots(self):
        """Crofoot transforms are expensive (each builds a model space); reuse them."""
        transforms = []
        for k in range(self.heavy_trials):
            alpha = sampling.sample_disc_point(self.rng, radius=0.6)
            if k == 0:
                alpha = 0.0 + 0.0j
            transforms.append(crofoot_clark.crofoot(self.space, alpha))
        return transforms

    @cached_property
    def _intertwine_reports(self):
        """Three intertwining reports per Crofoot transform, shared by two checks."""
        return [crofoot_clark.crofoot_intertwine_check(
                    ct, sampling.sample_polynomial(self.rng, self.space.dim))
                for ct in self._crofoots for _ in range(3)]

    @cached_property
    def _clarks(self):
        """Clark decompositions at unimodular alphas drawn once, shared by the Clark checks."""
        return [crofoot_clark.clark_data(self.space, sampling.sample_circle_point(self.rng))
                for _ in range(max(2, self.trials // 4))]

    # -- fundamentals ----------------------------------------------------------

    def check_boundary_modulus(self):
        sp = self.space
        worst = float(np.max(np.abs(np.abs(sp.u_values) - 1.0)))
        for _ in range(self.trials):
            z = sampling.sample_circle_point(self.rng)
            worst = max(worst, abs(abs(sp.u.evaluate(z)) - 1.0))
        return worst, self.trials, "full quadrature grid plus random boundary points"

    def check_gram_identity(self):
        sp = self.space
        note = f"basis Gram matrix at {sp.quad_points} quadrature points"
        return sp.gram_residual, 1, note

    def check_reproducing_kernel(self):
        sp = self.space
        worst = 0.0
        for k in range(self.trials):
            f = sampling.sample_vector(sp, self.rng)
            lam = self._mixed_point(k)
            kern = sp.kernel(lam)
            gap = abs(f.inner(kern) - f.evaluate(lam))
            worst = max(worst, gap / max(1.0, f.norm() * kern.norm()))
        return worst, self.trials, "f(lam) = <f, K_lam> at interior and boundary points"

    def check_conjugate_kernel_formula(self):
        sp = self.space
        worst = 0.0
        for k in range(self.trials):
            lam = self._mixed_point(k)
            vals = sp.conjugate_kernel(lam).grid_values()
            mask = np.abs(sp.grid - lam) > 1e-8
            formula = sp.u._difference_quotient(sp.grid[mask], lam)
            gap = float(np.max(np.abs(vals[mask] - formula)))
            worst = max(worst, gap / max(1.0, float(np.max(np.abs(formula)))))
        return worst, self.trials, "conjugate kernel equals (u(z) - u(lam)) / (z - lam)"

    def check_conjugation_involution(self):
        m = self.space.conj_matrix
        eye = np.eye(self.space.dim)
        worst = max(spectral_norm(m @ m.conj() - eye), spectral_norm(m - m.T))
        return worst, 1, "conjugation matrix is symmetric with M conj(M) = I"

    def check_conjugation_isometry(self):
        sp = self.space
        worst = 0.0
        for _ in range(self.trials):
            f = sampling.sample_vector(sp, self.rng)
            g = sampling.sample_vector(sp, self.rng)
            gap = abs(f.conjugate().inner(g.conjugate()) - g.inner(f))
            worst = max(worst, gap / max(1.0, f.norm() * g.norm()))
        return worst, self.trials, "<Cf, Cg> = <g, f>"

    def check_conjugation_pairing(self):
        sp = self.space
        worst = 0.0
        for k in range(self.trials):
            f = sampling.sample_vector(sp, self.rng)
            lam = self._mixed_point(k)
            kt = sp.conjugate_kernel(lam)
            gap = abs(f.conjugate().evaluate(lam) - kt.inner(f))
            worst = max(worst, gap / max(1.0, f.norm() * kt.norm()))
        return worst, self.trials, "(Cf)(lam) = <conjugate kernel at lam, f>"

    def check_boundary_kernel_norm(self):
        sp = self.space
        worst = 0.0
        for _ in range(self.trials):
            zeta = sampling.sample_circle_point(self.rng)
            du = abs(sp.u.derivative(zeta))
            gap = abs(sp.kernel(zeta).norm() ** 2 - du)
            worst = max(worst, gap / du)
        return worst, self.trials, "squared boundary kernel norm equals |u'(zeta)|"

    # -- operator structure ------------------------------------------------------

    def check_shift_defect(self):
        sp = self.space
        s = compressed_shift(sp).mat
        eye = np.eye(sp.dim)
        k0, kt0 = sp.k0.coords, sp.kt0.coords
        r1 = spectral_norm(eye - s @ s.conj().T - np.outer(k0, k0.conj()))
        r2 = spectral_norm(eye - s.conj().T @ s - np.outer(kt0, kt0.conj()))
        return max(r1, r2), 1, "I - SS* and I - S*S are the two kernel projections"

    def check_shift_action(self):
        sp = self.space
        s = compressed_shift(sp).mat
        kt0 = sp.kt0.coords
        worst = 0.0
        for _ in range(self.trials):
            f = sampling.sample_vector(sp, self.rng)
            fv = f.grid_values()
            back = (sp.vector(s.conj().T @ f.coords).grid_values()
                    - (fv - f.evaluate(0.0)) / sp.grid)
            fwd = (sp.grid * fv - sp.vector(s @ f.coords).grid_values()
                   - np.vdot(kt0, f.coords) * sp.u_values)
            gap = max(float(np.max(np.abs(back))), float(np.max(np.abs(fwd))))
            worst = max(worst, gap / max(1.0, f.norm()))
        return worst, self.trials, "S*f = (f - f(0))/z and zf = Sf + <f, kt0> u"

    def check_double_shifted_conjugation(self):
        sp = self.space
        s = compressed_shift(sp).mat
        worst = 0.0
        for _ in range(self.trials):
            f = sampling.sample_vector(sp, self.rng)
            once = sp.vector(s @ f.conjugate().coords)
            twice = sp.vector(s @ once.conjugate().coords)
            expect = f - f.evaluate(0.0) * sp.k0
            worst = max(worst, (twice - expect).norm() / max(1.0, f.norm()))
        return worst, self.trials, "(SC)^2 f = f - f(0) K_0"

    def check_defect_rank_two(self):
        sp = self.space
        worst = 0.0
        for k in range(self.trials):
            a = self._operator_pool(k)
            dec = is_tto(sp, a)
            worst = max(worst, dec.residual / max(1.0, spectral_norm(a)))
            if not dec.passed:
                return 1.0, k + 1, "a known operator failed the membership test"
        return worst, self.trials, "A - SAS* compresses to zero off the kernel pair"

    def check_membership_roundtrip(self):
        sp = self.space
        worst = 0.0
        for _ in range(self.trials):
            sym = sampling.sample_symbol(sp, self.rng)
            a = build_tto(sp, sym)
            extracted = extract_symbol(sp, a)
            back = build_tto(sp, extracted)
            worst = max(worst, (a - back).norm() / max(1.0, a.norm()))
            if not symbols_equivalent(sp, sym, extracted):
                return 1.0, self.trials, "extracted symbol not equivalent to the input"
        return worst, self.trials, "build, extract, rebuild returns the same operator"

    def check_membership_rejects_perturbation(self):
        sp = self.space
        if sp.dim < 2:
            return _vacuous("dim 1 - every 1x1 matrix is a truncated Toeplitz operator")
        hits = 0.0
        for _ in range(self.trials):
            a = sampling.sample_tto(sp, self.rng).mat
            g = (self.rng.standard_normal((sp.dim, sp.dim))
                 + 1j * self.rng.standard_normal((sp.dim, sp.dim)))
            g /= spectral_norm(g)
            if is_tto(sp, g).passed:  # astronomically unlikely; do not count it
                continue
            eps = 1e-3 * max(1.0, spectral_norm(a))
            if is_tto(sp, a + eps * g).passed:
                hits = 1.0
        return hits, self.trials, "indicator: perturbed operators must fail membership"

    def check_toeplitz_oracle(self):
        sp = self.space
        if sp.dim < 2 or any(z != 0 for z in sp.u.zeros):
            return _vacuous("u is not z^n with n >= 2")
        n = sp.dim
        worst = 0.0
        for _ in range(self.trials):
            diag = (self.rng.standard_normal(2 * n - 1)
                    + 1j * self.rng.standard_normal(2 * n - 1))
            j, k = np.indices((n, n))
            toep = diag[j - k + n - 1]
            dec = is_tto(sp, toep)
            if not dec.passed:
                return 1.0, self.trials, "a Toeplitz matrix failed membership"
            worst = max(worst, dec.residual / max(1.0, spectral_norm(toep)))
            bump = toep.copy()
            r = int(self.rng.integers(0, n - 1))
            bump[r, r] += 0.5 * (1.0 + spectral_norm(toep))
            if is_tto(sp, bump).passed:
                return 1.0, self.trials, "a non-Toeplitz matrix passed membership"
        return worst, self.trials, "on K_{z^n} membership = constant diagonals"

    def check_c_symmetry(self):
        sp = self.space
        worst = 0.0
        for k in range(self.trials):
            a = self._operator_pool(k)
            worst = max(worst,
                        c_symmetry_residual(sp, a) / max(1.0, spectral_norm(a)))
        return worst, self.trials, "every truncated Toeplitz operator is C-symmetric"

    def check_kernel_shift_identities(self):
        sp = self.space
        worst = 0.0
        for k in range(self.trials):
            lam = self._mixed_point(k)
            rep = kernel_shift_identities(sp, lam)
            worst = max(worst, rep.max_residual / max(1.0, sp.kernel(lam).norm()))
        return worst, self.trials, "shift and backward shift action on both kernels"

    # -- type algebra ------------------------------------------------------------

    def _typed_sample_alpha(self, k: int):
        if k % 4 == 0:
            return 0.0 + 0.0j
        if k % 4 == 1:
            return sampling.sample_circle_point(self.rng)
        return sampling.sample_disc_point(self.rng, radius=2.0)

    def check_typed_membership(self):
        sp = self.space
        if sp.dim < 2:
            return _vacuous("dim 1 - every operator is scalar")
        worst = 0.0
        for k in range(self.trials):
            if k % 5 == 4:
                a = sampling.sample_typed_tto(sp, self.rng, None)
                membership = _membership(sp, a)
                tag = classification._type_tag(sp, membership)
                if tag.kind != "infinity":
                    return 1.0, self.trials, f"coanalytic symbol classified {tag.kind}"
                worst = max(worst, classification._type_residual(sp, membership, None))
                continue
            alpha = self._typed_sample_alpha(k)
            a = sampling.sample_typed_tto(sp, self.rng, alpha)
            membership = _membership(sp, a)
            tag = classification._type_tag(sp, membership)
            if tag.kind != "alpha":
                return 1.0, self.trials, f"type {alpha:.3f} sample classified {tag.kind}"
            worst = max(worst, abs(tag.value - alpha) / (1.0 + abs(alpha)))
            worst = max(worst, classification._type_residual(sp, membership, alpha))
        return worst, self.trials, "typed symbols classify back to their type"

    def check_type_uniqueness(self):
        sp = self.space
        if sp.dim < 2:
            return _vacuous("dim 1 - every operator is scalar")
        worst = 0.0
        for k in range(self.trials):
            alpha = self._typed_sample_alpha(k)
            a = sampling.sample_typed_tto(sp, self.rng, alpha)
            beta = alpha + np.exp(2j * np.pi * self.rng.random())
            membership = _membership(sp, a)
            good = classification._type_residual(sp, membership, alpha)
            bad = classification._type_residual(sp, membership, beta)
            worst = max(worst, good / max(bad, 1e-300))
        return worst, self.trials, "membership residual ratio right type / wrong type"

    def check_scalar_detection(self):
        sp = self.space
        worst = 0.0
        for _ in range(self.trials):
            c = sampling.sample_disc_point(self.rng, radius=3.0)
            tag = classification.classify_type(sp, c * np.eye(sp.dim))
            if not tag.is_scalar:
                return 1.0, self.trials, f"c I classified {tag.kind}"
            worst = max(worst, abs(tag.value - c) / (1.0 + abs(c)))
            built = build_tto(sp, SymbolExpr(constant=c)).mat
            worst = max(worst,
                        spectral_norm(built - c * np.eye(sp.dim)) / (1.0 + abs(c)))
        return worst, self.trials, "constant symbols are scalar multiples of I"

    def check_adjoint_duality(self):
        sp = self.space
        if sp.dim < 2:
            return _vacuous("dim 1 - every operator is scalar")
        worst = 0.0
        for k in range(self.trials):
            alpha = None if k % 4 == 3 else self._typed_sample_alpha(k)
            a = sampling.sample_typed_tto(sp, self.rng, alpha)
            tag = classification.classify_type(sp, a)
            dual = classification.type_of_adjoint(tag)
            adj_tag = classification.classify_type(sp, a.adjoint())
            if adj_tag.kind != dual.kind:
                return 1.0, self.trials, f"adjoint of {tag.kind} classified {adj_tag.kind}"
            if dual.kind == "alpha":
                worst = max(worst,
                            abs(adj_tag.value - dual.value) / (1.0 + abs(dual.value)))
        return worst, self.trials, "type of A* is the dual of the type of A"

    def check_symbol_representation(self):
        sp = self.space
        worst = 0.0
        k0 = sp.k0
        for _ in range(self.trials):
            phi = sampling.sample_vector(sp, self.rng)
            psi = sampling.sample_vector(sp, self.rng)
            c = sampling.sample_disc_point(self.rng, radius=2.0)
            scale = 1.0 + phi.norm() + psi.norm() + abs(c)
            rep = [
                SymbolExpr(analytic=phi, coanalytic=psi, constant=c),
                SymbolExpr(analytic=phi + c * k0, coanalytic=psi),
                SymbolExpr(analytic=phi, coanalytic=psi + np.conj(c) * k0),
            ]
            mats = [build_tto(sp, s).mat for s in rep]
            for m in mats[1:]:
                worst = max(worst, spectral_norm(m - mats[0]) / scale)
            if not symbols_equivalent(sp, rep[0], rep[1]):
                return 1.0, self.trials, "equivalent representations reported distinct"
            p = sampling.sample_polynomial(self.rng, sp.dim - 1)
            # A_{conj f} is the adjoint of A_f: one compression covers u p and conj(u p)
            dead = build_refined(sp, lambda pts, uv: uv * npoly.polyval(pts, p))
            worst = max(worst, dead.norm() / scale)
        return worst, self.trials, "constants fold into K_0, u-multiples act as zero"

    def check_product_theorem(self):
        sp = self.space
        if sp.dim < 2:
            return _vacuous("dim 1 - every product is scalar")
        worst = 0.0
        for k in range(self.trials):
            alpha = self._typed_sample_alpha(k)
            a = sampling.sample_typed_tto(sp, self.rng, alpha)
            b = sampling.sample_typed_tto(sp, self.rng, alpha)
            pc = classification.product_classification(sp, a, b)
            if pc.kind != "both_type":
                return 1.0, self.trials, f"same-type product classified {pc.kind}"
            worst = max(worst, abs(pc.alpha.value - alpha) / (1.0 + abs(alpha)))
            c = sampling.sample_disc_point(self.rng, radius=2.0)
            pc = classification.product_classification(sp, a, c * np.eye(sp.dim))
            if pc.kind != "trivial":
                return 1.0, self.trials, f"scalar-factor product classified {pc.kind}"
            beta = alpha + 1.0 + 0.5j
            b2 = sampling.sample_typed_tto(sp, self.rng, beta)
            pc = classification.product_classification(sp, a, b2)
            if pc.kind != "not_tto":
                return 1.0, self.trials, f"mixed-type product classified {pc.kind}"
        return worst, self.trials, "products stay truncated Toeplitz iff types align"

    def check_product_rank2_lemma(self):
        sp = self.space
        if sp.dim < 2:
            return _vacuous("dim 1 - the compression off K_0 is trivial")
        worst = 0.0
        for k in range(self.trials):
            alpha = self._typed_sample_alpha(k)
            sym_a = sampling.sample_typed_symbol(sp, self.rng, alpha)
            sym_b = sampling.sample_typed_symbol(sp, self.rng, alpha)
            worst = max(worst, classification.product_rank2_residual(sp, sym_a, sym_b))
            sym_c = sampling.sample_typed_symbol(sp, self.rng, alpha + 1.0 + 0.5j)
            r_mixed = classification.product_rank2_residual(sp, sym_a, sym_c)
            product = build_tto(sp, sym_a).mat @ build_tto(sp, sym_c).mat
            if (r_mixed <= 1e-6) != is_tto(sp, product).passed:
                return 1.0, self.trials, "rank-two test disagrees with membership"
        return worst, self.trials, "rank-two compression vanishes iff the product is one"

    def check_cso_commutation(self):
        sp = self.space
        if sp.dim < 2:
            return _vacuous("dim 1 - all operators commute")
        worst = 0.0
        for k in range(self.trials):
            alpha = self._typed_sample_alpha(k)
            a = sampling.sample_typed_tto(sp, self.rng, alpha).mat
            b = sampling.sample_typed_tto(sp, self.rng, alpha).mat
            scale = max(1.0, spectral_norm(a) * spectral_norm(b))
            worst = max(worst, spectral_norm(a @ b - b @ a) / scale)
            c = sampling.sample_typed_tto(sp, self.rng, alpha + 1.0 + 0.5j).mat
            comm = spectral_norm(a @ c - c @ a) / scale
            csym = c_symmetry_residual(sp, a @ c) / scale
            if (comm <= 1e-6) != (csym <= 1e-6):
                return 1.0, self.trials, "commutation and C-symmetry of AC disagree"
        return worst, self.trials, "products of these C-symmetric operators commute"

    def check_commutant_equivalence(self):
        sp = self.space
        if sp.dim < 2:
            return _vacuous("dim 1 - the commutant is everything")
        worst = 0.0
        for k in range(self.trials):
            alpha = (sampling.sample_circle_point(self.rng) if k % 3 == 0
                     else sampling.sample_disc_point(self.rng, radius=0.95))
            a = sampling.sample_typed_tto(sp, self.rng, alpha)
            worst = max(worst, classification.commutant_residual(sp, a, alpha))
            coeffs = sampling.sample_polynomial(self.rng, min(sp.dim, 3))
            p = _power_sum(generalized_shift(sp, alpha).mat, coeffs)
            tag = classification.classify_type(sp, p)
            if tag.kind not in ("alpha", "scalar"):
                return 1.0, self.trials, f"polynomial in S_alpha classified {tag.kind}"
            if tag.kind == "alpha":
                worst = max(worst, abs(tag.value - alpha) / (1.0 + abs(alpha)))
            sym = classification.commutant_symbol(sp, p, alpha)
            worst = max(worst,
                        spectral_norm(build_tto(sp, sym).mat - p)
                        / max(1.0, spectral_norm(p)))
        return worst, self.trials, "type alpha = commutant of S_alpha, symbol recovered"

    def check_rank_one_interior(self):
        sp = self.space
        worst = 0.0
        for k in range(self.trials):
            lam = 0.0 if k % 4 == 0 else sampling.sample_disc_point(self.rng, radius=0.8)
            op, tag, membership = classification._rank_one_interior(sp, lam)
            scale = max(1.0, op.norm())
            worst = max(worst, membership.residual / scale)
            if sp.dim >= 2:  # at dim 1 the tag is the scalar value, not a type
                worst = max(worst, abs(tag.value - sp.u.evaluate(lam)))
            du = sp.u.derivative(lam)
            worst = max(worst,
                        spectral_norm(op.mat @ op.mat - du * op.mat) / scale ** 2)
            direct = build_refined(sp, lambda pts, uv: uv / (pts - lam)).mat
            worst = max(worst, spectral_norm(direct - op.mat) / scale)
        return worst, self.trials, "conjugate kernel (x) kernel: symbol u/(z - lam)"

    def check_rank_one_boundary(self):
        sp = self.space
        worst = 0.0
        for _ in range(self.trials):
            zeta = sampling.sample_circle_point(self.rng)
            op, tag, membership = classification._rank_one_boundary(sp, zeta)
            scale = max(1.0, op.norm())
            worst = max(worst, spectral_norm(op.mat - op.mat.conj().T) / scale)
            worst = max(worst, membership.residual / scale)
            if sp.dim >= 2:
                worst = max(worst, abs(tag.value - sp.u.evaluate(zeta)))
            kz = sp.kernel(zeta)
            sym = SymbolExpr(analytic=kz, coanalytic=kz, constant=-1.0)
            worst = max(worst, spectral_norm(build_tto(sp, sym).mat - op.mat) / scale)
        return worst, self.trials, "boundary kernel projections, symbol K + conj(K) - 1"

    def check_inverse_theorem(self):
        sp = self.space
        if sp.dim < 2:
            return _vacuous("dim 1 - inverses are scalars")
        worst = 0.0
        for k in range(self.trials):
            alpha = self._typed_sample_alpha(k)
            a = sampling.sample_typed_tto(sp, self.rng, alpha)
            shifted = a.mat + 3.0 * max(1.0, a.norm()) * np.eye(sp.dim)
            rep = classification.inverse_type_check(sp, shifted)
            if not (rep.consistent and rep.inverse_is_tto):
                return 1.0, self.trials, "typed invertible operator broke the theorem"
            worst = max(worst, abs(rep.inverse_tag.value - rep.input_tag.value)
                        / (1.0 + abs(rep.input_tag.value)))
            if sp.dim >= 3:
                nt = sampling.sample_notype_tto(sp, self.rng)
                shifted = nt.mat + 3.0 * max(1.0, nt.norm()) * np.eye(sp.dim)
                rep = classification.inverse_type_check(sp, shifted)
                if not rep.consistent or rep.inverse_is_tto:
                    return 1.0, self.trials, "untyped operator has an in-class inverse"
        note = ("inverse stays in the class iff the operator is typed"
                if sp.dim >= 3 else "untyped branch skipped: dim < 3")
        return worst, self.trials, note

    def check_algebra_containment(self):
        sp = self.space
        if sp.dim < 2:
            return _vacuous("dim 1 - only the scalar algebra exists")
        for _ in range(self.heavy_trials):
            s_alpha = generalized_shift(sp, sampling.sample_disc_point(self.rng))
            fam = [np.eye(sp.dim), s_alpha.mat, s_alpha.mat @ s_alpha.mat]
            rep = classification.algebra_containment(sp, fam)
            if rep.kind != "subalgebra":
                return 1.0, self.heavy_trials, f"shift family classified {rep.kind}"
            beta = 1.5 + 0.5j
            fam.append(sampling.sample_typed_tto(sp, self.rng, beta).mat)
            rep = classification.algebra_containment(sp, fam)
            if rep.kind != "not_algebra_candidate":
                return 1.0, self.heavy_trials, "mixed-type family accepted"
        return 0.0, self.heavy_trials, "indicator: powers of S_alpha sit in one algebra"

    # -- Crofoot transform ---------------------------------------------------------

    def check_crofoot_unitary(self):
        worst = max(ct.unitarity_residual for ct in self._crofoots)
        return worst, len(self._crofoots), "weighted composition map is unitary"

    def check_crofoot_shift_intertwine(self):
        # crofoot builds T from boundary kernels, not from T S' = S_alpha T, so
        # this relation checks it independently
        sp = self.space
        worst = 0.0
        for ct in self._crofoots:
            s_alpha = generalized_shift(sp, ct.alpha).mat
            s_src = compressed_shift(ct.source).mat
            gap = spectral_norm(ct.mat.conj().T @ s_alpha @ ct.mat - s_src)
            worst = max(worst, gap)
        return worst, len(self._crofoots), "T* S_alpha T is the shift downstairs"

    def check_crofoot_intertwining(self):
        reports = self._intertwine_reports
        for r in reports:
            if r.conjugate_error:
                raise QuadratureError(r.conjugate_error)
        worst = max(max(r.residual_analytic, r.residual_conjugate) for r in reports)
        return worst, len(reports), "T A_phi T* equals the fraction-symbol operator"

    def check_norm_equality(self):
        reports = self._intertwine_reports
        worst = max(r.norm_gap for r in reports)
        return worst, len(reports), "operator norms agree across the transform"

    def check_fraction_symbol(self):
        sp = self.space
        worst = 0.0
        for _ in range(self.trials):
            alpha = sampling.sample_disc_point(self.rng, radius=0.8)
            phi = sampling.sample_vector(sp, self.rng)
            exact = crofoot_clark.build_clark_fraction_tto(sp, phi, alpha)
            direct = build_refined(
                sp, lambda pts, uv: phi.evaluate(pts) / (1.0 - alpha * np.conj(uv)))
            worst = max(worst, (exact - direct).norm() / max(1.0, direct.norm()))
        return worst, self.trials, "exact symbol algebra matches grid quadrature"

    def check_fraction_reduction(self):
        sp = self.space
        worst = 0.0
        for _ in range(self.trials):
            alpha = sampling.sample_disc_point(self.rng, radius=0.8)
            coeffs = sampling.sample_polynomial(self.rng, 2 * sp.dim + 1)
            transform = crofoot_clark.crofoot(sp, alpha)
            reduced = crofoot_clark.reduce_mod_level_set(transform, coeffs)
            a = crofoot_clark.build_clark_fraction_tto(sp, coeffs, alpha)
            b = transform.map_to_target(build_tto(transform.source, SymbolExpr(analytic=reduced)))
            worst = max(worst, (a - b).norm() / max(1.0, a.norm()))
        return worst, self.trials, "symbols reduce modulo the level-set product"

    def check_fraction_multiplicativity(self):
        sp = self.space
        worst = 0.0
        for _ in range(self.trials):
            alpha = sampling.sample_disc_point(self.rng, radius=0.8)
            p = sampling.sample_polynomial(self.rng, sp.dim - 1)
            q = sampling.sample_polynomial(self.rng, sp.dim - 1)
            worst = max(worst, crofoot_clark.multiplicativity_check(sp, p, q, alpha))
        return worst, self.trials, "the fraction symbol map is multiplicative"

    def check_fraction_invertibility(self):
        sp = self.space
        for _ in range(self.trials):
            alpha = sampling.sample_disc_point(self.rng, radius=0.8)
            zeros = sp.u.solve_equals(alpha)
            coeffs = None
            for _ in range(20):
                cand = sampling.sample_polynomial(self.rng, sp.dim - 1)
                margin = float(np.min(np.abs(npoly.polyval(zeros, cand))))
                if margin > 1e-2 * max(1.0, float(np.linalg.norm(cand))):
                    coeffs = cand
                    break
            if coeffs is None:
                continue
            a = crofoot_clark.build_clark_fraction_tto(sp, coeffs, alpha).mat
            svals = np.linalg.svd(a, compute_uv=False)
            ok = crofoot_clark.invertibility_criterion(sp, coeffs, alpha)
            if not ok or svals[-1] <= 1e-8 * max(1.0, svals[0]):
                return 1.0, self.trials, "nonvanishing symbol gave a singular operator"
            dead = npoly.polymul(coeffs, np.array([-zeros[0], 1.0]))
            b = crofoot_clark.build_clark_fraction_tto(sp, dead, alpha).mat
            svals = np.linalg.svd(b, compute_uv=False)
            if (crofoot_clark.invertibility_criterion(sp, dead, alpha)
                    or svals[-1] > 1e-6 * max(1.0, svals[0])):
                return 1.0, self.trials, "symbol vanishing on the level set inverted"
        return 0.0, self.trials, "indicator: invertible iff phi avoids 0 on the level set"

    # -- Clark theory ----------------------------------------------------------------

    def check_clark_points(self):
        sp = self.space
        worst = max(float(np.max(np.abs(sp.u.evaluate(data.points) - data.alpha)))
                    for data in self._clarks)
        return worst, len(self._clarks), "Clark points solve u = alpha on the circle"

    def check_clark_orthonormal(self):
        worst = max(data.ortho_residual for data in self._clarks)
        return worst, len(self._clarks), "normalized boundary kernels form an orthonormal basis"

    def check_clark_eigen(self):
        worst = max(data.eigen_residual for data in self._clarks)
        return worst, len(self._clarks), "S_alpha has the Clark points as unimodular eigenvalues"

    def check_clark_mass(self):
        sp = self.space
        u0 = sp.u.value_at_zero
        nk2 = sp.k0.norm() ** 2
        worst = 0.0
        for data in self._clarks:
            expect = nk2 / abs(1.0 - np.conj(u0) * data.alpha) ** 2
            worst = max(worst, abs(data.total_mass - expect) / expect)
        return worst, len(self._clarks), "total spectral mass matches the kernel identity"

    def check_clark_reconstruction(self):
        sp = self.space
        worst = 0.0
        for data in self._clarks:
            rebuilt = crofoot_clark.functional_calculus(data, data.points).mat
            worst = max(worst,
                        spectral_norm(generalized_shift(sp, data.alpha).mat - rebuilt))
        return worst, len(self._clarks), "S_alpha = V diag(points) V*"

    def check_functional_calculus(self):
        sp = self.space
        worst = 0.0
        for data in self._clarks:
            coeffs = sampling.sample_polynomial(self.rng, sp.dim)
            direct = _power_sum(generalized_shift(sp, data.alpha).mat, coeffs)
            via_clark = crofoot_clark.functional_calculus(
                data, npoly.polyval(data.points, coeffs)).mat
            worst = max(worst,
                        spectral_norm(direct - via_clark) / max(1.0, spectral_norm(direct)))
        return worst, len(self._clarks), "polynomials in S_alpha act pointwise on the spectrum"

    def check_unitary_classification(self):
        sp = self.space
        worst = 0.0
        for k, data in enumerate(self._clarks):
            values = np.exp(2j * np.pi * self.rng.random(sp.dim))
            unitary = crofoot_clark.functional_calculus(data, values)
            verdict = crofoot_clark.classify_unitary(sp, unitary)
            if not verdict.unitary:
                return 1.0, k + 1, "a Clark unitary was rejected"
            if sp.dim >= 2:
                worst = max(worst, abs(verdict.alpha - data.alpha))
                worst = max(worst, float(np.max(np.abs(verdict.values - values))))
            stretched = 2.0 * unitary.mat
            if crofoot_clark.classify_unitary(sp, stretched).unitary:
                return 1.0, k + 1, "a non-unitary operator was accepted"
        return worst, len(self._clarks), "unitary operators carry unimodular type and spectrum"

CHECKS = (
    ("boundary_modulus", 1e-12, "check_boundary_modulus"),
    ("gram_identity", GRAM_TOL_FLOOR, "check_gram_identity"),
    ("reproducing_kernel", 1e-10, "check_reproducing_kernel"),
    ("conjugate_kernel_formula", 1e-10, "check_conjugate_kernel_formula"),
    ("conjugation_involution", 1e-10, "check_conjugation_involution"),
    ("conjugation_isometry", 1e-10, "check_conjugation_isometry"),
    ("conjugation_pairing", 1e-10, "check_conjugation_pairing"),
    ("boundary_kernel_norm", 1e-8, "check_boundary_kernel_norm"),
    ("shift_defect", 1e-10, "check_shift_defect"),
    ("shift_action", 1e-10, "check_shift_action"),
    ("double_shifted_conjugation", 1e-10, "check_double_shifted_conjugation"),
    ("defect_rank_two", 1e-8, "check_defect_rank_two"),
    ("membership_roundtrip", 1e-8, "check_membership_roundtrip"),
    ("membership_rejects_perturbation", INDICATOR_BOUND,
     "check_membership_rejects_perturbation"),
    ("toeplitz_oracle", 1e-8, "check_toeplitz_oracle"),
    ("c_symmetry", 1e-8, "check_c_symmetry"),
    ("kernel_shift_identities", 1e-8, "check_kernel_shift_identities"),
    ("typed_membership", 1e-6, "check_typed_membership"),
    ("type_uniqueness", 1e-6, "check_type_uniqueness"),
    ("scalar_detection", 1e-8, "check_scalar_detection"),
    ("adjoint_duality", 1e-6, "check_adjoint_duality"),
    ("symbol_representation", 1e-8, "check_symbol_representation"),
    ("product_theorem", 1e-6, "check_product_theorem"),
    ("product_rank2_lemma", 1e-6, "check_product_rank2_lemma"),
    ("cso_commutation", 1e-6, "check_cso_commutation"),
    ("commutant_equivalence", 1e-6, "check_commutant_equivalence"),
    ("rank_one_interior", 1e-8, "check_rank_one_interior"),
    ("rank_one_boundary", 1e-8, "check_rank_one_boundary"),
    ("inverse_theorem", 1e-6, "check_inverse_theorem"),
    ("algebra_containment", INDICATOR_BOUND, "check_algebra_containment"),
    ("crofoot_unitary", 1e-9, "check_crofoot_unitary"),
    ("crofoot_shift_intertwine", 1e-8, "check_crofoot_shift_intertwine"),
    ("crofoot_intertwining", 1e-8, "check_crofoot_intertwining"),
    ("norm_equality", 1e-8, "check_norm_equality"),
    ("fraction_symbol", 1e-8, "check_fraction_symbol"),
    ("fraction_reduction", 1e-10, "check_fraction_reduction"),
    ("fraction_multiplicativity", 1e-8, "check_fraction_multiplicativity"),
    ("fraction_invertibility", INDICATOR_BOUND, "check_fraction_invertibility"),
    ("clark_points", 1e-8, "check_clark_points"),
    ("clark_orthonormal", 1e-8, "check_clark_orthonormal"),
    ("clark_eigen", 1e-8, "check_clark_eigen"),
    ("clark_mass", 1e-8, "check_clark_mass"),
    ("clark_reconstruction", 1e-8, "check_clark_reconstruction"),
    ("functional_calculus", 1e-8, "check_functional_calculus"),
    ("unitary_classification", 1e-6, "check_unitary_classification"),
)


def verify_space(space: ModelSpace, seed: int = 0, trials: int = 50,
                 tol_scale: float = 1.0) -> VerifyReport:
    """Run the full verification battery on one model space.

    Every check samples with its own slice of a single seeded generator, so a
    fixed (space, seed, trials) triple always produces the same report.
    tol_scale loosens (or tightens) every bound uniformly; indicator checks
    keep their 0/1 semantics regardless.
    """
    runner = _Verifier(space, seed, trials, tol_scale)
    results = []
    for name, base_bound, method in CHECKS:
        bound = base_bound if base_bound == INDICATOR_BOUND else base_bound * tol_scale
        try:
            residual, done, note = getattr(runner, method)()
            passed = bool(residual <= bound)
        except TTOLabError as exc:
            residual, done, note = float("inf"), 0, f"error: {exc}"
            passed = False
        results.append(CheckResult(name, passed, float(residual), bound, done, note))
    return VerifyReport(space.u.to_json(), seed, runner.trials, tol_scale,
                        tuple(results))
