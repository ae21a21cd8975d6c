"""Randomized verification of every operator identity the package implements.

verify_space drives the whole library against one model space: quadrature and
reproducing kernels, the conjugation, defect structure and membership, type
classification, products and commutants, Crofoot transforms, fraction symbols
and Clark theory.  Each identity becomes one named check with an explicit
residual bound, and the report is deterministic for a fixed seed.  A check
records each trial's residuals and _Verifier.run reports the worst, keeping a
NaN so that it fails.  The command line tool runs this for ``verify_all``.

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


class _Contradiction(Exception):
    """A sample contradicted its theorem: a verdict, so not a TTOLabError."""


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

    def __init__(self, space: ModelSpace, seed: int, trials: int):
        self.space = space
        self.rng = np.random.default_rng(seed)
        self.trials = max(1, int(trials))
        self.heavy_trials = max(2, self.trials // 10)

    def run(self, method: str) -> tuple[float, int, str, bool]:
        """(worst, trials, note, contradicted) of a check that calls record(*residuals)
        once per trial.

        worst keeps a NaN; a trial that raises _Contradiction records 1.0 and sets
        contradicted, which fails the check whatever its bound.
        """
        trials = []

        def record(*residuals):
            trials.append(residuals)

        try:
            note = getattr(self, method)(record)
            contradicted = False
        except _Contradiction as exc:
            record(1.0)
            note, contradicted = str(exc), True
        worst = np.max([r for residuals in trials for r in residuals], initial=0.0)
        return float(worst), len(trials), note, contradicted

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

    def check_boundary_modulus(self, record):
        sp = self.space
        grid = float(np.max(np.abs(np.abs(sp.u_values) - 1.0)))
        for _ in range(self.trials):
            z = sampling.sample_circle_point(self.rng)
            record(grid, abs(abs(sp.u.evaluate(z)) - 1.0))
        return "full quadrature grid plus random boundary points"

    def check_gram_identity(self, record):
        sp = self.space
        record(sp.gram_residual)
        return f"basis Gram matrix at {sp.quad_points} quadrature points"

    def check_reproducing_kernel(self, record):
        sp = self.space
        for k in range(self.trials):
            f = sampling.sample_vector(sp, self.rng)
            lam = self._mixed_point(k)
            kern = sp.kernel(lam)
            gap = abs(f.inner(kern) - f.evaluate(lam))
            record(gap / max(1.0, f.norm() * kern.norm()))
        return "f(lam) = <f, K_lam> at interior and boundary points"

    def check_conjugate_kernel_formula(self, record):
        sp = self.space
        for k in range(self.trials):
            lam = self._mixed_point(k)
            vals = sp.conjugate_kernel(lam).grid_values()
            mask = np.abs(sp.grid - lam) > 1e-8
            formula = sp.u._difference_quotient(sp.grid[mask], lam)
            gap = float(np.max(np.abs(vals[mask] - formula)))
            record(gap / max(1.0, float(np.max(np.abs(formula)))))
        return "conjugate kernel equals (u(z) - u(lam)) / (z - lam)"

    def check_conjugation_involution(self, record):
        m = self.space.conj_matrix
        eye = np.eye(self.space.dim)
        record(spectral_norm(m @ m.conj() - eye), spectral_norm(m - m.T))
        return "conjugation matrix is symmetric with M conj(M) = I"

    def check_conjugation_isometry(self, record):
        sp = self.space
        for _ in range(self.trials):
            f = sampling.sample_vector(sp, self.rng)
            g = sampling.sample_vector(sp, self.rng)
            gap = abs(f.conjugate().inner(g.conjugate()) - g.inner(f))
            record(gap / max(1.0, f.norm() * g.norm()))
        return "<Cf, Cg> = <g, f>"

    def check_conjugation_pairing(self, record):
        sp = self.space
        for k in range(self.trials):
            f = sampling.sample_vector(sp, self.rng)
            lam = self._mixed_point(k)
            kt = sp.conjugate_kernel(lam)
            gap = abs(f.conjugate().evaluate(lam) - kt.inner(f))
            record(gap / max(1.0, f.norm() * kt.norm()))
        return "(Cf)(lam) = <conjugate kernel at lam, f>"

    def check_boundary_kernel_norm(self, record):
        sp = self.space
        for _ in range(self.trials):
            zeta = sampling.sample_circle_point(self.rng)
            du = abs(sp.u.derivative(zeta))
            record(abs(sp.kernel(zeta).norm() ** 2 - du) / du)
        return "squared boundary kernel norm equals |u'(zeta)|"

    # -- operator structure ------------------------------------------------------

    def check_shift_defect(self, record):
        sp = self.space
        s = compressed_shift(sp).mat
        eye = np.eye(sp.dim)
        k0, kt0 = sp.k0.coords, sp.kt0.coords
        record(spectral_norm(eye - s @ s.conj().T - np.outer(k0, k0.conj())),
               spectral_norm(eye - s.conj().T @ s - np.outer(kt0, kt0.conj())))
        return "I - SS* and I - S*S are the two kernel projections"

    def check_shift_action(self, record):
        sp = self.space
        s = compressed_shift(sp).mat
        kt0 = sp.kt0.coords
        for _ in range(self.trials):
            f = sampling.sample_vector(sp, self.rng)
            fv = f.grid_values()
            back = (sp.vector(s.conj().T @ f.coords).grid_values()
                    - (fv - f.evaluate(0.0)) / sp.grid)
            fwd = (sp.grid * fv - sp.vector(s @ f.coords).grid_values()
                   - np.vdot(kt0, f.coords) * sp.u_values)
            gap = max(float(np.max(np.abs(back))), float(np.max(np.abs(fwd))))
            record(gap / max(1.0, f.norm()))
        return "S*f = (f - f(0))/z and zf = Sf + <f, kt0> u"

    def check_double_shifted_conjugation(self, record):
        sp = self.space
        s = compressed_shift(sp).mat
        for _ in range(self.trials):
            f = sampling.sample_vector(sp, self.rng)
            once = sp.vector(s @ f.conjugate().coords)
            twice = sp.vector(s @ once.conjugate().coords)
            expect = f - f.evaluate(0.0) * sp.k0
            record((twice - expect).norm() / max(1.0, f.norm()))
        return "(SC)^2 f = f - f(0) K_0"

    def check_defect_rank_two(self, record):
        sp = self.space
        for k in range(self.trials):
            a = self._operator_pool(k)
            dec = is_tto(sp, a)
            if not dec.passed:
                raise _Contradiction("a known operator failed the membership test")
            record(dec.residual / max(1.0, spectral_norm(a)))
        return "A - SAS* compresses to zero off the kernel pair"

    def check_membership_roundtrip(self, record):
        sp = self.space
        for _ in range(self.trials):
            sym = sampling.sample_symbol(sp, self.rng)
            a = build_tto(sp, sym)
            extracted = extract_symbol(sp, a)
            back = build_tto(sp, extracted)
            if not symbols_equivalent(sp, sym, extracted):
                raise _Contradiction("extracted symbol not equivalent to the input")
            record((a - back).norm() / max(1.0, a.norm()))
        return "build, extract, rebuild returns the same operator"

    def check_membership_rejects_perturbation(self, record):
        sp = self.space
        if sp.dim < 2:
            return "vacuous: dim 1 - every 1x1 matrix is a truncated Toeplitz operator"
        for _ in range(self.trials):
            a = sampling.sample_tto(sp, self.rng).mat
            g = (self.rng.standard_normal((sp.dim, sp.dim))
                 + 1j * self.rng.standard_normal((sp.dim, sp.dim)))
            g /= spectral_norm(g)
            if is_tto(sp, g).passed:  # astronomically unlikely; do not count it
                continue
            eps = 1e-3 * max(1.0, spectral_norm(a))
            record(float(is_tto(sp, a + eps * g).passed))
        return "indicator: perturbed operators must fail membership"

    def check_toeplitz_oracle(self, record):
        sp = self.space
        if sp.dim < 2 or any(z != 0 for z in sp.u.zeros):
            return "vacuous: u is not z^n with n >= 2"
        n = sp.dim
        for _ in range(self.trials):
            diag = (self.rng.standard_normal(2 * n - 1)
                    + 1j * self.rng.standard_normal(2 * n - 1))
            j, k = np.indices((n, n))
            toep = diag[j - k + n - 1]
            dec = is_tto(sp, toep)
            if not dec.passed:
                raise _Contradiction("a Toeplitz matrix failed membership")
            norm = spectral_norm(toep)
            bump = toep.copy()
            r = int(self.rng.integers(0, n - 1))
            bump[r, r] += 0.5 * (1.0 + norm)
            if is_tto(sp, bump).passed:
                raise _Contradiction("a non-Toeplitz matrix passed membership")
            record(dec.residual / max(1.0, norm))
        return "on K_{z^n} membership = constant diagonals"

    def check_c_symmetry(self, record):
        sp = self.space
        for k in range(self.trials):
            a = self._operator_pool(k)
            record(c_symmetry_residual(sp, a) / max(1.0, spectral_norm(a)))
        return "every truncated Toeplitz operator is C-symmetric"

    def check_kernel_shift_identities(self, record):
        sp = self.space
        for k in range(self.trials):
            lam = self._mixed_point(k)
            rep = kernel_shift_identities(sp, lam)
            record(rep.max_residual / max(1.0, sp.kernel(lam).norm()))
        return "shift and backward shift action on both kernels"

    # -- type algebra ------------------------------------------------------------

    def _typed_sample_alpha(self, k: int):
        if k % 4 == 0:
            return 0.0 + 0.0j
        if k % 4 == 1:
            return sampling.sample_circle_point(self.rng)
        return sampling.sample_disc_point(self.rng, radius=2.0)

    def check_typed_membership(self, record):
        sp = self.space
        if sp.dim < 2:
            return "vacuous: dim 1 - every operator is scalar"
        for k in range(self.trials):
            alpha = None if k % 5 == 4 else self._typed_sample_alpha(k)
            a = sampling.sample_typed_tto(sp, self.rng, alpha)
            membership = _membership(sp, a)
            tag = classification._type_tag(sp, membership)
            if alpha is None and tag.kind != "infinity":
                raise _Contradiction(f"coanalytic symbol classified {tag.kind}")
            if alpha is not None and tag.kind != "alpha":
                raise _Contradiction(f"type {alpha:.3f} sample classified {tag.kind}")
            gap = 0.0 if alpha is None else abs(tag.value - alpha) / (1.0 + abs(alpha))
            record(gap, classification._type_residual(sp, membership, alpha))
        return "typed symbols classify back to their type"

    def check_type_uniqueness(self, record):
        sp = self.space
        if sp.dim < 2:
            return "vacuous: dim 1 - every operator is scalar"
        for k in range(self.trials):
            alpha = self._typed_sample_alpha(k)
            a = sampling.sample_typed_tto(sp, self.rng, alpha)
            beta = alpha + np.exp(2j * np.pi * self.rng.random())
            membership = _membership(sp, a)
            good = classification._type_residual(sp, membership, alpha)
            bad = classification._type_residual(sp, membership, beta)
            record(good / max(bad, 1e-300))
        return "membership residual ratio right type / wrong type"

    def check_scalar_detection(self, record):
        sp = self.space
        for _ in range(self.trials):
            c = sampling.sample_disc_point(self.rng, radius=3.0)
            tag = classification.classify_type(sp, c * np.eye(sp.dim))
            if not tag.is_scalar:
                raise _Contradiction(f"c I classified {tag.kind}")
            built = build_tto(sp, SymbolExpr(constant=c)).mat
            record(abs(tag.value - c) / (1.0 + abs(c)),
                   spectral_norm(built - c * np.eye(sp.dim)) / (1.0 + abs(c)))
        return "constant symbols are scalar multiples of I"

    def check_adjoint_duality(self, record):
        sp = self.space
        if sp.dim < 2:
            return "vacuous: dim 1 - every operator is scalar"
        for k in range(self.trials):
            alpha = None if k % 4 == 3 else self._typed_sample_alpha(k)
            a = sampling.sample_typed_tto(sp, self.rng, alpha)
            tag = classification.classify_type(sp, a)
            dual = classification.type_of_adjoint(tag)
            adj_tag = classification.classify_type(sp, a.adjoint())
            if adj_tag.kind != dual.kind:
                raise _Contradiction(f"adjoint of {tag.kind} classified {adj_tag.kind}")
            record(abs(adj_tag.value - dual.value) / (1.0 + abs(dual.value))
                   if dual.kind == "alpha" else 0.0)
        return "type of A* is the dual of the type of A"

    def check_symbol_representation(self, record):
        sp = self.space
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
            if not symbols_equivalent(sp, rep[0], rep[1]):
                raise _Contradiction("equivalent representations reported distinct")
            p = sampling.sample_polynomial(self.rng, sp.dim - 1)
            # A_{conj f} is the adjoint of A_f: one compression covers u p and conj(u p)
            dead = build_refined(sp, lambda pts, uv: uv * npoly.polyval(pts, p))
            record(*(spectral_norm(m - mats[0]) / scale for m in mats[1:]),
                   dead.norm() / scale)
        return "constants fold into K_0, u-multiples act as zero"

    def check_product_theorem(self, record):
        sp = self.space
        if sp.dim < 2:
            return "vacuous: dim 1 - every product is scalar"
        for k in range(self.trials):
            alpha = self._typed_sample_alpha(k)
            a = sampling.sample_typed_tto(sp, self.rng, alpha)
            b = sampling.sample_typed_tto(sp, self.rng, alpha)
            pc = classification.product_classification(sp, a, b)
            if pc.kind != "both_type":
                raise _Contradiction(f"same-type product classified {pc.kind}")
            gap = abs(pc.alpha.value - alpha) / (1.0 + abs(alpha))
            c = sampling.sample_disc_point(self.rng, radius=2.0)
            pc = classification.product_classification(sp, a, c * np.eye(sp.dim))
            if pc.kind != "trivial":
                raise _Contradiction(f"scalar-factor product classified {pc.kind}")
            b2 = sampling.sample_typed_tto(sp, self.rng, alpha + 1.0 + 0.5j)
            pc = classification.product_classification(sp, a, b2)
            if pc.kind != "not_tto":
                raise _Contradiction(f"mixed-type product classified {pc.kind}")
            record(gap)
        return "products stay truncated Toeplitz iff types align"

    def check_product_rank2_lemma(self, record):
        sp = self.space
        if sp.dim < 2:
            return "vacuous: dim 1 - the compression off K_0 is trivial"
        for k in range(self.trials):
            alpha = self._typed_sample_alpha(k)
            sym_a = sampling.sample_typed_symbol(sp, self.rng, alpha)
            sym_b = sampling.sample_typed_symbol(sp, self.rng, alpha)
            residual = classification.product_rank2_residual(sp, sym_a, sym_b)
            sym_c = sampling.sample_typed_symbol(sp, self.rng, alpha + 1.0 + 0.5j)
            product = build_tto(sp, sym_a).mat @ build_tto(sp, sym_c).mat
            if (classification.product_rank2_condition(sp, sym_a, sym_c)
                    != is_tto(sp, product).passed):
                raise _Contradiction("rank-two test disagrees with membership")
            record(residual)
        return "rank-two compression vanishes iff the product is one"

    def check_cso_commutation(self, record):
        sp = self.space
        if sp.dim < 2:
            return "vacuous: dim 1 - all operators commute"
        for k in range(self.trials):
            alpha = self._typed_sample_alpha(k)
            a = sampling.sample_typed_tto(sp, self.rng, alpha).mat
            b = sampling.sample_typed_tto(sp, self.rng, alpha).mat
            scale = max(1.0, spectral_norm(a) * spectral_norm(b))
            c = sampling.sample_typed_tto(sp, self.rng, alpha + 1.0 + 0.5j).mat
            comm = spectral_norm(a @ c - c @ a) / scale
            csym = c_symmetry_residual(sp, a @ c) / scale
            if (comm <= 1e-6) != (csym <= 1e-6):
                raise _Contradiction("commutation and C-symmetry of AC disagree")
            record(spectral_norm(a @ b - b @ a) / scale)
        return "products of these C-symmetric operators commute"

    def check_commutant_equivalence(self, record):
        sp = self.space
        if sp.dim < 2:
            return "vacuous: dim 1 - the commutant is everything"
        for k in range(self.trials):
            alpha = (sampling.sample_circle_point(self.rng) if k % 3 == 0
                     else sampling.sample_disc_point(self.rng, radius=0.95))
            a = sampling.sample_typed_tto(sp, self.rng, alpha)
            residual = classification.commutant_residual(sp, a, alpha)
            coeffs = sampling.sample_polynomial(self.rng, min(sp.dim, 3))
            p = _power_sum(generalized_shift(sp, alpha).mat, coeffs)
            tag = classification.classify_type(sp, p)
            if tag.kind not in ("alpha", "scalar"):
                raise _Contradiction(f"polynomial in S_alpha classified {tag.kind}")
            sym = classification.commutant_symbol(sp, p, alpha)
            record(residual,
                   abs(tag.value - alpha) / (1.0 + abs(alpha)) if tag.kind == "alpha" else 0.0,
                   spectral_norm(build_tto(sp, sym).mat - p) / max(1.0, spectral_norm(p)))
        return "type alpha = commutant of S_alpha, symbol recovered"

    def check_rank_one_interior(self, record):
        sp = self.space
        for k in range(self.trials):
            lam = 0.0 if k % 4 == 0 else sampling.sample_disc_point(self.rng, radius=0.8)
            op, tag, membership = classification._rank_one_interior(sp, lam)
            scale = max(1.0, op.norm())
            # at dim 1 the tag is the scalar value, not a type
            tag_gap = abs(tag.value - sp.u.evaluate(lam)) if sp.dim >= 2 else 0.0
            du = sp.u.derivative(lam)
            direct = build_refined(sp, lambda pts, uv: uv / (pts - lam)).mat
            record(membership.residual / scale, tag_gap,
                   spectral_norm(op.mat @ op.mat - du * op.mat) / scale ** 2,
                   spectral_norm(direct - op.mat) / scale)
        return "conjugate kernel (x) kernel: symbol u/(z - lam)"

    def check_rank_one_boundary(self, record):
        sp = self.space
        for _ in range(self.trials):
            zeta = sampling.sample_circle_point(self.rng)
            op, tag, membership = classification._rank_one_boundary(sp, zeta)
            scale = max(1.0, op.norm())
            tag_gap = abs(tag.value - sp.u.evaluate(zeta)) if sp.dim >= 2 else 0.0
            kz = sp.kernel(zeta)
            sym = SymbolExpr(analytic=kz, coanalytic=kz, constant=-1.0)
            record(spectral_norm(op.mat - op.mat.conj().T) / scale,
                   membership.residual / scale, tag_gap,
                   spectral_norm(build_tto(sp, sym).mat - op.mat) / scale)
        return "boundary kernel projections, symbol K + conj(K) - 1"

    def check_inverse_theorem(self, record):
        sp = self.space
        if sp.dim < 2:
            return "vacuous: dim 1 - inverses are scalars"
        for k in range(self.trials):
            alpha = self._typed_sample_alpha(k)
            a = sampling.sample_typed_tto(sp, self.rng, alpha)
            shifted = a.mat + 3.0 * max(1.0, a.norm()) * np.eye(sp.dim)
            rep = classification.inverse_type_check(sp, shifted)
            if not (rep.consistent and rep.inverse_is_tto):
                raise _Contradiction("typed invertible operator broke the theorem")
            gap = (abs(rep.inverse_tag.value - rep.input_tag.value)
                   / (1.0 + abs(rep.input_tag.value)))
            if sp.dim >= 3:
                nt = sampling.sample_notype_tto(sp, self.rng)
                shifted = nt.mat + 3.0 * max(1.0, nt.norm()) * np.eye(sp.dim)
                rep = classification.inverse_type_check(sp, shifted)
                if not rep.consistent or rep.inverse_is_tto:
                    raise _Contradiction("untyped operator has an in-class inverse")
            record(gap)
        return ("inverse stays in the class iff the operator is typed"
                if sp.dim >= 3 else "untyped branch skipped: dim < 3")

    def check_algebra_containment(self, record):
        sp = self.space
        if sp.dim < 2:
            return "vacuous: dim 1 - only the scalar algebra exists"
        for _ in range(self.heavy_trials):
            s_alpha = generalized_shift(sp, sampling.sample_disc_point(self.rng))
            fam = [np.eye(sp.dim), s_alpha.mat, s_alpha.mat @ s_alpha.mat]
            rep = classification.algebra_containment(sp, fam)
            if rep.kind != "subalgebra":
                raise _Contradiction(f"shift family classified {rep.kind}")
            fam.append(sampling.sample_typed_tto(sp, self.rng, 1.5 + 0.5j).mat)
            rep = classification.algebra_containment(sp, fam)
            if rep.kind != "not_algebra_candidate":
                raise _Contradiction("mixed-type family accepted")
            record(0.0)
        return "indicator: powers of S_alpha sit in one algebra"

    # -- Crofoot transform ---------------------------------------------------------

    def check_crofoot_unitary(self, record):
        for ct in self._crofoots:
            record(ct.unitarity_residual)
        return "weighted composition map is unitary"

    def check_crofoot_shift_intertwine(self, record):
        # crofoot builds T from boundary kernels, not from T S' = S_alpha T, so
        # this relation checks it independently
        sp = self.space
        for ct in self._crofoots:
            s_alpha = generalized_shift(sp, ct.alpha).mat
            s_src = compressed_shift(ct.source).mat
            record(spectral_norm(ct.mat.conj().T @ s_alpha @ ct.mat - s_src))
        return "T* S_alpha T is the shift downstairs"

    def check_crofoot_intertwining(self, record):
        for r in self._intertwine_reports:
            if r.conjugate_error:
                raise QuadratureError(r.conjugate_error)
            record(r.residual_analytic, r.residual_conjugate)
        return "T A_phi T* equals the fraction-symbol operator"

    def check_norm_equality(self, record):
        for r in self._intertwine_reports:
            record(r.norm_gap)
        return "operator norms agree across the transform"

    def check_fraction_symbol(self, record):
        sp = self.space
        for _ in range(self.trials):
            alpha = sampling.sample_disc_point(self.rng, radius=0.8)
            phi = sampling.sample_vector(sp, self.rng)
            exact = crofoot_clark.build_clark_fraction_tto(sp, phi, alpha)
            direct = build_refined(
                sp, lambda pts, uv: phi.evaluate(pts) / (1.0 - alpha * np.conj(uv)))
            record((exact - direct).norm() / max(1.0, direct.norm()))
        return "exact symbol algebra matches grid quadrature"

    def check_fraction_reduction(self, record):
        sp = self.space
        for _ in range(self.trials):
            alpha = sampling.sample_disc_point(self.rng, radius=0.8)
            coeffs = sampling.sample_polynomial(self.rng, 2 * sp.dim + 1)
            transform = crofoot_clark.crofoot(sp, alpha)
            reduced = crofoot_clark.reduce_mod_level_set(transform, coeffs)
            a = crofoot_clark.build_clark_fraction_tto(sp, coeffs, alpha)
            b = transform.map_to_target(build_tto(transform.source, SymbolExpr(analytic=reduced)))
            record((a - b).norm() / max(1.0, a.norm()))
        return "symbols reduce modulo the level-set product"

    def check_fraction_multiplicativity(self, record):
        sp = self.space
        for _ in range(self.trials):
            alpha = sampling.sample_disc_point(self.rng, radius=0.8)
            p = sampling.sample_polynomial(self.rng, sp.dim - 1)
            q = sampling.sample_polynomial(self.rng, sp.dim - 1)
            record(crofoot_clark.multiplicativity_check(sp, p, q, alpha))
        return "the fraction symbol map is multiplicative"

    def check_fraction_invertibility(self, record):
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
                raise _Contradiction("nonvanishing symbol gave a singular operator")
            dead = npoly.polymul(coeffs, np.array([-zeros[0], 1.0]))
            b = crofoot_clark.build_clark_fraction_tto(sp, dead, alpha).mat
            svals = np.linalg.svd(b, compute_uv=False)
            if (crofoot_clark.invertibility_criterion(sp, dead, alpha)
                    or svals[-1] > 1e-6 * max(1.0, svals[0])):
                raise _Contradiction("symbol vanishing on the level set inverted")
            record(0.0)
        return "indicator: invertible iff phi avoids 0 on the level set"

    # -- Clark theory ----------------------------------------------------------------

    def check_clark_points(self, record):
        sp = self.space
        for data in self._clarks:
            record(float(np.max(np.abs(sp.u.evaluate(data.points) - data.alpha))))
        return "Clark points solve u = alpha on the circle"

    def check_clark_orthonormal(self, record):
        for data in self._clarks:
            record(data.ortho_residual)
        return "normalized boundary kernels form an orthonormal basis"

    def check_clark_eigen(self, record):
        for data in self._clarks:
            record(data.eigen_residual)
        return "S_alpha has the Clark points as unimodular eigenvalues"

    def check_clark_mass(self, record):
        sp = self.space
        u0 = sp.u.value_at_zero
        nk2 = sp.k0.norm() ** 2
        for data in self._clarks:
            expect = nk2 / abs(1.0 - np.conj(u0) * data.alpha) ** 2
            record(abs(data.total_mass - expect) / expect)
        return "total spectral mass matches the kernel identity"

    def check_clark_reconstruction(self, record):
        sp = self.space
        for data in self._clarks:
            rebuilt = crofoot_clark.functional_calculus(data, data.points).mat
            record(spectral_norm(generalized_shift(sp, data.alpha).mat - rebuilt))
        return "S_alpha = V diag(points) V*"

    def check_functional_calculus(self, record):
        sp = self.space
        for data in self._clarks:
            coeffs = sampling.sample_polynomial(self.rng, sp.dim)
            direct = _power_sum(generalized_shift(sp, data.alpha).mat, coeffs)
            via_clark = crofoot_clark.functional_calculus(
                data, npoly.polyval(data.points, coeffs)).mat
            record(spectral_norm(direct - via_clark) / max(1.0, spectral_norm(direct)))
        return "polynomials in S_alpha act pointwise on the spectrum"

    def check_unitary_classification(self, record):
        sp = self.space
        for data in self._clarks:
            values = np.exp(2j * np.pi * self.rng.random(sp.dim))
            unitary = crofoot_clark.functional_calculus(data, values)
            verdict = crofoot_clark.classify_unitary(sp, unitary)
            if not verdict.unitary:
                raise _Contradiction("a Clark unitary was rejected")
            if crofoot_clark.classify_unitary(sp, 2.0 * unitary.mat).unitary:
                raise _Contradiction("a non-unitary operator was accepted")
            # at dim 1 the type and the spectrum are the scalar itself
            record(*((abs(verdict.alpha - data.alpha),
                      float(np.max(np.abs(verdict.values - values)))) if sp.dim >= 2 else ()))
        return "unitary operators carry unimodular type and spectrum"

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
    keep their 0/1 semantics regardless, and a sample that contradicts its
    theorem fails its check at any scale.
    """
    runner = _Verifier(space, seed, trials)
    results = []
    for name, base_bound, method in CHECKS:
        bound = base_bound if base_bound == INDICATOR_BOUND else base_bound * tol_scale
        try:
            residual, done, note, contradicted = runner.run(method)
            passed = bool(residual <= bound) and not contradicted
        except TTOLabError as exc:
            residual, done, note = float("inf"), 0, f"error: {exc}"
            passed = False
        results.append(CheckResult(name, passed, float(residual), bound, done, note))
    return VerifyReport(space.u.to_json(), seed, runner.trials, tol_scale,
                        tuple(results))
