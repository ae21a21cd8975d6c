"""Acceptance suite: every structural theorem exercised at its stated tolerance.

Each criterion is one test that prints a single PASS line; run with -v for a
per-criterion verdict from pytest itself.
"""

import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from ttolab import (
    BlaschkeProduct,
    ModelSpace,
    RationalPair,
    RationalTerm,
    SymbolExpr,
    build_refined,
    build_tto,
    c_symmetry_residual,
    clark_data,
    classify_type,
    classify_unitary,
    commutant_residual,
    compressed_shift,
    crofoot,
    crofoot_intertwine_check,
    fraction_invertibility_margin,
    functional_calculus,
    generalized_shift,
    invertibility_criterion,
    inverse_type_check,
    is_tto,
    kernel_shift_identities,
    multiplicativity_check,
    outer,
    product_classification,
    product_rank2_condition,
    rank_one_boundary,
    rank_one_interior,
    rng_from,
    sample_blaschke,
    sample_notype_tto,
    sample_tto,
    sample_typed_tto,
    verify_space,
)
from ttolab.sampling import sample_symbol, sample_typed_symbol


def _pool(rng, count, min_deg=2, max_deg=6, radius=0.75):
    spaces = []
    for _ in range(count):
        deg = int(rng.integers(min_deg, max_deg + 1))
        spaces.append(ModelSpace(sample_blaschke(rng, deg, radius)))
    return spaces


def test_criterion_01_toeplitz_oracle():
    rng = rng_from(101)
    start = time.perf_counter()
    checked = 0
    for n in range(2, 7):
        sp = ModelSpace(BlaschkeProduct((0.0,) * n))
        for _ in range(500):
            diags = rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1)
            toep = np.array([[diags[i - j + n - 1] for j in range(n)] for i in range(n)])
            assert is_tto(sp, toep).passed
            generic = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            constant_diagonals = all(
                abs(generic[i, j] - generic[i + 1, j + 1]) < 1e-12
                for i in range(n - 1) for j in range(n - 1))
            verdict = is_tto(sp, generic)
            assert verdict.passed == constant_diagonals
            checked += 2
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"
    assert checked == 5000
    print(f"PASS criterion 1: Toeplitz oracle, {checked} matrices on z^2..z^6, "
          f"zero misclassifications in {elapsed:.2f}s")


def test_criterion_02_shift_defect_identities():
    rng = rng_from(102)
    worst = 0.0
    for _ in range(10):
        deg = int(rng.integers(1, 9))
        sp = ModelSpace(sample_blaschke(rng, deg))
        s = compressed_shift(sp).mat
        eye = np.eye(sp.dim)
        r1 = np.linalg.norm(eye - s @ s.conj().T - outer(sp.k0, sp.k0), 2)
        r2 = np.linalg.norm(eye - s.conj().T @ s - outer(sp.kt0, sp.kt0), 2)
        worst = max(worst, r1, r2)
        assert r1 < 1e-10 and r2 < 1e-10
    print(f"PASS criterion 2: defect identities on 10 spaces (deg <= 8), "
          f"worst residual {worst:.2e} < 1e-10")


def test_criterion_03_kernel_shift_identities():
    rng = rng_from(103)
    worst = 0.0
    for k in range(100):
        sp = ModelSpace(sample_blaschke(rng, int(rng.integers(1, 7))))
        if k % 2 == 0:
            lam = 0.95 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        else:
            lam = np.exp(2j * np.pi * rng.uniform())
        res = kernel_shift_identities(sp, lam).max_residual
        worst = max(worst, res)
        assert res < 1e-9
    print(f"PASS criterion 3: four kernel identities over 100 random (u, lambda), "
          f"worst residual {worst:.2e} < 1e-9")


def test_criterion_04_c_symmetry():
    rng = rng_from(104)
    spaces = _pool(rng, 10, min_deg=1)
    worst = 0.0
    for k in range(200):
        sp = spaces[k % len(spaces)]
        res = c_symmetry_residual(sp, sample_tto(sp, rng))
        worst = max(worst, res)
        assert res < 1e-9
    print(f"PASS criterion 4: C A C = A* for 200 random operators, "
          f"worst residual {worst:.2e} < 1e-9")


def test_criterion_05_commutant_theorem():
    rng = rng_from(105)
    typed_spaces = _pool(rng, 8, min_deg=2)
    for k in range(100):
        sp = typed_spaces[k % len(typed_spaces)]
        alpha = (np.exp(2j * np.pi * rng.uniform()) if k % 3 == 0
                 else 0.95 * rng.uniform() * np.exp(2j * np.pi * rng.uniform()))
        a = sample_typed_tto(sp, rng, alpha)
        assert commutant_residual(sp, a, alpha) < 1e-8
    notype_spaces = _pool(rng, 5, min_deg=3)
    for k in range(100):
        sp = notype_spaces[k % len(notype_spaces)]
        b = sample_notype_tto(sp, rng)
        for _ in range(20):
            alpha = (np.exp(2j * np.pi * rng.uniform()) if rng.uniform() < 0.5
                     else rng.uniform() * np.exp(2j * np.pi * rng.uniform()))
            assert commutant_residual(sp, b, alpha) > 1e-8
    print("PASS criterion 5: 100 typed operators commute with their S_alpha, "
          "100 no-type operators fail for 20 alphas each")


def _sample_alpha(rng, k):
    if k % 4 == 0:
        return 0.0
    if k % 4 == 1:
        return np.exp(2j * np.pi * rng.uniform())
    if k % 4 == 2:
        return None  # coanalytic
    return 2.0 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())


def test_criterion_06_product_theorem():
    rng = rng_from(106)
    spaces = _pool(rng, 6, min_deg=2)
    same = diff = scal = 0
    for k in range(100):  # same type
        sp = spaces[k % len(spaces)]
        alpha = _sample_alpha(rng, k)
        a = sample_typed_tto(sp, rng, alpha)
        b = sample_typed_tto(sp, rng, alpha)
        report = product_classification(sp, a, b)
        assert report.kind == "both_type"
        tag = report.product
        if tag.kind != "scalar":
            if alpha is None:
                assert tag.kind == "infinity"
            else:
                assert tag.kind == "alpha"
                assert abs(tag.value - alpha) <= 1e-6 * (1.0 + abs(alpha))
        same += 1
    for k in range(100):  # different types
        sp = spaces[k % len(spaces)]
        pairs = [(0.0, None), (0.6, -0.5j), (np.exp(1j), 0.2),
                 (None, 0.4 + 0.3j), (1.7, 0.1j)]
        alpha, beta = pairs[k % len(pairs)]
        a = sample_typed_tto(sp, rng, alpha)
        b = sample_typed_tto(sp, rng, beta)
        report = product_classification(sp, a, b)
        assert report.kind == "not_tto"
        diff += 1
    for k in range(100):  # one scalar factor
        sp = spaces[k % len(spaces)]
        c = complex(rng.standard_normal(), rng.standard_normal())
        a = c * np.eye(sp.dim)
        b = sample_tto(sp, rng).mat
        report = (product_classification(sp, a, b) if k % 2 == 0
                  else product_classification(sp, b, a))
        assert report.kind == "trivial"
        scal += 1
    assert same == diff == scal == 100
    print("PASS criterion 6: product theorem on 300 stratified pairs "
          "(100 same type, 100 distinct, 100 scalar), all verdicts exact")


def test_criterion_07_rank_two_lemma_equivalence():
    rng = rng_from(107)
    spaces = _pool(rng, 6, min_deg=2)
    agreements = 0
    for k in range(200):
        sp = spaces[k % len(spaces)]
        if k % 2 == 0:
            alpha = _sample_alpha(rng, k // 2)
            s1 = sample_typed_symbol(sp, rng, alpha)
            s2 = sample_typed_symbol(sp, rng, alpha)
        else:
            s1 = sample_symbol(sp, rng)
            s2 = sample_symbol(sp, rng)
        prod = build_tto(sp, s1).mat @ build_tto(sp, s2).mat
        direct = is_tto(sp, prod).passed
        assert product_rank2_condition(sp, s1, s2) == direct
        agreements += 1
    assert agreements == 200
    print("PASS criterion 7: rank-two lemma agrees with direct membership "
          "on 200 symbol pairs, zero disagreements")


def test_criterion_08_rank_one_examples():
    rng = rng_from(108)
    worst_sym = worst_type = 0.0
    for k in range(50):  # interior
        sp = ModelSpace(sample_blaschke(rng, int(rng.integers(2, 7))))
        lam = 0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        mat, tag = rank_one_interior(sp, lam)
        direct = build_refined(sp, lambda pts, uv: uv / (pts - lam)).mat
        sym_res = np.linalg.norm(direct - mat.mat, 2)
        type_res = abs(tag.value - sp.u.evaluate(lam))
        worst_sym = max(worst_sym, sym_res)
        worst_type = max(worst_type, type_res)
        assert sym_res < 1e-8 and type_res < 1e-8
    for k in range(50):  # boundary
        sp = ModelSpace(sample_blaschke(rng, int(rng.integers(2, 7))))
        zeta = np.exp(2j * np.pi * rng.uniform())
        mat, tag = rank_one_boundary(sp, zeta)
        kz = sp.kernel(zeta)
        sym = SymbolExpr(analytic=kz, coanalytic=kz, constant=-1.0)
        sym_res = np.linalg.norm(build_tto(sp, sym).mat - mat.mat, 2)
        type_res = abs(tag.value - sp.u.evaluate(zeta))
        worst_sym = max(worst_sym, sym_res)
        worst_type = max(worst_type, type_res)
        assert sym_res < 1e-8 and type_res < 1e-8
    print(f"PASS criterion 8: 100 rank-one operators, worst symbol residual "
          f"{worst_sym:.2e}, worst type gap {worst_type:.2e} (< 1e-8)")


def test_criterion_09_inverse_theorem():
    rng = rng_from(109)
    spaces = _pool(rng, 6, min_deg=2)
    for k in range(100):
        sp = spaces[k % len(spaces)]
        alpha = _sample_alpha(rng, k)
        a = sample_typed_tto(sp, rng, alpha).mat
        a = a + 2.0 * np.linalg.norm(a, 2) * np.eye(sp.dim)  # scalar shift: same type
        report = inverse_type_check(sp, a)
        assert report.input_tag.is_typed
        assert report.inverse_is_tto and report.consistent
    notype_spaces = _pool(rng, 4, min_deg=3)
    for k in range(20):
        sp = notype_spaces[k % len(notype_spaces)]
        b = sample_notype_tto(sp, rng).mat
        b = b + 3.0 * np.linalg.norm(b, 2) * np.eye(sp.dim)
        report = inverse_type_check(sp, b)
        assert report.input_tag.kind == "none"
        assert not report.inverse_is_tto and report.consistent
    print("PASS criterion 9: 100 invertible typed operators have same-type "
          "inverses, 20 no-type inverses leave the class")


def test_criterion_10_crofoot_suite():
    rng = rng_from(110)
    worst_unitary = worst_inter = worst_mult = 0.0
    for k in range(20):
        sp = ModelSpace(sample_blaschke(rng, int(rng.integers(2, 6))))
        alpha = 0.6 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        t = crofoot(sp, alpha)
        unit = np.linalg.norm(t.mat.conj().T @ t.mat - np.eye(sp.dim), 2)
        worst_unitary = max(worst_unitary, unit)
        assert unit < 1e-9
        deg = int(rng.integers(1, sp.dim + 2))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        rep = crofoot_intertwine_check(t, coeffs)
        worst_inter = max(worst_inter, rep.max_residual)
        assert rep.max_residual < 1e-8
    for k in range(30):
        sp = ModelSpace(sample_blaschke(rng, int(rng.integers(2, 6))))
        alpha = 0.6 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        res = multiplicativity_check(sp, phi, psi, alpha)
        worst_mult = max(worst_mult, res)
        assert res < 1e-8
    agreements = 0
    inv_spaces = _pool(rng, 5, min_deg=2, max_deg=5)
    for k in range(100):
        sp = inv_spaces[k % len(inv_spaces)]
        alpha = 0.6 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        deg = int(rng.integers(1, sp.dim + 1))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        if k % 5 == 0:  # force a genuine zero on the level set
            root = sp.u.solve_equals(alpha)[0]
            coeffs = npoly.polymul(coeffs, [-root, 1.0])
        a = build_tto(sp, SymbolExpr(rational_terms=(RationalTerm(
            RationalPair(tuple(np.atleast_1d(coeffs)), (1.0 + 0j,)),
            clark_alpha=alpha),))).mat
        sigma_min = np.linalg.svd(a, compute_uv=False)[-1]
        direct = bool(sigma_min > 1e-8 * max(1.0, float(np.linalg.norm(coeffs))))
        assert invertibility_criterion(sp, coeffs, alpha) == direct
        agreements += 1
    assert agreements == 100
    print(f"PASS criterion 10: Crofoot transforms unitary (worst {worst_unitary:.2e}),"
          f" intertwining (worst {worst_inter:.2e}), multiplicativity (worst "
          f"{worst_mult:.2e}), invertibility matches sigma_min on 100 pairs")


def test_criterion_11_clark_suite():
    rng = rng_from(111)
    worst_pt = worst_level = worst_unit = worst_recon = worst_mod = 0.0
    for k in range(50):
        sp = ModelSpace(sample_blaschke(rng, int(rng.integers(1, 7))))
        alpha = np.exp(2j * np.pi * rng.uniform())
        data = clark_data(sp, alpha)
        pt = float(np.max(np.abs(np.abs(data.points) - 1.0)))
        level = float(np.max(np.abs(sp.u.evaluate(data.points) - alpha)))
        s = generalized_shift(sp, alpha).mat
        unit = np.linalg.norm(s.conj().T @ s - np.eye(sp.dim), 2)
        recon = np.linalg.norm(functional_calculus(data, data.points).mat - s, 2)
        verdict = classify_unitary(sp, s)
        assert verdict.unitary
        if not verdict.scalar:
            assert abs(verdict.alpha - alpha) < 1e-8
            mod = float(np.max(np.abs(np.abs(verdict.values) - 1.0)))
        else:  # dimension one: the only eigenvalue is the scalar itself
            mod = abs(abs(complex(s[0, 0])) - 1.0)
        worst_pt, worst_level = max(worst_pt, pt), max(worst_level, level)
        worst_unit, worst_recon = max(worst_unit, unit), max(worst_recon, recon)
        worst_mod = max(worst_mod, mod)
        assert pt < 1e-9 and level < 1e-9
        assert unit < 1e-8 and recon < 1e-8 and mod < 1e-8
    print(f"PASS criterion 11: 50 Clark decompositions, worst residuals "
          f"points {worst_pt:.2e}, level {worst_level:.2e}, unitarity "
          f"{worst_unit:.2e}, reconstruction {worst_recon:.2e}, modulus {worst_mod:.2e}")


def test_criterion_12_full_verification_fixtures():
    fixtures = [
        BlaschkeProduct((0.0, 0.0, 0.0)),
        BlaschkeProduct((0.5, -0.3j)),
        BlaschkeProduct((0.5, 0.5, -0.2)),
    ]
    start = time.perf_counter()
    for u in fixtures:
        report = verify_space(ModelSpace(u), seed=0, trials=50)
        failures = [f"{c.name}: {c.max_residual:.3e} > {c.bound:.3e}"
                    for c in report.failures]
        assert report.passed, failures
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"verification took {elapsed:.1f}s"
    print(f"PASS criterion 12: full verification on 3 fixture spaces, "
          f"every residual within bounds, {elapsed:.1f}s < 30s")
