import json

import numpy as np
import pytest

from ttolab import (BlaschkeProduct, KernelShiftReport, ModelSpace, QuadratureError,
                    classification, crofoot_clark, sample_blaschke, verify, verify_space)
from ttolab.cli import canonical_json
from ttolab.verify import _Verifier


def test_verify_passes_on_monomial_space(z2):
    report = verify_space(z2, seed=0, trials=5)
    assert report.passed
    assert not report.failures
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))
    assert len(names) >= 40


def test_verify_deterministic(z2):
    a = verify_space(z2, seed=7, trials=5)
    b = verify_space(z2, seed=7, trials=5)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def test_verify_seed_changes_residuals(z2):
    a = verify_space(z2, seed=1, trials=5)
    b = verify_space(z2, seed=2, trials=5)
    ra = [c.max_residual for c in a.checks]
    rb = [c.max_residual for c in b.checks]
    assert ra != rb


def test_verify_generic_space(triple_space):
    report = verify_space(triple_space, seed=3, trials=5)
    assert report.passed, [f"{c.name}: {c.max_residual:.3e} > {c.bound:.3e}"
                           for c in report.failures]


def test_verify_dimension_one_vacuous_checks():
    sp = ModelSpace(BlaschkeProduct((0.5,)))
    report = verify_space(sp, seed=0, trials=4)
    assert report.passed
    notes = {c.name: c.note for c in report.checks}
    assert notes["typed_membership"].startswith("vacuous")
    assert notes["product_theorem"].startswith("vacuous")


def test_verify_report_json_shape(z2):
    blob = verify_space(z2, seed=0, trials=4).to_json()
    assert set(blob) == {"u", "seed", "trials", "tol_scale", "passed", "checks"}
    for entry in blob["checks"]:
        assert set(entry) == {"name", "passed", "max_residual", "bound", "trials", "note"}
        assert np.isfinite(entry["max_residual"])


def test_verify_tol_scale_tightens_bounds(z2):
    # residuals cannot beat machine epsilon, so a tiny scale must fail
    report = verify_space(z2, seed=0, trials=4, tol_scale=1e-20)
    assert not report.passed
    # indicator checks are immune: they either hold exactly or not at all
    by_name = {c.name: c for c in report.checks}
    assert by_name["membership_rejects_perturbation"].passed
    assert by_name["algebra_containment"].passed


def test_norm_equality_matches_full_intertwine_check(triple_space, monkeypatch):
    # crofoot_intertwining and norm_equality read one shared set of
    # 3 x heavy_trials intertwining reports, each taking its maximum over them
    reports = []
    check = crofoot_clark.crofoot_intertwine_check

    def recording(transform, phi):
        reports.append(check(transform, phi))
        return reports[-1]

    monkeypatch.setattr(crofoot_clark, "crofoot_intertwine_check", recording)
    report = verify_space(triple_space, seed=5, trials=20)
    residual = {c.name: c.max_residual for c in report.checks}
    assert len(reports) == 3 * 2  # heavy_trials = max(2, 20 // 10)
    assert residual["norm_equality"] == max(r.norm_gap for r in reports)
    assert residual["crofoot_intertwining"] == max(
        max(r.residual_analytic, r.residual_conjugate) for r in reports)


def test_norm_equality_reads_without_the_conjugate_quadrature():
    # the conjugate side's quadrature does not converge on these zeros; it used
    # to raise out of every intertwining report, so norm_equality, which needs
    # no quadrature, failed with it
    report = verify_space(ModelSpace(BlaschkeProduct((0.995,) * 16)), seed=2, trials=6)
    check = {c.name: c for c in report.checks}
    assert check["norm_equality"].passed, check["norm_equality"].note
    assert check["norm_equality"].trials == 6
    assert not check["crofoot_intertwining"].passed
    assert "still moving at 262144 points" in check["crofoot_intertwining"].note


def test_failed_conjugate_quadrature_fails_only_crofoot_intertwining(triple_space,
                                                                   monkeypatch):
    message = "symbol compression still moving at 262144 points"

    def refuse(space, values_fn):
        raise QuadratureError(message)

    monkeypatch.setattr(crofoot_clark, "build_refined", refuse)
    report = verify_space(triple_space, seed=3, trials=5)
    check = {c.name: c for c in report.checks}
    assert [c.name for c in report.failures] == ["crofoot_intertwining"]
    assert check["crofoot_intertwining"].note == f"error: {message}"
    assert check["norm_equality"].passed and check["norm_equality"].trials == 6


def test_clark_decompositions_built_once_per_run(triple_space, monkeypatch):
    # the seven Clark checks share max(2, trials // 4) decompositions; the only
    # other calls are the independent ones of classify_unitary, one per Clark
    # unitary that unitary_classification accepts (the stretched one is refused
    # before its type is read)
    alphas = []
    build = crofoot_clark.clark_data

    def counting(space, alpha):
        alphas.append(alpha)
        return build(space, alpha)

    monkeypatch.setattr(crofoot_clark, "clark_data", counting)
    report = verify_space(triple_space, seed=5, trials=12)
    assert report.passed
    assert len(alphas) == 3 + 3


def test_fraction_invertibility_solves_once_per_route(monkeypatch):
    # per trial: the check's own solve of u = alpha, which also screens the
    # candidates, and one inside each of the two invertibility_criterion calls
    calls = []
    solve = BlaschkeProduct.solve_equals

    def counting(self, alpha):
        calls.append(alpha)
        return solve(self, alpha)

    sp = ModelSpace(sample_blaschke(np.random.default_rng(16), 16))
    # the space's Clark frame, behind build_tto and the conjugation, solves once per space
    sp.conj_matrix
    monkeypatch.setattr(BlaschkeProduct, "solve_equals", counting)
    residual, trials, _, _ = _Verifier(sp, 0, 4).run("check_fraction_invertibility")
    assert (residual, trials) == (0.0, 4)
    assert len(calls) == 12


@pytest.mark.parametrize("radius", [0.98, 0.99])
def test_conjugate_kernel_formula_on_repeated_near_circle_zeros(radius):
    # the direct quotient (u(z) - u(lam))/(z - lam) lost digits at grid nodes
    # near lam and failed here (2.5e-10 and 3.0e-10 against 1e-10)
    report = verify_space(ModelSpace(BlaschkeProduct((radius,) * 16)), seed=0, trials=6)
    check = {c.name: c for c in report.checks}["conjugate_kernel_formula"]
    assert check.passed, check.max_residual


def test_difference_quotient_matches_direct_quotient():
    # at least 0.1 from lam the direct quotient loses nothing to cancellation
    rng = np.random.default_rng(11)
    products = [BlaschkeProduct((0j,) * 4), BlaschkeProduct((0.5, -0.3j), 1j),
                BlaschkeProduct((0.99,) * 16), sample_blaschke(rng, 16),
                sample_blaschke(rng, 64)]
    for u in products:
        for lam in (0j, 0.4 - 0.7j, np.exp(1.3j), 0.99):
            radii = np.concatenate([np.ones(300), 0.9 * rng.uniform(size=100)])
            z = radii * np.exp(2j * np.pi * rng.uniform(size=400))
            z = z[np.abs(z - lam) >= 0.1]
            direct = (u.evaluate(z) - u.evaluate(lam)) / (z - lam)
            gap = np.max(np.abs(u._difference_quotient(z, lam) - direct))
            assert gap <= 1e-13 * np.max(np.abs(direct))


def test_nan_residual_fails_its_check(monkeypatch):
    # max(0.0, nan) is 0.0, so both checks used to pass with max_residual 0.0
    monkeypatch.setattr(verify, "c_symmetry_residual", lambda space, operator: np.nan)
    monkeypatch.setattr(verify, "kernel_shift_identities", lambda space, lam: KernelShiftReport(
        lam, {"backward_kernel": 0.0, "forward_conjugate_kernel": np.nan}))
    report = verify_space(ModelSpace(sample_blaschke(np.random.default_rng(8), 8)),
                          seed=0, trials=4)
    assert not report.passed
    for name in ("c_symmetry", "kernel_shift_identities"):
        check = {c.name: c for c in report.checks}[name]
        assert not check.passed and np.isnan(check.max_residual)
        assert check.trials == 4
    assert '"max_residual": "nan"' in canonical_json(report.to_json())


def test_contradicting_trial_counts_once_and_reads_one(z2, monkeypatch):
    # the second classify_type call, in scalar_detection's second trial,
    # contradicts the theorem: the check stops there, with 2 trials run
    calls = []
    classify = classification.classify_type

    def wrong_second(space, operator):
        calls.append(operator)
        tag = classify(space, operator)
        return classification.TypeTag("alpha", 0.5) if len(calls) == 2 else tag

    monkeypatch.setattr(classification, "classify_type", wrong_second)
    check = {c.name: c for c in verify_space(z2, seed=0, trials=4).checks}["scalar_detection"]
    assert (check.passed, check.max_residual, check.trials) == (False, 1.0, 2)
    assert check.note == "c I classified alpha"


def test_contradicting_trial_fails_at_any_tol_scale(z2, monkeypatch):
    # a contradiction is a verdict, not a residual: no tol_scale can pass it
    calls = []
    classify = classification.classify_type

    def wrong_second(space, operator):
        calls.append(operator)
        tag = classify(space, operator)
        return classification.TypeTag("alpha", 0.5) if len(calls) == 2 else tag

    monkeypatch.setattr(classification, "classify_type", wrong_second)
    report = verify_space(z2, seed=0, trials=4, tol_scale=1e9)
    check = {c.name: c for c in report.checks}["scalar_detection"]
    assert (check.passed, check.max_residual, check.bound) == (False, 1.0, 10.0)
    assert not report.passed
