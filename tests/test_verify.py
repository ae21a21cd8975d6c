import json

import numpy as np
import pytest

from ttolab import BlaschkeProduct, ModelSpace, crofoot_clark, verify_space


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
    # norm_equality computes only the norm gap; on the same transforms and
    # polynomials it must equal the norm_gap of the full intertwining check
    seen = []
    norm_gap = crofoot_clark.crofoot_norm_gap

    def recording(transform, phi):
        seen.append((transform, np.array(phi)))
        return norm_gap(transform, phi)

    monkeypatch.setattr(crofoot_clark, "crofoot_norm_gap", recording)
    report = verify_space(triple_space, seed=5, trials=20)
    residual = {c.name: c.max_residual for c in report.checks}["norm_equality"]
    assert len(seen) == 3 * 2
    assert residual == max(crofoot_clark.crofoot_intertwine_check(ct, coeffs).norm_gap
                           for ct, coeffs in seen)
