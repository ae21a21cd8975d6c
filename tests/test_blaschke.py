import functools
import json

import numpy as np
import pytest

from conftest import STRESS_FAMILIES
from ttolab import BlaschkeProduct, PoleHit, RationalPair


def test_evaluate_monomial():
    u = BlaschkeProduct((0.0, 0.0))
    assert u.evaluate(0.5) == pytest.approx(0.25)
    assert u.evaluate(1j) == pytest.approx(-1.0)


def test_evaluate_single_factor():
    u = BlaschkeProduct((0.5,))
    # (z - 0.5) / (1 - 0.5 z) at z = 0
    assert u.evaluate(0.0) == pytest.approx(-0.5)
    assert u.evaluate(0.5) == pytest.approx(0.0)


def test_value_at_zero_is_evaluate_at_zero():
    # the cached u(0) is the same call, so it agrees to the last bit
    u = BlaschkeProduct((0.4, -0.2 + 0.3j, 0.99), rotation=1j)
    assert u.value_at_zero == u.evaluate(0.0)
    assert "value_at_zero" in vars(u)


def test_evaluate_vectorized_matches_scalar():
    u = BlaschkeProduct((0.4, -0.2 + 0.3j), rotation=1j)
    pts = np.array([0.1, 0.5j, -0.3 + 0.2j, 0.9])
    vec = u.evaluate(pts)
    for p, v in zip(pts, vec):
        assert u.evaluate(complex(p)) == pytest.approx(v)


def test_boundary_modulus_is_one():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = rng.integers(1, 7)
        zeros = 0.8 * rng.uniform(0, 1, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        u = BlaschkeProduct(tuple(zeros))
        theta = rng.uniform(0, 2 * np.pi, 64)
        vals = u.evaluate(np.exp(1j * theta))
        assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12


def test_degree():
    assert BlaschkeProduct((0.0,)).degree == 1
    assert BlaschkeProduct((0.1, 0.2, 0.3)).degree == 3


def test_derivative_against_central_difference():
    rng = np.random.default_rng(11)
    for zeros in [(0.5,), (0.0, 0.0), (0.5, 0.5, -0.2), tuple(0.6 * rng.standard_normal(4) / 3)]:
        u = BlaschkeProduct(zeros)
        for _ in range(5):
            z = 0.7 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            h = 1e-6
            fd = (u.evaluate(z + h) - u.evaluate(z - h)) / (2 * h)
            assert u.derivative(z) == pytest.approx(fd, abs=1e-7)


def test_derivative_single_zero_closed_form():
    # ((z - a)/(1 - a z))' = (1 - a^2) / (1 - a z)^2 for real a
    u = BlaschkeProduct((0.5,))
    assert u.derivative(0.0) == pytest.approx(0.75)
    assert u.derivative(0.5) == pytest.approx((1 - 0.25) / (1 - 0.25) ** 2)


def test_boundary_derivative_modulus_formula():
    # for zeta on the circle, |u'(zeta)| = sum_k (1-|a_k|^2)/|zeta-a_k|^2
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = rng.integers(1, 6)
        zeros = 0.75 * rng.uniform(0, 1, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        u = BlaschkeProduct(tuple(zeros))
        zeta = np.exp(2j * np.pi * rng.uniform())
        expected = sum((1 - abs(a) ** 2) / abs(zeta - a) ** 2 for a in zeros)
        assert abs(u.derivative(zeta)) == pytest.approx(expected, rel=1e-10)


def test_pole_hit_outside_disc():
    # the extension of u to |z| > 1 has a pole at 1/conj(a)
    u = BlaschkeProduct((0.5,))
    with pytest.raises(PoleHit):
        u.evaluate(2.0)


def test_solve_equals_monomial():
    u = BlaschkeProduct((0.0, 0.0))
    roots = np.sort_complex(u.solve_equals(0.25))
    assert np.allclose(roots, [-0.5, 0.5], atol=1e-12)


def test_solve_equals_zero_returns_zeros():
    u = BlaschkeProduct((0.5, -0.3j))
    roots = np.asarray(u.solve_equals(0.0))
    target = np.sort_complex(np.array([0.5, -0.3j]))
    assert np.allclose(np.sort_complex(roots), target, atol=1e-12)


def test_solve_equals_unimodular_roots_on_circle():
    u = BlaschkeProduct((0.5, 0.5, -0.2))
    roots = np.asarray(u.solve_equals(np.exp(0.7j)))
    assert roots.shape == (3,)
    assert np.max(np.abs(np.abs(roots) - 1.0)) < 1e-10
    assert np.allclose(u.evaluate(roots), np.exp(0.7j), atol=1e-10)


def test_solve_equals_deterministic():
    u = BlaschkeProduct((0.3, -0.4j, 0.2 + 0.5j))
    a = np.asarray(u.solve_equals(0.1 + 0.2j))
    b = np.asarray(u.solve_equals(0.1 + 0.2j))
    assert np.array_equal(a, b)


def test_zero_near_boundary_rejected():
    with pytest.raises(ValueError):
        BlaschkeProduct((1.0,))
    with pytest.raises(ValueError):
        BlaschkeProduct((0.5, 1 - 1e-13))


@pytest.mark.parametrize("zeros, rotation", [
    ((float("nan"),), 1.0),
    ((0.5, complex(0.0, float("nan"))), 1.0),
    ((float("inf"),), 1.0),
    ((0.5,), float("nan")),
], ids=["nan zero", "nan imaginary part", "infinite zero", "nan rotation"])
def test_non_finite_input_rejected(zeros, rotation):
    with pytest.raises(ValueError):
        BlaschkeProduct(zeros, rotation)


def test_empty_zeros_rejected():
    with pytest.raises(ValueError):
        BlaschkeProduct(())


def test_rotation_must_be_unimodular():
    with pytest.raises(ValueError):
        BlaschkeProduct((0.5,), rotation=2.0)
    with pytest.raises(ValueError):
        BlaschkeProduct((0.5,), rotation=0)
    # a phase is fine and survives exactly
    u = BlaschkeProduct((0.5,), rotation=1j)
    assert u.rotation == 1j


def test_json_round_trip():
    u = BlaschkeProduct((0.5, -0.3j), rotation=np.exp(0.2j))
    v = BlaschkeProduct.from_json(json.loads(json.dumps(u.to_json())))
    assert v.zeros == u.zeros
    assert v.rotation == pytest.approx(u.rotation)


def test_rational_pair_json_round_trip():
    # (z - 0.2)(z + 0.1i) / ((1 - 0.2 z)(1 - 0.1i z))
    pair = RationalPair((-0.02j, -0.2 + 0.1j, 1 + 0j), (1 + 0j, -0.2 - 0.1j, 0.02j))
    back = RationalPair.from_json(json.loads(json.dumps(pair.to_json())))
    assert np.allclose(np.asarray(back.numerator), np.asarray(pair.numerator))
    assert np.allclose(np.asarray(back.denominator), np.asarray(pair.denominator))


@pytest.mark.parametrize("numerator, denominator", [
    ((complex(float("nan"), 0.0),), (1 + 0j,)),
    ((1 + 0j,), (complex(float("inf"), 0.0), 1 + 0j)),
    ((1 + 0j,), (1 + 0j, complex(0.0, float("nan")))),
], ids=["nan numerator", "infinite denominator", "nan imaginary part"])
def test_rational_pair_non_finite_rejected(numerator, denominator):
    with pytest.raises(ValueError, match="finite"):
        RationalPair(numerator, denominator)


def _derivative_loop(u, pts):
    """u' from leave-one-out products built one factor at a time (prefix and suffix).

    Also returns sum_k |term_k|, the scale of the rounding of the sum: where the
    terms cancel (inside the disc near the circle, u' is far below its terms)
    no summation order agrees with another to a relative precision of u' itself.
    """
    a = np.asarray(u.zeros)
    n = a.size
    den = 1.0 - np.conj(a) * pts[:, None]
    factors = (pts[:, None] - a) / den
    pre = np.ones_like(factors)
    suf = np.ones_like(factors)
    for k in range(1, n):
        pre[:, k] = pre[:, k - 1] * factors[:, k - 1]
        suf[:, n - 1 - k] = suf[:, n - k] * factors[:, n - k]
    terms = (1.0 - np.abs(a) ** 2) / den**2 * pre * suf
    return u.rotation * np.sum(terms, axis=-1), np.sum(np.abs(terms), axis=-1)


def test_derivative_matches_leave_one_out_loop(stress_family, stress_spaces):
    u = stress_spaces[stress_family].u
    rng = np.random.default_rng(u.degree)
    radius = np.where(np.arange(64) % 2 == 0, 1.0, 0.95 * rng.random(64))
    # the zeros of u, where the logarithmic form fails, and the repeated ones
    pts = np.concatenate([radius * np.exp(2j * np.pi * rng.random(64)), u.zeros])
    ref, scale = _derivative_loop(u, pts)
    got = u.derivative(pts)
    assert np.all(np.abs(got - ref) <= 1e-14 * scale)
    if len(set(u.zeros)) < u.degree:  # u' vanishes exactly at a repeated zero
        assert np.all(got[-u.degree:] == 0.0)


def _count_phase_tables(monkeypatch) -> list:
    """Record each build of BlaschkeProduct._phase_table from here on."""
    original = BlaschkeProduct.__dict__["_phase_table"].func
    built = []

    def counted(self):
        built.append(self)
        return original(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(BlaschkeProduct, "_phase_table")
    monkeypatch.setattr(BlaschkeProduct, "_phase_table", prop)
    return built


@pytest.mark.parametrize("family", ["random 128", "near circle 0.995 x8"])
@pytest.mark.parametrize("alpha", [np.exp(0.7j), 0.3 + 0.2j], ids=["unimodular", "interior"])
def test_phase_table_is_built_once_per_product(monkeypatch, family, alpha):
    built = _count_phase_tables(monkeypatch)
    u = BlaschkeProduct(STRESS_FAMILIES[family].zeros)
    first = u.solve_equals(alpha)
    assert len(built) == 1
    assert np.array_equal(u.solve_equals(alpha), first)
    assert len(built) == 1
    phase, nodes, table, slope = u._phase_table
    assert not any(arr.flags.writeable for arr in (nodes, table, slope))
    # the cached table gives the roots of a product that builds its own
    assert np.array_equal(BlaschkeProduct(u.zeros).solve_equals(alpha), first)
    assert len(built) == 2
