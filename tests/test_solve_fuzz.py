"""Property-based layer over the fixed solve_equals cases.

Zero multisets mix exact repeats, tight clusters and moduli up to 0.995, of
degree at most 24; alpha ranges over the closed disc, the circle included.
Examples are derandomized, so the suite stays deterministic.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ttolab import BlaschkeProduct  # noqa: E402

unit = st.floats(0.0, 1.0)


@st.composite
def zero_multisets(draw):
    zeros = []
    for _ in range(draw(st.integers(1, 6))):
        centre = 0.995 * draw(unit) * np.exp(2j * np.pi * draw(unit))
        spread = draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.05]))
        for _ in range(draw(st.integers(1, 8))):
            z = centre + spread * np.exp(2j * np.pi * draw(unit))
            zeros.append(min(abs(z), 0.995) * np.exp(1j * np.angle(z)))
    return tuple(zeros[:24])


alphas = st.builds(lambda r, t: r * np.exp(2j * np.pi * t),
                   st.one_of(st.just(1.0), st.just(0.0), unit), unit)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(zeros=zero_multisets(), alpha=alphas)
def test_solve_equals_fuzz(zeros, alpha):
    u = BlaschkeProduct(zeros)
    roots = u.solve_equals(alpha)
    assert roots.shape == (len(zeros),)
    assert np.max(np.abs(u.evaluate(roots) - alpha)) <= 1e-12
    if abs(alpha) == 1.0:
        assert np.max(np.abs(np.abs(roots) - 1.0)) <= 1e-12
