import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtr
from scipy.stats import kstest

from minimaxkern.numerics import (composite_simpson, ks_statistic,
                                 normal_cdf, window_sum)


class TestCompositeSimpson:
    def test_polynomial_exact(self):
        # Simpson is exact on cubics
        val = composite_simpson(lambda x: x ** 3 - 2 * x, 0.0, 2.0, 4)
        assert val == pytest.approx(4.0 - 4.0, abs=1e-14)

    def test_sin_integral(self):
        val = composite_simpson(np.sin, 0.0, math.pi, 2048)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_rejects_bad_panels(self):
        with pytest.raises(ValueError):
            composite_simpson(np.sin, 0.0, 1.0, 0)

    def test_scalar_integrand_broadcast(self):
        val = composite_simpson(lambda x: 1.0, 0.0, 3.0, 8)
        assert val == pytest.approx(3.0, abs=1e-14)

    def test_one_dimensional_rule_bitwise(self):
        # the 1-D rule as a plain sum of endpoint, odd and even nodes
        for f, a, b, panels in ((np.sin, 0.0, math.pi, 2048),
                                (np.exp, -1.0, 0.5, 4096),
                                (lambda x: np.cos(7.0 * x) * x ** 2, -1.0, 1.0, 31)):
            x = np.linspace(a, b, 2 * panels + 1)
            y = f(x)
            total = y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2])
            want = float(total * ((b - a) / (2 * panels)) / 3.0)
            got = composite_simpson(f, a, b, panels)
            assert type(got) is float and got == want

    def test_integrates_along_last_axis(self):
        """A (rows, nodes) integrand gives each row's 1-D integral exactly."""
        scales = np.array([0.3, -1.7, 2.5, 1e-3, 0.0])

        def rows(x):
            return np.cos(scales[:, None] * x) + scales[:, None] * x ** 2

        got = composite_simpson(rows, -1.0, 1.0, 4096)
        assert got.shape == scales.shape
        for c, value in zip(scales, got.tolist()):
            want = composite_simpson(lambda x: np.cos(c * x) + c * x ** 2,
                                     -1.0, 1.0, 4096)
            assert value == want

    def test_row_broadcast_integrand(self):
        got = composite_simpson(lambda x: np.array([[1.0], [2.0]]), 0.0, 3.0, 8)
        assert got.tolist() == [3.0, 6.0]


class TestWindowSum:
    def test_matches_fsum_on_hard_case(self):
        # values engineered to lose bits under naive accumulation
        vals = np.array([1e16, 1.0, -1e16, 1.0] * 100)
        assert window_sum(vals) == 200.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    def test_close_to_numpy(self, vals):
        assert window_sum(vals) == pytest.approx(float(np.sum(vals)), abs=1e-6)


class TestNormalCdf:
    def test_matches_scipy_ndtr(self):
        x = np.linspace(-8.0, 8.0, 20001)
        assert np.max(np.abs(normal_cdf(x) - ndtr(x))) <= 2.3e-16


class TestKsStatistic:
    def test_matches_scipy_on_normal_sample(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500)
        ours = ks_statistic(x, ndtr)
        ref = kstest(x, "norm").statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_matches_scipy_with_ties(self):
        x = np.array([0.0, 0.0, 0.5, 0.5, 0.5, -1.0])
        ours = ks_statistic(x, ndtr)
        ref = kstest(x, "norm").statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([]), ndtr)
