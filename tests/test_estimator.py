import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimaxkern.estimator import (EstimatorConfig, _window_indices, bandwidth,
                                   decompose, kernel_estimate, rate,
                                   sigma_n_limit_check, window_law)
from minimaxkern.model import (constant_fn, design_grid, flat_scale,
                               function_catalog, rng_from_seed, sample_run,
                               scale_catalog, scale_eval, scale_profile)
from minimaxkern.numerics import folded_normal_mean, window_sum
from minimaxkern.risk import default_family


class TestBandwidthAndRate:
    def test_known_values(self):
        assert bandwidth(100_000, 2.0) == pytest.approx(0.1, rel=1e-14)
        assert bandwidth(1, 1.5) == 1.0
        assert bandwidth(1024, 1.5) == pytest.approx(2.0 ** -2.5, rel=1e-14)

    def test_rate_values(self):
        assert rate(100_000, 2.0) == pytest.approx(100.0, rel=1e-14)
        assert rate(1, 2.0) == 1.0

    @given(st.integers(1, 10 ** 9), st.floats(1.01, 2.0))
    def test_rate_bandwidth_identity(self, n, beta):
        # n h = phi_n^2
        assert rate(n, beta) ** 2 == pytest.approx(n * bandwidth(n, beta), rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bandwidth(0, 2.0)
        with pytest.raises(ValueError):
            rate(10, 1.0)
        with pytest.raises(ValueError):
            rate(10, 2.5)


class TestEstimatorConfig:
    def test_wide_window_n5(self):
        cfg = EstimatorConfig(n=5, beta=2.0, z0=0.5)
        assert (cfg.k_lo, cfg.k_hi, cfg.q_n) == (1, 5, 5)

    def test_rejects_non_integer_n(self):
        # n = 1000.5 used to build a window with q_n = 503
        with pytest.raises(ValueError, match="n must be >= 1 and an integer"):
            EstimatorConfig(n=1000.5, beta=2.0, z0=0.5)
        assert (EstimatorConfig(n=np.int64(1000), beta=2.0, z0=0.5)
                == EstimatorConfig(n=1000, beta=2.0, z0=0.5))

    def test_window_count_1e5(self, cfg_1e5):
        assert cfg_1e5.q_n == 20_001
        assert (cfg_1e5.k_lo, cfg_1e5.k_hi) == (40_000, 60_000)

    def test_derived_identity(self):
        # phi_n^2 = n h (not phi_n^2 h = n), up to the membership threshold
        for beta in (2.0, 1.7, 1.5, 1.01):
            for n in (37, 1000, 123_457, 10 ** 6, 188_061_091_002):
                cfg = EstimatorConfig(n=n, beta=beta, z0=0.31)
                assert cfg.phi_n ** 2 == pytest.approx(n * cfg.h, rel=1e-12)

    def test_window_count_approaches_2nh(self):
        # |q_n/(n h) - 2| <= 3/(n h) once the window fits inside [0, 1]
        for n in (500, 2_000, 31_627, 100_000):
            for z0 in (0.5, 0.3141592653589793, 0.77):
                cfg = EstimatorConfig(n=n, beta=2.0, z0=z0)
                if cfg.h > min(z0, 1.0 - z0):
                    continue
                nh = n * cfg.h
                assert abs(cfg.q_n / nh - 2.0) <= 3.0 / nh

    @pytest.mark.parametrize("z0", [0.5, 0.3, 0.123])
    @pytest.mark.parametrize("beta", [2.0, 1.5])
    def test_window_indices_match_full_scan(self, z0, beta):
        """The O(1) search returns the ends that a scan of every candidate
        index with the same predicate finds."""
        def full_scan(n, z0, h):
            lo = max(1, int(math.floor(n * (z0 - h))) - 1)
            hi = min(n, int(math.ceil(n * (z0 + h))) + 1)
            ks = np.arange(lo, hi + 1)
            inside = ks[np.abs(ks / n - z0) <= h]
            return int(inside[0]), int(inside[-1])

        rng = np.random.default_rng(20_07)
        ns = [*rng.integers(1, 10 ** 6, 500), *range(10, 200),
              *np.geomspace(200, 10 ** 7, 100).astype(int)]
        for n in map(int, ns):
            h = bandwidth(n, beta)
            assert _window_indices(n, z0, h) == full_scan(n, z0, h), n

    def test_builds_at_membership_threshold_in_bounded_memory(self):
        n = 188_061_091_002  # criterion 6's n* for the nu = 0.1 bump
        tracemalloc.start()
        try:
            cfg = EstimatorConfig(n=n, beta=2.0, z0=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert abs(cfg.q_n / (n * cfg.h) - 2.0) <= 3.0 / (n * cfg.h)
        assert abs(cfg.k_lo / n - 0.5) <= cfg.h < abs((cfg.k_lo - 1) / n - 0.5)
        assert abs(cfg.k_hi / n - 0.5) <= cfg.h < abs((cfg.k_hi + 1) / n - 0.5)

    def test_rejects_boundary_z0(self):
        with pytest.raises(ValueError):
            EstimatorConfig(n=100, beta=2.0, z0=0.0)


# 0 or a magnitude in [1e-6, 1e3], of either sign
_COEFFICIENTS = st.one_of(st.just(0.0), st.floats(1e-6, 1e3),
                          st.floats(-1e3, -1e-6))


class TestKernelEstimate:
    def test_plain_average_when_window_covers_all(self):
        cfg = EstimatorConfig(n=5, beta=2.0, z0=0.5)
        assert cfg.q_n == 5
        assert kernel_estimate(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), cfg) == 3.0

    def test_constant_observations(self, cfg_1e5):
        y = np.full(cfg_1e5.n, 0.7)
        est = kernel_estimate(y, cfg_1e5)
        assert est == pytest.approx(0.7, rel=1e-15)

    @given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_linearity(self, a, b):
        cfg = EstimatorConfig(n=200, beta=2.0, z0=0.5)
        rng = rng_from_seed(5)
        y = rng.standard_normal(200)
        lhs = kernel_estimate(a * y + b, cfg)
        rhs = a * kernel_estimate(y, cfg) + b
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(n=st.integers(5, 2_000), seed=st.integers(0, 2 ** 32 - 1),
           a=_COEFFICIENTS, b=_COEFFICIENTS)
    def test_linear_in_observations(self, n, seed, a, b):
        # With u = 2^-53 and M = (|a| sum|y1| + |b| sum|y2|) / q_n over the
        # window, each side lies within ((1 + u)^4 - 1) M of the exact
        # (a sum y1 + b sum y2) / q_n:
        # - left: rounding a y1_k, b y2_k and their sum moves each term by
        #   at most ((1 + u)^2 - 1)(|a y1_k| + |b y2_k|); the exactly
        #   rounded window_sum and the division add a factor (1 + u)^2;
        # - right: each term carries its window_sum, division, product and
        #   the final addition, a factor (1 + u)^4.
        # Coefficients are 0 or at least 1e-6 in size, so nothing underflows.
        cfg = EstimatorConfig(n=n, beta=2.0, z0=0.5)
        rng = rng_from_seed(seed)
        y1 = rng.standard_normal(n)
        y2 = rng.standard_normal(n) + 2.0
        q = cfg.q_n
        lhs = kernel_estimate(a * y1 + b * y2, cfg)
        rhs = a * kernel_estimate(y1, cfg) + b * kernel_estimate(y2, cfg)
        u = Fraction(1, 2 ** 53)
        window = cfg.window_slice
        m = (abs(Fraction(a)) * sum(map(Fraction, np.abs(y1[window])))
             + abs(Fraction(b)) * sum(map(Fraction, np.abs(y2[window])))) / q
        assert abs(Fraction(lhs) - Fraction(rhs)) <= 2 * ((1 + u) ** 4 - 1) * m

    def test_shape_mismatch_rejected(self, cfg_1e5):
        with pytest.raises(ValueError):
            kernel_estimate(np.zeros(10), cfg_1e5)


class TestDecomposition:
    def test_constant_curve_all_zero(self, mixed_scale):
        cfg = EstimatorConfig(n=2_000, beta=2.0, z0=0.5)
        dec = decompose(constant_fn(0.3), mixed_scale, cfg)
        assert dec.b_n == 0.0
        assert dec.integral_term == 0.0
        assert dec.r_n == 0.0

    def test_constant_scale_gives_exact_variance(self):
        cfg = EstimatorConfig(n=2_000, beta=2.0, z0=0.5)
        dec = decompose(function_catalog()["sine"], flat_scale(1.7), cfg)
        assert dec.law.sigma_n_sq == pytest.approx(1.7 ** 2, rel=1e-14)

    def test_bias_splits_into_integral_plus_gap(self, mixed_scale,
                                                fixed_curves):
        # B_n = (phi^2/q)(integral + R_n) holds by construction of R_n
        cfg = EstimatorConfig(n=5_000, beta=1.8, z0=0.4)
        for label in ("sine", "bowl", "cos_dip"):
            dec = decompose(fixed_curves(0.4)[label], mixed_scale, cfg)
            recon = cfg.phi_n ** 2 / cfg.q_n * (dec.integral_term + dec.r_n)
            assert dec.b_n == pytest.approx(recon, abs=1e-10)

    def test_odd_curve_integral_vanishes(self, mixed_scale, fixed_curves):
        cfg = EstimatorConfig(n=10_000, beta=2.0, z0=0.5)
        dec = decompose(fixed_curves(0.5)["odd_cubic"], mixed_scale, cfg)
        assert abs(dec.integral_term) < 1e-12
        # bias then reduces to the Riemann gap
        assert dec.b_n == pytest.approx(cfg.phi_n ** 2 / cfg.q_n * dec.r_n, abs=1e-12)

    def test_known_draws_reconstruct_estimate(self, mixed_scale, gaussian):
        cfg = EstimatorConfig(n=4_000, beta=2.0, z0=0.5)
        S = function_catalog()["sine"]
        seed = 314
        y = sample_run(S, mixed_scale, gaussian, cfg.n, seed)
        xi = rng_from_seed(seed).standard_normal(cfg.n)
        dec = decompose(S, mixed_scale, cfg)
        # estimate - S(z0) - B_n equals the pure-noise window average
        g_w = scale_profile(mixed_scale, cfg.window_x, S)
        noise_avg = float(np.sum(g_w * xi[cfg.window_slice])) / cfg.q_n
        s0 = float(np.asarray(S.eval(0.5)))
        assert (kernel_estimate(y, cfg) - s0 - dec.b_n
                == pytest.approx(noise_avg, abs=1e-12))

    @pytest.mark.parametrize("n", [1_000, 100_000])
    @pytest.mark.parametrize("scale", [*scale_catalog().values(), flat_scale()],
                             ids=[*scale_catalog(), "flat"])
    def test_carries_scale_profile(self, fixed_curves, n, scale):
        # g(z0, S) and the window profile are exactly what scale_eval and
        # scale_profile give, so the risk layer can read them from here
        cfg = EstimatorConfig(n=n, beta=2.0, z0=0.5)
        curves = [*default_family(cfg, 0.1),
                  *fixed_curves(0.5).values()]
        for S in curves:
            dec = decompose(S, scale, cfg)
            assert dec.law.g0 == scale_eval(scale, cfg.z0, S), S.label
            assert np.all(dec.law.g_window
                          == scale_profile(scale, cfg.window_x, S)), S.label

    @given(n=st.integers(10, 200_000), z0=st.floats(0.2, 0.8),
           beta=st.floats(1.05, 2.0), curve=st.integers(0, 14),
           scale=st.sampled_from([*scale_catalog().values(), flat_scale(),
                                  flat_scale(1.7)]),
           seed=st.integers(0, 2 ** 63 - 1))
    @settings(max_examples=150)
    def test_one_window_reconstructs_sampled_estimate(
            self, fixed_curves, gaussian, n, z0, beta, curve, scale, seed):
        # the window law and kernel_estimate read one window: the sampled
        # run's estimate is bitwise the window sum of S + g xi over it
        cfg = EstimatorConfig(n=n, beta=beta, z0=z0)
        curves = [*default_family(cfg, 0.1),
                  *fixed_curves(z0).values()]
        S = curves[curve]
        xi = gaussian.sampler(rng_from_seed(seed), n)
        y = sample_run(S, scale, gaussian, n, seed)
        law = window_law(S, scale, cfg)
        y_w = S.eval(cfg.window_x) + law.g_window * xi[cfg.window_slice]
        assert kernel_estimate(y, cfg) == window_sum(y_w) / cfg.q_n
        assert np.array_equal(cfg.window_x, design_grid(n)[cfg.window_slice])

    def test_riemann_gap_bound_on_certified_family(self, certified_family):
        # |R_n| <= 6/(delta n) whenever sup|S'| <= 1/delta
        delta = 0.1
        for n in (1_000, 10_000):
            cfg = EstimatorConfig(n=n, beta=2.0, z0=0.5)
            fam = certified_family(0.5, delta, 2.0, n=n, count=10)
            for S in fam:
                dec = decompose(S, flat_scale(), cfg)
                assert abs(dec.r_n) <= 6.0 / (delta * n)

    def test_integral_term_bounded_by_class_budget(self, certified_family):
        # certified members satisfy |integral| <= delta h^beta at the
        # operating bandwidth
        delta, beta = 0.1, 2.0
        cfg = EstimatorConfig(n=10_000, beta=beta, z0=0.5)
        fam = certified_family(0.5, delta, beta, n=cfg.n, count=10)
        for S in fam:
            dec = decompose(S, flat_scale(), cfg)
            assert abs(dec.integral_term) <= delta * cfg.h ** beta + 1e-12


class TestWindowLaw:
    @pytest.mark.parametrize("n", [1_000, 100_000])
    @pytest.mark.parametrize("scale_name", ["mixed", "flat"])
    def test_matches_direct_expressions(self, mixed_scale, n, scale_name):
        # sigma_n^2 and the Gaussian oracle are bitwise the expressions the
        # risk layer wrote out before the law owned them
        scale = mixed_scale if scale_name == "mixed" else flat_scale()
        cfg = EstimatorConfig(n=n, beta=2.0, z0=0.5)
        for S in default_family(cfg, 0.1):
            dec = decompose(S, scale, cfg)
            g_w = scale_profile(scale, cfg.window_x, S)
            g0 = scale_eval(scale, cfg.z0, S)
            sigma_n_sq = window_sum(g_w ** 2) / cfg.q_n
            oracle = cfg.phi_n * folded_normal_mean(
                dec.b_n, math.sqrt(sigma_n_sq / cfg.q_n)) / g0
            assert dec.law.sigma_n_sq == sigma_n_sq, S.label
            assert dec.law.gaussian_abs_mean(dec.b_n) == oracle, S.label

    @given(n=st.integers(10, 20_000), t=st.floats(-8.0, 8.0),
           u=st.floats(-8.0, 8.0),
           scale=st.sampled_from([*scale_catalog().values(), flat_scale()]))
    def test_oracle_even_and_nondecreasing_in_abs_bias(self, n, t, u, scale):
        # t and u are biases in units of the error's standard deviation;
        # monotone up to a few ulps of rounding
        cfg = EstimatorConfig(n=n, beta=2.0, z0=0.5)
        law = window_law(function_catalog()["sine"], scale, cfg)
        s = math.sqrt(law.sigma_n_sq / cfg.q_n)
        lo, hi = sorted((abs(t) * s, abs(u) * s))
        assert law.gaussian_abs_mean(-t * s) == law.gaussian_abs_mean(t * s)
        assert law.gaussian_abs_mean(lo) <= law.gaussian_abs_mean(hi) * (
            1.0 + 4.0 * np.finfo(float).eps)


class TestVarianceLimit:
    def test_constant_scale_zero_gaps(self):
        rows = sigma_n_limit_check(constant_fn(0.1), flat_scale(), 0.5, 2.0,
                                   [100, 10_000])
        assert all(r.abs_gap == pytest.approx(0.0, abs=1e-14) for r in rows)

    def test_gap_shrinks_with_n(self, mixed_scale):
        S = constant_fn(0.2)
        # mixed scale with an asymmetric point keeps the gap nonzero
        rows = sigma_n_limit_check(S, mixed_scale, 0.3141592653589793, 2.0,
                                   [1_000, 1_000_000])
        assert rows[-1].abs_gap < rows[0].abs_gap

    def test_curved_scale_gap_small_at_large_n(self):
        S = function_catalog()["sine"]
        for scale in scale_catalog().values():
            rows = sigma_n_limit_check(S, scale, 0.5, 2.0, [1_000, 1_000_000])
            from minimaxkern.model import scale_eval
            g0_sq = scale_eval(scale, 0.5, S) ** 2
            assert rows[-1].abs_gap < 1e-2 * g0_sq
            assert rows[-1].abs_gap < rows[0].abs_gap

    def test_rows_carry_g_sq_z0(self, mixed_scale):
        S = function_catalog()["sine"]
        rows = sigma_n_limit_check(S, mixed_scale, 0.5, 2.0, [1_000, 10_000])
        g0_sq = scale_eval(mixed_scale, 0.5, S) ** 2
        assert all(r.g_sq_z0 == g0_sq for r in rows)
        assert all(r.abs_gap == abs(r.sigma_n_sq - g0_sq) for r in rows)

    @pytest.mark.parametrize("ns", [[1000, 100], [1000, 1000]])
    def test_rejects_decreasing_sequence(self, mixed_scale, ns):
        with pytest.raises(ValueError, match="n_sequence must be increasing"):
            sigma_n_limit_check(constant_fn(0.0), mixed_scale, 0.5, 2.0, ns)

    def test_rejects_non_integral_n(self, mixed_scale):
        # checked by the one sample-size rule, not truncated to 1000, 2000
        with pytest.raises(ValueError, match="n must be >= 1 and an integer"):
            sigma_n_limit_check(constant_fn(0.0), mixed_scale, 0.5, 2.0,
                                [1000.5, 2000.9])

    def test_matches_decompose(self, mixed_scale):
        S = function_catalog()["sine"]
        rows = sigma_n_limit_check(S, mixed_scale, 0.5, 2.0, [3_000, 30_000])
        for r in rows:
            dec = decompose(S, mixed_scale, EstimatorConfig(n=r.n, beta=2.0,
                                                            z0=0.5))
            assert r.sigma_n_sq == dec.law.sigma_n_sq
            assert r.g_sq_z0 == dec.law.g0 ** 2
