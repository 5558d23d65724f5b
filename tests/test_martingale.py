import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm, t

from minimaxkern import martingale
from minimaxkern.estimator import EstimatorConfig, window_law
from minimaxkern.martingale import (_split_terms, normal_approx_check,
                                    tail_second_moment,
                                    truncated_mean, truncated_variance,
                                    truncation_report, truncation_split,
                                    zeta_dd_moment_check)
from minimaxkern.model import (constant_fn, flat_scale, get_noise,
                               noise_catalog, scale_catalog, scale_eval,
                               scale_profile)
from minimaxkern.risk import default_family

ALL_NOISES = sorted(noise_catalog())


class TestTailSecondMoment:
    def test_rademacher_outside_support(self):
        assert tail_second_moment(get_noise("rademacher"), 2.0) == 0.0

    def test_rademacher_inside_support(self):
        assert tail_second_moment(get_noise("rademacher"), 0.5) == 1.0

    def test_gaussian_closed_form(self):
        # E[X^2 1{|X|>2}] = 2 (2 phi(2) + 1 - Phi(2))
        val = tail_second_moment(get_noise("gaussian"), 2.0)
        assert val == pytest.approx(0.261464, abs=1e-6)

    def test_gaussian_matches_quadrature(self):
        noise = get_noise("gaussian")
        for a in (0.5, 1.5, 3.0):
            ref = 2.0 * quad(lambda x: x * x * float(noise.density(x)),
                             a, np.inf)[0]
            assert tail_second_moment(noise, a) == pytest.approx(ref, abs=1e-10)

    def test_gaussian_far_tail_relative(self):
        # past a ~ 8.2, 1 - Phi(a) rounds to 0; only a relative check sees it
        noise = get_noise("gaussian")
        for a in (8.0, 12.0):
            ref = 2.0 * (a * norm.pdf(a) + norm.sf(a))
            val = tail_second_moment(noise, a)
            assert val == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_uniform_closed_form(self):
        noise = get_noise("uniform_std")
        # full mass below sqrt(3)
        assert tail_second_moment(noise, math.sqrt(3.0)) == 0.0
        ref = 2.0 * quad(lambda x: x * x * float(noise.density(x)),
                         1.0, math.sqrt(3.0))[0]
        assert tail_second_moment(noise, 1.0) == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("label", ALL_NOISES)
    def test_monotone_decay(self, label):
        noise = get_noise(label)
        vals = [tail_second_moment(noise, a) for a in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(x >= y for x, y in zip(vals, vals[1:]))
        # heavy student tail decays like a^-3, so only demand dominance
        assert vals[-1] < 1e-2

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            tail_second_moment(get_noise("gaussian"), 0.0)

    @pytest.mark.parametrize("moment", [tail_second_moment, truncated_mean,
                                        truncated_variance])
    @pytest.mark.parametrize("label", ALL_NOISES)
    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_threshold_rule_fails_closed(self, moment, label, a):
        # NaN used to pass the `a <= 0` check (Gaussian K_p gave nan,
        # Rademacher's truncated mean 0.0), and a = inf gave nan
        with pytest.raises(ValueError, match="a must be positive and finite"):
            moment(get_noise(label), a)


# thresholds from below the unit scale to far past n = 1e5 (a = 11.89) and
# the n at which the Student-t(5) tail first drops below 1e-3 (a = 20.57)
CLOSED_FORM_THRESHOLDS = [0.5, 2.0, 11.89, 20.57, 40.0]
SYMMETRIC_CONTINUOUS = ["gaussian", "laplace_std", "student5_std", "uniform_std"]
# (a, K_p(a)) for Rademacher, on both sides of its atoms and at n = 1e5
RADEMACHER_TAILS = [(0.5, 1.0), (math.nextafter(1.0, 0.0), 1.0), (1.0, 0.0),
                    (math.nextafter(1.0, 2.0), 0.0), (2.0, 0.0), (11.89, 0.0)]


class TestClosedFormMoments:
    @pytest.mark.parametrize("a", CLOSED_FORM_THRESHOLDS)
    def test_laplace_matches_quadrature(self, a):
        noise = get_noise("laplace_std")
        ref = 2.0 * quad(lambda x: x * x * float(noise.density(x)), a, np.inf,
                         epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert tail_second_moment(noise, a) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("a", CLOSED_FORM_THRESHOLDS)
    def test_student5_matches_scipy_t(self, a):
        # x^2 f(x) = 4 f_t3(x) - 3 f(x) for the unit-variance t(5) density f
        ref = 8.0 * t.sf(a, 3) - 6.0 * t.sf(a * math.sqrt(5.0 / 3.0), 5)
        val = tail_second_moment(get_noise("student5_std"), a)
        assert val == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("label", SYMMETRIC_CONTINUOUS)
    def test_truncated_mean_exactly_zero(self, label):
        noise = get_noise(label)
        assert all(truncated_mean(noise, a) == 0.0
                   for a in CLOSED_FORM_THRESHOLDS)

    @pytest.mark.parametrize("a,rademacher_k_p", RADEMACHER_TAILS)
    def test_atomic_closed_forms_pinned(self, a, rademacher_k_p):
        # both Rademacher atoms +-1 lie beyond a exactly when a < 1; the
        # zero law's one atom never does
        assert tail_second_moment(get_noise("rademacher"), a) == rademacher_k_p
        assert truncated_mean(get_noise("rademacher"), a) == 0.0
        assert tail_second_moment(get_noise("zero"), a) == 0.0
        assert truncated_mean(get_noise("zero"), a) == 0.0

    def test_moments_follow_the_law_not_its_label(self):
        # a law labelled "gaussian" gets the moments it carries
        relabelled = replace(get_noise("laplace_std"), label="gaussian")
        a = 2.0
        assert tail_second_moment(relabelled, a) == tail_second_moment(
            get_noise("laplace_std"), a)
        assert tail_second_moment(relabelled, a) != tail_second_moment(
            get_noise("gaussian"), a)


class TestTruncatedMoments:
    @pytest.mark.parametrize("label", ALL_NOISES)
    def test_mean_vanishes_by_symmetry(self, label):
        assert abs(truncated_mean(get_noise(label), 1.7)) < 1e-12

    def test_rademacher_variance_untouched(self):
        assert truncated_variance(get_noise("rademacher"), 1.0) == 1.0
        assert truncated_variance(get_noise("rademacher"), 3.0) == 1.0

    def test_gaussian_full_variance_at_large_threshold(self):
        assert abs(truncated_variance(get_noise("gaussian"), 16.0) - 1.0) < 1e-10

    @pytest.mark.parametrize("label", ALL_NOISES)
    @pytest.mark.parametrize("a", [1.0, 2.0, 4.0, 8.0])
    def test_variance_gap_bound(self, label, a):
        # |a_n - 1| <= 2 K_p(a)
        noise = get_noise(label)
        gap = abs(truncated_variance(noise, a) - 1.0)
        assert gap <= 2.0 * tail_second_moment(noise, a) + 1e-12


class TestTruncationSplit:
    @pytest.mark.parametrize("n", [1_000, 100_000])
    @pytest.mark.parametrize("scale", [*scale_catalog().values(), flat_scale()],
                             ids=[*scale_catalog(), "flat"])
    def test_window_weights_match_direct_profile(self, fixed_curves,
                                                 plateau_kernel_01, gaussian,
                                                 n, scale):
        # the weights come from the estimator's window law; bitwise the
        # direct g(x_k, S) / g(z0, S), and the split's summand scales and
        # G_n/q_n are bitwise the expressions built on it
        cfg = EstimatorConfig(n=n, beta=2.0, z0=0.5)
        curves = [*default_family(0.5, 0.1, 2.0, n, plateau_kernel_01),
                  *fixed_curves(0.5).values()]
        for S in curves:
            direct = (scale_profile(scale, cfg.window_x, S)
                      / scale_eval(scale, cfg.z0, S))
            law = window_law(S, scale, cfg)
            assert np.array_equal(law.g_window / law.g0, direct), S.label
            report, w = _split_terms(law, gaussian)
            assert np.array_equal(w, direct / math.sqrt(cfg.q_n)), S.label
            assert report.g_n_over_qn == float(np.sum(direct ** 2)) / cfg.q_n

    @pytest.mark.parametrize("run", ["split", "moment_check"])
    def test_one_window_law_per_call(self, monkeypatch, mixed_scale, run):
        # a counting wrapper on the window law, at the name martingale
        # calls it by: the report and the draws share one evaluation
        calls = []

        def counting(*args):
            calls.append(args)
            return window_law(*args)

        monkeypatch.setattr(martingale, "window_law", counting)
        cfg = EstimatorConfig(n=2_000, beta=2.0, z0=0.5)
        args = (constant_fn(0.2), mixed_scale, get_noise("laplace_std"), cfg)
        if run == "split":
            truncation_split(*args, seed=3)
        else:
            zeta_dd_moment_check(*args, reps=10, seed=3)
        assert len(calls) == 1

    def test_split_reconstructs_normalized_sum(self, mixed_scale):
        cfg = EstimatorConfig(n=20_000, beta=2.0, z0=0.5)
        S = constant_fn(0.2)
        for label in ("gaussian", "student5_std"):
            report, real = truncation_split(S, mixed_scale, get_noise(label),
                                            cfg, seed=99)
            g_w = scale_profile(mixed_scale, cfg.window_x, S)
            g0 = scale_eval(mixed_scale, 0.5, S)
            direct = float(np.sum(g_w / g0 * real.xi)) / math.sqrt(cfg.q_n)
            total = real.zeta_prime + real.zeta_dd
            assert total == pytest.approx(direct, rel=1e-10)
            assert report.tau_n == cfg.k_hi

    @pytest.mark.parametrize("label", ALL_NOISES)
    def test_report_draws_nothing_and_matches_split(self, mixed_scale, label):
        cfg = EstimatorConfig(n=10_000, beta=2.0, z0=0.5)
        noise = get_noise(label)

        def no_draws(rng, size, out=None):
            raise AssertionError("truncation_report drew noise")

        report = truncation_report(constant_fn(0.2), mixed_scale,
                                   replace(noise, sampler=no_draws), cfg)
        split_report, _ = truncation_split(constant_fn(0.2), mixed_scale,
                                           noise, cfg, seed=5)
        assert report == split_report

    def test_report_identity_second_moment(self, mixed_scale):
        # E[zeta_dd^2] = (G_n/q_n) K_p(a) for the symmetric catalog
        cfg = EstimatorConfig(n=20_000, beta=2.0, z0=0.5)
        S = constant_fn(0.2)
        for label in ALL_NOISES:
            report, _ = truncation_split(S, mixed_scale, get_noise(label),
                                         cfg, seed=5)
            expected = report.g_n_over_qn * report.k_p
            if expected == 0.0:
                assert report.second_moment_zeta_dd == 0.0
            else:
                assert report.second_moment_zeta_dd == pytest.approx(
                    expected, rel=1e-6)

    def test_bounded_increments(self, mixed_scale):
        # |u'_k| <= 2 (g_ceil / g_floor) q_n^(-1/4)
        cfg = EstimatorConfig(n=20_000, beta=2.0, z0=0.5)
        S = constant_fn(0.2)
        bound = 2.0 * (mixed_scale.g_ceil / mixed_scale.g_floor) * cfg.q_n ** -0.25
        for label in ("gaussian", "laplace_std", "student5_std"):
            noise = get_noise(label)
            report, real = truncation_split(S, mixed_scale, noise, cfg, seed=3)
            a = report.a_threshold
            m_below = truncated_mean(noise, a)
            g_w = scale_profile(mixed_scale, cfg.window_x, S)
            g0 = scale_eval(mixed_scale, 0.5, S)
            below = np.abs(real.xi) <= a
            u_prime = (g_w / g0 / math.sqrt(cfg.q_n)
                       * (np.where(below, real.xi, 0.0) - m_below))
            assert np.max(np.abs(u_prime)) <= bound

    def test_r_n_close_to_one_at_large_n(self, mixed_scale):
        cfg = EstimatorConfig(n=1_000_000, beta=2.0, z0=0.5)
        S = constant_fn(0.2)
        for label in ALL_NOISES:
            report, _ = truncation_split(S, mixed_scale, get_noise(label),
                                         cfg, seed=1)
            assert abs(report.r_n - 1.0) < 1e-2

    def test_tail_decay_along_n(self):
        # sup over the catalog of K_p(q_n^(1/4)) shrinks as n grows
        sups = []
        for n in (1_000, 10_000, 100_000, 1_000_000):
            cfg = EstimatorConfig(n=n, beta=2.0, z0=0.5)
            a = cfg.q_n ** 0.25
            sups.append(max(tail_second_moment(get_noise(lab), a)
                            for lab in ALL_NOISES))
        assert all(x > y for x, y in zip(sups, sups[1:]))


class TestNormalApproximation:
    def test_exactly_normal_case(self):
        # gaussian noise with constant scale: the sum is exactly N(0, 1)
        cfg = EstimatorConfig(n=20_000, beta=2.0, z0=0.5)
        reps = 4_000
        ks = normal_approx_check(constant_fn(0.2), flat_scale(),
                                 get_noise("gaussian"), cfg, reps, seed=11)
        assert ks < 2.0 / math.sqrt(reps)

    def test_centering_kills_truncation_bias(self):
        # sample mean of the re-centered bounded part over 1e6 draws
        from minimaxkern.model import rng_from_seed
        noise = get_noise("student5_std")
        a = 11.0
        rng = rng_from_seed(500)
        xi = np.asarray(noise.sampler(rng, 1_000_000), dtype=float)
        xp = np.where(np.abs(xi) <= a, xi, 0.0) - truncated_mean(noise, a)
        se = xp.std(ddof=1) / 1_000.0
        assert abs(xp.mean()) <= 3 * se

    def test_moment_check_agrees_with_identity(self, mixed_scale):
        cfg = EstimatorConfig(n=20_000, beta=2.0, z0=0.5)
        est, se, expected = zeta_dd_moment_check(
            constant_fn(0.2), mixed_scale, get_noise("student5_std"), cfg,
            reps=2_000, seed=777)
        assert abs(est - expected) <= 3 * se + 1e-12

    def test_reps_floor(self, mixed_scale):
        cfg = EstimatorConfig(n=1_000, beta=2.0, z0=0.5)
        with pytest.raises(ValueError):
            normal_approx_check(constant_fn(0.0), mixed_scale,
                                get_noise("gaussian"), cfg, reps=10, seed=0)
