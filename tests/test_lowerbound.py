import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtr

from minimaxkern.estimator import EstimatorConfig, bandwidth, rate
from minimaxkern.holder import WeakHolderParams, check_weak_holder
from minimaxkern import lowerbound
from minimaxkern.lowerbound import (PerturbationSpec, PlateauKernel,
                                    _bump_tables, bayes_bound, build_kernel,
                                    bump, bump_cdf, bump_deriv_sup,
                                    likelihood_ratio, log_likelihood_ratio,
                                    min_n_membership,
                                    shift_statistic, varsigma_sq)
from minimaxkern.model import (constant_fn, derive_seed, design_grid,
                               flat_scale, rng_from_seed, scale_catalog,
                               scale_eval, scale_profile)
from minimaxkern.numerics import composite_simpson, ks_statistic

EFFICIENCY_CONSTANT = 1.0 / math.sqrt(math.pi)


def _six_term(kern, x):
    """V_nu and V_nu' at every point of ``x`` from the six CDF (density)
    terms of the step profile, with no shortcut."""
    nu = kern.nu
    inner, outer = 1.0 - 2.0 * nu, 1.0 - nu

    def cdf(e):
        return bump_cdf((e - x) / nu)

    def dens(e):
        return bump((e - x) / nu)

    vals = np.zeros(x.shape)
    vals = vals + 1.0 * (cdf(inner) - cdf(-inner))
    vals = vals + 2.0 * (cdf(outer) - cdf(inner))
    vals = vals + 2.0 * (cdf(-inner) - cdf(-outer))
    derivs = np.zeros(x.shape)
    derivs = derivs + (1.0 / nu) * (dens(-inner) - dens(inner))
    derivs = derivs + (2.0 / nu) * (dens(inner) - dens(outer))
    derivs = derivs + (2.0 / nu) * (dens(-outer) - dens(-inner))
    return vals, derivs


class TestMollifier:
    def test_unit_mass(self):
        mass = composite_simpson(bump, -1.0, 1.0, 8192)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_vanishes_at_support_edge(self):
        vals = bump(np.array([-1.0, 1.0, -1.5, 2.0]))
        assert np.all(vals == 0.0)
        assert np.all(bump(np.linspace(-0.99, 0.99, 101)) > 0.0)

    def test_cdf_endpoints(self):
        assert bump_cdf(np.array([-1.0]))[0] == 0.0
        assert bump_cdf(np.array([1.0]))[0] == 1.0
        assert bump_cdf(np.array([5.0]))[0] == 1.0

    def test_derivative_sup_is_stationary_max(self):
        zs = np.linspace(-0.999, 0.999, 20001)
        dense = np.max(np.abs(np.gradient(bump(zs), zs)))
        assert bump_deriv_sup() >= dense * 0.999
        assert bump_deriv_sup() == pytest.approx(1.798, abs=5e-3)

    def test_derivative_sup_closed_form(self):
        # |d/dz exp(-1/(1-z^2))| = 2|z| exp(-1/(1-z^2)) / (1-z^2)^2 peaks at
        # 1 - 3 z^4 = 0
        normalizer = _bump_tables()[2]

        def raw_deriv_abs(z):
            z = np.asarray(z, dtype=float)
            inside = np.abs(z) < 1.0
            d = 1.0 - np.where(inside, z * z, 0.0)
            return np.where(inside, 2.0 * np.abs(z) * np.exp(-1.0 / d) / d ** 2, 0.0)

        z_star = 3.0 ** -0.25
        assert bump_deriv_sup() == pytest.approx(
            float(raw_deriv_abs(z_star)) / normalizer, rel=1e-14)
        dense = np.max(raw_deriv_abs(np.linspace(-1.0, 1.0, 8193)))
        assert bump_deriv_sup() >= dense / normalizer

    def test_nu_range_enforced(self):
        with pytest.raises(ValueError):
            PlateauKernel(nu=0.3)
        with pytest.raises(ValueError):
            build_kernel(0.25)
        for make in (PlateauKernel, build_kernel):
            for nu in (0.0, 0.25, math.nan):
                with pytest.raises(ValueError, match="nu must lie"):
                    make(nu)


class TestPlateauKernel:
    @pytest.mark.parametrize("nu", [0.2, 0.1, 0.05, 0.01])
    def test_center_value_and_mass(self, nu):
        kern = build_kernel(nu)
        assert float(kern.values(np.array([0.0]))[0]) == pytest.approx(1.0, abs=1e-6)
        mass = composite_simpson(kern.values, -1.0, 1.0, 32768)
        assert mass == pytest.approx(2.0, abs=1e-6)

    def test_vanishes_outside_support(self):
        kern = build_kernel(0.1)
        assert np.all(kern.values(np.array([1.5, -1.2, 1.0, -1.0])) == 0.0)

    def test_shape_bounds(self):
        kern = build_kernel(0.05)
        xs = np.linspace(-1.5, 1.5, 4001)
        vals = kern.values(xs)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= 2.0 + 1e-6)

    @pytest.mark.parametrize("nu", [0.2, 0.1, 0.05])
    def test_unit_plateau_near_center(self, nu):
        kern = build_kernel(nu)
        xs = np.linspace(-(1.0 - 3.0 * nu), 1.0 - 3.0 * nu, 501)
        assert np.max(np.abs(kern.values(xs) - 1.0)) == 0.0

    def test_derivative_consistency(self):
        # finite differences of the evaluator see the CDF-table segments,
        # so agreement is limited by the table resolution (not by deriv)
        kern = build_kernel(0.1)
        xs = np.linspace(-0.99, 0.99, 301)
        step = 1e-7
        fd = (kern.values(xs + step) - kern.values(xs - step)) / (2 * step)
        scale = max(1.0, float(np.max(np.abs(kern.deriv(xs)))))
        assert np.max(np.abs(fd - kern.deriv(xs))) < 1e-3 * scale

    @pytest.mark.parametrize("nu", [0.2, 0.1, 0.01])
    def test_matches_six_term_formula_bitwise(self, nu):
        kern = build_kernel(nu)
        x = np.linspace(-3.0, 3.0, 100_001)
        vals, derivs = _six_term(kern, x)
        for got, want in ((kern.values(x), vals), (kern.deriv(x), derivs)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("nu", [0.2, 0.1, 0.05, 0.01])
    def test_flat_shortcut_bitwise_at_edges(self, nu):
        """The exact 1.0/0.0 taken off the transition band agrees with the
        six-term formula at the float neighbours of every edge: the band
        1-3nu < |x| < 1, the shortcut cuts 1-3.5nu and 1+0.5nu, and the
        profile breaks +-(1-2nu), +-(1-nu); plus NaN and +-inf."""
        kern = build_kernel(nu)
        edges = [1.0 - 3.0 * nu, 1.0, 1.0 - 3.5 * nu, 1.0 + 0.5 * nu,
                 1.0 - 2.0 * nu, 1.0 - nu, 0.0]
        pts = []
        for e in edges:
            for v in (e, -e):
                pts += [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]
        x = np.array(pts + [np.nan, np.inf, -np.inf, 0.5, -2.0])
        vals, derivs = _six_term(kern, x)
        for got, want in ((kern.values(x), vals), (kern.deriv(x), derivs)):
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        for x0 in x:  # 0-d input
            v0, d0 = _six_term(kern, np.asarray(x0))
            for got, want in ((kern.values(np.asarray(x0)), v0),
                              (kern.deriv(x0), d0)):
                assert np.shape(got) == ()
                assert np.array_equal(got, want, equal_nan=True)
                assert np.signbit(got) == np.signbit(want)

    def test_cdf_table_read_only_in_band(self, monkeypatch):
        nu = 0.1
        kern = build_kernel(nu)
        looked_up = []
        real = lowerbound.bump_cdf

        def counting_cdf(z):
            looked_up.append(np.size(z))
            return real(z)

        monkeypatch.setattr(lowerbound, "bump_cdf", counting_cdf)
        flat = np.array([0.0, 0.5, -0.6, 1.2, -7.0, np.inf])
        assert kern.values(flat).tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
        assert sum(looked_up) == 0
        kern.values(np.array([0.0, 0.8, -0.95, 2.0]))
        assert sum(looked_up) == 4 * 2  # four table reads per band point

    def test_sq_integral_matches_quadrature(self):
        kern = build_kernel(0.1)
        direct = composite_simpson(lambda z: kern.values(z) ** 2, -1.0, 1.0, 16384)
        assert kern.sq_integral == pytest.approx(direct, rel=1e-9)


class TestMembershipThreshold:
    def test_collapses_to_one(self):
        # ratio <= 1 gives threshold 1
        assert min_n_membership(0.2, 0.01, 2.0, 0.5) == 1

    def test_grows_as_beta_approaches_one(self):
        lo = min_n_membership(0.1, 0.5, 1.5, 1.8)
        hi = min_n_membership(0.1, 0.5, 1.1, 1.8)
        assert hi > lo > 1

    def test_rejects_beta_one(self):
        with pytest.raises(ValueError):
            min_n_membership(0.1, 0.5, 1.0, 1.8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot, match", [
        (0, r"nu must lie in \(0, 1/4\)"),
        (1, r"delta must lie in \(0, 1\)"),
        (2, r"beta must lie in \(1, 2\]"),
    ], ids=["nu", "delta", "beta"])
    def test_rejects_non_finite(self, slot, match, bad):
        args = [0.1, 0.5, 2.0, 1.8]
        args[slot] = bad
        with pytest.raises(ValueError, match=match):
            min_n_membership(*args)

    def test_membership_at_threshold_and_beyond(self, plateau_kernel_01):
        n_star = min_n_membership(0.1, 0.5, 2.0, bump_deriv_sup())
        params = WeakHolderParams(z0=0.5, delta=0.5, beta=2.0)
        for n in (n_star, 4 * n_star):
            pert = PerturbationSpec(kernel=plateau_kernel_01, u=1.0, n=n,
                                    beta=2.0, z0=0.5)
            assert check_weak_holder(pert.to_function(), params).certified

    def test_amplitude_cap_folds_into_slope(self, plateau_kernel_01):
        # membership for |u| <= b via threshold at b * sup|l'|
        b = 1.5
        n_star = min_n_membership(0.1, 0.5, 2.0, b * bump_deriv_sup())
        params = WeakHolderParams(z0=0.5, delta=0.5, beta=2.0)
        for u in (-b, -0.5, 0.7, b):
            pert = PerturbationSpec(kernel=plateau_kernel_01, u=u, n=n_star,
                                    beta=2.0, z0=0.5)
            assert check_weak_holder(pert.to_function(), params).certified


class TestPerturbation:
    def test_holds_estimator_config(self, plateau_kernel_01):
        pert = PerturbationSpec(kernel=plateau_kernel_01, u=1.3, n=10_000,
                                beta=1.7, z0=0.4)
        assert pert.cfg == EstimatorConfig(n=10_000, beta=1.7, z0=0.4)
        moved = replace(pert, u=-0.6)
        assert moved.u == -0.6
        assert moved.cfg == pert.cfg

    def test_builds_at_membership_threshold_in_bounded_memory(
            self, plateau_kernel_01):
        n_star = min_n_membership(0.1, 0.5, 2.0, bump_deriv_sup())
        for n in (n_star, 4 * n_star):
            tracemalloc.start()
            try:
                pert = PerturbationSpec(kernel=plateau_kernel_01, u=1.0, n=n,
                                        beta=2.0, z0=0.5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100_000
            assert pert.cfg == EstimatorConfig(n=n, beta=2.0, z0=0.5)

    @pytest.mark.parametrize("n, beta, z0, match", [
        (0, 2.0, 0.5, r"n must be >= 1"),
        (100, 1.0, 0.5, r"beta must lie in \(1, 2\], got 1.0"),
        (100, 2.5, 0.5, r"beta must lie in \(1, 2\], got 2.5"),
        (100, 2.0, 0.0, r"z0 must lie in \(0, 1\)"),
        (100, 2.0, 1.0, r"z0 must lie in \(0, 1\)"),
    ], ids=["n", "beta_low", "beta_high", "z0_low", "z0_high"])
    def test_rejects_invalid_operating_point(self, plateau_kernel_01, n, beta,
                                             z0, match):
        with pytest.raises(ValueError, match=match):
            PerturbationSpec(kernel=plateau_kernel_01, u=1.0, n=n, beta=beta,
                             z0=z0)

    def test_peak_value(self, plateau_kernel_01):
        pert = PerturbationSpec(kernel=plateau_kernel_01, u=1.3, n=10_000,
                                beta=2.0, z0=0.5)
        S = pert.to_function()
        assert float(np.asarray(S.eval(0.5))) == pytest.approx(
            1.3 / pert.cfg.phi_n, rel=1e-9)
        assert pert.cfg.h == bandwidth(10_000, 2.0)
        assert pert.cfg.phi_n == rate(10_000, 2.0)

    def test_support_in_window(self, plateau_kernel_01):
        pert = PerturbationSpec(kernel=plateau_kernel_01, u=1.0, n=10_000,
                                beta=2.0, z0=0.5)
        S = pert.to_function()
        h = pert.cfg.h
        xs = np.array([0.5 - 1.01 * h, 0.5 + 1.01 * h, 0.1, 0.9])
        assert np.all(np.asarray(S.eval(xs)) == 0.0)

    def test_derivative_consistency(self, plateau_kernel_01):
        pert = PerturbationSpec(kernel=plateau_kernel_01, u=1.0, n=10_000,
                                beta=2.0, z0=0.5)
        S = pert.to_function()
        xs = np.linspace(0.4, 0.6, 101)
        step = 1e-8
        fd = (np.asarray(S.eval(xs + step)) - np.asarray(S.eval(xs - step))) / (2 * step)
        dv = np.asarray(S.deriv(xs))
        assert np.max(np.abs(fd - dv)) < 1e-4 * max(1.0, np.max(np.abs(dv)))


class TestShiftVariance:
    @pytest.mark.parametrize("n", [1_000, 100_000])
    def test_matches_direct_window_sum(self, plateau_kernel_01, n):
        # varsigma_n^2 reads the estimator's window profile; bitwise the
        # direct sum of (V/g)^2 over the window divided by phi_n^2
        for scale in (*scale_catalog().values(), flat_scale()):
            for u in (1.0, -2.5):
                pert = PerturbationSpec(kernel=plateau_kernel_01, u=u, n=n,
                                        beta=1.8, z0=0.4)
                cfg = EstimatorConfig(n=n, beta=1.8, z0=0.4)
                xw = cfg.window_x
                vvals = plateau_kernel_01.values((xw - 0.4) / bandwidth(n, 1.8))
                g_w = scale_profile(scale, xw, pert.to_function())
                direct = float(np.sum((vvals / g_w) ** 2)) / rate(n, 1.8) ** 2
                assert varsigma_sq(pert, scale)[0] == direct, scale.label

    def test_flat_scale_riemann_limit(self, plateau_kernel_01):
        # with g = 1 the shift variance is a plain Riemann sum of V^2
        pert = PerturbationSpec(kernel=plateau_kernel_01, u=1.0, n=1_000_000,
                                beta=2.0, z0=0.5)
        vs, sigma_nu = varsigma_sq(pert, flat_scale())
        assert sigma_nu == pytest.approx(plateau_kernel_01.sq_integral, rel=1e-12)
        assert vs == pytest.approx(plateau_kernel_01.sq_integral, rel=1e-3)

    def test_gap_shrinks_with_n(self, mixed_scale, plateau_kernel_01):
        gaps = []
        for n in (1_000, 1_000_000):
            pert = PerturbationSpec(kernel=plateau_kernel_01, u=1.0, n=n,
                                    beta=2.0, z0=0.5)
            vs, sigma_nu = varsigma_sq(pert, mixed_scale)
            gaps.append(abs(vs - sigma_nu))
        assert gaps[-1] < gaps[0]

    def test_limit_approaches_two_over_gsq(self, mixed_scale):
        # sigma_nu^2 -> 2 / g^2(z0, 0) as nu -> 0
        g0 = scale_eval(mixed_scale, 0.5, constant_fn(0.0))
        target = 2.0 / g0 ** 2
        vals = []
        for nu in (0.2, 0.1, 0.05, 0.01):
            pert = PerturbationSpec(kernel=build_kernel(nu), u=1.0, n=10_000,
                                    beta=2.0, z0=0.5)
            _, sigma_nu = varsigma_sq(pert, mixed_scale)
            vals.append(sigma_nu)
        errors = [abs(v - target) / target for v in vals]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 0.02


class TestLikelihoodRatio:
    def _pure_noise_run(self, pert, scale, seed):
        x = design_grid(pert.n)
        gvec = scale_profile(scale, x, pert.to_function())
        rng = rng_from_seed(seed)
        return gvec * rng.standard_normal(pert.n), gvec

    def test_unit_at_zero_amplitude(self, mixed_scale, plateau_kernel_01):
        pert = PerturbationSpec(kernel=plateau_kernel_01, u=1.0, n=2_000,
                                beta=2.0, z0=0.5)
        y, _ = self._pure_noise_run(pert, mixed_scale, 1)
        assert likelihood_ratio(0.0, pert, mixed_scale, y) == 1.0

    def test_matches_direct_density_ratio(self, mixed_scale, plateau_kernel_01):
        pert = PerturbationSpec(kernel=plateau_kernel_01, u=1.3, n=10_000,
                                beta=2.0, z0=0.5)
        y, gvec = self._pure_noise_run(pert, mixed_scale, 123)
        u = 1.3
        at_u = replace(pert, u=u)
        svals = np.asarray(at_u.to_function().eval(design_grid(pert.n)))
        gvec_u = scale_profile(mixed_scale, design_grid(pert.n),
                               at_u.to_function())
        direct = math.exp(-0.5 * float(
            np.sum(((y - svals) / gvec_u) ** 2 - (y / gvec_u) ** 2)))
        ours = likelihood_ratio(u, pert, mixed_scale, y)
        assert ours == pytest.approx(direct, rel=1e-8)

    def test_pure_noise_statistics(self, mixed_scale, plateau_kernel_01):
        # eta is standard Gaussian under the centered law and E[rho] = 1
        pert = PerturbationSpec(kernel=plateau_kernel_01, u=1.0, n=4_000,
                                beta=2.0, z0=0.5)
        cfg = EstimatorConfig(n=4_000, beta=2.0, z0=0.5)
        x = design_grid(pert.n)
        gvec = scale_profile(mixed_scale, x, pert.to_function())
        gw = gvec[cfg.window_slice]
        vv = plateau_kernel_01.values((cfg.window_x - 0.5) / cfg.h)
        varsig = math.sqrt(float(np.sum((vv / gw) ** 2)) / cfg.phi_n ** 2)
        w_eta = vv / gw ** 2 / (varsig * cfg.phi_n)

        reps = 100_000
        etas = np.empty(reps)
        for i in range(reps):
            rng = rng_from_seed(derive_seed(55, i))
            etas[i] = float(np.sum(w_eta * (gw * rng.standard_normal(cfg.q_n))))
        assert ks_statistic(etas[:10_000], ndtr) < 0.01
        rhos = np.exp(varsig * etas - 0.5 * varsig * varsig)
        se = rhos.std(ddof=1) / math.sqrt(reps)
        assert abs(rhos.mean() - 1.0) <= 3 * se

    def test_shift_statistic_consistent_with_ratio(self, mixed_scale,
                                                   plateau_kernel_01):
        pert = PerturbationSpec(kernel=plateau_kernel_01, u=0.8, n=2_000,
                                beta=2.0, z0=0.5)
        y, _ = self._pure_noise_run(pert, mixed_scale, 9)
        eta, varsig = shift_statistic(pert, mixed_scale, y)
        expected = math.exp(0.8 * varsig * eta - 0.5 * 0.8 ** 2 * varsig ** 2)
        assert likelihood_ratio(0.8, pert, mixed_scale, y) == pytest.approx(
            expected, rel=1e-12)


    def test_ratio_never_overflows(self, mixed_scale, plateau_kernel_01):
        # observations far out along the perturbation push u varsigma eta
        # past the float range of exp
        pert = PerturbationSpec(kernel=plateau_kernel_01, u=1.0, n=2_000,
                                beta=2.0, z0=0.5)
        y, gvec = self._pure_noise_run(pert, mixed_scale, 4)
        y = y + 1e6 * gvec
        ratios = {}
        for u in (1e-6, 1e-4, 0.01, 1.0, 30.0):
            rho = likelihood_ratio(u, pert, mixed_scale, y)
            log_rho = log_likelihood_ratio(u, pert, mixed_scale, y)
            assert math.isfinite(rho) or rho == math.inf
            if math.isfinite(rho) and rho > 0.0:
                assert log_rho == pytest.approx(math.log(rho), rel=1e-12)
            else:
                assert log_rho > 700.0
            ratios[u] = rho
        assert ratios[1.0] == math.inf
        assert 1.0 < ratios[1e-6] < math.inf


class TestBayesBound:
    def test_closed_form_cross_check(self):
        # int_{-c}^{c} |t| exp(-s^2 t^2/2) dt = (2/s^2)(1 - exp(-s^2 c^2 / 2))
        kern = build_kernel(0.05)
        b, g = 50.0, 1.3
        sigma_sq = kern.sq_integral / g ** 2
        closed = (math.sqrt(sigma_sq) / math.sqrt(2.0 * math.pi)
                  * (b - math.sqrt(b)) / b
                  * (2.0 / (sigma_sq * g)) * (1.0 - math.exp(-0.5 * sigma_sq * b)))
        assert bayes_bound(kern, b, g) == pytest.approx(closed, rel=1e-9)

    def test_limit_is_efficiency_constant(self):
        # at sigma_nu^2 = 2/g^2 and b -> inf the bound is exactly 1/sqrt(pi)
        g = 1.0
        sigma_sq = 2.0
        val = (math.sqrt(sigma_sq) / math.sqrt(2.0 * math.pi)
               * (2.0 / (sigma_sq * g)))
        assert val == pytest.approx(EFFICIENCY_CONSTANT, rel=1e-14)

    def test_two_percent_at_small_nu_large_b(self):
        val = bayes_bound(build_kernel(0.01), 10_000.0, 1.0)
        assert abs(val - EFFICIENCY_CONSTANT) / EFFICIENCY_CONSTANT < 0.02

    def test_monotone_in_b(self):
        kern = build_kernel(0.01)
        vals = [bayes_bound(kern, b, 1.0)
                for b in (4.0, 16.0, 100.0, 10_000.0)]
        assert vals == sorted(vals)
        assert all(x < y for x, y in zip(vals, vals[1:]))

    @given(st.sampled_from([0.2, 0.1, 0.05, 0.01]), st.floats(1.01, 1e6),
           st.floats(1.01, 100.0), st.floats(0.1, 10.0))
    def test_increasing_in_b_and_below_constant(self, nu, b, factor, g):
        kern = build_kernel(nu)
        low = bayes_bound(kern, b, g)
        high = bayes_bound(kern, b * factor, g)
        assert 0.0 < low < high < EFFICIENCY_CONSTANT

    def test_normalization_invariance(self):
        # the g-normalized bound does not depend on the scale level
        kern = build_kernel(0.05)
        assert bayes_bound(kern, 100.0, 1.0) == pytest.approx(
            bayes_bound(kern, 100.0, 2.5), rel=1e-6)

    def test_validation(self):
        kern = build_kernel(0.05)
        with pytest.raises(ValueError):
            bayes_bound(kern, 1.0, 1.0)
        with pytest.raises(ValueError):
            bayes_bound(kern, 10.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        kern = build_kernel(0.05)
        with pytest.raises(ValueError, match="b must exceed 1"):
            bayes_bound(kern, bad, 1.0)
        with pytest.raises(ValueError, match="g_z0 must be positive"):
            bayes_bound(kern, 10.0, bad)
