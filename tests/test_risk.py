import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import certify_on_grid, probe_grid
from minimaxkern import model
from minimaxkern import risk as risk_module
from minimaxkern.estimator import EstimatorConfig, decompose, kernel_estimate
from minimaxkern.holder import WeakHolderParams, check_weak_holder
from minimaxkern.lowerbound import PerturbationSpec, build_kernel
from minimaxkern.model import (FunctionSpec, ScaleSpec, constant_fn,
                               design_grid, flat_scale, function_catalog,
                               get_noise, noise_catalog, replicate,
                               rng_from_seed, scale_eval, scale_profile,
                               zero_noise)
from minimaxkern.numerics import folded_normal_mean
from minimaxkern.risk import (DEFAULT_TABLE_LABELS, EFFICIENCY_CONSTANT,
                              RiskConfig, default_family, exact_gaussian_risk,
                              monte_carlo_risk, sup_risk, sup_risks)


class TestFoldedNormalMean:
    def test_standard_case(self):
        assert folded_normal_mean(0.0, 1.0) == pytest.approx(
            math.sqrt(2.0 / math.pi), abs=1e-14)

    def test_unit_mean_unit_sd(self):
        # frozen from direct quadrature of |x| against the N(1,1) density
        assert folded_normal_mean(1.0, 1.0) == pytest.approx(
            1.1666309411753726, abs=1e-12)

    @pytest.mark.parametrize("m", [-3.0, -0.4, 0.7, 12.0])
    def test_degenerate_sd_limit(self, m):
        assert folded_normal_mean(m, 1e-8) == pytest.approx(abs(m), abs=1e-7)

    @given(st.floats(-20.0, 20.0), st.floats(1e-3, 50.0))
    def test_dominates_absolute_mean(self, m, s):
        assert folded_normal_mean(m, s) >= abs(m) - 1e-12

    @given(st.floats(-5.0, 5.0), st.floats(1e-3, 10.0))
    def test_dominated_by_triangle_bound(self, m, s):
        assert folded_normal_mean(m, s) <= abs(m) + s * math.sqrt(2.0 / math.pi) + 1e-12

    @given(st.floats(-20.0, 20.0), st.floats(1e-3, 50.0))
    def test_even_in_mean(self, m, s):
        assert folded_normal_mean(-m, s) == folded_normal_mean(m, s)

    @pytest.mark.parametrize("m, s, match", [
        (0.0, 0.0, "s must be positive and finite"),
        (math.nan, 1.0, "m must not be NaN"),
        (0.0, math.nan, "s must be positive and finite"),
        (0.0, math.inf, "s must be positive and finite"),
        (1.0, -1.0, "s must be positive and finite")])
    def test_rejects_nan_mean_and_bad_sd(self, m, s, match):
        # a NaN m or s once returned nan without a word
        with pytest.raises(ValueError, match=match):
            folded_normal_mean(m, s)


def _single_config(S, scale, n=100_000, delta=0.1, reps=100, seed=42):
    cfg = EstimatorConfig(n=n, beta=2.0, z0=0.5)
    return RiskConfig(cfg=cfg, delta=delta, reps=reps, seed=seed,
                      family=(S,), scale=scale)


class TestExactGaussianRisk:
    def test_flat_scale_constant_curve(self):
        # phi/sqrt(q) * sqrt(2/pi) with q = 20001 at n = 1e5
        rc = _single_config(constant_fn(0.2, "c"), flat_scale())
        val = exact_gaussian_risk(rc.family[0], rc)
        formula = rc.cfg.phi_n / math.sqrt(rc.cfg.q_n) * math.sqrt(2.0 / math.pi)
        assert val == pytest.approx(formula, rel=1e-12)
        assert val == pytest.approx(0.5641754793370735, abs=1e-12)

    def test_constant_curve_mixed_scale_near_target(self, mixed_scale):
        rc = _single_config(constant_fn(0.2, "c"), mixed_scale)
        val = exact_gaussian_risk(rc.family[0], rc)
        assert abs(val - EFFICIENCY_CONSTANT) / EFFICIENCY_CONSTANT < 0.01

    def test_zero_bias_form(self, mixed_scale):
        # B_n = 0 collapses the oracle to the pure folded-normal term
        rc = _single_config(constant_fn(-0.4, "c"), mixed_scale)
        dec = decompose(rc.family[0], mixed_scale, rc.cfg)
        g0 = scale_eval(mixed_scale, 0.5, rc.family[0])
        expected = (rc.cfg.phi_n * math.sqrt(dec.law.sigma_n_sq / rc.cfg.q_n)
                    * math.sqrt(2.0 / math.pi) / g0)
        assert exact_gaussian_risk(rc.family[0], rc) == pytest.approx(
            expected, rel=1e-12)

    def test_dominates_bias_contribution(self, mixed_scale):
        cfg = EstimatorConfig(n=10_000, beta=2.0, z0=0.5)
        for S in default_family(cfg, 0.2):
            rc = RiskConfig(cfg=cfg, delta=0.2, reps=10, seed=1, family=(S,),
                            scale=mixed_scale)
            dec = decompose(S, mixed_scale, cfg)
            g0 = scale_eval(mixed_scale, 0.5, S)
            assert exact_gaussian_risk(S, rc) >= cfg.phi_n * abs(dec.b_n) / g0

    def test_label_alone_earns_no_oracle(self, mixed_scale):
        # Laplace draws under the Gaussian label: the folded-normal value
        # would not be the risk of these draws
        impostor = dataclasses.replace(get_noise("laplace_std"),
                                       label="gaussian")
        rc = _single_config(constant_fn(0.2, "c"), mixed_scale,
                            n=1_000, reps=50)
        assert sup_risk(rc, [impostor]).rows[0].risk_oracle is None

    def test_relabelled_gaussian_keeps_oracle(self, mixed_scale, gaussian):
        S = constant_fn(0.2, "c")
        normal = dataclasses.replace(gaussian, label="normal")
        rc = _single_config(S, mixed_scale, n=1_000, reps=50)
        row = sup_risk(rc, [normal]).rows[0]
        assert row.noise == "normal"
        assert row.risk_oracle is not None
        assert row.risk_oracle == exact_gaussian_risk(S, rc)
        assert row.risk_oracle == sup_risk(rc, [gaussian]).rows[0].risk_oracle


class TestMonteCarloRisk:
    def test_noiseless_hook_is_exactly_zero(self, mixed_scale):
        rc = _single_config(constant_fn(0.7, "c"), mixed_scale,
                            n=2_000, reps=50)
        est, se = monte_carlo_risk(rc.family[0], rc, zero_noise())
        assert (est, se) == (0.0, 0.0)

    def test_deterministic_given_seed(self, mixed_scale, gaussian):
        rc = _single_config(constant_fn(0.2, "c"), mixed_scale,
                            n=2_000, reps=200, seed=11)
        assert (monte_carlo_risk(rc.family[0], rc, gaussian)
                == monte_carlo_risk(rc.family[0], rc, gaussian))

    def test_seed_sensitivity(self, mixed_scale, gaussian):
        rc1 = _single_config(constant_fn(0.2, "c"), mixed_scale,
                             n=2_000, reps=200, seed=11)
        rc2 = _single_config(constant_fn(0.2, "c"), mixed_scale,
                             n=2_000, reps=200, seed=12)
        assert (monte_carlo_risk(rc1.family[0], rc1, gaussian)
                != monte_carlo_risk(rc2.family[0], rc2, gaussian))

    def test_oracle_agreement_default_family(self, mixed_scale, gaussian):
        # each default family member at n = 1e4, 2e4 replications
        cfg = EstimatorConfig(n=10_000, beta=2.0, z0=0.5)
        for S in default_family(cfg, 0.1):
            rc = RiskConfig(cfg=cfg, delta=0.1, reps=20_000, seed=42,
                            family=(S,), scale=mixed_scale)
            mc, se = monte_carlo_risk(S, rc, gaussian)
            oracle = exact_gaussian_risk(S, rc)
            assert abs(mc - oracle) <= 3.0 * se, S.label

    def test_rademacher_matches_gaussian_oracle(self, mixed_scale):
        # CLT regime: non-Gaussian noise lands on the Gaussian oracle value
        S = constant_fn(0.2, "c")
        rc = _single_config(S, mixed_scale, n=100_000, reps=4_000, seed=42)
        mc, se = monte_carlo_risk(S, rc, get_noise("rademacher"))
        oracle = exact_gaussian_risk(S, rc)
        assert abs(mc - oracle) <= 5.0 * se


class TestSupRisk:
    def test_single_member_family(self, mixed_scale, gaussian):
        rc = _single_config(constant_fn(0.0, "zero"), mixed_scale,
                            n=1_000, reps=300)
        report = sup_risk(rc, [gaussian])
        assert len(report.rows) == 1
        assert report.sup_risk == report.rows[0].risk_mc
        assert report.attained_by == ("zero", "gaussian")

    def test_enlarging_family_never_decreases(self, mixed_scale, gaussian):
        cfg = EstimatorConfig(n=1_000, beta=2.0, z0=0.5)
        fam = default_family(cfg, 0.1)
        small = RiskConfig(cfg=cfg, delta=0.1, reps=300, seed=7,
                           family=tuple(fam[:2]), scale=mixed_scale)
        large = RiskConfig(cfg=cfg, delta=0.1, reps=300, seed=7,
                           family=tuple(fam), scale=mixed_scale)
        assert (sup_risk(large, [gaussian]).sup_risk
                >= sup_risk(small, [gaussian]).sup_risk)

    def test_sup_bounded_by_constant_plus_slack(self, mixed_scale, gaussian):
        # sup <= 1/sqrt(pi) + delta/2 + 3 max stderr for certified members
        delta = 0.1
        cfg = EstimatorConfig(n=100_000, beta=2.0, z0=0.5)
        fam = default_family(cfg, delta)
        rc = RiskConfig(cfg=cfg, delta=delta, reps=2_000, seed=42,
                        family=tuple(fam), scale=mixed_scale)
        report = sup_risk(rc, [gaussian])
        slack = 3.0 * max(r.stderr for r in report.rows)
        assert report.sup_risk <= EFFICIENCY_CONSTANT + delta / 2.0 + slack

    def test_multi_noise_rows(self, mixed_scale, gaussian):
        rc = _single_config(constant_fn(0.2, "c"), mixed_scale,
                            n=1_000, reps=200)
        report = sup_risk(rc, noises=[gaussian, get_noise("uniform_std")])
        assert [r.noise for r in report.rows] == ["gaussian", "uniform_std"]
        assert report.rows[0].risk_oracle is not None
        assert report.rows[1].risk_oracle is None

    def test_report_is_reproducible(self, mixed_scale, gaussian):
        cfg = EstimatorConfig(n=1_000, beta=2.0, z0=0.5)
        fam = default_family(cfg, 0.1)
        rc = RiskConfig(cfg=cfg, delta=0.1, reps=150, seed=3,
                        family=tuple(fam), scale=mixed_scale)
        assert sup_risk(rc, [gaussian]) == sup_risk(rc, [gaussian])


class TestSupRisks:
    def _configs(self, scale, n=1_000):
        cfg = EstimatorConfig(n=n, beta=2.0, z0=0.5)
        return [RiskConfig(cfg=cfg, delta=delta, reps=50, seed=4,
                           family=tuple(default_family(cfg, delta)),
                           scale=scale)
                for delta in (0.2, 0.1)]

    def test_equals_configs_scored_alone(self, mixed_scale, gaussian):
        noises = [gaussian, get_noise("laplace_std")]
        rcs = self._configs(mixed_scale)
        assert sup_risks(rcs, noises) == [sup_risk(rc, noises) for rc in rcs]

    def test_one_stream_per_noise(self, mixed_scale, gaussian, monkeypatch):
        calls = []

        def counting(sampler, weights, reps, seed):
            calls.append(sampler)
            return replicate(sampler, weights, reps, seed)

        monkeypatch.setattr(risk_module, "replicate", counting)
        noises = [gaussian, get_noise("rademacher")]
        sup_risks(self._configs(mixed_scale), noises)
        assert calls == [noise.sampler for noise in noises]

    @pytest.mark.parametrize("name", ["cfg", "reps", "seed", "scale"])
    def test_configs_must_share_draw_fields(self, mixed_scale, gaussian, name):
        rcs = self._configs(mixed_scale)
        other = {"cfg": EstimatorConfig(n=1_001, beta=2.0, z0=0.5),
                 "reps": 51, "seed": 5, "scale": flat_scale()}[name]
        rcs[1] = dataclasses.replace(rcs[1], **{name: other})
        with pytest.raises(ValueError, match=name):
            sup_risks(rcs, [gaussian])

    def test_scales_with_equal_alphas_are_one_scale(self, gaussian):
        # a scale is its alphas: flat_scale() and ScaleSpec(1.0) score on
        # shared draws, as two configs with the same scale do
        rcs = self._configs(flat_scale())
        rcs[1] = dataclasses.replace(rcs[1], scale=ScaleSpec(1.0))
        assert sup_risks(rcs, [gaussian]) == sup_risks(
            self._configs(flat_scale()), [gaussian])

    def test_rejects_empty_inputs(self, mixed_scale, gaussian):
        with pytest.raises(ValueError):
            sup_risks([], [gaussian])
        with pytest.raises(ValueError):
            sup_risks(self._configs(mixed_scale), [])


class TestRiskConfigValidation:
    def test_uncertified_member_rejected(self, mixed_scale):
        cfg = EstimatorConfig(n=1_000, beta=2.0, z0=0.5)
        steep = function_catalog()["sine"]  # genuine curvature at z0
        with pytest.raises(ValueError, match="sine"):
            RiskConfig(cfg=cfg, delta=0.1, reps=10, seed=0, family=(steep,),
                       scale=mixed_scale)

    def test_keeps_member_certificates(self, mixed_scale):
        cfg = EstimatorConfig(n=1_000, beta=2.0, z0=0.5)
        fam = tuple(default_family(cfg, 0.1))
        rc = RiskConfig(cfg=cfg, delta=0.1, reps=10, seed=0, family=fam,
                        scale=mixed_scale)
        params = WeakHolderParams(cfg, 0.1)
        assert rc.reports == tuple(check_weak_holder(S, params) for S in fam)

    def test_certifies_each_config_on_its_bandwidth(self, mixed_scale,
                                                    monkeypatch):
        calls = []

        def counting(S, params):
            calls.append((S.label, params.delta, params.cfg))
            return check_weak_holder(S, params)

        monkeypatch.setattr(risk_module, "check_weak_holder", counting)
        cfg = EstimatorConfig(n=1_000, beta=2.0, z0=0.5)
        fam = tuple(default_family(cfg, 0.1))
        built = [RiskConfig(cfg=EstimatorConfig(n=n, beta=2.0, z0=0.5),
                            delta=0.1, reps=10, seed=0, family=fam,
                            scale=mixed_scale)
                 for n in (1_000, 2_000)]
        # the same curve objects are certified afresh at each n
        assert [len(rc.reports) for rc in built] == [5, 5]
        assert calls == [(S.label, 0.1, rc.cfg) for rc in built for S in fam]
        for rc in built:
            params = WeakHolderParams(rc.cfg, 0.1)
            assert rc.reports == tuple(check_weak_holder(S, params)
                                       for S in fam)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_delta_rejected(self, mixed_scale, bad):
        cfg = EstimatorConfig(n=1_000, beta=2.0, z0=0.5)
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            RiskConfig(cfg=cfg, delta=bad, reps=10, seed=0,
                       family=(constant_fn(0.0),), scale=mixed_scale)

    @pytest.mark.parametrize("bad", [100.5, 100.0, math.nan])
    def test_non_integer_reps_rejected(self, mixed_scale, bad):
        # 100.5 once built a config whose sup_risk raised TypeError in range
        cfg = EstimatorConfig(n=1_000, beta=2.0, z0=0.5)
        with pytest.raises(ValueError, match="reps must be >= 2 and an integer"):
            RiskConfig(cfg=cfg, delta=0.1, reps=bad, seed=0,
                       family=(constant_fn(0.0),), scale=mixed_scale)

    def test_empty_family_rejected(self, mixed_scale):
        cfg = EstimatorConfig(n=1_000, beta=2.0, z0=0.5)
        with pytest.raises(ValueError):
            RiskConfig(cfg=cfg, delta=0.1, reps=10, seed=0, family=(),
                       scale=mixed_scale)

    def test_certified_families_have_ten_members(self, certified_family):
        for delta in (0.5, 0.2, 0.1, 0.05):
            fam = certified_family(0.5, delta, 2.0, n=10_000, count=10)
            assert len(fam) == 10
            assert len({S.label for S in fam}) == 10


class TestBandwidthClass:
    """The package certifies on the bandwidth class (the defect at h_n
    alone), not on the 32-probe grid ``probe_grid``: on that grid a window
    wider than h_n beats 1/sqrt(pi), so it cannot be the paper's class."""

    @pytest.mark.parametrize("n", [400, 1_000, 3_000, 10_000, 100_000])
    def test_same_verdicts_as_probe_grid(self, n):
        # every candidate and the bump: no verdict flips, so the
        # default-family risk tables do not move
        cfg = EstimatorConfig(n=n, beta=2.0, z0=0.5)
        for delta in (0.05, 0.1, 0.2, 0.5):
            band = WeakHolderParams(cfg, delta)
            for S in [*risk_module.family_candidates(0.5, delta),
                      risk_module.family_bump(cfg, delta)]:
                assert (check_weak_holder(S, band).certified
                        == certify_on_grid(S, 0.5, delta, 2.0).certified), \
                    (S.label, delta)

    @pytest.mark.parametrize("n, ratio, probe", [
        (10_000, 1.478, 2), (1_000_000, 1.405, 5)])
    def test_bump_fails_probe_grid_passes_bandwidth(self, n, ratio, probe):
        # the plateau bump at u = 0.5, delta = 0.1: a probe wider than h_n
        # sees its defect, h_n itself sees none
        cfg = EstimatorConfig(n=n, beta=2.0, z0=0.5)
        S = PerturbationSpec(build_kernel(0.1), u=0.5, cfg=cfg).to_function()
        on_grid = certify_on_grid(S, 0.5, 0.1, 2.0)
        assert not on_grid.certified
        assert on_grid.max_defect / 0.1 == pytest.approx(ratio, abs=5e-4)
        assert on_grid.worst_h == probe_grid(0.5)[probe]
        on_band = check_weak_holder(S, WeakHolderParams(cfg, 0.1))
        assert on_band.certified
        assert on_band.max_defect < 1e-15


    def test_probe_width_window_beats_the_constant_on_probe_grid(self):
        # The finding behind certifying on h_n alone: on the probe-grid
        # class, the window average whose width h' is itself a probe has a
        # certified normalized risk below 1/sqrt(pi) (beta = 2, z0 = 0.5,
        # delta = 0.1, n = 1e5, flat scale, Gaussian noise), which the
        # paper's lower bound rules out for the paper's class.
        n, beta, z0, delta = 100_000, 2.0, 0.5, 0.1
        phi_n = EstimatorConfig(n=n, beta=beta, z0=z0).phi_n
        slope = 1.0 / delta  # the derivative cap: D = S - S(z0) is Lipschitz
        x = np.arange(1, n + 1) / n
        allowance = 2.0 / (delta * n)
        best = None
        for h in probe_grid(z0):
            window = x[np.abs(x - z0) <= h]
            q = window.size
            # Under g = 1 the error is N(A_d, 1/q), A_d the window mean of D.
            # The probe bounds the continuum mean A_c = (1/2h) int D over
            # [z0 - h, z0 + h] by delta h^beta / 2, and A_d - A_c is a
            # Riemann term: the midpoint rule on the design cells costs
            # slope / (4n), and the cells' span [lo, hi] (width q/n) differs
            # from [z0 - h, z0 + h] by `gap`, where |D| <= slope (h + 1/2n).
            lo, hi = window[0] - 0.5 / n, window[-1] + 0.5 / n
            gap = abs(lo - (z0 - h)) + abs(hi - (z0 + h))
            riemann = (slope / (4 * n)
                       + gap * slope * (h + 0.5 / n) * n / q
                       + delta * h ** beta / 2 * abs(q / n - 2 * h) * n / q)
            bound = folded_normal_mean(
                phi_n * (delta * h ** beta / 2 + allowance),
                phi_n / math.sqrt(q))
            if best is None or bound < best[0]:
                best = (bound, h, q, riemann)
        bound, h, q, riemann = best
        assert riemann <= 1.0 / (delta * n) <= allowance  # the allowance holds
        assert (h, q) == (pytest.approx(0.245), 48_999)
        assert bound == pytest.approx(0.4473, abs=5e-5)
        assert bound < EFFICIENCY_CONSTANT

def _recording(noise, sizes):
    """The same law, with a sampler that records every requested size."""
    def sampler(rng, size, out=None):
        sizes.append(size)
        return noise.sampler(rng, size, out=out)
    return dataclasses.replace(noise, sampler=sampler)


class TestReplicationEngine:
    @pytest.mark.parametrize("n", [1_000, 100_000])
    @pytest.mark.parametrize("label", ["gaussian", "student5_std"])
    def test_statistic_matches_decompose(self, mixed_scale, n, label):
        # every replication's statistic, built from the decomposition and
        # replicate's sums, against kernel_estimate's on a run whose
        # window carries the same draws; then each member's risk and
        # stderr against the mean and spread of those statistics
        cfg = EstimatorConfig(n=n, beta=2.0, z0=0.5)
        noise = get_noise(label)
        fam = default_family(cfg, 0.1)
        rc = RiskConfig(cfg=cfg, delta=0.1, reps=12, seed=42,
                        family=tuple(fam), scale=mixed_scale)
        report = sup_risk(rc, [noise])
        decs = [decompose(S, rc.scale, cfg) for S in fam]
        sums = replicate(noise.sampler, [d.law.g_window for d in decs],
                         rc.reps, rc.seed)
        draws = noise.sampler(rng_from_seed(rc.seed), rc.reps * cfg.q_n)
        x = design_grid(n)
        xi_full = np.zeros(n)
        stats = np.empty((len(fam), rc.reps))
        for i, xi in enumerate(draws.reshape(rc.reps, cfg.q_n)):
            xi_full[cfg.window_slice] = xi
            for j, (S, dec, row) in enumerate(zip(fam, decs, stats)):
                y = S.eval(x) + scale_profile(mixed_scale, x, S) * xi_full
                est = kernel_estimate(y, cfg)
                s0 = float(S.eval(cfg.z0))
                g0 = scale_eval(mixed_scale, cfg.z0, S)
                row[i] = cfg.phi_n * abs(est - s0) / g0
                got = (cfg.phi_n * abs(dec.b_n + sums[j, i] / cfg.q_n)
                       / dec.law.g0)
                assert got == pytest.approx(row[i], rel=0, abs=1e-12), \
                    (S.label, i)
        assert [r.function for r in report.rows] == [S.label for S in fam]
        for r, row in zip(report.rows, stats):
            se = np.std(row, ddof=1) / math.sqrt(rc.reps)
            assert r.risk_mc == pytest.approx(np.mean(row), rel=0, abs=1e-12)
            assert r.stderr == pytest.approx(se, rel=0, abs=1e-12), r.function

    def test_rows_match_single_member_risk(self, mixed_scale, gaussian):
        cfg = EstimatorConfig(n=1_000, beta=2.0, z0=0.5)
        fam = default_family(cfg, 0.1)
        noises = [gaussian, get_noise("uniform_std")]
        rc = RiskConfig(cfg=cfg, delta=0.1, reps=200, seed=9,
                        family=tuple(fam), scale=mixed_scale)
        report = sup_risk(rc, noises=noises)
        for row in report.rows:
            S = next(f for f in fam if f.label == row.function)
            noise = next(z for z in noises if z.label == row.noise)
            mc, se = monte_carlo_risk(S, rc, noise)
            assert row.risk_mc == pytest.approx(mc, rel=1e-12, abs=0)
            assert row.stderr == pytest.approx(se, rel=1e-12, abs=0)

    def test_member_row_unchanged_by_added_members(self, mixed_scale, gaussian):
        cfg = EstimatorConfig(n=1_000, beta=2.0, z0=0.5)
        fam = default_family(cfg, 0.1)
        noises = [gaussian, get_noise("laplace_std")]
        small = RiskConfig(cfg=cfg, delta=0.1, reps=150, seed=5,
                           family=(fam[2],), scale=mixed_scale)
        large = dataclasses.replace(small, family=tuple(fam))
        small_rows = sup_risk(small, noises=noises).rows
        large_rows = [r for r in sup_risk(large, noises=noises).rows
                      if r.function == fam[2].label]
        assert list(small_rows) == large_rows

    def test_each_replication_draws_exactly_the_window(self, mixed_scale,
                                                       gaussian):
        cfg = EstimatorConfig(n=3_000, beta=2.0, z0=0.5)
        fam = default_family(cfg, 0.1)
        sizes: list = []
        noises = [_recording(gaussian, sizes),
                  _recording(get_noise("rademacher"), sizes)]
        rc = RiskConfig(cfg=cfg, delta=0.1, reps=40, seed=2,
                        family=tuple(fam), scale=mixed_scale)
        rows = max(1, model.REPLICATION_BLOCK_BYTES // (8 * cfg.q_n))
        assert 1 < rows < rc.reps  # several blocks, the last one short
        blocks = [min(rows, rc.reps - start) * cfg.q_n
                  for start in range(0, rc.reps, rows)]
        assert len(blocks) == math.ceil(rc.reps / rows)
        assert sum(blocks) == rc.reps * cfg.q_n
        sup_risk(rc, noises=noises)
        # one block draw per call and noise, shared by the whole family
        assert sizes == blocks * len(noises)
        assert all(type(size) is int for size in sizes)
        sizes.clear()
        monte_carlo_risk(fam[0], rc, noises[0])
        assert sizes == blocks

    def test_replicate_is_deterministic(self, gaussian):
        sizes: list = []
        noise = _recording(gaussian, sizes)
        weights = np.linspace(0.5, 1.5, 3 * 257).reshape(3, 257)
        first = replicate(noise.sampler, weights, 30, 11)
        second = replicate(noise.sampler, weights, 30, 11)
        assert first.shape == (3, 30)
        assert first.tobytes() == second.tobytes()
        assert sizes == [30 * 257] * 2
        assert all(type(size) is int for size in sizes)
        # replication i is row i of one flat draw from rng_from_seed(seed)
        xi = gaussian.sampler(rng_from_seed(11), 30 * 257).reshape(30, 257)
        want = np.stack([(xi * w).sum(axis=1) for w in weights])
        assert np.array_equal(first, want)
        assert np.array_equal(first[:, 4], (xi[4] * weights).sum(axis=1))

    @pytest.mark.parametrize("label", sorted(noise_catalog()))
    def test_block_size_never_changes_values(self, monkeypatch, label):
        noise = get_noise(label)
        q_n, reps, seed = 101, 45, 17
        flat = noise.sampler(rng_from_seed(seed), reps * q_n).reshape(reps, q_n)
        weights = np.linspace(-1.5, 1.5, 3 * q_n).reshape(3, q_n)
        want = np.stack([(flat * w).sum(axis=1) for w in weights])
        # one row per block, seven rows per block (45 = 6 * 7 + 3), default
        for budget in (8, 8 * q_n * 7 + 5, model.REPLICATION_BLOCK_BYTES):
            monkeypatch.setattr(model, "REPLICATION_BLOCK_BYTES", budget)
            sums = replicate(noise.sampler, weights, reps, seed)
            assert np.array_equal(sums, want), budget
            # a weight row's sums do not depend on the rows beside it
            for j, w in enumerate(weights):
                alone = replicate(noise.sampler, [w], reps, seed)
                assert alone[0].tobytes() == sums[j].tobytes(), \
                    (budget, j)

    @pytest.mark.parametrize("lengths, reps, match", [
        ([10], 0, "reps must be >= 2 and an integer"),
        ([10], 1, "reps must be >= 2 and an integer"),
        ([10], 2.5, "reps must be >= 2 and an integer"),
        ([], 5, "weights must be one or more rows of one length >= 1"),
        ([10, 9], 5, "weights must be one or more rows of one length >= 1"),
        ([0], 5, "weights must be one or more rows of one length >= 1")],
        ids=lambda v: ",".join(map(str, v)) or "none"
        if isinstance(v, list) else None)
    def test_replicate_rejects_zero_reps(self, gaussian, lengths, reps, match):
        # a row length of 0 would divide by zero when the blocks are sized,
        # and reps = 2.5 would reach range() as a float
        with pytest.raises(ValueError, match=match):
            replicate(gaussian.sampler, [np.ones(k) for k in lengths], reps, 1)

    def test_one_buffer_serves_every_block(self, monkeypatch, gaussian):
        pointers: list = []

        def sampler(rng, size, out=None):
            pointers.append(out.__array_interface__["data"][0])
            return gaussian.sampler(rng, size, out=out)

        noise = dataclasses.replace(gaussian, sampler=sampler)
        q_n, reps = 101, 45
        monkeypatch.setattr(model, "REPLICATION_BLOCK_BYTES", 8 * q_n * 7)
        sums = replicate(noise.sampler, [np.ones(q_n)], reps, 17)[0]
        assert len(pointers) == math.ceil(reps / 7)
        assert len(set(pointers)) == 1
        flat = gaussian.sampler(rng_from_seed(17), reps * q_n).reshape(reps, q_n)
        assert np.array_equal(sums, flat.sum(axis=1))


# Fixed before the property was run.  Under a flat scale g does not depend
# on S, so adding c moves only B_n, through the rounding of S(x_k) + c and
# S(z0) + c: at most a few ulps of 1 + |c| (|S| <= 1 here).  Each
# replication's statistic moves by at most phi_n |dB_n| / g0 (phi_n <= 40
# for n <= 1e4), and the risk (about 0.56) and its per-replication spread
# (above 0.4) are of order one, so a relative 1e-13 (1 + |c|) holds both.
CONSTANT_SHIFT_TOL = 1e-13


@given(st.sampled_from(DEFAULT_TABLE_LABELS), st.sampled_from(sorted(noise_catalog())),
       st.integers(100, 10_000), st.floats(-10.0, 10.0), st.integers(0, 2 ** 32))
def test_risk_invariant_under_constant_shift(label, noise, n, c, seed):
    # common draws: both curves are scored under one RiskConfig and seed
    S = next(f for f in
             default_family(EstimatorConfig(n=n, beta=2.0, z0=0.5), 0.1)
             if f.label == label)
    shifted = FunctionSpec("shifted", lambda x: S.eval(x) + c, S.deriv)
    rc = _single_config(S, flat_scale(), n=n, reps=200, seed=seed)
    noise = get_noise(noise)
    tol = CONSTANT_SHIFT_TOL * (1.0 + abs(c))
    for got, want in zip(monte_carlo_risk(shifted, rc, noise),
                         monte_carlo_risk(S, rc, noise)):
        assert abs(got - want) <= tol * want
