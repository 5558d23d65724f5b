import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import certify_on_grid
from minimaxkern import model
from minimaxkern.estimator import EstimatorConfig, decompose
from minimaxkern.model import (MOMENT_BOUND, FunctionSpec, ScaleSpec,
                               constant_fn, derive_seed,
                               design_grid, flat_scale, function_catalog,
                               get_noise, noise_catalog, rng_from_seed,
                               sample_run, scale_catalog, scale_eval,
                               scale_profile, zero_noise)
from minimaxkern.numerics import ks_statistic
from minimaxkern.risk import family_candidates

SQRT3 = math.sqrt(3.0)
LAPLACE_B = 1.0 / math.sqrt(2.0)


class TestDesignGrid:
    def test_n4(self):
        assert design_grid(4).tolist() == [0.25, 0.5, 0.75, 1.0]

    def test_degenerate(self):
        assert design_grid(1).tolist() == [1.0]

    def test_large_grid_midpoint(self):
        grid = design_grid(100_000)
        assert grid[49_999] == 0.5

    def test_invariants(self):
        grid = design_grid(137)
        assert grid.size == 137
        assert np.all(np.diff(grid) > 0)
        assert grid[0] == pytest.approx(1.0 / 137)
        assert grid[-1] == 1.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            design_grid(0)

    @pytest.mark.parametrize("n", [2.5, 4.0, math.inf, math.nan])
    def test_rejects_non_integer(self, n):
        # 2.5 used to give [0.4, 0.8, 1.2], a design point outside [0, 1]
        with pytest.raises(ValueError, match="n must be >= 1 and an integer"):
            design_grid(n)


class TestScaleEval:
    def test_constant_scale(self):
        sc = ScaleSpec(1.0, 0.0, 0.0, 0.0)
        S = constant_fn(0.7)
        assert scale_eval(sc, 0.3, S) == 1.0

    def test_linear_component(self):
        sc = ScaleSpec(1.0, 0.5, 0.0, 0.0)
        assert scale_eval(sc, 1.0, constant_fn(123.0)) == pytest.approx(
            math.sqrt(1.5), abs=1e-12)

    def test_curve_dependent_component(self):
        # sin^2(pi/2) = 1 pointwise and in the integral term
        sc = ScaleSpec(1.0, 0.0, 0.0, 1.0)
        S = constant_fn(math.pi / 2)
        assert scale_eval(sc, 0.4, S) == pytest.approx(math.sqrt(2.0), abs=1e-10)

    @given(st.floats(0.0, 1.0), st.floats(-3.0, 3.0))
    def test_bounds_hold_everywhere(self, x, c):
        for sc in scale_catalog().values():
            g = scale_eval(sc, x, constant_fn(c))
            assert sc.g_floor - 1e-12 <= g <= sc.g_ceil + 1e-12

    def test_profile_matches_pointwise(self, mixed_scale):
        S = function_catalog()["sine"]
        xs = np.linspace(0.0, 1.0, 7)
        prof = scale_profile(mixed_scale, xs, S)
        for x, g in zip(xs, prof):
            assert scale_eval(mixed_scale, float(x), S) == pytest.approx(float(g))

    def test_lipschitz_in_curve(self):
        # sin^2 is 1-Lipschitz and g >= sqrt(a0), so moving the curve by f
        # moves g(x, .) by at most (a2 + a3) / (2 sqrt(a0)) * sup|f|
        rng = np.random.default_rng(11)
        for sc in scale_catalog().values():
            bound = (sc.alpha2 + sc.alpha3) / (2.0 * math.sqrt(sc.alpha0))
            for _ in range(10):
                amp = rng.uniform(0.1, 2.0)
                om = rng.uniform(0.5, 6.0)
                x0 = rng.uniform(0.0, 1.0)
                S = FunctionSpec(
                    "s", lambda x, a=amp, o=om: a * np.sin(o * x),
                    lambda x, a=amp, o=om: a * o * np.cos(o * x))
                moved = FunctionSpec(
                    "s+f",
                    lambda x, a=amp, o=om: a * (np.sin(o * x) + np.cos(o * x)),
                    lambda x, a=amp, o=om: a * o * (np.cos(o * x)
                                                    - np.sin(o * x)))
                step = scale_eval(sc, x0, moved) - scale_eval(sc, x0, S)
                assert abs(step) <= bound * amp + 1e-12

    def test_rejects_bad_alphas(self):
        with pytest.raises(ValueError):
            ScaleSpec(0.0, 0.1, 0.1, 0.1)
        with pytest.raises(ValueError):
            ScaleSpec(1.0, -0.1, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_rejects_non_finite_alphas(self, slot, bad):
        alphas = [1.0, 0.5, 0.5, 0.5]
        alphas[slot] = bad
        with pytest.raises(ValueError, match="finite"):
            ScaleSpec(*alphas)


class TestNoiseCatalog:
    def test_certificates(self):
        for label, noise in noise_catalog().items():
            assert noise.member, label
            assert noise.variance == 1.0
            assert noise.abs_moment <= 10.0

    def test_member_follows_the_fields(self):
        gaussian = get_noise("gaussian")
        assert replace(gaussian, abs_moment=MOMENT_BOUND).member
        assert not replace(gaussian, abs_moment=MOMENT_BOUND * 1.01).member
        assert not replace(gaussian, variance=2.0).member

    def test_gaussian_third_moment(self):
        noise = get_noise("gaussian")
        assert noise.abs_moment == pytest.approx(1.5957691216057308, abs=1e-12)

    def test_rademacher_third_moment(self):
        assert get_noise("rademacher").abs_moment == 1.0

    def test_uniform_variance_closed_form(self):
        # int x^2 / (2 sqrt 3) over [-sqrt3, sqrt3] = 1
        noise = get_noise("uniform_std")
        xs = np.linspace(-SQRT3, SQRT3, 20001)
        dens = np.full(xs.shape, 1.0 / (2.0 * SQRT3))
        var = np.trapezoid(xs ** 2 * dens, xs)
        assert var == pytest.approx(1.0, abs=1e-6)
        assert noise.member

    def test_zero_noise_flagged_not_member(self):
        assert not zero_noise().member

    def test_unknown_label(self):
        with pytest.raises(ValueError, match=re.escape(
                "unknown noise label 'cauchy'; choose from ['gaussian', "
                "'laplace_std', 'rademacher', 'student5_std', 'uniform_std', "
                "'zero']")):
            get_noise("cauchy")

    @pytest.mark.parametrize("label", sorted(noise_catalog()))
    def test_empirical_moments(self, label):
        noise = get_noise(label)
        rng = rng_from_seed(2024)
        xi = np.asarray(noise.sampler(rng, 1_000_000), dtype=float)
        n = xi.size
        se_mean = xi.std(ddof=1) / math.sqrt(n)
        assert abs(xi.mean()) <= 3 * se_mean
        v = xi.var(ddof=1)
        m4 = float(np.mean((xi - xi.mean()) ** 4))
        # exact sampling variance of s^2; floored by the two-point value
        var_s2 = max((m4 - v * v * (n - 3) / (n - 1)) / n, 2.0 * v * v / (n * (n - 1)))
        assert abs(v - 1.0) <= 3 * math.sqrt(var_s2)


ALL_LAWS = sorted(noise_catalog()) + ["zero"]

# The numpy calls the catalog samplers replaced; draws must stay bitwise.
NUMPY_DRAWS = {
    "gaussian": lambda rng, n: rng.standard_normal(n),
    "uniform_std": lambda rng, n: rng.uniform(-SQRT3, SQRT3, n),
    "rademacher": lambda rng, n: 2.0 * rng.integers(0, 2, n).astype(float) - 1.0,
}


def _laplace_scalar(u: float) -> float:
    """The Laplace sampler's formula, evaluated with scalar math.log1p."""
    t = (2.0 * u - 1.0) + 2.0 ** -53
    return math.copysign(-LAPLACE_B * math.log1p(-abs(t)), t)


def _student5_scalar(rng, n: int) -> np.ndarray:
    """The Student-t(5) ratio-of-uniforms rule, one ``rng.random()`` at a time."""
    v_max = math.sqrt(2.5) * 1.5 ** -1.5
    values = []
    while len(values) < n:
        u = 1.0 - rng.random()
        x = v_max * ((2.0 * rng.random() - 1.0) + 2.0 ** -53) / u
        s = 1.0 + x * x / 5.0
        if u * u * s * s * s <= 1.0:
            values.append(math.sqrt(3.0 / 5.0) * x)
    return np.array(values)


def _student5_cdf(x: np.ndarray) -> np.ndarray:
    """CDF of sqrt(3/5) T_5, the unit-variance t(5), in closed form."""
    th = np.arctan(np.asarray(x) / SQRT3)
    c = np.cos(th)
    return 0.5 + (th + np.sin(th) * c * (1.0 + (2.0 / 3.0) * c * c)) / math.pi


class _FixedUniforms:
    """Stub generator whose ``random`` returns fixed values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size, out=None):
        out = np.empty(size) if out is None else out
        out[...] = self.values
        return out


class TestSamplerContract:
    @pytest.mark.parametrize("label", ALL_LAWS)
    def test_fills_out_and_returns_it(self, label):
        noise = get_noise(label)
        n = 2 * 4096 + 3
        buf = np.full(n, np.nan)
        got = noise.sampler(rng_from_seed(3), n, out=buf)
        assert got is buf
        assert buf.tobytes() == noise.sampler(rng_from_seed(3), n).tobytes()

    @pytest.mark.parametrize("label", ALL_LAWS)
    @pytest.mark.parametrize("first", [1, 4096 - 1, 4096 + 1])
    def test_split_draws_equal_one_draw(self, label, first):
        noise = get_noise(label)
        total = 3 * 4096 + 7
        whole = noise.sampler(rng_from_seed(8), total)
        rng = rng_from_seed(8)
        head = noise.sampler(rng, first)
        tail = noise.sampler(rng, total - first, out=np.empty(total - first))
        assert np.concatenate([head, tail]).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("label", sorted(NUMPY_DRAWS))
    @pytest.mark.parametrize("n", [1, 4096 + 1, 50_000])
    def test_bitwise_equal_to_numpy_draws(self, label, n):
        got = get_noise(label).sampler(rng_from_seed(13), n)
        assert got.tobytes() == NUMPY_DRAWS[label](rng_from_seed(13), n).tobytes()

    # 100_001 values take several rounds of _STUDENT_ROUND candidates
    @pytest.mark.parametrize("n", [1, 4097, 50_000, 100_001])
    def test_student5_bitwise_equal_to_scalar_rule(self, n):
        rng, ref_rng = rng_from_seed(13), rng_from_seed(13)
        got = get_noise("student5_std").sampler(rng, n)
        assert got.tobytes() == _student5_scalar(ref_rng, n).tobytes()
        # the unused candidates were handed back to the stream
        assert rng.random() == ref_rng.random()

    def test_student5_short_rounds_keep_stream_order(self, monkeypatch):
        # a round sized for an acceptance rate of 4 keeps about a fifth of
        # what it needs, so every block takes several rounds
        monkeypatch.setattr(model, "_STUDENT_ACCEPT", 4.0)
        rng, ref_rng = rng_from_seed(17), rng_from_seed(17)
        got = get_noise("student5_std").sampler(rng, 4097)
        assert got.tobytes() == _student5_scalar(ref_rng, 4097).tobytes()
        assert rng.random() == ref_rng.random()

    def test_student5_scratch_is_bounded(self):
        # a round's scratch and kept indices are freed before the next
        # round allocates, so a large draw into a given block holds at most
        # 1.25 MiB, not 50 bytes per value
        out = np.empty(1_000_000)
        rng = rng_from_seed(6)
        tracemalloc.start()
        try:
            get_noise("student5_std").sampler(rng, out.size, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20

    @pytest.mark.parametrize("label", ALL_LAWS)
    def test_scratch_is_bounded_for_every_law(self, label):
        # NoiseSpec's one scratch bound: the Laplace and Rademacher
        # samplers work in chunks of _STUDENT_ROUND values, so a large
        # draw into a given block holds no temporary of its size
        out = np.empty(1_000_000)
        rng = rng_from_seed(1)
        tracemalloc.start()
        try:
            get_noise(label).sampler(rng, out.size, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * 2 ** 20

    @pytest.mark.parametrize("label", ["laplace_std", "rademacher"])
    def test_chunks_keep_the_one_pass_bits(self, label):
        # two and a half chunks in one call: the values and the stream
        # position are those of the one-pass map over one draw of them all
        n = 5 * model._STUDENT_ROUND // 2
        rng, ref_rng = rng_from_seed(19), rng_from_seed(19)
        got = get_noise(label).sampler(rng, n)
        if label == "rademacher":
            ref = NUMPY_DRAWS["rademacher"](ref_rng, n)
        else:
            t = 2.0 * ref_rng.random(n) - (1.0 - 2.0 ** -53)
            ref = np.copysign(np.log1p(-np.abs(t)), t) * LAPLACE_B
        assert got.tobytes() == ref.tobytes()
        assert rng.random() == ref_rng.random()

    def test_student5_matches_exact_cdf(self):
        n = 1_000_000
        x = get_noise("student5_std").sampler(rng_from_seed(99), n)
        # Dvoretzky-Kiefer-Wolfowitz band at alpha = 1e-6
        band = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))
        assert ks_statistic(x, _student5_cdf) < band

    def test_student5_cdf_closed_form(self):
        from scipy import stats
        x = np.linspace(-40.0, 40.0, 8001)
        ref = stats.t.cdf(x / math.sqrt(3.0 / 5.0), 5)
        assert np.max(np.abs(_student5_cdf(x) - ref)) < 1e-15

    def test_student5_draws_raise_no_floating_point_error(self):
        with np.errstate(all="raise"):
            x = get_noise("student5_std").sampler(rng_from_seed(5), 1_000_000)
        assert np.all(np.isfinite(x))

    def test_rejects_unusable_out(self):
        noise = get_noise("student5_std")
        with pytest.raises(ValueError):
            noise.sampler(rng_from_seed(1), 10, out=np.empty(20)[::2])
        with pytest.raises(ValueError):
            noise.sampler(rng_from_seed(1), 10, out=np.empty(9))

    def test_laplace_within_two_ulp_of_scalar_formula(self):
        n = 200_000
        x = get_noise("laplace_std").sampler(rng_from_seed(21), n)
        u = rng_from_seed(21).random(n)
        ref = np.array([_laplace_scalar(v) for v in u.tolist()])
        assert np.all(np.abs(x - ref) <= 2.0 * np.spacing(np.abs(ref)))

    def test_laplace_extremes_finite_and_antisymmetric(self):
        h = 2.0 ** -53
        u = [0.0, 0.5 - h, 0.5, 1.0 - h]
        x = get_noise("laplace_std").sampler(_FixedUniforms(u), len(u))
        assert np.all(np.isfinite(x))
        assert x[0] == -x[3] and x[1] == -x[2]
        assert x[0] < 0.0 < x[2]
        # u = 0 maps to the grid's end point, b * 53 log 2
        assert x[3] == pytest.approx(LAPLACE_B * 53.0 * math.log(2.0), rel=1e-15)

    def test_laplace_matches_exact_cdf(self):
        n = 1_000_000
        x = get_noise("laplace_std").sampler(rng_from_seed(99), n)

        def cdf(v):
            e = 0.5 * np.exp(-np.abs(v) / LAPLACE_B)
            return np.where(v < 0.0, e, 1.0 - e)

        # Dvoretzky-Kiefer-Wolfowitz band at alpha = 1e-6
        band = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))
        assert ks_statistic(x, cdf) < band


class TestSampleRun:
    def test_noiseless_hook(self, mixed_scale):
        y = sample_run(constant_fn(0.7), mixed_scale, zero_noise(), 50, seed=1)
        assert np.all(y == 0.7)

    def test_bit_identical_replay(self, mixed_scale, gaussian):
        S = function_catalog()["sine"]
        y1 = sample_run(S, mixed_scale, gaussian, 1000, seed=99)
        y2 = sample_run(S, mixed_scale, gaussian, 1000, seed=99)
        assert np.array_equal(y1, y2)

    def test_seed_changes_output(self, mixed_scale, gaussian):
        S = constant_fn(0.0)
        y1 = sample_run(S, mixed_scale, gaussian, 100, seed=1)
        y2 = sample_run(S, mixed_scale, gaussian, 100, seed=2)
        assert not np.array_equal(y1, y2)

    @pytest.mark.parametrize("label", ["gaussian", "uniform_std", "student5_std"])
    def test_residual_variance_matches_scale(self, mixed_scale, label):
        # at a fixed design point, Var(y - S(x)) = g^2(x, S)
        S = constant_fn(0.2)
        noise = get_noise(label)
        x0 = 0.5
        g = scale_eval(mixed_scale, x0, S)
        rng = rng_from_seed(77)
        resid = g * np.asarray(noise.sampler(rng, 1_000_000), dtype=float)
        v = resid.var(ddof=1)
        m4 = float(np.mean((resid - resid.mean()) ** 4))
        se = math.sqrt(max(m4 - v * v, 0.0) / resid.size)
        assert abs(v - g * g) <= 3 * se


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_index_sensitivity(self):
        seen = {derive_seed(42, i) for i in range(100)}
        assert len(seen) == 100

    def test_master_sensitivity(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            derive_seed(1, -1)

    @pytest.mark.parametrize("index", [1.5, 1.0, "1", None])
    def test_rejects_non_integral_index(self, index):
        # 1.5 was once truncated to the stream of index 1
        with pytest.raises(ValueError,
                           match="seed index must be an integer >= 0"):
            derive_seed(42, index)

    def test_numpy_integer_index_keeps_its_stream(self):
        assert derive_seed(42, np.int64(3)) == derive_seed(42, 3)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 65 - 1, 1.0])
    def test_rejects_seed_outside_range(self, seed):
        # a mask once sent -1, 2^64 - 1 and 2^65 - 1 to one stream
        for call in (lambda: rng_from_seed(seed), lambda: derive_seed(seed, 0)):
            with pytest.raises(ValueError, match=r"seed must be an integer "
                                                 r"in \[0, 2\^64\)"):
                call()

    @pytest.mark.parametrize("seed", [0, 42, 2 ** 63, 2 ** 64 - 1])
    def test_in_range_seeds_keep_their_streams(self, seed):
        want = np.random.default_rng(np.random.SeedSequence(seed)).random(8)
        assert rng_from_seed(seed).random(8).tolist() == want.tolist()
        assert rng_from_seed(np.uint64(seed)).random(8).tolist() == want.tolist()
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(3,))
        assert derive_seed(seed, 3) == int(ss.generate_state(1, np.uint64)[0])


def _curves_named(label):
    """The catalog curve of that label, or else the family member of that
    label at delta 0.1 and at delta 0.5."""
    if label in function_catalog():
        return [function_catalog()[label]]
    return [S for delta in (0.1, 0.5)
            for S in family_candidates(0.5, delta) if S.label == label]


class TestFunctionCatalog:
    @pytest.mark.parametrize("label", sorted(
        {*function_catalog(),
         *(S.label for S in family_candidates(0.5, 0.1))}))
    def test_derivative_consistency(self, label):
        # central differences at step 1e-5 match the declared derivative
        xs = np.linspace(0.02, 0.98, 41)
        step = 1e-5
        curves = _curves_named(label)
        assert curves
        for S in curves:
            fd = (S.eval(xs + step) - S.eval(xs - step)) / (2 * step)
            assert np.max(np.abs(fd - S.deriv(xs))) < 1e-6

    def test_labels(self):
        # the constants 0.2 and -0.4 are the family's const_plus and
        # const_minus, so the catalog holds only its three own curves
        catalog = function_catalog(0.3)
        assert sorted(catalog) == ["linear", "sine", "steep_linear"]
        assert all(S.label == label for label, S in catalog.items())

    def test_flat_scale_helper(self):
        sc = flat_scale(2.0)
        assert scale_eval(sc, 0.3, constant_fn(5.0)) == pytest.approx(2.0)


class TestCurveContract:
    """FunctionSpec hands its callables a float array and returns a float64
    array of the input's shape, whatever they return."""

    @staticmethod
    def loose():
        # a Python scalar value and a length-1 list derivative
        return FunctionSpec("loose", lambda x: 0.3, lambda x: [0.0])

    @pytest.mark.parametrize("x", [0.25, [0.1, 0.7], np.linspace(0.0, 1.0, 5),
                                   np.linspace(0.0, 1.0, 6).reshape(2, 3)],
                             ids=["scalar", "list", "1d", "2d"])
    def test_shapes_and_dtype(self, x):
        S = self.loose()
        for got, value in ((S.eval(x), 0.3), (S.deriv(x), 0.0)):
            assert isinstance(got, np.ndarray)
            assert got.dtype == np.float64
            assert got.shape == np.shape(x)
            assert np.all(got == value)

    def test_callable_sees_float_array(self):
        seen = []
        S = FunctionSpec("probe", lambda x: seen.append(x) or x, lambda x: 1.0)
        S.eval([1, 2])
        assert isinstance(seen[0], np.ndarray) and seen[0].dtype == np.float64

    def test_wrong_shape_rejected(self):
        S = FunctionSpec("bad", lambda x: np.zeros(3), lambda x: 0.0)
        with pytest.raises(ValueError, match="shape"):
            S.eval(np.zeros(4))

    def test_callers_agree_with_constant_fn(self):
        loose, const = self.loose(), constant_fn(0.3)
        scale = scale_catalog()["mixed"]  # evaluates S pointwise and in int V
        cfg = EstimatorConfig(n=1_000, beta=2.0, z0=0.5)
        assert decompose(loose, scale, cfg) == decompose(const, scale, cfg)
        x = np.linspace(0.0, 1.0, 17)
        assert np.array_equal(scale_profile(scale, x, loose),
                              scale_profile(scale, x, const))
        assert (certify_on_grid(loose, 0.5, 0.2, 2.0)
                == certify_on_grid(const, 0.5, 0.2, 2.0))
