import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import GridCertificate, certify_on_grid, probe_grid
from minimaxkern.holder import (DEFAULT_SUP_RESOLUTION, WeakHolderParams,
                                WeakHolderReport, check_weak_holder,
                                weak_defect)
from minimaxkern.estimator import (INTEGRAL_QUAD_PANELS, EstimatorConfig,
                                   decompose)
from minimaxkern.model import FunctionSpec, constant_fn, linear_fn
from minimaxkern.numerics import composite_simpson
from minimaxkern.risk import default_family, family_bump, family_candidates


def quadratic():
    return FunctionSpec("sq", lambda x: x ** 2, lambda x: 2.0 * x)


def scaled(S, c):
    return FunctionSpec(f"{c}*{S.label}",
                        lambda x: c * S.eval(x), lambda x: c * S.deriv(x))


class TestWeakDefect:
    def test_constant_zero(self):
        assert weak_defect(constant_fn(4.2), 0.5, 2.0, 0.3) == 0.0

    def test_linear_zero_by_symmetry(self):
        assert weak_defect(linear_fn(1.0), 0.5, 1.8, 0.25) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("h", [0.05, 0.2, 0.45])
    def test_quadratic_closed_form(self, h):
        # int (2 z0 h u + h^2 u^2) du over [-1,1] = 2 h^2 / 3
        assert weak_defect(quadratic(), 0.5, 2.0, h) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_rejects_window_outside_unit_interval(self):
        with pytest.raises(ValueError):
            weak_defect(quadratic(), 0.9, 2.0, 0.2)

    @given(st.floats(-2.0, 2.0), st.floats(-3.0, 3.0))
    def test_invariant_under_affine_about_z0(self, a, b):
        # defect(S + a + b(x - z0)) = defect(S)
        z0, beta, h = 0.4, 2.0, 0.3
        base = quadratic()
        shifted = FunctionSpec(
            "shifted",
            lambda x: base.eval(x) + a + b * (x - z0),
            lambda x: base.deriv(x) + b)
        assert weak_defect(shifted, z0, beta, h) == pytest.approx(
            weak_defect(base, z0, beta, h), abs=1e-10)

    def test_holder_ball_defect_bound(self):
        # members of H(M, K, beta) have defect at most 2K/(beta (beta+1))
        beta = 2.0
        for c in (0.5, 1.0, 2.0):
            S = scaled(quadratic(), c)  # K = 2c exactly
            bound = 2.0 * (2.0 * c) / (beta * (beta + 1.0))
            for h in (0.1, 0.3):
                assert weak_defect(S, 0.5, beta, h) <= bound + 1e-12


GRID = probe_grid(0.5)


def on_band(S, z0, delta, beta, n=1_000):
    """The package's certificate: the bandwidth class at (n, beta, z0)."""
    cfg = EstimatorConfig(n=n, beta=beta, z0=z0)
    return check_weak_holder(S, WeakHolderParams(cfg, delta))


# The bandwidth class and the many-probe grid class of the tests
_CERTIFIERS = {"band": on_band, "grid": certify_on_grid}


@pytest.fixture(params=sorted(_CERTIFIERS))
def certify(request):
    return _CERTIFIERS[request.param]


class TestWeakHolderClass:
    def test_zero_always_certified(self, certify):
        assert certify(constant_fn(0.0), 0.5, 0.3, 2.0).certified

    def test_quadratic_fails_small_delta(self, certify):
        # defect 2/3 exceeds delta = 0.5 at every window
        rep = certify(quadratic(), 0.5, 0.5, 2.0)
        assert not rep.certified
        # tiny-h probes amplify quadrature roundoff, hence the looser bound
        assert rep.max_defect == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_ball_containment(self, certify):
        # H(1/delta, delta*beta*(beta+1)/2, beta) members certify; probe
        # strictly inside the ball to stay clear of float boundary ties
        delta, beta = 0.4, 2.0
        k_cap = delta * beta * (beta + 1.0) / 2.0
        c = 0.45 * k_cap  # quadratic c x^2 has K = 2c and sup|S'| = 2c
        S = scaled(quadratic(), c)
        assert certify(S, 0.5, delta, beta).certified

    @pytest.mark.parametrize("c", [1.0, 0.5, 0.1, -0.7])
    def test_shrinking_preserves_membership(self, certify, c):
        base = FunctionSpec(
            "dip", lambda x: 0.06 * np.cos(3.0 * (x - 0.5)),
            lambda x: -0.18 * np.sin(3.0 * (x - 0.5)))
        assert certify(base, 0.5, 0.25, 2.0).certified
        assert certify(scaled(base, c), 0.5, 0.25, 2.0).certified

    def test_steep_derivative_rejected(self, certify):
        rep = certify(linear_fn(6.0), 0.5, 0.2, 2.0)  # sup|S'| = 6 > 5
        assert not rep.certified
        assert rep.sup_deriv > 1.0 / 0.2

    def test_probe_grid_shape(self):
        grid = probe_grid(0.3)
        assert grid.size == 32
        assert grid[0] == pytest.approx(0.3)
        assert np.all(np.diff(grid) < 0)
        assert grid[1] / grid[0] == pytest.approx(0.7)

    def test_params_are_the_bandwidth_class(self):
        # the class is (cfg, delta) and nothing else, so params compare and
        # hash by value
        assert [f.name for f in dataclasses.fields(WeakHolderParams)] == [
            "cfg", "delta"]
        cfg = EstimatorConfig(n=1_000, beta=2.0, z0=0.5)
        p = WeakHolderParams(cfg, 0.1)
        same = WeakHolderParams(EstimatorConfig(n=1_000, beta=2.0, z0=0.5), 0.1)
        assert p == same and hash(p) == hash(same)
        assert p != WeakHolderParams(cfg, 0.2)
        assert p != WeakHolderParams(
            EstimatorConfig(n=2_000, beta=2.0, z0=0.5), 0.1)

    def test_params_validation(self):
        cfg = EstimatorConfig(n=1_000, beta=2.0, z0=0.5)
        with pytest.raises(TypeError, match="delta"):  # no default budget
            WeakHolderParams(cfg)
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            WeakHolderParams(cfg, 1.0)
        # at z0 = 0.85, n = 1000 has h_n = 0.2512 > 0.15
        with pytest.raises(ValueError, match="leaves"):
            WeakHolderParams(EstimatorConfig(n=1_000, beta=2.0, z0=0.85), 0.1)


# ---------------------------------------------------------------------------
# certificates against a per-probe reference loop
# ---------------------------------------------------------------------------


def _reference_certificate(S, z0, delta, beta, hs,
                           resolution=DEFAULT_SUP_RESOLUTION):
    """The certificate computed probe by probe: one composite_simpson
    integral per bandwidth, with S(z0) evaluated for each, keeping the
    first strictly larger defect."""
    x = np.linspace(0.0, 1.0, resolution)
    d = np.asarray(S.deriv(x), dtype=float)
    if d.shape != x.shape:
        d = np.broadcast_to(d, x.shape).astype(float)
    sup_deriv = float(np.max(np.abs(d)))
    max_defect, worst_h = -1.0, float(hs[0])
    for h in hs:
        h = float(h)
        s0 = float(np.asarray(S.eval(z0), dtype=float))
        integral = composite_simpson(
            lambda u: np.asarray(S.eval(z0 + h * u), dtype=float) - s0,
            -1.0, 1.0, INTEGRAL_QUAD_PANELS)
        defect = abs(integral) / h ** beta
        if defect > max_defect:
            max_defect, worst_h = defect, h
    return GridCertificate(
        certified=sup_deriv <= 1.0 / delta and max_defect <= delta,
        sup_deriv=sup_deriv, max_defect=max_defect, worst_h=worst_h)


def _all_curves(z0, delta, beta, n, fixed_curves):
    return [*family_candidates(z0, delta),
            family_bump(EstimatorConfig(n=n, beta=beta, z0=z0), delta),
            *fixed_curves(z0).values()]


_CELLS = [(0.5, 1000, 0.2, 2.0), (0.5, 3000, 0.1, 2.0),
          (0.5, 100_000, 0.05, 2.0), (0.3, 5000, 0.1, 1.6)]


@pytest.mark.parametrize("z0,n,delta,beta", _CELLS)
def test_certificate_matches_per_probe_loop(z0, n, delta, beta, fixed_curves):
    # on the bandwidth class (the one probe h_n) and on the probe grid
    cfg = EstimatorConfig(n=n, beta=beta, z0=z0)
    p = WeakHolderParams(cfg, delta)
    for S in _all_curves(z0, delta, beta, n, fixed_curves):
        on_band = _reference_certificate(S, z0, delta, beta, [cfg.h])
        assert check_weak_holder(S, p) == WeakHolderReport(
            *on_band[:3]), S.label
        assert (certify_on_grid(S, z0, delta, beta)
                == _reference_certificate(S, z0, delta, beta,
                                          probe_grid(z0))), S.label


def _recorded(shapes):
    """A curve that records the shape of every array it is evaluated on."""
    def record(x):
        x = np.asarray(x, dtype=float)
        shapes.append(x.shape)
        return np.cos(3.0 * x)

    return FunctionSpec("recorded", record, lambda x: -3.0 * np.sin(3.0 * x))


def test_certificate_evaluates_curve_once():
    """S is evaluated at z0 once and on the Simpson nodes once."""
    shapes = []
    on_band(_recorded(shapes), 0.5, 0.2, 2.0)
    assert shapes == [(), (2 * INTEGRAL_QUAD_PANELS + 1,)]


@pytest.mark.parametrize("n, delta", [(400, 0.3), (1_000, 0.1),
                                      (10_000, 0.05), (100_000, 0.2)])
def test_defect_is_the_decomposition_integral(n, delta, mixed_scale):
    # one Simpson rule for the window integral: the bandwidth-class defect
    # is decompose's integral term over h_n^beta, bit for bit
    cfg = EstimatorConfig(n=n, beta=2.0, z0=0.5)
    params = WeakHolderParams(cfg, delta)
    for S in default_family(cfg, delta):
        integral = decompose(S, mixed_scale, cfg).integral_term
        assert check_weak_holder(S, params).max_defect == \
            abs(integral) / cfg.h ** cfg.beta


# ---------------------------------------------------------------------------
# fail closed on non-finite curves, reject ambiguous input
# ---------------------------------------------------------------------------


class TestFailClosed:
    def test_all_nan_curve_not_certified(self, certify):
        S = FunctionSpec("nan", lambda x: np.full(np.shape(x), np.nan),
                         lambda x: np.full(np.shape(x), np.nan))
        rep = certify(S, 0.5, 0.2, 2.0)
        assert not rep.certified
        assert math.isnan(rep.max_defect)
        assert math.isnan(rep.sup_deriv)

    def test_nan_defect_on_wide_probes_not_certified(self):
        # finite near z0 and a zero derivative everywhere, but NaN beyond
        # |x - z0| > 0.3: only windows wider than 0.3 see it
        def values(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x - 0.5) > 0.3, np.nan, 0.0)

        S = FunctionSpec("nan_tails", values, lambda x: np.zeros(np.shape(x)))
        on_grid = certify_on_grid(S, 0.5, 0.2, 2.0)
        assert math.isnan(on_grid.max_defect)
        assert on_grid.worst_h == GRID[0]
        # h_n = 0.398 at n = 100 sees it, h_n = 0.251 at n = 1000 does not
        for rep in (on_grid, on_band(S, 0.5, 0.2, 2.0, n=100)):
            assert not rep.certified
            assert math.isnan(rep.max_defect)
            assert rep.sup_deriv == 0.0
        assert on_band(S, 0.5, 0.2, 2.0, n=1_000).max_defect == 0.0

    def test_nan_derivative_sample_not_certified(self, certify):
        def deriv(x):
            d = np.zeros(np.shape(x))
            d[len(d) // 3] = np.nan
            return d

        S = FunctionSpec("nan_slope", lambda x: np.zeros(np.shape(x)), deriv)
        rep = certify(S, 0.5, 0.2, 2.0)
        assert not rep.certified
        assert math.isnan(rep.sup_deriv)
        assert rep.max_defect == 0.0

    def test_finite_certificate_unchanged(self, certify):
        rep = certify(constant_fn(0.0), 0.5, 0.2, 2.0)
        assert rep.certified and rep.max_defect == 0.0

    @pytest.mark.parametrize("h", [math.nan, 0.0, -0.1])
    def test_bad_bandwidth_rejected(self, h):
        with pytest.raises(ValueError, match="positive"):
            weak_defect(quadratic(), 0.5, 2.0, h)

    def test_nan_point_rejected(self):
        with pytest.raises(ValueError, match="leaves"):
            weak_defect(quadratic(), math.nan, 2.0, 0.1)


# The last bandwidth the window rule accepts at z0 and the float
# after it: z0 - h >= -1e-15 binds at 0.3, both sides at 0.5 and
# z0 + h <= 1 + 1e-15 at 0.637 and 0.913.
_PROBE_EDGES = [(0.3, 0.300000000000001),
                (0.5, 0.500000000000001),
                (0.637, 0.36300000000000116),
                (0.913, 0.08700000000000117)]


@pytest.mark.parametrize("z0,h_in", _PROBE_EDGES)
def test_probe_bandwidth_edge_is_one_rule(z0, h_in):
    h_out = math.nextafter(h_in, 1.0)
    weak_defect(quadratic(), z0, 2.0, h_in)
    with pytest.raises(ValueError, match="leaves"):
        weak_defect(quadratic(), z0, 2.0, h_out)


def _accepts(build) -> bool:
    try:
        build()
    except ValueError as exc:
        assert "leaves" in str(exc)
        return False
    return True


@pytest.mark.parametrize("side", ["left", "right"])
def test_params_and_defects_share_the_window_rule(side):
    # WeakHolderParams(cfg, delta) and weak_defect decide every z0 near
    # either edge of the window rule alike, for the probe h_n
    h = EstimatorConfig(n=1_000, beta=2.0, z0=0.5).h
    z0 = h - 1e-15 if side == "left" else 1.0 - h + 1e-15
    for _ in range(64):
        z0 = math.nextafter(z0, 0.0)
    verdicts = set()
    for _ in range(128):
        z0 = math.nextafter(z0, 1.0)
        cfg = EstimatorConfig(n=1_000, beta=2.0, z0=z0)
        by_params = _accepts(lambda: WeakHolderParams(cfg, 0.1))
        assert by_params == _accepts(
            lambda: weak_defect(quadratic(), z0, 2.0, cfg.h)), z0
        verdicts.add(by_params)
    assert verdicts == {True, False}


@given(st.floats(1e-9, 1.0 - 1e-9))
def test_probe_grid_accepted(z0):
    # the widest probe, min(z0, 1 - z0), sits on the edge
    for h in probe_grid(z0).tolist():
        weak_defect(quadratic(), z0, 2.0, h)


# ---------------------------------------------------------------------------
# properties of weak_defect
# ---------------------------------------------------------------------------

# Fixed before the properties were run.  A defect is |Simpson integral| /
# h^beta over nodes of size up to about |c| + max|S| (at most 1 + |c|
# here, with |S| <= 1); re-rounding each node moves the integral by a few
# ulps of that size, so both tolerances are 1e-13 of it, over h^beta.
SHIFT_TOL = 1e-13
SCALE_TOL = 1e-13


def _skewed():
    """A curve with an even part, so its defects are not zero."""
    return FunctionSpec(
        "skewed",
        lambda x: np.exp(-x) * np.cos(2.0 * x),
        lambda x: -np.exp(-x) * (np.cos(2.0 * x) + 2.0 * np.sin(2.0 * x)))


_z0s = st.floats(0.2, 0.8)
_betas = st.floats(1.05, 2.0)
_fracs = st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5)


@given(_z0s, _betas, _fracs, st.floats(-10.0, 10.0))
def test_defects_invariant_under_constant_shift(z0, beta, fracs, c):
    hs = np.array(fracs) * min(z0, 1.0 - z0)
    base = _skewed()
    shifted = FunctionSpec("shifted", lambda x: base.eval(x) + c, base.deriv)
    for h in hs:
        got = weak_defect(shifted, z0, beta, h)
        want = weak_defect(base, z0, beta, h)
        assert abs(got - want) <= SHIFT_TOL * (1.0 + abs(c)) / h ** beta


@given(_z0s, _betas, _fracs, st.floats(-10.0, 10.0))
def test_defects_scale_with_amplitude(z0, beta, fracs, a):
    hs = np.array(fracs) * min(z0, 1.0 - z0)
    base = _skewed()
    for h in hs:
        got = weak_defect(scaled(base, a), z0, beta, h)
        want = abs(a) * weak_defect(base, z0, beta, h)
        assert abs(got - want) <= SCALE_TOL * abs(a) / h ** beta
