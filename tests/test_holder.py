import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import probe_grid
from minimaxkern.holder import (DEFAULT_SUP_RESOLUTION, DEFECT_QUAD_PANELS,
                                WeakHolderParams, WeakHolderReport,
                                check_weak_holder, weak_defects)
from minimaxkern.estimator import EstimatorConfig
from minimaxkern.model import FunctionSpec, constant_fn, linear_fn
from minimaxkern.numerics import composite_simpson
from minimaxkern.risk import family_bump, family_candidates


def quadratic():
    return FunctionSpec("sq", lambda x: x ** 2, lambda x: 2.0 * x)


def scaled(S, c):
    return FunctionSpec(f"{c}*{S.label}",
                        lambda x: c * S.eval(x), lambda x: c * S.deriv(x))


class TestWeakDefect:
    def test_constant_zero(self):
        assert weak_defects(constant_fn(4.2), 0.5, 2.0, [0.3])[0] == 0.0

    def test_linear_zero_by_symmetry(self):
        assert weak_defects(linear_fn(1.0), 0.5, 1.8, [0.25])[0] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("h", [0.05, 0.2, 0.45])
    def test_quadratic_closed_form(self, h):
        # int (2 z0 h u + h^2 u^2) du over [-1,1] = 2 h^2 / 3
        assert weak_defects(quadratic(), 0.5, 2.0, [h])[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_rejects_window_outside_unit_interval(self):
        with pytest.raises(ValueError):
            weak_defects(quadratic(), 0.9, 2.0, [0.2])

    @given(st.floats(-2.0, 2.0), st.floats(-3.0, 3.0))
    def test_invariant_under_affine_about_z0(self, a, b):
        # defect(S + a + b(x - z0)) = defect(S)
        z0, beta, h = 0.4, 2.0, 0.3
        base = quadratic()
        shifted = FunctionSpec(
            "shifted",
            lambda x: base.eval(x) + a + b * (x - z0),
            lambda x: base.deriv(x) + b)
        assert weak_defects(shifted, z0, beta, [h])[0] == pytest.approx(
            weak_defects(base, z0, beta, [h])[0], abs=1e-10)

    def test_holder_ball_defect_bound(self):
        # members of H(M, K, beta) have defect at most 2K/(beta (beta+1))
        beta = 2.0
        for c in (0.5, 1.0, 2.0):
            S = scaled(quadratic(), c)  # K = 2c exactly
            bound = 2.0 * (2.0 * c) / (beta * (beta + 1.0))
            for h in (0.1, 0.3):
                assert weak_defects(S, 0.5, beta, [h])[0] <= bound + 1e-12


GRID = probe_grid(0.5)


class TestWeakHolderClass:
    def test_zero_always_certified(self):
        p = WeakHolderParams(z0=0.5, delta=0.3, beta=2.0, h_grid=GRID)
        assert check_weak_holder(constant_fn(0.0), p).certified

    def test_quadratic_fails_small_delta(self):
        # defect 2/3 exceeds delta = 0.5 at every window
        p = WeakHolderParams(z0=0.5, delta=0.5, beta=2.0, h_grid=GRID)
        rep = check_weak_holder(quadratic(), p)
        assert not rep.certified
        # tiny-h probes amplify quadrature roundoff, hence the looser bound
        assert rep.max_defect == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_ball_containment(self):
        # H(1/delta, delta*beta*(beta+1)/2, beta) members certify; probe
        # strictly inside the ball to stay clear of float boundary ties
        delta, beta = 0.4, 2.0
        k_cap = delta * beta * (beta + 1.0) / 2.0
        c = 0.45 * k_cap  # quadratic c x^2 has K = 2c and sup|S'| = 2c
        S = scaled(quadratic(), c)
        assert check_weak_holder(S, WeakHolderParams(
            z0=0.5, delta=delta, beta=beta, h_grid=GRID)).certified

    @pytest.mark.parametrize("c", [1.0, 0.5, 0.1, -0.7])
    def test_shrinking_preserves_membership(self, c):
        p = WeakHolderParams(z0=0.5, delta=0.25, beta=2.0, h_grid=GRID)
        base = FunctionSpec(
            "dip", lambda x: 0.06 * np.cos(3.0 * (x - 0.5)),
            lambda x: -0.18 * np.sin(3.0 * (x - 0.5)))
        assert check_weak_holder(base, p).certified
        assert check_weak_holder(scaled(base, c), p).certified

    def test_steep_derivative_rejected(self):
        p = WeakHolderParams(z0=0.5, delta=0.2, beta=2.0, h_grid=GRID)
        rep = check_weak_holder(linear_fn(6.0), p)  # sup|S'| = 6 > 5
        assert not rep.certified
        assert rep.sup_deriv > 1.0 / p.delta

    def test_probe_grid_shape(self):
        grid = probe_grid(0.3)
        assert grid.size == 32
        assert grid[0] == pytest.approx(0.3)
        assert np.all(np.diff(grid) < 0)
        assert grid[1] / grid[0] == pytest.approx(0.7)

    def test_params_are_values(self):
        # the probe bandwidths are a tuple of floats, so params compare and
        # hash by value and can key a memo
        p = WeakHolderParams(0.5, 0.1, 2.0, GRID)
        assert p == WeakHolderParams(0.5, 0.1, 2.0, GRID.tolist())
        assert hash(p) == hash(WeakHolderParams(0.5, 0.1, 2.0, GRID))
        assert p.h_grid == tuple(GRID.tolist())
        single = WeakHolderParams(0.5, 0.1, 2.0, h_grid=np.array([0.3]))
        assert single.h_grid == (0.3,)
        assert single == WeakHolderParams(0.5, 0.1, 2.0, h_grid=[0.3])
        assert single != p

    def test_params_validation(self):
        with pytest.raises(TypeError, match="h_grid"):  # no default class
            WeakHolderParams(z0=0.5, delta=0.1, beta=2.0)
        with pytest.raises(ValueError):
            WeakHolderParams(z0=0.0, delta=0.1, beta=2.0, h_grid=[0.3])
        with pytest.raises(ValueError):
            WeakHolderParams(z0=0.5, delta=1.0, beta=2.0, h_grid=[0.3])
        with pytest.raises(ValueError):
            WeakHolderParams(z0=0.5, delta=0.1, beta=2.0,
                             h_grid=np.array([0.7]))  # leaves [0, 1]

    @pytest.mark.parametrize("h_grid", [[0.3, 0.3], [0.3, 0.2, 0.3]])
    def test_repeated_bandwidth_rejected(self, h_grid):
        # a repeated probe adds nothing to the certificate but would make
        # the params unequal to those of its distinct grid, so the
        # certificate memo would compute the same certificate twice
        with pytest.raises(ValueError, match="distinct"):
            WeakHolderParams(z0=0.5, delta=0.1, beta=2.0, h_grid=h_grid)
        # the defects themselves do not mind a repeated probe
        defects = weak_defects(quadratic(), 0.5, 2.0, h_grid)
        assert defects[0] == defects[h_grid.index(0.3, 1)]


# ---------------------------------------------------------------------------
# one-pass certificates: weak_defects on all probes against a per-probe loop
# ---------------------------------------------------------------------------


def _reference_report(S, p, resolution=DEFAULT_SUP_RESOLUTION):
    """The certificate computed probe by probe: one composite_simpson
    integral per bandwidth, with S(z0) evaluated for each, keeping the
    first strictly larger defect."""
    x = np.linspace(0.0, 1.0, resolution)
    d = np.asarray(S.deriv(x), dtype=float)
    if d.shape != x.shape:
        d = np.broadcast_to(d, x.shape).astype(float)
    sup_deriv = float(np.max(np.abs(d)))
    max_defect, worst_h = -1.0, float(p.h_grid[0])
    for h in p.h_grid:
        h = float(h)
        s0 = float(np.asarray(S.eval(p.z0), dtype=float))
        integral = composite_simpson(
            lambda u: np.asarray(S.eval(p.z0 + h * u), dtype=float) - s0,
            -1.0, 1.0, DEFECT_QUAD_PANELS)
        defect = abs(integral) / h ** p.beta
        if defect > max_defect:
            max_defect, worst_h = defect, h
    return WeakHolderReport(
        certified=sup_deriv <= 1.0 / p.delta and max_defect <= p.delta,
        sup_deriv=sup_deriv, max_defect=max_defect, worst_h=worst_h)


def _all_curves(z0, delta, beta, n, fixed_curves):
    return [*family_candidates(z0, delta),
            family_bump(EstimatorConfig(n=n, beta=beta, z0=z0), delta),
            *fixed_curves(z0).values()]


_CELLS = [(0.5, 1000, 0.2, 2.0), (0.5, 3000, 0.1, 2.0),
          (0.5, 100_000, 0.05, 2.0), (0.3, 5000, 0.1, 1.6)]


@pytest.mark.parametrize("z0,n,delta,beta", _CELLS)
def test_certificate_matches_per_probe_loop(z0, n, delta, beta, fixed_curves):
    p = WeakHolderParams(z0=z0, delta=delta, beta=beta, h_grid=probe_grid(z0))
    for S in _all_curves(z0, delta, beta, n, fixed_curves):
        assert check_weak_holder(S, p) == _reference_report(S, p), S.label


# One probe (the bandwidth class), three probes, and the whole probe grid.
_PROBE_COUNTS = (1, 3, len(GRID))


@pytest.mark.parametrize("count", _PROBE_COUNTS)
def test_certificate_independent_of_probe_split(count, fixed_curves):
    # the defects of the grid, computed `count` probes per call, are the
    # defects of one call on the whole grid, bit for bit, on every curve
    p = WeakHolderParams(z0=0.5, delta=0.1, beta=2.0, h_grid=GRID)
    for S in _all_curves(0.5, 0.1, 2.0, 3000, fixed_curves):
        whole = weak_defects(S, p.z0, p.beta, p.h_grid)
        split = np.concatenate([
            weak_defects(S, p.z0, p.beta, p.h_grid[i:i + count])
            for i in range(0, len(p.h_grid), count)])
        assert split.tolist() == whole.tolist(), S.label


@pytest.mark.parametrize("count", _PROBE_COUNTS)
def test_one_curve_evaluation_for_all_probes(count):
    """S is evaluated at z0 once and on the (probes, nodes) array once."""
    shapes = []

    def record(x):
        x = np.asarray(x, dtype=float)
        shapes.append(x.shape)
        return np.cos(3.0 * x)

    S = FunctionSpec("recorded", record, lambda x: -3.0 * np.sin(3.0 * x))
    p = WeakHolderParams(z0=0.5, delta=0.2, beta=2.0, h_grid=GRID[:count])
    check_weak_holder(S, p)
    assert shapes == [(), (count, 2 * DEFECT_QUAD_PANELS + 1)]


def test_one_probe_defect_equals_blocked_defect():
    # one call over several probes gives each probe's defect bit for bit
    hs = probe_grid(0.5)[::5]
    batched = weak_defects(quadratic(), 0.5, 2.0, hs)
    assert batched.shape == hs.shape
    assert [weak_defects(quadratic(), 0.5, 2.0, [float(h)])[0] for h in hs] \
        == batched.tolist()


# ---------------------------------------------------------------------------
# fail closed on non-finite curves, reject ambiguous input
# ---------------------------------------------------------------------------


class TestFailClosed:
    P = WeakHolderParams(z0=0.5, delta=0.2, beta=2.0, h_grid=GRID)

    def test_all_nan_curve_not_certified(self):
        S = FunctionSpec("nan", lambda x: np.full(np.shape(x), np.nan),
                         lambda x: np.full(np.shape(x), np.nan))
        rep = check_weak_holder(S, self.P)
        assert not rep.certified
        assert math.isnan(rep.max_defect)
        assert math.isnan(rep.sup_deriv)

    def test_nan_defect_on_wide_probes_not_certified(self):
        # finite near z0 and a zero derivative everywhere, but NaN beyond
        # |x - z0| > 0.3: only the widest probes see it
        def values(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x - 0.5) > 0.3, np.nan, 0.0)

        S = FunctionSpec("nan_tails", values, lambda x: np.zeros(np.shape(x)))
        rep = check_weak_holder(S, self.P)
        assert not rep.certified
        assert math.isnan(rep.max_defect)
        assert rep.worst_h == self.P.h_grid[0]
        assert rep.sup_deriv == 0.0

    def test_nan_derivative_sample_not_certified(self):
        def deriv(x):
            d = np.zeros(np.shape(x))
            d[len(d) // 3] = np.nan
            return d

        S = FunctionSpec("nan_slope", lambda x: np.zeros(np.shape(x)), deriv)
        rep = check_weak_holder(S, self.P)
        assert not rep.certified
        assert math.isnan(rep.sup_deriv)
        assert rep.max_defect == 0.0

    def test_finite_certificate_unchanged(self):
        rep = check_weak_holder(constant_fn(0.0), self.P)
        assert rep.certified and rep.max_defect == 0.0

    def test_nan_bandwidth_in_grid_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            WeakHolderParams(z0=0.5, delta=0.1, beta=2.0,
                             h_grid=np.array([0.2, np.nan, 0.1]))

    @pytest.mark.parametrize("h", [math.nan, 0.0, -0.1])
    def test_bad_bandwidth_rejected(self, h):
        with pytest.raises(ValueError, match="positive"):
            weak_defects(quadratic(), 0.5, 2.0, [h])

    def test_nan_point_rejected(self):
        with pytest.raises(ValueError, match="leaves"):
            weak_defects(quadratic(), math.nan, 2.0, [0.1])


# The last bandwidth the probe-bandwidth rule accepts at z0 and the float
# after it: z0 - h >= -1e-15 binds at 0.3, both sides at 0.5 and
# z0 + h <= 1 + 1e-15 at 0.637 and 0.913.
_PROBE_EDGES = [(0.3, 0.300000000000001),
                (0.5, 0.500000000000001),
                (0.637, 0.36300000000000116),
                (0.913, 0.08700000000000117)]


@pytest.mark.parametrize("z0,h_in", _PROBE_EDGES)
def test_probe_bandwidth_edge_is_one_rule(z0, h_in):
    # WeakHolderParams and weak_defects decide both sides of the edge alike
    h_out = math.nextafter(h_in, 1.0)
    WeakHolderParams(z0=z0, delta=0.1, beta=2.0, h_grid=np.array([h_in]))
    weak_defects(quadratic(), z0, 2.0, [h_in])
    with pytest.raises(ValueError, match="leaves"):
        WeakHolderParams(z0=z0, delta=0.1, beta=2.0, h_grid=np.array([h_out]))
    with pytest.raises(ValueError, match="leaves"):
        weak_defects(quadratic(), z0, 2.0, [h_out])


@given(st.floats(1e-9, 1.0 - 1e-9))
def test_probe_grid_accepted(z0):
    # the widest probe, min(z0, 1 - z0), sits on the edge
    grid = WeakHolderParams(z0=z0, delta=0.1, beta=2.0,
                            h_grid=probe_grid(z0)).h_grid
    weak_defects(quadratic(), z0, 2.0, grid[:1])


# ---------------------------------------------------------------------------
# properties of weak_defects
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
    got = weak_defects(shifted, z0, beta, hs)
    want = weak_defects(base, z0, beta, hs)
    assert np.all(np.abs(got - want) <= SHIFT_TOL * (1.0 + abs(c)) / hs ** beta)


@given(_z0s, _betas, _fracs, st.floats(-10.0, 10.0))
def test_defects_scale_with_amplitude(z0, beta, fracs, a):
    hs = np.array(fracs) * min(z0, 1.0 - z0)
    base = _skewed()
    got = weak_defects(scaled(base, a), z0, beta, hs)
    want = abs(a) * weak_defects(base, z0, beta, hs)
    assert np.all(np.abs(got - want) <= SCALE_TOL * abs(a) / hs ** beta)
