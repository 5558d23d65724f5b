"""Least-favorable perturbations and the Bayes-risk lower bound.

Construction chain: a normalized smooth bump l supported on (-1, 1) is
convolved (at width nu) against the two-level step profile

    Qtilde_nu = 1 on |u| <= 1-2nu,  2 on 1-2nu <= |u| <= 1-nu,  0 beyond,

giving a plateau kernel V_nu with V_nu(0) = 1, integral 2 and support in
[-1, 1].  Rescaled to the estimation window and shrunk by the rate, the
perturbations S(x) = (u/phi_n) V_nu((x - z0)/h) stay inside the weak local
class once n passes an explicit threshold, carry a Gaussian likelihood
ratio with computable shift statistics, and drive the closed-form Bayes
bound whose (b -> inf, nu -> 0) limit is 1/sqrt(pi).

The convolution is evaluated exactly from the bump's cumulative integral:
V_nu(x) is a signed combination of CDF values at piecewise-affine
arguments, so accuracy is uniform in nu (no direct grid interpolation of
the sharp plateau profile).  The bump is one fixed function (``bump``,
``bump_cdf``, ``bump_deriv_sup``), tabulated once on BUMP_SEGMENTS
segments, so a plateau kernel is determined by nu alone.  The window sums
of the likelihood ratio (varsigma_n^2 and eta_n) are ``numerics.window_sum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .estimator import EstimatorConfig, check_beta, window_law
from .holder import check_delta
from .model import FunctionSpec, ScaleSpec, constant_fn, scale_eval
from .numerics import composite_simpson, window_sum

BUMP_SEGMENTS = 4096
V_QUAD_PANELS = 32768

# |d/dz exp(-1/(1-z^2))| = 2 z exp(-1/(1-z^2)) / (1-z^2)^2 on (0, 1); its
# log-derivative 1/z - 2z/(1-z^2)^2 + 4z/(1-z^2) has the numerator
# 1 - 3 z^4, so the peak sits at z* = 3^(-1/4) (and at -z* by symmetry).
_BUMP_DERIV_ARGMAX = 3.0 ** -0.25


def _raw_bump(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    out = np.zeros(z.shape)
    inside = np.abs(z) < 1.0
    zi = z[inside]
    out[inside] = np.exp(-1.0 / (1.0 - zi * zi))
    return out


@lru_cache(maxsize=None)
def _bump_tables() -> tuple[np.ndarray, np.ndarray, float, float]:
    """Cumulative integral of the raw bump on BUMP_SEGMENTS segments.

    Returns (nodes, normalized cdf, normalizer, sup|l'|).  Each segment is
    integrated by one Simpson panel; the bump is smooth, so the table is
    accurate to well below 1e-12.  sup|l'| is the closed form
    |l'(3^(-1/4))|: the peak of |l'| solves 1 - 3 z^4 = 0 (see
    _BUMP_DERIV_ARGMAX).
    """
    nodes = np.linspace(-1.0, 1.0, BUMP_SEGMENTS + 1)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    fa = _raw_bump(nodes[:-1])
    fm = _raw_bump(mids)
    fb = _raw_bump(nodes[1:])
    seg = (nodes[1:] - nodes[:-1]) / 6.0 * (fa + 4.0 * fm + fb)
    cdf = np.concatenate(([0.0], np.cumsum(seg)))
    normalizer = float(cdf[-1])
    cdf = cdf / normalizer
    cdf[-1] = 1.0

    z = _BUMP_DERIV_ARGMAX  # |l'(z)| by the closed form above
    peak = float(_raw_bump(np.asarray([z]))[0]) * (2.0 * z / (1.0 - z * z) ** 2)
    return nodes, cdf, normalizer, peak / normalizer


def bump(z: np.ndarray) -> np.ndarray:
    """The normalized bump l(z) = exp(-1/(1-z^2)) / normalizer on (-1, 1)."""
    return _raw_bump(z) / _bump_tables()[2]


def bump_cdf(z: np.ndarray) -> np.ndarray:
    """int_{-1}^{z} l, exactly 0 below -1 and 1 above +1."""
    nodes, cdf, _, _ = _bump_tables()
    return np.interp(np.asarray(z, dtype=float), nodes, cdf, left=0.0, right=1.0)


def bump_deriv_sup() -> float:
    """sup|l'|, needed by the class membership threshold."""
    return _bump_tables()[3]


def check_nu(nu: float) -> None:
    """The one definition of the mollification-width rule: nu in (0, 1/4)."""
    if not 0.0 < nu < 0.25:
        raise ValueError(f"nu must lie in (0, 1/4), got {nu}")


def check_b(b: float) -> None:
    """The one definition of the prior-cap rule: b finite and above 1."""
    if not 1.0 < b < math.inf:
        raise ValueError(f"b must exceed 1 and be finite, got {b}")


@dataclass(frozen=True)
class PlateauKernel:
    """Mollified two-level profile V_nu, evaluable anywhere on the line and
    determined by its mollification width nu in (0, 1/4).

    ``sq_integral`` (int V_nu^2, a Simpson rule on V_QUAD_PANELS panels) is
    computed on first read and cached per kernel; only the lower-side
    quantities (``sigma_nu_sq``, ``varsigma_sq``, ``bayes_bound``) read it.
    """

    nu: float

    def __post_init__(self) -> None:
        check_nu(self.nu)

    @cached_property
    def sq_integral(self) -> float:
        """int_{-1}^{1} V_nu^2."""
        return composite_simpson(lambda z: self.values(z) ** 2, -1.0, 1.0,
                                 V_QUAD_PANELS)

    def values(self, x: np.ndarray) -> np.ndarray:
        """V_nu(x) = (1/nu) int Qtilde_nu(u) l((u - x)/nu) du: ``_convolve``
        with the bump's CDF.

        Only the transition band 1-3nu < |x| < 1 touches the CDF table.
        Elsewhere every CDF argument saturates at 0 or 1, so the formula's
        value is exactly 1.0 on the plateau and 0.0 beyond the support;
        those points take it directly, cut with a margin of nu/2 on each
        side of the band, and NaN stays in the band.  The result is bitwise
        the formula's at every point.
        """
        x = np.asarray(x, dtype=float)
        plateau, band = self._split(x)
        out = np.where(plateau, 1.0, 0.0)
        out[band] = self._convolve(x[band], bump_cdf, 1.0)
        return out

    def deriv(self, x: np.ndarray) -> np.ndarray:
        """Exact derivative of V_nu: ``_convolve`` with the bump itself,
        weighted -1/nu; exactly 0.0 outside the transition band, split as
        in ``values``."""
        x = np.asarray(x, dtype=float)
        _, band = self._split(x)
        out = np.zeros(x.shape)
        out[band] = self._convolve(x[band], bump, -1.0 / self.nu)
        return out

    def _split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(plateau, band) masks: |x| <= 1-3.5nu, and neither that nor
        |x| >= 1+0.5nu.  Every CDF argument lies at least 1/2 beyond +-1
        off the band."""
        ax = np.abs(x)
        plateau = ax <= 1.0 - 3.5 * self.nu
        return plateau, ~(plateau | (ax >= 1.0 + 0.5 * self.nu))

    def _convolve(self, x: np.ndarray, f, w: float) -> np.ndarray:
        """Sum over the pieces (height, lo, hi) of Qtilde_nu of
        height * w * (f((hi - x)/nu) - f((lo - x)/nu)), at every point of
        ``x``, piece by piece in the table's order."""
        inner, outer = 1.0 - 2.0 * self.nu, 1.0 - self.nu
        pieces = ((1.0, -inner, inner), (2.0, inner, outer),
                  (2.0, -outer, -inner))
        out = np.zeros(x.shape)
        for height, lo, hi in pieces:
            out = out + (height * w) * (f((hi - x) / self.nu)
                                        - f((lo - x) / self.nu))
        return out


@lru_cache(maxsize=None)
def build_kernel(nu: float) -> PlateauKernel:
    """The plateau kernel for a mollification width nu in (0, 1/4), built
    once per nu in a process (a kernel is a pure function of nu)."""
    return PlateauKernel(nu=nu)


def pure_noise_scale(scale: ScaleSpec, z0: float) -> float:
    """g(z0, 0), the noise scale at z0 under the pure-noise (zero) curve."""
    return scale_eval(scale, z0, constant_fn(0.0))


def sigma_nu_sq(kernel: PlateauKernel, g_z0: float) -> float:
    """sigma_nu^2 = int_{-1}^{1} V_nu^2 / g_z0^2, for g_z0 positive and
    finite (ValueError otherwise)."""
    if not 0.0 < g_z0 < math.inf:
        raise ValueError(f"g_z0 must be positive and finite, got {g_z0}")
    return kernel.sq_integral / g_z0 ** 2


@dataclass(frozen=True)
class PerturbationSpec:
    """Window-localized perturbation S(x) = (u/phi_n) V_nu((x - z0)/h).

    ``cfg`` is the operating point (n, beta, z0), which owns h, phi_n and
    the window.
    """

    kernel: PlateauKernel
    u: float
    cfg: EstimatorConfig

    @property
    def amplitude(self) -> float:
        """Peak value u/phi_n at z0."""
        return self.u / self.cfg.phi_n

    def to_function(self, label: str | None = None) -> FunctionSpec:
        amp = self.amplitude
        h, z0, kern = self.cfg.h, self.cfg.z0, self.kernel
        return FunctionSpec(
            label=label or f"bump(nu={kern.nu:g},u={self.u:g},n={self.cfg.n})",
            eval=lambda x: amp * kern.values((x - z0) / h),
            deriv=lambda x: (amp / h) * kern.deriv((x - z0) / h),
        )


def min_n_membership(nu: float, delta: float, beta: float, l_prime_sup: float) -> int:
    """Smallest n guaranteeing the unit-amplitude perturbation satisfies the
    weak-class derivative bound: ceil((2 sup|l'| delta / nu^2)^((2b+1)/(b-1))).

    For perturbations capped at amplitude b, fold the cap into the slope by
    passing b * l_prime_sup.
    """
    check_beta(beta)
    check_nu(nu)
    check_delta(delta)
    if not 0.0 < l_prime_sup < math.inf:
        raise ValueError(
            f"l_prime_sup must be positive and finite, got {l_prime_sup}")
    ratio = 2.0 * l_prime_sup * delta / nu ** 2
    if ratio <= 1.0:
        return 1
    try:
        return int(math.ceil(ratio ** ((2.0 * beta + 1.0) / (beta - 1.0))))
    except OverflowError:
        raise ValueError(f"n* exceeds the float range at nu = {nu}, "
                         f"delta = {delta}, beta = {beta}") from None


def _window_terms(pert: PerturbationSpec, scale: ScaleSpec
                  ) -> tuple[np.ndarray, np.ndarray, float]:
    """(V values, g values, varsigma_n^2) over the estimation window."""
    cfg = pert.cfg
    vvals = pert.kernel.values((cfg.window_x - cfg.z0) / cfg.h)
    g_w = window_law(pert.to_function(), scale, cfg).g_window
    vs = window_sum((vvals / g_w) ** 2) / cfg.phi_n ** 2
    return vvals, g_w, vs


def varsigma_sq(pert: PerturbationSpec, scale: ScaleSpec) -> tuple[float, float]:
    """Shift variance of the likelihood ratio and its large-n limit.

    Returns (varsigma_n^2, sigma_nu^2) with
    varsigma_n^2 = (1/phi_n^2) sum_k V_nu^2((x_k-z0)/h) / g^2(x_k, S) and
    sigma_nu^2 = int_{-1}^{1} V_nu^2 / g^2(z0, 0).
    """
    vs = _window_terms(pert, scale)[2]
    return vs, sigma_nu_sq(pert.kernel, pure_noise_scale(scale, pert.cfg.z0))


def shift_statistic(pert: PerturbationSpec, scale: ScaleSpec,
                    y: np.ndarray) -> tuple[float, float]:
    """(eta_n, varsigma_n) for an observation vector of length n.

    eta_n = (1/(varsigma_n phi_n)) sum_k V_nu((x_k-z0)/h) y_k / g^2(x_k, S);
    under the pure-noise law it is standard Gaussian.
    """
    cfg = pert.cfg
    y_w = cfg.window_of(y)
    vvals, g_w, vs = _window_terms(pert, scale)
    varsigma = math.sqrt(vs)
    eta = window_sum(vvals * y_w / g_w ** 2) / (varsigma * cfg.phi_n)
    return eta, varsigma


def log_likelihood_ratio(u: float, pert: PerturbationSpec, scale: ScaleSpec,
                         y: np.ndarray) -> float:
    """Log of the Gaussian likelihood ratio between the perturbed-mean and
    pure-noise laws at amplitude u: u varsigma eta - u^2 varsigma^2 / 2."""
    at_u = replace(pert, u=float(u))
    eta, varsigma = shift_statistic(at_u, scale, y)
    return u * varsigma * eta - 0.5 * u * u * varsigma * varsigma


def bayes_bound(kernel: PlateauKernel, b: float, g_z0: float) -> float:
    """Closed-form Bayes-risk lower bound for the kernel V_nu and prior cap b.

    Value: (sigma_nu / sqrt(2 pi)) * ((b - sqrt(b))/b)
           * int_{-sqrt(b)}^{sqrt(b)} (|t|/g_z0) exp(-sigma_nu^2 t^2 / 2) dt,
    with sigma_nu^2 = int V_nu^2 / g_z0^2.  The t-integral is exact:
    (2/(g_z0 sigma_nu^2)) (1 - exp(-sigma_nu^2 b/2)), evaluated through
    expm1.  Increases in b and tends to 1/sqrt(pi) as b -> inf, nu -> 0.
    """
    check_b(b)
    sigma_sq = sigma_nu_sq(kernel, g_z0)  # checks g_z0
    sigma = math.sqrt(sigma_sq)
    root_b = math.sqrt(b)
    integral = 2.0 / g_z0 * -math.expm1(-0.5 * sigma_sq * b) / sigma_sq
    return sigma / math.sqrt(2.0 * math.pi) * ((b - root_b) / b) * integral
