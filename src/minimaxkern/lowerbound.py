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
segments, so a plateau kernel is determined by nu alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .estimator import EstimatorConfig, check_beta, window_law
from .holder import check_delta
from .model import FunctionSpec, ScaleSpec, constant_fn, scale_eval
from .numerics import composite_simpson

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
    determined by its mollification width nu in (0, 1/4)."""

    nu: float
    sq_integral: float = field(init=False)

    def __post_init__(self) -> None:
        check_nu(self.nu)
        object.__setattr__(self, "sq_integral", composite_simpson(
            lambda z: self.values(z) ** 2, -1.0, 1.0, V_QUAD_PANELS))

    def values(self, x: np.ndarray) -> np.ndarray:
        """V_nu(x) = (1/nu) int Qtilde_nu(u) l((u - x)/nu) du.

        Only the transition band 1-3nu < |x| < 1 touches the CDF table (see
        ``_cdf_terms``).  Elsewhere every CDF argument saturates at 0 or 1,
        so the formula's value is exactly 1.0 on the plateau and 0.0 beyond
        the support; those points take it directly, cut with a margin of
        nu/2 on each side of the band, and NaN stays in the band.  The
        result is bitwise the formula's at every point.
        """
        x = np.asarray(x, dtype=float)
        plateau, band = self._split(x)
        out = np.where(plateau, 1.0, 0.0)
        out[band] = self._cdf_terms(x[band])
        return out

    def deriv(self, x: np.ndarray) -> np.ndarray:
        """Exact derivative of V_nu from the bump itself (see
        ``_density_terms``); exactly 0.0 outside the transition band, split
        as in ``values``."""
        x = np.asarray(x, dtype=float)
        _, band = self._split(x)
        out = np.zeros(x.shape)
        out[band] = self._density_terms(x[band])
        return out

    def _split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(plateau, band) masks: |x| <= 1-3.5nu, and neither that nor
        |x| >= 1+0.5nu.  Every CDF argument lies at least 1/2 beyond +-1
        off the band."""
        ax = np.abs(x)
        plateau = ax <= 1.0 - 3.5 * self.nu
        return plateau, ~(plateau | (ax >= 1.0 + 0.5 * self.nu))

    def _cdf_terms(self, x: np.ndarray) -> np.ndarray:
        """The convolution at every point of ``x``, through the CDF table.

        Qtilde_nu has three pieces: height 1 on [-(1-2nu), 1-2nu] and
        height 2 on [1-2nu, 1-nu] and on [-(1-nu), -(1-2nu)].  They share
        the endpoints +-(1-2nu), so bump_cdf is evaluated at four points, not
        six; each shared value is dropped once its last piece is added.
        """
        inner, outer = 1.0 - 2.0 * self.nu, 1.0 - self.nu

        def cdf(e: float) -> np.ndarray:
            return bump_cdf((e - x) / self.nu)

        c_in, c_neg_in = cdf(inner), cdf(-inner)
        out = np.zeros(x.shape)
        out = out + 1.0 * (c_in - c_neg_in)
        out = out + 2.0 * (cdf(outer) - c_in)
        del c_in
        out = out + 2.0 * (c_neg_in - cdf(-outer))
        return out

    def _density_terms(self, x: np.ndarray) -> np.ndarray:
        """The derivative at every point of ``x``, piece by piece as in
        ``_cdf_terms``."""
        inner, outer = 1.0 - 2.0 * self.nu, 1.0 - self.nu

        def dens(e: float) -> np.ndarray:
            return bump((e - x) / self.nu)

        d_in, d_neg_in = dens(inner), dens(-inner)
        out = np.zeros(x.shape)
        out = out + (1.0 / self.nu) * (d_neg_in - d_in)
        out = out + (2.0 / self.nu) * (d_in - dens(outer))
        del d_in
        out = out + (2.0 / self.nu) * (dens(-outer) - d_neg_in)
        return out


def build_kernel(nu: float) -> PlateauKernel:
    """Construct the plateau kernel for a mollification width nu in (0, 1/4)."""
    return PlateauKernel(nu=nu)


def pure_noise_scale(scale: ScaleSpec, z0: float) -> float:
    """g(z0, 0), the noise scale at z0 under the pure-noise (zero) curve."""
    return scale_eval(scale, z0, constant_fn(0.0))


def sigma_nu_sq(kernel: PlateauKernel, g_z0: float) -> float:
    """sigma_nu^2 = int_{-1}^{1} V_nu^2 / g_z0^2."""
    return kernel.sq_integral / g_z0 ** 2


@dataclass(frozen=True)
class PerturbationSpec:
    """Window-localized perturbation S(x) = (u/phi_n) V_nu((x - z0)/h).

    ``cfg`` is the operating point (n, beta, z0); it validates them and
    owns h, phi_n and the window.
    """

    kernel: PlateauKernel
    u: float
    n: int
    beta: float
    z0: float
    cfg: EstimatorConfig = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cfg", EstimatorConfig(
            n=self.n, beta=self.beta, z0=self.z0))

    @property
    def amplitude(self) -> float:
        """Peak value u/phi_n at z0."""
        return self.u / self.cfg.phi_n

    def to_function(self, label: str | None = None) -> FunctionSpec:
        amp = self.amplitude
        h, z0, kern = self.cfg.h, self.z0, self.kernel
        return FunctionSpec(
            label=label or f"bump(nu={kern.nu:g},u={self.u:g},n={self.n})",
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
    ratio = 2.0 * l_prime_sup * delta / nu ** 2
    if ratio <= 1.0:
        return 1
    return int(math.ceil(ratio ** ((2.0 * beta + 1.0) / (beta - 1.0))))


def _window_terms(pert: PerturbationSpec, scale: ScaleSpec
                  ) -> tuple[np.ndarray, np.ndarray, float]:
    """(V values, g values, varsigma_n^2) over the estimation window."""
    cfg = pert.cfg
    vvals = pert.kernel.values((cfg.window_x - cfg.z0) / cfg.h)
    g_w = window_law(pert.to_function(), scale, cfg).g_window
    vs = float(np.sum((vvals / g_w) ** 2)) / cfg.phi_n ** 2
    return vvals, g_w, vs


def varsigma_sq(pert: PerturbationSpec, scale: ScaleSpec) -> tuple[float, float]:
    """Shift variance of the likelihood ratio and its large-n limit.

    Returns (varsigma_n^2, sigma_nu^2) with
    varsigma_n^2 = (1/phi_n^2) sum_k V_nu^2((x_k-z0)/h) / g^2(x_k, S) and
    sigma_nu^2 = int_{-1}^{1} V_nu^2 / g^2(z0, 0).
    """
    vs = _window_terms(pert, scale)[2]
    return vs, sigma_nu_sq(pert.kernel, pure_noise_scale(scale, pert.z0))


def shift_statistic(pert: PerturbationSpec, scale: ScaleSpec,
                    y: np.ndarray) -> tuple[float, float]:
    """(eta_n, varsigma_n) for an observation vector of length n.

    eta_n = (1/(varsigma_n phi_n)) sum_k V_nu((x_k-z0)/h) y_k / g^2(x_k, S);
    under the pure-noise law it is standard Gaussian.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (pert.n,):
        raise ValueError(f"expected {pert.n} observations, got shape {y.shape}")
    vvals, g_w, vs = _window_terms(pert, scale)
    varsigma = math.sqrt(vs)
    eta = float(np.sum(vvals * y[pert.cfg.window_slice] / g_w ** 2)) / (
        varsigma * pert.cfg.phi_n)
    return eta, varsigma


def log_likelihood_ratio(u: float, pert: PerturbationSpec, scale: ScaleSpec,
                         y: np.ndarray) -> float:
    """Log of the Gaussian likelihood ratio between the perturbed-mean and
    pure-noise laws at amplitude u: u varsigma eta - u^2 varsigma^2 / 2."""
    at_u = replace(pert, u=float(u))
    eta, varsigma = shift_statistic(at_u, scale, y)
    return u * varsigma * eta - 0.5 * u * u * varsigma * varsigma


def likelihood_ratio(u: float, pert: PerturbationSpec, scale: ScaleSpec,
                     y: np.ndarray) -> float:
    """Gaussian likelihood ratio exp(log_likelihood_ratio); math.inf once
    the ratio exceeds the float range."""
    try:
        return math.exp(log_likelihood_ratio(u, pert, scale, y))
    except OverflowError:
        return math.inf


def bayes_bound(kernel: PlateauKernel, b: float, g_z0: float) -> float:
    """Closed-form Bayes-risk lower bound for the kernel V_nu and prior cap b.

    Value: (sigma_nu / sqrt(2 pi)) * ((b - sqrt(b))/b)
           * int_{-sqrt(b)}^{sqrt(b)} (|t|/g_z0) exp(-sigma_nu^2 t^2 / 2) dt,
    with sigma_nu^2 = int V_nu^2 / g_z0^2.  The t-integral is exact:
    (2/(g_z0 sigma_nu^2)) (1 - exp(-sigma_nu^2 b/2)), evaluated through
    expm1.  Increases in b and tends to 1/sqrt(pi) as b -> inf, nu -> 0.
    """
    check_b(b)
    if not 0.0 < g_z0 < math.inf:
        raise ValueError(f"g_z0 must be positive and finite, got {g_z0}")
    sigma_sq = sigma_nu_sq(kernel, g_z0)
    sigma = math.sqrt(sigma_sq)
    root_b = math.sqrt(b)
    integral = 2.0 / g_z0 * -math.expm1(-0.5 * sigma_sq * b) / sigma_sq
    return sigma / math.sqrt(2.0 * math.pi) * ((b - root_b) / b) * integral
