"""Truncation split of the normalized noise sum and its CLT diagnostics.

The normalized stochastic term zeta_tilde = zeta_n / g(z0, S) is a sum of
scaled noises over the estimation window.  Truncating each noise at
a = q_n^(1/4) and re-centering yields a bounded martingale-difference part
(whose sum approaches a standard Gaussian uniformly over the noise class)
plus a tail part whose second moment is (G_n/q_n) * K_p(a), with
K_p(a) = E[xi^2 1{|xi| > a}] and G_n the window sum of g^2(x_k,S)/g^2(z0,S).

Truncated moments come from the noise law itself: its closed forms when it
carries them (every continuous catalog entry does), its atoms when it is
discrete, and otherwise adaptive quadrature of its density (tolerance
1e-10 relative); centering errors would bias the split directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import EstimatorConfig
from .model import (FunctionSpec, NoiseSpec, ScaleSpec, replicate,
                    rng_from_seed, scale_eval, scale_profile)
from .numerics import ks_statistic, normal_cdf


def _density_integral(noise: NoiseSpec, f, lo: float, hi: float) -> float:
    """int_lo^hi f(x) density(x) dx by adaptive quadrature.

    Only laws without closed-form truncated moments get here, so only they
    pay for importing scipy.
    """
    from scipy.integrate import quad

    val, _ = quad(lambda x: f(x) * noise.density(x), lo, hi,
                  epsabs=1e-12, epsrel=1e-10, limit=200)
    return float(val)


def tail_second_moment(noise: NoiseSpec, a: float) -> float:
    """K_p(a) = E[xi^2 1{|xi| > a}]."""
    if a <= 0:
        raise ValueError("a must be positive")
    if noise.tail_second_moment is not None:
        return float(noise.tail_second_moment(a))
    if noise.discrete:
        return float(sum(w * x * x for x, w in noise.atoms if abs(x) > a))
    return (_density_integral(noise, lambda x: x * x, a, math.inf)
            + _density_integral(noise, lambda x: x * x, -math.inf, -a))


def truncated_mean(noise: NoiseSpec, a: float) -> float:
    """E[xi 1{|xi| <= a}] (zero for the symmetric catalog entries)."""
    if a <= 0:
        raise ValueError("a must be positive")
    if noise.truncated_mean is not None:
        return float(noise.truncated_mean(a))
    if noise.discrete:
        return float(sum(w * x for x, w in noise.atoms if abs(x) <= a))
    return _density_integral(noise, lambda x: x, -a, a)


def truncated_variance(noise: NoiseSpec, a: float) -> float:
    """Var(xi 1{|xi| <= a}) through the same moment backends."""
    m = truncated_mean(noise, a)
    second = noise.variance - tail_second_moment(noise, a)
    return second - m * m


@dataclass(frozen=True)
class TruncationReport:
    """Summary of one truncation split at threshold a = q_n^(1/4).

    ks_distance is filled only by the replicated normal-approximation
    check; a single split carries None there.
    """

    a_threshold: float
    a_n: float
    k_p: float
    g_n_over_qn: float
    r_n: float
    tau_n: int
    second_moment_zeta_dd: float
    ks_distance: float | None = None


@dataclass(frozen=True)
class RealizedSplit:
    """One realized decomposition zeta_tilde = zeta_prime + zeta_dd."""

    zeta_prime: float
    zeta_dd: float
    xi: np.ndarray  # the window draws that produced the split


def _window_weights(S: FunctionSpec, scale: ScaleSpec, cfg: EstimatorConfig
                    ) -> tuple[np.ndarray, float]:
    """(g(x_k,S)/g(z0,S) over the window, g(z0,S))."""
    g_w = scale_profile(scale, cfg.window_x, S)
    g0 = scale_eval(scale, cfg.z0, S)
    return g_w / g0, g0


def truncation_report(S: FunctionSpec, scale: ScaleSpec, noise: NoiseSpec,
                      cfg: EstimatorConfig) -> TruncationReport:
    """The deterministic summary of the split at a = q_n^(1/4); it draws
    nothing."""
    a = cfg.q_n ** 0.25
    k_p = tail_second_moment(noise, a)
    m_above = noise.mean - truncated_mean(noise, a)
    a_n = truncated_variance(noise, a)
    ratio, _ = _window_weights(S, scale, cfg)
    g_n_over_qn = float(np.sum(ratio ** 2)) / cfg.q_n
    return TruncationReport(
        a_threshold=a,
        a_n=a_n,
        k_p=k_p,
        g_n_over_qn=g_n_over_qn,
        r_n=g_n_over_qn * a_n,
        tau_n=cfg.k_hi,
        second_moment_zeta_dd=g_n_over_qn * (k_p - m_above ** 2),
    )


def truncation_split(S: FunctionSpec, scale: ScaleSpec, noise: NoiseSpec,
                     cfg: EstimatorConfig, seed: int
                     ) -> tuple[TruncationReport, RealizedSplit]:
    """``truncation_report`` plus one drawn run split at a = q_n^(1/4).

    zeta_prime sums the re-centered bounded parts up to the stopping index
    tau_n (the index of the last window point, where the conditional
    variance budget is exhausted); zeta_dd sums the tail parts.  Their sum
    reconstructs zeta_n / g(z0, S) exactly.
    """
    report = truncation_report(S, scale, noise, cfg)
    a = report.a_threshold
    m_below = truncated_mean(noise, a)
    m_above = noise.mean - m_below

    ratio, _ = _window_weights(S, scale, cfg)
    rng = rng_from_seed(seed)
    xi = np.asarray(noise.sampler(rng, cfg.q_n), dtype=float)
    below = np.abs(xi) <= a
    scale_fac = ratio / math.sqrt(cfg.q_n)
    u_prime = scale_fac * (np.where(below, xi, 0.0) - m_below)
    u_dd = scale_fac * (np.where(below, 0.0, xi) - m_above)

    realized = RealizedSplit(
        zeta_prime=float(np.sum(u_prime)),
        zeta_dd=float(np.sum(u_dd)),
        xi=xi,
    )
    return report, realized


def normal_approx_check(S: FunctionSpec, scale: ScaleSpec, noise: NoiseSpec,
                        cfg: EstimatorConfig, reps: int, seed: int) -> float:
    """Kolmogorov-Smirnov distance of simulated zeta_tilde draws to the
    standard Gaussian CDF."""
    if reps < 100:
        raise ValueError("reps must be >= 100")
    ratio, _ = _window_weights(S, scale, cfg)
    w = ratio / math.sqrt(cfg.q_n)

    def weighted_sum(xi: np.ndarray) -> np.ndarray:
        xi *= w
        return xi.sum(axis=1)

    stats = replicate(noise, cfg.q_n, reps, seed, weighted_sum)
    return ks_statistic(stats, normal_cdf)


def zeta_dd_moment_check(S: FunctionSpec, scale: ScaleSpec, noise: NoiseSpec,
                         cfg: EstimatorConfig, reps: int, seed: int
                         ) -> tuple[float, float, float]:
    """Monte Carlo second moment of the tail part against its exact value.

    Returns (mc_estimate, mc_stderr, expected) with
    expected = (G_n/q_n) * Var(xi 1{|xi| > a}).
    """
    if reps < 2:
        raise ValueError("reps must be >= 2")
    report = truncation_report(S, scale, noise, cfg)
    a = report.a_threshold
    m_above = noise.mean - truncated_mean(noise, a)
    ratio, _ = _window_weights(S, scale, cfg)
    w = ratio / math.sqrt(cfg.q_n)

    mag = below = None  # scratch, sized by the first (largest) block

    def squared_tail_sum(xi: np.ndarray) -> np.ndarray:
        nonlocal mag, below
        if mag is None:
            mag, below = np.empty_like(xi), np.empty(xi.shape, dtype=bool)
        r = xi.shape[0]
        np.less_equal(np.abs(xi, out=mag[:r]), a, out=below[:r])
        np.copyto(xi, 0.0, where=below[:r])
        xi -= m_above
        xi *= w
        z_dd = xi.sum(axis=1)
        return z_dd * z_dd

    sq = replicate(noise, cfg.q_n, reps, seed, squared_tail_sum)
    est = float(np.mean(sq))
    stderr = float(np.std(sq, ddof=1)) / math.sqrt(reps)
    return est, stderr, report.second_moment_zeta_dd
