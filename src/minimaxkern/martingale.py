"""Truncation split of the normalized noise sum and its CLT diagnostics.

The normalized stochastic term zeta_tilde = zeta_n / g(z0, S) is a sum of
scaled noises over the estimation window.  Truncating each noise at
a = q_n^(1/4) and re-centering yields a bounded martingale-difference part
(whose sum approaches a standard Gaussian uniformly over the noise class)
plus a tail part whose second moment is (G_n/q_n) * K_p(a), with
K_p(a) = E[xi^2 1{|xi| > a}] and G_n the window sum of g^2(x_k,S)/g^2(z0,S).

Truncated moments are the closed forms the noise law carries (every law
carries ``tail_second_moment`` and ``truncated_mean``), so they are exact
to rounding: a centering error would bias the split directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import EstimatorConfig, WindowLaw, window_law
from .model import (FunctionSpec, NoiseSpec, ScaleSpec, check_reps, replicate,
                    rng_from_seed)
from .numerics import ks_statistic, normal_cdf


def check_threshold(a: float) -> None:
    """The one definition of the truncation-threshold rule: 0 < a < inf."""
    if not 0.0 < a < math.inf:
        raise ValueError(f"a must be positive and finite, got {a}")


def tail_second_moment(noise: NoiseSpec, a: float) -> float:
    """K_p(a) = E[xi^2 1{|xi| > a}]."""
    check_threshold(a)
    return float(noise.tail_second_moment(a))


def truncated_mean(noise: NoiseSpec, a: float) -> float:
    """E[xi 1{|xi| <= a}] (zero for the symmetric catalog entries)."""
    check_threshold(a)
    return float(noise.truncated_mean(a))


def truncated_variance(noise: NoiseSpec, a: float) -> float:
    """Var(xi 1{|xi| <= a}) from the law's two closed forms."""
    m = truncated_mean(noise, a)
    second = noise.variance - tail_second_moment(noise, a)
    return second - m * m


@dataclass(frozen=True)
class TruncationReport:
    """Summary of one truncation split at threshold a = q_n^(1/4)."""

    a_threshold: float
    a_n: float
    k_p: float
    g_n_over_qn: float
    r_n: float
    tau_n: int
    second_moment_zeta_dd: float


@dataclass(frozen=True)
class RealizedSplit:
    """One realized decomposition zeta_tilde = zeta_prime + zeta_dd."""

    zeta_prime: float
    zeta_dd: float
    xi: np.ndarray  # the window draws that produced the split


def _split_terms(law: WindowLaw, noise: NoiseSpec
                 ) -> tuple[TruncationReport, np.ndarray]:
    """``truncation_report`` from the window law, and the summands' scales
    g(x_k,S)/(g(z0,S) sqrt(q_n)) over the window."""
    cfg = law.cfg
    a = cfg.q_n ** 0.25
    k_p = tail_second_moment(noise, a)
    m_above = noise.mean - truncated_mean(noise, a)
    a_n = truncated_variance(noise, a)
    ratio = law.g_window / law.g0
    g_n_over_qn = float(np.sum(ratio ** 2)) / cfg.q_n
    return TruncationReport(
        a_threshold=a,
        a_n=a_n,
        k_p=k_p,
        g_n_over_qn=g_n_over_qn,
        r_n=g_n_over_qn * a_n,
        tau_n=cfg.k_hi,
        second_moment_zeta_dd=g_n_over_qn * (k_p - m_above ** 2),
    ), ratio / math.sqrt(cfg.q_n)


def truncation_report(S: FunctionSpec, scale: ScaleSpec, noise: NoiseSpec,
                      cfg: EstimatorConfig) -> TruncationReport:
    """The deterministic summary of the split at a = q_n^(1/4); it draws
    nothing."""
    return _split_terms(window_law(S, scale, cfg), noise)[0]


def truncation_split(S: FunctionSpec, scale: ScaleSpec, noise: NoiseSpec,
                     cfg: EstimatorConfig, seed: int
                     ) -> tuple[TruncationReport, RealizedSplit]:
    """``truncation_report`` plus one drawn run split at a = q_n^(1/4).

    zeta_prime sums the re-centered bounded parts up to the stopping index
    tau_n (the index of the last window point, where the conditional
    variance budget is exhausted); zeta_dd sums the tail parts.  Their sum
    reconstructs zeta_n / g(z0, S) exactly.
    """
    report, scale_fac = _split_terms(window_law(S, scale, cfg), noise)
    a = report.a_threshold
    m_below = truncated_mean(noise, a)
    m_above = noise.mean - m_below

    rng = rng_from_seed(seed)
    xi = np.asarray(noise.sampler(rng, cfg.q_n), dtype=float)
    below = np.abs(xi) <= a
    u_prime = scale_fac * (np.where(below, xi, 0.0) - m_below)
    u_dd = scale_fac * (np.where(below, 0.0, xi) - m_above)

    realized = RealizedSplit(
        zeta_prime=float(np.sum(u_prime)),
        zeta_dd=float(np.sum(u_dd)),
        xi=xi,
    )
    return report, realized


#: Fewest replications ``normal_approx_check`` accepts.
NORMAL_CHECK_MIN_REPS = 100


def check_clt_reps(reps: int) -> None:
    """The one definition of the CLT check's replication floor."""
    if not reps >= NORMAL_CHECK_MIN_REPS:
        raise ValueError(f"reps must be >= {NORMAL_CHECK_MIN_REPS}")


def normal_approx_check(S: FunctionSpec, scale: ScaleSpec, noise: NoiseSpec,
                        cfg: EstimatorConfig, reps: int, seed: int) -> float:
    """Kolmogorov-Smirnov distance of simulated zeta_tilde draws to the
    standard Gaussian CDF."""
    check_clt_reps(reps)
    law = window_law(S, scale, cfg)  # _split_terms's weights, without its moments
    w = law.g_window / law.g0 / math.sqrt(cfg.q_n)

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
    check_reps(reps)
    report, w = _split_terms(window_law(S, scale, cfg), noise)
    a = report.a_threshold
    m_above = noise.mean - truncated_mean(noise, a)

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
