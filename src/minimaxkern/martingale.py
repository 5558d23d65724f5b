"""Truncation split of the normalized noise sum and its CLT diagnostics.

The normalized stochastic term zeta_tilde = zeta_n / g(z0, S) is a sum of
scaled noises over the estimation window.  Truncating each noise at
a = q_n^(1/4) yields a bounded martingale-difference part (whose sum
approaches a standard Gaussian uniformly over the noise class) plus a tail
part whose second moment is (G_n/q_n) * K_p(a), with
K_p(a) = E[xi^2 1{|xi| > a}] and G_n the window sum of g^2(x_k,S)/g^2(z0,S).
Every noise law is symmetric about 0 (``model.NoiseSpec``), so
E[xi 1{|xi| <= a}] = 0 and neither part needs re-centring.

The split and its checks take the window law (``estimator.WindowLaw``) and
the noise law, which fix the law of zeta_tilde; one window law serves all.

The tail moment is the closed form the noise law carries
(``tail_second_moment``), so it is exact to rounding.  One drawn split
sums its two parts with ``numerics.window_sum``.  The Monte Carlo checks
take their weighted window sums from ``model.replicate``, the one place a
window sum is not ``window_sum``: weights ``law.weights``, and for the
tail part a sampler whose draws with |xi| <= a are zeroed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import WindowLaw
from .model import NoiseSpec, check_reps, replicate, rng_from_seed
from .numerics import ks_statistic, normal_cdf, window_sum


def check_threshold(a: float) -> None:
    """The one definition of the truncation-threshold rule: 0 < a < inf."""
    if not 0.0 < a < math.inf:
        raise ValueError(f"a must be positive and finite, got {a}")


def tail_second_moment(noise: NoiseSpec, a: float) -> float:
    """K_p(a) = E[xi^2 1{|xi| > a}]."""
    check_threshold(a)
    return float(noise.tail_second_moment(a))


def truncated_variance(noise: NoiseSpec, a: float) -> float:
    """Var(xi 1{|xi| <= a}) = variance - K_p(a): the truncated mean is 0."""
    return noise.variance - tail_second_moment(noise, a)


@dataclass(frozen=True)
class TruncationReport:
    """Summary of one truncation split at threshold a = q_n^(1/4)."""

    a_threshold: float
    a_n: float
    k_p: float
    g_n_over_qn: float
    r_n: float
    second_moment_zeta_dd: float


@dataclass(frozen=True)
class RealizedSplit:
    """One realized decomposition zeta_tilde = zeta_prime + zeta_dd."""

    zeta_prime: float
    zeta_dd: float
    xi: np.ndarray  # the window draws that produced the split


def truncation_report(law: WindowLaw, noise: NoiseSpec) -> TruncationReport:
    """The deterministic summary of the split at a = q_n^(1/4); it draws
    nothing.  G_n/q_n is the law's sigma_n^2 / g0^2."""
    a = law.cfg.q_n ** 0.25
    k_p = tail_second_moment(noise, a)
    a_n = truncated_variance(noise, a)
    g_n_over_qn = law.sigma_n_sq / law.g0 ** 2
    return TruncationReport(
        a_threshold=a,
        a_n=a_n,
        k_p=k_p,
        g_n_over_qn=g_n_over_qn,
        r_n=g_n_over_qn * a_n,
        second_moment_zeta_dd=g_n_over_qn * k_p,
    )


def truncation_split(law: WindowLaw, noise: NoiseSpec, seed: int
                     ) -> tuple[TruncationReport, RealizedSplit]:
    """``truncation_report`` plus one drawn run split at a = q_n^(1/4).

    zeta_prime sums the bounded parts up to the last window index
    ``cfg.k_hi`` (where the conditional variance budget is exhausted);
    zeta_dd sums the tail parts.  Their sum reconstructs
    zeta_n / g(z0, S) exactly.
    """
    report, scale_fac = truncation_report(law, noise), law.weights
    a = report.a_threshold

    rng = rng_from_seed(seed)
    xi = np.asarray(noise.sampler(rng, law.cfg.q_n), dtype=float)
    below = np.abs(xi) <= a
    u_prime = scale_fac * np.where(below, xi, 0.0)
    u_dd = scale_fac * np.where(below, 0.0, xi)

    realized = RealizedSplit(
        zeta_prime=window_sum(u_prime),
        zeta_dd=window_sum(u_dd),
        xi=xi,
    )
    return report, realized


#: Fewest replications ``normal_approx_check`` accepts.
NORMAL_CHECK_MIN_REPS = 100


def check_clt_reps(reps: int) -> None:
    """The one definition of the CLT check's replication floor: a Monte
    Carlo budget (``check_reps``) of at least NORMAL_CHECK_MIN_REPS."""
    check_reps(reps)
    if not reps >= NORMAL_CHECK_MIN_REPS:
        raise ValueError(f"reps must be >= {NORMAL_CHECK_MIN_REPS}")


def normal_approx_check(law: WindowLaw, noise: NoiseSpec, reps: int,
                        seed: int) -> float:
    """Kolmogorov-Smirnov distance of simulated zeta_tilde draws to the
    standard Gaussian CDF."""
    check_clt_reps(reps)
    stats = replicate(noise.sampler, [law.weights], reps, seed)[0]
    return ks_statistic(stats, normal_cdf)


def zeta_dd_moment_check(law: WindowLaw, noise: NoiseSpec, reps: int,
                         seed: int) -> tuple[float, float, float]:
    """Monte Carlo second moment of the tail part against its exact value.

    Returns (mc_estimate, mc_stderr, expected) with
    expected = (G_n/q_n) * K_p(a).
    """
    check_reps(reps)
    report = truncation_report(law, noise)
    a = report.a_threshold

    def tail_sampler(rng, size, out=None):
        xi = noise.sampler(rng, size, out=out)
        np.copyto(xi, 0.0, where=np.abs(xi) <= a)
        return xi

    z_dd = replicate(tail_sampler, [law.weights], reps, seed)[0]
    sq = z_dd * z_dd
    est = float(np.mean(sq))
    stderr = float(np.std(sq, ddof=1)) / math.sqrt(reps)
    return est, stderr, report.second_moment_zeta_dd
