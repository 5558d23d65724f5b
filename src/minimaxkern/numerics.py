"""Shared numerical helpers: fixed-panel Simpson quadrature, compensated
window sums, the standard normal CDF, the folded-normal mean and the
exact one-sample Kolmogorov-Smirnov statistic."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


def composite_simpson(f: Callable, a: float, b: float, panels: int) -> float:
    """Integrate ``f`` over ``[a, b]`` with a fixed number of parabolic panels.

    ``f`` receives the 2*panels + 1 equispaced nodes as a 1-D array and
    returns one value per node: any other shape, a scalar included, is a
    ValueError.  Results are deterministic for a given panel count.
    """
    if panels < 1:
        raise ValueError("panels must be a positive integer")
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    x = np.linspace(a, b, 2 * panels + 1)
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise ValueError(f"integrand gave shape {y.shape}, not {x.shape}")
    step = (b - a) / (2 * panels)
    total = y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2])
    return float(total * step / 3.0)


def window_sum(values: Sequence[float] | np.ndarray) -> float:
    """Exactly rounded sum of the values in ascending index order.

    Backed by ``math.fsum`` so the result does not depend on summation
    order; the one rule for every deterministic sum over the window (only
    the Monte Carlo sums of ``model.replicate`` are numpy row reductions).
    ``fsum`` iterates a buffer view of the values, one Python float at a
    time, so no window becomes a ``q_n``-long list.
    """
    return math.fsum(memoryview(np.asarray(values, dtype=float)))


_erfc = np.vectorize(math.erfc, otypes=[float])


def normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise, as 0.5 erfc(-x / sqrt(2)).

    The complementary error function keeps the lower tail relatively
    accurate; absolute error stays within a few 1e-16 everywhere.
    """
    return 0.5 * _erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0))


def folded_normal_mean(m: float, s: float) -> float:
    """E|X| for X ~ N(m, s^2):  s sqrt(2/pi) exp(-m^2/(2s^2)) + m (2 Phi(m/s) - 1).

    ``m`` must not be NaN and ``s`` must lie in (0, inf) (ValueError).
    """
    if math.isnan(m):
        raise ValueError("m must not be NaN")
    if not 0.0 < s < math.inf:
        raise ValueError(f"s must be positive and finite, got {s}")
    z = m / s
    return s * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * z * z) \
        + m * math.erf(z / math.sqrt(2.0))


def ks_statistic(sample: np.ndarray, cdf: Callable) -> float:
    """Exact one-sample Kolmogorov-Smirnov distance sup_x |F_n(x) - F(x)|.

    Ties are handled by right-continuity of the empirical CDF: both the
    upper (i/n) and lower ((i-1)/n) step values are compared at each
    sorted sample point.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    f = np.asarray(cdf(x), dtype=float)
    upper = np.arange(1, n + 1, dtype=float) / n
    d_plus = np.max(upper - f)
    d_minus = np.max(f - (upper - 1.0 / n))
    return float(max(d_plus, d_minus))
