"""Windowed-average kernel estimator at a point.

The estimator averages the observations whose design points fall in the
closed window [z0 - h, z0 + h] with bandwidth h = n^(-1/(2 beta + 1)):

    S_hat(z0) = (1/q_n) * sum_{|x_k - z0| <= h} y_k.

Its centered error splits into a deterministic bias B_n plus a Gaussian
(or CLT-normalized) average of the noise.  The bias itself splits into the
window integral of S - S(z0) plus a Riemann gap R_n that is O(1/n) on the
weak local class.  This module's window sums run ascending in k through
an exactly rounded compensated sum (``numerics.window_sum``), so results
are independent of summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import FunctionSpec, ScaleSpec, check_n, scale_profile
from .numerics import composite_simpson, folded_normal_mean, window_sum

INTEGRAL_QUAD_PANELS = 4096


def check_beta(beta: float) -> None:
    """The one definition of the smoothness rule: beta in (1, 2]."""
    if not 1.0 < beta <= 2.0:
        raise ValueError(f"beta must lie in (1, 2], got {beta}")


def check_z0(z0: float) -> None:
    """The one definition of the estimation-point rule: z0 in (0, 1)."""
    if not 0.0 < z0 < 1.0:
        raise ValueError(f"z0 must lie in (0, 1), got {z0}")


def bandwidth(n: int, beta: float) -> float:
    """h = n^(-1/(2 beta + 1))."""
    check_n(n)
    check_beta(beta)
    return float(n) ** (-1.0 / (2.0 * beta + 1.0))


def rate(n: int, beta: float) -> float:
    """phi_n = n^(beta/(2 beta + 1)); satisfies rate^2 = n * bandwidth."""
    check_n(n)
    check_beta(beta)
    return float(n) ** (beta / (2.0 * beta + 1.0))


@dataclass(frozen=True)
class EstimatorConfig:
    """Operating point (n, beta, z0) with derived bandwidth, rate and window.

    The window is the set of k with |k/n - z0| <= h, boundary ties included
    (the indicator kernel is closed on both ends; the comparison is a plain
    float <= with no epsilon so q_n is reproducible).  k_lo/k_hi are its
    first and last indices, 1-based.
    """

    n: int
    beta: float
    z0: float
    h: float = field(init=False)
    phi_n: float = field(init=False)
    k_lo: int = field(init=False)
    k_hi: int = field(init=False)
    q_n: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "h", bandwidth(self.n, self.beta))  # checks n, beta
        check_z0(self.z0)
        object.__setattr__(self, "phi_n", rate(self.n, self.beta))
        k_lo, k_hi = _window_indices(self.n, self.z0, self.h)
        object.__setattr__(self, "k_lo", k_lo)
        object.__setattr__(self, "k_hi", k_hi)
        object.__setattr__(self, "q_n", k_hi - k_lo + 1)

    @property
    def window_x(self) -> np.ndarray:
        """Design points inside the window, ascending."""
        return np.arange(self.k_lo, self.k_hi + 1, dtype=float) / self.n

    @property
    def window_slice(self) -> slice:
        """Slice selecting the window from a length-n observation vector."""
        return slice(self.k_lo - 1, self.k_hi)

    def window_of(self, y: np.ndarray) -> np.ndarray:
        """The window of a length-n observation vector, as float64: the one
        rule for observation vectors (any other shape is a ValueError)."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n,):
            raise ValueError(f"expected {self.n} observations, got shape {y.shape}")
        return y[self.window_slice]


def _window_indices(n: int, z0: float, h: float) -> tuple[int, int]:
    """First and last k in [1, n] with |k/n - z0| <= h, in O(1) memory.

    The search runs from guesses just outside floor/ceil of n(z0 -+ h)
    inward, with the float comparison of the window's definition, so n is
    never materialised as an index array (n can exceed 1e11 for the
    lower bound's membership threshold).
    """
    def inside(k: int) -> bool:
        return abs(k / n - z0) <= h

    lo_guess = max(1, int(math.floor(n * (z0 - h))) - 1)
    hi_guess = min(n, int(math.ceil(n * (z0 + h))) + 1)
    k_lo = lo_guess
    while k_lo <= hi_guess and not inside(k_lo):
        k_lo += 1
    if k_lo > hi_guess:
        raise ValueError(
            f"empty estimation window: no design point within {h} of {z0} for n={n}")
    k_hi = hi_guess
    while not inside(k_hi):
        k_hi -= 1
    return k_lo, k_hi


@dataclass(frozen=True)
class WindowLaw:
    """g over the window at one operating point: with B_n and the noise it
    fixes the law of the normalized error phi_n (B_n + sum_k g_k xi_k/q_n)/g0.
    g_window holds g(x_k, S) ascending in k, and g0 is g(z0, S)."""

    cfg: EstimatorConfig
    g_window: np.ndarray = field(compare=False, repr=False)
    g0: float

    @cached_property
    def sigma_n_sq(self) -> float:
        """Window average of g^2(x_k, S), summed on first use."""
        return window_sum(self.g_window ** 2) / self.cfg.q_n

    @cached_property
    def weights(self) -> np.ndarray:
        """g(x_k, S) / (g0 sqrt(q_n)) over the window: the scales of the
        normalized noise sum's summands (divided in place: same bits)."""
        w = self.g_window / self.g0
        w /= math.sqrt(self.cfg.q_n)
        return w

    def gaussian_abs_mean(self, b_n: float) -> float:
        """phi_n E|b_n + N(0, sigma_n^2/q_n)| / g0: the Gaussian-noise risk."""
        s = math.sqrt(self.sigma_n_sq / self.cfg.q_n)
        return self.cfg.phi_n * folded_normal_mean(b_n, s) / self.g0


def window_law(S: FunctionSpec, scale: ScaleSpec, cfg: EstimatorConfig
               ) -> WindowLaw:
    """S's window law under ``scale``: the one place g is evaluated over the
    window.  g(z0, S) rides at the end of the window's points, so one
    V-integral serves both."""
    # cfg.window_x plus a slot for z0, built in place: no second window copy
    x = np.arange(cfg.k_lo, cfg.k_hi + 2, dtype=float)
    x /= cfg.n
    x[-1] = cfg.z0
    g = scale_profile(scale, x, S)
    return WindowLaw(cfg=cfg, g_window=g[:-1], g0=float(g[-1]))


@dataclass(frozen=True)
class DecompositionReport:
    """Deterministic error decomposition at one operating point; the
    estimate itself is ``kernel_estimate`` of the observations.

    b_n            window average of S(x_k) - S(z0)
    integral_term  int_{-1}^{1} (S(z0 + h u) - S(z0)) du by quadrature
    r_n            Riemann gap q_n * B_n / phi_n^2 - integral_term
    law            the window law (g over the window, g(z0, S), sigma_n^2)
    """

    b_n: float
    integral_term: float
    r_n: float
    law: WindowLaw


def kernel_estimate(y: np.ndarray, cfg: EstimatorConfig) -> float:
    """Window average of the observations."""
    return window_sum(cfg.window_of(y)) / cfg.q_n


def decompose(S: FunctionSpec, scale: ScaleSpec, cfg: EstimatorConfig
              ) -> DecompositionReport:
    """Bias split and window law over the estimation window.

    B_n = (phi_n^2/q_n)(integral_term + r_n) holds by construction of r_n;
    the error of ``kernel_estimate`` is B_n plus the window average of
    g(x_k, S) xi_k.
    """
    # law first: its temporaries go before the window arrays (peak RSS)
    law = window_law(S, scale, cfg)
    s0 = float(S.eval(cfg.z0))
    # s_vals lives to the return: freed here, its block is split by the
    # Simpson rule's temporaries (+0.2 MB peak RSS at n = 1e5)
    s_vals = S.eval(cfg.window_x)
    b_n = window_sum(s_vals - s0) / cfg.q_n

    integral_term = composite_simpson(
        lambda u: S.eval(cfg.z0 + cfg.h * u) - s0,
        -1.0, 1.0, INTEGRAL_QUAD_PANELS)
    r_n = cfg.q_n * b_n / cfg.phi_n ** 2 - integral_term

    return DecompositionReport(b_n=b_n, integral_term=integral_term,
                               r_n=r_n, law=law)


@dataclass(frozen=True)
class SigmaRow:
    n: int
    sigma_n_sq: float
    g_sq_z0: float
    abs_gap: float


def sigma_n_limit_check(S: FunctionSpec, scale: ScaleSpec, z0: float, beta: float,
                        n_sequence: list[int]) -> list[SigmaRow]:
    """Convergence table of sigma_n^2(S) toward g^2(z0, S) along n_sequence."""
    ns = list(n_sequence)  # EstimatorConfig checks each n
    if any(b >= a for a, b in zip(ns[1:], ns)):
        raise ValueError("n_sequence must be increasing")
    rows = []
    for n in ns:
        cfg = EstimatorConfig(n=n, beta=beta, z0=z0)
        law = window_law(S, scale, cfg)
        s = law.sigma_n_sq
        g0_sq = law.g0 ** 2
        rows.append(SigmaRow(n=n, sigma_n_sq=s, g_sq_z0=g0_sq,
                             abs_gap=abs(s - g0_sq)))
    return rows
