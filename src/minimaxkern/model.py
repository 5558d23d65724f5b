"""Heteroscedastic regression model.

Observations are y_k = S(x_k) + g(x_k, S) * xi_k on the deterministic grid
x_k = k/n.  The noise standard deviation is a functional of the unknown
regression curve,

    g^2(x, S) = G(x, S(x)) + int_0^1 V(S(t)) dt,
    G(x, y)   = a0 + a1*x + a2*sin^2(y),      V(y) = a3*sin^2(y),

which keeps g uniformly bounded between sqrt(a0) and
sqrt(a0 + a1 + a2 + a3) and Frechet-differentiable in S.  The module also
carries the catalog of standardized noise laws (mean 0, variance 1), each
with the closed forms of its moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .numerics import composite_simpson

_MASK64 = (1 << 64) - 1

# Panel count for the int_0^1 V(S(t)) dt quadrature inside g; fixed so that
# scale evaluations are pure functions of their inputs.
SCALE_QUAD_PANELS = 2048


# ---------------------------------------------------------------------------
# design grid
# ---------------------------------------------------------------------------


def check_n(n: int) -> None:
    """The one definition of the sample-size rule: n in [1, inf)."""
    if not 1 <= n < math.inf:
        raise ValueError(f"n must be >= 1 and finite, got {n}")


def design_grid(n: int) -> np.ndarray:
    """The equispaced design x_k = k/n for k = 1..n."""
    check_n(n)
    return np.arange(1, n + 1, dtype=float) / n


# ---------------------------------------------------------------------------
# regression functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionSpec:
    """A regression curve with an evaluable value and first derivative.

    The curve contract lives here and nowhere else.  Building a spec wraps
    ``eval`` and ``deriv`` once: each then takes any x (a scalar, a list or
    an array of any shape), passes it to the given callable as a float
    array, and returns a float64 array of x's shape.  A one-value result
    is broadcast to that shape; any other shape is a ValueError.  So a
    callable uses x as given and may return a constant.  The derivative is
    expected to be consistent with the value map (checked by the test
    suite via central finite differences on smooth catalog entries).
    """

    label: str
    eval: Callable
    deriv: Callable

    def __post_init__(self) -> None:
        object.__setattr__(self, "eval", _curve(self.eval))
        object.__setattr__(self, "deriv", _curve(self.deriv))


def _curve(f: Callable) -> Callable[[object], np.ndarray]:
    """``f`` under the curve contract of ``FunctionSpec``."""

    def curve(x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(f(x), dtype=float)
        if y.shape == x.shape:
            return y
        if y.size != 1:
            raise ValueError(f"curve returned shape {y.shape} for input "
                             f"of shape {x.shape}")
        return np.full(x.shape, y.item())

    return curve


def constant_fn(c: float, label: str | None = None) -> FunctionSpec:
    c = float(c)
    return FunctionSpec(label=label or f"const({c:g})",
                        eval=lambda x: c, deriv=lambda x: 0.0)


def linear_fn(slope: float, intercept: float = 0.0, center: float = 0.0,
              label: str | None = None) -> FunctionSpec:
    """slope * (x - center) + intercept."""
    a, b, c = float(slope), float(intercept), float(center)
    return FunctionSpec(label=label or f"linear({a:g})",
                        eval=lambda x: a * (x - c) + b, deriv=lambda x: a)


def function_catalog(z0: float = 0.5) -> dict[str, FunctionSpec]:
    """Five fixed regression curves, anchored at the estimation point z0.

    Their labels are disjoint from those of ``risk.family_candidates``,
    whose members scale with the class budget delta; a config's
    ``function_list`` may name either.  The "sine" entry is intentionally
    uncertified (it carries genuine curvature at z0 and is meant for
    variance-convergence runs).
    """
    z0 = float(z0)
    return {
        "const02": constant_fn(0.2, "const02"),
        "const_neg": constant_fn(-0.4, "const_neg"),
        "linear": linear_fn(2.0, 0.0, z0, "linear"),
        "steep_linear": linear_fn(-8.0, 0.1, z0, "steep_linear"),
        "sine": FunctionSpec("sine",
                             lambda x: 0.5 * np.sin(3.0 * x),
                             lambda x: 1.5 * np.cos(3.0 * x)),
    }


# ---------------------------------------------------------------------------
# scale functionals
# ---------------------------------------------------------------------------


def check_alpha0(a: float) -> None:
    """The one definition of the rule for alpha0: in (0, inf)."""
    if not 0.0 < a < math.inf:
        raise ValueError(f"alpha0 must be positive and finite, got {a}")


def check_alpha123(a: float) -> None:
    """The one definition of the rule for alpha1..alpha3: in [0, inf)."""
    if not 0.0 <= a < math.inf:
        raise ValueError(f"alpha1..alpha3 must be non-negative and finite, got {a}")


@dataclass(frozen=True)
class ScaleSpec:
    """Variance functional g^2(x,S) = a0 + a1*x + a2*sin^2(S(x)) + a3*int sin^2(S).

    The bounds g_floor = sqrt(a0) and g_ceil = sqrt(a0+a1+a2+a3) hold for
    every curve S and every x in [0, 1].
    """

    alpha0: float
    alpha1: float = 0.0
    alpha2: float = 0.0
    alpha3: float = 0.0
    label: str = "scale"
    g_floor: float = field(init=False)
    g_ceil: float = field(init=False)

    def __post_init__(self) -> None:
        check_alpha0(self.alpha0)
        for a in (self.alpha1, self.alpha2, self.alpha3):
            check_alpha123(a)
        object.__setattr__(self, "g_floor", math.sqrt(self.alpha0))
        object.__setattr__(
            self, "g_ceil",
            math.sqrt(self.alpha0 + self.alpha1 + self.alpha2 + self.alpha3))


def scale_catalog() -> dict[str, ScaleSpec]:
    """Non-degenerate built-in scales (every entry varies with x and S)."""
    return {
        "mixed": ScaleSpec(1.0, 0.5, 0.5, 0.5, label="mixed"),
        "spatial": ScaleSpec(1.0, 0.5, 0.25, 0.0, label="spatial"),
        "oscillatory": ScaleSpec(1.0, 0.25, 1.0, 0.5, label="oscillatory"),
    }


def flat_scale(level: float = 1.0) -> ScaleSpec:
    """Constant scale g = level (degenerate special case, mostly for tests)."""
    if level <= 0:
        raise ValueError("level must be positive")
    return ScaleSpec(level * level, 0.0, 0.0, 0.0, label=f"flat({level:g})")


def _v_mean(scale: ScaleSpec, S: FunctionSpec) -> float:
    """int_0^1 a3*sin^2(S(t)) dt by the fixed Simpson rule."""
    if scale.alpha3 == 0.0:
        return 0.0
    return scale.alpha3 * composite_simpson(
        lambda t: np.sin(S.eval(t)) ** 2, 0.0, 1.0, SCALE_QUAD_PANELS)


def scale_profile(scale: ScaleSpec, x: np.ndarray, S: FunctionSpec) -> np.ndarray:
    """g(x, S) evaluated at many design points, sharing one V-integral."""
    x = np.asarray(x, dtype=float)
    g2 = scale.alpha0 + scale.alpha1 * x + _v_mean(scale, S)
    if scale.alpha2 != 0.0:
        g2 = g2 + scale.alpha2 * np.sin(S.eval(x)) ** 2
    return np.sqrt(g2)


def scale_eval(scale: ScaleSpec, x: float, S: FunctionSpec) -> float:
    """Noise standard deviation g(x, S)."""
    return float(scale_profile(scale, np.asarray([x], dtype=float), S)[0])


def scale_frechet(scale: ScaleSpec, x: float, S: FunctionSpec, f: FunctionSpec) -> float:
    """Linear term of g(x, S + f) - g(x, S) in the direction f.

    Equals (1/2g) * [a2*sin(2 S(x)) f(x) + a3 * int_0^1 sin(2 S(t)) f(t) dt].
    """
    g = scale_eval(scale, x, S)
    point_term = scale.alpha2 * math.sin(2.0 * float(S.eval(x))) * float(f.eval(x))
    if scale.alpha3 != 0.0:
        integral = composite_simpson(
            lambda t: np.sin(2.0 * S.eval(t)) * f.eval(t),
            0.0, 1.0, SCALE_QUAD_PANELS)
    else:
        integral = 0.0
    return (point_term + scale.alpha3 * integral) / (2.0 * g)


# ---------------------------------------------------------------------------
# noise catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    """A standardized noise law: its sampler, density and closed forms.

    ``abs_moment`` is the closed-form E|xi|^(2+epsilon); ``member`` tells
    whether the law lies in the moment class (mean 0, variance 1 and
    abs_moment <= L_bound).  ``density`` is the pdf (the pmf for a discrete
    law).  ``tail_second_moment`` (a -> E[xi^2 1{|xi| > a}]) and
    ``truncated_mean`` (a -> E[xi 1{|xi| <= a}]) are the closed forms the
    truncation split needs; every law carries both.  ``gaussian`` marks the
    standard normal law, the one law for which the risk has the exact
    folded-normal oracle.

    ``sampler(rng, size, out=None)`` draws ``size`` values from ``rng``.
    Given ``out`` (a C-contiguous float64 array of ``size`` values) it
    fills and returns it, allocating no temporary of that size; otherwise
    it returns a new array.  Values come in stream order: drawing a and
    then b values gives the same numbers as drawing a + b at once.
    """

    label: str
    sampler: Callable
    density: Callable
    mean: float
    variance: float
    abs_moment: float
    tail_second_moment: Callable[[float], float]
    truncated_mean: Callable[[float], float]
    epsilon: float = 1.0
    L_bound: float = 10.0
    gaussian: bool = False

    @property
    def member(self) -> bool:
        """Mean 0, variance 1 and E|xi|^(2+eps) <= L: the moment class."""
        return (self.mean == 0.0 and self.variance == 1.0
                and self.abs_moment <= self.L_bound)


_SQRT3 = math.sqrt(3.0)
_LAPLACE_B = 1.0 / math.sqrt(2.0)
_STUDENT_C = math.sqrt(3.0 / 5.0)

#: Values per chunk for samplers that numpy cannot draw into a given
#: array, and for the Laplace transform's scratch (4096 float64, 32 KiB).
SAMPLER_CHUNK = 4096


def _sample_out(size, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        return np.empty(size)
    if (out.dtype != np.float64 or not out.flags.c_contiguous
            or out.size != np.prod(size)):
        raise ValueError("out must be a C-contiguous float64 array of size values")
    return out


def _chunks(out: np.ndarray):
    """Consecutive views of at most SAMPLER_CHUNK values of contiguous out."""
    flat = out.reshape(-1)
    return (flat[i:i + SAMPLER_CHUNK] for i in range(0, flat.size, SAMPLER_CHUNK))


def _gaussian_sampler(rng, size, out=None):
    return rng.standard_normal(size, out=out)


def _uniform_sampler(rng, size, out=None):
    # -sqrt3 + 2 sqrt3 u, operation for operation what
    # rng.uniform(-sqrt3, sqrt3) computes from the same uniform
    out = rng.random(size, out=out)
    out *= 2.0 * _SQRT3
    out -= _SQRT3
    return out


def _rademacher_sampler(rng, size, out=None):
    out = _sample_out(size, out)
    for dst in _chunks(out):
        np.multiply(rng.integers(0, 2, dst.size), 2.0, out=dst)
        dst -= 1.0
    return out


def _laplace_sampler(rng, size, out=None):
    """Exact inverse CDF, one uniform u per value.

    t = (2u - 1) + 2^-53 is exact and lies on the grid of odd multiples of
    2^-53, which is symmetric about 0, so x = sign(t) b (-log1p(-|t|)) is
    finite (|x| <= 25.98 at u = 0) and exactly antisymmetric, and u >= 1/2
    gives x >= 0.  log1p is vectorised, where rng.laplace calls scalar log.
    """
    out = rng.random(size, out=out)
    out *= 2.0
    out -= 1.0 - 2.0 ** -53
    scratch = np.empty(min(SAMPLER_CHUNK, out.size))
    for t in _chunks(out):
        m = scratch[:t.size]
        np.abs(t, out=m)
        np.negative(m, out=m)
        np.log1p(m, out=m)
        np.copysign(m, t, out=t)
    out *= _LAPLACE_B
    return out


def _student5_sampler(rng, size, out=None):
    out = _sample_out(size, out)
    for dst in _chunks(out):
        np.multiply(rng.standard_t(5.0, dst.size), _STUDENT_C, out=dst)
    return out


def _zero_sampler(rng, size, out=None):
    out = _sample_out(size, out)
    out.fill(0.0)
    return out


def _gaussian_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _uniform_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= _SQRT3, 1.0 / (2.0 * _SQRT3), 0.0)


def _laplace_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-np.abs(x) / _LAPLACE_B) / (2.0 * _LAPLACE_B)


# Student-t(5) rescaled to unit variance: xi = sqrt(3/5) * T.
_T5_NORM = math.gamma(3.0) / (math.sqrt(5.0 * math.pi) * math.gamma(2.5))


def _student5_pdf(x):
    x = np.asarray(x, dtype=float) / _STUDENT_C
    return _T5_NORM * (1.0 + x * x / 5.0) ** (-3.0) / _STUDENT_C


def _gaussian_tail_moment(a: float) -> float:
    # 2 (a phi(a) + Phi(-a)); Phi(-a) = erfc(a/sqrt2)/2 keeps the far tail
    phi = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    return 2.0 * (a * phi + 0.5 * math.erfc(a * math.sqrt(0.5)))


def _uniform_tail_moment(a: float) -> float:
    return 0.0 if a >= _SQRT3 else 1.0 - a ** 3 / (3.0 * _SQRT3)


def _laplace_tail_moment(a: float) -> float:
    # 2 int_a^inf x^2 e^(-x/b) / (2b) dx = e^(-a/b) (a^2 + 2ab + 2b^2), b = 1/sqrt2
    r = a / _LAPLACE_B
    return math.exp(-r) * (a * a + r + 1.0)


def _student5_tail_moment(a: float) -> float:
    """K_p(a) = 4 P(|T_3| > a) - 3 P(|T_5| > a sqrt(5/3)) for xi = sqrt(3/5) T_5.

    In x = t/sqrt(nu), which is a/sqrt(3) for both tails,
    P(|T_3| > t) = (2/pi) [atan(1/x) - x/(1+x^2)] and
    P(|T_5| > t) = (2/pi) [atan(1/x) - x/(1+x^2) - (2/3) x/(1+x^2)^2];
    atan(1/x) in place of 1 - CDF keeps the far tail from cancelling.
    """
    x = a / _SQRT3
    s = 1.0 + x * x
    t3 = math.atan(1.0 / x) - x / s
    t5 = t3 - (2.0 / 3.0) * x / (s * s)
    return 2.0 / math.pi * (4.0 * t3 - 3.0 * t5)


def _symmetric_truncated_mean(a: float) -> float:
    return 0.0


def _rademacher_pmf(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(np.abs(x) - 1.0) < 1e-12, 0.5, 0.0)


def _student5_abs3() -> float:
    # E|T_5|^3 = 5^(3/2) Gamma(2) Gamma(1) / (sqrt(pi) Gamma(5/2)), then
    # rescaled by (3/5)^(3/2).
    t_abs3 = 5.0 ** 1.5 / (math.sqrt(math.pi) * math.gamma(2.5))
    return _STUDENT_C ** 3 * t_abs3


def noise_catalog() -> dict[str, NoiseSpec]:
    """The five standardized noise laws (all mean 0, variance 1)."""
    return {
        "gaussian": NoiseSpec(
            label="gaussian",
            sampler=_gaussian_sampler,
            density=_gaussian_pdf,
            mean=0.0, variance=1.0,
            abs_moment=2.0 * math.sqrt(2.0 / math.pi),
            gaussian=True,
            tail_second_moment=_gaussian_tail_moment,
            truncated_mean=_symmetric_truncated_mean,
        ),
        "uniform_std": NoiseSpec(
            label="uniform_std",
            sampler=_uniform_sampler,
            density=_uniform_pdf,
            mean=0.0, variance=1.0,
            abs_moment=3.0 * _SQRT3 / 4.0,
            tail_second_moment=_uniform_tail_moment,
            truncated_mean=_symmetric_truncated_mean,
        ),
        "rademacher": NoiseSpec(
            label="rademacher",
            sampler=_rademacher_sampler,
            density=_rademacher_pmf,
            mean=0.0, variance=1.0,
            abs_moment=1.0,
            tail_second_moment=lambda a: 1.0 if a < 1.0 else 0.0,  # atoms +-1
            truncated_mean=_symmetric_truncated_mean,
        ),
        "laplace_std": NoiseSpec(
            label="laplace_std",
            sampler=_laplace_sampler,
            density=_laplace_pdf,
            mean=0.0, variance=1.0,
            abs_moment=3.0 / math.sqrt(2.0),
            tail_second_moment=_laplace_tail_moment,
            truncated_mean=_symmetric_truncated_mean,
        ),
        "student5_std": NoiseSpec(
            label="student5_std",
            sampler=_student5_sampler,
            density=_student5_pdf,
            mean=0.0, variance=1.0,
            abs_moment=_student5_abs3(),
            tail_second_moment=_student5_tail_moment,
            truncated_mean=_symmetric_truncated_mean,
        ),
    }


def zero_noise() -> NoiseSpec:
    """Degenerate noiseless hook (variance 0, deliberately not a member)."""
    return NoiseSpec(
        label="zero",
        sampler=_zero_sampler,
        density=lambda x: np.where(np.asarray(x, dtype=float) == 0.0, 1.0, 0.0),
        mean=0.0, variance=0.0, abs_moment=0.0,
        tail_second_moment=lambda a: 0.0,
        truncated_mean=_symmetric_truncated_mean,
    )


def get_noise(label: str) -> NoiseSpec:
    """The catalog law or ``zero`` named ``label``: the noise-label rule."""
    if label == "zero":
        return zero_noise()
    cat = noise_catalog()
    if label not in cat:
        raise ValueError(f"unknown noise label {label!r}; "
                         f"choose from {sorted([*cat, 'zero'])}")
    return cat[label]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def rng_from_seed(seed: int) -> np.random.Generator:
    """Fresh generator for a 64-bit seed (no shared mutable state)."""
    return np.random.default_rng(np.random.SeedSequence(int(seed) & _MASK64))


def derive_seed(master: int, index: int) -> int:
    """Sub-seed number ``index`` under a master seed.

    Splittable counter scheme: the pair (master, index) is hashed through a
    seed sequence, so distinct indices give independent streams.  Callers
    use it to give each Monte Carlo cell its own seed; the replications of
    one cell share one generator (see ``replicate``).
    """
    if index < 0:
        raise ValueError("seed index must be non-negative")
    ss = np.random.SeedSequence(entropy=int(master) & _MASK64, spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


#: Size of one block of draws in ``replicate``: a block holds
#: max(1, REPLICATION_BLOCK_BYTES // (8 q_n)) replications.
REPLICATION_BLOCK_BYTES = 128 * 1024


def check_reps(reps: int) -> None:
    """The one definition of the Monte Carlo budget rule: reps >= 2."""
    if not reps >= 2:
        raise ValueError(f"reps must be >= 2, got {reps}")


def replicate(noise: NoiseSpec, q_n: int, reps: int, seed: int,
              stat: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Evaluate ``stat`` on the window noises of ``reps`` replications.

    One generator, rng_from_seed(seed), serves the whole call: replication
    i is row i of its stream read as a (reps, q_n) array.  Rows are drawn
    in blocks of ``REPLICATION_BLOCK_BYTES``, each block one sampler call of
    r * q_n values into one buffer that the call allocates once and reuses
    for every block.  ``stat`` receives the (r, q_n) block and returns r
    rows (scalars or fixed-shape arrays), computed row by row; row i of the
    result belongs to replication i.  ``stat`` may overwrite its block,
    which is redrawn before the next call, but must not return a view of
    it (ValueError).  Every catalog sampler fills its output in stream
    order, so the block size never changes a value, and reruns are
    bit-identical.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    rng = rng_from_seed(seed)
    rows = max(1, REPLICATION_BLOCK_BYTES // (8 * q_n))
    buf = np.empty(min(rows, reps) * q_n)
    blocks = []
    for start in range(0, reps, rows):
        r = min(rows, reps - start)
        # size stays positional: bench/trace_driver.py reads it from args[1]
        xi = noise.sampler(rng, r * q_n, out=buf[:r * q_n])
        block = stat(xi.reshape(r, q_n))
        if np.may_share_memory(block, buf):
            raise ValueError("stat returned a view of its block, which the "
                             "next block overwrites; return a copy")
        blocks.append(block)
    return np.concatenate(blocks)


def sample_run(S: FunctionSpec, scale: ScaleSpec, noise: NoiseSpec,
               n: int, seed: int) -> np.ndarray:
    """One observation vector y_k = S(x_k) + g(x_k, S) xi_k, bit-stable in seed."""
    x = design_grid(n)
    xi = np.asarray(noise.sampler(rng_from_seed(seed), n), dtype=float)
    return S.eval(x) + scale_profile(scale, x, S) * xi
