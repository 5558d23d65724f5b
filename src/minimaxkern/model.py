"""Heteroscedastic regression model.

Observations are y_k = S(x_k) + g(x_k, S) * xi_k on the deterministic grid
x_k = k/n.  The noise standard deviation is a functional of the unknown
regression curve,

    g^2(x, S) = G(x, S(x)) + int_0^1 V(S(t)) dt,
    G(x, y)   = a0 + a1*x + a2*sin^2(y),      V(y) = a3*sin^2(y),

which keeps g uniformly bounded between sqrt(a0) and
sqrt(a0 + a1 + a2 + a3) and Frechet-differentiable in S.  The module also
carries the catalog of standardized noise densities (mean 0, variance 1)
together with their moment certificates.
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


@dataclass(frozen=True)
class DesignGrid:
    """Equispaced design x_k = k/n, k = 1..n."""

    n: int
    points: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("sample size n must be >= 1")


def design_grid(n: int) -> DesignGrid:
    """Build the design grid x_k = k/n for k = 1..n."""
    if n < 1:
        raise ValueError("sample size n must be >= 1")
    pts = np.arange(1, n + 1, dtype=float) / n
    return DesignGrid(n=n, points=pts)


# ---------------------------------------------------------------------------
# regression functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionSpec:
    """A regression curve with an evaluable value and first derivative.

    Both callables must accept scalars or numpy arrays.  The derivative is
    expected to be consistent with the value map (checked by the test suite
    via central finite differences on smooth catalog entries).
    """

    label: str
    eval: Callable
    deriv: Callable


def constant_fn(c: float, label: str | None = None) -> FunctionSpec:
    c = float(c)
    return FunctionSpec(
        label=label or f"const({c:g})",
        eval=lambda x, _c=c: np.full(np.shape(x), _c),
        deriv=lambda x: np.zeros(np.shape(x)),
    )


def linear_fn(slope: float, intercept: float = 0.0, center: float = 0.0,
              label: str | None = None) -> FunctionSpec:
    """slope * (x - center) + intercept."""
    a, b, c = float(slope), float(intercept), float(center)
    return FunctionSpec(
        label=label or f"linear({a:g})",
        eval=lambda x: a * (np.asarray(x, dtype=float) - c) + b,
        deriv=lambda x: np.full(np.shape(x), a),
    )


def _cube(d):
    # d * d * d, not d ** 3: numpy's power takes a slow path on negative
    # bases (about 16x on 2.4).
    return d * d * d


def function_catalog(z0: float = 0.5) -> dict[str, FunctionSpec]:
    """Built-in regression curves, anchored at the estimation point z0.

    Amplitudes of the even-symmetry entries are sized so that they pass the
    weak local certification at delta = 0.1 for beta in (1, 2]; the "sine"
    entry is intentionally uncertified (it carries genuine curvature at z0
    and is meant for variance-convergence runs).
    """
    z0 = float(z0)
    cat = {
        "zero": constant_fn(0.0, "zero"),
        "const02": constant_fn(0.2, "const02"),
        "const_neg": constant_fn(-0.4, "const_neg"),
        "linear": linear_fn(2.0, 0.0, z0, "linear"),
        "steep_linear": linear_fn(-8.0, 0.1, z0, "steep_linear"),
        "odd_sine": FunctionSpec(
            "odd_sine",
            lambda x: 0.5 * np.sin(4.0 * (np.asarray(x, dtype=float) - z0)),
            lambda x: 2.0 * np.cos(4.0 * (np.asarray(x, dtype=float) - z0)),
        ),
        "cos_dip": FunctionSpec(
            "cos_dip",
            lambda x: 0.03 * np.cos(3.0 * (np.asarray(x, dtype=float) - z0)),
            lambda x: -0.09 * np.sin(3.0 * (np.asarray(x, dtype=float) - z0)),
        ),
        "bowl": FunctionSpec(
            "bowl",
            lambda x: 0.12 * (np.asarray(x, dtype=float) - z0) ** 2,
            lambda x: 0.24 * (np.asarray(x, dtype=float) - z0),
        ),
        "odd_cubic": FunctionSpec(
            "odd_cubic",
            lambda x: 2.0 * _cube(np.asarray(x, dtype=float) - z0),
            lambda x: 6.0 * (np.asarray(x, dtype=float) - z0) ** 2,
        ),
        "sine": FunctionSpec(
            "sine",
            lambda x: 0.5 * np.sin(3.0 * np.asarray(x, dtype=float)),
            lambda x: 1.5 * np.cos(3.0 * np.asarray(x, dtype=float)),
        ),
    }
    return cat


# ---------------------------------------------------------------------------
# scale functionals
# ---------------------------------------------------------------------------


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
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if min(self.alpha1, self.alpha2, self.alpha3) < 0:
            raise ValueError("alpha1..alpha3 must be non-negative")
        object.__setattr__(self, "g_floor", math.sqrt(self.alpha0))
        object.__setattr__(
            self, "g_ceil",
            math.sqrt(self.alpha0 + self.alpha1 + self.alpha2 + self.alpha3))

    @property
    def alphas(self) -> tuple[float, float, float, float]:
        return (self.alpha0, self.alpha1, self.alpha2, self.alpha3)


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
        lambda t: np.sin(np.asarray(S.eval(t), dtype=float)) ** 2,
        0.0, 1.0, SCALE_QUAD_PANELS)


def scale_profile(scale: ScaleSpec, x: np.ndarray, S: FunctionSpec) -> np.ndarray:
    """g(x, S) evaluated at many design points, sharing one V-integral."""
    x = np.asarray(x, dtype=float)
    g2 = scale.alpha0 + scale.alpha1 * x + _v_mean(scale, S)
    if scale.alpha2 != 0.0:
        g2 = g2 + scale.alpha2 * np.sin(np.asarray(S.eval(x), dtype=float)) ** 2
    return np.sqrt(g2)


def scale_eval(scale: ScaleSpec, x: float, S: FunctionSpec) -> float:
    """Noise standard deviation g(x, S)."""
    return float(scale_profile(scale, np.asarray([x], dtype=float), S)[0])


def scale_frechet(scale: ScaleSpec, x: float, S: FunctionSpec, f: FunctionSpec) -> float:
    """Linear term of g(x, S + f) - g(x, S) in the direction f.

    Equals (1/2g) * [a2*sin(2 S(x)) f(x) + a3 * int_0^1 sin(2 S(t)) f(t) dt].
    """
    g = scale_eval(scale, x, S)
    sx = float(np.asarray(S.eval(x), dtype=float))
    fx = float(np.asarray(f.eval(x), dtype=float))
    point_term = scale.alpha2 * math.sin(2.0 * sx) * fx
    if scale.alpha3 != 0.0:
        integral = composite_simpson(
            lambda t: np.sin(2.0 * np.asarray(S.eval(t), dtype=float))
            * np.asarray(f.eval(t), dtype=float),
            0.0, 1.0, SCALE_QUAD_PANELS)
    else:
        integral = 0.0
    return (point_term + scale.alpha3 * integral) / (2.0 * g)


# ---------------------------------------------------------------------------
# noise catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    """A standardized noise law with sampler, density and moment certificate.

    ``abs_moment`` is the closed-form E|xi|^(2+epsilon); membership in the
    moment class requires mean 0, variance 1 and abs_moment <= L_bound.
    ``density`` is the pdf for continuous entries; discrete entries carry
    their atoms explicitly.  ``tail_second_moment`` (a -> E[xi^2 1{|xi| > a}])
    and ``truncated_mean`` (a -> E[xi 1{|xi| <= a}]) are optional closed
    forms; a continuous law without them has its truncated moments
    integrated from ``density``.  ``gaussian`` marks the standard normal
    law, the one law for which the risk has the exact folded-normal oracle.

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
    epsilon: float = 1.0
    L_bound: float = 10.0
    discrete: bool = False
    gaussian: bool = False
    atoms: tuple = ()
    tail_second_moment: Callable[[float], float] | None = None
    truncated_mean: Callable[[float], float] | None = None


@dataclass(frozen=True)
class NoiseCertification:
    label: str
    mean: float
    variance: float
    abs_moment: float
    epsilon: float
    L_bound: float
    member: bool


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
            discrete=True, atoms=((-1.0, 0.5), (1.0, 0.5)),
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
        discrete=True, atoms=((0.0, 1.0),),
    )


def get_noise(label: str) -> NoiseSpec:
    if label == "zero":
        return zero_noise()
    cat = noise_catalog()
    if label not in cat:
        raise KeyError(f"unknown noise label {label!r}; "
                       f"choose from {sorted(cat)} or 'zero'")
    return cat[label]


def certify_noise(noise: NoiseSpec) -> NoiseCertification:
    """Moment certificate: mean 0, variance 1 and E|xi|^(2+eps) <= L.

    Non-member densities are flagged rather than rejected.
    """
    member = (noise.mean == 0.0
              and noise.variance == 1.0
              and noise.abs_moment <= noise.L_bound)
    return NoiseCertification(
        label=noise.label,
        mean=noise.mean,
        variance=noise.variance,
        abs_moment=noise.abs_moment,
        epsilon=noise.epsilon,
        L_bound=noise.L_bound,
        member=member,
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _seed_sequence(seed: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(int(seed) & _MASK64)


def rng_from_seed(seed: int) -> np.random.Generator:
    """Fresh generator for a 64-bit seed (no shared mutable state)."""
    return np.random.default_rng(_seed_sequence(seed))


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


def regression_curves(S: FunctionSpec, scale: ScaleSpec, n: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic parts of a run: (x_k, S(x_k), g(x_k, S))."""
    grid = design_grid(n)
    mean_vec = np.asarray(S.eval(grid.points), dtype=float)
    if mean_vec.shape != grid.points.shape:
        mean_vec = np.broadcast_to(mean_vec, grid.points.shape).astype(float)
    g_vec = scale_profile(scale, grid.points, S)
    return grid.points, mean_vec, g_vec


def sample_run(S: FunctionSpec, scale: ScaleSpec, noise: NoiseSpec,
               n: int, seed: int) -> np.ndarray:
    """One observation vector y_k = S(x_k) + g(x_k, S) xi_k, bit-stable in seed."""
    _, mean_vec, g_vec = regression_curves(S, scale, n)
    rng = rng_from_seed(seed)
    xi = np.asarray(noise.sampler(rng, n), dtype=float)
    return mean_vec + g_vec * xi
