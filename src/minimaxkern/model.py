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
            lambda x: 2.0 * (np.asarray(x, dtype=float) - z0) ** 3,
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
    their atoms explicitly.
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
    atoms: tuple = ()


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
            sampler=lambda rng, size: rng.standard_normal(size),
            density=_gaussian_pdf,
            mean=0.0, variance=1.0,
            abs_moment=2.0 * math.sqrt(2.0 / math.pi),
        ),
        "uniform_std": NoiseSpec(
            label="uniform_std",
            sampler=lambda rng, size: rng.uniform(-_SQRT3, _SQRT3, size),
            density=_uniform_pdf,
            mean=0.0, variance=1.0,
            abs_moment=3.0 * _SQRT3 / 4.0,
        ),
        "rademacher": NoiseSpec(
            label="rademacher",
            sampler=lambda rng, size: 2.0 * rng.integers(0, 2, size).astype(float) - 1.0,
            density=_rademacher_pmf,
            mean=0.0, variance=1.0,
            abs_moment=1.0,
            discrete=True, atoms=((-1.0, 0.5), (1.0, 0.5)),
        ),
        "laplace_std": NoiseSpec(
            label="laplace_std",
            sampler=lambda rng, size: rng.laplace(0.0, _LAPLACE_B, size),
            density=_laplace_pdf,
            mean=0.0, variance=1.0,
            abs_moment=3.0 / math.sqrt(2.0),
        ),
        "student5_std": NoiseSpec(
            label="student5_std",
            sampler=lambda rng, size: _STUDENT_C * rng.standard_t(5.0, size),
            density=_student5_pdf,
            mean=0.0, variance=1.0,
            abs_moment=_student5_abs3(),
        ),
    }


def zero_noise() -> NoiseSpec:
    """Degenerate noiseless hook (variance 0, deliberately not a member)."""
    return NoiseSpec(
        label="zero",
        sampler=lambda rng, size: np.zeros(size),
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
    """Sub-seed for replication ``index`` under a master seed.

    Splittable counter scheme: the pair (master, index) is hashed through
    a seed sequence, so serial and parallel schedules see the same streams.
    """
    if index < 0:
        raise ValueError("replication index must be non-negative")
    ss = np.random.SeedSequence(entropy=int(master) & _MASK64, spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


def replicate(noise: NoiseSpec, q_n: int, reps: int, seed: int,
              stat: Callable[[np.ndarray], float | np.ndarray]) -> np.ndarray:
    """Evaluate ``stat`` on the window noises of ``reps`` replications.

    Replication i draws exactly q_n values from
    rng_from_seed(derive_seed(seed, i)), one replication at a time, and
    passes them to ``stat``.  Row i of the result is stat's value for
    replication i (a scalar or a fixed-shape array), so reruns are
    bit-identical.  Only one replication's draws are held at a time; a
    (reps, q_n) block is never formed.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    return np.array([
        stat(np.asarray(noise.sampler(rng_from_seed(derive_seed(seed, i)), q_n),
                        dtype=float))
        for i in range(reps)])


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
