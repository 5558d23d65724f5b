"""Heteroscedastic regression model.

Observations are y_k = S(x_k) + g(x_k, S) * xi_k on the deterministic grid
x_k = k/n.  The noise standard deviation is a functional of the unknown
regression curve,

    g^2(x, S) = G(x, S(x)) + int_0^1 V(S(t)) dt,
    G(x, y)   = a0 + a1*x + a2*sin^2(y),      V(y) = a3*sin^2(y),

which keeps g uniformly bounded between sqrt(a0) and
sqrt(a0 + a1 + a2 + a3) and Frechet-differentiable in S.  The module also
carries the catalog of standardized noise laws (symmetric about 0,
variance 1), each with the closed forms of its moments.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numerics import composite_simpson

# Panel count for the int_0^1 V(S(t)) dt quadrature inside g; fixed so that
# scale evaluations are pure functions of their inputs.
SCALE_QUAD_PANELS = 2048


# ---------------------------------------------------------------------------
# design grid
# ---------------------------------------------------------------------------


def check_n(n: int) -> None:
    """The one definition of the sample-size rule: n an integer >= 1."""
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError(f"n must be >= 1 and an integer, got {n}")


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
    """Three fixed regression curves, anchored at the estimation point z0.

    Their labels and curves are disjoint from those of
    ``risk.family_candidates``, whose members scale with the class budget
    delta (the constants are the family's); a config's ``function_list``
    may name either.  The "sine" entry is intentionally uncertified (it
    carries genuine curvature at z0 and is meant for variance-convergence
    runs).
    """
    z0 = float(z0)
    return {
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
        "mixed": ScaleSpec(1.0, 0.5, 0.5, 0.5),
        "spatial": ScaleSpec(1.0, 0.5, 0.25, 0.0),
        "oscillatory": ScaleSpec(1.0, 0.25, 1.0, 0.5),
    }


def flat_scale(level: float = 1.0) -> ScaleSpec:
    """Constant scale g = level (degenerate special case, mostly for tests)."""
    if level <= 0:
        raise ValueError("level must be positive")
    return ScaleSpec(level * level, 0.0, 0.0, 0.0)


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


# ---------------------------------------------------------------------------
# noise catalog
# ---------------------------------------------------------------------------


#: The moment class's E|xi|^(2+MOMENT_EPSILON) bound; abs_moment is E|xi|^3.
MOMENT_EPSILON = 1.0
MOMENT_BOUND = 10.0


@dataclass(frozen=True)
class NoiseSpec:
    """A standardized noise law: its sampler and closed forms.

    Every law is symmetric about 0: xi and -xi have one law.  So its mean
    and every truncated mean E[xi 1{|xi| <= a}] are 0, and the truncation
    split re-centres nothing; a law that is not symmetric does not fit
    this spec.  ``abs_moment`` is the closed-form E|xi|^(2+MOMENT_EPSILON);
    ``member`` tells whether the law lies in the moment class (variance 1
    and abs_moment <= MOMENT_BOUND).  ``tail_second_moment``
    (a -> E[xi^2 1{|xi| > a}]) is the closed form the truncation split
    needs.  ``gaussian`` marks the standard normal law, the one law for
    which the risk has the exact folded-normal oracle.

    ``sampler(rng, size, out=None)`` draws ``size`` values from ``rng``.
    Given ``out`` (a C-contiguous float64 array of ``size`` values) it
    fills and returns it; otherwise it returns a new array.  Whatever
    ``size``, its scratch is at most 1.25 MiB and freed on return: the
    Laplace and Rademacher samplers work in chunks, and Student-t(5) in
    rounds, of at most ``_STUDENT_ROUND`` values.  Values come in stream
    order: drawing a and then b values gives the same numbers as drawing
    a + b at once.
    """

    label: str
    sampler: Callable
    variance: float
    abs_moment: float
    tail_second_moment: Callable[[float], float]
    gaussian: bool = False

    @property
    def member(self) -> bool:
        """Variance 1, abs_moment <= MOMENT_BOUND: the moment class."""
        return self.variance == 1.0 and self.abs_moment <= MOMENT_BOUND


_SQRT3 = math.sqrt(3.0)
_LAPLACE_B = 1.0 / math.sqrt(2.0)
_STUDENT_C = math.sqrt(3.0 / 5.0)
#: sup |x| (1 + x^2/5)^(-3/2), at x^2 = 5/2: the half-width of the
#: ratio-of-uniforms box for t(5).
_STUDENT_V = math.sqrt(2.5) * 1.5 ** -1.5
#: Acceptance rate of that box: (1/2) int (1 + x^2/5)^(-3) dx = 3 pi sqrt5 / 16
#: over its area 2 V, about 0.765.
_STUDENT_ACCEPT = 3.0 * math.pi * math.sqrt(5.0) / (32.0 * _STUDENT_V)
#: Most candidates one Student-t round draws; at 32 bytes of scratch and
#: up to 8 bytes of kept index per candidate a round holds at most 1.25 MiB.
#: The Laplace and Rademacher samplers work in chunks of as many values,
#: with 8 bytes of scratch each (256 KiB).
_STUDENT_ROUND = 2 ** 15


def _sample_out(size, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        return np.empty(size)
    if (out.dtype != np.float64 or not out.flags.c_contiguous
            or out.size != np.prod(size)):
        raise ValueError("out must be a C-contiguous float64 array of size values")
    return out


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
    # one integers call gives the bits of any split of it: numpy draws
    # these from buffered 32-bit halves that persist across calls, so
    # chunks of _STUDENT_ROUND values keep the bits and the stream position
    out = _sample_out(size, out)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _STUDENT_ROUND):
        chunk = flat[start:start + _STUDENT_ROUND]
        np.multiply(rng.integers(0, 2, chunk.size), 2.0, out=chunk)
        chunk -= 1.0
    return out


def _laplace_sampler(rng, size, out=None):
    """Exact inverse CDF, one uniform u per value.

    t = (2u - 1) + 2^-53 is exact and lies on the grid of odd multiples of
    2^-53, which is symmetric about 0, so x = sign(t) b (-log1p(-|t|)) is
    finite (|x| <= 25.98 at u = 0) and exactly antisymmetric, and u >= 1/2
    gives x >= 0.  log1p is vectorised, where rng.laplace calls scalar log.
    The uniforms are drawn and mapped in chunks of at most
    ``_STUDENT_ROUND`` values, so -|t| needs one chunk of scratch.
    """
    out = _sample_out(size, out)
    flat = out.reshape(-1)
    m = np.empty(min(flat.size, _STUDENT_ROUND))
    for start in range(0, flat.size, _STUDENT_ROUND):
        t = flat[start:start + _STUDENT_ROUND]
        rng.random(t.size, out=t)
        t *= 2.0
        t -= 1.0 - 2.0 ** -53
        mt = np.copysign(t, -1.0, out=m[:t.size])  # -|t|, exactly
        np.log1p(mt, out=mt)
        np.copysign(mt, t, out=t)
        t *= _LAPLACE_B
    return out


def _student5_sampler(rng, size, out=None):
    """Exact ratio of uniforms for t(5) (Kinderman and Monahan, 1977).

    Candidate j reads uniforms 2j and 2j + 1 of ``rng.random()`` as
    u = 1 - r in (0, 1] and v = V ((2r' - 1) + 2^-53), on the Laplace
    sampler's symmetric grid.  With x = v / u and s = 1 + x x / 5 it is
    kept when u u s s s <= 1, multiplied from the left, which is
    u^2 (1 + x^2/5)^3 <= 1; the value is sqrt(3/5) x.  A round draws the
    candidates for the values still missing plus a margin of about eight
    standard deviations of the kept count, then rewinds ``rng``'s PCG64
    stream over the candidates after the last one it keeps, so values come
    in stream order.  A round draws at most ``_STUDENT_ROUND`` candidates,
    and one that keeps too few is followed by another.
    """
    out = _sample_out(size, out)
    flat = out.reshape(-1)
    done = 0
    while done < flat.size:
        need = flat.size - done
        m = min(_STUDENT_ROUND,
                int((need + 4.0 * math.sqrt(need) + 8.0) / _STUDENT_ACCEPT))
        # one scratch allocation per round (fewer, larger blocks keep the
        # peak RSS of concurrent draws lower): the pairs, then u and x
        scratch = np.empty(4 * m)
        raw = rng.random(2 * m, out=scratch[:2 * m])
        u = np.subtract(1.0, raw[0::2], out=scratch[2 * m:3 * m])
        x = np.multiply(raw[1::2], 2.0, out=scratch[3 * m:])
        x -= 1.0 - 2.0 ** -53
        x *= _STUDENT_V
        x /= u
        # the pairs are read: their half holds s, then the verdicts
        s = np.multiply(x, x, out=raw[:m])
        s /= 5.0
        s += 1.0
        u *= u
        u *= s
        u *= s
        u *= s
        kept = np.less_equal(u, 1.0, out=raw[m:].view(bool)[:m])
        keep = np.flatnonzero(kept)[:need]
        # mode "clip" lets take write straight into out; keep is in range
        dst = np.take(x, keep, out=flat[done:done + keep.size], mode="clip")
        dst *= _STUDENT_C
        done += keep.size
        if done == flat.size:
            unused = 2 * (m - 1 - int(keep[-1]))
            if unused:
                rng.bit_generator.advance(2 ** 128 - unused)
        # free this round's scratch before the next round allocates its own
        del scratch, raw, u, x, s, kept, keep
    return out


def _zero_sampler(rng, size, out=None):
    out = _sample_out(size, out)
    out.fill(0.0)
    return out


def _gaussian_tail_moment(a: float) -> float:
    # 2 (a phi(a) + Phi(-a)); Phi(-a) = erfc(a/sqrt2)/2 keeps the far tail
    phi = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    return 2.0 * (a * phi + 0.5 * math.erfc(a * math.sqrt(0.5)))


def _uniform_tail_moment(a: float) -> float:
    return 0.0 if a >= _SQRT3 else 1.0 - a ** 3 / (3.0 * _SQRT3)


def _laplace_tail_moment(a: float) -> float:
    # 2 int_a^inf x^2 e^(-x/b) / (2b) dx = e^(-a/b) (a^2 + 2ab + 2b^2), b = 1/sqrt2
    # e^(-r) underflows to 0 from a ~ 527, before a^2 overflows (a ~ 1.3e154)
    # and would make the product 0 * inf
    r = a / _LAPLACE_B
    decay = math.exp(-r)
    return decay * (a * a + r + 1.0) if decay > 0.0 else 0.0


#: The first ten coefficients (-1)^(k+1) 2k/(2k+1) of the series
#: atan(y) - y/(1+y^2) = sum_{k>=1} (-1)^(k+1) (2k/(2k+1)) y^(2k+1); for
#: y < 0.1 the rest is below 1e-19 relative.
_T3_SERIES = tuple((-1) ** (k + 1) * 2.0 * k / (2.0 * k + 1.0)
                   for k in range(1, 11))


def _student5_tail_moment(a: float) -> float:
    """K_p(a) = 4 P(|T_3| > a) - 3 P(|T_5| > a sqrt(5/3)) for xi = sqrt(3/5) T_5.

    In x = t/sqrt(nu), which is a/sqrt(3) for both tails,
    P(|T_3| > t) = (2/pi) [atan(1/x) - x/(1+x^2)] and
    P(|T_5| > t) = (2/pi) [atan(1/x) - x/(1+x^2) - (2/3) x/(1+x^2)^2],
    so K_p = (2/pi) [t3 + 2 y^3/(1+y^2)^2] with y = 1/x and
    t3 = atan(y) - y/(1+y^2).  Up to x = 10 the two probabilities are
    evaluated as written; past it t3 cancels, so it is summed as its series.
    """
    x = a / _SQRT3
    if x <= 10.0:
        s = 1.0 + x * x
        t3 = math.atan(1.0 / x) - x / s
        t5 = t3 - (2.0 / 3.0) * x / (s * s)
        return 2.0 / math.pi * (4.0 * t3 - 3.0 * t5)
    y = _SQRT3 / a
    y2 = y * y
    series = 0.0
    for c in reversed(_T3_SERIES):
        series = series * y2 + c
    return 2.0 / math.pi * y * y2 * (series + 2.0 / ((1.0 + y2) * (1.0 + y2)))


def _student5_abs3() -> float:
    # E|T_5|^3 = 5^(3/2) Gamma(2) Gamma(1) / (sqrt(pi) Gamma(5/2)), then
    # rescaled by (3/5)^(3/2).
    t_abs3 = 5.0 ** 1.5 / (math.sqrt(math.pi) * math.gamma(2.5))
    return _STUDENT_C ** 3 * t_abs3


def noise_catalog() -> dict[str, NoiseSpec]:
    """The five standardized noise laws (all symmetric, variance 1)."""
    return {
        "gaussian": NoiseSpec(
            label="gaussian",
            sampler=_gaussian_sampler,
            variance=1.0,
            abs_moment=2.0 * math.sqrt(2.0 / math.pi),
            gaussian=True,
            tail_second_moment=_gaussian_tail_moment,
        ),
        "uniform_std": NoiseSpec(
            label="uniform_std",
            sampler=_uniform_sampler,
            variance=1.0,
            abs_moment=3.0 * _SQRT3 / 4.0,
            tail_second_moment=_uniform_tail_moment,
        ),
        "rademacher": NoiseSpec(
            label="rademacher",
            sampler=_rademacher_sampler,
            variance=1.0,
            abs_moment=1.0,
            tail_second_moment=lambda a: 1.0 if a < 1.0 else 0.0,  # atoms +-1
        ),
        "laplace_std": NoiseSpec(
            label="laplace_std",
            sampler=_laplace_sampler,
            variance=1.0,
            abs_moment=3.0 / math.sqrt(2.0),
            tail_second_moment=_laplace_tail_moment,
        ),
        "student5_std": NoiseSpec(
            label="student5_std",
            sampler=_student5_sampler,
            variance=1.0,
            abs_moment=_student5_abs3(),
            tail_second_moment=_student5_tail_moment,
        ),
    }


def zero_noise() -> NoiseSpec:
    """Degenerate noiseless hook (variance 0, deliberately not a member)."""
    return NoiseSpec(
        label="zero",
        sampler=_zero_sampler,
        variance=0.0, abs_moment=0.0,
        tail_second_moment=lambda a: 0.0,
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


def check_seed(seed: int) -> None:
    """The one definition of the seed rule: an integer in [0, 2^64), so
    distinct seeds never name the same stream."""
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 1 << 64):
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed}")


def rng_from_seed(seed: int) -> np.random.Generator:
    """Fresh generator for a seed in [0, 2^64) (no shared mutable state)."""
    check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


def derive_seed(master: int, index: int) -> int:
    """Sub-seed number ``index`` under a master seed (``check_seed``).

    Splittable counter scheme: the pair (master, index) is hashed through a
    seed sequence, so distinct indices give independent streams.  Callers
    use it to give each Monte Carlo cell its own seed; the replications of
    one cell share one generator (see ``replicate``).
    """
    check_seed(master)
    if not (isinstance(index, numbers.Integral) and index >= 0):
        raise ValueError(f"seed index must be an integer >= 0, got {index}")
    ss = np.random.SeedSequence(entropy=int(master), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


#: Size of one block of draws in ``replicate``: a block holds
#: max(1, REPLICATION_BLOCK_BYTES // (8 q_n)) replications.
REPLICATION_BLOCK_BYTES = 128 * 1024


def check_reps(reps: int) -> None:
    """The one definition of the Monte Carlo budget rule: integer reps >= 2."""
    if not (isinstance(reps, numbers.Integral) and reps >= 2):
        raise ValueError(f"reps must be >= 2 and an integer, got {reps}")


def replicate(sampler: Callable, weights: Sequence[np.ndarray], reps: int,
              seed: int) -> np.ndarray:
    """The weighted window sums of ``reps`` replications, as (m, reps).

    Entry (j, i) is sum_k weights[j][k] xi_ik: the m weight rows share one
    length q_n, and xi_i, replication i's window noises, is row i of the
    stream of rng_from_seed(seed) read as a (reps, q_n) array.  This is the
    one place a Monte Carlo row is reduced.  Rows are drawn in blocks of
    ``REPLICATION_BLOCK_BYTES``, each one ``sampler(rng, size, out=...)``
    call into one buffer allocated once per call.  Each sum is a numpy
    reduction of one contiguous row of products, one weight row at a
    time; the last row multiplies the block in place, so a single weight
    row needs no scratch.  Samplers fill their output in stream order, so
    neither the block size nor the other weight rows change a value.
    Weights that are not one or more rows of one length >= 1, or a
    ``reps`` that ``check_reps`` rejects, raise ValueError.
    """
    shapes = sorted({np.shape(w) for w in weights})
    if len(shapes) != 1 or len(shapes[0]) != 1 or shapes[0][0] < 1:
        raise ValueError("weights must be one or more rows of one length >= 1"
                         f", got shapes {shapes}")
    check_reps(reps)
    (q_n,) = shapes[0]
    *head, last = weights
    rng = rng_from_seed(seed)
    rows = max(1, REPLICATION_BLOCK_BYTES // (8 * q_n))
    buf = np.empty(min(rows, reps) * q_n)
    scratch = np.empty_like(buf) if head else None
    sums = np.empty((len(weights), reps))
    for start in range(0, reps, rows):
        r = min(rows, reps - start)
        # size stays positional: bench/trace_driver.py reads it from args[1]
        xi = sampler(rng, r * q_n, out=buf[:r * q_n]).reshape(r, q_n)
        block = sums[:, start:start + r]
        for j, w in enumerate(head):
            prod = np.multiply(xi, w, out=scratch[:r * q_n].reshape(r, q_n))
            block[j] = prod.sum(axis=1)
        xi *= last
        block[-1] = xi.sum(axis=1)
    return sums


def sample_run(S: FunctionSpec, scale: ScaleSpec, noise: NoiseSpec,
               n: int, seed: int) -> np.ndarray:
    """One observation vector y_k = S(x_k) + g(x_k, S) xi_k, bit-stable in seed."""
    x = design_grid(n)
    xi = np.asarray(noise.sampler(rng_from_seed(seed), n), dtype=float)
    return S.eval(x) + scale_profile(scale, x, S) * xi
