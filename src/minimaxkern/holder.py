"""Smoothness certification for the local weak class.

The local weak class at z0 with budget delta allows derivatives up to
1/delta but bounds the symmetrized window integral
|int_{-1}^{1} (S(z0 + h u) - S(z0)) du| <= delta * h^beta.  The paper's
class is the *bandwidth class* (``WeakHolderParams``): the one probe h_n,
the estimation bandwidth at n, so the class follows n.  ``RiskConfig``
certifies every risk family on it and ``holder-check`` reports it.

``weak_defects`` is the defect rule for any probe bandwidths: it evaluates
S(z0) once and S itself once on the nodes z0 + h u of a fixed Simpson rule
for all the probes it is given.  Certificates fail closed: a NaN defect or
derivative sample is never certified, and NaN bandwidths are errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import INTEGRAL_QUAD_PANELS, EstimatorConfig, check_beta
from .model import FunctionSpec
from .numerics import composite_simpson

DEFAULT_SUP_RESOLUTION = 10_000


def check_delta(delta: float) -> None:
    """The one definition of the class-budget rule: delta in (0, 1)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def check_probe_bandwidths(z0: float, hs: np.ndarray) -> None:
    """The one definition of the probe-bandwidth rule: at least one
    bandwidth, each positive, with z0 - h >= -1e-15 and z0 + h <= 1 + 1e-15.
    The bounds are negated, so a NaN h or z0 fails too."""
    if hs.size == 0 or not np.all(hs > 0):
        raise ValueError(f"probe bandwidths must be positive and nonempty, got {hs}")
    outside = ~((z0 - hs >= -1e-15) & (z0 + hs <= 1.0 + 1e-15))
    if np.any(outside):
        raise ValueError(
            f"window [z0-h, z0+h] leaves [0, 1] for h={hs[outside][0]}")


@dataclass(frozen=True)
class WeakHolderParams:
    """The bandwidth class at the operating point ``cfg``: budget delta at
    (cfg.z0, cfg.beta), probed at the estimation bandwidth cfg.h alone.
    The window [z0 - h_n, z0 + h_n] must lie in [0, 1]
    (``check_probe_bandwidths``)."""

    cfg: EstimatorConfig
    delta: float

    def __post_init__(self) -> None:
        check_delta(self.delta)
        check_probe_bandwidths(self.cfg.z0, np.array([self.cfg.h]))


@dataclass(frozen=True)
class WeakHolderReport:
    certified: bool
    sup_deriv: float
    max_defect: float


def weak_defects(S: FunctionSpec, z0: float, beta: float,
                 hs: np.ndarray) -> np.ndarray:
    """|int_{-1}^{1} (S(z0 + h u) - S(z0)) du| / h^beta for every h in ``hs``.

    S(z0) is evaluated once, and S once on the (probes, nodes) array
    z0 + h u, where u are the nodes of the Simpson rule on [-1, 1] that
    ``decompose`` uses for its window integral (INTEGRAL_QUAD_PANELS
    panels), so the defect at h_n is |integral_term| / h_n^beta.  Each
    defect is the value the rule gives for its bandwidth alone
    (``composite_simpson`` never lets batching change one).
    """
    check_beta(beta)
    hs = np.asarray(hs, dtype=float).reshape(-1)
    check_probe_bandwidths(z0, hs)
    s0 = float(S.eval(z0))
    integrals = composite_simpson(lambda u: S.eval(z0 + hs[:, None] * u) - s0,
                                  -1.0, 1.0, INTEGRAL_QUAD_PANELS)
    # Scalar Python arithmetic, so no defect depends on numpy's vector pow
    return np.array([abs(integral) / h ** beta
                     for h, integral in zip(hs.tolist(), integrals.tolist())])


def check_weak_holder(S: FunctionSpec, p: WeakHolderParams) -> WeakHolderReport:
    """Certificate for the bandwidth class ``p``.

    True iff the supremum of |S'| on DEFAULT_SUP_RESOLUTION equispaced
    points of [0, 1] stays below 1/delta and the window defect at h_n stays
    below delta.  A NaN derivative sample makes ``sup_deriv`` NaN and a NaN
    defect makes ``max_defect`` NaN; either way the curve is not certified.
    """
    d = S.deriv(np.linspace(0.0, 1.0, DEFAULT_SUP_RESOLUTION))
    sup_deriv = float(np.max(np.abs(d)))
    max_defect = float(weak_defects(S, p.cfg.z0, p.cfg.beta, [p.cfg.h])[0])
    return WeakHolderReport(
        certified=sup_deriv <= 1.0 / p.delta and max_defect <= p.delta,
        sup_deriv=sup_deriv,
        max_defect=max_defect,
    )
