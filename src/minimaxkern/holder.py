"""Smoothness certification for the local weak class.

The local weak class at z0 with budget delta allows derivatives up to
1/delta but bounds the symmetrized window integral
|int_{-1}^{1} (S(z0 + h u) - S(z0)) du| <= delta * h^beta.  The paper's
class is the *bandwidth class* (``WeakHolderParams``): the one probe h_n,
the estimation bandwidth at n, so the class follows n.  ``RiskConfig``
certifies every risk family on it and ``holder-check`` reports it.

``weak_defect`` is the defect rule at one bandwidth h.  Certificates fail
closed: a NaN defect or derivative sample is never certified, and a NaN
bandwidth or point is an error.
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


def check_window(z0: float, h: float) -> None:
    """The one definition of the window rule: h positive, with
    z0 - h >= -1e-15 and z0 + h <= 1 + 1e-15.  The bounds are negated, so a
    NaN h or z0 fails too."""
    if not h > 0:
        raise ValueError(f"bandwidth h must be positive, got {h}")
    if not (z0 - h >= -1e-15 and z0 + h <= 1.0 + 1e-15):
        raise ValueError(f"window [z0-h, z0+h] leaves [0, 1] for h={h}")


@dataclass(frozen=True)
class WeakHolderParams:
    """The bandwidth class at the operating point ``cfg``: budget delta at
    (cfg.z0, cfg.beta), probed at the estimation bandwidth cfg.h alone.
    The window [z0 - h_n, z0 + h_n] must lie in [0, 1] (``check_window``)."""

    cfg: EstimatorConfig
    delta: float

    def __post_init__(self) -> None:
        check_delta(self.delta)
        check_window(self.cfg.z0, self.cfg.h)


@dataclass(frozen=True)
class WeakHolderReport:
    certified: bool
    sup_deriv: float
    max_defect: float


def weak_defect(S: FunctionSpec, z0: float, beta: float, h: float) -> float:
    """|int_{-1}^{1} (S(z0 + h u) - S(z0)) du| / h^beta, with S evaluated
    once at z0 and once on the nodes z0 + h u of the Simpson rule that
    ``decompose`` uses for its window integral (INTEGRAL_QUAD_PANELS
    panels), so the defect at h_n is |integral_term| / h_n^beta."""
    check_beta(beta)
    check_window(z0, h)
    s0 = float(S.eval(z0))
    integral = composite_simpson(lambda u: S.eval(z0 + h * u) - s0,
                                 -1.0, 1.0, INTEGRAL_QUAD_PANELS)
    return abs(integral) / h ** beta


def check_weak_holder(S: FunctionSpec, p: WeakHolderParams) -> WeakHolderReport:
    """Certificate for the bandwidth class ``p``.

    True iff the supremum of |S'| on DEFAULT_SUP_RESOLUTION equispaced
    points of [0, 1] is at most 1/delta and the window defect at h_n is at
    most delta.  A NaN derivative sample makes ``sup_deriv`` NaN and a NaN
    defect makes ``max_defect`` NaN; either way the curve is not certified.
    """
    d = S.deriv(np.linspace(0.0, 1.0, DEFAULT_SUP_RESOLUTION))
    sup_deriv = float(np.max(np.abs(d)))
    max_defect = weak_defect(S, p.cfg.z0, p.cfg.beta, p.cfg.h)
    return WeakHolderReport(
        certified=sup_deriv <= 1.0 / p.delta and max_defect <= p.delta,
        sup_deriv=sup_deriv,
        max_defect=max_defect,
    )
