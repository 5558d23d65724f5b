"""Smoothness certification for the local weak class.

The local weak class at z0 with budget delta allows derivatives up to
1/delta but bounds the symmetrized window integral
|int_{-1}^{1} (S(z0 + h u) - S(z0)) du| <= delta * h^beta at the probe
bandwidths h that the params record (the report names the worst).  The
paper's class is the *bandwidth class*
(``WeakHolderParams.at_bandwidth``): the one probe h_n, the estimation
bandwidth at n, so the class follows n.  ``RiskConfig`` certifies every
risk family on it and ``holder-check`` reports it.

A weak-class certificate is one pass over its curve: ``weak_defects``
evaluates S(z0) once and S itself once on the nodes z0 + h u of a fixed
Simpson rule for all the probes it is given.  Certificates fail closed: a
NaN defect or derivative sample is never certified, and NaN bandwidths
are errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import EstimatorConfig, check_beta, check_z0
from .model import FunctionSpec
from .numerics import composite_simpson

DEFECT_QUAD_PANELS = 4096
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
    """Local weak-class parameters at z0 with budget delta, probed on the
    distinct bandwidths ``h_grid`` (``at_bandwidth`` gives the bandwidth
    class).  The bandwidths are kept as a tuple of floats, so params
    compare and hash as values, and a repeated bandwidth is an error: it
    would only make equal params compare unequal."""

    z0: float
    delta: float
    beta: float
    h_grid: tuple[float, ...]

    def __post_init__(self) -> None:
        check_z0(self.z0)
        check_delta(self.delta)
        check_beta(self.beta)
        grid = np.asarray(self.h_grid, dtype=float).reshape(-1)
        check_probe_bandwidths(self.z0, grid)
        h_grid = tuple(grid.tolist())
        if len(set(h_grid)) != len(h_grid):
            raise ValueError(f"probe bandwidths must be distinct, got {h_grid}")
        object.__setattr__(self, "h_grid", h_grid)

    @classmethod
    def at_bandwidth(cls, cfg: EstimatorConfig,
                     delta: float) -> WeakHolderParams:
        """The bandwidth class at the operating point ``cfg``: budget delta
        at (z0, beta), probed at the estimation bandwidth ``cfg.h`` alone.
        The window [z0 - h_n, z0 + h_n] must lie in [0, 1]
        (``check_probe_bandwidths``)."""
        return cls(z0=cfg.z0, delta=delta, beta=cfg.beta, h_grid=(cfg.h,))


@dataclass(frozen=True)
class WeakHolderReport:
    certified: bool
    sup_deriv: float
    max_defect: float
    worst_h: float


def weak_defects(S: FunctionSpec, z0: float, beta: float,
                 hs: np.ndarray) -> np.ndarray:
    """|int_{-1}^{1} (S(z0 + h u) - S(z0)) du| / h^beta for every h in ``hs``.

    S(z0) is evaluated once, and S once on the (probes, nodes) array
    z0 + h u, where u are the nodes of a DEFECT_QUAD_PANELS-panel Simpson
    rule on [-1, 1].  Each defect is the value the rule gives for its
    bandwidth alone (``composite_simpson`` never lets batching change one).
    """
    check_beta(beta)
    hs = np.asarray(hs, dtype=float).reshape(-1)
    check_probe_bandwidths(z0, hs)
    s0 = float(S.eval(z0))
    integrals = composite_simpson(lambda u: S.eval(z0 + hs[:, None] * u) - s0,
                                  -1.0, 1.0, DEFECT_QUAD_PANELS)
    # Scalar Python arithmetic, so no defect depends on numpy's vector pow
    return np.array([abs(integral) / h ** beta
                     for h, integral in zip(hs.tolist(), integrals.tolist())])


def check_weak_holder(S: FunctionSpec, p: WeakHolderParams) -> WeakHolderReport:
    """Certificate for the local weak class at (z0, delta, beta).

    True iff the supremum of |S'| on DEFAULT_SUP_RESOLUTION equispaced
    points of [0, 1] stays below 1/delta and the window defect stays below
    delta on every probe bandwidth.  ``worst_h`` is the first probe
    attaining the largest defect.  A NaN derivative sample makes
    ``sup_deriv`` NaN and a NaN defect makes ``max_defect`` NaN (with
    ``worst_h`` its probe); either way the curve is not certified.
    """
    d = S.deriv(np.linspace(0.0, 1.0, DEFAULT_SUP_RESOLUTION))
    sup_deriv = float(np.max(np.abs(d)))

    defects = weak_defects(S, p.z0, p.beta, p.h_grid)
    worst = int(np.argmax(defects))  # first maximum, or first NaN
    max_defect = float(defects[worst])
    return WeakHolderReport(
        certified=sup_deriv <= 1.0 / p.delta and max_defect <= p.delta,
        sup_deriv=sup_deriv,
        max_defect=max_defect,
        worst_h=p.h_grid[worst],
    )
