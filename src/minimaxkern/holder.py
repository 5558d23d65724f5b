"""Smoothness certification for the local weak class.

The local weak class at z0 with budget delta allows derivatives up to
1/delta but requires the symmetrized window integral
|int_{-1}^{1} (S(z0 + h u) - S(z0)) du| <= delta * h^beta for every
bandwidth h; the "for every h" clause is probed on a finite geometric
grid, which is recorded in the report.  It is the one class certified
here: risk families (plateau bump included) and the ``holder-check``
command are checked against it.

A weak-class certificate is one pass over its curve: ``weak_defects``
evaluates S(z0) once and S itself once per block of probe bandwidths, on
the nodes z0 + h u of a fixed Simpson rule, with ``DEFECT_BLOCK_BYTES``
bounding a block's node array.  Every defect takes the same floating-point
operations whatever the block size, so certificates do not depend on it.
Certificates fail closed: a NaN defect or derivative sample is never
certified, and NaN bandwidths are errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import check_beta, check_z0
from .model import FunctionSpec
from .numerics import composite_simpson

DEFECT_QUAD_PANELS = 4096
DEFAULT_SUP_RESOLUTION = 10_000
DEFAULT_H_COUNT = 32
DEFAULT_H_FACTOR = 0.7
# Budget for one block of probe nodes: (probes, 2 * DEFECT_QUAD_PANELS + 1)
# float64 values, at least one probe per block (two at this budget).
# Block size never changes a defect; larger blocks ran no faster and
# raised peak memory.
DEFECT_BLOCK_BYTES = 160 * 1024


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


def default_h_grid(z0: float) -> np.ndarray:
    """min(z0, 1-z0) * DEFAULT_H_FACTOR^k for k below DEFAULT_H_COUNT."""
    check_z0(z0)
    h_max = min(z0, 1.0 - z0)
    return h_max * DEFAULT_H_FACTOR ** np.arange(DEFAULT_H_COUNT, dtype=float)


@dataclass(frozen=True)
class WeakHolderParams:
    """Local weak-class parameters at z0 with budget delta, probed on the
    distinct bandwidths ``h_grid`` (default: ``default_h_grid(z0)``).  The
    grid is kept as a tuple of floats, so params compare and hash as
    values, and a repeated bandwidth is an error: it would only make equal
    params compare unequal."""

    z0: float
    delta: float
    beta: float
    h_grid: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        check_z0(self.z0)
        check_delta(self.delta)
        check_beta(self.beta)
        grid = np.asarray(default_h_grid(self.z0) if self.h_grid is None
                          else self.h_grid, dtype=float).reshape(-1)
        check_probe_bandwidths(self.z0, grid)
        h_grid = tuple(grid.tolist())
        if len(set(h_grid)) != len(h_grid):
            raise ValueError(f"probe bandwidths must be distinct, got {h_grid}")
        object.__setattr__(self, "h_grid", h_grid)


@dataclass(frozen=True)
class WeakHolderReport:
    certified: bool
    sup_deriv: float
    max_defect: float
    worst_h: float


def weak_defects(S: FunctionSpec, z0: float, beta: float,
                 hs: np.ndarray) -> np.ndarray:
    """|int_{-1}^{1} (S(z0 + h u) - S(z0)) du| / h^beta for every h in ``hs``.

    S(z0) is evaluated once.  The probes are split into blocks of
    max(1, DEFECT_BLOCK_BYTES // (8 * nodes)) bandwidths, and S is
    evaluated once per block on the (probes, nodes) array z0 + h u, where
    u are the nodes of a DEFECT_QUAD_PANELS-panel Simpson rule on [-1, 1].
    Each defect is the value the rule gives for its bandwidth alone.
    """
    check_beta(beta)
    hs = np.asarray(hs, dtype=float).reshape(-1)
    check_probe_bandwidths(z0, hs)
    s0 = float(S.eval(z0))
    rows = max(1, DEFECT_BLOCK_BYTES // (8 * (2 * DEFECT_QUAD_PANELS + 1)))
    defects = np.empty(hs.size)
    for start in range(0, hs.size, rows):
        block = hs[start:start + rows]
        integrals = composite_simpson(
            lambda u: S.eval(z0 + block[:, None] * u) - s0,
            -1.0, 1.0, DEFECT_QUAD_PANELS)
        # Scalar Python arithmetic, so no defect depends on numpy's vector pow
        defects[start:start + rows] = [
            abs(integral) / h ** beta
            for h, integral in zip(block.tolist(), integrals.tolist())]
    return defects


def weak_defect(S: FunctionSpec, z0: float, beta: float, h: float) -> float:
    """|int_{-1}^{1} (S(z0 + h u) - S(z0)) du| / h^beta by Simpson quadrature."""
    return float(weak_defects(S, z0, beta, [h])[0])


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
