"""Normalized absolute-error risk of the window estimator.

The per-run statistic is phi_n |S_hat(z0) - S(z0)| / g(z0, S), and the
estimator error is B_n + (1/q_n) sum_k g(x_k, S) xi_k over the window.
Monte Carlo replication i draws only the q_n window noises, as row i of
the stream of rng_from_seed(seed) read as a (reps, q_n) array (see
``model.replicate``), and every family member is scored on those same
draws.  ``sup_risks`` scores several configs that share the operating
point, replication budget, seed and scale (a risk table's deltas at one n)
on one such stream per noise, so each stream is drawn once.  B_n keeps its
exactly rounded window sum; the noise sum of every member is one of
``replicate``'s weighted window sums, with the member's window scale
g(x_k, S) as its weight row.  That is a numpy reduction along each
contiguous row, so Monte Carlo values repeat exactly on one platform and
numpy build, whatever the block size, but are not promised bit-identical
across platforms or builds.
Under Gaussian noise the error is exactly B_n + N(0, sigma_n^2/q_n), so
the risk has a folded-normal closed form that serves as the exact oracle
for every Monte Carlo run.  Worst-case behaviour over the weak local
class is probed by taking the maximum over a finite certified family
(constants, tilts, odd oscillations, even dips and window-scaled plateau
bumps).  The class is the bandwidth class at the config's n (see
``holder``), so each config certifies its own family; only the plateau
bump's shape follows n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# kernel_estimate is not called here, but bench/trace_driver.py wraps it
# under this module's name, so the name stays importable from risk.
from .estimator import (DecompositionReport, EstimatorConfig, decompose,
                        kernel_estimate)  # noqa: F401
from .holder import WeakHolderParams, WeakHolderReport, check_weak_holder
from .lowerbound import PerturbationSpec, build_kernel
from .model import (FunctionSpec, NoiseSpec, ScaleSpec, check_reps,
                    constant_fn, linear_fn, replicate)

#: Sharp efficiency constant E|N(0,1)| / sqrt(2).
EFFICIENCY_CONSTANT = 1.0 / math.sqrt(math.pi)

FAMILY_BUMP_NU = 0.1


@dataclass(frozen=True)
class RiskConfig:
    """Risk experiment: operating point, class budget delta, replication
    budget, master seed, certified function family and scale.  The noise
    laws are given where draws are made (``sup_risk``, ``monte_carlo_risk``).

    Building a RiskConfig is the one place a risk family is certified:
    every member is checked against the bandwidth class
    ``WeakHolderParams(cfg, delta)``, and any rejected member
    raises ValueError, as does a window [z0 - h_n, z0 + h_n] that leaves
    [0, 1].  The certificates are kept in ``reports``, in family order.
    """

    cfg: EstimatorConfig
    delta: float
    reps: int
    seed: int
    family: tuple[FunctionSpec, ...]
    scale: ScaleSpec
    reports: tuple[WeakHolderReport, ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        params = WeakHolderParams(self.cfg, self.delta)  # checks delta
        check_reps(self.reps)
        if not self.family:
            raise ValueError("family must be nonempty")
        object.__setattr__(self, "family", tuple(self.family))
        reports = tuple(check_weak_holder(S, params) for S in self.family)
        rejected = [S.label for S, rep in zip(self.family, reports)
                    if not rep.certified]
        if rejected:
            raise ValueError(
                f"family members fail weak local certification at "
                f"delta={self.delta}: {rejected}")
        object.__setattr__(self, "reports", reports)


@dataclass(frozen=True)
class RiskRow:
    function: str
    noise: str
    risk_mc: float
    stderr: float
    risk_oracle: float | None
    phin_bn: float  # signed bias contribution phi_n * B_n


@dataclass(frozen=True)
class RiskReport:
    rows: tuple[RiskRow, ...]
    sup_risk: float
    attained_by: tuple[str, str]


def exact_gaussian_risk(S: FunctionSpec, rc: RiskConfig) -> float:
    """Folded-normal oracle phi_n E|B_n + N(0, sigma_n^2/q_n)| / g(z0, S):
    S's risk under Gaussian noise."""
    dec = decompose(S, rc.scale, rc.cfg)
    return dec.law.gaussian_abs_mean(dec.b_n)


def _family_risk(decs: list[DecompositionReport], rc: RiskConfig,
                 noise: NoiseSpec) -> list[tuple[float, float]]:
    """(risk, stderr) of every member, from common draws.

    Member f's statistic for the window draws xi is
    phi_n |B_f + sum_k g_f(x_k) xi_k / q_n| / g(z0, f), with B_f, g_f and
    g(z0, f) read from f's decomposition and its window law.  The noise
    sums are ``replicate``'s, one weight row per member, so a member's
    values do not depend on which other members share the draws; risk and
    stderr are aggregated in replication order.
    """
    cfg = rc.cfg
    sums = replicate(noise.sampler, [d.law.g_window for d in decs], rc.reps,
                     rc.seed)
    b = np.array([d.b_n for d in decs])
    g0 = np.array([d.law.g0 for d in decs])
    stats = cfg.phi_n * np.abs(b[:, None] + sums / cfg.q_n) / g0[:, None]
    return [(float(np.mean(row)),
             float(np.std(row, ddof=1)) / math.sqrt(rc.reps))
            for row in stats]


def monte_carlo_risk(S: FunctionSpec, rc: RiskConfig,
                     noise: NoiseSpec) -> tuple[float, float]:
    """Replicated risk estimate of S under ``noise`` and its standard error.

    Replication i scores its window sum
    ``replicate(noise.sampler, [g_window], rc.reps, rc.seed)[0, i]``, with
    ``g_window`` S's window scale; aggregation is in replication order, so
    reruns on one platform and numpy build are bit-identical.  The value
    equals S's row in ``sup_risk``.
    """
    return _family_risk([decompose(S, rc.scale, rc.cfg)], rc, noise)[0]


def sup_risks(rcs: Sequence[RiskConfig],
              noises: Sequence[NoiseSpec]) -> list[RiskReport]:
    """``sup_risk`` of every config in ``rcs``, from one stream per noise.

    The configs must share ``cfg``, ``reps``, ``seed`` and ``scale``
    (ValueError otherwise); their families are scored together on common
    draws, one ``replicate`` call per noise.  Members are scored one at a
    time (``replicate`` sums one weight row at a time), so each report
    equals the one a config scored on its own would give, bit for bit.
    """
    rcs, noise_list = list(rcs), list(noises)
    if not rcs:
        raise ValueError("need at least one risk config")
    if not noise_list:
        raise ValueError("need at least one noise")
    first = rcs[0]
    for name in ("cfg", "reps", "seed", "scale"):
        if any(getattr(rc, name) != getattr(first, name) for rc in rcs[1:]):
            raise ValueError(f"configs scored on shared draws must share "
                             f"{name}")
    cfg = first.cfg
    decs = [[decompose(S, first.scale, cfg) for S in rc.family] for rc in rcs]
    flat = [d for family_decs in decs for d in family_decs]
    risks = [_family_risk(flat, first, noise) for noise in noise_list]
    reports: list[RiskReport] = []
    j = 0  # index of a member in the scored, flattened families
    for rc, family_decs in zip(rcs, decs):
        rows: list[RiskRow] = []
        for S, dec in zip(rc.family, family_decs):
            for noise, cell in zip(noise_list, risks):
                mc, se = cell[j]
                oracle = dec.law.gaussian_abs_mean(dec.b_n) if noise.gaussian else None
                rows.append(RiskRow(function=S.label, noise=noise.label,
                                    risk_mc=mc, stderr=se, risk_oracle=oracle,
                                    phin_bn=cfg.phi_n * dec.b_n))
            j += 1
        best = max(rows, key=lambda row: row.risk_mc)
        reports.append(RiskReport(rows=tuple(rows), sup_risk=best.risk_mc,
                                  attained_by=(best.function, best.noise)))
    return reports


def sup_risk(rc: RiskConfig, noises: Sequence[NoiseSpec]) -> RiskReport:
    """Monte Carlo risk per (function, noise) pair and the family supremum.

    Each member is decomposed once; per noise, every member is scored on
    common draws (common random numbers).  The family was certified when
    ``rc`` was built, so cells are not re-certified.  This is ``sup_risks``
    on one config.
    """
    return sup_risks([rc], noises)[0]


# ---------------------------------------------------------------------------
# certified families standing in for the weak local class
# ---------------------------------------------------------------------------


def _cube(d):
    # d * d * d, not d ** 3: numpy's power takes a slow path on negative
    # bases (about 16x on 2.4).
    return d * d * d


def family_candidates(z0: float, delta: float) -> list[FunctionSpec]:
    """The eleven n-free candidate curves for the class with budget delta
    at the point z0.

    Flat and odd members have zero window defect; the tilt and wiggle use
    the 1/delta derivative allowance; the even members (dip, bowl, cup)
    are sized to use most of the defect budget, which is what makes the
    family supremum informative.  No member depends on beta or n; the
    plateau bump, whose width follows n, comes from ``family_bump``.  The
    labels are disjoint from ``model.function_catalog``'s and none is
    ``bump``, so together they name every curve a config may ask for.
    """
    inv = 1.0 / delta
    z0 = float(z0)
    return [
        constant_fn(0.0, "zero"),
        constant_fn(0.2, "const_plus"),
        constant_fn(-0.4, "const_minus"),
        linear_fn(0.75 * inv, 0.0, z0, "tilt"),
        linear_fn(-1.5, 0.1, z0, "tilt_shift"),
        FunctionSpec("odd_sine",
                 lambda x: delta * np.sin(4.0 * (x - z0)),
                 lambda x: 4.0 * delta * np.cos(4.0 * (x - z0))),
        FunctionSpec("cos_dip",
                 lambda x: 0.3 * delta * np.cos(3.0 * (x - z0)),
                 lambda x: -0.9 * delta * np.sin(3.0 * (x - z0))),
        FunctionSpec("bowl",
                 lambda x: 1.2 * delta * (x - z0) ** 2,
                 lambda x: 2.4 * delta * (x - z0)),
        FunctionSpec("odd_cubic",
                 lambda x: 2.0 * _cube(x - z0),
                 lambda x: 6.0 * (x - z0) ** 2),
        FunctionSpec("odd_wiggle",
                 lambda x: (inv / 24.0) * np.sin(12.0 * (x - z0)),
                 lambda x: (inv / 2.0) * np.cos(12.0 * (x - z0))),
        FunctionSpec("quartic_cup",
                 lambda x: 4.0 * delta * np.square(np.square(x - z0)),
                 lambda x: 16.0 * delta * _cube(x - z0)),
    ]


def family_bump(cfg: EstimatorConfig, delta: float) -> FunctionSpec:
    """The family's plateau bump at the operating point ``cfg``, labelled
    ``bump``: the one member whose shape follows n (its width is the
    estimation window at n) and the only place it is built.  Its kernel is
    ``build_kernel(FAMILY_BUMP_NU)`` and its amplitude ``min(1, 2.2 delta)``."""
    pert = PerturbationSpec(kernel=build_kernel(FAMILY_BUMP_NU),
                            u=min(1.0, 2.2 * delta), cfg=cfg)
    return pert.to_function(label="bump")


DEFAULT_TABLE_LABELS = ("const_plus", "odd_sine", "cos_dip", "bowl", "bump")


def default_family(cfg: EstimatorConfig, delta: float) -> list[FunctionSpec]:
    """The five-member family used by the default risk table, in
    ``DEFAULT_TABLE_LABELS`` order, at the operating point ``cfg``.

    The members are picked from ``family_candidates`` plus
    ``family_bump`` without being certified here: ``RiskConfig``
    certifies its family once when it is built and rejects any member
    outside the class at delta.
    """
    by_label = {S.label: S for S in family_candidates(cfg.z0, delta)}
    by_label["bump"] = family_bump(cfg, delta)
    return [by_label[lab] for lab in DEFAULT_TABLE_LABELS]
