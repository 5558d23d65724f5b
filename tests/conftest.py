from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from minimaxkern.estimator import EstimatorConfig
from minimaxkern.holder import DEFAULT_SUP_RESOLUTION, weak_defect
from minimaxkern.model import function_catalog, get_noise, scale_catalog
from minimaxkern.risk import family_bump, family_candidates

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def mixed_scale():
    return scale_catalog()["mixed"]


@pytest.fixture(scope="session")
def gaussian():
    return get_noise("gaussian")


@pytest.fixture(scope="session")
def cfg_1e5():
    return EstimatorConfig(n=100_000, beta=2.0, z0=0.5)


@pytest.fixture(scope="session")
def plateau_kernel_01():
    from minimaxkern.lowerbound import build_kernel
    return build_kernel(0.1)


def probe_grid(z0):
    """The 32-probe geometric grid min(z0, 1-z0) * 0.7^j.  It is not the
    paper's class (``tests/test_risk.py::TestBandwidthClass``), but tests
    keep it as a fixed, many-probe class."""
    return min(z0, 1 - z0) * 0.7 ** np.arange(32, dtype=float)


class GridCertificate(NamedTuple):
    certified: bool
    sup_deriv: float
    max_defect: float
    worst_h: float  # the first probe attaining max_defect (or the first NaN)


def certify_on_grid(S, z0, delta, beta):
    """The certificate on the probe grid at (z0, delta, beta): the
    package's derivative cap (sup|S'| <= 1/delta on DEFAULT_SUP_RESOLUTION
    equispaced points of [0, 1]) and its defect rule ``weak_defect`` at
    every probe of ``probe_grid(z0)``, the largest defect at most delta."""
    hs = probe_grid(z0)
    sup_deriv = float(np.max(np.abs(
        S.deriv(np.linspace(0.0, 1.0, DEFAULT_SUP_RESOLUTION)))))
    defects = np.array([weak_defect(S, z0, beta, h) for h in hs.tolist()])
    worst = int(np.argmax(defects))  # first maximum, or first NaN
    max_defect = float(defects[worst])
    return GridCertificate(
        certified=sup_deriv <= 1.0 / delta and max_defect <= delta,
        sup_deriv=sup_deriv, max_defect=max_defect, worst_h=float(hs[worst]))


def _certified_family(z0, delta, beta, n=None, count=10):
    """First ``count`` of the bump at n (if n is given) and
    ``family_candidates`` that pass the weak local certification at
    (z0, delta, beta) on ``probe_grid(z0)``; ValueError if fewer certify."""
    candidates = family_candidates(z0, delta)
    if n is not None:
        cfg = EstimatorConfig(n=n, beta=beta, z0=z0)
        candidates.insert(0, family_bump(cfg, delta))
    keep = [S for S in candidates
            if certify_on_grid(S, z0, delta, beta).certified]
    if len(keep) < count:
        raise ValueError(
            f"only {len(keep)} candidates certify at delta={delta}; "
            f"requested {count}")
    return keep[:count]


@pytest.fixture(scope="session")
def certified_family():
    return _certified_family


def _fixed_curves(z0):
    """Ten labelled curves whose amplitudes do not follow a test's delta:
    the catalog's three and seven family members at fixed budgets (zero,
    const_plus, const_minus, odd_cubic, cos_dip and bowl at delta 0.1,
    odd_sine at delta 0.5)."""
    catalog = function_catalog(z0)
    family = {delta: {S.label: S for S in family_candidates(z0, delta)}
              for delta in (0.1, 0.5)}
    return {**{label: family[0.1][label] for label in
               ("zero", "const_plus", "const_minus")},
            **{label: catalog[label] for label in ("linear", "steep_linear")},
            "odd_sine": family[0.5]["odd_sine"],
            "cos_dip": family[0.1]["cos_dip"],
            "bowl": family[0.1]["bowl"],
            "odd_cubic": family[0.1]["odd_cubic"],
            "sine": catalog["sine"]}


@pytest.fixture(scope="session")
def fixed_curves():
    return _fixed_curves
