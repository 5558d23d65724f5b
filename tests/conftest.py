import pytest
from hypothesis import HealthCheck, settings

from minimaxkern.estimator import EstimatorConfig
from minimaxkern.holder import WeakHolderParams, check_weak_holder
from minimaxkern.model import get_noise, scale_catalog
from minimaxkern.risk import family_candidates

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


def _certified_family(z0, delta, beta, n=None, count=10, kernel=None):
    """First ``count`` of ``family_candidates`` that pass the weak local
    certification at (z0, delta, beta); ValueError if fewer certify."""
    params = WeakHolderParams(z0=z0, delta=delta, beta=beta)
    keep = [S for S in family_candidates(z0, delta, beta, n, kernel)
            if check_weak_holder(S, params).certified]
    if len(keep) < count:
        raise ValueError(
            f"only {len(keep)} candidates certify at delta={delta}; "
            f"requested {count}")
    return keep[:count]


@pytest.fixture(scope="session")
def certified_family():
    return _certified_family
