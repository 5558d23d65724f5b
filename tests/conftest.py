import pytest
from hypothesis import HealthCheck, settings

from minimaxkern.estimator import EstimatorConfig
from minimaxkern.holder import WeakHolderParams, check_weak_holder
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


def _certified_family(z0, delta, beta, n=None, count=10, kernel=None):
    """First ``count`` of the bump at n (if n is given) and
    ``family_candidates`` that pass the weak local certification at
    (z0, delta, beta); ValueError if fewer certify."""
    params = WeakHolderParams(z0=z0, delta=delta, beta=beta)
    candidates = family_candidates(z0, delta, beta)
    if n is not None:
        candidates.insert(0, family_bump(z0, delta, beta, n, kernel))
    keep = [S for S in candidates if check_weak_holder(S, params).certified]
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
    the catalog's five and five family members at fixed budgets (zero,
    odd_cubic, cos_dip and bowl at delta 0.1, odd_sine at delta 0.5)."""
    catalog = function_catalog(z0)
    family = {delta: {S.label: S for S in family_candidates(z0, delta, 2.0)}
              for delta in (0.1, 0.5)}
    return {"zero": family[0.1]["zero"],
            **{label: catalog[label] for label in
               ("const02", "const_neg", "linear", "steep_linear")},
            "odd_sine": family[0.5]["odd_sine"],
            "cos_dip": family[0.1]["cos_dip"],
            "bowl": family[0.1]["bowl"],
            "odd_cubic": family[0.1]["odd_cubic"],
            "sine": catalog["sine"]}


@pytest.fixture(scope="session")
def fixed_curves():
    return _fixed_curves
