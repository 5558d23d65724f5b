"""End-to-end acceptance suite.

One test per criterion; each prints a single pass/fail line (visible under
``pytest -s``).  Every tolerance is pinned here.  The tail-size sub-test of
criterion 9 checks, for every catalog law at n = 1e5 and a = q_n^(1/4),
that K_p(a) stays under the law's moment-certificate bound
abs_moment * a^(-epsilon) and equals an independent closed form to 1e-9
relative.  It asserts no fixed level: the unit-variance Student-t(5) has
K_p = 5.05e-3 there (K_p ~ 8.8 a^-3) and first drops below 1e-3 at
n ~ 1.55e6.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm, t

from minimaxkern.estimator import EstimatorConfig, decompose, sigma_n_limit_check
from minimaxkern.holder import WeakHolderParams, check_weak_holder
from minimaxkern.lowerbound import (PerturbationSpec, bayes_bound,
                                    build_kernel, bump_deriv_sup,
                                    min_n_membership, varsigma_sq)
from minimaxkern.martingale import (tail_second_moment, truncated_variance,
                                    normal_approx_check, zeta_dd_moment_check)
from minimaxkern.model import (constant_fn, function_catalog, get_noise,
                               noise_catalog, scale_catalog, scale_eval)
from minimaxkern.numerics import composite_simpson
from minimaxkern.risk import (EFFICIENCY_CONSTANT, RiskConfig, default_family,
                              exact_gaussian_risk, monte_carlo_risk, sup_risk)

MIXED = scale_catalog()["mixed"]
GAUSSIAN = get_noise("gaussian")
Z0 = 0.5
BETA = 2.0
SEED = 42
NOISE_LABELS = sorted(noise_catalog())


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")


def test_criterion_01_efficiency_constant():
    """Monte Carlo risk hits the folded-normal oracle and the oracle hits
    1/sqrt(pi) within 5%, inside the two-minute budget."""
    start = time.perf_counter()
    cfg = EstimatorConfig(n=100_000, beta=BETA, z0=Z0)
    S = constant_fn(0.2, "const_plus")
    rc = RiskConfig(cfg=cfg, delta=0.1, reps=20_000, seed=SEED, family=(S,),
                    scale=MIXED, noise=GAUSSIAN)
    mc, se = monte_carlo_risk(S, rc)
    oracle = exact_gaussian_risk(S, rc)
    elapsed = time.perf_counter() - start
    mc_ok = abs(mc - oracle) <= 3.0 * se
    const_ok = abs(oracle - EFFICIENCY_CONSTANT) / EFFICIENCY_CONSTANT < 0.05
    time_ok = elapsed < 120.0
    _report("criterion 1 (efficiency constant)", mc_ok and const_ok and time_ok,
            f"mc={mc:.6f} se={se:.6f} oracle={oracle:.6f} "
            f"target={EFFICIENCY_CONSTANT:.6f} elapsed={elapsed:.0f}s")
    assert mc_ok
    assert const_ok
    assert time_ok


def test_criterion_02_oracle_identity():
    """Every (function, n) cell of the default risk table matches the exact
    Gaussian oracle within three standard errors."""
    kernel = build_kernel(0.1)
    worst = 0.0
    for n in (1_000, 10_000):
        cfg = EstimatorConfig(n=n, beta=BETA, z0=Z0)
        for S in default_family(Z0, 0.1, BETA, n, kernel):
            rc = RiskConfig(cfg=cfg, delta=0.1, reps=4_000, seed=SEED,
                            family=(S,), scale=MIXED, noise=GAUSSIAN)
            mc, se = monte_carlo_risk(S, rc)
            oracle = exact_gaussian_risk(S, rc)
            ratio = abs(mc - oracle) / se
            worst = max(worst, ratio)
            assert ratio <= 3.0, (n, S.label, ratio)
    _report("criterion 2 (oracle identity)", True,
            f"max |mc-oracle|/stderr = {worst:.2f} over 10 cells")


def test_criterion_03_variance_limit():
    """sigma_n^2(S) approaches g^2(z0, S): relative gap below 1e-2 at n=1e6
    and strictly smaller than at n=1e3, for every catalog scale."""
    S = function_catalog(Z0)["sine"]
    details = []
    for label, scale in scale_catalog().items():
        rows = sigma_n_limit_check(S, scale, Z0, BETA,
                                   [1_000, 10_000, 100_000, 1_000_000])
        g0_sq = scale_eval(scale, Z0, S) ** 2
        rel = rows[-1].abs_gap / g0_sq
        assert rel < 1e-2, label
        assert rows[-1].abs_gap < rows[0].abs_gap, label
        details.append(f"{label}: rel={rel:.2e}")
    _report("criterion 3 (variance limit)", True, "; ".join(details))


def test_criterion_04_riemann_gap_bound(certified_family):
    """|R_n| <= 6/(delta n) for ten certified members at delta = 0.1."""
    delta = 0.1
    kernel = build_kernel(0.1)
    worst = 0.0
    for n in (1_000, 10_000, 100_000):
        cfg = EstimatorConfig(n=n, beta=BETA, z0=Z0)
        family = certified_family(Z0, delta, BETA, n=n, count=10, kernel=kernel)
        assert len(family) == 10
        bound = 6.0 / (delta * n)
        for S in family:
            r_n = decompose(S, MIXED, cfg).r_n
            worst = max(worst, abs(r_n) / bound)
            assert abs(r_n) <= bound, (n, S.label)
    _report("criterion 4 (Riemann gap bound)", True,
            f"max |R_n|/bound = {worst:.3f}, zero violations over 30 cells")


def test_criterion_05_kernel_facts():
    """Plateau kernel: V(0) = 1 and integral 2, both to 1e-6, on the nu grid."""
    details = []
    for nu in (0.2, 0.1, 0.05, 0.01):
        kern = build_kernel(nu)
        v0 = float(kern.values(np.array([0.0]))[0])
        mass = composite_simpson(kern.values, -1.0, 1.0, 32_768)
        assert abs(v0 - 1.0) <= 1e-6, nu
        assert abs(mass - 2.0) <= 1e-6, nu
        details.append(f"nu={nu}: |V(0)-1|={abs(v0 - 1):.1e} "
                       f"|int-2|={abs(mass - 2):.1e}")
    _report("criterion 5 (kernel facts)", True, "; ".join(details))


def test_criterion_06_membership_threshold():
    """The window bump enters the weak class at the explicit threshold and
    stays inside at four times it (property, no tolerance)."""
    kern = build_kernel(0.1)
    n_star = min_n_membership(0.1, 0.5, BETA, bump_deriv_sup())
    params = WeakHolderParams(z0=Z0, delta=0.5, beta=BETA)
    for n in (n_star, 4 * n_star):
        pert = PerturbationSpec(kernel=kern, u=1.0, n=n, beta=BETA, z0=Z0)
        assert check_weak_holder(pert.to_function(), params).certified, n
    _report("criterion 6 (membership threshold)", True,
            f"certified at n={n_star} and n={4 * n_star}")


def test_criterion_07_shift_variance_limit():
    """Likelihood shift variance converges to its limit, and the limit
    approaches 2/g^2(z0, 0) as nu -> 0."""
    kern = build_kernel(0.1)
    gaps = {}
    for n in (1_000, 1_000_000):
        pert = PerturbationSpec(kernel=kern, u=1.0, n=n, beta=BETA, z0=Z0)
        vs, sigma_nu = varsigma_sq(pert, MIXED)
        gaps[n] = abs(vs - sigma_nu) / sigma_nu
    assert gaps[1_000_000] < 1e-2
    assert gaps[1_000_000] < gaps[1_000]

    g0 = scale_eval(MIXED, Z0, constant_fn(0.0))
    pert_small = PerturbationSpec(kernel=build_kernel(0.01), u=1.0, n=10_000,
                                  beta=BETA, z0=Z0)
    _, sigma_small = varsigma_sq(pert_small, MIXED)
    limit_rel = abs(sigma_small - 2.0 / g0 ** 2) / (2.0 / g0 ** 2)
    assert limit_rel < 0.02
    _report("criterion 7 (shift variance limit)", True,
            f"rel gap at n=1e6: {gaps[1_000_000]:.2e}; "
            f"sigma_nu^2(0.01) vs 2/g^2: {limit_rel:.2%}")


def test_criterion_08_bayes_chain():
    """The lower-bound chain reaches within 2% of 1/sqrt(pi) at
    (nu, b) = (0.01, 1e4) and increases along the b grid."""
    kern = build_kernel(0.01)
    vals = [bayes_bound(kern, b, 1.0)
            for b in (4.0, 16.0, 100.0, 10_000.0)]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    assert all(v < EFFICIENCY_CONSTANT for v in vals)  # approach from below
    rel = abs(vals[-1] - EFFICIENCY_CONSTANT) / EFFICIENCY_CONSTANT
    assert rel < 0.02
    _report("criterion 8 (Bayes bound chain)", True,
            f"values={[f'{v:.4f}' for v in vals]} final within {rel:.2%}")


CLT_CFG = EstimatorConfig(n=100_000, beta=BETA, z0=Z0)
CLT_S = constant_fn(0.2, "const_plus")


@pytest.mark.parametrize("label", NOISE_LABELS)
def test_criterion_09_normal_approximation(label):
    """KS distance of the normalized noise sum to the standard Gaussian is
    below 0.015 at n=1e5 with 1e4 replications (below 0.01 for the
    two-point noise)."""
    ks = normal_approx_check(CLT_S, MIXED, get_noise(label), CLT_CFG,
                             reps=10_000, seed=4242)
    ok = ks < 0.015 and (label != "rademacher" or ks < 0.01)
    _report(f"criterion 9 ({label} KS)", ok, f"KS={ks:.5f}")
    assert ok


@pytest.mark.parametrize("label", NOISE_LABELS)
def test_criterion_09_truncated_variance_bound(label):
    """|a_n - 1| <= 2 K_p(q_n^(1/4)) at the operating threshold."""
    noise = get_noise(label)
    a = CLT_CFG.q_n ** 0.25
    gap = abs(truncated_variance(noise, a) - 1.0)
    k_p = tail_second_moment(noise, a)
    ok = gap <= 2.0 * k_p + 1e-15
    _report(f"criterion 9 ({label} a_n bound)", ok,
            f"|a_n-1|={gap:.3e} vs 2K_p={2 * k_p:.3e}")
    assert ok


def _tail_moment_closed_form(label: str, a: float) -> float:
    """K_p(a) = E[xi^2 1{|xi| > a}] from closed forms, without martingale."""
    if label == "gaussian":
        return 2.0 * (a * norm.pdf(a) + norm.sf(a))
    if label == "laplace_std":
        r2 = math.sqrt(2.0)
        return math.exp(-r2 * a) * (a * a + r2 * a + 1.0)
    if label == "student5_std":
        # x^2 f(x) = 4 f_t3(x) - 3 f(x) for the unit-variance t(5) density
        # f, and xi > a is T_5 > a sqrt(5/3).
        return (4.0 * 2.0 * t.sf(a, 3)
                - 3.0 * 2.0 * t.sf(a * math.sqrt(5.0 / 3.0), 5))
    # uniform_std and rademacher put no mass beyond sqrt(3)
    assert a > math.sqrt(3.0)
    return 0.0


@pytest.mark.parametrize("label", NOISE_LABELS)
def test_criterion_09_tail_size(label):
    """K_p(q_n^(1/4)) at n = 1e5 is under the moment-class bound and exact.

    Markov gives K_p(a) <= E|xi|^(2+eps) a^(-eps) <= L a^(-eps), which is
    what makes the tail part vanish uniformly over the class; each law is
    checked against its own certificate abs_moment * a^(-eps).  The value is
    also pinned to 1e-9 relative against an independent closed form.  For
    the unit-variance t(5), whose density decays like 13.2 x^-6 so that
    K_p ~ 8.8 a^-3, K_p(20001^(1/4) = 11.89) = 5.05e-3.
    """
    noise = get_noise(label)
    a = CLT_CFG.q_n ** 0.25
    k_p = tail_second_moment(noise, a)
    bound = noise.abs_moment * a ** (-noise.epsilon)
    ref = _tail_moment_closed_form(label, a)
    bound_ok = k_p <= bound
    exact_ok = k_p == pytest.approx(ref, rel=1e-9, abs=0.0)
    _report(f"criterion 9 ({label} tail size)", bound_ok and exact_ok,
            f"K_p={k_p:.3e} closed form={ref:.3e} bound={bound:.3e}")
    assert bound_ok
    assert exact_ok


@pytest.mark.parametrize("label", NOISE_LABELS)
def test_criterion_09_tail_second_moment(label):
    """Simulated E[zeta_dd^2] matches (G_n/q_n) K_p within 3 MC errors."""
    est, se, expected = zeta_dd_moment_check(
        CLT_S, MIXED, get_noise(label), CLT_CFG, reps=10_000, seed=777)
    ok = abs(est - expected) <= 3.0 * se + 1e-12
    _report(f"criterion 9 ({label} tail moment)", ok,
            f"est={est:.3e} expected={expected:.3e} se={se:.3e}")
    assert ok


def test_criterion_10_bias_slack_and_trend(certified_family):
    """Bias contribution stays within delta/2 plus the Riemann slack, and
    the sup-risk table moves monotonically toward the constant as delta
    shrinks (trend only; the double limit has no finite-n target)."""
    kernel = build_kernel(0.1)
    cfg = EstimatorConfig(n=100_000, beta=BETA, z0=Z0)
    deltas = (0.5, 0.2, 0.1, 0.05)

    for delta in deltas:
        bound = delta / 2.0 + 6.0 * cfg.phi_n ** 3 / (delta * cfg.q_n * cfg.n)
        for S in certified_family(Z0, delta, BETA, n=cfg.n, count=10,
                                  kernel=kernel):
            bias = cfg.phi_n * abs(decompose(S, MIXED, cfg).b_n)
            assert bias <= bound, (delta, S.label)

    oracle_sups = []
    mc_sups = []
    max_se = 0.0
    for delta in deltas:
        fam = default_family(Z0, delta, BETA, cfg.n, kernel)
        rc = RiskConfig(cfg=cfg, delta=delta, reps=1_200, seed=SEED,
                        family=tuple(fam), scale=MIXED, noise=GAUSSIAN)
        report = sup_risk(rc)
        mc_sups.append(report.sup_risk)
        max_se = max(max_se, max(r.stderr for r in report.rows))
        oracle_sups.append(max(r.risk_oracle for r in report.rows))
    assert all(x > y for x, y in zip(oracle_sups, oracle_sups[1:]))
    assert all(y <= x + max_se for x, y in zip(mc_sups, mc_sups[1:]))
    _report("criterion 10 (bias slack and delta trend)", True,
            f"oracle sups={[f'{v:.4f}' for v in oracle_sups]} "
            f"mc sups={[f'{v:.4f}' for v in mc_sups]} "
            f"target={EFFICIENCY_CONSTANT:.4f}")
