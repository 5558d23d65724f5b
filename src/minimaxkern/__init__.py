"""Pointwise kernel regression under heteroscedastic noise.

Simulation and verification toolkit around the windowed-average estimator
at a point: observation model and noise catalog, weak local smoothness
certification, exact bias/variance decomposition, folded-normal risk
oracles, least-favorable perturbations with the Bayes lower bound, and
truncation-based CLT diagnostics.  The sharp normalized-risk constant for
all of it is 1/sqrt(pi).
"""

__version__ = "0.3.0"

from .estimator import (DecompositionReport, EstimatorConfig, bandwidth,
                        decompose, kernel_estimate, rate, sigma_n_limit_check)
from .holder import WeakHolderParams, check_weak_holder
from .lowerbound import (PerturbationSpec, PlateauKernel, bayes_bound,
                         build_kernel, log_likelihood_ratio,
                         min_n_membership, shift_statistic, varsigma_sq)
from .martingale import (RealizedSplit, TruncationReport, normal_approx_check,
                         tail_second_moment, truncated_variance,
                         truncation_report, truncation_split,
                         zeta_dd_moment_check)
from .model import (FunctionSpec, NoiseSpec, ScaleSpec, constant_fn,
                    derive_seed, design_grid, flat_scale,
                    function_catalog, get_noise, linear_fn, noise_catalog,
                    replicate, sample_run, scale_catalog, scale_eval,
                    zero_noise)
from .numerics import folded_normal_mean
from .risk import (EFFICIENCY_CONSTANT, RiskConfig, RiskReport, RiskRow,
                   default_family, exact_gaussian_risk, monte_carlo_risk,
                   sup_risk, sup_risks)

__all__ = [
    "__version__",
    "EFFICIENCY_CONSTANT",
    # model
    "FunctionSpec", "ScaleSpec", "NoiseSpec",
    "design_grid", "scale_eval", "sample_run",
    "noise_catalog", "get_noise", "zero_noise",
    "scale_catalog", "flat_scale", "function_catalog",
    "constant_fn", "linear_fn", "derive_seed", "replicate",
    # holder
    "WeakHolderParams", "check_weak_holder",
    # estimator
    "EstimatorConfig", "DecompositionReport", "bandwidth", "rate",
    "kernel_estimate", "decompose", "sigma_n_limit_check",
    # risk
    "RiskConfig", "RiskReport", "RiskRow", "folded_normal_mean",
    "exact_gaussian_risk", "monte_carlo_risk", "sup_risk", "sup_risks",
    "default_family",
    # lowerbound
    "PlateauKernel", "PerturbationSpec", "build_kernel",
    "min_n_membership", "varsigma_sq", "shift_statistic",
    "log_likelihood_ratio", "bayes_bound",
    # martingale
    "TruncationReport", "RealizedSplit", "tail_second_moment",
    "truncated_variance", "truncation_report", "truncation_split",
    "normal_approx_check", "zeta_dd_moment_check",
]
