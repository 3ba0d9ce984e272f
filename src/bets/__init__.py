"""Generative modeling and inference for travel-selected epidemic case data.

The package models four per-person event times -- begin of stay in the
source city, end of stay, infection, and symptom onset -- conditioned on the
selection event "infected during the stay, departed before the quarantine,
and eventually symptomatic".  On top of that model it provides maximum
likelihood fits of the epidemic growth rate and the incubation-period
distribution (with right-truncation and no-growth variants that demonstrate
and correct selection biases), a rejection-sampling simulator, and a
discrete-day Bayesian nonparametric treatment sampled by random-walk
Metropolis-Hastings.
"""

__version__ = "0.1.0"

from .likelihood import (
    DisplayTheta,
    LikelihoodError,
    ParamTheta,
    growth_bias_correction,
    growth_bias_fixed_point,
    log_lik_cond,
    log_lik_cond_trunc,
    log_lik_uncond,
    marginal_s_density,
    quantiles_to_shape_rate,
    selection_prob_total,
)
from .timeline import (
    CaseRecord,
    CaseTableError,
    CohortRules,
    ExclusionReport,
    RawCase,
    build_cohort,
    parse_case_table,
    read_cohort,
    read_cohort_csv,
    write_cohort_csv,
)
from .generative import (
    GenerativeParams,
    IncubationDist,
    params_from_theta,
    sample_exported,
)
from .inference import (
    CIResult,
    FitOptions,
    FitResult,
    GofResult,
    SweepRow,
    bias_sweep,
    bootstrap_ci,
    gof_onset_marginal,
    mle_fit,
    onset_fit_table,
    profile_ci,
)
from .bayes import (
    ChainStore,
    DiscreteConfig,
    NonparamState,
    discretized_base_pmf,
    log_lik_discrete,
    log_prior_h,
    log_prior_rest,
    posterior_summaries,
    psrf,
    rwmh_run,
)

__all__ = [
    "__version__",
    # timeline
    "CaseRecord", "CaseTableError", "CohortRules", "ExclusionReport",
    "RawCase", "build_cohort", "parse_case_table", "read_cohort",
    "read_cohort_csv", "write_cohort_csv",
    # likelihood
    "DisplayTheta", "LikelihoodError", "ParamTheta", "growth_bias_correction",
    "growth_bias_fixed_point", "log_lik_cond", "log_lik_cond_trunc",
    "log_lik_uncond", "marginal_s_density", "quantiles_to_shape_rate",
    "selection_prob_total",
    # generative
    "GenerativeParams", "IncubationDist", "params_from_theta",
    "sample_exported",
    # inference
    "CIResult", "FitOptions", "FitResult", "GofResult", "SweepRow",
    "bias_sweep", "bootstrap_ci", "gof_onset_marginal", "mle_fit",
    "onset_fit_table", "profile_ci",
    # bayes
    "ChainStore", "DiscreteConfig", "NonparamState", "discretized_base_pmf",
    "log_lik_discrete", "log_prior_h", "log_prior_rest", "posterior_summaries",
    "psrf", "rwmh_run",
]
