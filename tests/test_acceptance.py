"""End-to-end acceptance suite.

One test per release criterion, in order: closed forms against quadrature,
the selection-probability approximation audit, simulation-recovery of the
continuous model, the two-bias demonstration, the growth-correction
arithmetic, the discrete-likelihood lattice oracle, sampler sanity, and two
checks against the published cohort that run only when the case table is
supplied (see conftest.real_table_path).

Every expected number here is either computed independently in the test
(quadrature, brute-force enumeration, direct arithmetic) or is a published
headline value; tolerances are the stated release tolerances, not fitted to
the implementation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

import conftest
from bets import bayes, generative, inference, likelihood
from bets.timeline import CaseRecord
from helpers import (
    brute_log_lik_discrete,
    discrete_cohort,
    quad_cond_term,
    quad_growth_onset,
    quad_selection_exact,
    quad_trunc_term,
    quad_uncond_term,
    random_discrete_state,
    random_selected_records,
)

# Reference truth for the continuous-model studies, computed from scipy
# directly rather than through the library's own quantile converter.
RHO_TRUE, R_TRUE, ALPHA_TRUE, BETA_TRUE = 0.45, 0.30, 1.86, 0.33
DOUBLING_TRUE = math.log(2.0) / R_TRUE
MEDIAN_TRUE = float(stats.gamma.ppf(0.50, ALPHA_TRUE, scale=1.0 / BETA_TRUE))
Q95_TRUE = float(stats.gamma.ppf(0.95, ALPHA_TRUE, scale=1.0 / BETA_TRUE))

# Criteria 3, 4 and 7 split each fit's restarts, each profile's two sides and
# the sampler's chains over one process per usable CPU (timeline.usable_cpus):
# the answers are the serial ones, bit for bit, in about two thirds of the
# time on two cores.


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    conftest.acceptance_lines.append(line)


def test_criterion_1_closed_forms_match_quadrature():
    """200 random configurations: growth-onset integral within 1e-10 of
    adaptive quadrature, each per-case log term within 1e-8 in probability
    space."""
    rng = np.random.default_rng(2026)
    worst = {"integral": 0.0, "cond": 0.0, "uncond": 0.0, "trunc": 0.0}
    for i in range(200):
        r = rng.uniform(0.03, 0.5)
        a = rng.uniform(0.6, 7.0)
        bt = rng.uniform(0.12, 1.8)
        rho = rng.uniform(0.1, 2.0)
        b = 0.0 if rng.random() < 0.5 else rng.uniform(0.5, 40.0)
        e = rng.uniform(b + 0.5, 54.0)
        s = rng.uniform(b + 0.3, e + 25.0)
        M = s + rng.uniform(0.5, 20.0)
        rec = CaseRecord(case_id=f"c{i}", B_int=int(math.ceil(b)),
                         E_int=int(math.ceil(e)), S_int=int(math.ceil(s)),
                         B=b, E=e, S=s)
        theta = likelihood.ParamTheta(r, a, bt, rho=rho)
        got = likelihood.gamma_exp_integral(b, e, s, theta)
        ref = quad_growth_onset(b, e, s, r, a, bt)
        worst["integral"] = max(worst["integral"], abs(got - ref) / abs(ref))
        pairs = [
            ("cond", likelihood.log_lik([rec], "cond", theta),
             quad_cond_term(b, e, s, r, a, bt)),
            ("uncond", likelihood.log_lik([rec], "uncond", theta),
             quad_uncond_term(b, e, s, rho, r, a, bt)),
            ("trunc", likelihood.log_lik([rec], "cond_trunc", theta, M),
             quad_trunc_term(b, e, s, r, a, bt, M)),
        ]
        for name, lg, lref in pairs:
            worst[name] = max(worst[name], abs(math.expm1(lg - lref)))
    ok = worst["integral"] <= 1e-10 and all(
        worst[k] <= 1e-8 for k in ("cond", "uncond", "trunc"))
    _report(1, ok, "worst rel err " + ", ".join(
        f"{k} {v:.2e}" for k, v in worst.items()) + " over 200 configs")
    assert worst["integral"] <= 1e-10
    assert worst["cond"] <= 1e-8
    assert worst["uncond"] <= 1e-8
    assert worst["trunc"] <= 1e-8


def test_criterion_2_selection_probability_approximation():
    """Closed-form acceptance probability within 2% of the double integral
    whenever r*L >= 9, with the gap growing monotonically as r*L drops to 5."""
    L = 54.0
    lam_w, lam_v, nu = 1.0 / 60.0, 1.0 / 50.0, 0.8

    def gap(pi: float, rL: float) -> float:
        r = rL / L
        kappa = 0.9 * r / math.expm1(rL)   # keeps the curve a sub-probability
        approx = likelihood.selection_prob_total(pi, lam_w, lam_v, kappa, nu, r, L)
        exact = quad_selection_exact(pi, lam_w, lam_v, kappa, nu, r, L)
        return abs(approx - exact) / exact

    worst = 0.0
    for pi in (0.1, 0.3, 0.5, 0.7, 0.9):
        for rL in (9.0, 12.0, 16.0, 21.0, 27.0):
            worst = max(worst, gap(pi, rL))
    monotone = True
    for pi in (0.3, 0.7):
        gaps = [gap(pi, rL) for rL in (9.0, 8.0, 7.0, 6.0, 5.0)]
        monotone = monotone and all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:]))
    ok = worst <= 0.02 and monotone
    _report(2, ok, f"worst rel gap {worst:.2e} on the r*L >= 9 grid; "
            f"gap monotone increasing as r*L drops 9 -> 5: {monotone}")
    assert worst <= 0.02
    assert monotone


@pytest.mark.slow
def test_criterion_3_simulation_recovery_uncond():
    """20 seeded cohorts of 2000 exact-time cases: the joint fit lands within
    10% of truth on every replicate and the profile doubling-time interval
    covers truth in at least 17."""
    params = generative.params_from_theta(RHO_TRUE, R_TRUE, ALPHA_TRUE, BETA_TRUE)
    worst = {"doubling_time": 0.0, "median_incubation": 0.0, "q95_incubation": 0.0}
    truth = {"doubling_time": DOUBLING_TRUE, "median_incubation": MEDIAN_TRUE,
             "q95_incubation": Q95_TRUE}
    covered = 0
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        recs, _ = generative.sample_exported(2000, params, rng,
                                             discretize_days=False)
        fit = inference.mle_fit(recs, "uncond")
        assert fit.converged
        for name, true in truth.items():
            err = abs(getattr(fit.display, name) - true) / true
            worst[name] = max(worst[name], err)
        ci = inference.profile_ci(recs, fit, "doubling_time")
        covered += int(ci.lo <= DOUBLING_TRUE <= ci.hi)
    ok = all(v <= 0.10 for v in worst.values()) and covered >= 17
    _report(3, ok, "worst rel err " + ", ".join(
        f"{k} {v:.3f}" for k, v in worst.items())
        + f"; doubling CI coverage {covered}/20")
    for name, v in worst.items():
        assert v <= 0.10, f"{name} off by {v:.3f} relative"
    assert covered >= 17


@pytest.mark.slow
def test_criterion_4_bias_demonstration():
    """20 seeded cohorts of 600 exact-time cases: the no-growth fit inflates
    the median by >= 50% in >= 19; after truncating at onset day 60 the
    untruncated fit underestimates q95 while the truncation-adjusted profile
    interval covers it, jointly in >= 17."""
    params = generative.params_from_theta(RHO_TRUE, R_TRUE, ALPHA_TRUE, BETA_TRUE)
    M = 60.0
    r0_inflated = naive_under = joint = 0
    for i in range(20):
        rng = np.random.default_rng(4000 + i)
        recs, _ = generative.sample_exported(600, params, rng,
                                             discretize_days=False)
        r0 = inference.mle_fit(recs, "cond", fixed={"r": 0.0})
        r0_inflated += int(r0.display.median_incubation >= 1.5 * MEDIAN_TRUE)
        kept = [c for c in recs if c.S <= M]
        naive = inference.mle_fit(kept, "cond")
        under = naive.display.q95_incubation < Q95_TRUE
        naive_under += int(under)
        adj = inference.mle_fit(kept, "cond_trunc", M=M)
        ci = inference.profile_ci(kept, adj, "q95_incubation")
        joint += int(under and ci.lo <= Q95_TRUE <= ci.hi)
    ok = r0_inflated >= 19 and joint >= 17
    _report(4, ok, f"no-growth median inflated >= 1.5x in {r0_inflated}/20; "
            f"naive-under + adjusted-coverage jointly in {joint}/20 "
            f"(naive under alone {naive_under}/20)")
    assert r0_inflated >= 19
    assert joint >= 17


def test_criterion_5_growth_correction_arithmetic():
    """The additive growth correction at the published operating point equals
    1/(alpha/(r+beta) + c/2), reports as 0.10 to two decimals, and moves a
    0.11/day naive rate to a 3.3-day doubling time."""
    expected = 1.0 / (1.86 / (0.30 + 0.33) + 14.0 / 2.0)
    got = likelihood.growth_bias_correction(1.86, 0.33, 0.30, 14.0)
    doubling = math.log(2.0) / (0.11 + round(got, 2))
    fp = likelihood.growth_bias_fixed_point(1.86, 0.33, 0.11, 14.0)
    fp_resid = abs(fp - (0.11 + likelihood.growth_bias_correction(1.86, 0.33, fp, 14.0)))
    ok = (math.isclose(got, expected, rel_tol=1e-12)
          and round(got, 2) == 0.10
          and round(doubling, 2) == 3.30
          and fp_resid <= 1e-8)
    _report(5, ok, f"correction {got:.6f} (= {expected:.6f}), reported 0.10; "
            f"corrected doubling {doubling:.4f} d; fixed-point residual {fp_resid:.1e}")
    assert math.isclose(got, expected, rel_tol=1e-12)
    assert round(got, 2) == 0.10
    assert round(doubling, 2) == 3.30
    assert fp_resid <= 1e-8


def test_criterion_6_discrete_likelihood_lattice_oracle():
    """log_lik_discrete equals pure-Python lattice enumeration to 1e-10
    relative on 10 random states spanning every model variant."""
    variants = [
        dict(), dict(),
        dict(strata="gender"), dict(strata="age50"),
        dict(departure="geometric"), dict(departure="geometric"),
        dict(growth="two_stage"), dict(growth="two_stage"),
        dict(growth="two_stage", departure="geometric"),
        dict(growth="two_stage", departure="geometric", strata="gender"),
    ]
    rng = np.random.default_rng(606)
    worst = 0.0
    for kwargs in variants:
        config = bayes.DiscreteConfig(**kwargs)
        recs = random_selected_records(40, rng, strata=config.strata != "none")
        state = random_discrete_state(rng, config)
        got = bayes.log_lik_discrete(bayes.DiscreteData.from_records(recs, config), state,
                                     config)
        ref = brute_log_lik_discrete(recs, state, config)
        assert math.isfinite(got) and math.isfinite(ref)
        worst = max(worst, abs(got - ref) / abs(ref))
    ok = worst <= 1e-10
    _report(6, ok, f"worst rel err {worst:.2e} over 10 states "
            "(single/two-stage x uniform/geometric x strata)")
    assert worst <= 1e-10


@pytest.mark.slow
def test_criterion_7_sampler_sanity():
    """Prior-only sampling returns the Uniform(0,1) curve-scale marginal
    (KS p > 0.01); on 1000 synthetic whole-day cases the posterior mean
    incubation lands within 1 day of truth with R-hat < 1.1 for the growth
    rate, mean incubation, and the 14-day tail across 8 chains."""
    config = bayes.DiscreteConfig()
    prior_store = bayes.rwmh_run(None, config, steps=40_000, chains=4, seed=7, thin=100)
    kappa = prior_store.scalars["kappa"].reshape(-1)
    ks_p = float(stats.kstest(kappa, "uniform").pvalue)

    recs, h_true = discrete_cohort(1000, np.random.default_rng(99))
    truth_mean = float(np.arange(len(h_true)) @ h_true)
    store = bayes.rwmh_run(bayes.DiscreteData.from_records(recs, config), config,
                           steps=20_000, chains=8, seed=42)
    summ = bayes.posterior_summaries(store)
    err = abs(summ["mean_incubation"]["mean"] - truth_mean)
    functionals = bayes.headline_functionals(store)
    rhats = {name: bayes.psrf(functionals[name])
             for name in ("r1", "mean_incubation", "p_ge_14")}
    ok = ks_p > 0.01 and err <= 1.0 and all(v < 1.1 for v in rhats.values())
    _report(7, ok, f"prior KS p = {ks_p:.3f}; posterior mean incubation "
            f"{summ['mean_incubation']['mean']:.2f} vs truth {truth_mean:.2f} "
            f"(err {err:.2f} d); R-hat " + ", ".join(
                f"{k} {v:.3f}" for k, v in rhats.items()))
    assert ks_p > 0.01
    assert err <= 1.0
    for name, v in rhats.items():
        assert v < 1.1, f"R-hat for {name} is {v:.3f}"


def test_criterion_8_published_cohort_headline_fits(real_cohort):
    """On the published cohort: the joint fit reproduces the headline travel
    mix, doubling time, and incubation quantiles; the conditional and
    no-growth fits reproduce theirs; the onset-histogram fit p-value matches."""
    cohort, _ = real_cohort
    unc = inference.mle_fit(cohort, "uncond")
    cond = inference.mle_fit(cohort, "cond")
    r0 = inference.mle_fit(cohort, "cond", fixed={"r": 0.0})
    gof = inference.gof_onset_marginal(cohort, unc.theta)
    checks = [
        ("uncond rho", unc.display.rho, 0.45, 0.02),
        ("uncond doubling", unc.display.doubling_time, 2.3, 0.1),
        ("uncond median", unc.display.median_incubation, 4.6, 0.2),
        ("uncond q95", unc.display.q95_incubation, 13.5, 0.5),
        ("cond doubling", cond.display.doubling_time, 2.1, 0.1),
        ("cond median", cond.display.median_incubation, 4.5, 0.2),
        ("cond q95", cond.display.q95_incubation, 13.4, 0.5),
        ("no-growth median", r0.display.median_incubation, 9.2, 0.3),
        ("no-growth q95", r0.display.q95_incubation, 24.9, 1.0),
        ("gof p", gof.p_value, 0.94, 0.05),
    ]
    bad = [f"{name} {got:.3f} (want {want} ± {tol})"
           for name, got, want, tol in checks if abs(got - want) > tol]
    _report(8, not bad, "all headline numbers in tolerance" if not bad
            else "; ".join(bad))
    assert not bad, "; ".join(bad)


def test_criterion_9_published_cohort_bayesian_headline(real_cohort):
    """On the published cohort, the nonparametric posterior reproduces the
    headline doubling time and 14-day tail, and the male-minus-female gap in
    reaching day 2 is negative with a 95% interval excluding zero."""
    cohort, _ = real_cohort
    config = bayes.DiscreteConfig()
    store = bayes.rwmh_run(bayes.DiscreteData.from_records(cohort, config), config,
                           steps=80_000, chains=8, seed=0)
    summ = bayes.posterior_summaries(store)
    doubling = summ["doubling_time"]["mean"]
    tail14 = summ["p_ge_14"]["mean"]

    gender = bayes.DiscreteConfig(strata="gender")
    gstore = bayes.rwmh_run(bayes.DiscreteData.from_records(cohort, gender), gender,
                            steps=80_000, chains=8, seed=0)
    diff = bayes.posterior_summaries(gstore)["p_ge_2[diff]"]
    ok = (abs(doubling - 2.4) <= 0.15 and 0.02 <= tail14 <= 0.08
          and diff["mean"] < 0 and diff["hi"] < 0)
    _report(9, ok, f"doubling {doubling:.2f} d; P(>=14) {tail14:.3f}; "
            f"P(>=2) male-female diff {diff['mean']:.3f} "
            f"({diff['lo']:.3f}, {diff['hi']:.3f})")
    assert abs(doubling - 2.4) <= 0.15
    assert 0.02 <= tail14 <= 0.08
    assert diff["mean"] < 0 and diff["hi"] < 0
