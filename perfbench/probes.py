"""Inputs the benchmark builds with bets itself, the mcmc fixed-state check,
layer probes and the layer tour.

Imported only by worker.py, after bets is importable.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time

import numpy as np

from bets import bayes, generative, inference, likelihood, timeline

import workloads

#: Reference parameters of `bets simulate`: visitor mix 0.45, growth 0.30/day,
#: incubation Gamma(shape 1.86, rate 0.33).
REFERENCE = (0.45, 0.30, 1.86, 0.33)
#: The discrete model's support: incubation of 0..K-1 whole days.
K = bayes.DiscreteConfig().max_incubation
GENDER = bayes.DiscreteConfig(strata="gender")


def reference_params() -> generative.GenerativeParams:
    return generative.params_from_theta(*REFERENCE)


def discrete_cohort(n: int, seed: int) -> list[timeline.CaseRecord]:
    """n exported cases with whole-day incubation, half of them (by coin) female.

    The incubation law is the reference Gamma discretized to days 0..K-1,
    the discrete model's own support, so every case has a feasible
    infection day.
    """
    pmf = bayes.discretized_base_pmf(K, shape=REFERENCE[2], rate=REFERENCE[3])
    params = dataclasses.replace(reference_params(),
                                 incubation=generative.IncubationDist.discrete(pmf))
    rng = np.random.default_rng(seed)
    records, _ = generative.sample_exported(n, params, rng)
    coins = rng.integers(0, 2, size=len(records))
    return [dataclasses.replace(c, gender=GENDER.stratum_labels[int(x)])
            for c, x in zip(records, coins)]


def write_discrete_cohort(n: int, seed: int, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    timeline.write_cohort_csv(discrete_cohort(n, seed), path)


def reference_state(data: bayes.DiscreteData) -> bayes.NonparamState:
    """A fixed valid state: reference pmf in every stratum, growth 0.3/day,
    half the allowed curve mass, departure densities at half their cap."""
    cfg = GENDER
    r1 = REFERENCE[1]
    kappa = 0.5 / math.fsum(math.exp(r1 * t) for t in range(cfg.l + 1))
    h = np.tile(bayes.discretized_base_pmf(K, shape=REFERENCE[2], rate=REFERENCE[3]),
                (len(data.labels), 1))
    return bayes.NonparamState(h=h, r1=r1, kappa=kappa, lambda_w=0.5 / cfg.l,
                               lambda_v=0.5 / cfg.l)


def state_from_draw(row: dict) -> bayes.NonparamState:
    """The state of one draws_chain<k>.csv row (column -> value)."""
    h = [[row[f"h_{label}_{k}"] for k in range(K)] for label in GENDER.stratum_labels]
    return bayes.NonparamState(h=np.array(h), r1=row["r1"], kappa=row["kappa"],
                               lambda_w=row["lambda_w"], lambda_v=row["lambda_v"])


def log_posterior(data: bayes.DiscreteData, state: bayes.NonparamState) -> float:
    """The sampler's target at a state, in natural coordinates: log-likelihood
    plus the priors of the scalars and of every stratum's pmf."""
    h0 = bayes.discretized_base_pmf(K)
    return (bayes.log_lik_discrete(data, state, GENDER)
            + bayes.log_prior_rest(state, GENDER)
            + sum(bayes.log_prior_h(h, GENDER.mu, h0) for h in state.h))


def write_fixed_states(cohort: str, outdir: str, states: list | None) -> None:
    """Write the log-likelihood and log-posterior of the mcmc cohort at fixed
    states to outdir/FIXED_STATES: the reference state first, then each
    state of `states` (the recorded last draws of the chains).  With states
    None, as when recording, the run's own last draws are used.

    The states do not depend on the run, so the values pin the `bayes`
    kernels exactly even if the chains themselves take another path.
    """
    data = bayes.DiscreteData.from_records(timeline.read_cohort_csv(cohort), GENDER)
    rows = workloads.last_draws(outdir) if states is None else states
    fixed = [reference_state(data)] + [state_from_draw(r) for r in rows]
    values = {"log_lik": [bayes.log_lik_discrete(data, s, GENDER) for s in fixed],
              "log_post": [log_posterior(data, s) for s in fixed]}
    with open(os.path.join(outdir, workloads.FIXED_STATES), "w", encoding="utf-8") as fh:
        json.dump(values, fh)


def _per_call_us(fn, calls: int, batches: int = 7) -> float:
    """Median over batches of the mean wall time of one call, in microseconds."""
    fn()  # warm up lazy set-up
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    times.sort()
    return times[len(times) // 2] * 1e6


def probe(fit_n: int, mcmc_n: int, seed: int, fits: dict) -> dict:
    """Per-call cost of each layer's kernel, untraced.

    fits holds the recorded uncond and cond optima of the fit-ci cohort of
    this seed; the terms and the quantile inversion are timed there.
    """
    params = reference_params()
    records, _ = generative.sample_exported(fit_n, params, np.random.default_rng(seed))
    b, e, s, resident = likelihood.case_arrays(records)
    u, c = fits["uncond"]["theta"], fits["cond"]["theta"]
    m = float(math.ceil(s.max()))
    disp = fits["uncond"]["display"]
    out = {
        "likelihood.uncond_terms_us": _per_call_us(lambda: likelihood.uncond_log_terms(
            b, e, s, resident, u["rho"], u["r"], u["alpha"], u["beta"]), 20),
        "likelihood.cond_terms_us": _per_call_us(lambda: likelihood.cond_log_terms(
            b, e, s, c["r"], c["alpha"], c["beta"]), 20),
        "likelihood.trunc_terms_us": _per_call_us(lambda: likelihood.trunc_log_terms(
            b, e, s, c["r"], c["alpha"], c["beta"], m), 20),
        "likelihood.quantile_us": _per_call_us(lambda: likelihood.quantiles_to_shape_rate(
            disp["median_incubation"], disp["q95_incubation"]), 50),
    }
    data = bayes.DiscreteData.from_records(discrete_cohort(mcmc_n, seed), GENDER)
    state = reference_state(data)
    out["bayes.loglik_us"] = _per_call_us(
        lambda: bayes.log_lik_discrete(data, state, GENDER), 10)
    out["generative.sample800_s"] = _per_call_us(
        lambda: generative.sample_exported(800, params, np.random.default_rng(seed)),
        1) / 1e6
    return out


def tour(workdir: str, seed: int = 0) -> None:
    """A small fixed call into every layer, run traced before the workload.

    It gives every layer spans on every workload, so that no per-layer
    time reads as a constant zero, and it runs the r = 0 and truncated fits
    that no workload of BENCHMARK.json runs.  Its counts are the same on
    every run.
    """
    params = reference_params()
    records, _ = generative.sample_exported(100, params, np.random.default_rng(seed))
    path = os.path.join(workdir, "tour.csv")
    timeline.write_cohort_csv(records, path)
    records = timeline.read_cohort_csv(path)
    inference.mle_fit(records, "cond")
    inference.mle_fit(records, "cond", fixed={"r": 0.0})
    last = max(c.S for c in records)
    inference.mle_fit(records, "cond_trunc", M=last)
    data = bayes.DiscreteData.from_records(discrete_cohort(100, seed), GENDER)
    store = bayes.rwmh_run(data, GENDER, steps=20, chains=2, seed=seed, thin=1)
    bayes.posterior_summaries(store)
    bayes.psrf(np.vstack([np.sin(np.arange(100.0)), np.cos(np.arange(100.0))]))
