"""Tests for the discrete-day model: priors, likelihood, sampler, diagnostics.

The likelihood oracle is a pure-Python lattice enumeration (tests/helpers),
the prior examples are checked by direct arithmetic, and sampler behavior is
pinned with tiny seeded runs.
"""

from __future__ import annotations

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from scipy import special, stats

from bets import bayes
from bets.bayes import (
    ChainStore,
    DiscreteConfig,
    DiscreteData,
    NonparamState,
    discretized_base_pmf,
    log_lik_discrete,
    log_prior_h,
    log_prior_rest,
    posterior_summaries,
    psrf,
    rwmh_run,
)
from helpers import (
    brute_log_lik_discrete,
    discrete_cohort,
    random_discrete_state,
    random_selected_records,
    reference_target,
)


def uniform_state(config: DiscreteConfig, r1: float = 0.12,
                  h: np.ndarray | None = None, **overrides) -> NonparamState:
    if h is None:
        h = np.full((config.n_strata, config.max_incubation),
                    1.0 / config.max_incubation)
    t = np.arange(config.l + 1, dtype=float)
    cap = 1.0 / float(np.exp(r1 * t).sum())
    kwargs = dict(h=h, r1=r1, kappa=0.5 * cap,
                  lambda_w=0.9 / config.l, lambda_v=0.8 / config.l)
    kwargs.update(overrides)
    return NonparamState(**kwargs)


# ---------------------------------------------------------------------------
# Base pmf and priors
# ---------------------------------------------------------------------------

def test_discretized_base_pmf_matches_direct_computation():
    h0 = discretized_base_pmf()
    assert h0.shape == (30,)
    assert h0.sum() == pytest.approx(1.0, abs=1e-12)
    cdf = stats.gamma.cdf(np.arange(31), 9.0, scale=1.0 / 1.5)
    ref = np.diff(cdf) / cdf[-1]
    np.testing.assert_allclose(h0, ref, rtol=1e-12)
    assert int(np.argmax(h0)) == 5
    assert h0[14:].sum() == pytest.approx(0.00113, abs=2e-4)


def test_frozen_prior_base_pmf_is_the_discretized_gamma():
    """The sampler's prior reads bayes._H0, written out so that `bets mcmc`
    starts without SciPy.  A SciPy whose gammainc moves fails here rather
    than silently moving the prior."""
    frozen = bayes._H0
    assert frozen.dtype == np.float64 and frozen.shape == (DiscreteConfig.max_incubation,)
    assert np.array_equal(frozen, discretized_base_pmf(DiscreteConfig.max_incubation))


def test_log_prior_h_at_the_base_pmf():
    h0 = discretized_base_pmf()
    log_h0 = np.log(h0)
    # the base pmf is log-concave, so only the tilt term contributes
    assert np.all(2 * log_h0[1:-1] - log_h0[:-2] - log_h0[2:] >= 0)
    expected = float(((h0 - 1.0) * log_h0).sum())
    assert log_prior_h(h0, 1.0, h0) == pytest.approx(expected, rel=1e-12)


def test_log_prior_h_penalizes_notches():
    h0 = discretized_base_pmf()
    base = log_prior_h(h0, 1.0, h0)
    notched = h0.copy()
    notched[7] *= 0.2
    notched /= notched.sum()
    shallow = log_prior_h(notched, 1.0, h0)
    deeper = h0.copy()
    deeper[7] *= 0.02
    deeper /= deeper.sum()
    assert shallow < base
    assert log_prior_h(deeper, 1.0, h0) < shallow


def test_log_prior_h_concentration_scales_the_tilt():
    h0 = discretized_base_pmf()
    rng = np.random.default_rng(71)
    h = rng.dirichlet(np.full(30, 2.0))
    gap = log_prior_h(h, 5.0, h0) - log_prior_h(h, 1.0, h0)
    assert gap == pytest.approx(4.0 * float(h0 @ np.log(h)), rel=1e-10)
    with pytest.raises(ValueError):
        log_prior_h(h[:10], 1.0, h0)


def test_log_prior_rest_contributions():
    config = DiscreteConfig()
    s = uniform_state(config, r1=0.3)
    # Exp(1) on the growth rate plus one log-L volume factor per stay density
    assert log_prior_rest(s, config) == pytest.approx(-0.3 + 2 * math.log(54))
    assert (log_prior_rest(uniform_state(config, r1=0.3), config)
            - log_prior_rest(uniform_state(config, r1=0.0), config)
            == pytest.approx(-0.3, rel=1e-12))


@pytest.mark.parametrize("overrides", [
    dict(r1=-0.01),
    dict(kappa=1.5),
    dict(lambda_w=2.0 / 54),
    dict(lambda_w=1.0 / 54),  # the box is open
])
def test_log_prior_rest_boxes(overrides):
    config = DiscreteConfig()
    state = uniform_state(config, **overrides)
    assert log_prior_rest(state, config) == -math.inf


def test_log_prior_rest_two_stage_normal_term():
    single = DiscreteConfig()
    double = DiscreteConfig(growth="two_stage")
    norm = math.log(2.0 * math.sqrt(2.0 * math.pi))
    for r2 in (0.0, 1.0, -2.0):
        gap = (log_prior_rest(uniform_state(double, r2=r2), double)
               - log_prior_rest(uniform_state(single), single))
        assert gap == pytest.approx(-0.125 * r2 ** 2 - norm, rel=1e-12)
    with pytest.raises(ValueError):
        log_prior_rest(uniform_state(single), double)  # missing r2


@pytest.mark.parametrize("config, overrides, message", [
    (DiscreteConfig(growth="two_stage"), {}, "two_stage growth needs r2"),
    (DiscreteConfig(), dict(lambda_v=None), "uniform departure needs lambda_w and lambda_v"),
    (DiscreteConfig(departure="geometric"), {}, "geometric departure needs eta"),
])
def test_state_must_fit_its_config(config, overrides, message):
    """Both public entries reject a state that lacks a scalar the config reads."""
    state = uniform_state(config, **overrides)
    recs, _ = discrete_cohort(20, np.random.default_rng(93))
    with pytest.raises(ValueError, match=message):
        log_prior_rest(state, config)
    with pytest.raises(ValueError, match=message):
        log_lik_discrete(DiscreteData.from_records(recs, config), state, config)


@pytest.mark.parametrize("name, overrides", [
    ("h", dict(h=np.r_[np.nan, np.full(29, 1 / 29)])),
    ("r1", dict(r1=math.nan)),
    ("kappa", dict(kappa=math.inf)),
    ("r2", dict(r2=math.nan)),
    ("lambda_w", dict(lambda_w=math.nan)),
    ("lambda_v", dict(lambda_v=math.inf)),
    ("eta", dict(eta=np.full((2, 2), math.nan))),
    ("r1", dict(r1=None)),
    ("kappa", dict(kappa=None)),
])
def test_nonparam_state_names_a_value_that_is_not_a_finite_number(name, overrides):
    """NaN fails no `<` check: a NaN in h used to pass both checks on h.
    r1 and kappa may not be None; r2, lambda_w and lambda_v may."""
    kwargs = {"h": np.ones(30) / 30, "r1": 0.1, "kappa": 0.5, **overrides}
    with pytest.raises(ValueError, match=f"^{name} must "):
        NonparamState(**kwargs)


def test_nonparam_state_validation():
    with pytest.raises(ValueError):
        NonparamState(h=np.full(30, 0.5), r1=0.1, kappa=0.5)  # rows must sum to 1
    with pytest.raises(ValueError):
        NonparamState(h=-np.ones(30) / 30, r1=0.1, kappa=0.5)
    with pytest.raises(ValueError):
        NonparamState(h=np.ones(30) / 30, r1=0.1, kappa=0.5,
                      eta=np.zeros((2, 3)))


def test_discrete_config_validation():
    with pytest.raises(ValueError):
        DiscreteConfig(growth="triple")
    with pytest.raises(ValueError):
        DiscreteConfig(departure="weibull")
    with pytest.raises(ValueError):
        DiscreteConfig(strata="city")
    for mu in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="mu must be"):
            DiscreteConfig(mu=mu)
    assert DiscreteConfig(strata="gender").stratum_labels == ("male", "female")


# ---------------------------------------------------------------------------
# Discrete data and likelihood
# ---------------------------------------------------------------------------

def test_discrete_data_from_records():
    config = DiscreteConfig(strata="gender")
    recs = random_selected_records(20, np.random.default_rng(81), strata=True)
    recs.append(dataclasses.replace(recs[0], case_id="u-1", gender="unknown"))
    data = DiscreteData.from_records(recs, config)
    assert len(data) == 20 and data.n_dropped == 1
    assert set(data.stratum) <= {0, 1}


def test_discrete_data_rejects_infeasible_case():
    """from_records drops a case with no infection day within max_incubation
    days of its onset and counts it."""
    config = DiscreteConfig(strata="gender")
    recs = random_selected_records(5, np.random.default_rng(82), strata=True)
    far = dataclasses.replace(recs[0], case_id="far-1", B_int=0, E_int=3, S_int=40,
                              B=0.0, E=3.5, S=40.25)
    other = dataclasses.replace(recs[1], case_id="u-1", gender="unknown")
    data = DiscreteData.from_records(recs + [far, other], config)
    assert data.case_ids == [c.case_id for c in recs]
    assert data.dropped == {"outside_strata": 1, "no_feasible_infection_day": 1}
    assert data.n_dropped == 2
    kept = DiscreteData.from_records(recs, config)
    assert np.array_equal(data.inverse, kept.inverse)
    assert data.rows == kept.rows
    for index in ("rowmap", "products"):
        for mine, theirs in zip(getattr(data, index), getattr(kept, index), strict=True):
            assert np.array_equal(mine, theirs)
    assert sorted(data.stay_index) == sorted(kept.stay_index)
    for departure, index in data.stay_index.items():
        assert np.array_equal(index, kept.stay_index[departure])
    with pytest.raises(ValueError, match="no cases left"):
        DiscreteData.from_records([far], config)


def test_discrete_data_windows_give_back_each_rows_days():
    """Each case's window of candidate infection days, found through its row
    (inverse), its stratum's rowmap and the window's products // K, is the
    days S* - k inside its stay and inside 0..L, the others at day L + 1;
    each stratum's windows are distinct and, over all strata, fewer than the
    rows.  products % K gives back k, and the stay-weight indices each
    case's (B*, E*)."""
    config = DiscreteConfig(strata="gender")
    recs = random_selected_records(300, np.random.default_rng(80), strata=True)
    data = DiscreteData.from_records(recs, config)
    K, l = config.max_incubation, config.l
    t = data.s[:, None] - np.arange(K)[None, :]
    inside = (t >= data.b[:, None]) & (t <= data.e[:, None]) & (t >= 0) & (t <= l)
    days = np.where(inside, t, l + 1)
    n_windows = 0
    for s, (rows, rowmap, products) in enumerate(zip(data.rows, data.rowmap, data.products)):
        assert rowmap.shape == (rows.stop - rows.start,)
        windows = products // K
        assert np.array_equal(products % K, np.broadcast_to(np.arange(K), products.shape))
        assert len(np.unique(windows, axis=0)) == len(windows)
        cases = np.flatnonzero(data.stratum == s)
        row = data.inverse[cases]
        assert np.all((rows.start <= row) & (row < rows.stop))
        assert np.array_equal(windows[rowmap[row - rows.start]], days[cases])
        n_windows += len(windows)
    assert n_windows < data.inverse.max() + 1
    assert sorted(data.stay_index) == sorted(bayes.DEPARTURE)
    assert np.array_equal(data.stay_index["uniform"][data.inverse], data.b)
    assert np.array_equal(np.divmod(data.stay_index["geometric"][data.inverse], l + 1),
                          (data.b, data.e))


@pytest.mark.parametrize("strata, male_only", [("none", False), ("gender", False),
                                               ("age50", False), ("gender", True)])
def test_discrete_data_indices_are_those_of_np_unique(strata, male_only):
    """DiscreteData's indices equal np.unique(axis=0)'s: inverse over
    (stratum, B*, E*, S*), sorted stratum first, which the rows slices read;
    each stratum's rowmap and products over its rows' infection days; and
    the rows' (B*, E*) in stay_index for both departure models.  The
    male-only cohort leaves the female stratum empty."""
    config = DiscreteConfig(strata=strata)
    recs = random_selected_records(300, np.random.default_rng(84), strata=True)
    if male_only:
        recs = [dataclasses.replace(c, gender="male") for c in recs]
    data = DiscreteData.from_records(recs, config)
    K, l = config.max_incubation, config.l
    tuples = np.stack([data.stratum, data.b, data.e, data.s], axis=1)
    _, first, inverse = np.unique(tuples, axis=0, return_index=True, return_inverse=True)
    assert np.array_equal(data.inverse, inverse.ravel())
    ends = np.cumsum(np.bincount(data.stratum[first], minlength=config.n_strata)).tolist()
    assert data.rows == [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]
    b, e, s = data.b[first], data.e[first], data.s[first]
    t = s[:, None] - np.arange(K)[None, :]
    inside = (t >= b[:, None]) & (t <= e[:, None]) & (t >= 0) & (t <= l)
    days = np.where(inside, t, l + 1)
    for rows, rowmap, products in zip(data.rows, data.rowmap, data.products, strict=True):
        windows, windowmap = np.unique(days[rows], axis=0, return_inverse=True)
        assert np.array_equal(rowmap, windowmap.ravel())
        assert np.array_equal(products, windows * K + np.arange(K))
    assert np.array_equal(data.stay_index["uniform"], b)
    assert np.array_equal(data.stay_index["geometric"], b * (l + 1) + e)
    sizes = [rows.stop - rows.start for rows in data.rows]
    assert all(sizes[:-1]) and (sizes[-1] == 0) == male_only


@pytest.mark.parametrize("make", [
    lambda: DiscreteData.from_records(random_selected_records(10, np.random.default_rng(87)),
                                      DiscreteConfig()),
    lambda: uniform_state(DiscreteConfig()),
    lambda: ChainStore(config=DiscreteConfig(), scalars={"r1": np.ones((2, 3))},
                       h=np.full((2, 3, 1, 30), 1 / 30), acceptance=np.ones((2, 2)),
                       step_sizes=np.ones((2, 2)), n_cases=10),
], ids=["DiscreteData", "NonparamState", "ChainStore"])
def test_array_dataclasses_compare_by_identity(make):
    """== on the dataclasses that hold arrays is identity: False for two
    instances with equal content (not an ambiguous array truth value), True
    for the same instance."""
    a, b = make(), make()
    assert (a == b) is False
    assert (a == a) is True


def test_log_lik_discrete_matches_enumeration():
    """Also on repeated cases, which the likelihood evaluates once."""
    rng = np.random.default_rng(83)
    for config in (DiscreteConfig(), DiscreteConfig(departure="geometric")):
        recs = random_selected_records(25, rng)
        recs += [dataclasses.replace(c, case_id=c.case_id + "-twin") for c in recs[:10]]
        state = random_discrete_state(rng, config)
        got = log_lik_discrete(DiscreteData.from_records(recs, config), state, config)
        ref = brute_log_lik_discrete(recs, state, config)
        assert got == pytest.approx(ref, rel=1e-12)


def test_log_lik_discrete_rejects_oversized_curves():
    config = DiscreteConfig()
    data = DiscreteData.from_records(random_selected_records(10, np.random.default_rng(84)),
                                     config)
    state = uniform_state(config)
    heavy = dataclasses.replace(state, kappa=0.9, r1=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_lik_discrete(data, heavy, config) == -math.inf  # silent


def test_log_lik_discrete_warns_on_zero_numerator():
    config = DiscreteConfig()
    rec = random_selected_records(1, np.random.default_rng(85))[0]
    case = dataclasses.replace(rec, case_id="gap-1", B_int=0, E_int=5, S_int=10,
                               B=0.0, E=5.5, S=10.25)
    h = np.zeros((1, 30))
    h[0, 0] = 1.0  # onset would have to be 5-10 days after infection
    state = uniform_state(config, h=h)
    with pytest.warns(RuntimeWarning, match="gap-1"):
        assert log_lik_discrete(DiscreteData.from_records([case], config), state,
                                config) == -math.inf


def test_zero_likelihood_warning_names_the_first_case_in_case_order():
    """Cases are evaluated once per distinct (B*, E*, S*, stratum) tuple, in
    stratum order; the warning still names the first offending case of the
    input, with its own whole days."""
    config = DiscreteConfig(strata="gender")
    rec = random_selected_records(1, np.random.default_rng(85))[0]

    def case(case_id, gender, b, e, s):
        return dataclasses.replace(rec, case_id=case_id, gender=gender, B_int=b, E_int=e,
                                   S_int=s, B=float(b), E=e + 0.5, S=s + 0.25)

    recs = [case("ok-1", "male", 0, 10, 5), case("gap-b", "female", 0, 5, 10),
            case("gap-a", "male", 0, 3, 9), case("gap-b2", "female", 0, 5, 10),
            case("ok-2", "male", 0, 10, 5)]
    data = DiscreteData.from_records(recs, config)
    assert data.inverse.max() + 1 == 3
    h = np.zeros((2, 30))
    h[:, 0] = 1.0  # onset on the day of infection: S* must fall within the stay
    with pytest.warns(RuntimeWarning) as caught:
        assert log_lik_discrete(data, uniform_state(config, h=h), config) == -math.inf
    assert [str(w.message) for w in caught] == [
        "case gap-b has zero likelihood (B*=0, E*=5, S*=10)"]


def test_log_lik_discrete_validates_h_shape():
    config = DiscreteConfig(strata="gender")
    recs = random_selected_records(5, np.random.default_rng(86), strata=True)
    state = uniform_state(DiscreteConfig())  # one stratum, needs two
    with pytest.raises(ValueError, match="h must be"):
        log_lik_discrete(DiscreteData.from_records(recs, config), state, config)


def test_logsumexp_matches_scipy_on_curve_exponents():
    """Bitwise agreement with scipy.special.logsumexp on the 55-element log
    curves the likelihood and the start-state draw reduce, and on pmf logits."""
    rng = np.random.default_rng(87)
    configs = (DiscreteConfig(), DiscreteConfig(growth="two_stage"))
    for config in configs:
        for r1 in (0.0, 1e-9, 0.003, 0.14, 0.5, 3.0):
            for r2 in (-1.5, 0.0, 0.2):
                expo = bayes._log_curve(r1, r2, config)
                assert expo.shape == (config.l + 1,)
                for x in (expo, math.log(0.37) + expo):
                    assert bayes._logsumexp(x) == float(special.logsumexp(x))
    for _ in range(200):
        logits = np.log(rng.dirichlet(np.full(30, 0.5)) + 1e-12)
        assert bayes._logsumexp(logits) == float(special.logsumexp(logits))


def test_discrete_likelihood_tracks_the_continuous_one():
    """Across a growth-rate x incubation-rate grid around the truth, the
    whole-day likelihood orders parameter points like the continuous joint
    likelihood, and both peak in the same (true-growth) cell."""
    from bets import generative, likelihood as lk

    params = generative.params_from_theta(0.45, 0.30, 1.86, 0.33)
    recs, _ = generative.sample_exported(250, params, np.random.default_rng(87))
    recs = [c for c in recs if c.S_int - c.E_int <= 25]
    config = DiscreteConfig()
    data = DiscreteData.from_records(recs, config)
    disc, cont, r_of_cell = [], [], []
    for r in np.linspace(0.20, 0.40, 5):
        for beta in np.linspace(0.25, 0.45, 5):
            pmf = np.diff(stats.gamma.cdf(np.arange(31), 1.86, scale=1 / beta))
            state = uniform_state(config, r1=float(r), h=pmf / pmf.sum())
            disc.append(log_lik_discrete(data, state, config))
            theta = lk.ParamTheta(float(r), 1.86, float(beta), rho=0.45)
            cont.append(lk.log_lik(recs, "uncond", theta))
            r_of_cell.append(float(r))
    disc, cont = np.array(disc), np.array(cont)
    assert np.corrcoef(disc, cont)[0, 1] > 0.9
    assert disc.argmax() == cont.argmax()
    assert r_of_cell[disc.argmax()] == pytest.approx(0.30)


# ---------------------------------------------------------------------------
# Sampler mechanics
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_run():
    recs, _ = discrete_cohort(80, np.random.default_rng(88))
    config = DiscreteConfig()
    store = rwmh_run(DiscreteData.from_records(recs, config), config, steps=2500, chains=2,
                     seed=1)
    return store


def test_rwmh_store_structure(tiny_run):
    store = tiny_run
    assert store.n_chains == 2
    assert store.n_draws == (2500 - 1250) // 10
    assert store.h.shape == (2, store.n_draws, 1, 30)
    assert set(store.scalars) == {"r1", "kappa", "lambda_w", "lambda_v"}
    assert store.acceptance.shape == (2, 2)
    assert store.group_names == ["scalars", "h[all]"]
    assert store.n_cases == 80 and store.n_dropped == 0
    np.testing.assert_allclose(store.h.sum(axis=-1), 1.0, atol=1e-12)
    assert (store.scalars["r1"] > 0).all()
    assert ((store.scalars["kappa"] > 0) & (store.scalars["kappa"] < 1)).all()
    lam_hi = 1.0 / 54
    for key in ("lambda_w", "lambda_v"):
        assert ((store.scalars[key] > 0) & (store.scalars[key] < lam_hi)).all()


def test_functional_values(tiny_run):
    store = tiny_run
    got = bayes.headline_functionals(store)
    assert list(got) == ["r1", "doubling_time", "mean_incubation"] + [
        f"p_ge_{c}" for c in bayes.TAIL_CUTOFFS]
    assert got["r1"] is store.scalars["r1"]
    np.testing.assert_allclose(got["doubling_time"],
                               math.log(2) / store.scalars["r1"], rtol=1e-12)
    k = np.arange(30)
    np.testing.assert_allclose(got["mean_incubation"],
                               (store.h[:, :, 0, :] * k).sum(axis=-1), rtol=1e-12)
    np.testing.assert_allclose(got["p_ge_14"],
                               store.h[:, :, 0, 14:].sum(axis=-1), atol=1e-14)
    for values in got.values():
        assert values.shape == (store.n_chains, store.n_draws)


def test_headline_functionals_of_a_stratified_store():
    """Per-stratum keys in label order, then the first-minus-second gap."""
    rng = np.random.default_rng(94)
    h = rng.dirichlet(np.ones(30), size=(2, 3, 2))
    store = bayes.ChainStore(
        config=DiscreteConfig(strata="gender"), scalars={"r1": rng.uniform(0.1, 0.3, (2, 3))},
        h=h, acceptance=np.ones((2, 3)), step_sizes=np.ones((2, 3)), n_cases=0)
    got = bayes.headline_functionals(store)
    names = ["mean_incubation"] + [f"p_ge_{c}" for c in bayes.TAIL_CUTOFFS]
    assert list(got) == ["r1", "doubling_time"] + [
        f"{name}[{suffix}]" for name in names for suffix in ("male", "female", "diff")]
    k = np.arange(30)
    np.testing.assert_allclose(got["mean_incubation[female]"], h[:, :, 1] @ k, rtol=1e-12)
    np.testing.assert_allclose(got["p_ge_2[diff]"],
                               h[:, :, 0, 2:].sum(-1) - h[:, :, 1, 2:].sum(-1), atol=1e-14)


def test_posterior_summaries_shape(tiny_run):
    summ = posterior_summaries(tiny_run)
    assert {"r1", "doubling_time", "mean_incubation"} <= set(summ)
    for c in bayes.TAIL_CUTOFFS:
        assert f"p_ge_{c}" in summ
    for entry in summ.values():
        assert entry["lo"] <= entry["mean"] <= entry["hi"]


def test_frozen_proposals_accept_everything():
    """A zero step proposes the current state: every move of every chain is
    accepted, the burn-in adaptation keeps the step at zero, and no chain
    moves."""
    recs, _ = discrete_cohort(40, np.random.default_rng(89))
    config = DiscreteConfig()
    data = DiscreteData.from_records(recs, config)
    coords = bayes._Coords(config)
    h0 = discretized_base_pmf()
    target = bayes._make_target(coords, data, config)
    state = uniform_state(config, h=h0[None, :])
    lp, parts = target(np.tile(coords.pack(state), (2, 1)))
    rngs = [np.random.default_rng(2), np.random.default_rng(3)]
    draws, rates, step = bayes._run_chains(coords, target, 600, 300, 10, rngs, lp, parts,
                                           np.zeros(1 + coords.S))
    assert (rates == 1.0).all()
    assert (step == 0.0).all()
    assert draws.shape == (2, 30, coords.size)
    for u in draws.reshape(-1, coords.size):
        assert coords.scalar_state(u).r1 == pytest.approx(state.r1, rel=1e-12)
        np.testing.assert_allclose(coords.h(u), state.h, atol=1e-12)


@pytest.mark.parametrize("burn_in", [3 * bayes._ADAPT_WINDOW - 1, 3 * bayes._ADAPT_WINDOW,
                                     3 * bayes._ADAPT_WINDOW + 50])
@pytest.mark.parametrize("accept", [True, False])
def test_step_sizes_adapt_once_per_full_burn_in_window(burn_in, accept):
    """Every chain's every group adapts after each full burn-in window and
    never after: a target that accepts every move scales the steps by 1.4
    per window, one that rejects every move by 0.7; the post-burn-in rates
    are 1 and 0."""
    config = DiscreteConfig(strata="gender")
    coords = bayes._Coords(config)
    u0 = np.zeros((2, coords.size))

    def target(u, parts=None, group=None):
        keep = accept or np.array_equal(u, u0)
        return np.full(len(u), 0.0 if keep else -math.inf), bayes._Parts(u)

    step0 = np.array([0.1, 0.15, 0.2])
    steps, thin = burn_in + 75, 10
    lp, parts = target(u0)
    rngs = [np.random.default_rng(7), np.random.default_rng(8)]
    draws, rates, step = bayes._run_chains(coords, target, steps, burn_in, thin, rngs, lp,
                                           parts, step0)
    want = step0.copy()
    for _ in range(burn_in // bayes._ADAPT_WINDOW):
        want = want * (1.4 if accept else 0.7)
    assert np.array_equal(step, np.tile(want, (2, 1)))
    assert np.array_equal(rates, np.full((2, 1 + coords.S), 1.0 if accept else 0.0))
    assert draws.shape == (2, len(range(burn_in, steps, thin)), coords.size)


def test_rwmh_input_validation():
    """Data built for one stratification is refused under the other, by the
    sampler and by the likelihood, with both strata's labels named."""
    recs = random_selected_records(10, np.random.default_rng(90), strata=True)
    none, gender = DiscreteConfig(), DiscreteConfig(strata="gender")
    for built, run in ((gender, none), (none, gender)):
        data = DiscreteData.from_records(recs, built)
        names_both = ".*".join(re.escape(str(c.stratum_labels)) for c in (built, run))
        with pytest.raises(ValueError, match=names_both):
            rwmh_run(data, run, steps=200, chains=1)
        with pytest.raises(ValueError, match=names_both):
            log_lik_discrete(data, uniform_state(run), run)
    data = DiscreteData.from_records(recs, none)
    for name, value in (("chains", 0), ("steps", 0), ("thin", 0), ("thin", -1)):
        with pytest.raises(ValueError, match=f"{name} must be at least 1, got {value}"):
            rwmh_run(data, none, **{"steps": 200, "chains": 1, name: value})


def test_two_stage_run_exposes_second_rate():
    recs, _ = discrete_cohort(60, np.random.default_rng(91))
    config = DiscreteConfig(growth="two_stage")
    store = rwmh_run(DiscreteData.from_records(recs, config), config, steps=1000,
                     chains=2, seed=3)
    assert "r2" in store.scalars
    assert "r2" in posterior_summaries(store)


def test_geometric_two_stage_run_draws_hazards_in_the_unit_interval():
    """Geometric departure samples the four leave hazards, each in (0, 1),
    next to two-stage growth's second rate."""
    recs, _ = discrete_cohort(60, np.random.default_rng(91))
    config = DiscreteConfig(growth="two_stage", departure="geometric")
    store = rwmh_run(DiscreteData.from_records(recs, config), config, steps=1000,
                     chains=2, seed=4)
    eta = ["eta_w1", "eta_w2", "eta_v1", "eta_v2"]
    assert set(store.scalars) == {"r1", "r2", "kappa", *eta}
    for name in eta:
        assert ((store.scalars[name] > 0) & (store.scalars[name] < 1)).all()


def test_indistinguishable_strata_have_no_gap():
    """Duplicate every case into both gender strata: posterior differences
    must straddle zero."""
    base, _ = discrete_cohort(60, np.random.default_rng(92))
    recs = []
    for c in base:
        recs.append(dataclasses.replace(c, case_id=c.case_id + "m", gender="male"))
        recs.append(dataclasses.replace(c, case_id=c.case_id + "f", gender="female"))
    config = DiscreteConfig(strata="gender")
    store = rwmh_run(DiscreteData.from_records(recs, config), config, steps=4000,
                     chains=4, seed=11)
    summ = posterior_summaries(store)
    for name in ("mean_incubation[diff]", "p_ge_7[diff]"):
        assert summ[name]["lo"] < 0 < summ[name]["hi"]
    assert "mean_incubation[male]" in summ and "mean_incubation[female]" in summ


def _uncached_target(coords, data, config):
    """The sampler's log-posterior evaluated from scratch at every batch of
    points: the parts and moved group it is handed are ignored, so nothing
    is reused between evaluations."""
    target = bayes._make_target(coords, data, config)

    def log_post(u, parts=None, group=None):
        return target(u)

    return log_post


@pytest.fixture(scope="module")
def gender_target():
    """A gender-stratified cohort and three chains' valid starts."""
    base, _ = discrete_cohort(100, np.random.default_rng(93))
    recs = [dataclasses.replace(c, gender=("male", "female")[i % 2])
            for i, c in enumerate(base)]
    config = DiscreteConfig(strata="gender")
    data = DiscreteData.from_records(recs, config)
    coords = bayes._Coords(config)
    rngs = [np.random.default_rng(s) for s in (94, 95, 96)]
    _, parts = bayes._find_starts(coords, config, bayes._make_target(coords, data, config),
                                  rngs, prior_only=False)
    return coords, data, config, parts.u


def test_cached_target_is_exact(gender_target, monkeypatch):
    """Every value of the target that reuses the current points' parts
    equals a from-scratch evaluation of the same batch, on chains with both
    accepted and rejected scalar proposals; a scalar move recomputes the
    h*-free terms once for the batch and no pmf, a move of stratum s only
    s's pmfs."""
    coords, data, config, u0 = gender_target
    scalar_calls, pmf_shapes = [], []

    def counted(real, record):
        def fn(*args):
            record(args)
            return real(*args)
        return fn

    monkeypatch.setattr(bayes, "_scalar_terms", counted(
        bayes._scalar_terms, lambda args: scalar_calls.append(len(args[0]))))
    monkeypatch.setattr(bayes, "_pmf", counted(
        bayes._pmf, lambda args: pmf_shapes.append(args[0].shape)))
    target = bayes._make_target(coords, data, config)
    visited = []

    def recorded(u, parts=None, group=None):
        lp, parts = target(u, parts, group)
        visited.append((u.copy(), lp.copy()))
        return lp, parts

    steps, n = 150, len(u0)
    lp, parts = recorded(u0.copy())  # the chains move parts.u in place
    rngs = [np.random.default_rng(5 + c) for c in range(n)]
    _, rates, _ = bayes._run_chains(coords, recorded, steps, 0, 1, rngs, lp, parts,
                                    np.array([0.3, 0.15, 0.15]))
    assert 0 < rates[:, 0].min() and rates[:, 0].max() < 1  # scalar moves both ways
    # once for the starts, then once per batch of scalar proposals
    assert scalar_calls == [n] * (1 + steps)
    # every stratum's pmfs at the start, then one stratum's per move of its logits
    assert pmf_shapes == [(n, coords.S, coords.h_block)] + [(n, coords.h_block)] * (
        coords.S * steps)
    assert len(visited) == 1 + steps * (1 + coords.S)
    monkeypatch.undo()
    fresh = _uncached_target(coords, data, config)
    for u, lp in visited:
        assert np.array_equal(lp, fresh(u)[0])


def test_cached_target_leaves_the_chain_unchanged(gender_target):
    """Same draws, rates and adapted steps with and without reusing the
    parts, over a burn-in long enough for the step sizes to adapt twice."""
    coords, data, config, u0 = gender_target
    step0 = np.array([0.1, 0.15, 0.15])
    runs = []
    for target in (bayes._make_target(coords, data, config),
                   _uncached_target(coords, data, config)):
        lp, parts = target(u0.copy())  # the chains move parts.u in place
        rngs = [np.random.default_rng(6 + c) for c in range(len(u0))]
        runs.append(bayes._run_chains(coords, target, 300, 2 * bayes._ADAPT_WINDOW + 20, 5,
                                      rngs, lp, parts, step0))
    (d1, r1, s1), (d2, r2, s2) = runs
    assert not np.array_equal(s1, np.tile(step0, (len(u0), 1)))  # the adaptation fired
    assert np.array_equal(d1, d2)
    assert np.array_equal(r1, r2) and np.array_equal(s1, s2)


def test_chains_do_not_couple():
    """Chain i of a batch draws exactly what it draws in a smaller batch:
    the same draws, acceptance rates and step sizes, whatever the other
    chains do."""
    recs = random_selected_records(80, np.random.default_rng(99), strata=True)
    config = DiscreteConfig(strata="gender")
    data = DiscreteData.from_records(recs, config)
    runs = {n: rwmh_run(data, config, steps=300, chains=n, seed=5, thin=5) for n in (1, 2, 4)}
    for small, big in ((1, 4), (2, 4), (1, 2)):
        a, b = runs[small], runs[big]
        assert np.array_equal(a.h, b.h[:small])
        assert np.array_equal(a.acceptance, b.acceptance[:small])
        assert np.array_equal(a.step_sizes, b.step_sizes[:small])
        for name, values in a.scalars.items():
            assert np.array_equal(values, b.scalars[name][:small])
    assert not np.array_equal(runs[4].h[0], runs[4].h[1])


def assert_same_store(got: ChainStore, want: ChainStore) -> None:
    assert np.array_equal(got.h, want.h)
    assert np.array_equal(got.acceptance, want.acceptance)
    assert np.array_equal(got.step_sizes, want.step_sizes)
    assert got.scalars.keys() == want.scalars.keys()
    for name, values in want.scalars.items():
        assert np.array_equal(got.scalars[name], values)
    assert (got.n_cases, got.n_dropped) == (want.n_cases, want.n_dropped)


@pytest.mark.parametrize("strata", ["none", "gender"])
@pytest.mark.parametrize("departure", bayes.DEPARTURE)
@pytest.mark.parametrize("growth", bayes.GROWTH)
def test_chains_in_worker_processes_give_the_serial_store(growth, departure, strata, cpus):
    """2 and 3 CPUs run contiguous groups of chains (uneven ones at 3 and
    5 chains), each as its own batch, all but the first in a worker process;
    every array of the store is the one CPU's run's."""
    recs = random_selected_records(60, np.random.default_rng(31), strata=True)
    config = DiscreteConfig(growth=growth, departure=departure, strata=strata)
    data = DiscreteData.from_records(recs, config)
    for chains in (1, 3, 4, 5):
        cpus(1)
        serial = rwmh_run(data, config, steps=40, chains=chains, seed=6, thin=2)
        for n in (2, 3):
            cpus(n)
            assert_same_store(rwmh_run(data, config, steps=40, chains=chains, seed=6,
                                       thin=2), serial)


@pytest.mark.parametrize("prior_only", [False, True], ids=["posterior", "prior-only"])
def test_adapted_chains_in_worker_processes_give_the_serial_store(prior_only, cpus):
    """The same through two step-size adaptations (a 200-step burn-in)."""
    recs = random_selected_records(60, np.random.default_rng(32), strata=True)
    config = DiscreteConfig(strata="gender")
    data = None if prior_only else DiscreteData.from_records(recs, config)
    runs = []
    for n in (1, 2, 3):
        cpus(n)
        runs.append(rwmh_run(data, config, steps=400, chains=5, seed=3, thin=5))
    assert not np.array_equal(runs[0].step_sizes, np.tile([0.1, 0.15, 0.15], (5, 1)))
    for run in runs[1:]:
        assert_same_store(run, runs[0])


def test_each_start_is_evaluated_once(monkeypatch, cpus):
    """The chains start from the parts the start search computed: the
    target runs once per start candidate and once per chain and move."""
    cpus(1)  # the calls are counted in this process
    recs = random_selected_records(40, np.random.default_rng(90), strata=True)
    starts, evals = [], []
    init_state, log_prior_rest = bayes._init_state, bayes.log_prior_rest
    monkeypatch.setattr(bayes, "_init_state",
                        lambda *args: starts.append(1) or init_state(*args))
    monkeypatch.setattr(bayes, "log_prior_rest",
                        lambda *args: evals.append(1) or log_prior_rest(*args))
    config = DiscreteConfig(strata="gender")
    rwmh_run(DiscreteData.from_records(recs, config), config, steps=20, chains=3, seed=1,
             thin=1)
    assert len(starts) >= 3
    assert len(evals) == len(starts) + 3 * 20 * (1 + config.n_strata)


@pytest.mark.parametrize("strata", ["none", "gender", "age50"])
@pytest.mark.parametrize("departure", ["uniform", "geometric"])
@pytest.mark.parametrize("growth", ["single", "two_stage"])
def test_batch_target_equals_the_per_chain_reference(growth, departure, strata):
    """On a batch with finite and -inf chains side by side (an oversized
    curve, a scalar off its prior box), the batch target, from scratch, on
    sub-batches of 1 and 2 of the points, and after a move of each group
    from the batch's parts, equals the per-chain reference bit for bit, with
    the likelihood and for the bare prior.  The same DiscreteData serves
    the other departure model's target too: no index it holds depends on
    the number of chains or on the departure model."""
    config = DiscreteConfig(growth=growth, departure=departure, strata=strata)
    other = dataclasses.replace(config, departure=next(d for d in bayes.DEPARTURE
                                                       if d != departure))
    recs = random_selected_records(40, np.random.default_rng(12), strata=True)
    data = DiscreteData.from_records(recs, config)
    for config, data in ((config, data), (other, data), (config, None)):
        coords = bayes._Coords(config)
        kappa = [s.name for s in coords.scalars].index("kappa")
        target = bayes._make_target(coords, data, config)
        reference = reference_target(data, config)
        rngs = [np.random.default_rng(13 + c) for c in range(5)]
        u = bayes._find_starts(coords, config, target, rngs, data is None)[1].u
        u += np.array([0.0, 0.02, 0.0, 1.0, 0.0])[:, None] * rngs[0].standard_normal(u.shape)
        u[2, kappa] = 40.0    # kappa rounds to 1: off its prior box
        u[4, 0] = math.log(3.0)   # r1 = 3: sum(g*) > 1 unless prior-only
        lp, parts = target(u)
        want = [reference(x)[0] for x in u]
        assert np.array_equal(lp, want)
        assert np.isfinite(want).sum() >= 2 and want[2] == -math.inf
        for lo, hi in ((0, 1), (1, 3), (3, 5)):
            assert np.array_equal(target(u[lo:hi])[0], want[lo:hi])
        for group, sl in enumerate([slice(0, coords.n_scalars)] + coords.h_slices):
            moved = u.copy()
            moved[:, sl] += 0.2 * rngs[0].standard_normal((len(u), sl.stop - sl.start))
            lp_moved, _ = target(moved, parts, group)
            assert np.array_equal(lp_moved, [reference(x)[0] for x in moved])


def test_scalar_maps_round_as_scipy_and_numpy():
    """The math-module expit and log(1 + exp(v)) of the scalar maps equal
    scipy.special.expit and numpy.logaddexp(0, v) bit for bit, also where
    exp(-v) overflows (v below about -709.78) and expit is 0."""
    rng = np.random.default_rng(100)
    edges = [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 37.0, -37.0, 709.78, -709.78,
             -709.79, -745.2, -746.0, -1000.0, 1000.0]
    values = np.concatenate([rng.normal(0.0, 3.0, 20_000), rng.uniform(-800, 800, 20_000),
                             edges])
    assert (values < -709.79).sum() > 1000
    for v in values.tolist():
        assert bayes._expit(v) == float(special.expit(v))
        assert bayes._log1p_exp(v) == float(np.logaddexp(0.0, v))
    assert bayes._expit(-746.0) == 0.0


def _public_log_post(coords, data, config, h0, u, prior_only=False):
    """The sampler's target at u from the public pieces, added in the
    target's order: the log-Jacobian of the map from u, the priors of the
    scalars and of every stratum's pmf, and the log-likelihood."""
    h = coords.h(u)
    state = NonparamState(h=h, **coords.scalar_state(u)._asdict())
    total = coords.scalar_log_jacobian(u) + float(np.log(np.maximum(h, 1e-300)).sum())
    total += log_prior_rest(state, config)
    for row in h:
        total += log_prior_h(row, config.mu, h0)
    return total if prior_only else total + log_lik_discrete(data, state, config)


@pytest.mark.parametrize("strata", ["none", "gender", "age50"])
@pytest.mark.parametrize("departure", ["uniform", "geometric"])
@pytest.mark.parametrize("growth", ["single", "two_stage"])
def test_target_matches_the_public_pieces(growth, departure, strata):
    """On a cohort with repeated whole-day cases, the target, which evaluates
    each distinct case once and a batch of points at a time, equals the sum
    of the public pieces bit for bit at every point of the batch, and
    agrees with them on -inf for an oversized curve and for a case with
    zero likelihood."""
    config = DiscreteConfig(growth=growth, departure=departure, strata=strata)
    rng = np.random.default_rng(98)
    base = random_selected_records(30, rng, strata=True)
    twins = [dataclasses.replace(c, case_id=c.case_id + "-twin") for c in base[::2]]
    swapped = [dataclasses.replace(c, case_id=c.case_id + "-swap",
                                   gender={"male": "female", "female": "male"}[c.gender],
                                   age_group={"under50": "over50", "over50": "under50"}[
                                       c.age_group]) for c in base[:5]]
    data = DiscreteData.from_records(base + twins + swapped, config)
    assert data.inverse.max() + 1 < len(data)
    coords = bayes._Coords(config)
    h0 = discretized_base_pmf()
    target = bayes._make_target(coords, data, config)
    prior = bayes._make_target(coords, None, config)
    u0 = coords.pack(random_discrete_state(rng, config))
    us = u0 + 0.1 * rng.standard_normal((15, coords.size))
    want = [_public_log_post(coords, data, config, h0, u) for u in us]
    assert np.isfinite(want).sum() >= 10
    assert np.array_equal(target(us)[0], want)
    assert np.array_equal(prior(us)[0], [
        _public_log_post(coords, data, config, h0, u, prior_only=True) for u in us])

    heavy = u0.copy()
    heavy[0], heavy[coords.scalars.index(next(
        s for s in coords.scalars if s.name == "kappa"))] = math.log(0.5), 20.0
    assert _public_log_post(coords, data, config, h0, heavy) == -math.inf
    assert np.array_equal(target(np.array([heavy, u0]))[0],
                          [-math.inf, _public_log_post(coords, data, config, h0, u0)])

    # every pmf all on day 0: only a case with onset during its stay is possible
    first_only = u0.copy()
    for sl in coords.h_slices:
        first_only[sl] = -1000.0
        first_only[sl.start] = 1000.0
    np.testing.assert_array_equal(coords.h(first_only)[:, 1:], 0.0)
    during = [c for c in base if c.S_int <= c.E_int]
    gap = dataclasses.replace(during[0], case_id="gap-1", B_int=0, E_int=5, S_int=10,
                              B=0.0, E=5.5, S=10.25)
    gap_data = DiscreteData.from_records(during + [gap] + during + [gap], config)
    with pytest.warns(RuntimeWarning, match="case gap-1 has zero likelihood"):
        assert _public_log_post(coords, gap_data, config, h0, first_only) == -math.inf
    gap_target = bayes._make_target(coords, gap_data, config)
    assert gap_target(first_only[None])[0][0] == -math.inf
    during_data = DiscreteData.from_records(during, config)
    assert bayes._make_target(coords, during_data, config)(first_only[None])[0][0] == (
        _public_log_post(coords, during_data, config, h0, first_only))


# ---------------------------------------------------------------------------
# Convergence diagnostic
# ---------------------------------------------------------------------------

def test_psrf_identical_chains():
    rng = np.random.default_rng(95)
    row = rng.standard_normal(300)
    got = psrf(np.vstack([row, row]))
    assert got == pytest.approx(math.sqrt(299 / 300), rel=1e-12)


def test_psrf_flags_separated_chains():
    rng = np.random.default_rng(96)
    a = rng.standard_normal(500)
    b = rng.standard_normal(500) + 10.0
    assert psrf(np.vstack([a, b])) > 5.0
    assert psrf(np.vstack([a, a + 0.001 * rng.standard_normal(500)])) < 1.01


def test_psrf_validation():
    rng = np.random.default_rng(97)
    with pytest.raises(ValueError):
        psrf(rng.standard_normal((1, 300)))
    with pytest.raises(ValueError):
        psrf(rng.standard_normal((2, 50)))
    with pytest.raises(ValueError):
        psrf(np.zeros((2, 300)))
    store_like = rng.standard_normal((3, 200))
    assert psrf(store_like) >= 1.0 or psrf(store_like) == pytest.approx(1.0, abs=0.01)
