"""Tests for fitting, confidence intervals, the cutoff sweep, and fit checks.

Recovery thresholds are sanity bounds for the fixture sizes used here; tight
calibration of estimator accuracy lives in the acceptance suite.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import multiprocessing

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import chi2

from bets import generative, inference, likelihood as lk
from bets.inference import FitOptions, mle_fit, profile_ci

R_TRUE = 0.30
DOUBLING_TRUE = math.log(2.0) / R_TRUE
THETA_TRUE = lk.ParamTheta(r=R_TRUE, alpha=1.86, beta=0.33)
FAST = FitOptions(restarts=0)


def with_confirmation(records, rng, mean_lag: float = 7.0):
    return [dataclasses.replace(c, confirmed_int=c.S_int + int(lag))
            for c, lag in zip(records, rng.poisson(mean_lag, len(records)))]


# ---------------------------------------------------------------------------
# Maximum-likelihood fitting
# ---------------------------------------------------------------------------

def test_uncond_fit_recovers_truth(sim_cohort_exact_1500):
    fit = mle_fit(sim_cohort_exact_1500, "uncond")
    assert fit.converged and fit.n_clamped == 0
    assert fit.display.doubling_time == pytest.approx(DOUBLING_TRUE, rel=0.10)
    assert fit.display.median_incubation == pytest.approx(4.665, rel=0.15)
    assert fit.display.q95_incubation == pytest.approx(13.68, rel=0.15)
    assert 0.25 < fit.display.rho < 0.75


def test_cond_fit_on_discretized_days(sim_cohort_800):
    records, _ = sim_cohort_800
    fit = mle_fit(records, "cond")
    assert fit.converged
    assert fit.display.rho is None and fit.theta.rho is None
    assert fit.display.doubling_time == pytest.approx(DOUBLING_TRUE, rel=0.2)
    assert fit.display.median_incubation == pytest.approx(4.665, rel=0.2)


def test_fit_is_a_local_maximum(sim_cohort_800):
    records, _ = sim_cohort_800
    fit = mle_fit(records, "cond")
    t = fit.theta
    assert fit.log_lik == pytest.approx(lk.log_lik(records, "cond", t), rel=1e-12)
    for dr, da, db in [(1.03, 1, 1), (0.97, 1, 1), (1, 1.03, 1),
                       (1, 0.97, 1), (1, 1, 1.03), (1, 1, 0.97)]:
        near = lk.ParamTheta(t.r * dr, t.alpha * da, t.beta * db)
        assert lk.log_lik(records, "cond", near) <= fit.log_lik


def test_fit_rejects_bad_input(sim_cohort_800):
    records, _ = sim_cohort_800
    with pytest.raises(ValueError):
        mle_fit([], "cond")
    with pytest.raises(ValueError):
        mle_fit(records, "nope")
    with pytest.raises(ValueError):
        mle_fit(records, "cond_trunc")        # needs a cutoff
    with pytest.raises(ValueError, match="only cond_trunc reads the truncation day M"):
        mle_fit(records, "cond", M=10.0)      # a cutoff it would ignore, but record
    with pytest.raises(ValueError):
        mle_fit(records, "cond", fixed={"gamma": 1.0})


def test_truncated_fit_and_sum_name_the_first_late_case(sim_cohort_800):
    records = sim_cohort_800[0][:50]
    M = sorted(c.S for c in records)[-5]
    late = next(c for c in records if c.S > M)
    message = f"truncated likelihood: case {late.case_id} has S={late.S} > M={M}"
    with pytest.raises(lk.LikelihoodError) as fit_err:
        mle_fit(records, "cond_trunc", M=M)
    with pytest.raises(lk.LikelihoodError) as sum_err:
        lk.log_lik(records, "cond_trunc", lk.ParamTheta(0.3, 1.86, 0.33), M)
    assert str(fit_err.value) == str(sum_err.value) == message


@pytest.mark.parametrize("M", [math.nan, math.inf, -math.inf])
def test_a_truncation_day_that_is_not_a_finite_number_is_refused(sim_cohort_800, M):
    """Such an M would clamp every term and report a converged fit at the start."""
    records = sim_cohort_800[0][:200]
    message = f"M must be a finite number, got {M}"
    with pytest.raises(ValueError, match=message):
        mle_fit(records, "cond_trunc", M=M)
    with pytest.raises(ValueError, match=message):
        lk.log_lik(records, "cond_trunc", lk.ParamTheta(0.3, 1.86, 0.33), M)
    with pytest.raises(ValueError, match=message):
        lk.case_terms(records, "cond_trunc", M)


@pytest.mark.parametrize("fixed", [{"doubling_time": 0.0}, {"q95_incubation": 0.0},
                                   {"median_incubation": -1.0}, {"r": -0.5},
                                   {"r": math.nan}, {"doubling_time": math.nan},
                                   {"r": math.inf}, {"q95_incubation": math.inf}])
def test_fit_rejects_a_pin_outside_its_domain(sim_cohort_800, fixed):
    (name, value), = fixed.items()
    with pytest.raises(ValueError, match=f"cannot fix {name}={value}"):
        mle_fit(sim_cohort_800[0], "cond", fixed=fixed)


def test_fixed_growth_rate(sim_cohort_800):
    records, _ = sim_cohort_800
    fit = mle_fit(records, "cond", fixed={"r": 0.25}, options=FAST)
    assert fit.fixed == {"r": 0.25}
    assert fit.theta.r == 0.25
    assert fit.display.doubling_time == pytest.approx(math.log(2) / 0.25, rel=1e-9)
    zero = mle_fit(records, "cond", fixed={"r": 0.0}, options=FAST)
    assert zero.theta.r == 0.0 and math.isinf(zero.display.doubling_time)
    # without growth weighting the incubation quantiles inflate
    assert zero.display.median_incubation > fit.display.median_incubation


def test_fixed_display_parameter(sim_cohort_800):
    records, _ = sim_cohort_800
    fit = mle_fit(records, "cond", fixed={"doubling_time": 2.5}, options=FAST)
    assert fit.theta.r == pytest.approx(math.log(2) / 2.5, rel=1e-12)
    pinned = mle_fit(records, "cond", fixed={"median_incubation": 5.0}, options=FAST)
    assert pinned.display.median_incubation == pytest.approx(5.0, rel=1e-9)


def _pin_patterns(kind: str):
    """Every allowed set of pins: growth free, by r (0 too for cond) or by
    doubling time; each quantile free or pinned; rho free or pinned (uncond)."""
    growth = [{}, {"r": 0.2}, {"doubling_time": 2.5}] + ([{"r": 0.0}] if kind == "cond" else [])
    rho = (None, 0.4) if kind == "uncond" else (None,)
    for g, med, q95, rh in itertools.product(growth, (None, 5.0), (None, 14.0), rho):
        pins = dict(g)
        for name, value in (("median_incubation", med), ("q95_incubation", q95), ("rho", rh)):
            if value is not None:
                pins[name] = value
        yield pins


@pytest.mark.parametrize("kind", ["cond", "uncond"])
def test_param_map_round_trips_every_pin_pattern(kind):
    """pack gives one coordinate per free value and unpack inverts it; a
    pinned value comes back exactly."""
    base = lk.DisplayTheta(doubling_time=3.0, median_incubation=4.5, q95_incubation=12.0,
                           rho=0.6 if kind == "uncond" else None)
    patterns = list(_pin_patterns(kind))
    assert len(patterns) == (24 if kind == "uncond" else 16)
    for pins in patterns:
        d = dataclasses.replace(base, **{k: v for k, v in pins.items() if k != "r"})
        if "r" in pins:
            r = pins["r"]
            d = dataclasses.replace(d, doubling_time=inference._LN2 / r if r else math.inf)
        pmap = inference._ParamMap(kind, pins)
        u = pmap.pack(d)
        n_free = (("r" not in pins and "doubling_time" not in pins)
                  + ("median_incubation" not in pins) + ("q95_incubation" not in pins)
                  + (kind == "uncond" and "rho" not in pins))
        assert u.shape == (n_free,), pins
        rho, r, med, q95 = pmap.unpack(u)
        want_r = pins.get("r", inference._LN2 / d.doubling_time)
        for name, got, want in (("rho", rho, d.rho), ("r", r, want_r),
                                ("median_incubation", med, d.median_incubation),
                                ("q95_incubation", q95, d.q95_incubation)):
            if name in pins or (name == "r" and "doubling_time" in pins) or want is None:
                assert got == want, (pins, name)
            else:
                assert got == pytest.approx(want, rel=1e-12), (pins, name)


#: Display points (doubling time, median, q95 - median, rho) at which the
#: objective is pinned: near the optimum, far from it, and one where short
#: incubation clamps many terms to the 1e-300 floor.
PINNED_POINTS = [(2.3, 5.0, 7.0, 0.45), (8.0, 9.0, 1.0, 2.0), (1.0, 0.5, 0.1, 0.3)]
#: float.hex of the objective at PINNED_POINTS, recorded before the kernels were
#: slimmed: any change to their floating-point steps shows here.
PINNED_BITS = {
    "cond": ["0x1.35315b19a34d2p+11", "0x1.1e4ec47805852p+12", "0x1.84a3d09884a7ep+17"],
    "uncond": ["0x1.556e5bb915846p+12", "0x1.fd101d3a01304p+12", "0x1.89a8391bfb64ep+17"],
    "cond_trunc": ["0x1.f0d93b0a136a8p+10", "0x1.5214c166f3b17p+11", "0x1.09dd873f2f519p+17"],
    "cond_r0": ["0x1.ae1bd11818079p+11", "0x1.4212126019332p+12", "0x1.877e16b1a5b72p+17"],
}


@pytest.mark.parametrize("name", list(PINNED_BITS))
def test_objective_bits_are_pinned(sim_cohort_800, name):
    """The objective mle_fit minimizes, bit for bit, for each kind and r = 0,
    on the 800 simulated cases (those with S <= 60 truncated at M = 60)."""
    records, _ = sim_cohort_800
    kind, M, fixed = {"cond": ("cond", None, None), "uncond": ("uncond", None, None),
                      "cond_trunc": ("cond_trunc", 60.0, None),
                      "cond_r0": ("cond", None, {"r": 0.0})}[name]
    if M is not None:
        records = [c for c in records if c.S <= M]
    fun = functools.partial(inference._objective, lk.case_terms(records, kind, M),
                            inference._ParamMap(kind, fixed))
    got = []
    for dt, med, spread, rho in PINNED_POINTS:
        display = ([] if fixed else [dt]) + [med, spread] + ([rho] if kind == "uncond" else [])
        got.append(fun(np.log(display)).hex())
    assert got == PINNED_BITS[name]


def test_fit_deterministic(sim_cohort_800):
    records, _ = sim_cohort_800
    a = mle_fit(records, "cond", options=FAST)
    b = mle_fit(records, "cond", options=FAST)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_trunc_fit_uses_cutoff(sim_cohort_800):
    records, _ = sim_cohort_800
    M = float(max(c.S_int for c in records))
    fit = mle_fit(records, "cond_trunc", M=M, options=FAST)
    assert fit.M == M and fit.converged
    sub = [c for c in records if c.S <= 58.0]
    with pytest.raises(lk.LikelihoodError):
        mle_fit(records, "cond_trunc", M=58.0, options=FAST)
    assert mle_fit(sub, "cond_trunc", M=58.0, options=FAST).converged


# ---------------------------------------------------------------------------
# The simplex search, held to SciPy's
# ---------------------------------------------------------------------------

NELDER_MEAD = inference._nelder_mead
BIG = inference._BIG


def assert_scipys_search(fun, x0, maxfev, adaptive):
    """_nelder_mead returns what scipy.optimize.minimize's Nelder-Mead does
    with mle_fit's tolerances, bit for bit; -> the port's result."""
    got = NELDER_MEAD(fun, x0, maxfev, adaptive)
    res = minimize(fun, x0, method="Nelder-Mead",
                   options={"xatol": inference._XATOL, "fatol": inference._FATOL,
                            "maxfev": maxfev, "maxiter": maxfev, "adaptive": adaptive})
    x, val, nfev, ok = got
    assert np.array_equal(x, res.x, equal_nan=True)
    assert np.array_equal(val, res.fun, equal_nan=True)
    assert (nfev, ok) == (res.nfev, res.success)
    return got


# The port hands fun a list, SciPy an array: each test function takes either.

def rosenbrock(x):
    """A curved valley; a tilted quartic in one dimension."""
    x = np.asarray(x)
    if x.size == 1:
        return float((x[0] - 1.5) ** 4 + 0.3 * x[0])
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def ridge(x):
    """A bowl centred past a _BIG plateau where x0 + x1 > 1, as mle_fit's
    objective returns _BIG off the likelihood's domain."""
    x = np.asarray(x)
    return BIG if x[0] + x[1] > 1.0 else float(np.sum((x - 0.6) ** 2))


def cusp(x):
    """Square-root cusps, on which the simplex shrinks."""
    x = np.asarray(x)
    return float(np.sum([0.6, 2.5, 2.5] * np.sqrt(np.abs(x - [0.9, 0.0, -1.8]))))


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nelder_mead_takes_scipys_steps(n, adaptive):
    """Random starts, a start with a zero coordinate (stepped by 0.00025,
    not 5%) and the origin."""
    rng = np.random.default_rng(2026 + n)
    starts = [rng.normal(0.0, 1.5, n) for _ in range(3)]
    starts += [np.where(np.arange(n) == 0, 0.0, starts[0]), np.zeros(n)]
    for x0 in starts:
        assert_scipys_search(rosenbrock, x0, 2000, adaptive)


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_nelder_mead_sorts_ties_on_a_big_plateau_as_scipy_does(n, adaptive):
    x0 = np.array([0.5, 0.49, 1.0, 0.2][:n])
    start = [x0] + [np.where(np.arange(n) == k, 1.05 * x0, x0) for k in range(n)]
    assert [ridge(v) == BIG for v in start][:3] == [False, True, True]
    assert_scipys_search(ridge, x0, 2000, adaptive)
    # Every vertex ties, in every step, until the simplex has shrunk to xatol.
    assert_scipys_search(lambda x: BIG, x0, 2000, adaptive)


@pytest.mark.parametrize("maxfev", range(1, 60))
def test_nelder_mead_stops_at_maxfev_as_scipy_does(maxfev):
    """A budget below 4 cuts the initial simplex short.  Evaluations 30-32
    are a shrink, so budgets 30 and 31 stop it part way, and the shrunk
    vertices already evaluated stay in the simplex."""
    x0 = np.array([-0.3, 0.5, -0.9])
    _, _, nfev, ok = assert_scipys_search(cusp, x0, maxfev, adaptive=False)
    assert nfev == maxfev and not ok


def nan_shelf(x):
    """A bowl whose part past x1 = 0.25 is NaN; the start's second vertex
    lies there."""
    x = np.asarray(x)
    return math.nan if x[1] > 0.25 else float(np.sum((x - 0.9) ** 2))


def nan_edge(x):
    """0 up to x1 = 0.24 and NaN past it: the start's second vertex lies
    past it, and shrinks toward the edge without reaching it, so a simplex
    within xatol of its best vertex still holds a NaN value."""
    return 0.0 if x[1] <= 0.24 else math.nan


def pit(x):
    """A bowl beside a -inf pit past x0 = -1; the start's first vertex lies
    there."""
    x = np.asarray(x)
    return -math.inf if x[0] < -1.0 else float(np.sum((x + 0.5) ** 2))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("maxfev", [3, 4, 7, 40, 400])
def test_nelder_mead_propagates_nan_and_inf_as_scipy_does(maxfev, adaptive):
    """SciPy stops on np.max(...) <= tol and returns np.min(fsim), and both
    propagate NaN where Python's max and min would not.  With a budget of 3
    the simplex still holds the NaN vertex, so the minimum returned is NaN
    though the best vertex is finite.  Once -inf or +inf values meet, the
    stopping test's differences are NaN, so the search spends its budget."""
    x, val, _, _ = assert_scipys_search(nan_shelf, np.array([0.5, 0.24]), maxfev, adaptive)
    assert math.isnan(val) == (maxfev == 3) and not math.isnan(nan_shelf(x))
    assert_scipys_search(nan_edge, np.array([0.5, 0.24]), maxfev, adaptive)
    for fun, x0, want in ((pit, [-0.99, 0.3], -math.inf),
                          (lambda x: math.inf, [0.3, 0.4], math.inf),
                          (lambda x: math.nan, [0.3, 0.4], math.nan)):
        _, val, nfev, ok = assert_scipys_search(fun, np.array(x0), maxfev, adaptive)
        assert np.array_equal(val, want, equal_nan=True) and nfev == maxfev and not ok


@pytest.mark.parametrize("kind, fixed", [("uncond", None), ("cond", None),
                                         ("cond_trunc", None), ("cond", {"r": 0.0})])
def test_mle_fit_searches_are_scipys(small_cohort, monkeypatch, cpus, kind, fixed):
    cpus(1)  # the searches are checked in this process
    searches = []

    def checked(fun, x0, maxfev, adaptive):
        searches.append(maxfev)
        return assert_scipys_search(fun, x0, maxfev, adaptive)

    monkeypatch.setattr(inference, "_nelder_mead", checked)
    M = float(max(c.S_int for c in small_cohort)) if kind == "cond_trunc" else None
    fit = mle_fit(small_cohort, kind, M=M, fixed=fixed, options=FitOptions(restarts=1))
    assert searches == [25_000, 25_000] and fit.converged


# ---------------------------------------------------------------------------
# Profile-likelihood intervals
# ---------------------------------------------------------------------------

def test_profile_ci_inverts_the_likelihood_ratio(sim_cohort_800):
    records, _ = sim_cohort_800
    fit = mle_fit(records, "cond")
    ci = profile_ci(records, fit, "median_incubation")
    assert ci.lo < fit.display.median_incubation < ci.hi
    assert ci.lower_bracketed and ci.upper_bracketed
    threshold = chi2.ppf(0.95, 1)
    for endpoint in (ci.lo, ci.hi):
        pinned = mle_fit(records, "cond", fixed={"median_incubation": endpoint})
        assert 2.0 * (fit.log_lik - pinned.log_lik) == pytest.approx(
            threshold, abs=5e-3)


def test_chi2_quantile_and_tail_are_scipy_stats_bit_for_bit():
    """profile_ci's threshold and gof_onset_marginal's p-value equal
    scipy.stats.chi2 exactly on every input bets can pass them: a level in
    (0, 1), and dof >= 2 with stat >= 0.  chdtrc and chi2.sf differ only at
    stat < 0 (NaN against 1), which a Pearson statistic never reaches."""
    levels = np.concatenate([np.linspace(0.0, 1.0, 20_001)[1:-1],
                             [1e-300, 1e-12, 0.5, 0.95, 0.99, 1.0 - 2.0 ** -53]])
    expected = chi2.ppf(levels, 1)
    assert [inference._chi2_ppf_1(float(q)) for q in levels] == expected.tolist()
    dofs = np.arange(2, 61)
    stats = np.concatenate([[0.0, 1e-300, 1e-8, 5e-324], np.linspace(0.0, 200.0, 301)[1:],
                            [1e3, 1e4, math.inf]])
    got = [[inference._chi2_sf(float(x), int(k)) for x in stats] for k in dofs]
    assert got == chi2.sf(stats[None, :], dofs[:, None]).tolist()


def test_profile_ci_levels_nest(sim_cohort_800):
    records, _ = sim_cohort_800
    fit = mle_fit(records, "cond")
    wide = profile_ci(records, fit, "doubling_time", level=0.95)
    narrow = profile_ci(records, fit, "doubling_time", level=0.5)
    assert wide.lo < narrow.lo < narrow.hi < wide.hi


def test_profile_ci_validates_param(sim_cohort_800):
    records, _ = sim_cohort_800
    fit = mle_fit(records, "cond", options=FAST)
    with pytest.raises(ValueError, match="param must be one of"):
        profile_ci(records, fit, "rho")      # only for the joint fit
    for fixed in ({"doubling_time": 2.5}, {"r": 0.25}):
        pinned = mle_fit(records, "cond", fixed=fixed, options=FAST)
        with pytest.raises(ValueError, match="pinned"):
            profile_ci(records, pinned, "doubling_time")
    for level in (1.5, 1.0, 0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match=r"level must lie in \(0, 1\)"):
            profile_ci(records, fit, "doubling_time", level=level)


@pytest.fixture(scope="module")
def small_cohort(sim_cohort_800):
    records, _ = sim_cohort_800
    return records[:150]


@pytest.fixture(scope="module")
def small_fit(small_cohort):
    return mle_fit(small_cohort, "cond", options=FAST)


@pytest.mark.parametrize("failure", ["not_converged", "no_warm_start"])
def test_profile_side_past_a_failed_refit_is_unbracketed(small_cohort, small_fit,
                                                          monkeypatch, failure):
    """A refit above the point that does not converge (here with log-lik
    -inf, which would otherwise read as a crossing) or that raises ends the
    upper side at the search limit, unbracketed; the lower side is as before."""
    real = inference.mle_fit
    point = small_fit.display.q95_incubation

    def mle_fit(cases, kind, fixed=None, **kwargs):
        if fixed and fixed.get("q95_incubation", point) > point:
            if failure == "no_warm_start":
                raise lk.LikelihoodError("quantile ratio 1.03 has no Gamma shape")
            return dataclasses.replace(small_fit, log_lik=-math.inf, converged=False)
        return real(cases, kind, fixed=fixed, **kwargs)

    want = profile_ci(small_cohort, small_fit, "q95_incubation")
    monkeypatch.setattr(inference, "mle_fit", mle_fit)
    got = profile_ci(small_cohort, small_fit, "q95_incubation")
    assert (got.hi, got.upper_bracketed) == (point * 100, False)
    assert (got.lo, got.lower_bracketed) == (want.lo, want.lower_bracketed)
    assert want.upper_bracketed


def test_profile_ci_on_a_flat_profile_ends_at_the_search_range(small_cohort, small_fit,
                                                               monkeypatch):
    """A profile that never crosses the threshold (every refit here returns
    the base fit) ends each side at the edge of the search range,
    unbracketed."""
    monkeypatch.setattr(inference, "_refit", lambda cases, fit, init, fixed:
                        dataclasses.replace(small_fit))
    point = small_fit.display.median_incubation
    got = profile_ci(small_cohort, small_fit, "median_incubation")
    assert (got.lo, got.lower_bracketed) == (point / 100, False)
    assert (got.hi, got.upper_bracketed) == (point * 100, False)


def test_profile_ci_across_a_jump_ends_at_the_jump(small_cohort, small_fit, monkeypatch, cpus):
    """A profile that jumps across the threshold (here at 1.7x and 1/1.7x the
    point) ends each side at the jump, to float precision, and stops
    bisecting once no float lies between the bracket's ends."""
    cpus(1)  # count both sides' refits in this process
    point = small_fit.display.median_incubation
    up, down = point * 1.7, point / 1.7
    pinned = []

    def refit(cases, fit, init, fixed):
        v = fixed["median_incubation"]
        pinned.append(v)
        return dataclasses.replace(fit, log_lik=fit.log_lik - 10.0 * (v >= up or v <= down))

    monkeypatch.setattr(inference, "_refit", refit)
    got = profile_ci(small_cohort, small_fit, "median_incubation")
    assert got.lower_bracketed and got.upper_bracketed
    assert math.nextafter(up, 0) <= got.hi <= up
    assert down <= got.lo <= math.nextafter(down, math.inf)
    assert len(pinned) < 150


def test_profile_ci_sides_in_worker_processes_give_the_serial_interval(small_cohort,
                                                                       small_fit, cpus):
    cpus(1)
    serial = profile_ci(small_cohort, small_fit, "q95_incubation")
    cpus(2)
    assert profile_ci(small_cohort, small_fit, "q95_incubation") == serial


@pytest.mark.parametrize("kind", ["uncond", "cond"])
def test_mle_fit_restarts_in_worker_processes_give_the_serial_fit(small_cohort, cpus, kind):
    """The same optimum, the same winning restart and the same evaluation count."""
    options = FitOptions(restarts=3, seed=4)
    cpus(1)
    serial = dataclasses.asdict(mle_fit(small_cohort, kind, options=options))
    cpus(2)
    assert dataclasses.asdict(mle_fit(small_cohort, kind, options=options)) == serial


def _fit_in_this_worker(cases, kind, options):
    return dataclasses.asdict(mle_fit(cases, kind, options=options))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the worker must inherit the patched CPU count")
def test_mle_fit_in_a_daemonic_pool_worker_gives_the_serial_fit(small_cohort, cpus):
    """A multiprocessing.Pool worker may start no children, so there the
    restarts run in the worker itself, to the serial fit."""
    options = FitOptions(restarts=3, seed=4)
    cpus(1)
    serial = _fit_in_this_worker(small_cohort, "cond", options)
    cpus(2)  # the forked worker inherits the two CPUs
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(_fit_in_this_worker, (small_cohort, "cond", options)) == serial


def test_profile_ci_leaves_the_fit_alone(small_cohort, small_fit):
    before = dataclasses.asdict(small_fit)
    profile_ci(small_cohort, small_fit, "q95_incubation")
    assert dataclasses.asdict(small_fit) == before


# ---------------------------------------------------------------------------
# Bootstrap intervals
# ---------------------------------------------------------------------------


def test_bootstrap_deterministic_and_reflected(small_cohort, small_fit):
    def boot(**kw):
        return inference.bootstrap_ci(small_cohort, small_fit, "median_incubation",
                                      n_boot=30, rng=np.random.default_rng(5), **kw)

    basic = boot()
    assert basic == boot()
    pct = boot(method="percentile")
    s_hat = small_fit.display.median_incubation
    assert basic.lo == pytest.approx(2 * s_hat - pct.hi, rel=1e-12)
    assert basic.hi == pytest.approx(2 * s_hat - pct.lo, rel=1e-12)
    assert pct.lo < s_hat < pct.hi


def test_bootstrap_validates_param(small_cohort, small_fit):
    with pytest.raises(ValueError, match="param must be one of"):
        inference.bootstrap_ci(small_cohort, small_fit, "rho", n_boot=4)
    pinned = mle_fit(small_cohort, "cond", fixed={"median_incubation": 5.0}, options=FAST)
    with pytest.raises(ValueError, match="pinned"):
        inference.bootstrap_ci(small_cohort, pinned, "median_incubation", n_boot=4)
    for level in (1.5, 1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match=r"level must lie in \(0, 1\)"):
            inference.bootstrap_ci(small_cohort, small_fit, "doubling_time", n_boot=4,
                                   level=level)
    for n_boot in (0, -1):
        with pytest.raises(ValueError, match="n_boot must be at least 1"):
            inference.bootstrap_ci(small_cohort, small_fit, "doubling_time", n_boot=n_boot)


def test_bootstrap_parallel_matches_serial(small_cohort, small_fit, cpus):
    def boot(n):
        cpus(n)
        return inference.bootstrap_ci(small_cohort, small_fit, "q95_incubation", n_boot=16,
                                      rng=np.random.default_rng(7))

    assert boot(1) == boot(2)


def test_percentile_ci_takes_the_central_share():
    ci = inference._percentile_ci(np.arange(101.0)[::-1], 0.5)
    assert (ci.lo, ci.hi, ci.level) == (25.0, 75.0, 0.5)


def test_bootstrap_validates_method(small_cohort, small_fit):
    with pytest.raises(ValueError):
        inference.bootstrap_ci(small_cohort, small_fit, "median_incubation",
                               n_boot=4, method="studentized")


# ---------------------------------------------------------------------------
# Confirmation-cutoff sweep
# ---------------------------------------------------------------------------

def test_bias_sweep_rows(sim_cohort_800):
    records, _ = sim_cohort_800
    cases = with_confirmation(records[:400], np.random.default_rng(8))
    cutoffs = [40, 60, 75]
    rows = inference.bias_sweep(cases, cutoffs, min_cases=25)
    assert len(rows) == len(cutoffs) * 3
    assert [r.cutoff for r in rows[:3]] == [40, 40, 40]
    assert {r.model for r in rows[:3]} == {"r0", "growth", "growth_trunc"}
    by_model = {m: [r for r in rows if r.model == m] for m in ("r0", "growth")}
    for m, sub in by_model.items():
        ns = [r.n_cases for r in sub]
        assert ns == sorted(ns)  # later cutoffs confirm more cases
    unfitted = [r for r in rows if not r.fitted]
    for r in unfitted:
        assert r.n_cases < 25 and r.median is None and r.q95 is None
    late = {r.model: r for r in rows if r.cutoff == 75 and r.fitted}
    assert late["r0"].median > late["growth"].median  # no-growth inflation
    assert late["growth"].median_ci is None           # no bootstrap requested


def test_bias_sweep_bootstrap_bands(sim_cohort_800):
    records, _ = sim_cohort_800
    cases = with_confirmation(records[:250], np.random.default_rng(9))
    rows = inference.bias_sweep(cases, [75], min_cases=25, bootstrap_b=15,
                                rng=np.random.default_rng(10))
    fitted = [r for r in rows if r.fitted]
    assert fitted
    for r in fitted:
        assert r.median_ci.lo <= r.median_ci.hi
        assert r.q95_ci.lo <= r.q95_ci.hi


def test_bias_sweep_marks_a_non_converged_cell(sim_cohort_800, monkeypatch):
    """A truncated fit that stops at the boundary is reported with its
    estimates, flagged by converged and message."""
    records, _ = sim_cohort_800
    cases = with_confirmation(records[:250], np.random.default_rng(9))
    real = inference.mle_fit

    def boundary_when_truncated(sub, kind, **kwargs):
        fit = real(sub, kind, **kwargs)
        if kind != "cond_trunc":
            return fit
        return dataclasses.replace(fit, converged=False, message="boundary")

    monkeypatch.setattr(inference, "mle_fit", boundary_when_truncated)
    rows = inference.bias_sweep(cases, [30, 75], min_cases=25)
    status = {(r.cutoff, r.model): (r.fitted, r.converged, r.message) for r in rows}
    assert status == {(30, m): (False, None, None) for m in ("r0", "growth", "growth_trunc")} | {
        (75, "r0"): (True, True, "ok"), (75, "growth"): (True, True, "ok"),
        (75, "growth_trunc"): (True, False, "boundary")}
    stuck = rows[-1]
    assert stuck.median is not None and stuck.q95 is not None


def test_bias_sweep_requires_confirmation_days(sim_cohort_800):
    records, _ = sim_cohort_800
    with pytest.raises(ValueError, match=f"confirmed_int.*case {records[0].case_id} has none"):
        inference.bias_sweep(records[:50], [60])


def test_bias_sweep_rejects_a_negative_m_offset(sim_cohort_800):
    """M = d - m_offset must not pass the cutoff d."""
    records, _ = sim_cohort_800
    cases = with_confirmation(records[:50], np.random.default_rng(0))
    with pytest.raises(ValueError, match="m_offset"):
        inference.bias_sweep(cases, [60], m_offset=-30)


def test_bias_sweep_rejects_a_level_outside_the_unit_interval(sim_cohort_800):
    records, _ = sim_cohort_800
    cases = with_confirmation(records[:50], np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"level must lie in \(0, 1\)"):
        inference.bias_sweep(cases, [60], bootstrap_b=4, level=1.5)


# ---------------------------------------------------------------------------
# Onset-histogram fit checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def onset_cohort():
    params = generative.params_from_theta(0.45, R_TRUE, 1.86, 0.33)
    records, _ = generative.sample_exported(3000, params, np.random.default_rng(16))
    return records


def test_onset_fit_table_consistency(onset_cohort):
    days, obs, expected = inference.onset_fit_table(onset_cohort, THETA_TRUE)
    assert np.array_equal(days, np.arange(days[0], days[-1] + 1))
    assert obs.sum() == sum(1 for c in onset_cohort if c.is_resident)
    assert expected.sum() == pytest.approx(obs.sum(), rel=1e-9)
    assert (expected >= 0).all()


def test_gof_accepts_truth_and_rejects_no_growth(onset_cohort):
    good = inference.gof_onset_marginal(onset_cohort, THETA_TRUE)
    assert good.p_value > 0.01
    assert good.dof == good.n_bins - 1
    r0 = mle_fit(onset_cohort, "cond", fixed={"r": 0.0}, options=FAST)
    with pytest.warns(RuntimeWarning, match="approximation degrades"):
        bad = inference.gof_onset_marginal(onset_cohort, r0.theta)
    assert bad.p_value < 1e-4


def test_gof_requires_enough_residents(onset_cohort):
    visitors = [c for c in onset_cohort if not c.is_resident][:40]
    with pytest.raises(ValueError):
        inference.gof_onset_marginal(visitors, THETA_TRUE)
    few = [c for c in onset_cohort if c.is_resident][:20]
    with pytest.raises(ValueError, match="resident"):
        inference.gof_onset_marginal(few, THETA_TRUE)
