"""Tests for the closed-form likelihood terms and their reparameterizations.

Expected values come from independent quadrature (tests/helpers.py), from
scipy's gamma distribution, or from limits the formulas must respect
(r -> 0 continuity, truncation point -> infinity).
"""

from __future__ import annotations

import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from scipy import optimize, special, stats

from bets import likelihood as lk
from bets.likelihood import (
    DisplayTheta,
    LikelihoodError,
    ParamTheta,
    gamma_exp_integral,
)
from bets.timeline import CaseRecord, distinct_rows
from helpers import array_quantiles_to_shape_rate, quad_growth_onset

L = 54.0


def random_cases(n: int, rng: np.random.Generator,
                 max_onset_lag: float = 20.0) -> list[CaseRecord]:
    out = []
    for i in range(n):
        b = 0.0 if rng.random() < 0.5 else rng.uniform(0.5, 45.0)
        e = rng.uniform(b + 0.5, L)
        s = rng.uniform(b + 0.3, e + max_onset_lag)
        out.append(CaseRecord(case_id=f"c{i}", B_int=math.ceil(b),
                              E_int=math.ceil(e), S_int=math.ceil(s),
                              B=b, E=e, S=s))
    return out


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

def test_theta_display_round_trip():
    """The display quantiles of a Gamma(shape, rate) map back to it."""
    theta = ParamTheta(r=0.3, alpha=1.86, beta=0.33, rho=0.45)
    med, q95 = special.gammaincinv(theta.alpha, [0.5, 0.95]) / theta.beta
    disp = DisplayTheta(doubling_time=math.log(2) / theta.r, median_incubation=med,
                        q95_incubation=q95, rho=theta.rho)
    alpha, beta = lk.quantiles_to_shape_rate(disp.median_incubation, disp.q95_incubation)
    assert alpha == pytest.approx(theta.alpha, rel=1e-9)
    assert beta == pytest.approx(theta.beta, rel=1e-9)


def test_theta_zero_growth_maps_to_infinite_doubling():
    """A no-growth fit reports r = 0 as an infinite doubling time."""
    theta = ParamTheta(r=0.0, alpha=2.0, beta=0.5)
    med, q95 = special.gammaincinv(theta.alpha, [0.5, 0.95]) / theta.beta
    disp = DisplayTheta(doubling_time=math.inf, median_incubation=med, q95_incubation=q95)
    assert lk.quantiles_to_shape_rate(disp.median_incubation, disp.q95_incubation) \
        == pytest.approx((theta.alpha, theta.beta), rel=1e-9)


@pytest.mark.parametrize("kwargs", [
    dict(r=0.3, alpha=0.0, beta=0.33),
    dict(r=0.3, alpha=1.86, beta=-1.0),
    dict(r=0.3, alpha=1.86, beta=0.33, rho=-0.1),
])
def test_param_theta_validation(kwargs):
    with pytest.raises(ValueError):
        ParamTheta(**kwargs)


@pytest.mark.parametrize("name, kwargs", [
    ("r", dict(r=math.nan, alpha=1.0, beta=1.0, rho=math.nan)),
    ("r", dict(r=math.inf, alpha=1.0, beta=1.0)),
    ("alpha", dict(r=0.3, alpha=math.inf, beta=1.0)),
    ("beta", dict(r=0.3, alpha=1.0, beta=math.nan)),
    ("rho", dict(r=0.3, alpha=1.0, beta=1.0, rho=math.nan)),
    ("rho", dict(r=0.3, alpha=1.0, beta=1.0, rho=math.inf)),
    ("r", dict(r=None, alpha=1.0, beta=1.0)),
    ("alpha", dict(r=0.3, alpha=None, beta=1.0)),
    ("beta", dict(r=0.3, alpha=1.0, beta=None)),
])
def test_param_theta_names_a_parameter_that_is_not_a_finite_number(name, kwargs):
    """NaN fails no `<` check, so each field is tested with math.isfinite;
    only rho may be None."""
    with pytest.raises(ValueError, match=f"^{name} must be a finite number, got"):
        ParamTheta(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(doubling_time=0.0, median_incubation=4.0, q95_incubation=13.0),
    dict(doubling_time=2.3, median_incubation=13.0, q95_incubation=4.0),
    dict(doubling_time=2.3, median_incubation=-4.0, q95_incubation=13.0),
])
def test_display_theta_validation(kwargs):
    with pytest.raises(ValueError):
        DisplayTheta(**kwargs)


# ---------------------------------------------------------------------------
# Gamma helpers
# ---------------------------------------------------------------------------

def test_gamma_cdf_matches_scipy():
    """The CDF difference from 0 is scipy's Gamma CDF, and 0 below 0."""
    xs = np.linspace(-2.0, 30.0, 40)
    for alpha, beta in [(0.7, 0.2), (1.86, 0.33), (9.0, 1.5)]:
        ref = stats.gamma.cdf(xs, alpha, scale=1.0 / beta)
        got = lk._gamma_cdf_diff(alpha, beta, lk._cdf_index(xs, np.zeros_like(xs)))
        np.testing.assert_allclose(got, ref, atol=1e-14)
        assert np.all(got[xs <= 0] == 0.0)


def test_gamma_quantile_inverts_cdf():
    """The fitted (shape, rate) puts the CDF at 1/2 and 0.95 on the quantiles."""
    med, q95 = special.gammaincinv(1.86, [0.5, 0.95]) / 0.33
    alpha, beta = lk.quantiles_to_shape_rate(med, q95)
    for x, p in ((med, 0.5), (q95, 0.95)):
        assert special.gammainc(alpha, beta * x) == pytest.approx(p, abs=1e-12)


def test_quantile_inversion_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(30):
        alpha = rng.uniform(0.3, 12.0)
        beta = rng.uniform(0.05, 3.0)
        med, q95 = special.gammaincinv(alpha, [0.5, 0.95]) / beta
        a2, b2 = lk.quantiles_to_shape_rate(med, q95)
        assert a2 == pytest.approx(alpha, rel=1e-9)
        assert b2 == pytest.approx(beta, rel=1e-9)


def test_quantile_inversion_rejects_impossible_pairs():
    with pytest.raises(ValueError):
        lk.quantiles_to_shape_rate(5.0, 4.0)
    with pytest.raises(ValueError):
        lk.quantiles_to_shape_rate(1.0, 1.0000001)  # ratio below any shape's


# ---------------------------------------------------------------------------
# Fast paths against their plain references, bit for bit
# ---------------------------------------------------------------------------

def four_igamma_cdf_diff(alpha, rate, x_hi, x_lo):
    """H(x_hi) - H(x_lo) from four elementwise incomplete gammas."""
    z_hi = rate * np.maximum(np.asarray(x_hi, dtype=float), 0.0)
    z_lo = rate * np.maximum(np.asarray(x_lo, dtype=float), 0.0)
    p_lo = special.gammainc(alpha, z_lo)
    upper = special.gammaincc(alpha, z_lo) - special.gammaincc(alpha, z_hi)
    lower = special.gammainc(alpha, z_hi) - p_lo
    return np.where(p_lo > 0.5, upper, lower)


def brentq_quantiles_to_shape_rate(median, q95):
    """The full-bracket brentq inversion, f evaluated afresh at both ends,
    raising the library inversion's errors."""
    if not (0 < median < q95) or not (math.isfinite(median) and math.isfinite(q95)):
        raise ValueError(f"need 0 < median < q95, got ({median}, {q95})")
    ratio = q95 / median

    def f(log_a):
        a = math.exp(log_a)
        return special.gammaincinv(a, 0.95) / special.gammaincinv(a, 0.5) - ratio

    lo, hi = math.log(1e-3), math.log(1e3)
    if not (f(lo) > 0 > f(hi)):
        raise ValueError(f"quantile ratio {ratio:.6g} has no Gamma shape in [0.001, 1000.0]")
    alpha = math.exp(optimize.brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16))
    beta = special.gammaincinv(alpha, 0.5) / median
    if abs(special.gammainc(alpha, beta * median) - 0.5) > 1e-9 or \
       abs(special.gammainc(alpha, beta * q95) - 0.95) > 1e-9:
        raise ValueError(f"quantile inversion failed for ({median}, {q95})")
    return alpha, beta


def onset_arrays(n, rng):
    """(x_hi, x_lo) on integer days plus the fixed sub-day offsets, so values
    repeat, with x_lo = 0 and x_hi == x_lo rows and some deep-tail rows."""
    b = np.where(rng.random(n) < 0.4, 0.0, rng.integers(1, 45, n) - 0.75)
    e = b + rng.integers(1, 12, n) + 0.5
    s = b + rng.integers(0, 40, n) + 0.25
    x_hi, x_lo = s - b, np.maximum(s - e, 0.0)
    x_hi[:5] = x_lo[:5] = [0.0, 0.25, 3.25, 60.25, 400.0]
    x_hi[5:10] = [150.0, 300.0, 500.0, 800.0, 2000.0]
    x_lo[5:10] = x_hi[5:10] - 0.5
    return x_hi, x_lo


def test_cdf_diff_is_the_four_igamma_difference_bit_for_bit():
    rng = np.random.default_rng(3)
    x_hi, x_lo = onset_arrays(400, rng)
    assert len(np.unique(np.concatenate([x_hi, x_lo]))) < 200
    index = lk._cdf_index(x_hi, x_lo)
    branches = set()
    for _ in range(300):
        alpha = math.exp(rng.uniform(math.log(0.05), math.log(200.0)))
        rate = math.exp(rng.uniform(math.log(0.01), math.log(20.0)))
        ref = four_igamma_cdf_diff(alpha, rate, x_hi, x_lo)
        assert np.array_equal(lk._gamma_cdf_diff(alpha, rate, index), ref)
        branches |= set(special.gammainc(alpha, rate * x_lo) > 0.5)
    assert branches == {False, True}
    # a scalar pair, as gamma_exp_integral passes it
    assert (lk._gamma_cdf_diff(1.86, 0.4, lk._cdf_index(7.25, 0.0))
            == four_igamma_cdf_diff(1.86, 0.4, 7.25, 0.0))


def elementwise_trunc_normalizer(x_hi, x_lo, r, alpha, beta):
    """Z_r(x_hi) - Z_r(x_lo) (see likelihood._trunc_normalizer) from
    elementwise incomplete gammas."""
    h_hi = special.gammainc(alpha, beta * x_hi)
    h_lo = special.gammainc(alpha, beta * x_lo)
    if abs(r) < lk.R_SWITCH:
        main = x_hi * h_hi - x_lo * h_lo
        return main - alpha / beta * four_igamma_cdf_diff(alpha + 1, beta, x_hi, x_lo)
    rate = beta + r
    part1 = (beta / rate) ** alpha * four_igamma_cdf_diff(alpha, rate, x_hi, x_lo)
    return part1 + (np.exp(-r * x_lo) * h_lo - np.exp(-r * x_hi) * h_hi)


def lattice_cases(n, rng):
    """n cases on the cohort day lattice, onsets up to 24 days after leaving."""
    cases = []
    for i in range(n):
        b_int = 0 if rng.random() < 0.5 else int(rng.integers(1, 40))
        e_int = int(rng.integers(b_int + 1, 54))
        cases.append(CaseRecord.from_ints(f"c{i}", b_int, e_int,
                                          int(rng.integers(b_int + 1, e_int + 25))))
    return cases


#: Growth rates at 0, around the switch to the exact r = 0 forms, and beyond.
R_GRID = (0.0, 1e-9, lk.R_SWITCH * (1 - 1e-9), lk.R_SWITCH, lk.R_SWITCH * (1 + 1e-9),
          1e-7, 0.05, 0.3, 2.0)


def test_trunc_normalizer_is_the_elementwise_formula_bit_for_bit():
    rng = np.random.default_rng(11)
    b, e, s, _ = lk.case_arrays(lattice_cases(300, rng))
    for extra in (0.0, 0.5, 3.0, 40.0, 200.0):
        M = float(s.max()) + extra
        x_hi, x_lo = M - b, np.maximum(M - e, 0.0)
        index = lk._cdf_index(x_hi, x_lo)
        for r in R_GRID + tuple(rng.uniform(0.0, 2.0, 3)):
            for _ in range(4):
                alpha = math.exp(rng.uniform(math.log(0.3), math.log(30.0)))
                beta = math.exp(rng.uniform(math.log(0.05), math.log(5.0)))
                ref = elementwise_trunc_normalizer(x_hi, x_lo, r, alpha, beta)
                assert np.array_equal(lk._trunc_normalizer(index, r, alpha, beta), ref)


def test_log_terms_are_the_same_with_and_without_the_index():
    """Each kernel's index, built once, serves every parameter point; given
    it, the kernel reads no case array (None stands in for them here)."""
    rng = np.random.default_rng(5)
    b, e, s, resident = lk.case_arrays(lattice_cases(300, rng))
    M = float(s.max()) + 3.0
    cond = lk._cond_index(b, e, s)
    uncond = lk._uncond_index(b, e, s, resident)
    trunc = lk._trunc_index(b, e, s, M)
    for r in R_GRID:
        for alpha, beta in ((0.4, 0.05), (1.86, 0.33), (60.0, 9.0)):
            same = [
                (lk.cond_log_terms(b, e, s, r, alpha, beta),
                 lk.cond_log_terms(None, None, None, r, alpha, beta, cond)),
                (lk.trunc_log_terms(b, e, s, r, alpha, beta, M),
                 lk.trunc_log_terms(None, None, None, r, alpha, beta, None, trunc)),
            ]
            if r >= 0.05:
                same.append((lk.uncond_log_terms(b, e, s, resident, 0.7, r, alpha, beta),
                             lk.uncond_log_terms(None, None, None, None, 0.7, r, alpha, beta,
                                                 uncond)))
            for plain, indexed in same:
                assert np.array_equal(plain, indexed)


def test_case_terms_are_the_per_kind_terms_with_nan_read_as_minus_inf():
    rng = np.random.default_rng(6)
    # besides lattice cases: a stay of zero length, and an onset before the
    # stay with M before it too; their cond and truncated terms come out NaN
    odd = [CaseRecord(case_id="odd-1", B_int=6, E_int=6, S_int=7, B=5.25, E=5.25, S=7.0),
           CaseRecord(case_id="odd-2", B_int=11, E_int=21, S_int=8, B=10.25, E=20.75, S=7.5)]
    for cases, M in ((lattice_cases(200, rng), 80.0), (odd, 8.0)):
        b, e, s, resident = lk.case_arrays(cases)
        terms = {kind: lk.case_terms(cases, kind, M if kind == "cond_trunc" else None)
                 for kind in ("cond", "uncond", "cond_trunc")}
        for r in R_GRID:
            for alpha, beta in ((0.4, 0.05), (1.86, 0.33), (60.0, 9.0)):
                expected = {"cond": lk.cond_log_terms(b, e, s, r, alpha, beta),
                            "cond_trunc": lk.trunc_log_terms(b, e, s, r, alpha, beta, M)}
                if r >= 0.05:
                    expected["uncond"] = lk.uncond_log_terms(b, e, s, resident, 0.7, r,
                                                             alpha, beta)
                for kind, raw in expected.items():
                    assert np.isnan(raw).any() == (cases is odd and kind != "uncond")
                    assert np.array_equal(terms[kind](0.7, r, alpha, beta),
                                          np.where(np.isnan(raw), -np.inf, raw))
    with pytest.raises(ValueError, match="kind must be one of"):
        lk.case_terms(odd, "joint")
    with pytest.raises(ValueError, match="requires the truncation day"):
        lk.case_terms(odd, "cond_trunc")
    for kind in ("cond", "uncond"):  # a truncation day that the terms would ignore
        with pytest.raises(ValueError, match=f"only cond_trunc reads .* for {kind}$"):
            lk.case_terms(odd, kind, 8.0)


def test_case_terms_evaluate_each_distinct_case_once_bit_for_bit(monkeypatch):
    """case_terms evaluates the distinct (B, E, S, resident) rows once and
    gathers them back: on a shuffled cohort of repeated cases its terms are
    the per-kind kernels' on the full case arrays, bit for bit, and a bad
    repeated case is named by its first place in case order."""
    rng = np.random.default_rng(8)
    odd = [CaseRecord(case_id="odd-1", B_int=6, E_int=6, S_int=7, B=5.25, E=5.25, S=7.0),
           CaseRecord(case_id="odd-2", B_int=11, E_int=21, S_int=8, B=10.25, E=20.75, S=7.5)]
    # two cases that differ only in residence, so only in their uncond terms
    twins = [CaseRecord(case_id=f"twin-{b_int}", B_int=b_int, E_int=10, S_int=12,
                        B=0.25, E=9.5, S=11.25) for b_int in (0, 1)]
    lattice = [dataclasses.replace(c, case_id=f"{c.case_id}/{k}")
               for c in lattice_cases(150, rng) + twins for k in range(3)]
    lattice = [lattice[i] for i in rng.permutation(len(lattice))]
    # odd-2 comes first in case order but sorts after odd-1 as a row
    copies = [dataclasses.replace(c, case_id=f"{c.case_id}/{k}") for k in range(3) for c in odd]
    cases = (lattice[:100] + [copies[1]] + lattice[100:250] + [copies[0], copies[3]]
             + lattice[250:] + [copies[2], copies[5], copies[4]])
    columns = lk.case_arrays(cases)
    first, inverse = distinct_rows(*columns)
    assert first.size == len({(c.B, c.E, c.S, c.is_resident) for c in cases}) < len(cases) / 2
    assert all(np.array_equal(col[first][inverse], col) for col in columns)
    M = 80.0
    b, e, s, resident = columns
    terms = {kind: lk.case_terms(cases, kind, M if kind == "cond_trunc" else None)
             for kind in lk.KINDS}
    sizes, kernel = [], lk.cond_log_terms
    with monkeypatch.context() as patch:
        patch.setattr(lk, "cond_log_terms",
                      lambda b, *args: sizes.append(b.size) or kernel(b, *args))
        terms["cond"](None, 0.3, 1.86, 0.33)
    assert sizes == [first.size]
    for r in R_GRID:
        for alpha, beta in ((0.4, 0.05), (1.86, 0.33), (60.0, 9.0)):
            expected = {"cond": lk.cond_log_terms(b, e, s, r, alpha, beta),
                        "cond_trunc": lk.trunc_log_terms(b, e, s, r, alpha, beta, M)}
            if r >= 0.05:
                expected["uncond"] = lk.uncond_log_terms(b, e, s, resident, 0.7, r,
                                                         alpha, beta)
            for kind, raw in expected.items():
                assert np.array_equal(terms[kind](0.7, r, alpha, beta),
                                      np.where(np.isnan(raw), -np.inf, raw))
    with pytest.raises(LikelihoodError, match="case odd-2/0 "):
        lk.log_lik(cases, "cond", ParamTheta(0.3, 1.86, 0.33))
    with pytest.raises(LikelihoodError, match="case odd-2/0 "):
        lk.log_lik(cases, "cond_trunc", ParamTheta(0.0, 1.86, 0.33), M)
    for kind in lk.KINDS:
        assert lk.case_terms([], kind, M if kind == "cond_trunc" else None)(
            0.7, 0.3, 1.86, 0.33).shape == (0,)


def test_case_terms_pickle_as_their_rows_to_the_same_floats():
    """The function case_terms returns survives a pickle round trip (as a
    spawned worker receives it) and gives the same floats, floored or not;
    it pickles as arrays, not as the case records."""
    cases = lattice_cases(200, np.random.default_rng(12))
    for kind in lk.KINDS:
        terms = lk.case_terms(cases, kind, 80.0 if kind == "cond_trunc" else None)
        data = pickle.dumps(terms)
        assert b"CaseRecord" not in data
        copy = pickle.loads(data)
        for r in (0.3,) if kind == "uncond" else (0.0, 0.3):
            for floor in (-math.inf, math.log(1e-300)):
                want = terms(0.7, r, 1.86, 0.33, floor)
                assert np.array_equal(copy(0.7, r, 1.86, 0.33, floor), want)


def _quantile_pairs(rng, n):
    """(median, q95) pairs with q95/median - 1 log-uniform on [1e-3, 1e4], so
    that some ratios lie beyond those of every shape in [1e-3, 1e3]; then the
    pairs one ulp either side of the two end ratios."""
    for _ in range(n):
        median = math.exp(rng.uniform(math.log(0.01), math.log(100.0)))
        yield median, median * (1.0 + math.exp(rng.uniform(math.log(1e-3), math.log(1e4))))
    for a in (1e-3, 1e3):
        end = special.gammaincinv(a, 0.95) / special.gammaincinv(a, 0.5)
        for q95 in (end, np.nextafter(end, 0.0), np.nextafter(end, np.inf)):
            yield 1.0, float(q95)


def test_quantile_inversion_matches_the_brentq_reference():
    """Shape and rate within 1e-11 of the full-bracket brentq, and the same
    pairs rejected with the same message."""
    rng = np.random.default_rng(17)
    n_ok = n_err = 0
    for median, q95 in _quantile_pairs(rng, 1500):
        try:
            ref = brentq_quantiles_to_shape_rate(median, q95)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                lk.quantiles_to_shape_rate(median, q95)
            assert str(got.value) == str(err)
            n_err += 1
            continue
        assert lk.quantiles_to_shape_rate(median, q95) == pytest.approx(ref, rel=1e-11)
        n_ok += 1
    assert n_ok >= 1000 and n_err > 0


def test_quantile_inversion_is_the_array_version_bit_for_bit():
    """The inversion on Python floats returns the very shape and rate of the
    same steps on NumPy arrays and scalars, and rejects the same pairs with
    the same message, one ulp either side of the end ratios too."""
    rng = np.random.default_rng(19)
    pairs = list(_quantile_pairs(rng, 1500))
    for _ in range(500):  # the shapes fits reach
        alpha = math.exp(rng.uniform(math.log(0.3), math.log(30.0)))
        pairs.append(tuple(special.gammaincinv(alpha, [0.5, 0.95]) / rng.uniform(0.05, 3.0)))
    accepted = []
    for median, q95 in pairs:
        try:
            ref = array_quantiles_to_shape_rate(median, q95)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                lk.quantiles_to_shape_rate(median, q95)
            assert str(got.value) == str(err)
            accepted.append(False)
            continue
        assert lk.quantiles_to_shape_rate(median, q95) == ref
        accepted.append(True)
    assert sum(accepted) >= 1500 and set(accepted[1500:1506]) == {True, False}


class _CountingSpecial:
    """scipy.special with its gammaincinv calls counted."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(special, name)

    def gammaincinv(self, *args):
        self.calls += 1
        return special.gammaincinv(*args)


def test_quantile_inversion_takes_few_gammaincinv_calls(monkeypatch):
    """At most 8 gammaincinv calls per inversion over the fitted shapes
    (0.3 to 30), against about 22 for the full-bracket brentq."""
    counting = _CountingSpecial()
    monkeypatch.setattr(lk, "sc", counting)
    rng = np.random.default_rng(23)
    for _ in range(500):
        alpha = math.exp(rng.uniform(math.log(0.3), math.log(30.0)))
        median, q95 = special.gammaincinv(alpha, [0.5, 0.95]) / rng.uniform(0.05, 3.0)
        before = counting.calls
        lk.quantiles_to_shape_rate(median, q95)
        assert counting.calls - before <= 8


# ---------------------------------------------------------------------------
# The growth-onset integral
# ---------------------------------------------------------------------------

def test_gamma_exp_integral_against_quadrature():
    rng = np.random.default_rng(21)
    for _ in range(25):
        r = rng.uniform(0.0, 0.5)
        alpha = rng.uniform(0.6, 7.0)
        beta = rng.uniform(0.12, 1.8)
        b = rng.uniform(0.0, 40.0)
        e = rng.uniform(b + 0.5, L)
        s = rng.uniform(b + 0.3, e + 20.0)
        got = gamma_exp_integral(b, e, s, ParamTheta(r, alpha, beta))
        ref = quad_growth_onset(b, e, s, r, alpha, beta)
        assert got == pytest.approx(ref, rel=1e-10)


def test_gamma_exp_integral_edge_cases():
    assert gamma_exp_integral(5.0, 4.0, 10.0, ParamTheta(0.3, 2.0, 0.5)) == 0.0
    assert gamma_exp_integral(5.0, 9.0, 5.0, ParamTheta(0.3, 2.0, 0.5)) == 0.0  # s == b
    # r = 0 reduces to a plain CDF difference
    got = gamma_exp_integral(2.0, 9.0, 12.0, ParamTheta(0.0, 1.86, 0.33))
    ref = special.gammainc(1.86, 0.33 * 10.0) - special.gammainc(1.86, 0.33 * 3.0)
    assert got == pytest.approx(ref, rel=1e-12)
    with pytest.raises(ValueError):
        gamma_exp_integral(0.0, 5.0, 6.0, ParamTheta(-0.5, 2.0, 0.4))


# ---------------------------------------------------------------------------
# Conditional likelihood
# ---------------------------------------------------------------------------

def test_cond_zero_growth_is_uniform_infection():
    cases = random_cases(40, np.random.default_rng(31))
    got = lk.log_lik(cases, "cond", ParamTheta(0.0, 1.86, 0.33))
    ref = sum(
        math.log(special.gammainc(1.86, 0.33 * (c.S - c.B))
                 - special.gammainc(1.86, 0.33 * max(c.S - c.E, 0.0)))
        - math.log(c.E - c.B)
        for c in cases)
    assert got == pytest.approx(ref, rel=1e-12)


def test_cond_continuous_at_zero_growth():
    cases = random_cases(60, np.random.default_rng(32))
    at0, at6, at7 = (lk.log_lik(cases, "cond", ParamTheta(r, 1.86, 0.33))
                     for r in (0.0, 1e-6, 1e-7))
    d6, d7 = abs(at6 - at0), abs(at7 - at0)
    assert d6 / len(cases) < 5e-6
    assert d7 < 0.3 * d6  # gap shrinks roughly linearly in r


def test_cond_rejects_negative_growth_and_empty_input():
    cases = random_cases(3, np.random.default_rng(33))
    with pytest.raises(ValueError):
        lk.log_lik(cases, "cond", ParamTheta(-0.1, 1.86, 0.33))
    with pytest.raises(ValueError):
        lk.log_lik([], "cond", ParamTheta(0.3, 1.86, 0.33))


@pytest.mark.parametrize("kind, theta, M, name", [
    ("uncond", ParamTheta(0.3, 1.86, 0.33), None, "rho"),
    ("cond_trunc", ParamTheta(0.3, 1.86, 0.33), math.inf, "M"),
    ("cond_trunc", ParamTheta(0.3, 1.86, 0.33), math.nan, "M"),
], ids=["rho-None", "M-inf", "M-nan"])
def test_log_lik_names_a_parameter_that_is_not_a_finite_number(kind, theta, M, name):
    """A missing rho is not a TypeError, and a NaN or infinite M is not
    blamed on the first case; theta's own fields are checked when it is
    built."""
    cases = random_cases(5, np.random.default_rng(36))
    with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
        lk.log_lik(cases, kind, theta, M)


def test_cond_names_the_impossible_case():
    good = random_cases(2, np.random.default_rng(34))
    # onset exactly at exposure start leaves no room for any incubation
    bad = CaseRecord(case_id="z-1", B_int=5, E_int=9, S_int=5,
                     B=5.0, E=9.0, S=5.0)
    with pytest.raises(LikelihoodError, match="z-1"):
        lk.log_lik(good + [bad], "cond", ParamTheta(0.3, 1.86, 0.33))


def test_cond_terms_sum_like_singles():
    cases = random_cases(10, np.random.default_rng(35))
    theta = ParamTheta(0.25, 2.0, 0.4)
    total = lk.log_lik(cases, "cond", theta)
    singles = sum(lk.log_lik([c], "cond", theta) for c in cases)
    assert total == pytest.approx(singles, rel=1e-12)


# ---------------------------------------------------------------------------
# Unconditional likelihood
# ---------------------------------------------------------------------------

def test_uncond_minus_cond_does_not_depend_on_incubation():
    """The travel-mix factor separates: the gap between the joint and the
    conditional log-likelihood is the same whatever the incubation law."""
    cases = random_cases(30, np.random.default_rng(41))
    gaps = []
    for alpha, beta in [(1.86, 0.33), (0.9, 0.2), (5.0, 1.1)]:
        gap = (lk.log_lik(cases, "uncond", ParamTheta(0.3, alpha, beta, rho=0.45))
               - lk.log_lik(cases, "cond", ParamTheta(0.3, alpha, beta)))
        gaps.append(gap)
    assert gaps[1] == pytest.approx(gaps[0], abs=1e-9)
    assert gaps[2] == pytest.approx(gaps[0], abs=1e-9)


def test_uncond_parameter_validation():
    cases = random_cases(3, np.random.default_rng(42))
    with pytest.raises(ValueError):
        lk.log_lik(cases, "uncond", ParamTheta(0.0, 1.86, 0.33, rho=0.45))  # needs growth
    with pytest.raises(ValueError):
        lk.log_lik(cases, "uncond", ParamTheta(0.3, 1.86, 0.33, rho=-0.2))
    # normalizer 1 + rho(1 - 2/(rL)) <= 0: rho huge, r tiny
    with pytest.raises(ValueError, match="normalizer"):
        lk.log_lik(cases, "uncond", ParamTheta(0.02, 1.86, 0.33, rho=50.0))


def test_uncond_zero_mix_forbids_visitors():
    resident = CaseRecord.from_ints("r-1", 0, 20, 24)
    visitor = CaseRecord.from_ints("v-1", 5, 20, 24)
    theta = ParamTheta(0.3, 1.86, 0.33, rho=0.0)
    assert math.isfinite(lk.log_lik([resident], "uncond", theta))
    with pytest.raises(LikelihoodError, match="v-1"):
        lk.log_lik([visitor], "uncond", theta)


def test_uncond_visitor_weight_is_log_of_rho_over_L_bit_for_bit():
    """A visitor weighs log(rho / L), one rounded quotient.  At rho = 0.1
    log(rho) - log(L) differs from it in the last bit, a difference that
    survives into the term and moves every uncond fit in its last digits;
    the difference form is kept only for a rho so small that rho / L
    underflows to 0."""
    r, alpha, beta, rho = 0.3, 1.86, 0.33, 0.1
    assert math.log(rho / L) != math.log(rho) - math.log(L)
    b, e, s = np.array([10.25]), np.array([40.75]), np.array([45.5])
    term = lk.uncond_log_terms(b, e, s, [False], rho, r, alpha, beta)
    expected = (2.0 * math.log(r) + alpha * (math.log(beta) - math.log(beta + r))
                + math.log(rho / L) - math.log(1.0 + rho * (1.0 - 2.0 / (r * L)))
                + r * (s - L) + np.log(four_igamma_cdf_diff(alpha, beta + r, s - b, s - e)))
    assert np.array_equal(term, expected)
    assert np.isfinite(lk.uncond_log_terms(b, e, s, [False], 5e-324, r, alpha, beta)).all()


# ---------------------------------------------------------------------------
# Right-truncated likelihood
# ---------------------------------------------------------------------------

def test_trunc_approaches_cond_as_cutoff_grows():
    cases = random_cases(40, np.random.default_rng(51))
    theta = ParamTheta(0.3, 1.86, 0.33)
    cond = lk.log_lik(cases, "cond", theta)
    trunc = lk.log_lik(cases, "cond_trunc", theta, M=500.0)
    assert abs(trunc - cond) / len(cases) < 1e-10


def test_trunc_rejects_onsets_past_the_cutoff():
    cases = random_cases(5, np.random.default_rng(52))
    M = max(c.S for c in cases)
    theta = ParamTheta(0.3, 1.86, 0.33)
    assert math.isfinite(lk.log_lik(cases, "cond_trunc", theta, M))
    late = max(cases, key=lambda c: c.S)
    with pytest.raises(LikelihoodError, match=late.case_id):
        lk.log_lik(cases, "cond_trunc", theta, M - 0.01)


def test_trunc_zero_growth_branch():
    cases = random_cases(20, np.random.default_rng(53), max_onset_lag=8.0)
    M = max(c.S for c in cases) + 2.0
    got, eps = (lk.log_lik(cases, "cond_trunc", ParamTheta(r, 1.86, 0.33), M)
                for r in (0.0, 1e-9))
    assert got == pytest.approx(eps, abs=1e-5)
    assert math.isfinite(got)


# ---------------------------------------------------------------------------
# Marginal densities
# ---------------------------------------------------------------------------

def test_marginal_s_density_interior_form():
    r, alpha, beta = 0.3, 1.86, 0.33
    for s in (5.0, 20.0, 40.0, 53.5):
        got = lk.marginal_s_density(s, ParamTheta(r, alpha, beta))
        ref = math.exp(r * s) * (L + alpha / (beta + r) - s)
        assert got == pytest.approx(ref, rel=1e-12)


def test_marginal_s_density_warns_when_window_too_short():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lk.marginal_s_density(5.0, ParamTheta(0.3, 1.86, 0.33))  # 54 > 4(1.86+5)/0.63: fine
        with pytest.raises(RuntimeWarning):
            lk.marginal_s_density(5.0, ParamTheta(0.05, 5.0, 0.33))  # 54 <= 4(5+5)/0.38


# ---------------------------------------------------------------------------
# Growth-rate bias correction
# ---------------------------------------------------------------------------

def test_growth_bias_correction_formula():
    rng = np.random.default_rng(61)
    for _ in range(20):
        alpha = rng.uniform(0.5, 6.0)
        beta = rng.uniform(0.1, 1.5)
        r = rng.uniform(0.05, 0.5)
        c = rng.uniform(4.0, 30.0)
        got = lk.growth_bias_correction(alpha, beta, r, c)
        assert got == pytest.approx(1.0 / (alpha / (beta + r) + c / 2.0), rel=1e-12)
    # longer fitting windows shrink the correction
    cs = [7.0, 14.0, 28.0]
    vals = [lk.growth_bias_correction(1.86, 0.33, 0.3, c) for c in cs]
    assert vals[0] > vals[1] > vals[2]


def test_growth_bias_fixed_point_is_self_consistent():
    r_naive, c = 0.11, 14.0
    r_fp = lk.growth_bias_fixed_point(1.86, 0.33, r_naive, c)
    assert r_fp == pytest.approx(
        r_naive + lk.growth_bias_correction(1.86, 0.33, r_fp, c), abs=1e-8)
    assert r_fp > r_naive
