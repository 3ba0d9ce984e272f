"""Property tests of the Gamma reparameterization and the per-case terms
(needs hypothesis)."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy import special

from bets import likelihood as lk
from bets.timeline import CaseRecord

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


def _log_uniform(lo: float, hi: float):
    """exp of a uniform draw on (log lo, log hi), ends left out by 1e-9."""
    return st.floats(math.log(lo) + 1e-9, math.log(hi) - 1e-9).map(math.exp)


@settings(max_examples=300, deadline=None)
@given(alpha=_log_uniform(1e-3, 1e3), beta=_log_uniform(1e-2, 1e2))
def test_shape_rate_round_trips_through_the_quantiles(alpha, beta):
    median, q95 = special.gammaincinv(alpha, [0.5, 0.95]) / beta
    a2, b2 = lk.quantiles_to_shape_rate(median, q95)
    assert a2 == pytest.approx(alpha, rel=1e-12)
    assert b2 == pytest.approx(beta, rel=1e-10)


@settings(max_examples=300, deadline=None)
@given(median=_log_uniform(1e-2, 1e2), spread=_log_uniform(0.06, 1e6))
def test_display_round_trips_through_theta(median, spread):
    # q95/median - 1 = spread stays inside the ratios of shapes in [1e-3, 1e3]
    q95 = median * (1.0 + spread)
    alpha, beta = lk.quantiles_to_shape_rate(median, q95)
    back_median, back_q95 = special.gammaincinv(alpha, [0.5, 0.95]) / beta
    assert back_median == pytest.approx(median, rel=1e-12)
    assert back_q95 == pytest.approx(q95, rel=1e-12)


#: Growth rates around the switch to the exact r = 0 forms, where the two
#: branches of every per-case term meet.
_R_NEAR_SWITCH = (0.0, 1e-9, lk.R_SWITCH * (1 - 1e-9), lk.R_SWITCH,
                  lk.R_SWITCH * (1 + 1e-9), 1e-7)


@st.composite
def _lattice_record(draw):
    """One case on the cohort day lattice (CaseRecord offsets): stay within
    the quarantine window, onset no more than 30 days after leaving."""
    b = draw(st.integers(0, 54))
    e = draw(st.integers(max(b, 1), 54))
    s = draw(st.integers(max(b, 1), e + 30))
    return CaseRecord.from_ints("p", b, e, s)


def _lattice_case():
    """(B, E, S) of a _lattice_record."""
    return _lattice_record().map(lambda rec: (rec.B, rec.E, rec.S))


_TERM_SETTINGS = dict(max_examples=400, deadline=None)
_TERM_ARGS = dict(cases=st.lists(_lattice_case(), min_size=1, max_size=8),
                  r=st.one_of(st.sampled_from(_R_NEAR_SWITCH), st.floats(0.0, 2.0)),
                  alpha=st.floats(0.3, 30.0), beta=st.floats(0.05, 5.0))


@settings(**_TERM_SETTINGS)
@given(**_TERM_ARGS)
def test_cond_terms_are_finite(cases, r, alpha, beta):
    b, e, s = (np.array(x) for x in zip(*cases))
    assert np.isfinite(lk.cond_log_terms(b, e, s, r, alpha, beta)).all()


@settings(**_TERM_SETTINGS)
@given(**_TERM_ARGS, extra=st.floats(0.0, 200.0))
def test_trunc_terms_are_finite(cases, r, alpha, beta, extra):
    """M from the latest onset up to 200 days past it (far beyond every stay)."""
    b, e, s = (np.array(x) for x in zip(*cases))
    M = float(s.max()) + extra
    assert np.isfinite(lk.trunc_log_terms(b, e, s, r, alpha, beta, M)).all()


@settings(max_examples=100, deadline=None)
@given(r=st.floats(0.5, 2.0), alpha=st.floats(0.3, 30.0), beta=st.floats(0.05, 5.0),
       stay=st.integers(20, 54))
def test_terms_are_finite_when_r_times_the_stay_is_large(r, alpha, beta, stay):
    """A resident who stayed until day `stay` with onset the same day:
    r(E - B) reaches about 108 and e^{rE} about 1e47."""
    rec = CaseRecord.from_ints("p", 0, stay, stay)
    b, e, s = np.array([rec.B]), np.array([rec.E]), np.array([rec.S])
    assert np.isfinite(lk.cond_log_terms(b, e, s, r, alpha, beta)).all()
    assert np.isfinite(lk.trunc_log_terms(b, e, s, r, alpha, beta, rec.S)).all()


@settings(max_examples=300, deadline=None)
@given(alpha=_log_uniform(1e-3, 1e3), beta=_log_uniform(1e-2, 1e2))
def test_quantile_inversion_puts_the_cdf_on_its_quantiles(alpha, beta):
    """The fitted Gamma puts probability 0.5 and 0.95 below the given median
    and q95, to 1e-13, over the whole shape range."""
    median, q95 = special.gammaincinv(alpha, [0.5, 0.95]) / beta
    a2, b2 = lk.quantiles_to_shape_rate(median, q95)
    assert abs(special.gammainc(a2, b2 * median) - 0.5) <= 1e-13
    assert abs(special.gammainc(a2, b2 * q95) - 0.95) <= 1e-13


@settings(max_examples=400, deadline=None)
@given(cases=st.lists(_lattice_record(), min_size=1, max_size=8),
       kind=st.sampled_from(("cond", "uncond", "cond_trunc")),
       r=st.one_of(st.just(0.0), st.floats(0.1, 1.0)),
       alpha=_log_uniform(1e-3, 1e3), median=_log_uniform(0.5, 1e3),
       extra=st.floats(0.0, 30.0))
# a resident of a simulated cohort (stay to day 53, onset day 46) truncated
# at M = 50, where the truncation normalizer underflows to 0 first
@example(cases=[CaseRecord.from_ints("p", 0, 53, 46)], kind="cond_trunc",
         r=0.87463126859291, alpha=562.9655125790198, median=925.7517199258116,
         extra=4.5)
def test_case_terms_are_never_plus_inf(cases, kind, r, alpha, median, extra):
    """Over the search's whole shape range, a term whose likelihood
    underflows is -inf (invalid), never +inf: far in the Gamma lower tail the
    truncation normalizer reaches 0 before the onset numerator does."""
    if kind == "uncond" and r == 0.0:
        r = 0.1
    M = max(c.S for c in cases) + extra if kind == "cond_trunc" else None
    beta = special.gammaincinv(alpha, 0.5) / median
    terms = lk.case_terms(cases, kind, M)(0.7, r, alpha, beta)
    assert not (terms == np.inf).any()


@settings(max_examples=300, deadline=None)
@given(cases=st.lists(_lattice_record(), min_size=1, max_size=8),
       kind=st.sampled_from(("cond", "uncond", "cond_trunc")),
       r=st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
       alpha=_log_uniform(1e-3, 1e3), median=_log_uniform(0.5, 1e3),
       rho=st.one_of(st.just(0.0), st.floats(0.0, 2.0)), extra=st.floats(0.0, 30.0))
# a visitor under a subnormal rho, where rho / L underflows to 0 and its log
# must still be finite
@example(cases=[CaseRecord.from_ints("p", 0, 1, 1)], kind="uncond", r=0.0,
         alpha=1.0, median=1.0, rho=5e-324, extra=0.0)
def test_log_lik_is_the_sum_of_the_terms_or_names_the_first_bad_case(
        cases, kind, r, alpha, median, rho, extra):
    """log_lik is the case-order sum of case_terms where every term is
    finite; otherwise LikelihoodError names the first case whose term is
    not (rho = 0 makes every visitor's uncond term -inf)."""
    if kind == "uncond" and r == 0.0:
        r = 0.1
    cases = [dataclasses.replace(c, case_id=f"p{i}") for i, c in enumerate(cases)]
    M = max(c.S for c in cases) + extra if kind == "cond_trunc" else None
    theta = lk.ParamTheta(r, alpha, special.gammaincinv(alpha, 0.5) / median, rho=rho)
    terms = lk.case_terms(cases, kind, M)(theta.rho, theta.r, theta.alpha, theta.beta)
    bad = np.flatnonzero(~np.isfinite(terms))
    if bad.size == 0:
        assert lk.log_lik(cases, kind, theta, M) == terms.sum()
    else:
        with pytest.raises(lk.LikelihoodError, match=f"case p{bad[0]} "):
            lk.log_lik(cases, kind, theta, M)
