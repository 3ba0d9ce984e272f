"""Property tests of the Gamma reparameterization (needs hypothesis)."""

from __future__ import annotations

import math

import pytest

from bets import likelihood as lk

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _log_uniform(lo: float, hi: float):
    """exp of a uniform draw on (log lo, log hi), ends left out by 1e-9."""
    return st.floats(math.log(lo) + 1e-9, math.log(hi) - 1e-9).map(math.exp)


@settings(max_examples=300, deadline=None)
@given(alpha=_log_uniform(1e-3, 1e3), beta=_log_uniform(1e-2, 1e2))
def test_shape_rate_round_trips_through_the_quantiles(alpha, beta):
    median, q95 = lk.shape_rate_to_quantiles(alpha, beta)
    a2, b2 = lk.quantiles_to_shape_rate(median, q95)
    assert a2 == pytest.approx(alpha, rel=1e-12)
    assert b2 == pytest.approx(beta, rel=1e-10)


@settings(max_examples=300, deadline=None)
@given(doubling=st.one_of(_log_uniform(0.1, 100.0), st.just(math.inf)),
       median=_log_uniform(1e-2, 1e2), spread=_log_uniform(0.06, 1e6),
       rho=st.one_of(st.none(), st.floats(0.0, 10.0)))
def test_display_round_trips_through_theta(doubling, median, spread, rho):
    # q95/median - 1 = spread stays inside the ratios of shapes in [1e-3, 1e3]
    d = lk.DisplayTheta(doubling_time=doubling, median_incubation=median,
                        q95_incubation=median * (1.0 + spread), rho=rho)
    back = d.theta().display()
    assert back.doubling_time == pytest.approx(d.doubling_time, rel=1e-14)
    assert back.median_incubation == pytest.approx(d.median_incubation, rel=1e-12)
    assert back.q95_incubation == pytest.approx(d.q95_incubation, rel=1e-12)
    assert back.rho == d.rho
