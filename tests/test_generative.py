"""Tests for the population sampler and the exported-case rejection sampler.

Distributional checks draw large seeded samples and compare against closed
forms computed here (by direct integration of the defining densities), not
against the library's own likelihood module.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from bets import generative, inference
from bets.generative import (
    GenerativeParams,
    IncubationDist,
    params_from_theta,
    sample_exported,
    sample_population_arrays,
    selection_mask,
)
from bets.likelihood import ParamTheta
from helpers import quad_selection_exact

L = 54.0


def reference_params(**overrides) -> GenerativeParams:
    base = dict(pi=0.31, lambda_w=1.0 / 60.0, lambda_v=1.0 / 55.0, kappa=None,
                r=0.3, nu=0.8, incubation=IncubationDist.gamma(1.86, 0.33))
    base.update(overrides)
    if base["kappa"] is None:
        # scale the curve to integrate to 0.5 over the window
        base["kappa"] = 0.5 * base["r"] / math.expm1(base["r"] * L)
    return GenerativeParams(**base)


# ---------------------------------------------------------------------------
# Parameter construction
# ---------------------------------------------------------------------------

def test_params_from_theta_wiring():
    p = params_from_theta(0.45, 0.30, 1.86, 0.33)
    assert p.pi == pytest.approx(0.45 / 1.45, rel=1e-12)
    assert p.lambda_w == p.lambda_v == pytest.approx(1.0 / L, rel=1e-12)
    assert float(p.growth_mass(0.0, L)) == pytest.approx(0.5, rel=1e-9)
    assert (p.incubation.kind, p.incubation.alpha, p.incubation.beta) == ("gamma", 1.86, 0.33)


def test_params_from_theta_validation():
    with pytest.raises(ValueError):
        params_from_theta(0.45, 0.3, 1.86, 0.33, growth_mass=1.5)
    for rho in (-1.0, -0.5, math.nan):  # -1 divided by zero
        with pytest.raises(ValueError, match="need rho >= 0"):
            params_from_theta(rho, 0.3, 1.86, 0.33)


def test_generative_params_validation():
    with pytest.raises(ValueError):
        reference_params(pi=1.2)
    with pytest.raises(ValueError):
        reference_params(lambda_w=2.0 / L)   # departure density above 1/L
    with pytest.raises(ValueError):
        reference_params(kappa=1.0)          # curve mass over the window > 1


@pytest.mark.parametrize("name, make", [
    ("kappa", lambda: reference_params(kappa=math.nan)),
    ("kappa", lambda: reference_params(kappa=math.inf)),
    ("r", lambda: reference_params(r=math.nan, kappa=1e-3)),
    ("r", lambda: reference_params(r=math.inf, kappa=1e-3)),
    ("r2", lambda: reference_params(r2=math.nan)),
    ("alpha", lambda: IncubationDist.gamma(math.inf, 1.0)),
    ("beta", lambda: IncubationDist.gamma(1.0, math.nan)),
    ("pmf", lambda: IncubationDist.discrete([math.nan, 1.0])),
    ("alpha", lambda: IncubationDist(alpha=math.nan, beta=1.0)),
    ("pmf", lambda: IncubationDist(pmf=(math.nan, 1.0))),
    ("kappa", lambda: dataclasses.replace(reference_params(), kappa=None)),
    ("r", lambda: dataclasses.replace(reference_params(), r=None)),
], ids=["kappa-nan", "kappa-inf", "r-nan", "r-inf", "r2-nan", "alpha-inf", "beta-nan",
        "pmf-nan", "alpha-nan-direct", "pmf-nan-direct", "kappa-none", "r-none"])
def test_parameters_that_are_not_finite_numbers_are_named(name, make):
    """NaN fails no `<` check: with r = nan, sample_exported used to draw
    about 10^9 candidates before it raised.  Only r2 may be None."""
    with pytest.raises(ValueError, match=f"^{name} must be "):
        make()


@pytest.mark.parametrize("kwargs", [{}, {"alpha": 1.0}, {"beta": 1.0},
                                    {"alpha": 1.0, "beta": 1.0, "pmf": (1.0,)}],
                         ids=["none", "alpha-only", "beta-only", "both-laws"])
def test_incubation_law_needs_alpha_and_beta_or_a_pmf(kwargs):
    with pytest.raises(ValueError, match="give alpha and beta, or pmf alone"):
        IncubationDist(**kwargs)


def test_incubation_law_built_directly_is_checked_as_the_classmethods_are():
    assert IncubationDist(alpha=1.86, beta=0.33) == IncubationDist.gamma(1.86, 0.33)
    direct = IncubationDist(pmf=np.array([0.25, 0.75]))
    assert direct == IncubationDist.discrete([0.25, 0.75]) and direct.pmf == (0.25, 0.75)
    with pytest.raises(ValueError, match="need alpha, beta > 0"):
        IncubationDist(alpha=-1.0, beta=1.0)
    with pytest.raises(ValueError, match="pmf sums to"):
        IncubationDist(pmf=(0.5, 0.4))


def test_exponential_growth_integral():
    ref, _ = integrate.quad(lambda t: 0.002 * math.exp(0.3 * t), 3.0, 17.0)
    exp_mass = generative._exp_mass
    assert exp_mass(0.002, 0.3, 3.0, 17.0) == pytest.approx(ref, rel=1e-12)
    assert exp_mass(0.002, 0.3, 5.0, 5.0) == 0.0
    assert exp_mass(0.002, 0.3, 6.0, 5.0) == 0.0  # b < a
    assert exp_mass(0.002, 1e-12, 3.0, 17.0) == pytest.approx(0.002 * 14.0, rel=1e-9)
    got = exp_mass(0.002, 0.3, np.array([3.0, 5.0]), np.array([17.0, 5.0]))
    assert got[0] == exp_mass(0.002, 0.3, 3.0, 17.0) and got[1] == 0.0


def test_growth_mass_additive_and_curve_continuous():
    p = reference_params(r2=0.05, l1=40.0)
    a, mid, b = 10.0, 40.0, 50.0
    total = float(p.growth_mass(a, b))
    assert total == pytest.approx(
        float(p.growth_mass(a, mid)) + float(p.growth_mass(mid, b)), rel=1e-12)
    eps = 1e-6  # equal masses just either side of l1: the curve is continuous there
    assert float(p.growth_mass(mid - eps, mid)) == pytest.approx(
        float(p.growth_mass(mid, mid + eps)), rel=1e-6)
    assert float(p.growth_mass(-5.0, 0.0)) == 0.0
    assert float(p.growth_mass(L, L + 5.0)) == 0.0


# ---------------------------------------------------------------------------
# Incubation laws
# ---------------------------------------------------------------------------

def test_mass_inversion_without_growth():
    """At r = 0 the curve is flat and the inversion takes its linear branch:
    growth_mass(a, _invert_mass(a, m)) gives m back."""
    p = params_from_theta(0.45, 0.0, 1.86, 0.33)
    rng = np.random.default_rng(12)
    a = rng.uniform(0.0, L, 500)
    m = rng.uniform(0.0, 1.0, 500) * p.growth_mass(a, L)
    t = p._invert_mass(a, m)
    assert np.all((a <= t) & (t <= L))
    np.testing.assert_allclose(p.growth_mass(a, t), m, rtol=1e-12, atol=1e-16)


def test_incubation_gamma_moments():
    inc = IncubationDist.gamma(1.86, 0.33)
    x = inc.sample(np.random.default_rng(1), 200_000)
    assert x.mean() == pytest.approx(1.86 / 0.33, rel=0.02)


def test_incubation_discrete_sampling():
    pmf = np.array([0.1, 0.3, 0.4, 0.15, 0.05])
    inc = IncubationDist.discrete(pmf)
    assert inc.kind == "discrete"
    x = inc.sample(np.random.default_rng(2), 20_000).astype(int)
    assert x.mean() == pytest.approx(float(np.arange(5) @ pmf), rel=0.02)
    counts = np.bincount(x, minlength=5)
    p = stats.chisquare(counts, 20_000 * pmf).pvalue
    assert p > 1e-3


# ---------------------------------------------------------------------------
# Population process
# ---------------------------------------------------------------------------

def test_population_degenerate_switches():
    p0 = reference_params(nu=0.0)
    _, _, t, s = sample_population_arrays(50_000, p0, np.random.default_rng(3))
    assert np.isinf(s).all()
    assert np.isfinite(t).any()     # infections still happen
    pk = reference_params(kappa=0.0)
    _, _, t, s = sample_population_arrays(50_000, pk, np.random.default_rng(4))
    assert np.isinf(t).all() and np.isinf(s).all()


def test_population_structure():
    p = reference_params()
    b, e, t, s = sample_population_arrays(100_000, p, np.random.default_rng(5))
    visitor = b > 0
    assert abs(visitor.mean() - p.pi) < 3 * math.sqrt(p.pi * (1 - p.pi) / 1e5)
    assert np.all(e[np.isfinite(e)] <= L)
    assert np.all(e >= b)
    fin_t = np.isfinite(t)
    assert np.all(t[fin_t] >= b[fin_t]) and np.all(t[fin_t] <= np.minimum(e, L)[fin_t])
    assert np.all(s[np.isfinite(s)] >= t[np.isfinite(s)])


def test_probability_of_never_leaving_increases_with_arrival_day():
    p = reference_params()
    b, e, _, _ = sample_population_arrays(100_000, p, np.random.default_rng(6))
    visitor = b > 0
    bins = np.digitize(b[visitor], np.linspace(0.0, L, 6)[1:-1])
    frac = [np.isinf(e[visitor][bins == k]).mean() for k in range(5)]
    assert all(f2 > f1 for f1, f2 in zip(frac, frac[1:]))
    # and the resident never-leaves fraction matches 1 - lambda_w * L
    resident = ~visitor
    expected = 1.0 - p.lambda_w * L
    assert abs(np.isinf(e[resident]).mean() - expected) < 0.01


def test_infection_time_density_among_never_leaving_residents():
    """T | infected, B = 0, E = inf follows the epidemic curve restricted to
    the window; the empirical law must match its normalized integral."""
    p = reference_params()
    b, e, t, _ = sample_population_arrays(400_000, p, np.random.default_rng(7))
    sel = (b == 0.0) & np.isinf(e) & np.isfinite(t)
    grid = np.linspace(0.0, L, 2001)
    mass = np.asarray(p.growth_mass(np.zeros_like(grid), grid), dtype=float)
    cdf = mass / mass[-1]
    pv = stats.kstest(t[sel], lambda x: np.interp(x, grid, cdf)).pvalue
    assert sel.sum() > 10_000
    assert pv > 0.01


def test_incubation_independent_of_selection():
    """S - T among exported cases is exactly the incubation law."""
    p = reference_params()
    b, e, t, s = sample_population_arrays(400_000, p, np.random.default_rng(8))
    keep = selection_mask(b, e, t, s)
    inc = s[keep] - t[keep]
    pv = stats.kstest(inc, lambda x: stats.gamma.cdf(x, 1.86, scale=1 / 0.33)).pvalue
    assert keep.sum() > 3_000
    assert pv > 0.01


def test_acceptance_rate_matches_double_integral():
    p = reference_params()
    n = 1_000_000
    b, e, t, s = sample_population_arrays(n, p, np.random.default_rng(9))
    got = selection_mask(b, e, t, s).mean()
    exact = quad_selection_exact(p.pi, p.lambda_w, p.lambda_v, p.kappa, p.nu, p.r)
    se = math.sqrt(exact * (1 - exact) / n)
    assert abs(got - exact) < 3 * se


def test_resident_share_among_accepted():
    p = reference_params()
    b, e, t, s = sample_population_arrays(600_000, p, np.random.default_rng(10))
    keep = selection_mask(b, e, t, s)
    got = (b[keep] == 0.0).mean()
    res_part = (1 - p.pi) * quad_selection_exact(0.0, p.lambda_w, p.lambda_v,
                                                 p.kappa, p.nu, p.r)
    vis_part = p.pi * quad_selection_exact(1.0, p.lambda_w, p.lambda_v,
                                           p.kappa, p.nu, p.r)
    expected = res_part / (res_part + vis_part)
    se = math.sqrt(expected * (1 - expected) / keep.sum())
    assert abs(got - expected) < 3 * se


def test_acceptance_scales_linearly_in_symptomatic_fraction():
    n = 400_000
    rates = []
    for nu in (0.4, 0.8):
        p = reference_params(nu=nu)
        b, e, t, s = sample_population_arrays(n, p, np.random.default_rng(11))
        rates.append(selection_mask(b, e, t, s).mean())
    assert rates[1] / rates[0] == pytest.approx(2.0, abs=0.1)


# ---------------------------------------------------------------------------
# Selection set
# ---------------------------------------------------------------------------

def test_in_selection_examples():
    rows = np.array([
        (0.0, 20.0, 10.0, 15.0),       # exported
        (0.0, math.inf, 10.0, 15.0),   # never left
        (0.0, 20.0, 25.0, 30.0),       # infected after leaving
        (0.0, 20.0, 10.0, math.inf),   # never symptomatic
        (5.0, 20.0, 3.0, 10.0),        # infected before arrival
        (0.0, 60.0, 10.0, 15.0),       # left after the horizon
    ])
    mask = selection_mask(*rows.T)
    assert mask.tolist() == [True, False, False, False, False, False]
    assert [bool(selection_mask(*row)) for row in rows] == mask.tolist()


# ---------------------------------------------------------------------------
# Exported-case sampler
# ---------------------------------------------------------------------------

def test_sample_exported_empty_and_invalid(monkeypatch):
    p = reference_params()
    assert sample_exported(0, p, np.random.default_rng(0)) == ([], None)
    with pytest.raises(ValueError, match="m must be at least 0"):
        sample_exported(-1, p, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_exported(10, reference_params(nu=0.0), np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_exported(10, reference_params(kappa=0.0), np.random.default_rng(0))
    monkeypatch.setattr(generative, "_MAX_DRAWS", 20)
    with pytest.raises(RuntimeError):
        sample_exported(10, p, np.random.default_rng(0))


def test_sample_exported_deterministic():
    p = reference_params()
    recs1, acc1 = sample_exported(50, p, np.random.default_rng(12))
    recs2, acc2 = sample_exported(50, p, np.random.default_rng(12))
    assert recs1 == recs2 and acc1 == acc2


def test_sample_exported_discretized_fields():
    p = reference_params()
    recs, acc = sample_exported(300, p, np.random.default_rng(13))
    assert len(recs) == 300 and 0 < acc < 1
    for rec in recs:
        assert 0 <= rec.B_int <= rec.E_int <= 54
        if rec.B_int == 0:
            assert rec.B == 0.0
        else:
            assert rec.B == rec.B_int - 0.75
        assert rec.E == rec.E_int - 0.25
        assert rec.S == rec.S_int - 0.5
    assert any(r.B_int == 0 for r in recs) and any(r.B_int > 0 for r in recs)


def test_sample_exported_exact_times():
    p = reference_params()
    recs, _ = sample_exported(300, p, np.random.default_rng(13),
                              discretize_days=False)
    for rec in recs:
        assert math.ceil(rec.B) == rec.B_int
        assert math.ceil(rec.E) == rec.E_int
        assert math.ceil(rec.S) == rec.S_int
        assert rec.B <= rec.E <= L and rec.B <= rec.S
        assert rec.E != rec.E_int - 0.25 or rec.S != rec.S_int - 0.5


def test_sample_exported_onset_histogram_fits_marginal():
    """Ceiling-day onsets of simulated residents match the onset-day density
    the fitting code uses, at the true parameter point."""
    params = params_from_theta(0.45, 0.30, 1.86, 0.33)
    recs, _ = sample_exported(10_000, params, np.random.default_rng(14))
    gof = inference.gof_onset_marginal(recs, ParamTheta(r=0.30, alpha=1.86, beta=0.33))
    assert gof.p_value > 0.01


def test_two_stage_curve_sampling():
    p = reference_params(r2=-0.1, l1=40.0, kappa=1e-7)
    b, e, t, s = sample_population_arrays(200_000, p, np.random.default_rng(15))
    keep = selection_mask(b, e, t, s)
    assert keep.sum() > 100
    # infections must still respect the window
    assert np.all(t[keep] <= L)


# ---------------------------------------------------------------------------
# Bit pins: the sampler's floats as recorded before its batch path went in
# place.  The distributional tests above cannot see a change in the last bit;
# these can.  They depend on NumPy's random streams and libm, like every
# bit-for-bit test here.
# ---------------------------------------------------------------------------

def _hex_digest(values) -> str:
    """sha256 of the float.hex of each value: -0.0, inf and NaN all count."""
    text = " ".join(float(v).hex() for v in np.ravel(values))
    return hashlib.sha256(text.encode()).hexdigest()


def _cohort_digest(records, acceptance) -> str:
    rows = [f"{r.B_int} {r.E_int} {r.S_int} {r.B.hex()} {r.E.hex()} {r.S.hex()}"
            for r in records]
    return hashlib.sha256("\n".join([*rows, acceptance.hex()]).encode()).hexdigest()


_REFERENCE = params_from_theta(0.45, 0.30, 1.86, 0.33)
_TWO_STAGE = params_from_theta(0.45, 0.30, 1.86, 0.33, r2=-0.1, l1=40.0)
_PMF = (0.05, 0.15, 0.3, 0.25, 0.15, 0.1)

_COHORT_PINS = [
    # (label, params, m, seed, discretize_days, sha256)
    ("reference", _REFERENCE, 800, 8, True,
     "3a92bb3ebbe805ed13cb6bc550ae857c6c09b4a0501a66314cf9488240a23c1b"),
    ("reference, seed 16", _REFERENCE, 800, 16, True,
     "fe61d4b6addb0fb668ce161688d40895ed7e1ae8123cefa6215b32834ba45278"),
    ("discrete pmf", dataclasses.replace(_REFERENCE, incubation=IncubationDist.discrete(_PMF)),
     1000, 16, True,
     "60ce3fc0006d5a3e03ffe3a2886654881a1a8ecaf0ecf41e56fa82d3b3dc9013"),
    ("r = 0", params_from_theta(0.45, 0.0, 1.86, 0.33), 300, 3, True,
     "b5b05f528432dc3a649d5eed76f92b23c7fd02a6f6171170d1edf3ff0bb9614f"),
    ("r = -0.1", params_from_theta(0.45, -0.1, 1.86, 0.33), 300, 4, True,
     "6c4748397c7fa73983586a431ff75247281d16c6969be6a941ef1328cbf596ad"),
    ("two-stage", _TWO_STAGE, 300, 5, True,
     "879eafe4c2abe39a1bf961c9f05e3dac9a3ffc44a237f061af8cd348e4607af0"),
    ("stays that never end", reference_params(), 300, 6, True,
     "6ddc1752bc72464e94693eb0ec7c17d0b75bc80d1d2044d6566bfe0d179a0998"),
    ("exact times", _REFERENCE, 300, 7, False,
     "5fd8c06c100d8122f120a63fecf370c44e48d4fb07a943f6adb3ef03fcfe3685"),
]


@pytest.mark.parametrize("label, params, m, seed, discretize, digest", _COHORT_PINS,
                         ids=[pin[0] for pin in _COHORT_PINS])
def test_sample_exported_bits_are_pinned(label, params, m, seed, discretize, digest):
    records, acceptance = sample_exported(m, params, np.random.default_rng(seed),
                                          discretize_days=discretize)
    assert _cohort_digest(records, acceptance) == digest


_CURVES = {
    "r = 0.3": reference_params(),
    "r = 0": params_from_theta(0.45, 0.0, 1.86, 0.33),
    "r = -0.1": params_from_theta(0.45, -0.1, 1.86, 0.33),
    "two-stage": reference_params(r2=-0.1, l1=40.0),
}

_POPULATION_PINS = {
    "r = 0.3": "e1b46cde7b6cac83c9d89bbe7868a66088c7a97af734c2bbac74cdeace600ff5",
    "r = 0": "9a4c92a68bb09fce5cd1fa5801f0256368229d89ac8560628844afb352822a2f",
    "r = -0.1": "48b8f3d17c4263bdcfd69535058b1a00d1c903557629327902a99c4c97a4febe",
    "two-stage": "0f142f98af0b0d7ac23fb4814d15a3befc99cc57bfcbd36f316c465921fa9152",
}


@pytest.mark.parametrize("curve", list(_POPULATION_PINS))
def test_population_bits_are_pinned(curve):
    arrays = sample_population_arrays(5000, _CURVES[curve], np.random.default_rng(21))
    assert _hex_digest(arrays) == _POPULATION_PINS[curve]


#: Bounds for the curve's mass: outside [0, L] on both sides, the stage
#: break 40, signed zeros, infinities and NaN.
_BOUNDS = np.array([-np.inf, -5.0, -0.0, 0.0, 5e-324, 0.5, 3.25, 17.0, 39.999, 40.0,
                    40.5, 53.75, 54.0, 54.0000001, 60.0, np.inf, np.nan])

_MASS_PINS = {
    "r = 0.3": "b4ece83dcd17b5cf0e40aa13a95f3e23ee230abc2402c07e362819212642efca",
    "r = 0": "1d0d81c3f94f5f157e57b812b9b30e0234c9a41ade2b1526e361e37e373f1c0c",
    "r = -0.1": "3d10169be521d2bf92be5ba83082edfa4a2e95a07238696385f801e4cc75fbdc",
    "two-stage": "0159b20a3a39fffd2d301f69e04d27ed34f93859b0afe87e9de99a250464e7d1",
}


def _curve_values(p: GenerativeParams) -> list:
    """growth_mass on the grid of bounds, on scalar and mixed bounds, and
    _invert_mass at fractions of the mass after each start."""
    with np.errstate(invalid="ignore"):
        grid = p.growth_mass(_BOUNDS[:, None], _BOUNDS[None, :])
        scalars = [p.growth_mass(0.0, L), p.growth_mass(3.25, 17.0),
                   p.growth_mass(60.0, -5.0), p.growth_mass(np.nan, 17.0)]
        mixed = [p.growth_mass(_BOUNDS, 40.0), p.growth_mass(0.5, _BOUNDS)]
        starts = np.array([-1.0, 0.0, 0.5, 17.0, 39.999, 40.0, 53.75, 54.0, np.inf])
        fracs = np.array([0.0, 1e-12, 0.25, 0.5, 0.999, 1.0, 1.0 + 1e-13, np.nan])
        a = np.repeat(starts, fracs.size)
        inverse = p._invert_mass(a, np.tile(fracs, starts.size) * p.growth_mass(a, L))
    return [grid, scalars, *mixed, inverse]


@pytest.mark.parametrize("curve", list(_MASS_PINS))
def test_growth_mass_bits_are_pinned(curve):
    grid, scalars, *rest = _curve_values(_CURVES[curve])
    assert grid.shape == (_BOUNDS.size, _BOUNDS.size)
    assert [np.shape(x) for x in scalars] == [()] * 4
    assert float(scalars[0]) > 0.0 and float(scalars[2]) == 0.0
    assert _hex_digest(np.concatenate([grid.ravel(), scalars, *rest])) == _MASS_PINS[curve]


# ---------------------------------------------------------------------------
# Batches: their size cap and the arrays each keeps alive
# ---------------------------------------------------------------------------

def _traced_peak(fn) -> int:
    """Peak bytes allocated while fn() runs, above what was allocated before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture
def batch_sizes(monkeypatch):
    """The population draws of each batch sample_exported draws."""
    sizes = []
    draw = generative.sample_population_arrays

    def counted(n, *args):
        sizes.append(n)
        return draw(n, *args)

    monkeypatch.setattr(generative, "sample_population_arrays", counted)
    return sizes


@pytest.mark.parametrize("params", [_REFERENCE, _TWO_STAGE], ids=["one stage", "two-stage"])
def test_population_draw_keeps_few_arrays_alive(params):
    """A batch of n draws peaks below 7.5 float arrays of length n: its four
    results and the curve's working arrays (six in all, seven with two
    stages)."""
    n = 100_000
    peak = _traced_peak(lambda: sample_population_arrays(n, params, np.random.default_rng(1)))
    assert peak <= 7.5 * 8 * n


def test_sample_exported_frees_each_batch_before_the_next(monkeypatch, batch_sizes):
    cap = 20_000
    monkeypatch.setattr(generative, "_MAX_BATCH", cap)
    peak = _traced_peak(lambda: sample_exported(1500, _REFERENCE, np.random.default_rng(2)))
    assert batch_sizes.count(cap) >= 3
    assert peak <= 7.5 * 8 * cap


def test_first_batch_is_capped_too(monkeypatch, batch_sizes):
    """The first batch asks for 2m draws, but no more than the cap."""
    monkeypatch.setattr(generative, "_MAX_BATCH", 5000)
    records, _ = sample_exported(3000, _REFERENCE, np.random.default_rng(3))
    assert len(records) == 3000
    assert batch_sizes[0] == max(batch_sizes) == 5000
