"""Closed-form mathematics of the exported-case model.

The observation model: an individual begins a Wuhan stay at B (B = 0 for
residents, otherwise uniform on (0, L]), leaves at E (uniform density with an
atom at "never left"), is infected at T with instantaneous rate proportional
to the epidemic curve g(t) = kappa*exp(r*t), and shows symptoms at
S = T + incubation, with a Gamma(alpha, beta) incubation period.  A case is
observed ("exported") only if it falls in the selection set

    D = {B <= T <= E <= L,  T <= S < infinity},

i.e. the person was infected during the stay, left before the travel
quarantine at L = 54, and eventually showed symptoms.  This module provides
the resulting log-likelihoods of (B, E, S) for observed cases, each of the
likelihood kinds at one parameter point :class:`ParamTheta`:

* "cond":       conditional on (B, E)
* "uncond":     joint in (B, E, S) with the travel-mix rho
* "cond_trunc": additionally right-truncated at S <= M

:func:`case_terms` gives their per-case terms and :func:`log_lik` their sum;
also the closed-form selection probability, the marginal onset-time density
among exported residents, and the additive growth-rate correction for naive
curve fits to onset counts.
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special as sc

from .timeline import KINDS, QUARANTINE_DAY, R_SWITCH, CaseRecord, check_finite, distinct_rows

__all__ = [
    "LikelihoodError",
    "ParamTheta",
    "DisplayTheta",
    "quantiles_to_shape_rate",
    "gamma_exp_integral",
    "selection_prob_total",
    "log_lik",
    "marginal_s_density",
    "growth_bias_correction",
    "growth_bias_fixed_point",
    "case_arrays",
    "case_terms",
    "cond_log_terms",
    "uncond_log_terms",
    "trunc_log_terms",
]

class LikelihoodError(ValueError):
    """An observed case has zero or undefined likelihood at the given parameters."""


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamTheta:
    """Natural parameters: travel mix rho, growth rate r, incubation Gamma(alpha, beta).

    rho = (lambda_V / lambda_W) * pi / (1 - pi) is the visitor-to-resident
    mix; it only enters the unconditional likelihood and may be None for
    conditional fits.
    """

    r: float
    alpha: float
    beta: float
    rho: float | None = None

    def __post_init__(self):
        check_finite({"r": self.r, "alpha": self.alpha, "beta": self.beta, "rho": self.rho},
                     optional=("rho",))
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError(f"need alpha, beta > 0, got ({self.alpha}, {self.beta})")
        if self.rho is not None and self.rho < 0:
            raise ValueError(f"need rho >= 0, got {self.rho}")


@dataclass(frozen=True)
class DisplayTheta:
    """Interpretable reparameterization: doubling time and incubation quantiles."""

    doubling_time: float
    median_incubation: float
    q95_incubation: float
    rho: float | None = None

    def __post_init__(self):
        if not self.doubling_time > 0:
            raise ValueError(f"need doubling_time > 0, got {self.doubling_time}")
        if not 0 < self.median_incubation < self.q95_incubation:
            raise ValueError("need 0 < median < q95 of the incubation period")


# ---------------------------------------------------------------------------
# Gamma distribution helpers
# ---------------------------------------------------------------------------

_ALPHA_LO, _ALPHA_HI = 1e-3, 1e3
_LOG_ALPHA_LO, _LOG_ALPHA_HI = math.log(_ALPHA_LO), math.log(_ALPHA_HI)

#: The probabilities of the incubation quantiles that the fits report.
_PROBS = np.array([0.5, 0.95])


def _node_tables():
    """Log-shape nodes spanning exactly [log 1e-3, log 1e3] (np.exp of the ends
    is bitwise math.exp of them) and -log of the Gamma's q95/median at each,
    which does not depend on the rate and rises strictly with the shape, both
    as lists; then the first and last ratio.  The inversion works on Python
    floats, where NumPy's per-call overhead would dwarf the scalar work."""
    log_alpha = np.linspace(_LOG_ALPHA_LO, _LOG_ALPHA_HI, 4001)
    q = sc.gammaincinv(np.exp(log_alpha)[:, None], _PROBS)
    ratio = q[:, 1] / q[:, 0]
    return log_alpha.tolist(), (-np.log(ratio)).tolist(), float(ratio[0]), float(ratio[-1])


_LOG_ALPHA_NODES, _NEG_LOG_RATIO_NODES, _RATIO_HI, _RATIO_LO = _node_tables()

#: Secant steps stop once the next step in log shape is this small.
_XTOL = 1e-14
_MAX_STEPS = 30


def quantiles_to_shape_rate(median: float, q95: float) -> tuple[float, float]:
    """Invert (median, q95) to the unique Gamma (shape, rate).

    The scale-free ratio q95/median falls strictly as the shape grows, so the
    shape solves log(q95(a)/median(a)) = log(q95/median) in log a.  The root
    is bracketed by two nodes of a table built at import; interpolating
    between them seeds a secant iteration, each step one vectorized
    gammaincinv(a, [0.5, 0.95]) call, which stops once the next step is below
    1e-14 in log a (3 calls typically, 4 at most on the fit range).  The
    rate is the last step's Gamma median over the given median.  Raises
    ValueError if no shape in [1e-3, 1e3] matches (the ratio is checked
    against the table's two end ratios) or if the CDF at the given quantiles
    misses 0.5 or 0.95 by more than 1e-9.
    """
    if not (0 < median < q95) or not (math.isfinite(median) and math.isfinite(q95)):
        raise ValueError(f"need 0 < median < q95, got ({median}, {q95})")
    ratio = q95 / median
    if not _RATIO_HI > ratio > _RATIO_LO:
        raise ValueError(f"quantile ratio {ratio:.6g} has no Gamma shape in "
                         f"[{_ALPHA_LO}, {_ALPHA_HI}]")
    target = math.log(ratio)
    j = min(max(bisect.bisect_left(_NEG_LOG_RATIO_NODES, -target), 1),
            len(_LOG_ALPHA_NODES) - 1)
    # gap(x) = log(q95/median of shape e^x) - target; the first step from the
    # two bracketing nodes is the table's linear interpolation
    x_prev, gap_prev = _LOG_ALPHA_NODES[j - 1], -_NEG_LOG_RATIO_NODES[j - 1] - target
    x, gap = _LOG_ALPHA_NODES[j], -_NEG_LOG_RATIO_NODES[j] - target
    step = gap * (x - x_prev) / (gap - gap_prev)
    for _ in range(_MAX_STEPS):
        x_prev, gap_prev = x, gap
        x -= step
        alpha = math.exp(x)
        q50, q95_alpha = sc.gammaincinv(alpha, _PROBS).tolist()
        gap = math.log(q95_alpha / q50) - target
        if gap == gap_prev:
            break
        step = gap * (x - x_prev) / (gap - gap_prev)
        if abs(step) <= _XTOL:
            break
    beta = q50 / median
    p50, p95 = sc.gammainc(alpha, [beta * median, beta * q95]).tolist()
    if abs(p50 - 0.5) > 1e-9 or abs(p95 - 0.95) > 1e-9:
        raise ValueError(f"quantile inversion failed for ({median}, {q95})")
    return alpha, beta


def _cdf_index(x_hi, x_lo):
    """(u, i_hi, i_lo): the distinct values u of (x_hi)+ and (x_lo)+ together,
    with u[i_hi] == (x_hi)+ and u[i_lo] == (x_lo)+ elementwise.  Every Gamma
    CDF of the per-case terms is evaluated once per distinct argument this way
    (cases on integer days share few), the same float as an elementwise call."""
    x_hi = np.maximum(np.asarray(x_hi, dtype=float), 0.0)
    x_lo = np.maximum(np.asarray(x_lo, dtype=float), 0.0)
    u, inv = np.unique(np.concatenate([x_hi.ravel(), x_lo.ravel()]), return_inverse=True)
    return u, inv[:x_hi.size].reshape(x_hi.shape), inv[x_hi.size:].reshape(x_lo.shape)


def _gamma_cdf_diff(alpha: float, rate: float, index):
    """H_{alpha,rate}(x_hi) - H_{alpha,rate}(x_lo), elementwise, x_hi >= x_lo,
    for index = _cdf_index(x_hi, x_lo).

    Uses the upper tail when H(x_lo) > 1/2, avoiding cancellation of
    nearly-equal CDF values.
    """
    u, i_hi, i_lo = index
    z = rate * u
    p, q = sc.gammainc(alpha, z), sc.gammaincc(alpha, z)
    p_lo = p[i_lo]
    upper = q[i_lo] - q[i_hi]
    lower = p[i_hi] - p_lo
    return np.where(p_lo > 0.5, upper, lower)


# ---------------------------------------------------------------------------
# Growth-weighted onset integral and selection probability
# ---------------------------------------------------------------------------

def gamma_exp_integral(b: float, e: float, s: float, theta: ParamTheta) -> float:
    """Exact value of  integral_b^{min(s,e)} exp(r t) h_{alpha,beta}(s - t) dt
    at theta's r, alpha and beta.

    h is the Gamma(alpha, beta) density.  Closed form:
    (beta/(beta+r))^alpha * exp(r s) * [H_{a,b+r}(s-b) - H_{a,b+r}((s-e)_+)],
    valid for r > -beta; the r = 0 case is the plain CDF difference.
    """
    r, alpha, beta = theta.r, theta.alpha, theta.beta
    if not r > -beta:
        raise ValueError(f"need r > -beta, got r={r}, beta={beta}")
    upper = min(s, e)
    if upper <= b:
        return 0.0
    rate = beta + r
    diff = float(_gamma_cdf_diff(alpha, rate, _cdf_index(s - b, s - e)))
    return (beta / rate) ** alpha * math.exp(r * s) * max(diff, 0.0)


def selection_prob_total(pi: float, lambda_w: float, lambda_v: float,
                         kappa: float, nu: float, r: float) -> float:
    """Closed-form approximation to the total selection probability P(D),
    valid for r >> 1/L, L = QUARANTINE_DAY:
    nu * kappa * exp(rL) / r^2 * [(1-pi) lambda_W + pi lambda_V (1 - 2/(rL))].
    """
    if not r > 0:
        raise ValueError(f"approximation requires r > 0, got {r}")
    L = float(QUARANTINE_DAY)
    return nu * kappa * math.exp(r * L) / r ** 2 * (
        (1 - pi) * lambda_w + pi * lambda_v * (1 - 2 / (r * L)))


# ---------------------------------------------------------------------------
# Per-case log terms (vectorized internals)
# ---------------------------------------------------------------------------

def case_arrays(cases: Sequence[CaseRecord]):
    """Split CaseRecords into (B, E, S, resident) numpy arrays."""
    b = np.array([c.B for c in cases], dtype=float)
    e = np.array([c.E for c in cases], dtype=float)
    s = np.array([c.S for c in cases], dtype=float)
    resident = np.array([c.is_resident for c in cases], dtype=bool)
    return b, e, s, resident


def _cond_index(b, e, s):
    """The parameter-free arrays of :func:`cond_log_terms`: the CDF index of
    (s - b, s - e); the stack [s, e], which one product with r turns into
    r s and r e; the distinct values of b - e and each row's place among
    them, as r (b - e) = -r (e - b) enters only log1p(-exp(.)), which is
    evaluated once per distinct stay length; and log(e - b), the r = 0
    normalizer."""
    b, e, s = (np.asarray(x, float) for x in (b, e, s))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_width = np.log(e - b)
    neg_widths, width_of = np.unique(b - e, return_inverse=True)
    return _cdf_index(s - b, s - e), np.stack([s, e]), neg_widths, width_of, log_width


def cond_log_terms(b, e, s, r: float, alpha: float, beta: float,
                   index=None) -> np.ndarray:
    """Log-likelihood terms of S | (B, E), case in the selection set.

    For r > 0 the per-case density of S given (B, E, selection) is

        r (beta/(beta+r))^alpha e^{rS} [H_{a,b+r}(S-B) - H_{a,b+r}((S-E)_+)]
        / (e^{rE} - e^{rB});

    the r = 0 limit replaces growth weighting by Lebesgue measure on (B, E).
    Invalid cases produce -inf entries (no exception at this level).
    index is _cond_index(b, e, s), built here when not given; with it, b, e
    and s are not read.
    """
    onset, rows, neg_widths, width_of, log_width = (_cond_index(b, e, s) if index is None
                                                    else index)
    growth = abs(r) >= R_SWITCH
    rate = beta + r if growth else beta
    with np.errstate(divide="ignore", invalid="ignore"):
        log_diff = np.log(np.maximum(_gamma_cdf_diff(alpha, rate, onset), 0.0))
        if not growth:
            return log_diff - log_width
        r_s, r_e = r * rows
        # log(e^{rE} - e^{rB}) = rE + log(1 - e^{-r(E-B)}), stable for r(E-B) small
        log_span = r_e + np.log1p(-np.exp(r * neg_widths))[width_of]
        return (math.log(r) + alpha * (math.log(beta) - math.log(rate))
                + r_s + log_diff - log_span)


def _log_visitor_weight(rho: float, L: float) -> float:
    """log(rho / L), the visitors' weight: -inf at rho = 0, and
    log(rho) - log(L) only where a subnormal rho makes the quotient underflow."""
    if rho / L > 0:
        return math.log(rho / L)
    return math.log(rho) - math.log(L) if rho > 0 else -math.inf


def _uncond_index(b, e, s, resident):
    """The parameter-free arrays of :func:`uncond_log_terms`: the CDF index
    of (s - b, s - e), s - L and the resident flags."""
    b, e, s = (np.asarray(x, float) for x in (b, e, s))
    return _cdf_index(s - b, s - e), s - float(QUARANTINE_DAY), np.asarray(resident, bool)


def uncond_log_terms(b, e, s, resident, rho: float, r: float,
                     alpha: float, beta: float, index=None) -> np.ndarray:
    """Log-likelihood terms of (B, E, S) jointly, selection-normalized.

    Requires r > 0 (the closed-form selection normalizer is the r >> 1/L
    approximation, L = QUARANTINE_DAY).  Residents weigh 1, visitors rho/L, and
    the shared normalizer is 1 + rho (1 - 2/(rL)).  A case with zero density
    gets a -inf term; with rho = 0 that is every visitor.  Raises
    ValueError if the normalizer is not positive (parameters outside the
    valid region).
    index is _uncond_index(b, e, s, resident), built here when not given;
    with it, b, e, s and resident are not read.
    """
    L = float(QUARANTINE_DAY)
    if not r > 0:
        raise ValueError(f"unconditional likelihood needs r > 0, got {r}")
    if rho < 0:
        raise ValueError(f"need rho >= 0, got {rho}")
    denom = 1.0 + rho * (1.0 - 2.0 / (r * L))
    if not denom > 0:
        raise ValueError(f"travel-mix normalizer 1 + rho(1 - 2/(rL)) = {denom:.3g} <= 0")
    onset, s_minus_l, resident = (_uncond_index(b, e, s, resident) if index is None
                                  else index)
    rate = beta + r
    const = 2.0 * math.log(r) + alpha * (math.log(beta) - math.log(rate))
    log_denom = math.log(denom)
    # each row's constant, (const + log weight) - log denom, in that order;
    # a resident's weight is 1, and its log 0.0 is added like a visitor's
    per_row = np.where(resident, (const + 0.0) - log_denom,
                       (const + _log_visitor_weight(rho, L)) - log_denom)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_diff = np.log(np.maximum(_gamma_cdf_diff(alpha, rate, onset), 0.0))
        return per_row + r * s_minus_l + log_diff


def _trunc_normalizer(index, r: float, alpha: float, beta: float):
    """Difference Z_r(x_hi) - Z_r(x_lo) of the truncation normalizer, for
    index = _cdf_index(x_hi, x_lo) with x_hi, x_lo >= 0.

    Z_r(x) = r * int_0^x e^{-r u} H_{alpha,beta}(u) du
           = (beta/(beta+r))^alpha H_{a,b+r}(x) - e^{-rx} H_{a,b}(x)   (r != 0),
    and the r = 0 branch drops the leading r:
    Z_0(x) = int_0^x H(u) du = x H_{a,b}(x) - (alpha/beta) H_{a+1,b}(x).
    Computed with the tail-difference trick to dodge cancellation when both
    arguments sit deep in the Gamma upper tail (M far beyond every stay).
    """
    u, i_hi, i_lo = index
    h = sc.gammainc(alpha, beta * u)
    if abs(r) < R_SWITCH:
        x_h = u * h  # x H(x) at each distinct argument
        corr = alpha / beta * _gamma_cdf_diff(alpha + 1, beta, index)
        return (x_h[i_hi] - x_h[i_lo]) - corr
    rate = beta + r
    part1 = (beta / rate) ** alpha * _gamma_cdf_diff(alpha, rate, index)
    e_h = np.exp(-r * u) * h  # e^{-rx} H(x) at each distinct argument
    return part1 + (e_h[i_lo] - e_h[i_hi])


def _trunc_index(b, e, s, M: float):
    """The parameter-free arrays of :func:`trunc_log_terms`: the CDF indexes
    of (s - b, s - e) and of (M - b, M - e), and s - M."""
    b, e, s = (np.asarray(x, float) for x in (b, e, s))
    return _cdf_index(s - b, s - e), _cdf_index(M - b, M - e), s - M


def trunc_log_terms(b, e, s, r: float, alpha: float, beta: float, M: float,
                    index=None) -> np.ndarray:
    """Log-likelihood terms of S | (B, E), conditioned on S <= M as well.

    The numerator matches :func:`cond_log_terms`; the normalizer integrates
    onset mass before M over infection times in the stay, i.e.
    Z_r(M - B) - Z_r((M - E)_+) (see :func:`_trunc_normalizer`).  A case
    whose normalizer is not positive (it underflows to 0 far in the Gamma
    lower tail, where the numerator may not) gets NaN, never +inf.  index is
    _trunc_index(b, e, s, M), built here when not given; with it, b, e, s
    and M are not read.
    """
    onset, trunc, s_minus_m = _trunc_index(b, e, s, M) if index is None else index
    growth = abs(r) >= R_SWITCH
    rate = beta + r if growth else beta
    with np.errstate(divide="ignore", invalid="ignore"):
        z = _trunc_normalizer(trunc, r, alpha, beta)
        log_z = np.log(np.where(z > 0, z, np.nan))
        log_diff = np.log(np.maximum(_gamma_cdf_diff(alpha, rate, onset), 0.0))
        if not growth:
            return log_diff - log_z
        return (math.log(r) + alpha * (math.log(beta) - math.log(rate))
                + r * s_minus_m + log_diff - log_z)


def _terms(kind: str, rows: tuple, index, inverse: np.ndarray, rho: float | None,
           r: float, alpha: float, beta: float, floor: float = -math.inf) -> np.ndarray:
    """The terms of kind at (rho, r, alpha, beta) on the distinct rows
    (b, e, s, resident, M) with their kernel index, floored at floor and
    gathered back to case order by inverse.  The kernel is looked up by its
    module name at each call, so a wrapper set on the module (the bench's
    tracer) sees every call."""
    b, e, s, resident, M = rows
    if kind == "cond":
        lt = cond_log_terms(b, e, s, r, alpha, beta, index)
    elif kind == "uncond":
        lt = uncond_log_terms(b, e, s, resident, rho, r, alpha, beta, index)
    else:
        lt = trunc_log_terms(b, e, s, r, alpha, beta, M, index)
    # fmax reads NaN as the floor and keeps every value above it: one ufunc call
    return np.fmax(lt, floor)[inverse]


def case_terms(cases: Sequence[CaseRecord], kind: str, M: float | None = None):
    """Per-case log terms of the cases under likelihood kind "cond", "uncond"
    or "cond_trunc" (truncated at M, a finite number; a case with S > M
    raises LikelihoodError).  The other two kinds take no M: ValueError if
    one is given.

    The cases are converted and reduced to their distinct (B, E, S,
    resident) rows by timeline's distinct_rows, here, and everything of the
    kind's kernel that does not depend on the parameters is built once for
    those rows: the Gamma CDF arguments' index, and s - L, s - M, e - b or
    the resident flags as the kernel reads them (its index argument).
    Returns a function of (rho, r, alpha, beta) giving
    :func:`cond_log_terms`, :func:`uncond_log_terms` or
    :func:`trunc_log_terms` floored at floor (default -inf, which reads NaN
    as -inf; a NaN term is the floor): each term is evaluated once per
    distinct row and gathered back to case order, so a caller sums the
    cases in case order.  The terms are those of the kernels on the full
    case arrays, bit for bit (every step elementwise).  The function is a
    partial of a module-level function bound to the distinct rows, their
    index and the gather index, so it pickles as those arrays.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {tuple(KINDS)}, got {kind!r}")
    if kind == "cond_trunc":
        if M is None:
            raise ValueError("cond_trunc requires the truncation day M")
        check_finite({"M": M})
        late = next((c for c in cases if c.S > M), None)
        if late is not None:
            raise LikelihoodError(
                f"truncated likelihood: case {late.case_id} has S={late.S} > M={M}")
    elif M is not None:
        raise ValueError(f"only cond_trunc reads the truncation day M, got M={M} for {kind}")
    columns = case_arrays(cases)
    first, inverse = distinct_rows(*columns[::-1])  # resident, S, E, B
    b, e, s, resident = (col[first] for col in columns)
    if kind == "cond":
        index = _cond_index(b, e, s)
    elif kind == "uncond":
        index = _uncond_index(b, e, s, resident)
    else:
        index = _trunc_index(b, e, s, M)
    return functools.partial(_terms, kind, (b, e, s, resident, M), index, inverse)


# ---------------------------------------------------------------------------
# Case-list log-likelihood (strict: bad cases raise)
# ---------------------------------------------------------------------------

def log_lik(cases: Sequence[CaseRecord], kind: str, theta: ParamTheta,
            M: float | None = None) -> float:
    """Sum of the case_terms of kind over a nonempty case list at theta
    (truncated at M for "cond_trunc"); LikelihoodError naming the first case
    whose term is not finite.

    theta has checked its own fields.  ValueError naming rho when "uncond"
    has none, or M when it is not a finite number (its terms would blame the
    first case).  The conditional kinds need r >= 0.
    """
    check_finite({"rho": theta.rho, "M": M},
                 optional=("M",) if kind == "uncond" else ("rho", "M"))
    if kind != "uncond" and theta.r < 0:
        raise ValueError(f"need r >= 0, got {theta.r}")
    if not cases:
        raise ValueError("no cases")
    terms = case_terms(cases, kind, M)(theta.rho, theta.r, theta.alpha, theta.beta)
    bad = np.flatnonzero(~np.isfinite(terms))
    if bad.size:
        c = cases[int(bad[0])]
        raise LikelihoodError(f"{KINDS[kind]}: case {c.case_id} (B={c.B}, E={c.E}, "
                              f"S={c.S}) has non-positive likelihood")
    return float(terms.sum())


# ---------------------------------------------------------------------------
# Marginal densities among exported residents, and the bias correction
# ---------------------------------------------------------------------------

def marginal_s_density(s, theta: ParamTheta):
    """Unnormalized onset-time density among exported residents at theta's
    r, alpha and beta, L = QUARANTINE_DAY.

    exp(r s) { (L - s)(1 - H_{a,b+r}((s-L)_+)) + a/(b+r) (1 - H_{a+1,b+r}((s-L)_+)) }.

    For s <= L this reduces to exp(r s) (L + alpha/(beta+r) - s).  The shape
    is a large-(beta+r)L approximation: accurate on s >= L/2 and degrading
    when L <= 4(alpha+5)/(beta+r), in which situation a warning is issued.
    """
    r, alpha, beta = theta.r, theta.alpha, theta.beta
    rate = beta + r
    if not rate > 0:
        raise ValueError(f"need beta + r > 0, got {rate}")
    L = float(QUARANTINE_DAY)
    if L <= 4.0 * (alpha + 5.0) / rate:
        warnings.warn("marginal_s_density: approximation degrades for "
                      f"L = {L} <= 4(alpha+5)/(beta+r) = {4 * (alpha + 5) / rate:.3g}",
                      RuntimeWarning, stacklevel=2)
    s_arr = np.asarray(s, dtype=float)
    x = np.maximum(s_arr - L, 0.0)
    val = np.exp(r * s_arr) * ((L - s_arr) * sc.gammaincc(alpha, rate * x)
                               + alpha / rate * sc.gammaincc(alpha + 1, rate * x))
    val = np.clip(val, 0.0, None)
    return float(val) if np.isscalar(s) or s_arr.ndim == 0 else val


def growth_bias_correction(alpha: float, beta: float, r_ref: float, c: float) -> float:
    """Additive downward bias of a naive log-linear fit to onset counts.

    A log-linear regression of onset incidence over the last c days before
    the quarantine estimates roughly r - 1/(alpha/(beta + r) + c/2); this
    returns that deficit evaluated at a reference rate r_ref.
    """
    if not c > 0:
        raise ValueError(f"need window c > 0, got {c}")
    if not beta + r_ref > 0:
        raise ValueError(f"need beta + r_ref > 0, got {beta + r_ref}")
    if not alpha > 0:
        raise ValueError(f"need alpha > 0, got {alpha}")
    return 1.0 / (alpha / (beta + r_ref) + c / 2.0)


def growth_bias_fixed_point(alpha: float, beta: float, r_naive: float, c: float) -> float:
    """Self-consistent corrected rate: the solution of r = r_naive + correction(r),
    iterated until successive rates differ by less than 1e-8 (at most 500 steps)."""
    r = r_naive
    for _ in range(500):
        r_next = r_naive + growth_bias_correction(alpha, beta, r, c)
        if abs(r_next - r) < 1e-8:
            return r_next
        r = r_next
    raise RuntimeError(f"fixed-point correction did not converge from r_naive={r_naive}")
