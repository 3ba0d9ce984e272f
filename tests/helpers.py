"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the library's closed forms:
quadrature oracles integrate the raw densities, the lattice oracle loops in
pure Python, and the discrete cohort generator samples the whole-day model
step by step.
"""

from __future__ import annotations

import math
import warnings
from types import SimpleNamespace

import numpy as np
from scipy import integrate, special, stats

from bets.timeline import CaseRecord

L = 54.0
_QUAD = dict(limit=400, epsabs=1e-14, epsrel=1e-12)


# ---------------------------------------------------------------------------
# Continuous-model quadrature oracles
# ---------------------------------------------------------------------------

def gamma_pdf(x, shape, rate):
    return stats.gamma.pdf(x, shape, scale=1.0 / rate)


def gamma_cdf(x, shape, rate):
    return stats.gamma.cdf(x, shape, scale=1.0 / rate)


def quad_growth_onset(b, e, s, r, shape, rate):
    """integral over [b, min(e, s)] of exp(r t) * incubation_pdf(s - t)."""
    hi = min(e, s)
    if hi <= b:
        return 0.0
    with warnings.catch_warnings():
        # the tolerances are deliberately past double precision; the result
        # is still the best available and is cross-checked by the tests
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(lambda t: math.exp(r * t) * gamma_pdf(s - t, shape, rate),
                                b, hi, **_QUAD)
    return val


def quad_cond_term(b, e, s, r, shape, rate):
    """Per-case conditional log-term from raw integrals."""
    num = r * quad_growth_onset(b, e, s, r, shape, rate)
    return math.log(num) - math.log(math.exp(r * e) - math.exp(r * b))


def quad_uncond_term(b, e, s, rho, r, shape, rate, horizon=L):
    """Per-case unconditional log-term from raw integrals."""
    num = quad_growth_onset(b, e, s, r, shape, rate)
    w = 1.0 if b == 0 else rho / horizon
    denom = 1.0 + rho * (1.0 - 2.0 / (r * horizon))
    return math.log(r * r * w * num * math.exp(-r * horizon) / denom)


def quad_trunc_term(b, e, s, r, shape, rate, m):
    """Per-case right-truncated conditional log-term from raw integrals.

    The normalizer is integrated over its difference range in one pass so
    the oracle does not lose digits subtracting two nearly equal tails.
    """
    num = r * quad_growth_onset(b, e, s, r, shape, rate) * math.exp(-r * m)
    lo = max(m - e, 0.0)
    denom, _ = integrate.quad(
        lambda u: r * math.exp(-r * u) * gamma_cdf(u, shape, rate),
        lo, m - b, limit=400, epsabs=1e-16, epsrel=1e-13)
    return math.log(num) - math.log(denom)


def quad_selection_exact(pi, lambda_w, lambda_v, kappa, nu, r, horizon=L):
    """P(D) by direct double integration over the stay law."""

    def growth_mass(b, e):
        return kappa / r * (math.exp(r * min(e, horizon)) - math.exp(r * b))

    resident, _ = integrate.quad(lambda e: lambda_w * growth_mass(0.0, e),
                                 0.0, horizon, **_QUAD)
    visitor, _ = integrate.dblquad(
        lambda e, b: lambda_v * growth_mass(b, e),
        0.0, horizon, lambda b: b, lambda b: horizon)
    return nu * ((1 - pi) * resident + pi * visitor / horizon)


# ---------------------------------------------------------------------------
# Gamma quantile inversion on NumPy arrays
# ---------------------------------------------------------------------------

# likelihood.quantiles_to_shape_rate with its node tables as NumPy arrays,
# np.searchsorted for the bracket and NumPy scalars through the secant.  The
# library runs the same steps on Python floats; both must return the same
# shape and rate, bit for bit, and reject the same pairs with the same text.
_ALPHA_LO, _ALPHA_HI = 1e-3, 1e3
_LOG_ALPHA_LO, _LOG_ALPHA_HI = math.log(_ALPHA_LO), math.log(_ALPHA_HI)
_PROBS = np.array([0.5, 0.95])
_LOG_ALPHA_NODES = np.linspace(_LOG_ALPHA_LO, _LOG_ALPHA_HI, 4001)
_Q_NODES = special.gammaincinv(np.exp(_LOG_ALPHA_NODES)[:, None], _PROBS)
_RATIO_NODES = _Q_NODES[:, 1] / _Q_NODES[:, 0]
_NEG_LOG_RATIO_NODES = -np.log(_RATIO_NODES)
_XTOL = 1e-14
_MAX_STEPS = 30


def array_quantiles_to_shape_rate(median, q95):
    if not (0 < median < q95) or not (math.isfinite(median) and math.isfinite(q95)):
        raise ValueError(f"need 0 < median < q95, got ({median}, {q95})")
    ratio = q95 / median
    if not _RATIO_NODES[0] > ratio > _RATIO_NODES[-1]:
        raise ValueError(f"quantile ratio {ratio:.6g} has no Gamma shape in "
                         f"[{_ALPHA_LO}, {_ALPHA_HI}]")
    target = math.log(ratio)
    j = min(max(int(np.searchsorted(_NEG_LOG_RATIO_NODES, -target)), 1),
            _LOG_ALPHA_NODES.size - 1)
    x_prev, gap_prev = _LOG_ALPHA_NODES[j - 1], -_NEG_LOG_RATIO_NODES[j - 1] - target
    x, gap = _LOG_ALPHA_NODES[j], -_NEG_LOG_RATIO_NODES[j] - target
    step = gap * (x - x_prev) / (gap - gap_prev)
    for _ in range(_MAX_STEPS):
        x_prev, gap_prev = x, gap
        x -= step
        alpha = math.exp(x)
        q50, q95_alpha = special.gammaincinv(alpha, _PROBS)
        gap = math.log(q95_alpha / q50) - target
        if gap == gap_prev:
            break
        step = gap * (x - x_prev) / (gap - gap_prev)
        if abs(step) <= _XTOL:
            break
    beta = q50 / median
    if abs(special.gammainc(alpha, beta * median) - 0.5) > 1e-9 or \
       abs(special.gammainc(alpha, beta * q95) - 0.95) > 1e-9:
        raise ValueError(f"quantile inversion failed for ({median}, {q95})")
    return alpha, beta


# ---------------------------------------------------------------------------
# Discrete-model lattice oracle (pure Python loops)
# ---------------------------------------------------------------------------

def brute_log_lik_discrete(records, state, config):
    """log_lik_discrete by materializing every lattice probability."""
    l = config.l
    K = config.max_incubation

    def g_star(t):
        if config.growth == "single":
            expo = state.r1 * t
        else:
            expo = (state.r1 * t if t <= config.l1
                    else state.r1 * config.l1 + state.r2 * (t - config.l1))
        return state.kappa * math.exp(expo)

    def p_b(b):
        return (1.0 - config.visitor_weight if b == 0
                else config.visitor_weight / config.l)

    def p_e(b, e):
        if config.departure == "uniform":
            return state.lambda_w if b == 0 else state.lambda_v
        row = 0 if b == 0 else 1
        prob = 1.0
        for d in range(b, e):
            haz = state.eta[row, 0] if d < config.l_chunyun else state.eta[row, 1]
            prob *= 1.0 - haz
        haz_e = state.eta[row, 0] if e < config.l_chunyun else state.eta[row, 1]
        return prob * haz_e

    norm = 0.0
    for b in range(l + 1):
        for e in range(b, l + 1):
            for t in range(b, e + 1):
                norm += p_b(b) * p_e(b, e) * g_star(t)

    labels = config.stratum_labels
    key = {"none": lambda c: "all", "gender": lambda c: c.gender,
           "age50": lambda c: c.age_group}[config.strata]
    h = np.atleast_2d(state.h)
    total = 0.0
    for c in records:
        si = labels.index(key(c))
        num = 0.0
        for t in range(c.B_int, c.E_int + 1):
            lag = c.S_int - t
            if 0 <= lag < K:
                num += g_star(t) * h[si, lag]
        num *= p_b(c.B_int) * p_e(c.B_int, c.E_int)
        total += math.log(num) - math.log(norm)
    return total


# ---------------------------------------------------------------------------
# Per-chain reference of the sampler's target
# ---------------------------------------------------------------------------
# The discrete sampler's log-posterior as one chain evaluated it before the
# chains ran as a batch, kept verbatim: one state at a time, the departure
# matrix in full, each case's own sum over the infection days it derives
# from its (B*, E*, S*), the terms summed case by case in case order, and the
# SciPy/NumPy scalar maps.  It reads no index of DiscreteData, only its
# whole-day arrays.  The batch target must equal it bit for bit.

_H_FLOOR = 1e-300


def _ref_logsumexp(x):
    m = x.max()
    at_max = x == m
    rest = np.exp(x - m)
    rest[at_max] = 0.0
    n_max = np.count_nonzero(at_max)
    return float(np.log1p(rest.sum() / n_max) + np.log(n_max) + m)


def _ref_log_curve(r1, r2, config):
    t = np.arange(config.l + 1, dtype=float)
    if config.growth == "single":
        return r1 * t
    return np.where(t <= config.l1, r1 * t, r1 * config.l1 + r2 * (t - config.l1))


def _ref_growth_curve(state, config):
    expo = _ref_log_curve(state.r1, state.r2, config)
    if not state.kappa > 0:
        return None
    log_g = math.log(state.kappa) + expo
    total = _ref_logsumexp(log_g)
    if total > 1e-9:  # sum g* > 1: outside the support
        return None
    return np.exp(log_g)


def _ref_departure_matrix(state, config):
    T = config.l + 1
    if config.departure == "uniform":
        lam_b = np.where(np.arange(T) == 0, state.lambda_w, state.lambda_v)
        return np.repeat(lam_b[:, None], T, axis=1)
    days = np.arange(T)
    pe = np.empty((T, T))
    for cls_idx, rows in ((0, [0]), (1, list(range(1, T)))):
        haz = np.where(days < config.l_chunyun, state.eta[cls_idx, 0], state.eta[cls_idx, 1])
        with np.errstate(divide="ignore"):
            cum = np.concatenate([[0.0], np.cumsum(np.log1p(-haz))])
        log_pe = np.log(haz)[None, :] + cum[None, :-1] - cum[np.array(rows)][:, None]
        pe[rows, :] = np.exp(log_pe)
    return pe


def _ref_stay_weights(config):
    weights = np.full(config.l + 1, config.visitor_weight / config.l)
    weights[0] = 1.0 - config.visitor_weight
    return weights


def _ref_infection_days(b, e, s, config):
    """Each case's candidate infection days S* - k, k = 0..K-1, with the days
    outside its stay or outside 0..L taken as day L + 1."""
    t = s[:, None] - np.arange(config.max_incubation)[None, :]
    inside = (t >= b[:, None]) & (t <= e[:, None]) & (t >= 0) & (t <= config.l)
    return np.where(inside, t, config.l + 1)


def _ref_scalar_terms(data, state, config):
    g = _ref_growth_curve(state, config)
    if g is None:
        return None
    pe = _ref_departure_matrix(state, config)
    T = config.l + 1
    stay = _ref_stay_weights(config)
    upper = np.triu(np.ones((T, T), dtype=bool))
    cum_g = np.concatenate([[0.0], np.cumsum(g)])
    interval_g = cum_g[None, 1:] - cum_g[:T, None]
    norm = float((stay[:, None] * pe * interval_g * upper).sum())
    if not norm > 0:
        return None
    G = np.append(g, 0.0)[_ref_infection_days(data.b, data.e, data.s, config)]
    w = stay[data.b] * pe[data.b, data.e]
    strata = [data.stratum == s for s in range(config.n_strata)]
    return [(G[cases], w[cases]) for cases in strata], math.log(norm)


def _ref_log_num(G, w, h):
    num = w * (G * h).sum(axis=1)
    with np.errstate(divide="ignore"):
        return np.log(num)


def _ref_h_terms(data, log_nums, log_norm):
    log_num = np.empty(len(data))
    for s, values in enumerate(log_nums):
        log_num[data.stratum == s] = values
    if (log_num == -math.inf).any():
        return -math.inf
    return float(log_num.sum() - len(data) * log_norm)


def _ref_log_prior_h(h_star, mu, h0):
    h = np.maximum(np.asarray(h_star, dtype=float), _H_FLOOR)
    log_h = np.log(h)
    tilt = float(((mu * h0 - 1.0) * log_h).sum())
    curv = 2.0 * log_h[1:-1] - log_h[:-2] - log_h[2:]
    return tilt + float(np.minimum(curv, 0.0).sum())


def _ref_pmf(logits):
    y = np.concatenate([logits, [0.0]])
    return np.exp(y - _ref_logsumexp(y))


def _ref_scalar_maps(config):
    """(name, value, log-Jacobian) of each sampled scalar, in u order."""
    def box(name, scale=1):
        return (name, lambda v: float(special.expit(v)) / scale,
                lambda v: -float(np.logaddexp(0.0, v)) - float(np.logaddexp(0.0, -v)))
    maps = [("r1", math.exp, lambda v: v)]
    if config.growth == "two_stage":
        maps.append(("r2", float, None))
    maps.append(box("kappa"))
    if config.departure == "uniform":
        maps += [box("lambda_w", config.l), box("lambda_v", config.l)]
    else:
        maps += [box(name) for name in ("eta_w1", "eta_w2", "eta_v1", "eta_v2")]
    return maps


def reference_target(data, config):
    """The per-chain log-posterior on one point u (1-D): target(u, parts=None,
    group=None) -> (value, parts), parts None when the value is -inf; data
    None gives the bare prior."""
    from bets.bayes import DiscreteConfig, discretized_base_pmf, log_prior_rest

    h0 = discretized_base_pmf(DiscreteConfig.max_incubation)
    maps = _ref_scalar_maps(config)
    n_scalars, h_block = len(maps), config.max_incubation - 1
    n_strata = config.n_strata
    h_slices = [slice(n_scalars + s * h_block, n_scalars + (s + 1) * h_block)
                for s in range(n_strata)]

    def scalar_state(u):
        values = {name: value(x) for (name, value, _), x in zip(maps, u)}
        eta = [values.pop(name) for name in ("eta_w1", "eta_w2", "eta_v1", "eta_v2")
               if name in values]
        fields = dict(r2=None, lambda_w=None, lambda_v=None, eta=None)
        fields.update(values)
        if eta:
            fields["eta"] = np.reshape(eta, (2, 2))
        return SimpleNamespace(**fields)

    def scalar_log_jacobian(u):
        return sum(jac(x) for (_, _, jac), x in zip(maps, u) if jac is not None)

    def log_post(u, parts=None, group=None):
        new_scalars = parts is None or group == 0
        scalar, pmfs, terms, log_nums = parts or (None, [None] * n_strata, None,
                                                  [None] * n_strata)
        pmfs, log_nums = list(pmfs), list(log_nums)
        moved = range(n_strata) if parts is None else range(group - 1, group) if group else ()
        for s in moved:
            h = _ref_pmf(u[h_slices[s]])
            pmfs[s] = h, np.log(np.maximum(h, _H_FLOOR)), _ref_log_prior_h(h, config.mu, h0)
        if new_scalars:
            scalar = scalar_state(u), scalar_log_jacobian(u)
        state, total = scalar
        total += float(np.concatenate([log_h for _, log_h, _ in pmfs]).sum())
        total += log_prior_rest(state, config)
        if not math.isfinite(total):
            return -math.inf, None
        for _, _, log_prior in pmfs:
            total += log_prior
        if data is not None:
            if new_scalars:
                terms = _ref_scalar_terms(data, state, config)
                if terms is None:
                    return -math.inf, None
            for s in range(n_strata) if new_scalars else moved:
                log_nums[s] = _ref_log_num(*terms[0][s], pmfs[s][0])
            total += _ref_h_terms(data, log_nums, terms[1])
        if not math.isfinite(total):
            return -math.inf, None
        return total, (scalar, pmfs, terms, log_nums)

    return log_post


# ---------------------------------------------------------------------------
# Synthetic-data generators
# ---------------------------------------------------------------------------

def discretized_gamma_pmf(shape=1.86, rate=0.33, K=30):
    k = np.arange(K + 1)
    cell = special.gammainc(shape, rate * k[1:]) - special.gammainc(shape, rate * k[:-1])
    return cell / cell.sum()


def discrete_cohort(n, rng, r1=0.14, lam=1.0 / 70, shape=1.86, rate=0.33,
                    horizon=54, K=30, curve_mass=0.9):
    """Sample whole-day case records from the discrete-day model itself.

    Returns (records, true incubation pmf).  The uniform-hazard departure
    model and a single exponential curve are used; continuous fields carry
    arbitrary in-cell values (only the integer days matter downstream).
    """
    h = discretized_gamma_pmf(shape, rate, K)
    g = np.exp(r1 * np.arange(horizon + 1))
    g *= curve_mass / g.sum()
    pb = np.full(horizon + 1, 0.5 / horizon)
    pb[0] = 0.5
    recs = []
    while len(recs) < n:
        b = int(rng.choice(horizon + 1, p=pb))
        u = rng.random()
        if u >= lam * (horizon - b + 1):
            continue
        e = b + int(u / lam)
        gm = g[b:e + 1]
        tot = gm.sum()
        if rng.random() >= tot:
            continue
        t = b + int(rng.choice(e - b + 1, p=gm / tot))
        s = t + int(rng.choice(K, p=h))
        recs.append(CaseRecord(case_id=f"d{len(recs)}", B_int=b, E_int=e,
                               S_int=s, B=float(b), E=e + 0.5, S=s + 0.25))
    return recs, h


def random_discrete_state(rng, config):
    """A random in-support NonparamState for the given config."""
    from bets.bayes import NonparamState

    K = config.max_incubation
    h = rng.dirichlet(np.full(K, 0.6), size=config.n_strata)
    h = np.maximum(h, 1e-12)
    h /= h.sum(axis=1, keepdims=True)
    r1 = rng.uniform(0.01, 0.2)
    r2 = rng.normal(0.0, 0.1) if config.growth == "two_stage" else None
    t = np.arange(config.l + 1, dtype=float)
    expo = (r1 * t if config.growth == "single"
            else np.where(t <= config.l1, r1 * t,
                          r1 * config.l1 + r2 * (t - config.l1)))
    cap = 1.0 / np.exp(expo).sum()
    kappa = rng.uniform(0.1, 0.9) * cap
    kwargs = dict(h=h, r1=r1, r2=r2, kappa=kappa)
    if config.departure == "uniform":
        kwargs["lambda_w"] = rng.uniform(0.2, 0.95) / config.l
        kwargs["lambda_v"] = rng.uniform(0.2, 0.95) / config.l
    else:
        kwargs["eta"] = rng.uniform(0.02, 0.5, size=(2, 2))
    return NonparamState(**kwargs)


def random_selected_records(n, rng, horizon=54, max_lag=12, strata=False):
    """Quick feasible whole-day records (not from any particular law)."""
    recs = []
    genders = ["male", "female"]
    for i in range(n):
        b = int(rng.integers(0, horizon - 10)) if rng.random() > 0.5 else 0
        e = int(rng.integers(b, horizon + 1))
        t = int(rng.integers(b, e + 1))
        s = t + int(rng.integers(0, max_lag))
        recs.append(CaseRecord(
            case_id=f"r{i}", B_int=b, E_int=e, S_int=max(s, b + 1),
            B=float(b), E=e + 0.5, S=max(s, b + 1) + 0.25,
            gender=genders[int(rng.integers(0, 2))] if strata else "unknown",
            age_group="under50" if rng.random() < 0.6 else "over50"))
    return recs
