"""Discrete-day Bayesian nonparametric model of exported cases.

Works on whole-day (B*, E*, S*) records.  The incubation period gets a free
pmf h* on 0..29 days with a Dirichlet-style smoothness prior that also
penalizes departures from log-concavity; the epidemic curve is exponential
with one or two stages; departure from Wuhan is uniform-hazard or geometric
with a rate change at the start of the chunyun travel season.  Inference is
random-walk Metropolis-Hastings on unconstrained transforms, with scale
adaptation during burn-in, Gelman-Rubin convergence checks, and posterior
summaries of interpretable functionals.  The symptomatic fraction and the
growth scale cancel between the per-case terms and the selection normalizer,
so neither is identified and only the constraint sum(g*) <= 1 restrains the
scale.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import ClassVar, Sequence

import numpy as np

from . import timeline
from .timeline import (DEPARTURE, GROWTH, QUARANTINE_DAY, STAGE_BREAK_DAY, STRATA,
                       CaseRecord, check_finite, distinct_rows, parallel_map)

__all__ = [
    "DiscreteConfig",
    "NonparamState",
    "DiscreteData",
    "ChainStore",
    "discretized_base_pmf",
    "log_prior_h",
    "log_prior_rest",
    "log_lik_discrete",
    "rwmh_run",
    "headline_functionals",
    "psrf_functionals",
    "psrf",
    "summarize",
    "posterior_summaries",
]

_H_FLOOR = 1e-300
_LN2 = math.log(2.0)

#: Tail cutoffs (days) of the headline functionals.
TAIL_CUTOFFS = (2, 4, 7, 10, 14, 21)


@dataclass(frozen=True)
class DiscreteConfig:
    """Structural choices of the discrete model.

    The horizon l (the travel-quarantine day), the two-stage growth break l1,
    the start of the chunyun travel season l_chunyun, the 0..29 day
    incubation support (max_incubation = 30) and visitor_weight are fixed
    model constants, not settable fields.  visitor_weight is the nominal
    share of visitors in the exposed population; it multiplies both the
    per-case terms and the normalizer and cancels, so its value is arbitrary
    (only departure-density ratios are identified) -- it is kept explicit so
    the likelihood matches its definition term by term.
    """

    l: ClassVar[int] = QUARANTINE_DAY
    l1: ClassVar[int] = STAGE_BREAK_DAY
    l_chunyun: ClassVar[int] = 41
    max_incubation: ClassVar[int] = 30
    visitor_weight: ClassVar[float] = 0.5
    growth: str = "single"          # one of GROWTH
    departure: str = "uniform"      # one of DEPARTURE
    mu: float = 1.0
    strata: str = "none"            # a key of STRATA

    def __post_init__(self):
        for what, choices in (("growth", GROWTH), ("departure", DEPARTURE), ("strata", STRATA)):
            value = getattr(self, what)
            if value not in choices:
                *rest, last = map(repr, choices)
                raise ValueError(f"{what} must be {', '.join(rest)} or {last}, got {value!r}")
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be a finite number > 0, got {self.mu!r}")

    @property
    def stratum_labels(self) -> tuple[str, ...]:
        return STRATA[self.strata][0]

    @property
    def n_strata(self) -> int:
        return len(self.stratum_labels)


def discretized_base_pmf(max_incubation: int = 30, shape: float = 9.0,
                         rate: float = 1.5) -> np.ndarray:
    """Whole-day discretization of Gamma(shape, rate), renormalized on
    0..max_incubation-1: h0(k) proportional to H(k+1) - H(k).

    The sampler does not call it: its prior reads _H0, this function's
    default table written out, so `bets mcmc` starts without SciPy.  A test
    holds the two equal bit for bit.  scipy.special loads on the first call."""
    from scipy import special as sc
    k = np.arange(max_incubation + 1)
    cell = sc.gammainc(shape, rate * k[1:]) - sc.gammainc(shape, rate * k[:-1])
    return cell / cell.sum()


#: The prior's base pmf h0 on the model's incubation support:
#: discretized_base_pmf(DiscreteConfig.max_incubation), frozen.
_H0 = np.array([
    2.77358192472632e-05, 0.0037752562424836055, 0.03645432042088817, 0.11250519353502564,
    0.18527037484575337, 0.20631451482204355, 0.17623955646259515, 0.12438526609670138,
    0.07603229199638294, 0.04154899629310503, 0.020756106590238584, 0.009634377742379636,
    0.004206360092234194, 0.0017437561619691783, 0.0006914784898863696,
    0.00026385170587365413, 9.734682435387898e-05, 3.4864826176598756e-05,
    1.2161663080887592e-05, 4.143308116326558e-06, 1.3819038398232543e-06,
    4.5213207889403023e-07, 1.4536841797184806e-07, 4.599949587968752e-08,
    1.4344737842216314e-08, 4.413645449183217e-09, 1.3412739807899197e-09,
    4.029514499906304e-10, 1.1977330238894554e-10, 3.525002512156757e-11,
])


@dataclass(eq=False)
class NonparamState:
    """One point of the discrete model's parameter space.

    h is (n_strata, max_incubation); for the uniform departure model set
    lambda_w/lambda_v, for the geometric model set eta, a (2, 2) array of
    leave hazards indexed [resident/visitor, before/after chunyun].
    """

    h: np.ndarray
    r1: float
    kappa: float
    r2: float | None = None
    lambda_w: float | None = None
    lambda_v: float | None = None
    eta: np.ndarray | None = None

    def __post_init__(self):
        check_finite({"r1": self.r1, "kappa": self.kappa, "r2": self.r2,
                      "lambda_w": self.lambda_w, "lambda_v": self.lambda_v},
                     optional=("r2", "lambda_w", "lambda_v"))
        self.h = np.atleast_2d(np.asarray(self.h, dtype=float))
        if not np.all(self.h >= 0):
            raise ValueError("h must be nonnegative and not NaN")
        bad = np.abs(self.h.sum(axis=1) - 1.0) > 1e-12
        if np.any(bad):
            raise ValueError(f"h rows must sum to 1 (off by {self.h.sum(axis=1)[bad]})")
        if self.eta is not None:
            self.eta = np.asarray(self.eta, dtype=float)
            if self.eta.shape != (2, 2):
                raise ValueError(f"eta must be (2, 2), got {self.eta.shape}")
            if not np.all(np.isfinite(self.eta)):
                raise ValueError(f"eta must hold finite numbers, got {self.eta.tolist()}")


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------

def log_prior_h(h_star, mu: float, h0) -> float:
    """Smoothness prior on the incubation pmf (constants dropped).

    Dirichlet-like tilt sum (mu*h0(k) - 1) log h(k), plus a log-concavity
    penalty: for each interior k, min(0, 2 log h(k) - log h(k-1) - log h(k+1)).
    """
    h = np.maximum(np.asarray(h_star, dtype=float), _H_FLOOR)
    h0 = np.asarray(h0, dtype=float)
    if h.shape != h0.shape:
        raise ValueError(f"h and h0 shapes differ: {h.shape} vs {h0.shape}")
    return float(_log_prior_h(np.log(h), mu * h0 - 1.0))


def _log_prior_h(log_h: np.ndarray, tilt: np.ndarray) -> np.ndarray:
    """log_prior_h over the last axis of log(max(h*, _H_FLOOR)), with the
    tilt weights mu*h0 - 1."""
    curv = 2.0 * log_h[..., 1:-1] - log_h[..., :-2] - log_h[..., 2:]
    return (tilt * log_h).sum(axis=-1) + np.minimum(curv, 0.0).sum(axis=-1)


_R2_LOGNORM = math.log(2.0 * math.sqrt(2.0 * math.pi))  # Normal(0, sd 2) at its mode


def _check_state(state: NonparamState, config: DiscreteConfig) -> None:
    """Raise unless the state sets every scalar the config's models read."""
    if config.growth == "two_stage" and state.r2 is None:
        raise ValueError("two_stage growth needs r2")
    if config.departure == "uniform" and (state.lambda_w is None or state.lambda_v is None):
        raise ValueError("uniform departure needs lambda_w and lambda_v")
    if config.departure == "geometric" and state.eta is None:
        raise ValueError("geometric departure needs eta")


def log_prior_rest(state: NonparamState, config: DiscreteConfig) -> float:
    """Joint log-prior of the scalar parameters; -inf off the boxes.

    r1 ~ Exp(1); r2 ~ Normal(0, sd 2); kappa ~ U(0,1);
    lambda ~ U(0, 1/L); eta entries ~ U(0,1).  Only the scalar fields of
    state are read, so the sampler passes its h*-free _ScalarState.
    """
    _check_state(state, config)
    if state.r1 < 0:
        return -math.inf
    total = -state.r1
    if config.growth == "two_stage":
        total += -0.125 * state.r2 ** 2 - _R2_LOGNORM
    if not 0 < state.kappa < 1:
        return -math.inf
    if config.departure == "uniform":
        for lam in (state.lambda_w, state.lambda_v):
            if not 0 < lam < 1.0 / config.l:
                return -math.inf
            total += math.log(config.l)
    elif np.any(state.eta <= 0) or np.any(state.eta >= 1):
        return -math.inf
    return total


# ---------------------------------------------------------------------------
# Discrete data and likelihood
# ---------------------------------------------------------------------------

def _infection_days(b, e, s):
    """(t, mask): each case's candidate infection days S* - k, k = 0..K-1,
    and which of them fall within its stay and within 0..L."""
    l, K = DiscreteConfig.l, DiscreteConfig.max_incubation
    if np.any((b < 0) | (b > e) | (e > l)):
        raise ValueError("need 0 <= B* <= E* <= L for every case")
    if np.any(s < b):
        raise ValueError("need S* >= B* for every case")
    t = s[:, None] - np.arange(K)[None, :]
    return t, (t >= b[:, None]) & (t <= e[:, None]) & (t >= 0) & (t <= l)


@dataclass(eq=False)
class DiscreteData:
    """Whole-day case arrays plus the gather indices of their likelihood,
    every field built by :meth:`from_records`.

    A case's likelihood term depends only on its (B*, E*, S*, stratum)
    tuple, so it is evaluated once per distinct tuple.  The distinct rows,
    found by :func:`bets.timeline.distinct_rows`, are sorted by stratum,
    then B*, E*, S*: inverse holds each case's row and rows the slice of
    rows of each stratum.  A row's candidate infection days are S* - k
    (k = 0..max_incubation-1) on the epidemic curve on 0..L, the days
    outside the stay or outside 0..L taken as day L + 1, where the curve is
    0.  Rows with the same days share their sum over infection days, so
    each stratum sums each distinct window of days (distinct_rows again,
    over its rows' days) once: products[s] indexes each window's
    g*(t) h*(k) in the flattened (L + 2, K) table of them, and rowmap[s]
    each of the stratum's rows' window.  stay_index[departure] indexes each
    row's P(B*) P(E*|B*) in the flattened stay weights: B* for uniform,
    B* (L + 1) + E* for geometric.  dropped counts, by reason, the records
    from_records left out.  The horizon l and the incubation support
    K = max_incubation are DiscreteConfig's.
    """

    b: np.ndarray
    e: np.ndarray
    s: np.ndarray
    stratum: np.ndarray
    case_ids: list
    labels: tuple[str, ...]
    dropped: dict
    inverse: np.ndarray
    rows: list
    rowmap: list
    products: list
    stay_index: dict

    @classmethod
    def from_records(cls, cases: Sequence[CaseRecord],
                     config: DiscreteConfig) -> "DiscreteData":
        """Data of the records in the config's strata that have a feasible
        infection day (one within max_incubation days before onset, during
        the stay); the others are dropped and counted by reason."""
        labels, key = STRATA[config.strata]
        rows = [(c, labels.index(key(c))) for c in cases if key(c) in labels]
        b, e, s = (np.array([getattr(c, f) for c, _ in rows], dtype=int)
                   for f in ("B_int", "E_int", "S_int"))
        t, mask = _infection_days(b, e, s)
        feasible = mask.any(axis=1)
        dropped = {"outside_strata": len(cases) - len(rows),
                   "no_feasible_infection_day": int((~feasible).sum())}
        if not feasible.any():
            raise ValueError(f"no cases left after dropping {dropped}")
        keep = np.flatnonzero(feasible)
        b, e, s = b[keep], e[keep], s[keep]
        stratum = np.array([st for _, st in rows])[keep]
        first, inverse = distinct_rows(stratum, b, e, s)
        ends = np.searchsorted(stratum[first], np.arange(len(labels) + 1))
        slices = [slice(lo, hi) for lo, hi in zip(ends.tolist(), ends[1:].tolist())]
        t_idx = np.where(mask, t, DiscreteConfig.l + 1)[keep[first]]
        K = DiscreteConfig.max_incubation
        rowmap, products = [], []
        for part in slices:
            window_first, window = distinct_rows(*t_idx[part].T)
            rowmap.append(window)
            products.append(t_idx[part][window_first] * K + np.arange(K))
        b_row, e_row = b[first], e[first]
        return cls(b=b, e=e, s=s, stratum=stratum,
                   case_ids=[rows[i][0].case_id for i in keep], labels=labels,
                   dropped=dropped, inverse=inverse, rows=slices, rowmap=rowmap,
                   products=products,
                   stay_index={"uniform": b_row,
                               "geometric": b_row * (DiscreteConfig.l + 1) + e_row})

    @property
    def n_dropped(self) -> int:
        return sum(self.dropped.values())

    def __len__(self) -> int:
        return len(self.b)


# The likelihood below works on a batch of states at once, one row per state
# (the sampler's chains): every array is C-contiguous with the chain axis
# first, gathers take whole columns (x.take(index, axis=1)), reductions run
# over the contiguous last axis only and products are elementwise, so each
# row is rounded exactly as the same state alone.

def _logsumexp(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) over the last axis, each row rounded exactly as
    scipy.special.logsumexp rounds it: the terms at the maximum are left out
    of the shifted sum and counted back through log(n_max)."""
    m = x.max(axis=-1)
    at_max = x == m[..., None]
    rest = np.where(at_max, 0.0, np.exp(x - m[..., None]))
    n_max = at_max.sum(axis=-1)
    return np.log1p(rest.sum(axis=-1) / n_max) + np.log(n_max) + m


def _log_curve(r1, r2, config: DiscreteConfig) -> np.ndarray:
    """Exponent of the epidemic curve on t = 0..L: r1*t, or r1 up to day l1
    and r2 after it for two-stage growth; one row per entry of r1 and r2."""
    t = np.arange(config.l + 1, dtype=float)
    r1 = np.asarray(r1, dtype=float)[..., None]
    if config.growth == "single":
        return r1 * t
    r2 = np.asarray(r2, dtype=float)[..., None]
    return np.where(t <= config.l1, r1 * t, r1 * config.l1 + r2 * (t - config.l1))


def _departure_matrix(eta: np.ndarray, config: DiscreteConfig) -> np.ndarray:
    """P(E* = e | B* = b) of the geometric departure model on the (b, e)
    grid, b <= e <= L (lower triangle unused), for a (chains, 2, 2) batch of
    leave hazards."""
    T = config.l + 1
    haz = np.where(np.arange(T) < config.l_chunyun, eta[:, :, :1], eta[:, :, 1:])
    cum = np.cumsum(np.log1p(-haz), axis=2)
    cum = np.concatenate([np.zeros(cum.shape[:2] + (1,)), cum], axis=2)
    head = np.log(haz) + cum[:, :, :-1]
    log_pe = np.empty((len(eta), T, T))
    log_pe[:, :1] = head[:, :1] - cum[:, :1, :1]             # residents: B* = 0
    log_pe[:, 1:] = head[:, 1:] - cum[:, 1, 1:T, None]       # visitors: B* >= 1
    return np.exp(log_pe)


#: P(B* = b) for b = 0..L: resident atom and uniform visitor spread.
_STAY_WEIGHTS = np.full(DiscreteConfig.l + 1, DiscreteConfig.visitor_weight / DiscreteConfig.l)
_STAY_WEIGHTS[0] = 1.0 - DiscreteConfig.visitor_weight

#: The b <= e half of the (b, e) grid on 0..L, as 1s among 0s.
_UPPER = np.triu(np.ones((DiscreteConfig.l + 1, DiscreteConfig.l + 1)))


def _scalar_terms(states: Sequence, config: DiscreteConfig, data: DiscreteData) -> tuple:
    """The part of the likelihood that does not involve h*, for a batch of
    states: (ok, curve, w, log P(D)), one row per state.

    curve[c] is g*(t) on t = 0..L followed by a 0 (the day L + 1 that
    stands for infeasible days), w[c, i] = P(B*_i) P(E*_i | B*_i) on
    the distinct rows, and P(D) is the selection normalizer.  ok is False
    for a zero-density state (sum(g*) > 1 or P(D) = 0): its log P(D) is nan,
    so any log-likelihood summed from it is too, and its other entries are
    meaningless.  Call it with floating-point errors ignored.
    """
    n, T = len(states), config.l + 1
    kappa = [s.kappa for s in states]
    log_kappa = np.array([math.log(k) if k > 0 else 0.0 for k in kappa])
    r2 = [s.r2 for s in states] if config.growth == "two_stage" else None
    log_g = log_kappa[:, None] + _log_curve([s.r1 for s in states], r2, config)
    ok = np.greater(kappa, 0) & ~(_logsumexp(log_g) > 1e-9)  # else sum g* > 1
    g = np.exp(log_g)

    # selection normalizer: sum over b <= e of P(b) P(e|b) * cumulative g on [b, e]
    cum_g = np.concatenate([np.zeros((n, 1)), np.cumsum(g, axis=1)], axis=1)
    mass = cum_g[:, None, 1:] - cum_g[:, :T, None]   # [b, e] inclusive mass
    if config.departure == "uniform":
        lam_b = np.where(np.arange(T) == 0, np.array([[s.lambda_w] for s in states]),
                         np.array([[s.lambda_v] for s in states]))
        stay = _STAY_WEIGHTS * lam_b                  # P(b) P(e|b), the same for every e
        mass *= stay[:, :, None]
    else:
        stay = _STAY_WEIGHTS[:, None] * _departure_matrix(np.array([s.eta for s in states]),
                                                          config)
        mass *= stay
    mass *= _UPPER
    norm = mass.reshape(n, -1).sum(axis=1)
    ok &= norm > 0
    log_norm = np.array([math.log(x) if good else math.nan
                         for x, good in zip(norm.tolist(), ok.tolist())])
    w = stay.reshape(n, -1).take(data.stay_index[config.departure], axis=1)
    return ok, np.concatenate([g, np.zeros((n, 1))], axis=1), w, log_norm


def _log_nums(data: DiscreteData, curve: np.ndarray, w: np.ndarray, h: np.ndarray,
              strata, out: np.ndarray) -> None:
    """Write into out[:, rows of s], for each stratum s in strata, log(w *
    sum_k curve(t_k) h_s(k)) on its distinct rows: their cases' log
    numerators, -inf where zero.  Each window's products are taken from the
    table of every curve(t) h_s(k) with data.products[s], summed once, and
    the sums taken to the rows with data.rowmap[s].  Call it with
    floating-point errors ignored."""
    n = len(h)
    for s in strata:
        table = (curve[:, :, None] * h[:, s, None, :]).reshape(n, -1)
        sums = table.take(data.products[s], axis=1).sum(axis=2)
        rows = data.rows[s]
        out[:, rows] = np.log(w[:, rows] * sums.take(data.rowmap[s], axis=1))


def _log_lik(data: DiscreteData, log_num: np.ndarray, log_norm: np.ndarray) -> np.ndarray:
    """Each chain's log-likelihood from its rows' log numerators and its
    log P(D): the cases' terms summed case by case, in case order."""
    return log_num.take(data.inverse, axis=1).sum(axis=1) - len(data) * log_norm


def _check_strata(data: DiscreteData | None, config: DiscreteConfig) -> None:
    """Raise unless data, if any, was built for the config's strata."""
    if data is not None and data.labels != config.stratum_labels:
        raise ValueError(f"data has the strata {data.labels}, but strata={config.strata!r} "
                         f"has {config.stratum_labels}")


def log_lik_discrete(data: DiscreteData, state: NonparamState, config: DiscreteConfig) -> float:
    """Selection-adjusted log-likelihood of whole-day cases.

    Per case: P(B*) P(E*|B*) sum_t g*(t) h*(S*-t), the sum running over
    feasible infection days; divided by the total selection probability
    P(D) = sum over the (b, e, t) lattice of P(b) P(e|b) g*(t).  The
    symptomatic fraction cancels and is omitted; the normalizer does not
    involve h*, so it is shared across strata.  States with sum(g*) > 1
    return -inf (outside the support); a case with zero numerator also
    yields -inf, with a warning naming the case.  This is the sampler's
    batch likelihood with one chain.  data must have the config's strata.
    """
    _check_strata(data, config)
    if state.h.shape != (len(data.labels), config.max_incubation):
        raise ValueError(f"h must be {(len(data.labels), config.max_incubation)}, "
                         f"got {state.h.shape}")
    _check_state(state, config)
    with np.errstate(all="ignore"):
        ok, curve, w, log_norm = _scalar_terms([state], config, data)
        if not ok[0]:
            return -math.inf
        log_num = np.empty_like(w)
        _log_nums(data, curve, w, state.h[None], range(len(data.labels)), log_num)
        val = float(_log_lik(data, log_num, log_norm)[0])
    zero = np.flatnonzero(log_num[0, data.inverse] == -math.inf)
    if zero.size:
        bad = int(zero[0])
        warnings.warn(f"case {data.case_ids[bad]} has zero likelihood "
                      f"(B*={data.b[bad]}, E*={data.e[bad]}, S*={data.s[bad]})",
                      RuntimeWarning, stacklevel=2)
        return -math.inf
    return val


# ---------------------------------------------------------------------------
# Unconstrained parameterization for the sampler
# ---------------------------------------------------------------------------

#: One sampled scalar: its ChainStore name, the maps from its unconstrained
#: coordinate u to its value and back, and the log-Jacobian of the first map
#: (None for the identity).
_Scalar = namedtuple("_Scalar", "name value to_u log_jac")


def _expit(v: float) -> float:
    """scipy.special.expit(v), 1 / (1 + exp(-v)), with the math module and
    rounded the same way: 0 where exp(-v) overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


def _log1p_exp(v: float) -> float:
    """numpy.logaddexp(0.0, v), with the math module and rounded the same way."""
    if v == 0:
        return _LN2
    if v < 0:
        return math.log1p(math.exp(v))
    return v + math.log1p(math.exp(-v))


def _box_scalar(name: str, scale: float = 1) -> _Scalar:
    """A scalar in (0, 1/scale); u is the logit of value * scale."""
    def to_u(x):
        p = min(max(x * scale, 1e-15), 1 - 1e-15)
        return math.log(p / (1 - p))
    return _Scalar(name, lambda v: _expit(v) / scale, to_u,
                   lambda v: -_log1p_exp(v) - _log1p_exp(-v))


#: Store names of the geometric departure hazards, in NonparamState.eta.flat
#: order: [resident, visitor] x [before, after chunyun].
_ETA_NAMES = ("eta_w1", "eta_w2", "eta_v1", "eta_v2")

#: The scalar fields of a NonparamState, without h* and unvalidated: what
#: the sampler's target hands to log_prior_rest and _scalar_terms.
_ScalarState = namedtuple("_ScalarState", "r1 kappa r2 lambda_w lambda_v eta",
                          defaults=(None,) * 4)


def _pmf(logits: np.ndarray) -> np.ndarray:
    """Incubation pmfs over the last axis: a softmax of the free logits and
    a last logit pinned to 0."""
    y = np.concatenate([logits, np.zeros(logits.shape[:-1] + (1,))], axis=-1)
    return np.exp(y - _logsumexp(y)[..., None])


class _Coords:
    """Layout of the unconstrained vector u for a given config: the sampled
    scalars first, then each stratum's incubation logits."""

    def __init__(self, config: DiscreteConfig):
        scalars = [_Scalar("r1", math.exp, lambda x: math.log(max(x, 1e-300)),
                           lambda v: v)]  # d r1 / d log r1 = r1
        if config.growth == "two_stage":
            scalars.append(_Scalar("r2", float, float, None))
        scalars.append(_box_scalar("kappa"))
        if config.departure == "uniform":
            scalars += [_box_scalar("lambda_w", config.l), _box_scalar("lambda_v", config.l)]
        else:
            scalars += [_box_scalar(name) for name in _ETA_NAMES]
        self.scalars = scalars
        self.n_scalars = len(scalars)
        self.K = config.max_incubation
        self.S = config.n_strata
        self.h_block = self.K - 1  # last logit pinned to 0
        self.size = self.n_scalars + self.S * self.h_block
        self.h_slices = [slice(self.n_scalars + s * self.h_block,
                               self.n_scalars + (s + 1) * self.h_block)
                         for s in range(self.S)]

    def h(self, u: np.ndarray) -> np.ndarray:
        """The (..., strata, K) incubation pmfs of points u (..., size): a
        softmax of each stratum's logits."""
        return _pmf(u[..., self.n_scalars:].reshape(u.shape[:-1] + (self.S, self.h_block)))

    def scalar_state(self, u) -> _ScalarState:
        values = {s.name: s.value(x) for s, x in zip(self.scalars, u)}
        eta = [values.pop(name) for name in _ETA_NAMES if name in values]
        return _ScalarState(eta=np.reshape(eta, (2, 2)) if eta else None, **values)

    def scalar_log_jacobian(self, u) -> float:
        """log |d(scalars) / du| of the scalar block, so that the u-space
        target matches the natural prior."""
        return sum(s.log_jac(x) for s, x in zip(self.scalars, u) if s.log_jac is not None)

    def pack(self, state: NonparamState) -> np.ndarray:
        values = dict(vars(state))
        if state.eta is not None:
            values.update(zip(_ETA_NAMES, state.eta.flat))
        u = np.empty(self.size)
        u[:self.n_scalars] = [s.to_u(values[s.name]) for s in self.scalars]
        h = np.maximum(np.atleast_2d(state.h), 1e-15)
        for sl, row in zip(self.h_slices, h):
            y = np.log(row)
            u[sl] = y[:-1] - y[-1]
        return u


@dataclass
class _Parts:
    """A batch of chains' points u (chains, size) and the pieces their
    log-posteriors were summed from, one row per chain: the scalar states
    and log-Jacobians; each stratum's pmf, log pmf and prior; the h*-free
    likelihood terms of _scalar_terms (curve, w, log_norm); and every
    distinct row's log numerator.  A field is None when the target does not
    use it."""

    u: np.ndarray
    states: list | None = None
    log_jac: np.ndarray | None = None
    h: np.ndarray | None = None
    log_h: np.ndarray | None = None
    prior_h: np.ndarray | None = None
    curve: np.ndarray | None = None
    w: np.ndarray | None = None
    log_norm: np.ndarray | None = None
    log_num: np.ndarray | None = None

    def merge(self, other: "_Parts", into: np.ndarray, take: np.ndarray) -> None:
        """Copy other's rows `take` into this batch's rows `into`, in place;
        a field other shares with this batch is left as it is."""
        for name, mine in vars(self).items():
            theirs = getattr(other, name)
            if mine is theirs:
                continue
            if isinstance(mine, list):
                for i, j in zip(into.tolist(), take.tolist()):
                    mine[i] = theirs[j]
            else:
                mine[into] = theirs[take]


def _make_target(coords: _Coords, data: DiscreteData | None, config: DiscreteConfig):
    """The sampler's log-posterior on a batch of points; the bare prior when
    data is None.

    target(u, parts=None, group=None) takes points u (chains, size) and
    returns (values, parts): each chain's log-posterior and the _Parts it
    was summed from.  Given the parts of points that differ from u only in
    proposal group `group` (0 the scalars, 1 + s stratum s's logits), only
    the pieces that read that group are recomputed: a scalar move
    recomputes the scalar states, the curve, the normalizer and every
    stratum's log numerators and keeps the pmfs; a move of stratum s
    recomputes s's pmf piece and log numerators and keeps the rest.  A
    chain's value is -inf where its density is zero, and stays -inf under a
    move that keeps the piece that made it zero.  Each chain's pieces are
    added up in one fixed order, so its value depends neither on what was
    reused nor on the other chains, and log_prior_rest is called once per
    chain.
    """
    tilt = config.mu * _H0 - 1.0

    def pmf_parts(logits):
        h = _pmf(logits)
        log_h = np.log(np.maximum(h, _H_FLOOR))
        return h, log_h, _log_prior_h(log_h, tilt)

    def log_post(u: np.ndarray, parts: _Parts | None = None, group: int | None = None):
        n = len(u)
        new_scalars = parts is None or group == 0
        if parts is None:
            h, log_h, prior_h = pmf_parts(u[:, coords.n_scalars:].reshape(
                n, coords.S, coords.h_block))
            parts = _Parts(u, h=h, log_h=log_h, prior_h=prior_h)
        elif group == 0:
            parts = replace(parts, u=u)
        else:
            s = group - 1
            h, log_h, prior_h = parts.h.copy(), parts.log_h.copy(), parts.prior_h.copy()
            h[:, s], log_h[:, s], prior_h[:, s] = pmf_parts(u[:, coords.h_slices[s]])
            parts = replace(parts, u=u, h=h, log_h=log_h, prior_h=prior_h)
        if new_scalars:
            rows = u[:, :coords.n_scalars].tolist()
            parts.states = [coords.scalar_state(x) for x in rows]
            parts.log_jac = np.array([coords.scalar_log_jacobian(x) for x in rows])
        with np.errstate(all="ignore"):
            # log |d(natural) / du|: the scalars', then each pmf's sum of log h*
            total = parts.log_jac + parts.log_h.reshape(n, -1).sum(axis=1)
            total += [log_prior_rest(state, config) for state in parts.states]
            for s in range(coords.S):
                total += parts.prior_h[:, s]
            if data is not None:
                if new_scalars:
                    ok, parts.curve, parts.w, parts.log_norm = _scalar_terms(
                        parts.states, config, data)
                    parts.log_num = np.empty_like(parts.w)
                    total[~ok] = -math.inf
                else:
                    parts.log_num = parts.log_num.copy()
                _log_nums(data, parts.curve, parts.w, parts.h,
                          range(coords.S) if new_scalars else (group - 1,), parts.log_num)
                total += _log_lik(data, parts.log_num, parts.log_norm)
        total[~np.isfinite(total)] = -math.inf
        return total, parts

    return log_post


# ---------------------------------------------------------------------------
# Random-walk Metropolis-Hastings
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ChainStore:
    """Thinned post-burn-in draws of every chain, plus sampler diagnostics."""

    config: DiscreteConfig
    scalars: dict
    h: np.ndarray                 # (chains, draws, strata, K)
    acceptance: np.ndarray        # (chains, groups), post-burn-in rates
    step_sizes: np.ndarray        # (chains, groups), frozen values
    n_cases: int
    n_dropped: int = 0

    @property
    def group_names(self) -> list[str]:
        """The proposal groups, in the column order of acceptance and step_sizes."""
        return ["scalars"] + [f"h[{lb}]" for lb in self.config.stratum_labels]

    @property
    def n_chains(self) -> int:
        return self.h.shape[0]

    @property
    def n_draws(self) -> int:
        return self.h.shape[1]


def _init_state(coords: _Coords, config: DiscreteConfig, rng: np.random.Generator,
                prior_only: bool) -> np.ndarray:
    """Overdispersed start: h ~ Dirichlet(mu h0) jittered, scalars from priors
    (kappa from its conditional prior given the curve constraint)."""
    c = config
    h = np.empty((coords.S, coords.K))
    for s in range(coords.S):
        draw = rng.dirichlet(np.maximum(c.mu * _H0, 1e-3))
        draw = np.maximum(draw, 1e-8)
        logits = np.log(draw) + 0.3 * rng.standard_normal(coords.K)
        h[s] = np.exp(logits - _logsumexp(logits))
    r1 = rng.exponential(1.0)
    r2 = 2.0 * rng.standard_normal() if c.growth == "two_stage" else None
    if prior_only:
        cap = 1.0
    else:
        cap = math.exp(-_logsumexp(_log_curve(r1, r2, c)))
    kappa = min(max(rng.uniform(0.0, cap), 1e-12), 1 - 1e-12)
    kwargs = dict(h=h, r1=r1, r2=r2, kappa=kappa)
    if c.departure == "uniform":
        kwargs["lambda_w"] = rng.uniform(1e-6, 1 - 1e-6) / c.l
        kwargs["lambda_v"] = rng.uniform(1e-6, 1 - 1e-6) / c.l
    else:
        kwargs["eta"] = rng.uniform(1e-6, 1 - 1e-6, size=(2, 2))
    return coords.pack(NonparamState(**kwargs))


def _find_starts(coords: _Coords, config: DiscreteConfig, target, rngs: list,
                 prior_only: bool, first: int = 0) -> tuple[np.ndarray, _Parts]:
    """Each chain's start and its target value and parts: candidates drawn
    from the chain's own generator until one has finite density, the
    chains still searching evaluated as one batch.  The error names a
    chain by its run-wide index, first + its index in rngs."""
    searching = np.arange(len(rngs))
    lp = parts = None
    for _ in range(1000):
        cand = np.array([_init_state(coords, config, rngs[c], prior_only) for c in searching])
        lp_cand, found = target(cand)
        ok = np.isfinite(lp_cand)
        if parts is None:
            lp, parts = lp_cand, found
        else:
            lp[searching[ok]] = lp_cand[ok]
            parts.merge(found, searching[ok], np.flatnonzero(ok))
        searching = searching[~ok]
        if not searching.size:
            return lp, parts
    raise RuntimeError(f"chain {first + searching[0]}: could not find a valid initial state")


#: Incubation logits moved together in one h* proposal.
_H_BLOCK_SIZE = 5
#: Burn-in steps between two step-size adaptations.
_ADAPT_WINDOW = 100


def _run_chains(coords: _Coords, target, steps: int, burn_in: int, thin: int, rngs: list,
                lp: np.ndarray, parts: _Parts, step0: np.ndarray):
    """Advance a batch of chains in lockstep from their starts' target
    values lp and parts, both updated in place (parts.u too); returns (draws
    of u (chains, draws, size), post-burn acceptance (chains, groups), final
    step sizes (chains, groups)).

    Each step proposes every group once, in order, for all chains at once.
    Each chain draws from its own generator, in the order it would alone:
    the block of logits (h* groups), the normal step, then, after the batch
    target has valued every proposal, the uniform that accepts or rejects
    it; so no chain's draws depend on another's.  The target recomputes
    only what reads the moved group, and the accepted chains take the
    proposal's rows of the parts.  After every _ADAPT_WINDOW-th burn-in
    step, each chain's step size of each group adapts to its acceptance
    over those steps: x0.7 below 20%, x1.4 above 40%, kept within [1e-6,
    50].  A partial last window does not adapt, and the step sizes are
    frozen after burn-in.
    """
    if not np.isfinite(lp).all():
        raise RuntimeError("initial state has zero posterior density")
    groups = [slice(0, coords.n_scalars)] + coords.h_slices
    take = min(_H_BLOCK_SIZE, coords.h_block)
    chain = np.arange(len(rngs))[:, None]
    step = np.tile(np.asarray(step0, dtype=float), (len(rngs), 1))
    draws = np.empty((len(rngs), len(range(burn_in, steps, thin)), coords.size))
    acc_window = np.zeros(step.shape)
    acc_post = np.zeros(step.shape)
    for it in range(steps):
        in_burn = it < burn_in
        for gi, sl in enumerate(groups):
            prop = parts.u.copy()
            if gi == 0:
                prop[:, sl] += step[:, :1] * [rng.standard_normal(coords.n_scalars)
                                              for rng in rngs]
            else:
                sel = [sl.start + rng.choice(coords.h_block, size=take, replace=False)
                       for rng in rngs]
                prop[chain, sel] += step[:, gi:gi + 1] * [rng.standard_normal(take)
                                                          for rng in rngs]
            lp_prop, moved = target(prop, parts, gi)
            accept = np.flatnonzero([math.log(max(rng.random(), 1e-300)) < gain
                                     for rng, gain in zip(rngs, (lp_prop - lp).tolist())])
            if accept.size:
                lp[accept] = lp_prop[accept]
                parts.merge(moved, accept, accept)
                (acc_window if in_burn else acc_post)[accept, gi] += 1
        if in_burn and (it + 1) % _ADAPT_WINDOW == 0:
            rate = acc_window / _ADAPT_WINDOW
            step[rate < 0.2] = np.maximum(step[rate < 0.2] * 0.7, 1e-6)
            step[rate > 0.4] = np.minimum(step[rate > 0.4] * 1.4, 50.0)
            acc_window[:] = 0.0
        if it >= burn_in and (it - burn_in) % thin == 0:
            draws[:, (it - burn_in) // thin] = parts.u
    return draws, acc_post / (steps - burn_in), step


def _sample_group(data: DiscreteData | None, config: DiscreteConfig, rngs: list,
                  first: int, steps: int, thin: int):
    """_run_chains' (draws, rates, step) of the chains first, first + 1, ...
    that draw from rngs, from their start search on; the bare prior when
    data is None.  One task of rwmh_run, in this process or a worker."""
    coords = _Coords(config)
    target = _make_target(coords, data, config)
    lp, parts = _find_starts(coords, config, target, rngs, data is None, first)
    base_step = np.array([0.1] + [0.15] * coords.S)
    return _run_chains(coords, target, steps, steps // 2, thin, rngs, lp, parts, base_step)


def rwmh_run(data: DiscreteData | None, config: DiscreteConfig, steps: int = 80_000,
             chains: int = 8, seed: int = 0, thin: int = 10) -> ChainStore:
    """Sample the discrete model by random-walk Metropolis-Hastings.

    Proposals are Gaussian on the unconstrained coordinates: scalars move
    jointly, each stratum's incubation logits move in random blocks of 5.
    Step scales adapt during the burn-in half toward 20-40% acceptance and
    are frozen afterwards; draws are recorded post-burn-in every `thin`
    steps.  data is the cohort as DiscreteData.from_records builds it for
    the config; with data=None the likelihood (and its curve-mass
    constraint) is dropped, leaving the bare prior as the target.

    The chains run in lockstep as one batch: every proposal group is
    evaluated for all chains at once, each stratum's sums over infection
    days once per distinct window of days.  Each chain draws from its own
    generator, spawned from seed, so chain i's draws are the same whatever
    the number of chains, and each start is evaluated once, in the start
    search.  The chains are split into min(timeline.usable_cpus(), chains)
    contiguous groups, each run as one batch (timeline.parallel_map): the
    first in this process, each other one in its own worker process.  A
    chain's draws do not depend on the rest of its batch, so the store is
    the same array for array at any number of CPUs.

    Raises ValueError if data's strata are not the config's, and
    RuntimeError if every chain's post-burn-in acceptance collapses below
    1% (after adaptation), or if an initial state cannot be found (naming
    the first such chain).
    """
    for name, value in (("steps", steps), ("chains", chains), ("thin", thin)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    _check_strata(data, config)
    coords = _Coords(config)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(chains)]
    groups = np.array_split(np.arange(chains), min(timeline.usable_cpus(), chains))
    results = parallel_map(_sample_group, [
        (data, config, [rngs[i] for i in g], int(g[0]), steps, thin) for g in groups])
    draws, rates, step = (np.concatenate(arrays) for arrays in zip(*results))
    scalars = {s.name: np.empty(draws.shape[:2]) for s in coords.scalars}
    for i, s in enumerate(coords.scalars):
        scalars[s.name][:] = [[s.value(x) for x in row] for row in draws[:, :, i].tolist()]
    if np.all(rates.max(axis=1) < 0.01):
        raise RuntimeError(
            "sampler stuck: post-burn-in acceptance below 1% on every chain; "
            f"rates per chain/group:\n{rates}")

    return ChainStore(config=config, scalars=scalars, h=coords.h(draws),
                      acceptance=rates, step_sizes=step,
                      n_cases=0 if data is None else len(data),
                      n_dropped=0 if data is None else data.n_dropped)


# ---------------------------------------------------------------------------
# Diagnostics and summaries
# ---------------------------------------------------------------------------

def headline_functionals(store: ChainStore) -> dict[str, np.ndarray]:
    """(chains, draws) draws of each headline functional, by key.

    Keys, in order: "r1", "doubling_time", "r2" (two-stage growth only),
    then "mean_incubation" and "p_ge_<c>" (P(incubation >= c days)) for each
    c in TAIL_CUTOFFS.  Mean incubation is sum(k h*(k)) on whole days, with
    no half-day shift.  A stratified store keys the incubation functionals
    "name[stratum]" per stratum, plus "name[diff]" for the first stratum
    minus the second.
    """
    r1 = store.scalars["r1"]
    out = {"r1": r1, "doubling_time": _LN2 / r1}
    if "r2" in store.scalars:
        out["r2"] = store.scalars["r2"]
    k = np.arange(store.config.max_incubation)
    labels = store.config.stratum_labels
    per_stratum = [store.h[:, :, i, :] for i in range(len(labels))]
    incubation = {"mean_incubation": [(h * k).sum(axis=-1) for h in per_stratum]}
    for c in TAIL_CUTOFFS:
        incubation[f"p_ge_{c}"] = [h[:, :, k >= c].sum(axis=-1) for h in per_stratum]
    for name, values in incubation.items():
        if len(labels) == 1:
            out[name] = values[0]
        else:
            out.update((f"{name}[{lb}]", v) for lb, v in zip(labels, values))
            out[f"{name}[diff]"] = values[0] - values[1]
    return out


#: The headline functionals that get an R-hat: every stratum's, not the gaps.
_PSRF_FUNCTIONALS = ("r1", "doubling_time", "mean_incubation", "p_ge_14")


def psrf_functionals(store: ChainStore) -> dict[str, np.ndarray]:
    """The headline_functionals entries of _PSRF_FUNCTIONALS, each stratum's
    but no "[diff]" gap: the draws whose R-hat `bets mcmc` reports."""
    return {key: values for key, values in headline_functionals(store).items()
            if key.partition("[")[0] in _PSRF_FUNCTIONALS and not key.endswith("[diff]")}


def psrf(draws) -> float:
    """Gelman-Rubin potential scale reduction factor of a (n_chains,
    n_draws) matrix of draws, such as headline_functionals(store)[key]:
    R-hat = sqrt(((n-1)/n W + B/n) / W).
    """
    mat = np.atleast_2d(np.asarray(draws, dtype=float))
    m, n = mat.shape
    if m < 2:
        raise ValueError(f"need >= 2 chains, got {m}")
    if n < 100:
        raise ValueError(f"need >= 100 draws per chain, got {n}")
    w = float(mat.var(axis=1, ddof=1).mean())
    if w == 0:
        raise ValueError("zero within-chain variance")
    b_over_n = float(mat.mean(axis=1).var(ddof=1))
    return math.sqrt(((n - 1) / n * w + b_over_n) / w)


def summarize(values: np.ndarray) -> dict:
    """Mean and central 95% interval (2.5 and 97.5 percentiles) of draws,
    pooled chain by chain."""
    flat = np.reshape(values, -1)
    lo, hi = np.percentile(flat, [2.5, 97.5])
    return {"mean": float(flat.mean()), "lo": float(lo), "hi": float(hi)}


def posterior_summaries(store: ChainStore) -> dict:
    """summarize of each headline functional, keyed as headline_functionals."""
    return {key: summarize(values) for key, values in headline_functionals(store).items()}

