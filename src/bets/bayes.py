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
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np
from scipy import special as sc

from .timeline import AGE_GROUPS, GENDERS, QUARANTINE_DAY, STAGE_BREAK_DAY, CaseRecord

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

#: Each stratification: its stratum labels, and the key that reads a case's label.
STRATA = {
    "none": (("all",), lambda c: "all"),
    "gender": (GENDERS, lambda c: c.gender),
    "age50": (AGE_GROUPS, lambda c: c.age_group),
}
#: The epidemic-curve models: one exponent, or a second one after day l1.
GROWTH = ("single", "two_stage")
#: The departure-day models: uniform hazard, or geometric with a chunyun break.
DEPARTURE = ("uniform", "geometric")


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
    0..max_incubation-1: h0(k) proportional to H(k+1) - H(k)."""
    k = np.arange(max_incubation + 1)
    cell = sc.gammainc(shape, rate * k[1:]) - sc.gammainc(shape, rate * k[:-1])
    return cell / cell.sum()


#: The prior's base pmf h0 on the model's incubation support.
_H0 = discretized_base_pmf(DiscreteConfig.max_incubation)


@dataclass
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
        self.h = np.atleast_2d(np.asarray(self.h, dtype=float))
        if np.any(self.h < 0):
            raise ValueError("h must be nonnegative")
        bad = np.abs(self.h.sum(axis=1) - 1.0) > 1e-12
        if np.any(bad):
            raise ValueError(f"h rows must sum to 1 (off by {self.h.sum(axis=1)[bad]})")
        if self.eta is not None:
            self.eta = np.asarray(self.eta, dtype=float)
            if self.eta.shape != (2, 2):
                raise ValueError(f"eta must be (2, 2), got {self.eta.shape}")


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
    log_h = np.log(h)
    tilt = float(((mu * h0 - 1.0) * log_h).sum())
    curv = 2.0 * log_h[1:-1] - log_h[:-2] - log_h[2:]
    return tilt + float(np.minimum(curv, 0.0).sum())


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


@dataclass
class DiscreteData:
    """Whole-day case arrays plus the index of their distinct cases.

    A case's likelihood term depends only on its (B*, E*, S*, stratum)
    tuple, so it is evaluated once per distinct tuple.  The distinct rows
    are sorted by stratum, then B*, E*, S*: first holds each row's first
    case, inverse each case's row, rows the slice of rows of each stratum,
    and t_idx each row's candidate infection days S* - k
    (k = 0..max_incubation-1) as indices into the epidemic curve on 0..L,
    with the days outside the stay or outside 0..L pointing at day L + 1,
    where the curve is 0.  dropped counts, by reason, the records
    from_records left out.  The horizon l and the incubation support
    max_incubation are DiscreteConfig's.
    """

    b: np.ndarray
    e: np.ndarray
    s: np.ndarray
    stratum: np.ndarray
    case_ids: list
    labels: tuple[str, ...]
    dropped: dict = field(default_factory=dict)
    first: np.ndarray = field(init=False)
    inverse: np.ndarray = field(init=False)
    rows: list = field(init=False)
    t_idx: np.ndarray = field(init=False)

    def __post_init__(self):
        t, mask = _infection_days(self.b, self.e, self.s)
        empty = ~mask.any(axis=1)
        if np.any(empty):
            i = int(np.flatnonzero(empty)[0])
            raise ValueError(
                f"case {self.case_ids[i]}: no feasible infection day for "
                f"(B*={self.b[i]}, E*={self.e[i]}, S*={self.s[i]}) "
                f"with incubation < {DiscreteConfig.max_incubation}")
        tuples = np.stack([self.stratum, self.b, self.e, self.s], axis=1)
        _, self.first, self.inverse = np.unique(tuples, axis=0, return_index=True,
                                                return_inverse=True)
        ends = np.searchsorted(self.stratum[self.first], np.arange(len(self.labels) + 1))
        self.rows = [slice(lo, hi) for lo, hi in zip(ends.tolist(), ends[1:].tolist())]
        self.t_idx = np.where(mask, t, DiscreteConfig.l + 1)[self.first]

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
        feasible = _infection_days(b, e, s)[1].any(axis=1)
        dropped = {"outside_strata": len(cases) - len(rows),
                   "no_feasible_infection_day": int((~feasible).sum())}
        if not feasible.any():
            raise ValueError(f"no cases left after dropping {dropped}")
        keep = np.flatnonzero(feasible)
        return cls(b=b[keep], e=e[keep], s=s[keep],
                   stratum=np.array([st for _, st in rows])[keep],
                   case_ids=[rows[i][0].case_id for i in keep],
                   labels=labels, dropped=dropped)

    @property
    def n_dropped(self) -> int:
        return sum(self.dropped.values())

    def __len__(self) -> int:
        return len(self.b)


def _logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))) of a 1-D array, rounded exactly as scipy.special.logsumexp
    rounds it: the terms at the maximum are left out of the shifted sum and
    counted back through log(n_max)."""
    m = x.max()
    at_max = x == m
    rest = np.exp(x - m)
    rest[at_max] = 0.0
    n_max = np.count_nonzero(at_max)
    return float(np.log1p(rest.sum() / n_max) + np.log(n_max) + m)


def _log_curve(r1: float, r2: float | None, config: DiscreteConfig) -> np.ndarray:
    """Exponent of the epidemic curve on t = 0..L: r1*t, or r1 up to day l1
    and r2 after it for two-stage growth."""
    t = np.arange(config.l + 1, dtype=float)
    if config.growth == "single":
        return r1 * t
    return np.where(t <= config.l1, r1 * t, r1 * config.l1 + r2 * (t - config.l1))


def _growth_curve(state: NonparamState, config: DiscreteConfig) -> np.ndarray | None:
    """g*(t) on t = 0..L, or None when sum(g*) > 1 (rejected state)."""
    expo = _log_curve(state.r1, state.r2, config)
    if not state.kappa > 0:
        return None
    log_g = math.log(state.kappa) + expo
    total = _logsumexp(log_g)
    if total > 1e-9:  # sum g* > 1: outside the support
        return None
    return np.exp(log_g)


def _departure_matrix(state: NonparamState, config: DiscreteConfig) -> np.ndarray:
    """P(E* = e | B* = b) on the (b, e) grid, b <= e <= L (lower triangle unused)."""
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


#: P(B* = b) for b = 0..L: resident atom and uniform visitor spread.
_STAY_WEIGHTS = np.full(DiscreteConfig.l + 1, DiscreteConfig.visitor_weight / DiscreteConfig.l)
_STAY_WEIGHTS[0] = 1.0 - DiscreteConfig.visitor_weight

#: The b <= e half of the (b, e) grid on 0..L.
_UPPER = np.triu(np.ones((DiscreteConfig.l + 1, DiscreteConfig.l + 1), dtype=bool))


def _scalar_terms(data: DiscreteData, state: NonparamState,
                  config: DiscreteConfig) -> tuple | None:
    """The part of the likelihood that does not involve h*: ([(G, w) of
    each stratum], log P(D)).

    Over a stratum's distinct rows, G[i, k] is g*(S*_i - k) on row i's
    feasible infection days and 0 off them, w[i] = P(B*_i) P(E*_i | B*_i),
    and P(D) is the selection normalizer.  None for a zero-density state.
    """
    g = _growth_curve(state, config)
    if g is None:
        return None
    pe = _departure_matrix(state, config)

    # selection normalizer: sum over b <= e of P(b) P(e|b) * cumulative g on [b, e]
    T = config.l + 1
    cum_g = np.concatenate([[0.0], np.cumsum(g)])
    interval_g = cum_g[None, 1:] - cum_g[:T, None]   # [b, e] inclusive mass
    norm = float((_STAY_WEIGHTS[:, None] * pe * interval_g * _UPPER).sum())
    if not norm > 0:
        return None
    G = np.append(g, 0.0)[data.t_idx]
    b, e = data.b[data.first], data.e[data.first]
    w = _STAY_WEIGHTS[b] * pe[b, e]
    return [(G[rows], w[rows]) for rows in data.rows], math.log(norm)


def _log_num(G: np.ndarray, w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """log(w * sum_k G[:, k] h(k)) on one stratum's distinct rows: the log
    numerator of their cases, -inf where it is zero."""
    num = w * (G * h).sum(axis=1)
    with np.errstate(divide="ignore"):
        return np.log(num)


def _h_terms(data: DiscreteData, log_nums: list, log_norm: float) -> tuple[float, int | None]:
    """(log-likelihood, index of first zero-numerator case or None) from
    each stratum's _log_num and the log P(D) of _scalar_terms.  The rows'
    terms are summed case by case, in case order."""
    log_num = np.concatenate(log_nums)[data.inverse]
    zero = log_num == -math.inf
    if zero.any():
        return -math.inf, int(np.flatnonzero(zero)[0])
    return float(log_num.sum() - len(data) * log_norm), None


def log_lik_discrete(cases, state: NonparamState, config: DiscreteConfig) -> float:
    """Selection-adjusted log-likelihood of whole-day case records.

    Per case: P(B*) P(E*|B*) sum_t g*(t) h*(S*-t), the sum running over
    feasible infection days; divided by the total selection probability
    P(D) = sum over the (b, e, t) lattice of P(b) P(e|b) g*(t).  The
    symptomatic fraction cancels and is omitted; the normalizer does not
    involve h*, so it is shared across strata.  States with sum(g*) > 1
    return -inf (outside the support); a case with zero numerator also
    yields -inf, with a warning naming the case.
    """
    data = cases if isinstance(cases, DiscreteData) else DiscreteData.from_records(cases, config)
    if state.h.shape != (len(data.labels), config.max_incubation):
        raise ValueError(f"h must be {(len(data.labels), config.max_incubation)}, "
                         f"got {state.h.shape}")
    _check_state(state, config)
    terms = _scalar_terms(data, state, config)
    if terms is None:
        return -math.inf
    blocks, log_norm = terms
    val, bad = _h_terms(data, [_log_num(G, w, h) for (G, w), h in zip(blocks, state.h)],
                        log_norm)
    if bad is not None:
        warnings.warn(f"case {data.case_ids[bad]} has zero likelihood "
                      f"(B*={data.b[bad]}, E*={data.e[bad]}, S*={data.s[bad]})",
                      RuntimeWarning, stacklevel=2)
    return val


# ---------------------------------------------------------------------------
# Unconstrained parameterization for the sampler
# ---------------------------------------------------------------------------

#: One sampled scalar: its ChainStore name, the maps from its unconstrained
#: coordinate u to its value and back, and the log-Jacobian of the first map
#: (None for the identity).
_Scalar = namedtuple("_Scalar", "name value to_u log_jac")


def _box_scalar(name: str, upper: float = 1) -> _Scalar:
    """A scalar in (0, upper); u is the logit of value / upper."""
    def to_u(x):
        p = min(max(x * upper, 1e-15), 1 - 1e-15)
        return math.log(p / (1 - p))
    return _Scalar(name, lambda v: float(sc.expit(v)) / upper, to_u,
                   lambda v: -float(np.logaddexp(0.0, v)) - float(np.logaddexp(0.0, -v)))


#: Store names of the geometric departure hazards, in NonparamState.eta.flat
#: order: [resident, visitor] x [before, after chunyun].
_ETA_NAMES = ("eta_w1", "eta_w2", "eta_v1", "eta_v2")

#: The scalar fields of a NonparamState, without h* and unvalidated: what
#: the sampler's target hands to log_prior_rest and _scalar_terms.
_ScalarState = namedtuple("_ScalarState", "r1 kappa r2 lambda_w lambda_v eta",
                          defaults=(None,) * 4)


def _pmf(logits: np.ndarray) -> np.ndarray:
    """One stratum's incubation pmf: a softmax of its free logits and a last
    logit pinned to 0."""
    y = np.concatenate([logits, [0.0]])
    return np.exp(y - _logsumexp(y))


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
        """The (strata, K) incubation pmfs: a softmax of each stratum's logits."""
        return np.array([_pmf(u[sl]) for sl in self.h_slices])

    def scalar_state(self, u: np.ndarray) -> _ScalarState:
        values = {s.name: s.value(x) for s, x in zip(self.scalars, u)}
        eta = [values.pop(name) for name in _ETA_NAMES if name in values]
        return _ScalarState(eta=np.reshape(eta, (2, 2)) if eta else None, **values)

    def scalar_log_jacobian(self, u: np.ndarray) -> float:
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


def _make_target(coords: _Coords, data: DiscreteData | None, config: DiscreteConfig):
    """The sampler's log-posterior on u; the bare prior when data is None.

    target(u, parts=None, group=None) returns (value, parts), where parts
    are the pieces the value was summed from: the scalar block's state and
    log-Jacobian; each stratum's pmf, log pmf and prior; the h*-free
    likelihood terms; and each stratum's log numerators.  Given the parts
    of a state that differs from u only in proposal group `group` (0 the
    scalars, 1 + s stratum s's logits), only the pieces that read that
    group are recomputed: a scalar move keeps the pmfs, and a move of
    stratum s keeps all but its pmf piece and log numerators.  parts is
    None when the value is -inf.  The pieces are added up in one fixed
    order, so a value does not depend on what was reused.
    """
    def log_post(u: np.ndarray, parts: tuple | None = None, group: int | None = None):
        new_scalars = parts is None or group == 0
        scalar, pmfs, terms, log_nums = parts or (None, [None] * coords.S, None, [None] * coords.S)
        pmfs, log_nums = list(pmfs), list(log_nums)
        moved = range(coords.S) if parts is None else range(group - 1, group) if group else ()
        for s in moved:
            h = _pmf(u[coords.h_slices[s]])
            pmfs[s] = h, np.log(np.maximum(h, _H_FLOOR)), log_prior_h(h, config.mu, _H0)
        if new_scalars:
            scalar = coords.scalar_state(u), coords.scalar_log_jacobian(u)
        state, total = scalar
        # log |d(natural) / du|: the scalars', then each pmf's sum of log h*
        total += float(np.concatenate([log_h for _, log_h, _ in pmfs]).sum())
        total += log_prior_rest(state, config)
        if not math.isfinite(total):
            return -math.inf, None
        for _, _, log_prior in pmfs:
            total += log_prior
        if data is not None:
            if new_scalars:
                terms = _scalar_terms(data, state, config)
                if terms is None:
                    return -math.inf, None
            for s in range(coords.S) if new_scalars else moved:
                log_nums[s] = _log_num(*terms[0][s], pmfs[s][0])
            total += _h_terms(data, log_nums, terms[1])[0]
        if not math.isfinite(total):
            return -math.inf, None
        return total, (scalar, pmfs, terms, log_nums)

    return log_post


# ---------------------------------------------------------------------------
# Random-walk Metropolis-Hastings
# ---------------------------------------------------------------------------

@dataclass
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


#: Incubation logits moved together in one h* proposal.
_H_BLOCK_SIZE = 5
#: Burn-in steps between two step-size adaptations.
_ADAPT_WINDOW = 100


def _run_chain_impl(coords: _Coords, target, steps: int, burn_in: int, thin: int,
                    rng: np.random.Generator, u0: np.ndarray, step0: np.ndarray):
    """One chain; returns (draw list of u, post-burn acceptance per group,
    final step sizes per group).

    Each step proposes every group once, in order.  The chain keeps the
    current state's target parts (scalar state and log-Jacobian, each
    stratum's pmf pieces, the h*-free likelihood terms and each stratum's
    log numerators) and hands them to the target with the moved group, so
    a proposal recomputes only what reads that group.  After every
    _ADAPT_WINDOW-th burn-in step, each group's step size adapts to its
    acceptance over those steps: x0.7 below 20%, x1.4 above 40%, kept within
    [1e-6, 50].  A partial last window does not adapt, and the step sizes
    are frozen after burn-in.
    """
    groups = [slice(0, coords.n_scalars)] + coords.h_slices
    take = min(_H_BLOCK_SIZE, coords.h_block)
    step = step0.astype(float).copy()
    u = u0.copy()
    lp, parts = target(u)
    if not np.isfinite(lp):
        raise RuntimeError("initial state has zero posterior density")
    draws: list[np.ndarray] = []
    acc_window = np.zeros(len(groups))
    acc_post = np.zeros(len(groups))
    for it in range(steps):
        in_burn = it < burn_in
        for gi, sl in enumerate(groups):
            prop = u.copy()
            if gi == 0:
                prop[sl] += step[gi] * rng.standard_normal(coords.n_scalars)
            else:
                sel = sl.start + rng.choice(coords.h_block, size=take, replace=False)
                prop[sel] += step[gi] * rng.standard_normal(take)
            lp_prop, parts_prop = target(prop, parts, gi)
            if math.log(max(rng.random(), 1e-300)) < lp_prop - lp:
                u, lp, parts = prop, lp_prop, parts_prop
                (acc_window if in_burn else acc_post)[gi] += 1
        if in_burn and (it + 1) % _ADAPT_WINDOW == 0:
            rate = acc_window / _ADAPT_WINDOW
            step[rate < 0.2] = np.maximum(step[rate < 0.2] * 0.7, 1e-6)
            step[rate > 0.4] = np.minimum(step[rate > 0.4] * 1.4, 50.0)
            acc_window[:] = 0.0
        if it >= burn_in and (it - burn_in) % thin == 0:
            draws.append(u.copy())
    return draws, acc_post / (steps - burn_in), step


def rwmh_run(cases, config: DiscreteConfig, steps: int = 80_000, chains: int = 8,
             seed: int = 0, thin: int = 10, prior_only: bool = False) -> ChainStore:
    """Sample the discrete model by random-walk Metropolis-Hastings.

    Proposals are Gaussian on the unconstrained coordinates: scalars move
    jointly, each stratum's incubation logits move in random blocks of 5.
    Step scales adapt during the burn-in half toward 20-40% acceptance and
    are frozen afterwards; draws are recorded post-burn-in every `thin`
    steps.  With prior_only=True the likelihood (and its curve-mass
    constraint) is dropped, leaving the bare prior as the target.

    Raises RuntimeError if every chain's post-burn-in acceptance collapses
    below 1% (after adaptation), or if an initial state cannot be found.
    """
    if chains < 1:
        raise ValueError("need at least one chain")
    coords = _Coords(config)
    data = None
    if not prior_only:
        if not cases:
            raise ValueError("no cases (use prior_only=True to sample the prior)")
        data = cases if isinstance(cases, DiscreteData) else DiscreteData.from_records(cases, config)
    target = _make_target(coords, data, config)
    burn_in = steps // 2
    base_step = np.array([0.1] + [0.15] * coords.S)

    n_draws = len(range(burn_in, steps, thin))
    scalars = {s.name: np.empty((chains, n_draws)) for s in coords.scalars}
    h_arr = np.empty((chains, n_draws, coords.S, coords.K))
    seq = np.random.SeedSequence(seed)
    chain_rngs = [np.random.default_rng(s) for s in seq.spawn(chains)]
    all_rates, all_steps = [], []
    for ci in range(chains):
        rng = chain_rngs[ci]
        u0 = None
        for _ in range(1000):
            cand = _init_state(coords, config, rng, prior_only)
            if np.isfinite(target(cand)[0]):
                u0 = cand
                break
        if u0 is None:
            raise RuntimeError(f"chain {ci}: could not find a valid initial state")
        draws, rates, fstep = _run_chain_impl(coords, target, steps, burn_in, thin,
                                              rng, u0, base_step)
        h_arr[ci] = [coords.h(u) for u in draws]
        for i, s in enumerate(coords.scalars):
            scalars[s.name][ci] = [s.value(u[i]) for u in draws]
        all_rates.append(rates)
        all_steps.append(fstep)

    rates_arr = np.asarray(all_rates)
    if np.all(rates_arr.max(axis=1) < 0.01):
        raise RuntimeError(
            "sampler stuck: post-burn-in acceptance below 1% on every chain; "
            f"rates per chain/group:\n{rates_arr}")

    return ChainStore(config=config, scalars=scalars, h=h_arr,
                      acceptance=rates_arr, step_sizes=np.asarray(all_steps),
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


def psrf(chains, functional: str | None = None) -> float:
    """Gelman-Rubin potential scale reduction factor of a functional.

    chains: a ChainStore plus a headline_functionals key, or directly a
    (n_chains, n_draws) matrix.  R-hat = sqrt(((n-1)/n W + B/n) / W).
    """
    if isinstance(chains, ChainStore):
        functionals = headline_functionals(chains)
        if functional not in functionals:
            raise ValueError(f"with a ChainStore, give one of {list(functionals)}, "
                             f"got {functional!r}")
        mat = functionals[functional]
    else:
        mat = np.atleast_2d(np.asarray(chains, dtype=float))
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

