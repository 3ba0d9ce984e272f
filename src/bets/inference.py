"""Maximum-likelihood fitting, confidence intervals, and bias experiments.

Fits are run in unconstrained coordinates (log doubling time, log median,
log of the median-to-95% spread, log travel-mix) with a derivative-free
simplex search, then reported on the interpretable scale.  Confidence
intervals come from profile likelihood (inverting the chi-square(1) likelihood
ratio) or from a case-resampling bootstrap.  The module also packages the two
demonstration experiments: the naive-versus-adjusted growth sweep over
confirmation cutoffs and a chi-square goodness-of-fit of the onset-day
histogram against the exported-resident onset density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np
from scipy import special as sc

from .likelihood import (
    DisplayTheta,
    LikelihoodError,
    ParamTheta,
    case_terms,
    marginal_s_density,
    quantiles_to_shape_rate,
)
from .timeline import CaseRecord, parallel_map

__all__ = [
    "FitOptions",
    "FitResult",
    "CIResult",
    "SweepRow",
    "GofResult",
    "DEFAULT_INIT",
    "mle_fit",
    "profile_ci",
    "bootstrap_ci",
    "bias_sweep",
    "gof_onset_marginal",
    "onset_fit_table",
]

_BIG = 1e15
_LN2 = math.log(2.0)

#: Log of the floor (1e-300) that mle_fit clamps each per-case term to.
_LOG_FLOOR = math.log(1e-300)

#: Interior, plausible starting point used when no init is given.
DEFAULT_INIT = DisplayTheta(doubling_time=4.0, median_incubation=5.0,
                            q95_incubation=12.0, rho=0.5)

_FIXABLE = ("rho", "r", "doubling_time", "median_incubation", "q95_incubation")


@dataclass(frozen=True)
class FitOptions:
    """Budget and restarts of the simplex search; seed draws the restart offsets."""

    max_eval: int = 50_000
    restarts: int = 3
    seed: int = 0


_JITTER = 0.2       # scale of the restart offsets from the start point
_XATOL = 1e-8
_FATOL = 1e-10
_BOUNDARY = 16.0    # |transformed coordinate| beyond this flags a boundary

#: Single start for the many refits of a profile or a bootstrap (no seed drawn).
_INNER = FitOptions(max_eval=20_000, restarts=0)


@dataclass(frozen=True)
class CIResult:
    """A two-sided interval; a False bracket flag marks a one-sided failure."""

    lo: float
    hi: float
    level: float = 0.95
    lower_bracketed: bool = True
    upper_bracketed: bool = True


@dataclass
class FitResult:
    """A maximum-likelihood fit with its diagnostics."""

    theta: ParamTheta
    display: DisplayTheta
    log_lik: float
    kind: str
    n_cases: int
    M: float | None = None
    fixed: dict = field(default_factory=dict)
    converged: bool = True
    n_clamped: int = 0
    n_eval: int = 0
    message: str = ""


# ---------------------------------------------------------------------------
# Transform between display parameters and unconstrained coordinates
# ---------------------------------------------------------------------------

def _sigmoid(x: float) -> float:
    """The logistic function.  Not scipy.special.expit: the two differ in the
    last bit on 22,919 of 100,000 uniform draws on [-20, 20], which would
    move the q95-pinned profile fits that read median / q95 through it."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


class _ParamMap:
    """The free coordinates of a fit, given the likelihood kind and the pins.

    The free values are, in order: log doubling time; log median; the log of
    q95 - median, or the logit of median / q95 when only q95 is pinned; log
    rho (uncond only).
    """

    def __init__(self, kind: str, fixed: dict | None):
        fixed = dict(fixed or {})
        unknown = set(fixed) - set(_FIXABLE)
        if unknown:
            raise ValueError(f"cannot fix {sorted(unknown)}; allowed: {_FIXABLE}")
        if "r" in fixed and "doubling_time" in fixed:
            raise ValueError("fix either r or doubling_time, not both")
        if kind != "uncond" and "rho" in fixed:
            raise ValueError("rho only applies to the unconditional likelihood")
        for name, value in fixed.items():
            zero_ok, inf_ok = name in ("r", "rho"), name == "doubling_time"
            if not ((value >= 0 if zero_ok else value > 0) and (inf_ok or value < math.inf)):
                raise ValueError(f"cannot fix {name}={value}: need {name} "
                                 f"{'>=' if zero_ok else '>'} 0{'' if inf_ok else ' and finite'}")
        if "r" in fixed:
            self.r: float | None = float(fixed["r"])
        elif "doubling_time" in fixed:
            self.r = _LN2 / float(fixed["doubling_time"])
        else:
            self.r = None
        if kind == "uncond" and self.r is not None and not self.r > 0:
            raise ValueError("unconditional likelihood needs r > 0")
        self.med = fixed.get("median_incubation")
        self.q95 = fixed.get("q95_incubation")
        if self.med is not None and self.q95 is not None and not 0 < self.med < self.q95:
            raise ValueError("pinned incubation quantiles must satisfy 0 < median < q95")
        self.rho = fixed.get("rho")
        self.has_rho = kind == "uncond"

    def pack(self, d: DisplayTheta) -> np.ndarray:
        u = []
        if self.r is None:
            u.append(math.log(d.doubling_time))
        if self.q95 is None:
            med = self.med
            if med is None:
                med = d.median_incubation
                u.append(math.log(med))
            u.append(math.log(max(d.q95_incubation - med, 1e-9)))
        elif self.med is None:
            frac = min(max(d.median_incubation / self.q95, 1e-12), 1 - 1e-12)
            u.append(math.log(frac / (1.0 - frac)))
        if self.has_rho and self.rho is None:
            rho = d.rho if d.rho is not None else DEFAULT_INIT.rho
            u.append(math.log(max(rho, 1e-9)))
        return np.asarray(u, dtype=float)

    def unpack(self, u: np.ndarray) -> tuple[float | None, float, float, float]:
        """-> (rho, r, median, q95); raises Over/ValueError off the valid domain."""
        free = iter(u)
        r = self.r if self.r is not None else _LN2 / math.exp(next(free))
        med, q95 = self.med, self.q95
        if q95 is None:
            if med is None:
                med = math.exp(next(free))
            q95 = med + math.exp(next(free))
        elif med is None:
            med = q95 * _sigmoid(next(free))
        rho = None
        if self.has_rho:
            rho = self.rho if self.rho is not None else math.exp(next(free))
        return rho, r, med, q95


# ---------------------------------------------------------------------------
# Maximum likelihood
# ---------------------------------------------------------------------------

class _Exhausted(Exception):
    """The evaluation budget of a simplex search ran out mid-step."""


def _nelder_mead(fun, x0: np.ndarray, maxfev: int,
                 adaptive: bool) -> tuple[np.ndarray, float, int, bool]:
    """Minimize fun from x0 by the Nelder-Mead simplex.

    A port of SciPy 1.17.1's ``_minimize_neldermead`` (Nelder & Mead 1965;
    with adaptive, the dimension-dependent coefficients of Gao & Han 2012)
    without bounds, callback or initial simplex.  It takes the same steps,
    sorts and stops, so it returns what ``scipy.optimize.minimize(...,
    method="Nelder-Mead")`` does with xatol _XATOL, fatol _FATOL and
    maxfev = maxiter = maxfev, bit for bit; tests/test_inference.py holds it
    to that.  maxiter is dropped: every iteration spends at least one
    evaluation, so it never binds first.

    The simplex starts at x0 and at x0 with one coordinate scaled by 1.05
    (set to 0.00025 where it is 0).  When the budget runs out mid-step, the
    step keeps its partial updates.  fun gets a view of the simplex, must
    not keep it, and must return a Python float.

    Returns (x, fun(x), evaluations, evaluations < maxfev).
    """
    n = x0.size
    # The reflection coefficient is 1 in both variants and is left out.
    if adaptive:
        chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    else:
        chi, psi, sigma = 2, 0.5, 0.5
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    nfev = 0

    def f(x: np.ndarray) -> float:
        nonlocal nfev
        if nfev >= maxfev:
            raise _Exhausted
        nfev += 1
        return fun(x)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _Exhausted:
        pass
    for _ in range(2):  # as SciPy does: argsort is not stable, so a tie may move
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)

    while nfev < maxfev:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= _XATOL
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= _FATOL):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = (1 + chi) * xbar - chi * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                outside = fxr < fsim[-1]
                if outside:
                    xc = (1 + psi) * xbar - psi * sim[-1]
                else:
                    xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = f(xc)
                if fxc <= fxr if outside else fxc < fsim[-1]:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink toward the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _Exhausted:
            pass
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], np.min(fsim), nfev, nfev < maxfev


class _Objective:
    """The function mle_fit minimizes: the negative log-likelihood of kind at
    free coordinates u, each per-case term floored at 1e-300, and _BIG
    where u leaves the domain or the sum is not finite.

    It pickles as its inputs, so a worker process builds the same function
    from the same cases and pins.
    """

    def __init__(self, cases: Sequence[CaseRecord], kind: str, M: float | None,
                 fixed: dict | None):
        self._args = (cases, kind, M, fixed)
        self.terms = case_terms(cases, kind, M)
        self.pmap = _ParamMap(kind, fixed)

    def __reduce__(self):
        return _Objective, self._args

    def __call__(self, u: np.ndarray) -> float:
        try:
            rho, r, med, q95 = self.pmap.unpack(u)
            alpha, beta = quantiles_to_shape_rate(med, q95)
            lt = self.terms(rho, r, alpha, beta)
        except (ValueError, OverflowError):
            return _BIG
        val = -float(np.maximum(lt, _LOG_FLOOR).sum())
        return val if math.isfinite(val) else _BIG


def mle_fit(cases: Sequence[CaseRecord], kind: str = "cond",
            init: DisplayTheta | None = None, M: float | None = None,
            fixed: dict | None = None, options: FitOptions | None = None) -> FitResult:
    """Maximize the chosen log-likelihood over the free display parameters.

    Parameters
    ----------
    cases : sequence of CaseRecord
        The cohort; must be nonempty.
    kind : {"cond", "uncond", "cond_trunc"}
        Which likelihood: conditional on (B, E), joint with the travel mix,
        or right-truncated at S <= M (requires M).
    init : DisplayTheta, optional
        Starting point; defaults to doubling 4 d, median 5 d, q95 12 d,
        rho 0.5.
    fixed : dict, optional
        Pin parameters by display name ("rho", "doubling_time",
        "median_incubation", "q95_incubation") or pin the rate directly
        ("r", e.g. {"r": 0.0} for the no-growth fit).

    Returns
    -------
    FitResult
        converged is False when the search failed or stopped against the
        boundary of the transformed domain; n_clamped counts cases whose
        likelihood term underflowed at the optimum (should be 0).  Of the
        restarts, the first with the lowest objective wins; n_eval counts
        the evaluations of them all.  The searches run through
        timeline.parallel_map, to the same fit on any number of CPUs.
    """
    if not cases:
        raise ValueError("no cases to fit")
    options = options or FitOptions()
    fun = _Objective(cases, kind, M, fixed)
    terms, pmap = fun.terms, fun.pmap
    u0 = pmap.pack(init or DEFAULT_INIT)

    if u0.size == 0:  # everything pinned: nothing to optimize
        val = fun(u0)
        best_x, best_fun, n_eval, success = u0, val, 1, True
    else:
        rng = np.random.default_rng(options.seed)
        starts = [u0] + [u0 + _JITTER * rng.standard_normal(u0.size)
                         for _ in range(options.restarts)]
        per_run = max(options.max_eval // (options.restarts + 1), 200)
        runs = parallel_map(_nelder_mead, [(fun, x0, per_run, u0.size > 2)
                                           for x0 in starts])
        best_x, best_fun, n_eval, success = None, np.inf, 0, False
        for x, val, nfev, ok in runs:
            n_eval += nfev
            if val < best_fun:
                best_x, best_fun, success = x, val, ok

    rho, r, med, q95 = pmap.unpack(np.asarray(best_x))
    alpha, beta = quantiles_to_shape_rate(med, q95)
    theta = ParamTheta(r=r, alpha=alpha, beta=beta, rho=rho)
    display = DisplayTheta(doubling_time=math.inf if r == 0 else _LN2 / r,
                           median_incubation=med, q95_incubation=q95, rho=rho)
    at_boundary = bool(np.any(np.abs(np.asarray(best_x)) > _BOUNDARY))
    n_clamped = int((terms(rho, r, alpha, beta) < _LOG_FLOOR).sum())
    converged = bool(success and not at_boundary and best_fun < _BIG)
    message = "ok" if converged else ("boundary" if at_boundary else "search failed")
    return FitResult(theta=theta, display=display, log_lik=float(-best_fun),
                     kind=kind, n_cases=len(cases), M=M, fixed=dict(fixed or {}),
                     converged=converged, n_clamped=n_clamped, n_eval=int(n_eval),
                     message=message)


def _refit(cases: Sequence[CaseRecord], fit: FitResult, init: DisplayTheta,
           fixed: dict) -> FitResult | None:
    """An inner refit of fit's likelihood kind and truncation day from init
    with these pins; None when it raises or does not converge."""
    try:
        sub = mle_fit(cases, fit.kind, init=init, M=fit.M, fixed=fixed, options=_INNER)
    except (ValueError, LikelihoodError):
        return None
    return sub if sub.converged else None


# ---------------------------------------------------------------------------
# Profile-likelihood confidence intervals
# ---------------------------------------------------------------------------

_PROFILE_TOL = 5e-4          # |2 (lhat - lprof) - c| at returned endpoints
_PROFILE_RANGE = 100.0       # search within [point/100, point*100]
_PROFILE_STEP = 1.35


def _chi2_ppf_1(level: float) -> float:
    """The level quantile of chi-square with 1 dof, computed as
    scipy.stats.chi2.ppf does (bit for bit) without importing scipy.stats."""
    return 2.0 * sc.gammaincinv(0.5, level)


def _warm_init(display: DisplayTheta, param: str, value: float) -> DisplayTheta:
    """Shift the fitted display point so pinning param=value stays valid."""
    if param == "median_incubation":
        spread = display.q95_incubation - display.median_incubation
        return replace(display, median_incubation=value, q95_incubation=value + spread)
    if param == "q95_incubation":
        frac = display.median_incubation / display.q95_incubation
        return replace(display, q95_incubation=value, median_incubation=frac * value)
    return replace(display, **{param: value})


def _check_level(level: float) -> None:
    """Reject a confidence level outside (0, 1)."""
    if not 0 < level < 1:
        raise ValueError(f"level must lie in (0, 1), got {level!r}")


def _check_param(fit: FitResult, param: str) -> None:
    """Reject a display parameter that the fit does not estimate."""
    allowed = [f.name for f in fields(DisplayTheta) if f.name != "rho" or fit.kind == "uncond"]
    if param not in allowed:
        raise ValueError(f"param must be one of {allowed}, got {param!r}")
    if param in fit.fixed or (param == "doubling_time" and "r" in fit.fixed):
        raise ValueError(f"{param} was pinned in the base fit")


def _profile_side(cases: Sequence[CaseRecord], fit: FitResult, param: str,
                  threshold: float, direction: int) -> tuple[float, bool]:
    """One side of profile_ci, walking up from the point for direction +1
    and down for -1: (endpoint, bracketed)."""
    point = getattr(fit.display, param)

    def discrepancy(v: float) -> float | None:
        """2(l_hat - l_profile(v)) - threshold, or None when the refit fails."""
        sub = _refit(cases, fit, _warm_init(fit.display, param, v), {**fit.fixed, param: v})
        return None if sub is None else 2.0 * (fit.log_lik - sub.log_lik) - threshold

    v_in = point
    v_out = None
    v = point
    limit = point * _PROFILE_RANGE if direction > 0 else point / _PROFILE_RANGE
    while True:
        v = v * _PROFILE_STEP if direction > 0 else v / _PROFILE_STEP
        hit_limit = v >= limit if direction > 0 else v <= limit
        if hit_limit:
            v = limit
        d = discrepancy(v)
        if d is None:
            return limit, False
        if d > 0:
            v_out = v
            break
        v_in = v
        if hit_limit:
            return limit, False
    lo, hi = (v_in, v_out) if direction > 0 else (v_out, v_in)
    # bisect in log space on the sign change
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        d = discrepancy(mid)
        if d is None:
            return limit, False
        if abs(d) <= _PROFILE_TOL:
            return mid, True
        if (d > 0) == (direction > 0):
            hi = mid
        else:
            lo = mid
    return math.sqrt(lo * hi), True


def profile_ci(cases: Sequence[CaseRecord], fit: FitResult, param: str,
               level: float = 0.95) -> CIResult:
    """Invert the likelihood-ratio test for one display parameter of fit.

    The profile refits use the fit's likelihood kind, truncation day and
    pins.  Endpoints v solve 2(l_hat - l_profile(v)) = chi2_1(level) to
    within 5e-4; the search stays within [point/100, point*100].  A side
    that never crosses inside that range, or whose search meets a profile
    refit that fails (does not converge, or has no valid warm start), comes
    back at the end of that range with its bracket flag False.  When this
    process may use two CPUs, the lower side runs in a worker process while
    this one walks the upper side (timeline.parallel_map); the interval is
    the same either way.
    """
    _check_level(level)
    _check_param(fit, param)
    point = getattr(fit.display, param)
    threshold = _chi2_ppf_1(level)
    if threshold == 0.0:
        return CIResult(point, point, level)
    (hi_end, hi_ok), (lo_end, lo_ok) = parallel_map(
        _profile_side, [(cases, fit, param, threshold, d) for d in (+1, -1)])
    return CIResult(lo=lo_end, hi=hi_end, level=level,
                    lower_bracketed=lo_ok, upper_bracketed=hi_ok)


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------

_MAX_FAILURE_RATE = 0.05    # share of failed bootstrap refits tolerated


def _refit_resample(cases, idx, fit: FitResult) -> DisplayTheta | None:
    """Refit the resample cases[idx] from the full fit's point; None when it fails."""
    sub = _refit([cases[i] for i in idx], fit, fit.display, fit.fixed)
    return None if sub is None else sub.display


def _bootstrap_displays(cases, fit: FitResult, n_boot: int, rng) -> tuple[list[DisplayTheta], int]:
    """Displays of the converged refits of n_boot resamples, and the failure count."""
    n = len(cases)
    args = [(cases, idx, fit) for idx in rng.integers(0, n, size=(n_boot, n))]
    results = parallel_map(_refit_resample, args)
    displays = [d for d in results if d is not None]
    return displays, n_boot - len(displays)


def _percentile_ci(values, level: float) -> CIResult:
    """Central percentile interval of the values at the given level."""
    a = 100.0 * (1.0 - level) / 2.0
    lo, hi = np.percentile(values, [a, 100.0 - a])
    return CIResult(float(lo), float(hi), level)


def bootstrap_ci(cases: Sequence[CaseRecord], fit: FitResult, param: str,
                 n_boot: int = 1000, level: float = 0.95,
                 rng: np.random.Generator | None = None, method: str = "basic") -> CIResult:
    """Case-resampling bootstrap interval for one display parameter of fit.

    Each resample is refitted with the fit's likelihood kind, truncation day
    and pins, starting from the fit's point.  method "basic" reflects the
    percentile interval around the fit's value (2*s_hat - percentiles);
    method "percentile" uses the raw percentiles.  More than 5% of refits
    failing aborts with RuntimeError.  The refits are split over this
    process and one worker process per further usable CPU
    (timeline.parallel_map), to the same interval.
    """
    if method not in ("basic", "percentile"):
        raise ValueError(f"method must be 'basic' or 'percentile', got {method!r}")
    if n_boot < 1:
        raise ValueError(f"n_boot must be at least 1, got {n_boot}")
    _check_level(level)
    _check_param(fit, param)
    rng = rng if rng is not None else np.random.default_rng(0)
    displays, failures = _bootstrap_displays(cases, fit, n_boot, rng)
    if failures > _MAX_FAILURE_RATE * n_boot:
        raise RuntimeError(f"bootstrap: {failures}/{n_boot} refits failed to converge")
    pct = _percentile_ci([getattr(d, param) for d in displays], level)
    if method == "percentile":
        return pct
    s_hat = getattr(fit.display, param)
    return CIResult(lo=2 * s_hat - pct.hi, hi=2 * s_hat - pct.lo, level=level)


# ---------------------------------------------------------------------------
# Naive-versus-adjusted sweep over confirmation cutoffs
# ---------------------------------------------------------------------------

_SWEEP_MODELS = ("r0", "growth", "growth_trunc")


@dataclass(frozen=True)
class SweepRow:
    """One (cutoff day, model) cell of the bias sweep.  converged and message
    are the fit's (None when the cell is not fitted): a cell whose search
    stopped at the boundary still reports its median and q95."""

    cutoff: int
    model: str
    n_cases: int
    fitted: bool
    median: float | None = None
    q95: float | None = None
    median_ci: CIResult | None = None
    q95_ci: CIResult | None = None
    converged: bool | None = None
    message: str | None = None


def bias_sweep(cases: Sequence[CaseRecord], cutoffs: Sequence[int],
               m_offset: int = 7, min_cases: int = 20, bootstrap_b: int = 0,
               level: float = 0.95,
               rng: np.random.Generator | None = None) -> list[SweepRow]:
    """Incubation-quantile estimates by confirmation cutoff under three models.

    For each cutoff day d (cases confirmed by d):
    "r0"           no-growth fit (infection uniform over the stay);
    "growth"       growth-weighted fit, ignoring that late onsets are unseen;
    "growth_trunc" growth-weighted fit right-truncated at M = d - m_offset,
                   fitted on the cases with S <= M.
    Cells with fewer than min_cases cases are reported unfitted.  With
    bootstrap_b > 0, percentile bootstrap bands are attached.
    """
    if m_offset < 0:
        raise ValueError(f"m_offset must be >= 0, got {m_offset}")
    _check_level(level)
    if any(c.confirmed_int is None for c in cases):
        raise ValueError("bias_sweep needs confirmed_int on every case")
    rng = rng if rng is not None else np.random.default_rng(0)
    rows: list[SweepRow] = []
    for d in cutoffs:
        by_d = [c for c in cases if c.confirmed_int <= d]
        for model in _SWEEP_MODELS:
            if model == "growth_trunc":
                M = float(d - m_offset)
                sub, kind, fixed = [c for c in by_d if c.S <= M], "cond_trunc", None
            elif model == "r0":
                M, sub, kind, fixed = None, by_d, "cond", {"r": 0.0}
            else:
                M, sub, kind, fixed = None, by_d, "cond", None
            if len(sub) < min_cases:
                rows.append(SweepRow(cutoff=int(d), model=model, n_cases=len(sub),
                                     fitted=False))
                continue
            fit = mle_fit(sub, kind, M=M, fixed=fixed)
            med_ci = q95_ci = None
            if bootstrap_b > 0:
                displays, failures = _bootstrap_displays(sub, fit, bootstrap_b, rng)
                if failures <= _MAX_FAILURE_RATE * bootstrap_b and displays:
                    med_ci = _percentile_ci([x.median_incubation for x in displays], level)
                    q95_ci = _percentile_ci([x.q95_incubation for x in displays], level)
            rows.append(SweepRow(cutoff=int(d), model=model, n_cases=len(sub),
                                 fitted=True, median=fit.display.median_incubation,
                                 q95=fit.display.q95_incubation,
                                 median_ci=med_ci, q95_ci=q95_ci,
                                 converged=fit.converged, message=fit.message))
    return rows


# ---------------------------------------------------------------------------
# Goodness of fit of the onset-day histogram
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GofResult:
    statistic: float
    dof: int
    p_value: float
    n_cases: int
    n_bins: int


def onset_fit_table(cases: Sequence[CaseRecord], theta: ParamTheta):
    """(day, observed, expected) per onset day among resident cases at theta.

    Expected counts evaluate the exported-resident onset density at the
    continuous midpoint of each recorded day and normalize over the observed
    day range.
    """
    days = np.array(sorted({c.S_int for c in cases if c.is_resident}))
    if days.size == 0:
        raise ValueError("no resident (B_int = 0) cases")
    full = np.arange(days.min(), days.max() + 1)
    obs = np.zeros(full.size)
    for c in cases:
        if c.is_resident:
            obs[c.S_int - full[0]] += 1
    dens = marginal_s_density(full - 0.5, theta)
    total = dens.sum()
    if not total > 0:
        raise ValueError("onset density vanishes on the observed range")
    expected = obs.sum() * dens / total
    return full, obs, expected


def _chi2_sf(stat: float, dof: int) -> float:
    """Upper tail of chi-square with dof degrees of freedom at stat >= 0,
    equal bit for bit to scipy.stats.chi2.sf there."""
    return float(sc.chdtrc(dof, stat))


def gof_onset_marginal(cases: Sequence[CaseRecord], theta: ParamTheta,
                       min_expected: float = 5.0) -> GofResult:
    """Pearson chi-square of resident onset days against the model density
    at theta, over at least 30 resident cases.

    Adjacent days are pooled left-to-right until each bin expects at least
    min_expected cases (the trailing remainder merges backwards); the
    statistic is referred to chi-square with bins - 1 degrees of freedom.
    """
    n_res = sum(1 for c in cases if c.is_resident)
    if n_res < 30:
        raise ValueError(f"need at least 30 resident cases, have {n_res}")
    _, obs, expected = onset_fit_table(cases, theta)
    pooled_o: list[float] = []
    pooled_e: list[float] = []
    acc_o = acc_e = 0.0
    for o, ex in zip(obs, expected):
        acc_o += o
        acc_e += ex
        if acc_e >= min_expected:
            pooled_o.append(acc_o)
            pooled_e.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and pooled_e:
        pooled_o[-1] += acc_o
        pooled_e[-1] += acc_e
    if len(pooled_e) < 3:
        raise ValueError(f"only {len(pooled_e)} pooled bins; need >= 3 for a stable test")
    o_arr, e_arr = np.array(pooled_o), np.array(pooled_e)
    stat = float(((o_arr - e_arr) ** 2 / e_arr).sum())
    dof = len(pooled_e) - 1
    return GofResult(statistic=stat, dof=dof, p_value=_chi2_sf(stat, dof),
                     n_cases=int(o_arr.sum()), n_bins=len(pooled_e))
