"""Forward simulator of the exported-case process.

Draws full (B, E, T, S) tuples for the exposed population -- stay begin, stay
end, infection time, symptom onset, any of which may be infinite when the
event never happens -- and filters them through the selection set

    D = {B <= T <= E <= L, T <= S < infinity}

by plain rejection.  Accepted tuples are rounded up to whole days and turned
into CaseRecords exactly the way the real line-list is, so simulated cohorts
feed every estimator in the package unchanged.  This is the ground-truth
oracle used throughout the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .timeline import QUARANTINE_DAY, R_SWITCH, STAGE_BREAK_DAY, CaseRecord, check_finite

__all__ = [
    "IncubationDist",
    "GenerativeParams",
    "params_from_theta",
    "sample_population_arrays",
    "selection_mask",
    "sample_exported",
]


@dataclass(frozen=True)
class IncubationDist:
    """Incubation-period distribution: Gamma(shape, rate) or a discrete pmf on 0..K-1.

    Give alpha and beta, or pmf alone; a pmf is stored as a tuple of floats.
    """

    alpha: float | None = None
    beta: float | None = None
    pmf: tuple[float, ...] | None = None

    def __post_init__(self):
        given = (self.alpha is not None, self.beta is not None, self.pmf is not None)
        if given not in ((True, True, False), (False, False, True)):
            raise ValueError("give alpha and beta, or pmf alone")
        if self.pmf is None:
            check_finite({"alpha": self.alpha, "beta": self.beta})
            if not (self.alpha > 0 and self.beta > 0):
                raise ValueError(f"need alpha, beta > 0, got ({self.alpha}, {self.beta})")
            return
        p = np.asarray(self.pmf, dtype=float)
        if p.ndim != 1 or p.size == 0 or not np.all(p >= 0):
            raise ValueError("pmf must be a 1-D nonnegative array")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"pmf sums to {p.sum()!r}, not 1")
        object.__setattr__(self, "pmf", tuple(float(x) for x in p))

    @classmethod
    def gamma(cls, alpha: float, beta: float) -> "IncubationDist":
        return cls(alpha=alpha, beta=beta)

    @classmethod
    def discrete(cls, pmf) -> "IncubationDist":
        return cls(pmf=pmf)

    @property
    def kind(self) -> str:
        return "gamma" if self.pmf is None else "discrete"

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.pmf is None:
            return rng.gamma(shape=self.alpha, scale=1.0 / self.beta, size=n)
        return rng.choice(len(self.pmf), size=n, p=np.asarray(self.pmf)).astype(float)


def _exp_mass(coef: float, rate: float, a, b) -> np.ndarray:
    """Integral of coef*e^{rate t} over [a, b] (vectorized, 0 when b <= a)."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    width = np.maximum(b - a, 0.0)
    if abs(rate) < R_SWITCH:
        return coef * width
    return coef / rate * np.exp(rate * a) * np.expm1(rate * width)


@dataclass(frozen=True)
class GenerativeParams:
    """Full parameter set of the population process.

    pi is the visitor fraction (B > 0); lambda_w / lambda_v the per-day
    departure densities for residents / visitors (each at most 1/L); kappa
    and r (optionally r2 after day l1) define the epidemic curve
    g(t) = kappa e^{rt}; nu the symptomatic fraction; incubation the
    incubation-period law.  The horizon L is the travel-quarantine day,
    QUARANTINE_DAY, for every parameter set.
    """

    pi: float
    lambda_w: float
    lambda_v: float
    kappa: float
    r: float
    nu: float
    incubation: IncubationDist
    r2: float | None = None
    l1: float = float(STAGE_BREAK_DAY)
    L: ClassVar[float] = float(QUARANTINE_DAY)

    def __post_init__(self):
        check_finite({"kappa": self.kappa, "r": self.r, "r2": self.r2}, optional=("r2",))
        if not 0 <= self.pi <= 1:
            raise ValueError(f"need 0 <= pi <= 1, got {self.pi}")
        if not 0 <= self.nu <= 1:
            raise ValueError(f"need 0 <= nu <= 1, got {self.nu}")
        if self.kappa < 0:
            raise ValueError(f"need kappa >= 0, got {self.kappa}")
        for name, lam in (("lambda_w", self.lambda_w), ("lambda_v", self.lambda_v)):
            if not 0 <= lam * self.L <= 1 + 1e-12:
                raise ValueError(f"need 0 <= {name} <= 1/L, got {lam}")
        if self.r2 is not None and not 0 < self.l1 < self.L:
            raise ValueError(f"need 0 < l1 < L for two-stage growth, got l1={self.l1}")
        mass = float(self.growth_mass(0.0, self.L))
        if mass > 1.0 + 1e-9:
            raise ValueError(f"epidemic curve mass over [0, L] is {mass:.4g} > 1")

    # -- epidemic curve -----------------------------------------------------

    def _segments(self):
        """(start, end, coefficient, rate) pieces of the curve on [0, L]."""
        if self.r2 is None:
            return [(0.0, self.L, self.kappa, self.r)]
        # continuity at l1: kappa2 e^{r2 l1} = kappa e^{r l1}
        kappa2 = self.kappa * math.exp((self.r - self.r2) * self.l1)
        return [(0.0, self.l1, self.kappa, self.r),
                (self.l1, self.L, kappa2, self.r2)]

    def growth_mass(self, a, b) -> np.ndarray:
        """Exact integral of g over [a, b] (intersected with [0, L])."""
        a = np.maximum(np.asarray(a, float), 0.0)
        b = np.minimum(np.asarray(b, float), self.L)
        total = np.zeros(np.broadcast_shapes(a.shape, b.shape))
        for lo, hi, coef, rate in self._segments():
            total = total + _exp_mass(coef, rate, np.clip(a, lo, hi), np.clip(b, lo, hi))
        return total

    def _invert_mass(self, a: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Solve growth_mass(a, t) = target for t (target within the total mass)."""
        t = np.full(a.shape, np.nan)
        remaining = target.copy()
        done = np.zeros(a.shape, dtype=bool)
        for lo, hi, coef, rate in self._segments():
            seg_a = np.clip(a, lo, hi)
            seg_mass = _exp_mass(coef, rate, seg_a, hi)
            inside = ~done & (remaining <= seg_mass * (1 + 1e-12))
            if np.any(inside):
                if abs(rate) < R_SWITCH:
                    t_in = seg_a[inside] + remaining[inside] / coef
                else:
                    t_in = np.log(np.exp(rate * seg_a[inside])
                                  + rate * remaining[inside] / coef) / rate
                t[inside] = np.clip(t_in, seg_a[inside], hi)
                done |= inside
            remaining = remaining - np.where(done, 0.0, seg_mass)
        t[~done] = self.L  # numerical slop at the far end
        return t


def params_from_theta(rho: float, r: float, alpha: float, beta: float, *,
                      nu: float = 0.8, growth_mass: float = 0.5, r2: float | None = None,
                      l1: float = float(STAGE_BREAK_DAY)) -> GenerativeParams:
    """Generative parameters matching an inference parameter point.

    Departure densities are set equal (lambda_w = lambda_v = 1/L) so the
    travel mix rho = pi/(1-pi) determines the visitor fraction; kappa is
    scaled so the epidemic curve integrates to `growth_mass` over [0, L].
    """
    if not 0 < growth_mass <= 1:
        raise ValueError(f"need 0 < growth_mass <= 1, got {growth_mass}")
    if not rho >= 0:
        raise ValueError(f"need rho >= 0 (visitor travel mix), got {rho}")
    pi = rho / (1.0 + rho)
    lam = 1.0 / GenerativeParams.L
    probe = GenerativeParams(pi=pi, lambda_w=lam, lambda_v=lam, kappa=1e-12,
                             r=r, nu=nu, r2=r2, l1=l1,
                             incubation=IncubationDist.gamma(alpha, beta))
    unit_mass = float(probe.growth_mass(0.0, probe.L)) / 1e-12
    return GenerativeParams(pi=pi, lambda_w=lam, lambda_v=lam,
                            kappa=growth_mass / unit_mass, r=r, nu=nu, r2=r2, l1=l1,
                            incubation=IncubationDist.gamma(alpha, beta))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_population_arrays(n: int, params: GenerativeParams,
                             rng: np.random.Generator):
    """Vectorized population draw; returns (b, e, t, s) float arrays with inf
    for events that never happen."""
    L = params.L
    b = np.zeros(n)
    visitor = rng.random(n) < params.pi
    nv = int(visitor.sum())
    if nv:
        b[visitor] = (1.0 - rng.random(nv)) * L  # Uniform(0, L]

    lam = np.where(b == 0.0, params.lambda_w, params.lambda_v)
    leaves = rng.random(n) < (L - b) * lam
    e = np.full(n, np.inf)
    nl = int(leaves.sum())
    if nl:
        e[leaves] = b[leaves] + rng.random(nl) * (L - b[leaves])

    upper = np.minimum(e, L)  # infections only occur while the curve runs
    mass = params.growth_mass(b, upper)
    u = rng.random(n)
    t = np.full(n, np.inf)
    infected = u < mass
    if np.any(infected):
        t[infected] = params._invert_mass(b[infected], u[infected])

    s = np.full(n, np.inf)
    sympt = infected & (rng.random(n) < params.nu)
    ns = int(sympt.sum())
    if ns:
        s[sympt] = t[sympt] + params.incubation.sample(rng, ns)
    return b, e, t, s


def selection_mask(b, e, t, s) -> np.ndarray:
    """Vectorized membership in the selection set D, L = GenerativeParams.L."""
    b = np.asarray(b, float)
    e = np.asarray(e, float)
    t = np.asarray(t, float)
    s = np.asarray(s, float)
    return (b <= t) & (t <= e) & (e <= GenerativeParams.L) & (t <= s) & np.isfinite(s)


#: Population draws after which sample_exported gives up.
_MAX_DRAWS = 1_000_000_000


def sample_exported(m: int, params: GenerativeParams, rng: np.random.Generator,
                    discretize_days: bool = True) -> tuple[list[CaseRecord], float | None]:
    """Rejection-sample m exported cases.

    Returns the CaseRecords (integer days by ceiling, then the standard
    sub-day offsets) and the realized acceptance rate m/draws (None when
    m = 0).  Aborts if more than _MAX_DRAWS population draws would be needed.
    With discretize_days=False the records keep the exact continuous event
    times (integer fields still hold the ceilings); day-rounding plus the
    fixed sub-day offsets shifts growth-rate estimates by a few percent, so
    estimator-calibration studies should use exact times.
    """
    if m < 0:
        raise ValueError(f"m must be at least 0, got {m}")
    if m == 0:
        return [], None
    if not (params.kappa > 0 and params.nu > 0):
        raise ValueError("selection probability is zero (kappa or nu is 0)")
    kept_b, kept_e, kept_s = [], [], []
    got, draws = 0, 0
    batch = max(4096, 2 * m)
    while got < m:
        if draws >= _MAX_DRAWS:
            raise RuntimeError("selection probability too small: "
                               f"{got}/{m} accepted after {draws} draws")
        batch = int(min(batch, _MAX_DRAWS - draws))
        b, e, t, s = sample_population_arrays(batch, params, rng)
        keep = selection_mask(b, e, t, s)
        kept_b.append(b[keep])
        kept_e.append(e[keep])
        kept_s.append(s[keep])
        got += int(keep.sum())
        draws += batch
        rate_so_far = max(got / draws, 1e-9)
        batch = int(np.clip((m - got) * 1.5 / rate_so_far + 1024, 4096, 2_000_000))
    b = np.concatenate(kept_b)[:m]
    e = np.concatenate(kept_e)[:m]
    s = np.concatenate(kept_s)[:m]
    width = len(str(m))
    records = [CaseRecord.from_ints(f"sim-{i + 1:0{width}d}", int(math.ceil(bi)),
                                    int(math.ceil(ei)), int(math.ceil(si)))
               for i, (bi, ei, si) in enumerate(zip(b, e, s))]
    if not discretize_days:
        records = [replace(rec, B=float(bi), E=float(ei), S=float(si))
                   for rec, bi, ei, si in zip(records, b, e, s)]
    return records, m / draws
