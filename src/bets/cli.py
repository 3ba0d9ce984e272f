"""Command-line interface for cohort building, simulation, fitting and MCMC.

Each subcommand wraps one library workflow and writes machine-readable
artifacts (JSON/CSV) into an output directory (--out, or the
BETS_OUTPUT_DIR environment variable, or the working directory).  All
writes are atomic, outputs are deterministic given --seed, and every JSON
artifact embeds {version, seed, flags} provenance.

Only timeline loads with this module; each command imports the model module
it runs (generative, likelihood, inference or bayes), so no command compiles
a model it does not use.  scipy.special loads only with the fitting modules,
so mcmc, ingest, plot-data --kind se-density and simulate without --median
run without SciPy.

Exit codes: 0 success; 2 bad flags, unreadable or unparseable input;
3 empty cohort; 4 a module rejected the request (message forwarded).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import warnings
from datetime import date
from typing import TYPE_CHECKING

import numpy as np

from . import __version__, timeline
from .timeline import DEPARTURE, GROWTH, KINDS, STRATA, CaseRecord, CaseTableError

if TYPE_CHECKING:  # annotations only; see the module docstring
    from . import generative, inference, likelihood

_KIND_FLAG = {kind.replace("_", "-"): kind for kind in KINDS}
_PARAM_FLAG = {"rho": "rho", "doubling-time": "doubling_time",
               "median": "median_incubation", "q95": "q95_incubation"}


class CliError(Exception):
    """Carries an exit code alongside the message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _out_dir(args) -> str:
    out = args.out or os.environ.get("BETS_OUTPUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path: str, payload: dict, args) -> None:
    """payload plus the {version, seed, flags} provenance of the command."""
    flags = {key: value for key, value in vars(args).items() if key != "func"}
    provenance = {"version": __version__, "seed": getattr(args, "seed", None), "flags": flags}
    timeline.write_json(path, {**payload, "provenance": provenance})


def _parse_day(text: str) -> int:
    """Epoch day from an integer literal or a calendar date (ValueError if neither)."""
    try:
        return int(text)
    except ValueError:
        pass
    parsed = timeline.parse_date(text)
    if parsed is None:
        raise ValueError(f"no date in {text!r}")
    return timeline.to_epoch(parsed)


def _parse_date_flag(text: str) -> date:
    return timeline.from_epoch(_parse_day(text))


def _load_cohort(path: str, location: str | None = None) -> list[CaseRecord]:
    if not os.path.exists(path):
        raise CliError(2, f"input file not found: {path}")
    records = timeline.read_cohort(path)
    if not records:
        raise CliError(3, f"cohort is empty: {path}")
    if location is not None:
        records = [c for c in records if c.location == location]
        if not records:
            raise CliError(3, f"no cases at location {location!r}")
    return records


def _parse_fixed(pairs: list[str] | None) -> dict:
    fixed = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep:
            raise CliError(2, f"--fix wants name=value, got {pair!r}")
        key = _PARAM_FLAG.get(name, name.replace("-", "_"))
        try:
            fixed[key] = float(value)
        except ValueError:
            raise CliError(2, f"--fix {name}: {value!r} is not a number") from None
    return fixed


def _build_params(args) -> generative.GenerativeParams:
    """--median and --q95 together replace --shape and --rate; --stage-break
    needs --late-growth-rate."""
    from . import generative
    if (args.median is None) != (args.q95 is None):
        raise CliError(2, "give both --median and --q95 (or neither)")
    if args.stage_break is None:
        args.stage_break = generative.GenerativeParams.l1  # echoed in the provenance
    elif args.late_growth_rate is None:
        raise CliError(2, "--stage-break needs --late-growth-rate")
    shape, rate = args.shape, args.rate
    if args.median is not None:
        if not args.median < args.q95:
            raise CliError(2, f"--median ({args.median}) must be below --q95 ({args.q95})")
        from .likelihood import quantiles_to_shape_rate
        shape, rate = quantiles_to_shape_rate(args.median, args.q95)
    return generative.params_from_theta(
        args.rho, args.growth_rate, shape, rate, nu=args.symptomatic,
        growth_mass=args.infected_mass, r2=args.late_growth_rate, l1=args.stage_break)


def _params_dict(p: generative.GenerativeParams) -> dict:
    """simulate.json's parameters; simulate draws Gamma incubation only."""
    inc = {"kind": p.incubation.kind, "shape": p.incubation.alpha, "rate": p.incubation.beta}
    return {"visitor_fraction": p.pi, "leave_rate_resident": p.lambda_w,
            "leave_rate_visitor": p.lambda_v, "growth_scale": p.kappa,
            "growth_rate": p.r, "late_growth_rate": p.r2,
            "stage_break": p.l1, "horizon": p.L,
            "symptomatic_fraction": p.nu, "incubation": inc}


def _fit_from_flags(records: list[CaseRecord],
                    args) -> tuple[inference.FitResult, list[CaseRecord]]:
    """The fit the flags ask for, warning when it did not converge, and the
    records it was fitted to (those with onset by the truncation day, for
    cond-trunc)."""
    from . import inference
    kind = _KIND_FLAG[args.likelihood]
    M = None
    if kind == "cond_trunc":
        if args.truncate_at is None:
            raise CliError(2, "--likelihood cond-trunc needs --truncate-at")
        M = float(_parse_day(args.truncate_at))
        records = [c for c in records if c.S <= M]
        if not records:
            raise CliError(3, "no cases at or before the truncation day")
    fixed = _parse_fixed(getattr(args, "fix", None))
    options = inference.FitOptions(seed=args.seed)
    fit = inference.mle_fit(records, kind, M=M, fixed=fixed, options=options)
    if not fit.converged:
        print(f"warning: the {args.likelihood} fit did not converge ({fit.message})",
              file=sys.stderr)
    return fit, records


def _theta_from_flags(records: list[CaseRecord], args) -> tuple[likelihood.ParamTheta, dict]:
    """(theta, fit info) from --growth-rate/--shape/--rate, else from a fit."""
    if args.growth_rate is None:
        fit, _ = _fit_from_flags(records, args)
        return fit.theta, dataclasses.asdict(fit)
    if args.shape is None or args.rate is None:
        raise CliError(2, "--growth-rate needs --shape and --rate too")
    from . import likelihood
    return (likelihood.ParamTheta(r=args.growth_rate, alpha=args.shape, beta=args.rate),
            {"source": "flags"})


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            raw = timeline.parse_case_table(fh, delimiter=args.delimiter)
    except FileNotFoundError:
        raise CliError(2, f"input file not found: {args.input}") from None
    rules = timeline.CohortRules(
        keep_outside=args.keep_outside,
        arrival_cutoff=_parse_date_flag(args.arrival_cutoff),
        impute_end_to=_parse_date_flag(args.impute_end_to),
        reclassify_outside=args.reclassify_outside)
    cohort, report = timeline.build_cohort(raw, rules)
    out = _out_dir(args)
    _write_json(os.path.join(out, "exclusions.json"),
                {"kept": report.n_kept, **dataclasses.asdict(report)}, args)
    if not cohort:
        raise CliError(3, "all rows excluded; see exclusions.json")
    if args.format == "json":
        timeline.write_cohort_json(cohort, os.path.join(out, "cohort.json"))
    else:
        timeline.write_cohort_csv(cohort, os.path.join(out, "cohort.csv"))
    print(f"kept {report.n_kept} of {report.n_input} cases -> {out}")
    return 0


def cmd_simulate(args) -> int:
    from . import generative
    params = _build_params(args)
    rng = np.random.default_rng(args.seed)
    records, acceptance = generative.sample_exported(args.n, params, rng)
    if args.confirm_lag is not None:
        lags = rng.poisson(args.confirm_lag, size=len(records))
        records = [CaseRecord.from_ints(c.case_id, c.B_int, c.E_int, c.S_int,
                                        confirmed_int=c.S_int + int(lag))
                   for c, lag in zip(records, lags)]
    out = _out_dir(args)
    timeline.write_cohort_csv(records, os.path.join(out, "cohort.csv"))
    _write_json(os.path.join(out, "simulate.json"),
                {"params": _params_dict(params), "seed": args.seed,
                 "n_cases": len(records), "acceptance_rate": acceptance}, args)
    print(f"simulated {len(records)} exported cases -> {out}")
    return 0


def cmd_fit(args) -> int:
    fit, _ = _fit_from_flags(_load_cohort(args.input, args.location), args)
    out = _out_dir(args)
    _write_json(os.path.join(out, "fit.json"), dataclasses.asdict(fit), args)
    if args.format == "table":
        rows = [("log_lik", fit.log_lik)] + [
            (k, v) for k, v in dataclasses.asdict(fit.display).items() if v is not None]
        width = max(len(k) for k, _ in rows)
        for k, v in rows:
            print(f"{k:<{width}}  {v:.4f}")
    else:
        print(f"fit ({fit.kind}, n={fit.n_cases}, converged={fit.converged}) -> "
              f"{os.path.join(out, 'fit.json')}")
    return 0


def cmd_ci(args) -> int:
    from . import inference
    fit, records = _fit_from_flags(_load_cohort(args.input, args.location), args)
    param = _PARAM_FLAG[args.param]
    if args.method == "profile":
        ci = inference.profile_ci(records, fit, param, level=args.level)
    else:
        ci = inference.bootstrap_ci(
            records, fit, param, n_boot=args.n_boot, level=args.level,
            rng=np.random.default_rng(args.seed), method=args.boot_method)
    out = _out_dir(args)
    _write_json(os.path.join(out, "ci.json"),
                {"param": param, "method": args.method, "fit": dataclasses.asdict(fit),
                 "ci": dataclasses.asdict(ci)}, args)
    print(f"{param} {args.method} CI: [{ci.lo:.4f}, {ci.hi:.4f}] -> {out}")
    return 0


def cmd_bias_demo(args) -> int:
    from . import inference
    records = _load_cohort(args.input)
    for row, case in enumerate(records, start=1):
        if case.confirmed_int is None:
            raise CaseTableError(f"cohort row {row} (case {case.case_id}): bias-demo "
                                 "needs confirmed_int on every case")
    day_from = _parse_day(args.date_from)
    day_to = _parse_day(args.date_to)
    if day_to < day_from:
        raise CliError(2, f"--to {args.date_to} is before --from {args.date_from}")
    cutoffs = list(range(day_from, day_to + 1))
    rows = inference.bias_sweep(records, cutoffs, m_offset=args.m_offset,
                                min_cases=args.min_cases, bootstrap_b=args.n_boot,
                                level=args.level, rng=np.random.default_rng(args.seed))
    out = _out_dir(args)
    _write_json(os.path.join(out, "sweep.json"),
                {"rows": [dataclasses.asdict(r) for r in rows]}, args)
    bands = []
    for r in rows:
        day_iso = timeline.from_epoch(r.cutoff).isoformat()
        for quantile in ("median", "q95"):
            band, est = getattr(r, f"{quantile}_ci"), getattr(r, quantile)
            lo, hi = (band.lo, band.hi) if band else ("", "")
            bands.append([day_iso, r.model, quantile, "" if est is None else est, lo, hi])
    timeline.atomic_write_text(os.path.join(out, "sweep.csv"), timeline.csv_text(
        ["date", "model", "quantile", "estimate", "lo", "hi"], bands))
    n_fitted = sum(r.fitted for r in rows)
    print(f"swept {len(cutoffs)} cutoffs x 3 models ({n_fitted} fits) -> {out}")
    return 0


def cmd_gof(args) -> int:
    from . import inference
    records = _load_cohort(args.input, args.location)
    theta, fit_info = _theta_from_flags(records, args)
    gof = inference.gof_onset_marginal(records, theta, min_expected=args.min_expected)
    out = _out_dir(args)
    _write_json(os.path.join(out, "gof.json"),
                {"fit": fit_info, "gof": dataclasses.asdict(gof)}, args)
    print(f"onset GOF: chi2={gof.statistic:.3f} dof={gof.dof} p={gof.p_value:.4f} -> {out}")
    return 0


def cmd_mcmc(args) -> int:
    from . import bayes
    config = bayes.DiscreteConfig(
        growth=args.growth.replace("-", "_"), departure=args.departure,
        mu=args.mu, strata=args.strata)
    data = None
    if not args.prior_only:
        if args.input is None:
            raise CliError(2, "--in is required unless --prior-only is set")
        data = bayes.DiscreteData.from_records(_load_cohort(args.input), config)
    store = bayes.rwmh_run(data, config, steps=args.steps, chains=args.chains,
                           seed=args.seed, thin=args.thin)
    out = _out_dir(args)

    labels = config.stratum_labels
    scalar_names = sorted(store.scalars)
    header = ["draw"] + scalar_names + [
        f"h_{lb}_{k}" for lb in labels for k in range(config.max_incubation)]
    for ci_ in range(store.n_chains):
        rows = []
        for di in range(store.n_draws):
            rows.append([di, *(store.scalars[nm][ci_, di] for nm in scalar_names),
                         *store.h[ci_, di].ravel()])  # strata-major, as the header
        timeline.atomic_write_text(os.path.join(out, f"draws_chain{ci_}.csv"),
                                   timeline.csv_text(header, rows))

    diag: dict = {"acceptance": store.acceptance.tolist(),
                  "step_sizes": store.step_sizes.tolist(),
                  "groups": store.group_names, "n_draws": store.n_draws,
                  "psrf": {}}
    for key, values in bayes.psrf_functionals(store).items():
        try:
            diag["psrf"][key] = bayes.psrf(values)
        except ValueError as exc:
            diag["psrf"][key] = None
            diag.setdefault("psrf_notes", {})[key] = str(exc)
    _write_json(os.path.join(out, "diagnostics.json"), diag, args)

    pmf = []
    for label in sorted(labels):
        si = labels.index(label)
        for k in range(config.max_incubation):
            band = bayes.summarize(store.h[:, :, si, k])
            pmf.append([label, k, band["mean"], band["lo"], band["hi"]])
    timeline.atomic_write_text(os.path.join(out, "posterior_pmf.csv"), timeline.csv_text(
        ["stratum", "days", "mean", "lo", "hi"], pmf))

    summary = bayes.posterior_summaries(store)
    _write_json(os.path.join(out, "mcmc_summary.json"),
                {"summaries": summary, "n_cases": store.n_cases,
                 "n_dropped": store.n_dropped,
                 "dropped": {} if data is None else data.dropped, "chains": store.n_chains,
                 "draws_per_chain": store.n_draws}, args)
    print(f"{store.n_chains} chains x {store.n_draws} draws -> {out}")
    return 0


def _kde_rows(records: list[CaseRecord], strata: str, bandwidth: float,
              step: float) -> list:
    key = STRATA[strata][1]
    groups: dict[str, list[float]] = {}
    for c in records:
        groups.setdefault(key(c), []).append(c.S - c.E)
    rows = []
    for label in sorted(groups):
        x = np.asarray(groups[label])
        grid = np.arange(math.floor(x.min() - 4 * bandwidth),
                         math.ceil(x.max() + 4 * bandwidth) + step / 2, step)
        dens = np.exp(-0.5 * ((grid[:, None] - x[None, :]) / bandwidth) ** 2)
        dens = dens.sum(axis=1) / (len(x) * bandwidth * math.sqrt(2 * math.pi))
        rows += [[label, float(g), float(d)] for g, d in zip(grid, dens)]
    return rows


def cmd_plot_data(args) -> int:
    out = _out_dir(args)
    records = _load_cohort(args.input, args.location)
    if args.kind == "onset-fit":
        from . import inference
        theta, _ = _theta_from_flags(records, args)
        days, observed, expected = inference.onset_fit_table(records, theta)
        rows = [[int(day), timeline.from_epoch(int(day)).isoformat(), int(obs), float(exp)]
                for day, obs, exp in zip(days, observed, expected)]
        timeline.atomic_write_text(os.path.join(out, "onset_fit.csv"), timeline.csv_text(
            ["day", "date", "observed", "expected"], rows))
    else:  # se-density
        rows = _kde_rows(records, args.strata, args.bandwidth, args.grid_step)
        timeline.atomic_write_text(os.path.join(out, "se_density.csv"),
                                   timeline.csv_text(["stratum", "x", "density"], rows))
    print(f"plot data ({args.kind}) -> {out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _number(convert, ok, what: str):
    """An argparse type: convert the text and require ok(value), so an
    out-of-domain value exits with 2 and a message naming the flag.  _DATE
    checks the date but keeps the text as typed, which the provenance echoes."""
    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, OverflowError):
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"need {what}, got {text!r}")
        return value
    return parse


_POSITIVE_INT = _number(int, lambda v: v > 0, "a positive integer")
_NON_NEGATIVE_INT = _number(int, lambda v: v >= 0, "a non-negative integer")
_POSITIVE = _number(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_NON_NEGATIVE = _number(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_FINITE = _number(float, math.isfinite, "a finite number")
# NumPy's Poisson refuses means above about 9.2e18; a lag past the last day a
# cohort file holds, far below that, exits 4 naming the case
_LAG = _number(float, lambda v: 0 <= v <= 1e18, "a number in [0, 1e18]")
_FRACTION = _number(float, lambda v: 0 < v <= 1, "a number in (0, 1]")
_LEVEL = _number(float, lambda v: 0 < v < 1, "a level strictly between 0 and 1")
_STAGE_DAY = _number(float, lambda v: 0 < v < timeline.QUARANTINE_DAY,
                     f"a day strictly between 0 and {timeline.QUARANTINE_DAY}")
_DATE = _number(lambda text: _parse_date_flag(text) and text, bool,
                f"a day number >= 0 or a date on or after {timeline.EPOCH_ORIGIN.isoformat()}")


_QUARANTINE = timeline.QUARANTINE_DATE.isoformat()


def _add_out(p) -> None:
    p.add_argument("--out", default=None, metavar="DIR",
                   help="output directory (default: $BETS_OUTPUT_DIR or '.')")


def _add_seed(p) -> None:
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0,
                   help="random seed (echoed in outputs)")


def _add_fit_flags(p, kinds=tuple(_KIND_FLAG)) -> None:
    p.add_argument("--in", dest="input", required=True, metavar="FILE",
                   help="cohort table (.csv or .json)")
    p.add_argument("--likelihood", choices=list(kinds), default="uncond",
                   help="which selection-adjusted likelihood to maximize")
    if "cond-trunc" in kinds:
        p.add_argument("--truncate-at", type=_DATE, default=None, metavar="DAY",
                       help="onset cutoff (date or day number) for cond-trunc")
    p.add_argument("--fix", action="append", metavar="NAME=VALUE",
                   help="pin a parameter (rho, doubling-time, median, q95, r)")
    p.add_argument("--location", default=None,
                   help="keep only cases confirmed at this location")


def _add_theta_flags(p) -> None:
    """The flags _theta_from_flags reads: a cond or uncond fit, or a given theta."""
    _add_fit_flags(p, kinds=("cond", "uncond"))
    p.add_argument("--growth-rate", type=_FINITE, default=None,
                   help="skip fitting; use this growth exponent")
    p.add_argument("--shape", type=_POSITIVE, default=None, help="with --growth-rate")
    p.add_argument("--rate", type=_POSITIVE, default=None, help="with --growth-rate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bets",
        description="Growth and incubation inference for travel-quarantine "
                    "selected epidemic case data.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ingest", help="parse a raw case table into an analysis cohort")
    p.add_argument("--in", dest="input", required=True, metavar="CSV",
                   help="raw case table")
    p.add_argument("--delimiter", default=",", help="input field delimiter")
    p.add_argument("--keep-outside", choices=["no", "likely", "yes"], default="no",
                   help="most suspicious outside-infection label to keep")
    p.add_argument("--arrival-cutoff", type=_DATE, default=_QUARANTINE, metavar="DATE",
                   help="drop cases arriving after this date")
    p.add_argument("--impute-end-to", type=_DATE, default=_QUARANTINE, metavar="DATE",
                   help="stay-end imputed to this date when missing")
    p.add_argument("--reclassify-outside", action="store_true",
                   help="recompute the outside label from stay and cluster data")
    p.add_argument("--format", choices=["csv", "json"], default="csv",
                   help="cohort output format")
    _add_out(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("simulate", help="draw a synthetic exported-case cohort")
    p.add_argument("--n", type=_POSITIVE_INT, required=True, help="number of exported cases")
    p.add_argument("--rho", type=_NON_NEGATIVE, default=0.45, help="visitor travel-mix parameter")
    p.add_argument("--growth-rate", type=_FINITE, default=0.30,
                   help="epidemic growth exponent per day")
    p.add_argument("--shape", type=_POSITIVE, default=1.86, help="incubation gamma shape")
    p.add_argument("--rate", type=_POSITIVE, default=0.33, help="incubation gamma rate")
    p.add_argument("--median", type=_POSITIVE, default=None,
                   help="incubation median (with --q95, replaces shape/rate)")
    p.add_argument("--q95", type=_POSITIVE, default=None,
                   help="incubation 95th percentile (with --median)")
    p.add_argument("--symptomatic", type=_FRACTION, default=0.8,
                   help="fraction of infections that develop symptoms")
    p.add_argument("--infected-mass", type=_FRACTION, default=0.5,
                   help="total infection probability over the whole window")
    p.add_argument("--late-growth-rate", type=_FINITE, default=None,
                   help="second-stage growth exponent (two-stage epidemic)")
    p.add_argument("--stage-break", type=_STAGE_DAY, default=None,
                   help=f"day the second growth stage starts (default "
                        f"{timeline.STAGE_BREAK_DAY}; with --late-growth-rate)")
    p.add_argument("--confirm-lag", type=_LAG, default=None,
                   help="mean onset-to-confirmation lag; adds Poisson confirmation days")
    _add_seed(p)
    _add_out(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="maximum-likelihood fit of growth and incubation")
    _add_fit_flags(p)
    p.add_argument("--format", choices=["json", "table"], default="json",
                   help="also print an aligned table to stdout")
    _add_seed(p)
    _add_out(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("ci", help="confidence interval for one fitted parameter")
    _add_fit_flags(p)
    p.add_argument("--param", choices=sorted(_PARAM_FLAG), required=True,
                   help="parameter to interval-estimate")
    p.add_argument("--method", choices=["profile", "bootstrap"], default="profile",
                   help="likelihood-ratio inversion or case-resampling bootstrap")
    p.add_argument("--level", type=_LEVEL, default=0.95, help="confidence level")
    p.add_argument("--n-boot", type=_POSITIVE_INT, default=200, help="bootstrap resamples")
    p.add_argument("--boot-method", choices=["basic", "percentile"], default="basic",
                   help="bootstrap interval construction")
    _add_seed(p)
    _add_out(p)
    p.set_defaults(func=cmd_ci)

    p = sub.add_parser("bias-demo",
                       help="incubation estimates by confirmation cutoff, three models")
    p.add_argument("--in", dest="input", required=True, metavar="FILE",
                   help="cohort table with confirmation dates")
    p.add_argument("--from", dest="date_from", type=_DATE, default=_QUARANTINE, metavar="DATE",
                   help="first confirmation cutoff (inclusive)")
    p.add_argument("--to", dest="date_to", type=_DATE, default="2020-02-18", metavar="DATE",
                   help="last confirmation cutoff (inclusive)")
    p.add_argument("--m-offset", type=_NON_NEGATIVE_INT, default=7,
                   help="days subtracted from the cutoff for the onset bound")
    p.add_argument("--min-cases", type=_POSITIVE_INT, default=20,
                   help="skip cutoffs with fewer cases")
    p.add_argument("--n-boot", type=_NON_NEGATIVE_INT, default=0,
                   help="bootstrap resamples per cutoff for bands (0 = none)")
    p.add_argument("--level", type=_LEVEL, default=0.95, help="band level")
    _add_seed(p)
    _add_out(p)
    p.set_defaults(func=cmd_bias_demo)

    p = sub.add_parser("gof", help="chi-square fit of the resident onset-day histogram")
    _add_theta_flags(p)
    p.add_argument("--min-expected", type=_POSITIVE, default=5.0,
                   help="minimum expected count per pooled bin")
    _add_seed(p)
    _add_out(p)
    p.set_defaults(func=cmd_gof)

    p = sub.add_parser("mcmc", help="Bayesian nonparametric fit on whole-day data")
    p.add_argument("--in", dest="input", default=None, metavar="FILE",
                   help="cohort table (optional with --prior-only)")
    p.add_argument("--steps", type=_POSITIVE_INT, default=80_000, help="iterations per chain")
    p.add_argument("--chains", type=_POSITIVE_INT, default=8, help="independent chains")
    p.add_argument("--mu", type=_POSITIVE, default=1.0, help="prior concentration")
    p.add_argument("--growth", choices=[g.replace("_", "-") for g in GROWTH],
                   default="single", help="epidemic curve: one exponent or a break at "
                                          f"day {timeline.STAGE_BREAK_DAY}")
    p.add_argument("--departure", choices=list(DEPARTURE), default="uniform",
                   help="departure-day model")
    p.add_argument("--strata", choices=list(STRATA), default="none",
                   help="fit a separate incubation pmf per stratum")
    p.add_argument("--thin", type=_POSITIVE_INT, default=10, help="keep every k-th draw")
    p.add_argument("--prior-only", action="store_true",
                   help="sample the bare prior (no data)")
    _add_seed(p)
    _add_out(p)
    p.set_defaults(func=cmd_mcmc)

    p = sub.add_parser("plot-data", help="emit long-format CSVs for plotting")
    p.add_argument("--kind", required=True,
                   choices=["onset-fit", "se-density"],
                   help="which dataset to emit")
    _add_theta_flags(p)
    p.add_argument("--strata", choices=list(STRATA), default="gender",
                   help="se-density grouping")
    p.add_argument("--bandwidth", type=_POSITIVE, default=1.0,
                   help="se-density Gaussian kernel width (days)")
    p.add_argument("--grid-step", type=_POSITIVE, default=0.25,
                   help="se-density evaluation grid step")
    _add_seed(p)
    _add_out(p)
    p.set_defaults(func=cmd_plot_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # a library warning reaches stderr as one line, without its source line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except CliError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.code
        except CaseTableError as exc:
            print(f"error: cannot parse input: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (ValueError, RuntimeError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4


if __name__ == "__main__":
    raise SystemExit(main())
