"""Workloads of the bets benchmark: cohorts, command lines and fingerprints.

Standard library only, so run.py can use it without importing bets.

Every workload runs one fixed command sequence per cohort.  A run with
``--seed n`` draws its cohorts from a pool of POOL recorded cohort seeds, so
that every command's output can be checked against the fingerprint recorded
for that cohort (``fingerprints/<scale>-<workload>.json``, written by
``record.py``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
FINGERPRINTS = os.path.join(HERE, "fingerprints")

#: Recorded cohort seeds per workload and scale; --seed picks from 0..POOL-1.
POOL = {"full": 48, "smoke": 4}

#: Sizes per scale.  A run takes round(--seconds / budget_s) cohorts, at
#: least min_cohorts; budget_s is about what one cohort's sequence costs on
#: the reference machine, fresh interpreter included.
SCALES = {
    "full": {
        "fit-ci": {"n": 800, "budget_s": 7.5, "min_cohorts": 3},
        "bias-demo": {"n": 300, "from": "2020-01-23", "to": "2020-01-29",
                      "budget_s": 7.0, "min_cohorts": 3},
        "mcmc": {"n": 1000, "steps": 400, "budget_s": 5.0, "min_cohorts": 3},
    },
    "smoke": {
        "fit-ci": {"n": 120, "budget_s": 4.0, "min_cohorts": 1},
        "bias-demo": {"n": 100, "from": "2020-01-26", "to": "2020-01-27",
                      "budget_s": 2.5, "min_cohorts": 1},
        "mcmc": {"n": 150, "steps": 200, "budget_s": 2.5, "min_cohorts": 1},
    },
}

WORKLOADS = tuple(SCALES["full"])


@dataclass(frozen=True)
class Command:
    """One `bets` invocation: its argv, the file it must write, how to check it."""

    name: str
    argv: list
    output: str
    kind: str  # fingerprint kind: cohort, fit, ci, sweep, mcmc


def cohort_seeds(seed: int, count: int, scale: str) -> list[int]:
    """The run's cohort seeds: `count` distinct pool cohorts drawn by `seed`."""
    return random.Random(seed).sample(range(POOL[scale]), min(count, POOL[scale]))


def cohort_count(workload: str, scale: str, seconds: float) -> int:
    cfg = SCALES[scale][workload]
    return max(cfg["min_cohorts"], int(seconds / cfg["budget_s"] + 0.5))


def commands(workload: str, scale: str, cohort_seed: int, d: str) -> list[Command]:
    """The timed command sequence of one cohort, all output under directory d."""
    cfg = SCALES[scale][workload]
    s = str(cohort_seed)
    cohort = os.path.join(d, "cohort.csv")
    if workload == "fit-ci":
        return [
            Command("simulate", ["simulate", "--n", str(cfg["n"]), "--seed", s, "--out", d],
                    cohort, "cohort"),
            Command("fit_uncond", ["fit", "--in", cohort, "--likelihood", "uncond",
                                   "--seed", s, "--out", os.path.join(d, "uncond")],
                    os.path.join(d, "uncond", "fit.json"), "fit"),
            Command("fit_cond", ["fit", "--in", cohort, "--likelihood", "cond",
                                 "--seed", s, "--out", os.path.join(d, "cond")],
                    os.path.join(d, "cond", "fit.json"), "fit"),
            Command("ci_profile", ["ci", "--in", cohort, "--likelihood", "uncond",
                                   "--param", "doubling-time", "--seed", s,
                                   "--out", os.path.join(d, "ci")],
                    os.path.join(d, "ci", "ci.json"), "ci"),
        ]
    if workload == "bias-demo":
        return [
            Command("simulate", ["simulate", "--n", str(cfg["n"]), "--confirm-lag", "5",
                                 "--seed", s, "--out", d], cohort, "cohort"),
            Command("bias_demo", ["bias-demo", "--in", cohort, "--from", cfg["from"],
                                  "--to", cfg["to"], "--seed", s,
                                  "--out", os.path.join(d, "sweep")],
                    os.path.join(d, "sweep", "sweep.json"), "sweep"),
        ]
    if workload == "mcmc":
        # the cohort itself is written in set-up (see probes.discrete_cohort)
        return [
            Command("mcmc", ["mcmc", "--in", cohort, "--strata", "gender", "--chains", "4",
                             "--steps", str(cfg["steps"]), "--seed", s,
                             "--out", os.path.join(d, "mcmc")],
                    os.path.join(d, "mcmc", "mcmc_summary.json"), "mcmc"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


#: The command whose time is reported as main_s.
MAIN_COMMAND = {"fit-ci": "ci_profile", "bias-demo": "bias_demo", "mcmc": "mcmc"}


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

#: Relative tolerances.  log_lik: ROADMAP's 1e-9.  Display values and sweep
#: quantiles come from a simplex search stopped at xatol 1e-8 in log
#: coordinates.  CI endpoints come from a bisection stopped once the
#: likelihood-ratio discrepancy is within 5e-4, which leaves ~1e-5 of play.
#: The mcmc seed fixes every chain, so posterior means and the last draw of
#: each chain are held to TOL_LOG_LIK as well, and so are the log-likelihood
#: and log-posterior at fixed states (probes.write_fixed_states).
TOL_LOG_LIK = 1e-9
TOL_DISPLAY = 1e-6
TOL_CI = 1e-4

#: File the worker writes next to the mcmc output: the log-likelihood and
#: log-posterior at the reference state and at each chain's recorded last draw.
FIXED_STATES = "fixed_states.json"


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def last_draws(outdir: str) -> list[dict]:
    """The last row of each draws_chain<k>.csv under outdir, column -> value."""
    rows = []
    k = 0
    while os.path.exists(os.path.join(outdir, f"draws_chain{k}.csv")):
        with open(os.path.join(outdir, f"draws_chain{k}.csv"), newline="") as fh:
            *_, last = csv.DictReader(fh)
        rows.append({c: float(v) for c, v in last.items() if c != "draw"})
        k += 1
    return rows


def extract(kind: str, path: str) -> dict:
    """The fingerprint of one command's output file."""
    if kind == "cohort":
        with open(path, "rb") as fh:
            return {"sha256": hashlib.sha256(fh.read()).hexdigest()}
    doc = _load(path)
    if kind == "fit":
        return {"log_lik": doc["log_lik"], "display": doc["display"],
                "converged": doc["converged"], "theta": doc["theta"]}
    if kind == "ci":
        ci = doc["ci"]
        return {k: ci[k] for k in ("lo", "hi", "lower_bracketed", "upper_bracketed")}
    if kind == "sweep":
        return {"rows": [[r["cutoff"], r["model"], r["fitted"], r["median"], r["q95"]]
                         for r in doc["rows"]]}
    if kind == "mcmc":
        outdir = os.path.dirname(path)
        return {"mean": {k: v["mean"] for k, v in doc["summaries"].items()},
                "last_draws": last_draws(outdir),
                "fixed": _load(os.path.join(outdir, FIXED_STATES))}
    raise ValueError(f"unknown fingerprint kind {kind!r}")


def _close(got, ref, rel: float) -> bool:
    if got is None or ref is None or got == ref:
        return got == ref
    return abs(got - ref) <= rel * max(1.0, abs(ref))


def compare(kind: str, got: dict, ref: dict) -> list[str]:
    """Mismatches between a fingerprint and its recorded reference."""
    bad = []
    if kind == "cohort":
        if got["sha256"] != ref["sha256"]:
            bad.append("cohort.csv differs from the recorded cohort")
    elif kind == "fit":
        if not _close(got["log_lik"], ref["log_lik"], TOL_LOG_LIK):
            bad.append(f"log_lik {got['log_lik']!r} != {ref['log_lik']!r}")
        if got["converged"] != ref["converged"]:
            bad.append(f"converged {got['converged']} != {ref['converged']}")
        for key, val in ref["display"].items():
            if not _close(got["display"].get(key), val, TOL_DISPLAY):
                bad.append(f"display.{key} {got['display'].get(key)!r} != {val!r}")
    elif kind == "ci":
        for key in ("lo", "hi"):
            if not _close(got[key], ref[key], TOL_CI):
                bad.append(f"ci.{key} {got[key]!r} != {ref[key]!r}")
        for key in ("lower_bracketed", "upper_bracketed"):
            if got[key] != ref[key]:
                bad.append(f"ci.{key} {got[key]} != {ref[key]}")
    elif kind == "sweep":
        if len(got["rows"]) != len(ref["rows"]):
            bad.append(f"{len(got['rows'])} sweep rows, recorded {len(ref['rows'])}")
        for g, r in zip(got["rows"], ref["rows"]):
            if g[:3] != r[:3] or not (_close(g[3], r[3], TOL_DISPLAY)
                                      and _close(g[4], r[4], TOL_DISPLAY)):
                bad.append(f"sweep row {g} != recorded {r}")
    elif kind == "mcmc":
        for key, val in ref["mean"].items():
            if not _close(got["mean"].get(key), val, TOL_LOG_LIK):
                bad.append(f"posterior mean {key} {got['mean'].get(key)!r} != {val!r}")
        if len(got["last_draws"]) != len(ref["last_draws"]):
            bad.append(f"{len(got['last_draws'])} chains, recorded {len(ref['last_draws'])}")
        for k, (g, r) in enumerate(zip(got["last_draws"], ref["last_draws"])):
            off = sorted(c for c, v in r.items() if not _close(g.get(c), v, TOL_LOG_LIK))
            if off:
                bad.append(f"chain {k} last draw differs in {off}")
        for key in ("log_lik", "log_post"):
            g, r = got["fixed"].get(key, []), ref["fixed"][key]
            if len(g) != len(r) or not all(map(_close, g, r, [TOL_LOG_LIK] * len(r))):
                bad.append(f"{key} at the fixed states {g} != recorded {r}")
    return bad


def fingerprint_path(scale: str, workload: str) -> str:
    return os.path.join(FINGERPRINTS, f"{scale}-{workload}.json")


def load_fingerprints(scale: str, workload: str) -> dict:
    """cohort seed (as a string) -> command name -> recorded fingerprint."""
    path = fingerprint_path(scale, workload)
    return _load(path) if os.path.exists(path) else {}
