"""The bets benchmark: user-facing `bets` command sequences on generated cohorts.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fit-ci|bias-demo|mcmc --seed N \\
        --seconds S --trace 0|1 [--scale full|smoke]

The run takes round(S / budget) cohorts (workloads.py), chosen by --seed
from the recorded pool, and runs each cohort's command sequence in its own
fresh interpreter (worker.py), one at a time.  Every command's output is
checked against its recorded fingerprint; a command that exits non-zero,
writes nothing or misses its fingerprint counts as failed.

--trace 0 prints the end-to-end metrics, each the median over the run's
cohorts.  --trace 1 runs the first cohort twice, once untraced and once
traced (tracer.py), times the layer probes (probes.py) and prints the
per-layer metrics.  Times are scaled to the reference machine's speed by a
calibration kernel the worker times between commands.  Human-readable lines
come first; the last line of stdout is one JSON object.  Working files go
to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from statistics import median

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
#: One worker may run this long before the run is abandoned.
WORKER_TIMEOUT_S = 150
#: Keep numerical libraries to one thread: nothing in a run is parallel.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS")}
#: Seconds worker.calibrate takes on the reference machine.  Times are
#: reported scaled to that speed; see RATIONALE.md.
CALIBRATION_REF_S = 0.009


class BenchError(Exception):
    pass


def run_worker(root: str, workdir: str, tag: str, job: dict) -> dict:
    """Run one job in a fresh interpreter and return its result."""
    job = dict(job, root=root, workdir=workdir,
               result=os.path.join(workdir, f"{tag}.result.json"))
    job_path = os.path.join(workdir, f"{tag}.job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, WORKER, job_path], cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(job["result"], encoding="utf-8") as fh:
        return json.load(fh)


def run_cohort(root, workdir, workload, scale, cohort_seed, tag, extra=None,
               recording=False) -> dict:
    """One cohort's command sequence in a fresh interpreter, outputs checked
    against the recorded fingerprints (unless `recording` them)."""
    d = os.path.join(workdir, tag)
    cmds = workloads.commands(workload, scale, cohort_seed, d)
    ref = None if recording else workloads.load_fingerprints(scale, workload).get(
        str(cohort_seed))
    job = {"commands": [c.argv for c in cmds], **(extra or {})}
    if workload == "mcmc":
        cohort = os.path.join(d, "cohort.csv")
        job["discrete_cohort"] = {"n": workloads.SCALES[scale]["mcmc"]["n"],
                                  "seed": cohort_seed, "path": cohort}
        job["fixed_states"] = {
            "cohort": cohort, "outdir": os.path.dirname(cmds[-1].output),
            "states": ref["mcmc"]["last_draws"] if ref else None}
    res = run_worker(root, workdir, tag, job)
    res["failures"] = []
    for cmd, out in zip(cmds, res["commands"]):
        out.update(name=cmd.name, output=cmd.output, kind=cmd.kind)
        if recording:
            continue
        problem = check(cmd, out, None if ref is None else ref.get(cmd.name))
        if problem and "fixed_states_error" in res:
            problem += f"; fixed states: {res['fixed_states_error']}"
        if problem:
            res["failures"].append(f"cohort {cohort_seed} {cmd.name}: {problem}")
    return res


def check(cmd: workloads.Command, out: dict, ref: dict | None) -> str | None:
    if out["rc"] != 0:
        return f"exit {out['rc']}: {out['stderr'].strip()}"
    if not os.path.exists(cmd.output) or os.path.getsize(cmd.output) == 0:
        return f"wrote no {os.path.basename(cmd.output)}"
    if ref is None:
        return "no recorded fingerprint"
    try:
        got = workloads.extract(cmd.kind, cmd.output)
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return "; ".join(workloads.compare(cmd.kind, got, ref)) or None


def speed_factor(res: dict) -> float:
    """Reference-machine seconds per second of one worker.

    The worker times its calibration kernel before the first command and
    after each one; the factor is CALIBRATION_REF_S over the median of all
    those timings.
    """
    return CALIBRATION_REF_S / median(t for point in res["calibration_s"] for t in point)


def scaled_times(res: dict) -> list:
    """Each command's wall time scaled to the reference machine's speed."""
    factor = speed_factor(res)
    return [out["wall_s"] * factor for out in res["commands"]]


def end_to_end(results: list, workload: str) -> tuple[dict, list]:
    main = workloads.MAIN_COMMAND[workload]
    per_cmd: dict[str, list] = {}
    for res in results:
        for out, t in zip(res["commands"], scaled_times(res)):
            per_cmd.setdefault(out["name"], []).append((t, out["wall_s"]))
    metrics = {
        "setup_s": median([r["setup_s"] * speed_factor(r) for r in results]),
        "wall_s": median([sum(scaled_times(r)) for r in results]),
        "main_s": median([t for t, _ in per_cmd[main]]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in results]),
    }
    lines = [f"  {'raw setup_s':<16} {median([r['setup_s'] for r in results]):10.4f} s"]
    for name, v in per_cmd.items():
        lines.append(f"  {name + '_s':<16} {median([t for t, _ in v]):10.4f} s scaled, "
                     f"{median([w for _, w in v]):.4f} s raw; median of {len(v)}")
    return metrics, lines


def per_layer(root, workdir, workload, scale, cohort_seed) -> tuple[dict, list]:
    """Probes, then one untraced and one traced pass over the first cohort."""
    scales = workloads.SCALES[scale]
    fits = workloads.load_fingerprints(scale, "fit-ci").get(str(cohort_seed))
    if fits is None:
        raise BenchError(f"no recorded fit-ci fingerprint for cohort {cohort_seed}")
    probe = {"fit_n": scales["fit-ci"]["n"], "mcmc_n": scales["mcmc"]["n"],
             "seed": cohort_seed,
             "fits": {"uncond": fits["fit_uncond"], "cond": fits["fit_cond"]}}
    plain = run_cohort(root, workdir, workload, scale, cohort_seed, "untraced",
                       {"probe": probe})
    spans = os.path.join(workdir, "spans.json")
    traced = run_cohort(root, workdir, workload, scale, cohort_seed, "traced",
                        {"trace": True, "spans": spans})
    with open(spans, encoding="utf-8") as fh:
        metrics = _scale_times(tracer.layer_metrics(json.load(fh)), traced)
    metrics.update(_scale_times(plain["probes"], plain))
    plain_wall, traced_wall = sum(scaled_times(plain)), sum(scaled_times(traced))
    metrics.update({"trace.untraced_wall_s": plain_wall, "trace.wall_s": traced_wall,
                    "trace.overhead_s": traced_wall - plain_wall})
    return metrics, [plain, traced]


def _scale_times(metrics: dict, res: dict) -> dict:
    """Times (s, us, ns) scaled to the reference machine's speed."""
    factor = speed_factor(res)
    units = declared("per_layer")
    return {k: v * factor if units.get(k) in ("s", "us", "ns") else v
            for k, v in metrics.items()}


def declared(kind: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares."""
    with open(os.path.join(os.path.dirname(WORKER), os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                    help="'smoke' runs tiny cohorts, for the benchmark's own test")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bets", "cli.py")):
        print(f"error: no bets sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench", f"{args.workload}-{args.scale}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    count = workloads.cohort_count(args.workload, args.scale, args.seconds)
    seeds = workloads.cohort_seeds(args.seed, count, args.scale)
    print(f"workload {args.workload} ({args.scale}), seed {args.seed}: "
          f"cohorts {seeds}, nproc {os.cpu_count()}, one worker at a time, "
          f"BLAS threads 1")
    t0 = time.perf_counter()
    try:
        if args.trace:
            metrics, results = per_layer(root, workdir, args.workload, args.scale, seeds[0])
            units = declared("per_layer")
            lines = [f"  {k:<34} {v:14.6g} {units.get(k, '')}" for k, v in metrics.items()]
        else:
            results = [run_cohort(root, workdir, args.workload, args.scale, s, f"c{s}")
                       for s in seeds]
            metrics, lines = end_to_end(results, args.workload)
            units = declared("end_to_end")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    versions = results[0]["versions"]
    print(f"python {versions['python']}, numpy {versions['numpy']}, "
          f"scipy {versions['scipy']}; {time.perf_counter() - t0:.1f} s")
    print("\n".join(lines))
    failures = [f for r in results for f in r["failures"]]
    for f in failures:
        print(f"FAILED {f}")
    attempted = sum(len(r["commands"]) for r in results)
    missing = sorted(k for k in units if not math.isfinite(metrics.get(k, math.nan)))
    if missing:
        print(f"error: no finite value for {missing}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and not missing, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()
                    if k not in missing}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
