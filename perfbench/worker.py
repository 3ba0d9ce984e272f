"""One fresh interpreter of the bets benchmark.

Usage: python3 perfbench/worker.py JOB.json

The job names the checkout root, the `bets` argv lists to run and where to
write the result.  The worker times `import bets.cli` (setup_s), then runs
each argv through bets.cli.main, the function behind the `bets` console
script, timing each call.  A job may also write an mcmc cohort
("discrete_cohort"), time the layer probes ("probe"), trace the run
("trace") and, after the timed commands, evaluate the mcmc cohort at fixed
states ("fixed_states").  bets output on stdout and stderr is captured; the
last lines of stderr go into the result.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

#: Timings of the calibration kernel at each calibration point.
CALIBRATION_REPEATS = 7


def calibrate(numpy, special) -> list:
    """Seconds a fixed mix of interpreter and special-function work takes,
    timed CALIBRATION_REPEATS times.

    It tracks how fast the machine runs at the moment; bets code plays no
    part in it.
    """
    x = numpy.linspace(0.1, 20.0, 800)
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        for _ in range(20):
            special.gammainc(1.9, x)
        times.append(time.perf_counter() - t0)
    return times


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.join(job["root"], "src"))
    t0 = time.perf_counter()
    import bets.cli
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy
    from scipy import special

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import probes
    import tracer

    result = {"setup_s": setup_s, "commands": [], "probes": {},
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if "discrete_cohort" in job:
        probes.write_discrete_cohort(**job["discrete_cohort"])
    if "probe" in job:
        result["probes"] = probes.probe(**job["probe"])
    trace = None
    if job.get("trace"):
        trace = tracer.Tracer()
        trace.install()
        probes.tour(job["workdir"])
    calibration = [calibrate(numpy, special)]
    for argv in job["commands"]:
        out, err = io.StringIO(), io.StringIO()
        wall, cpu = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = bets.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the flags
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an uncaught error is a failed command
                rc = f"{type(exc).__name__}: {exc}"
        result["commands"].append({
            "rc": rc, "wall_s": time.perf_counter() - wall,
            "cpu_s": time.process_time() - cpu,
            "stderr": err.getvalue()[-500:]})
        calibration.append(calibrate(numpy, special))
    result["calibration_s"] = calibration
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace is not None:
        trace.save(job["spans"])
    if "fixed_states" in job:  # untimed; a failure shows as a missing file
        try:
            probes.write_fixed_states(**job["fixed_states"])
        except Exception as exc:
            result["fixed_states_error"] = f"{type(exc).__name__}: {exc}"
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
