"""Smoke test of the benchmark itself, on tiny cohorts.

Run from the checkout root:  python3 -m pytest -q perfbench/test_smoke.py
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

WORKLOADS = ("fit-ci", "bias-demo", "mcmc")
COUNTS = ("likelihood.terms_calls", "likelihood.igamma_elems", "likelihood.quantile_calls",
          "likelihood.igammainv_calls", "inference.fit_calls", "inference.objective_evals",
          "bayes.target_evals", "bayes.logsumexp_calls")


def declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_with_its_unit(workload, trace):
    res = result(bench(workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and res["failed"] == 0  # fail ratio 0
    want = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_traced_counts_repeat_exactly():
    first, second = (result(bench("fit-ci", 1))["metrics"] for _ in range(2))
    assert {k: first[k]["value"] for k in COUNTS} == {k: second[k]["value"] for k in COUNTS}


def test_mcmc_check_is_tight():
    """The seed fixes the chains, so a shift of 1e-7 anywhere is a mismatch."""
    ref = workloads.load_fingerprints("smoke", "mcmc")["0"]["mcmc"]
    assert workloads.compare("mcmc", ref, ref) == []
    mean, draw = next(iter(ref["mean"])), next(iter(ref["last_draws"][-1]))
    for path in (("mean", mean), ("last_draws", -1, draw), ("fixed", "log_lik", 0),
                 ("fixed", "log_post", -1)):
        got = copy.deepcopy(ref)
        *parents, leaf = path
        node = got
        for key in parents:
            node = node[key]
        node[leaf] += 1e-7 * max(1.0, abs(node[leaf]))
        assert workloads.compare("mcmc", got, ref), path


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("fit-ci", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
