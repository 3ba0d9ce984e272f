"""Shared fixtures: synthetic cohorts and the optional real case table."""

from __future__ import annotations

import os

import numpy as np
import pytest

from bets import generative, timeline

_HERE = os.path.dirname(__file__)

# One line per acceptance criterion, filled in by tests/test_acceptance.py and
# echoed after the run (passing tests' stdout is otherwise captured).
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def real_table_path() -> str | None:
    """Path of the published case table, when supplied as a fixture."""
    env = os.environ.get("BETS_CASE_TABLE")
    if env and os.path.exists(env):
        return env
    default = os.path.join(_HERE, "data", "case_table.csv")
    return default if os.path.exists(default) else None


@pytest.fixture(scope="session")
def real_cohort():
    """The published cohort under the default inclusion rules, or skip."""
    path = real_table_path()
    if path is None:
        pytest.skip("real case table not supplied "
                    "(set BETS_CASE_TABLE or add tests/data/case_table.csv)")
    with open(path, encoding="utf-8") as fh:
        raw = timeline.parse_case_table(fh)
    cohort, report = timeline.build_cohort(raw)
    return cohort, report


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes timeline.usable_cpus report n CPUs for the rest of the
    test, so parallel_map and bayes.rwmh_run split their work over up to n
    processes; cpus(1) runs everything in the test's own process."""
    return lambda n: monkeypatch.setattr(timeline, "usable_cpus", lambda: n)


@pytest.fixture(scope="session")
def sim_params():
    return generative.params_from_theta(0.45, 0.30, 1.86, 0.33)


@pytest.fixture(scope="session")
def sim_cohort_800(sim_params):
    """800 day-discretized simulated cases at the reference parameter point."""
    rng = np.random.default_rng(20260823)
    records, acceptance = generative.sample_exported(800, sim_params, rng)
    return records, acceptance


@pytest.fixture(scope="session")
def sim_cohort_exact_1500(sim_params):
    """1500 exact-time simulated cases at the reference parameter point."""
    rng = np.random.default_rng(915)
    records, _ = generative.sample_exported(1500, sim_params, rng,
                                            discretize_days=False)
    return records
