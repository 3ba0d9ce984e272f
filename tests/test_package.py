"""Package-level checks: every exported name resolves."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import bets
from bets import timeline
from helpers import discrete_cohort

MODULES = ["bets"] + [f"bets.{m.name}" for m in pkgutil.iter_modules(bets.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    """A stale __all__ entry would also hide a function from tools that
    wrap a module's __all__ by name."""
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


def test_inference_reaches_the_terms_only_through_case_terms():
    """One path from a case list to the per-case terms: likelihood.case_terms."""
    import bets.inference
    bound = {"case_arrays", "cond_log_terms", "uncond_log_terms", "trunc_log_terms"}
    assert bound.isdisjoint(vars(bets.inference))
    assert bets.inference.case_terms is bets.likelihood.case_terms


def _bets_imports(module: str) -> dict[str, set[str]]:
    """{bets module: the names taken from it} of one module's source; a
    module imported whole (`from . import timeline`) maps to no names, and
    a name taken from the package itself is listed under "__init__"."""
    src = os.path.dirname(bets.__file__)
    with open(os.path.join(src, f"{module}.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("bets."):
                    found.setdefault(alias.name.removeprefix("bets."), set())
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "bets"
                                                   or node.module.startswith("bets.")):
            base = (node.module or "").removeprefix("bets").lstrip(".")
            for alias in node.names:
                if base:
                    found.setdefault(base, set()).add(alias.name)
                elif os.path.exists(os.path.join(src, f"{alias.name}.py")):
                    found.setdefault(alias.name, set())
                else:
                    found.setdefault("__init__", set()).add(alias.name)
    return found


@pytest.mark.parametrize("module", [m.removeprefix("bets.") for m in MODULES[1:]])
def test_no_private_name_crosses_a_module(module):
    """Each decision has one owner module; the others read it by a public name."""
    private = {f"{other}.{name}" for other, names in _bets_imports(module).items()
               for name in names if name.startswith("_") and not name.endswith("__")}
    assert private == set()


def test_the_model_and_the_sampler_stay_off_the_estimators():
    """bayes reads only timeline; the generative model (the tests' oracle)
    takes only the horizon and the r = 0 switch from likelihood, and its
    incubation law is given by shape and rate alone."""
    assert set(_bets_imports("bayes")) == {"timeline"}
    assert _bets_imports("generative")["likelihood"] == {"L_DEFAULT", "R_SWITCH"}
    params = inspect.signature(bets.generative.params_from_theta).parameters
    assert {"median", "q95"}.isdisjoint(params)


def test_every_layer_is_checked():
    layers = {"timeline", "generative", "likelihood", "inference", "bayes", "cli"}
    assert {f"bets.{m}" for m in layers} < set(MODULES)


def test_cli_import_leaves_scipy_stats_integrate_and_optimize_unloaded():
    """Every bets command imports bets.cli first; scipy.stats and
    scipy.integrate would add about half a second to each start, and
    scipy.optimize about 0.2 s and 22 MB (the simplex is
    inference._nelder_mead).  A fresh interpreter is needed because the
    test modules import scipy.stats and scipy.optimize."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bets.__file__)))
    probe = ("import sys, bets.cli; print(' '.join(m for m in sys.modules "
             "if m.startswith(('scipy.stats', 'scipy.integrate', 'scipy.optimize'))))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.split() == []


@pytest.fixture(scope="module")
def whole_day_cohort(tmp_path_factory) -> str:
    records, _ = discrete_cohort(150, np.random.default_rng(3))
    path = str(tmp_path_factory.mktemp("cohort") / "cohort.csv")
    timeline.write_cohort_csv(records, path)
    return path


@pytest.mark.parametrize("command, fits", [
    ((), False),
    (("mcmc", "--steps", "20", "--chains", "2"), False),
    (("plot-data", "--kind", "se-density"), False),
    (("fit",), True),
], ids=["import", "mcmc", "plot-data-se-density", "fit"])
def test_only_the_commands_that_fit_load_scipy(command, fits, whole_day_cohort, tmp_path):
    """import bets.cli loads no SciPy module, nor do the commands that fit
    nothing: the sampler's prior base pmf is a frozen table, and the fitting
    modules load inside the commands that fit.  A fit loads scipy.special
    (about 0.3 s) when it runs.  Each run is a fresh interpreter, as the
    test modules import SciPy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bets.__file__)))
    argv = [*command, "--in", whole_day_cohort, "--out", str(tmp_path)] if command else []
    probe = ("import sys, bets.cli; rc = bets.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
             "print(rc, *(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    rc, *loaded = out.stdout.splitlines()[-1].split()
    assert rc == "0", out.stderr
    if fits:
        assert "scipy.special" in loaded
    else:
        assert loaded == []
