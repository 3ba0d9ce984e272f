"""Package-level checks: every exported name resolves."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import re
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
    """bayes and the generative model (the tests' oracle) read only
    timeline, and the model's incubation law is given by shape and rate
    alone."""
    assert set(_bets_imports("bayes")) == {"timeline"}
    assert set(_bets_imports("generative")) == {"timeline"}
    params = inspect.signature(bets.generative.params_from_theta).parameters
    assert {"median", "q95"}.isdisjoint(params)


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_name_it_never_reads(name):
    """Every name a module imports (but from __future__) is read somewhere
    in it, in code or in an unquoted annotation, or is listed in __all__:
    a standard-library stand-in for a linter's unused-import rule."""
    mod = importlib.import_module(name)
    with open(mod.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = set(getattr(mod, "__all__", ())) | {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - read) == []


def _readme_python_blocks() -> list[str]:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_examples_name_what_the_package_has():
    """Each python block of README.md parses, and every attribute chain it
    reads from a bets module it imports resolves (bayes.DiscreteData.from_records,
    likelihood.log_lik, ...), so a rename cannot leave the README stale.  The
    check is static: no example runs."""
    blocks = _readme_python_blocks()
    assert blocks
    missing = []
    for block in blocks:
        tree = ast.parse(block)
        bound = {}  # name -> the bets object it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bets":
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    target = getattr(mod, alias.name, None)
                    if target is None:  # a submodule not loaded by its package yet
                        target = importlib.import_module(f"{node.module}.{alias.name}")
                    bound[alias.asname or alias.name] = target
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in bound:
                obj = bound[node.id]
                for attr in reversed(chain):
                    if not hasattr(obj, attr):
                        missing.append(".".join([node.id, *reversed(chain)]))
                        break
                    obj = getattr(obj, attr)
    assert missing == []


def test_every_layer_is_checked():
    layers = {"timeline", "generative", "likelihood", "inference", "bayes", "cli"}
    assert {f"bets.{m}" for m in layers} < set(MODULES)


@pytest.fixture(scope="module")
def whole_day_cohort(tmp_path_factory) -> str:
    records, _ = discrete_cohort(150, np.random.default_rng(3))
    path = str(tmp_path_factory.mktemp("cohort") / "cohort.csv")
    timeline.write_cohort_csv(records, path)
    return path


@pytest.mark.parametrize("command, loads", [
    ((), ()),
    (("mcmc", "--steps", "20", "--chains", "2"), ()),
    (("plot-data", "--kind", "se-density"), ()),
    (("simulate", "--n", "50"), ()),
    (("simulate", "--n", "50", "--median", "5", "--q95", "12"), ("scipy.special",)),
    (("fit",), ("scipy.special",)),
], ids=["import", "mcmc", "plot-data-se-density", "simulate", "simulate-median", "fit"])
def test_only_the_commands_that_fit_load_scipy(command, loads, whole_day_cohort, tmp_path):
    """import bets.cli loads no SciPy module, nor do the commands that fit
    nothing: the sampler's prior base pmf is a frozen table, the simulator
    reads only timeline, and the fitting modules load inside the commands
    that fit.  A fit, and simulate's --median (a quantile inversion), load
    scipy.special (about 0.3 s) when they run, but never scipy.optimize,
    scipy.stats or scipy.integrate: the simplex is inference._nelder_mead.
    Each run is a fresh interpreter, as the test modules import SciPy."""
    loaded = _fresh_run(command, whole_day_cohort, tmp_path, "scipy")
    assert set(loads) <= set(loaded)
    heavy = ("scipy.optimize", "scipy.stats", "scipy.integrate")
    assert [m for m in loaded if m.startswith(heavy)] == []
    if not loads:
        assert loaded == []


@pytest.mark.parametrize("command, loads", [
    ((), ()),
    (("fit",), ("bets.inference", "bets.likelihood")),
    (("plot-data", "--kind", "se-density"), ()),
    (("mcmc", "--steps", "20", "--chains", "2"), ("bets.bayes",)),
], ids=["import", "fit", "plot-data-se-density", "mcmc"])
def test_each_command_loads_only_the_model_it_runs(command, loads, whole_day_cohort, tmp_path):
    """import bets.cli loads timeline alone among the bets modules: the
    parser reads its choices from timeline, and each command imports the
    model module it runs, so no command but mcmc compiles the sampler and
    mcmc loads neither fitting module."""
    models = ("bets.bayes", "bets.generative", "bets.inference", "bets.likelihood")
    assert sorted(_fresh_run(command, whole_day_cohort, tmp_path, *models)) == list(loads)


NEEDS_AFFINITY = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="no affinity call on this platform")


@pytest.mark.parametrize("command, prefixes", [
    ((), ("multiprocessing", "concurrent")),
    pytest.param(("mcmc", "--steps", "20", "--chains", "2"),
                 ("multiprocessing", "concurrent"), marks=NEEDS_AFFINITY),
    pytest.param(("fit",), ("multiprocessing",), marks=NEEDS_AFFINITY),
], ids=["import", "mcmc-one-worker", "fit-one-worker"])
def test_one_worker_loads_no_process_pool(command, prefixes, whole_day_cohort, tmp_path):
    """import bets.cli loads neither multiprocessing nor concurrent.futures
    (15-25 ms together on a 2-core Xeon): timeline.parallel_map imports them
    only to start a pool, and a process that may run on one CPU starts none;
    the commands run in an interpreter that first narrows its own affinity
    mask to one CPU.  scipy.special imports concurrent.futures itself, so
    the fit is checked for multiprocessing."""
    assert _fresh_run(command, whole_day_cohort, tmp_path, *prefixes,
                      one_cpu=bool(command)) == []


def _fresh_run(command, cohort: str, out_dir, *prefixes: str, one_cpu: bool = False) -> list[str]:
    """The modules starting with one of prefixes that a fresh interpreter
    has loaded after `import bets.cli` and, when a command is given,
    bets.cli.main of it, with --in cohort (but for simulate) and --out
    out_dir; the command must exit 0.  With one_cpu the interpreter first
    restricts itself to the lowest CPU of its affinity mask."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bets.__file__)))
    argv = [*command, "--out", str(out_dir)] if command else []
    if command and command[0] != "simulate":
        argv += ["--in", cohort]
    pin = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
    probe = ((pin if one_cpu else "")
             + "import sys, bets.cli; rc = bets.cli.main(sys.argv[2:]) if sys.argv[2:] else 0; "
             "print(rc, *(m for m in sys.modules if m.startswith(tuple(sys.argv[1].split()))))")
    out = subprocess.run([sys.executable, "-c", probe, " ".join(prefixes), *argv],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    rc, *loaded = out.stdout.splitlines()[-1].split()
    assert rc == "0", out.stderr
    return loaded
