"""Package-level checks: every exported name resolves."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import bets

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


def test_every_layer_is_checked():
    layers = {"timeline", "generative", "likelihood", "inference", "bayes", "cli"}
    assert {f"bets.{m}" for m in layers} < set(MODULES)


def test_cli_import_leaves_scipy_stats_and_integrate_unloaded():
    """Every bets command imports bets.cli first; scipy.stats and
    scipy.integrate would add about half a second to each start.  A fresh
    interpreter is needed because the test modules import scipy.stats."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bets.__file__)))
    probe = ("import sys, bets.cli; print(' '.join(m for m in sys.modules "
             "if m.startswith(('scipy.stats', 'scipy.integrate'))))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.split() == []
