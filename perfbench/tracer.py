"""Spans around the public functions of the six bets layers, from outside src/.

Tracer.install() replaces every function a layer module lists in __all__
(timeline, generative, likelihood, inference, bayes), the classmethod
bayes.DiscreteData.from_records and cli.main with a wrapper that records a
span (name, start, end, parent) in memory.  Every bets module that imported
such a function by name (inference imports the per-case terms from
likelihood, for instance) gets the wrapper too.  Proxies stand in for the
`scipy.special` reference of likelihood and bayes, and count the
incomplete-gamma and logsumexp calls.  save() writes spans and counters
out; layer_metrics() derives the per-layer metrics, self times included,
from a saved trace.  Standard library only.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "timeline", "generative", "likelihood", "inference", "bayes")
TERMS = ("likelihood.cond_log_terms", "likelihood.uncond_log_terms",
         "likelihood.trunc_log_terms")
WRITES = ("timeline.write_cohort_csv", "timeline.write_cohort_json",
          "timeline.write_json", "timeline.atomic_write_text")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []          # [name index, start ns, end ns, parent]
        self.counters: dict[str, float] = defaultdict(float)
        self._cells: dict[str, list] = {}
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count(self, key: str, fn, elements: bool = False, timed: bool = False):
        """fn wrapped to add to key's [calls, result elements, ns] cell."""
        cell = self._cells.setdefault(key, [0, 0, 0])
        clock = time.perf_counter_ns
        if timed:
            def counted(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                cell[2] += clock() - t0
                cell[0] += 1
                return out
        elif elements:
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                cell[0] += 1
                cell[1] += getattr(out, "size", 1)
                return out
        else:
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
        return counted

    def _add(self, key: str, value) -> None:
        self.counters[key] += value
        self.counters[key + "_n"] += 1

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        mods = {layer: sys.modules[f"bets.{layer}"] for layer in LAYERS}
        hooks = {
            "inference.mle_fit": lambda fit: (
                self._add("inference.evals", fit.n_eval),
                self._add("inference.converged", int(fit.converged))),
            "generative.sample_exported": lambda res: (
                res[1] is not None and self._add("generative.acceptance", res[1])),
            "bayes.rwmh_run": self._record_acceptance,
        }
        for name in TERMS:
            hooks[name] = lambda terms: self._add("likelihood.cases", len(terms))

        swap = {}
        for layer in LAYERS[1:]:
            mod = mods[layer]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    swap[id(fn)] = (fn, self.wrap(name, fn, hooks.get(name)))
        cli_main = mods["cli"].main
        swap[id(cli_main)] = (cli_main, self._wrap_main(cli_main))
        for name, mod in list(sys.modules.items()):
            if name == "bets" or name.startswith("bets."):
                for attr, val in list(vars(mod).items()):
                    hit = swap.get(id(val))
                    if hit is not None and hit[0] is val:
                        setattr(mod, attr, hit[1])

        data_cls = getattr(mods["bayes"], "DiscreteData", None)
        if data_cls is not None and hasattr(data_cls, "from_records"):
            data_cls.from_records = classmethod(
                self.wrap("bayes.DiscreteData.from_records", data_cls.from_records.__func__))

        if hasattr(mods["likelihood"], "sc"):
            real = mods["likelihood"].sc
            mods["likelihood"].sc = _Proxy(real, {
                "gammainc": self._count("likelihood.igamma", real.gammainc, elements=True),
                "gammaincc": self._count("likelihood.igamma", real.gammaincc, elements=True),
                "gammaincinv": self._count("likelihood.igammainv", real.gammaincinv)})
        if hasattr(mods["bayes"], "sc"):
            real = mods["bayes"].sc
            mods["bayes"].sc = _Proxy(real, {
                "logsumexp": self._count("bayes.logsumexp", real.logsumexp, timed=True)})

    def _wrap_main(self, fn):
        traced = self.wrap("cli.main", fn)

        @functools.wraps(fn)
        def main(*args, **kwargs):
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                return traced(*args, **kwargs)
            finally:
                self.counters["cli.cpu_s"] += time.process_time() - cpu
                self.counters["cli.wall_s"] += time.perf_counter() - wall

        return main

    def _record_acceptance(self, store) -> None:
        rates = [x for row in store.acceptance.tolist() for x in row if x == x]
        if rates:
            self._add("bayes.accept", sum(rates) / len(rates))

    # -- output --------------------------------------------------------------

    def save(self, path: str) -> None:
        for key, (calls, elems, ns) in self._cells.items():
            self.counters.update({f"{key}_calls": calls, f"{key}_elems": elems,
                                  f"{key}_ns": ns})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": dict(self.counters)}, fh)


class _Proxy:
    """Stands in for a module's `scipy.special`, replacing a few functions."""

    def __init__(self, real, replaced: dict):
        self._real = real
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._real, name)


# ---------------------------------------------------------------------------
# Metrics from a saved trace
# ---------------------------------------------------------------------------

def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced process, keyed as in BENCHMARK.json."""
    names, spans, ctr = trace["names"], trace["spans"], defaultdict(float, trace["counters"])
    n = len(spans)
    covered = [0] * n                        # child time inside each span
    for nid, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    inner_fits = 0
    write_s = 0.0
    for i, (nid, start, end, parent) in enumerate(spans):
        name = names[nid]
        dur = (end - start) / 1e9
        calls[name] += 1
        incl[name] += dur
        own[name] += dur - covered[i] / 1e9
        layer_self[name.split(".", 1)[0]] += dur - covered[i] / 1e9
        pname = names[spans[parent][0]] if parent >= 0 else None
        if name == "inference.mle_fit" and pname == "inference.profile_ci":
            inner_fits += 1
        if name in WRITES and pname not in WRITES:
            write_s += dur

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else math.nan

    terms_calls = sum(calls[t] for t in TERMS)
    terms_s = sum(incl[t] for t in TERMS)
    fits = calls["inference.mle_fit"]
    evals = ctr["inference.evals"]
    target_evals = calls["bayes.log_prior_rest"]
    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out.update({
        "cli.cpu_per_wall": ratio(ctr["cli.cpu_s"], ctr["cli.wall_s"]),
        "timeline.read_calls": calls["timeline.read_cohort_csv"],
        "timeline.read_s": incl["timeline.read_cohort_csv"],
        "timeline.write_s": write_s,
        "generative.sample_s": incl["generative.sample_exported"],
        "generative.acceptance": ratio(ctr["generative.acceptance"],
                                       ctr["generative.acceptance_n"]),
        "likelihood.terms_calls": terms_calls,
        "likelihood.terms_s": terms_s,
        "likelihood.terms_ns_per_case": ratio(terms_s, ctr["likelihood.cases"], 1e9),
        "likelihood.igamma_elems": int(ctr["likelihood.igamma_elems"]),
        "likelihood.quantile_calls": calls["likelihood.quantiles_to_shape_rate"],
        "likelihood.quantile_s": incl["likelihood.quantiles_to_shape_rate"],
        "likelihood.igammainv_calls": int(ctr["likelihood.igammainv_calls"]),
        "likelihood.case_arrays_calls": calls["likelihood.case_arrays"],
        "likelihood.case_arrays_s": incl["likelihood.case_arrays"],
        "inference.fit_calls": fits,
        "inference.objective_evals": int(evals),
        "inference.us_per_eval": ratio(incl["inference.mle_fit"], evals, 1e6),
        "inference.search_self_s": own["inference.mle_fit"],
        "inference.profile_inner_fits": inner_fits,
        "inference.converged_ratio": ratio(ctr["inference.converged"], fits),
        "bayes.target_evals": target_evals,
        "bayes.target_us": ratio(incl["bayes.rwmh_run"], target_evals, 1e6),
        "bayes.logsumexp_calls": int(ctr["bayes.logsumexp_calls"]),
        "bayes.logsumexp_s": ctr["bayes.logsumexp_ns"] / 1e9,
        "bayes.data_s": incl["bayes.DiscreteData.from_records"],
        "bayes.diag_s": incl["bayes.psrf"] + incl["bayes.posterior_summaries"],
        "bayes.accept_rate": ratio(ctr["bayes.accept"], ctr["bayes.accept_n"]),
        "trace.spans": n,
    })
    return out
