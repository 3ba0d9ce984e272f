"""End-to-end tests of the command-line interface.

Every test drives ``bets.cli.main`` in-process with a real argv list and
inspects exit codes, stdout, and the JSON/CSV artifacts.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import multiprocessing
import os
import re
import warnings

import numpy as np
import pytest

import bets
from bets import bayes, cli, inference, likelihood, timeline

RAW_HEADER = ("case_id,residence,gender,age,known_contact,cluster,outside,"
              "begin_wuhan,end_wuhan,arrived,symptom,initial,confirmed,location")

RAW_ROWS = (
    "w-1,Wuhan,M,34,no,,no,,22-Jan,22-Jan,23-Jan,25-Jan,28-Jan,Beijing",
    "v-2,Shanghai,F,61,no,,no,10-Jan,20-Jan,20-Jan,21-Jan,,24-Jan,Shanghai",
    "x-1,Wuhan,m,40,no,,yes,,20-Jan,21-Jan,22-Jan,,25-Jan,",
    "x-2,Wuhan,f,29,no,,no,,20-Jan,21-Jan,,,25-Jan,",
    "w-3,Wuhan,m,50,no,,no,,21-Jan,21-Jan,24-Jan,,26-Jan,Chengdu",
)


def write_raw(path, rows=RAW_ROWS) -> str:
    path.write_text("\n".join([RAW_HEADER, *rows]) + "\n")
    return str(path)


def read_json(out_dir, name) -> dict:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(out_dir, name):
    with open(os.path.join(out_dir, name), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory) -> str:
    out = str(tmp_path_factory.mktemp("sim"))
    assert cli.main(["simulate", "--n", "250", "--seed", "3", "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def lag_dir(tmp_path_factory) -> str:
    out = str(tmp_path_factory.mktemp("lag"))
    code = cli.main(["simulate", "--n", "400", "--seed", "5",
                     "--confirm-lag", "6", "--out", out])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def sweep_dir(lag_dir, tmp_path_factory) -> str:
    out = str(tmp_path_factory.mktemp("sweep"))
    code = cli.main(["bias-demo", "--in", os.path.join(lag_dir, "cohort.csv"),
                     "--from", "58", "--to", "60", "--min-cases", "25",
                     "--n-boot", "8", "--seed", "1", "--out", out])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def mcmc_dir(tmp_path_factory) -> str:
    src = str(tmp_path_factory.mktemp("mcmc-in"))
    out = str(tmp_path_factory.mktemp("mcmc-out"))
    assert cli.main(["simulate", "--n", "120", "--seed", "11", "--out", src]) == 0
    code = cli.main(["mcmc", "--in", os.path.join(src, "cohort.csv"),
                     "--steps", "1200", "--chains", "2", "--seed", "4",
                     "--out", out])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# Parser basics
# ---------------------------------------------------------------------------

def test_every_flag_is_documented():
    """Every parsed flag is in its subcommand's help text and vice versa."""
    parser = cli.build_parser()
    stack = [("bets", parser)]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            stack += list(action.choices.items())
    for name, sp in stack:
        documented = set(re.findall(r"--[a-z][a-z0-9-]*", sp.format_help()))
        parsed = {opt for a in sp._actions for opt in a.option_strings
                  if opt.startswith("--")}
        extra = {d for d in documented if d not in parsed
                 and not any(d in (a.help or "") for a in sp._actions)
                 and not any(d in (a.metavar or "") for a in sp._actions)}
        assert parsed <= documented, f"{name}: not in help: {sorted(parsed - documented)}"
        assert not extra, f"{name}: help mentions unknown flags: {sorted(extra)}"


def test_model_choices_are_the_library_tables():
    """The likelihood, growth, departure and strata choices are read from the
    library's tables, with "-" for "_" in the flag values."""
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices

    def choices(cmd, dest):
        return [c.replace("-", "_") for c in
                next(a.choices for a in subs[cmd]._actions if a.dest == dest)]

    assert choices("fit", "likelihood") == list(likelihood.KINDS)
    assert choices("mcmc", "growth") == list(timeline.GROWTH)
    assert choices("mcmc", "departure") == list(timeline.DEPARTURE)
    assert choices("mcmc", "strata") == list(timeline.STRATA)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert bets.__version__ in capsys.readouterr().out


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--n", "-5"], "--n"),
    (["simulate", "--n", "0"], "--n"),
    (["simulate", "--n", "10", "--confirm-lag", "-1"], "--confirm-lag"),
    (["simulate", "--n", "10", "--confirm-lag", "nan"], "--confirm-lag"),
    (["ci", "--in", "c.csv", "--param", "median", "--level", "1.5"], "--level"),
    (["ci", "--in", "c.csv", "--param", "median", "--method", "bootstrap",
      "--n-boot", "0"], "--n-boot"),
    (["ci", "--in", "c.csv", "--param", "median", "--seed", "-1"], "--seed"),
    (["bias-demo", "--in", "c.csv", "--n-boot", "-1"], "--n-boot"),
    (["bias-demo", "--in", "c.csv", "--level", "0"], "--level"),
    (["bias-demo", "--in", "c.csv", "--seed", "-1"], "--seed"),
    (["mcmc", "--in", "c.csv", "--steps", "0"], "--steps"),
    (["mcmc", "--in", "c.csv", "--chains", "0"], "--chains"),
    (["mcmc", "--in", "c.csv", "--thin", "0"], "--thin"),
    (["plot-data", "--kind", "se-density", "--in", "c.csv", "--bandwidth", "0"], "--bandwidth"),
    (["plot-data", "--kind", "se-density", "--in", "c.csv", "--grid-step", "0"],
     "--grid-step"),
    (["plot-data", "--kind", "se-density", "--in", "c.csv", "--grid-step", "inf"],
     "--grid-step"),
    (["simulate", "--n", "10", "--rho", "-1"], "--rho"),
    (["simulate", "--n", "10", "--rho", "-0.5"], "--rho"),
    (["simulate", "--n", "10", "--shape", "-1"], "--shape"),
    (["simulate", "--n", "10", "--rate", "0"], "--rate"),
    (["simulate", "--n", "10", "--median", "0", "--q95", "4"], "--median"),
    (["simulate", "--n", "10", "--median", "5", "--q95", "-4"], "--q95"),
    (["simulate", "--n", "10", "--symptomatic", "0"], "--symptomatic"),
    (["simulate", "--n", "10", "--infected-mass", "2"], "--infected-mass"),
    (["simulate", "--n", "10", "--growth-rate", "nan"], "--growth-rate"),
    (["simulate", "--n", "10", "--late-growth-rate", "inf"], "--late-growth-rate"),
    (["mcmc", "--in", "c.csv", "--mu", "0"], "--mu"),
    (["mcmc", "--in", "c.csv", "--mu", "-1"], "--mu"),
    (["simulate", "--n", "10", "--seed", "-1"], "--seed"),
    (["mcmc", "--in", "c.csv", "--seed", "-1"], "--seed"),
    (["gof", "--in", "c.csv", "--growth-rate", "nan", "--shape", "1.86", "--rate", "0.33"],
     "--growth-rate"),
    (["plot-data", "--kind", "onset-fit", "--in", "c.csv", "--growth-rate", "inf",
      "--shape", "1.86", "--rate", "0.33"], "--growth-rate"),
    (["gof", "--in", "c.csv", "--growth-rate", "0.3", "--shape", "0", "--rate", "0.33"],
     "--shape"),
    (["gof", "--in", "c.csv", "--growth-rate", "0.3", "--shape", "1.86", "--rate", "inf"],
     "--rate"),
    (["gof", "--in", "c.csv", "--min-expected", "-1"], "--min-expected"),
    (["gof", "--in", "c.csv", "--min-expected", "0"], "--min-expected"),
    (["bias-demo", "--in", "c.csv", "--min-cases", "0"], "--min-cases"),
    (["simulate", "--n", "10", "--late-growth-rate", "0.1", "--stage-break", "60"],
     "--stage-break"),
    (["simulate", "--n", "10", "--late-growth-rate", "0.1", "--stage-break", "54"],
     "--stage-break"),
    (["simulate", "--n", "10", "--late-growth-rate", "0.1", "--stage-break", "0"],
     "--stage-break"),
    (["bias-demo", "--in", "c.csv", "--m-offset", "-30"], "--m-offset"),
    (["bias-demo", "--in", "c.csv", "--from", "foo"], "--from"),
    (["bias-demo", "--in", "c.csv", "--from", "0", "--to", "-1"], "--to"),
    (["fit", "--in", "c.csv", "--likelihood", "cond-trunc", "--truncate-at", "2020-13-45"],
     "--truncate-at"),
    (["ingest", "--in", "raw.csv", "--arrival-cutoff", "foo"], "--arrival-cutoff"),
    (["ingest", "--in", "raw.csv", "--impute-end-to", "2019-01-01"], "--impute-end-to"),
    (["ingest", "--in", "raw.csv", "--arrival-cutoff", "99999999999"], "--arrival-cutoff"),
    (["simulate", "--n", "10", "--confirm-lag", "1e19"], "--confirm-lag"),
])
def test_out_of_domain_number_exits_2_naming_the_flag(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"argument {flag}: need " in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_numbers_at_the_edge_of_their_domain_parse():
    parser = cli.build_parser()
    args = parser.parse_args(["simulate", "--n", "1", "--confirm-lag", "0"])
    assert (args.n, args.confirm_lag) == (1, 0.0)
    args = parser.parse_args(["simulate", "--n", "1", "--rho", "0", "--symptomatic", "1",
                              "--infected-mass", "1", "--growth-rate", "-0.1"])
    assert (args.rho, args.symptomatic, args.infected_mass, args.growth_rate) == (
        0.0, 1.0, 1.0, -0.1)
    args = parser.parse_args(["bias-demo", "--in", "c.csv", "--n-boot", "0",
                              "--level", "0.999"])
    assert (args.n_boot, args.level) == (0, 0.999)
    args = parser.parse_args(["mcmc", "--steps", "1", "--chains", "1", "--thin", "1",
                              "--seed", "0"])
    assert (args.steps, args.chains, args.thin, args.seed) == (1, 1, 1, 0)
    args = parser.parse_args(["simulate", "--n", "1", "--stage-break", "0.5"])
    assert args.stage_break == 0.5
    args = parser.parse_args(["simulate", "--n", "1", "--stage-break", "53.5"])
    assert args.stage_break == 53.5
    args = parser.parse_args(["bias-demo", "--in", "c.csv", "--min-cases", "1"])
    assert args.min_cases == 1
    args = parser.parse_args(["gof", "--in", "c.csv", "--growth-rate", "-0.1", "--shape",
                              "1e-3", "--rate", "1e-3", "--min-expected", "1e-3"])
    assert (args.growth_rate, args.shape, args.rate, args.min_expected) == (
        -0.1, 1e-3, 1e-3, 1e-3)


def test_no_flag_parses_a_bare_float():
    """A bare float accepts nan and inf: every float flag checks its domain."""
    parser = cli.build_parser()
    subparsers, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    bare = [f"{name} {action.option_strings[0]}"
            for name, sp in subparsers.choices.items() for action in sp._actions
            if action.type is float]
    assert bare == []


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def test_ingest_writes_cohort_and_exclusions(tmp_path, capsys):
    raw = write_raw(tmp_path / "raw.csv")
    out = str(tmp_path / "out")
    assert cli.main(["ingest", "--in", raw, "--out", out]) == 0
    assert "kept 3 of 5" in capsys.readouterr().out
    cohort = timeline.read_cohort_csv(os.path.join(out, "cohort.csv"))
    assert sorted(c.case_id for c in cohort) == ["v-2", "w-1", "w-3"]
    excl = read_json(out, "exclusions.json")
    assert excl["kept"] == 3
    assert excl["excluded"] == {"outside_not_kept": 1, "missing_symptom": 1}
    prov = excl["provenance"]
    assert prov["version"] == bets.__version__
    assert prov["flags"]["keep_outside"] == "no"


def test_ingest_json_format(tmp_path):
    raw = write_raw(tmp_path / "raw.csv")
    out = str(tmp_path / "out")
    code = cli.main(["ingest", "--in", raw, "--format", "json", "--out", out])
    assert code == 0
    rows = json.loads(open(os.path.join(out, "cohort.json")).read())
    assert isinstance(rows, list) and rows[0]["case_id"] == "w-1"


def test_ingest_reads_an_overflowing_age_as_absent(tmp_path, capsys):
    """float() reads "inf" and "1e309" as infinite, and int() of that
    overflows: such an age is as unparseable as any other."""
    rows = (RAW_ROWS[0].replace(",34,", ",inf,"), RAW_ROWS[4].replace(",50,", ",1e309,"))
    out = str(tmp_path / "out")
    assert cli.main(["ingest", "--in", write_raw(tmp_path / "raw.csv", rows),
                     "--out", out]) == 0
    assert capsys.readouterr().err == ""
    cohort = timeline.read_cohort_csv(os.path.join(out, "cohort.csv"))
    assert {c.case_id: c.age_group for c in cohort} == {"w-1": "unknown", "w-3": "unknown"}


def test_ingest_all_excluded_exits_3(tmp_path, capsys):
    raw = write_raw(tmp_path / "raw.csv", rows=RAW_ROWS[2:4])
    out = str(tmp_path / "out")
    assert cli.main(["ingest", "--in", raw, "--out", out]) == 3
    assert "excluded" in capsys.readouterr().err
    assert read_json(out, "exclusions.json")["kept"] == 0


def test_ingest_unparseable_header_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,foo\n1,2\n")
    assert cli.main(["ingest", "--in", str(bad), "--out", str(tmp_path)]) == 2
    assert "cannot parse input" in capsys.readouterr().err


def test_missing_input_file_exits_2(tmp_path, capsys):
    code = cli.main(["fit", "--in", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_input_directory_exits_2(tmp_path, capsys):
    code = cli.main(["fit", "--in", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "Is a directory" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_outputs_are_deterministic(tmp_path):
    out = str(tmp_path)
    argv = ["simulate", "--n", "80", "--seed", "9", "--out", out]
    assert cli.main(argv) == 0
    first = {name: open(os.path.join(out, name), "rb").read()
             for name in ("cohort.csv", "simulate.json")}
    assert cli.main(argv) == 0
    for name, blob in first.items():
        assert open(os.path.join(out, name), "rb").read() == blob


def test_simulate_artifacts(sim_dir):
    meta = read_json(sim_dir, "simulate.json")
    assert meta["n_cases"] == 250
    assert 0 < meta["acceptance_rate"] < 1
    assert meta["params"]["growth_rate"] == 0.3
    assert meta["provenance"]["seed"] == 3
    cohort = timeline.read_cohort_csv(os.path.join(sim_dir, "cohort.csv"))
    assert len(cohort) == 250
    assert all(c.confirmed_int is None for c in cohort)


def test_simulate_confirmation_day_past_the_last_day_exits_4(tmp_path, capsys):
    """A confirmation lag that pushes a day past the last day the cohort
    files can hold exits 4 with one line naming the case, and writes nothing;
    a lag that fits writes confirmation days the cohort reader takes back."""
    out = tmp_path / "far"
    assert cli.main(["simulate", "--n", "5", "--seed", "1", "--confirm-lag", "1e12",
                     "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: case sim-1: need 0 <= confirmed_int <= ")
    assert err.count("\n") == 1
    assert not out.exists() or os.listdir(out) == []
    near = str(tmp_path / "near")
    assert cli.main(["simulate", "--n", "5", "--seed", "1", "--confirm-lag", "3",
                     "--out", near]) == 0
    cohort = timeline.read_cohort_csv(os.path.join(near, "cohort.csv"))
    assert all(c.confirmed_int >= c.S_int for c in cohort)


def test_simulate_stage_break_needs_a_late_growth_rate(tmp_path, capsys):
    """--stage-break alone exits 2 naming the flag and writes nothing; with
    --late-growth-rate it sets the break, and without either the cohort is
    one-stage with the generative default break of day 51."""
    out = tmp_path / "alone"
    assert cli.main(["simulate", "--n", "10", "--stage-break", "30", "--out", str(out)]) == 2
    assert "--stage-break needs --late-growth-rate" in capsys.readouterr().err
    assert not out.exists() or os.listdir(out) == []
    two = str(tmp_path / "two")
    assert cli.main(["simulate", "--n", "10", "--stage-break", "30",
                     "--late-growth-rate", "0.1", "--out", two]) == 0
    params = read_json(two, "simulate.json")["params"]
    assert (params["stage_break"], params["late_growth_rate"]) == (30.0, 0.1)
    one = str(tmp_path / "one")
    assert cli.main(["simulate", "--n", "10", "--out", one]) == 0
    meta = read_json(one, "simulate.json")
    assert (meta["params"]["stage_break"], meta["params"]["late_growth_rate"]) == (51.0, None)
    assert meta["provenance"]["flags"]["stage_break"] == 51.0


def test_simulate_median_and_q95_set_the_incubation_law(tmp_path, capsys):
    """--median/--q95 give the Gamma law quantiles_to_shape_rate inverts them
    to; a median not below the q95 exits 2 naming both flags, and a ratio no
    Gamma shape in [1e-3, 1e3] reaches exits 4 with the library's message."""
    out = str(tmp_path / "ok")
    assert cli.main(["simulate", "--n", "10", "--median", "5", "--q95", "12",
                     "--out", out]) == 0
    inc = read_json(out, "simulate.json")["params"]["incubation"]
    assert (inc["shape"], inc["rate"]) == likelihood.quantiles_to_shape_rate(5.0, 12.0)
    bad = tmp_path / "bad"
    assert cli.main(["simulate", "--n", "10", "--median", "5", "--q95", "4",
                     "--out", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "--median" in err and "--q95" in err
    assert not bad.exists()
    assert cli.main(["simulate", "--n", "10", "--median", "5", "--q95", "5.0001",
                     "--out", str(bad)]) == 4
    assert "has no Gamma shape" in capsys.readouterr().err


def test_simulate_confirm_lag_adds_confirmation_days(lag_dir):
    cohort = timeline.read_cohort_csv(os.path.join(lag_dir, "cohort.csv"))
    assert all(c.confirmed_int is not None and c.confirmed_int >= c.S_int
               for c in cohort)


# ---------------------------------------------------------------------------
# fit / ci
# ---------------------------------------------------------------------------

def test_fit_json_artifact(sim_dir, tmp_path, capsys):
    out = str(tmp_path)
    code = cli.main(["fit", "--in", os.path.join(sim_dir, "cohort.csv"),
                     "--likelihood", "uncond", "--seed", "1", "--out", out])
    assert code == 0
    assert "converged=True" in capsys.readouterr().out
    fit = read_json(out, "fit.json")
    assert fit["kind"] == "uncond" and fit["converged"]
    assert fit["n_cases"] == 250
    assert 1.5 < fit["display"]["doubling_time"] < 3.5
    assert 0.1 < fit["theta"]["rho"] < 2.0
    assert fit["provenance"]["flags"]["likelihood"] == "uncond"


def test_fit_table_output(sim_dir, tmp_path, capsys):
    code = cli.main(["fit", "--in", os.path.join(sim_dir, "cohort.csv"),
                     "--likelihood", "cond", "--format", "table",
                     "--out", str(tmp_path)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    names = [ln.split()[0] for ln in lines]
    assert names == ["log_lik", "doubling_time", "median_incubation",
                     "q95_incubation"]
    for ln in lines:
        float(ln.split()[-1])


def test_fit_with_every_parameter_pinned_evaluates_once(tmp_path):
    """With r, median and q95 all pinned there is nothing to search: the fit
    evaluates the likelihood once, at the pins, and reports that value.  The
    cohort comes from a simulation without growth."""
    sim, out = str(tmp_path / "sim"), str(tmp_path / "fit")
    assert cli.main(["simulate", "--n", "200", "--growth-rate", "0", "--seed", "2",
                     "--out", sim]) == 0
    cohort = os.path.join(sim, "cohort.csv")
    assert cli.main(["fit", "--in", cohort, "--likelihood", "cond", "--fix", "r=0",
                     "--fix", "median=5", "--fix", "q95=12", "--out", out]) == 0
    fit = read_json(out, "fit.json")
    assert fit["n_eval"] == 1 and fit["converged"]
    assert fit["fixed"] == {"r": 0.0, "median_incubation": 5.0, "q95_incubation": 12.0}
    alpha, beta = likelihood.quantiles_to_shape_rate(5.0, 12.0)
    want = likelihood.log_lik(timeline.read_cohort_csv(cohort), "cond",
                              likelihood.ParamTheta(0.0, alpha, beta))
    assert fit["log_lik"] == want == pytest.approx(-739.267494539047, rel=1e-12)


def test_fit_truncated_before_every_onset_exits_3(sim_dir, tmp_path, capsys):
    code = cli.main(["fit", "--in", os.path.join(sim_dir, "cohort.csv"),
                     "--likelihood", "cond-trunc", "--truncate-at", "0", "--out", str(tmp_path)])
    assert code == 3
    assert "no cases at or before the truncation day" in capsys.readouterr().err


def test_fit_trunc_needs_cutoff(sim_dir, tmp_path, capsys):
    code = cli.main(["fit", "--in", os.path.join(sim_dir, "cohort.csv"),
                     "--likelihood", "cond-trunc", "--out", str(tmp_path)])
    assert code == 2
    assert "--truncate-at" in capsys.readouterr().err


@pytest.mark.parametrize("pair", ["rho:0.4", "rho=abc"])
def test_fit_bad_fix_exits_2(sim_dir, tmp_path, pair):
    code = cli.main(["fit", "--in", os.path.join(sim_dir, "cohort.csv"),
                     "--fix", pair, "--out", str(tmp_path)])
    assert code == 2


def test_fit_unknown_fixed_name_exits_4(sim_dir, tmp_path, capsys):
    code = cli.main(["fit", "--in", os.path.join(sim_dir, "cohort.csv"),
                     "--fix", "zeta=1", "--out", str(tmp_path)])
    assert code == 4
    assert "cannot fix" in capsys.readouterr().err


@pytest.mark.parametrize("likelihood, pair, name", [
    ("uncond", "doubling-time=0", "doubling_time"), ("cond", "q95=0", "q95_incubation"),
    ("cond", "r=-0.5", "r"), ("cond", "median=nan", "median_incubation"),
    ("uncond", "rho=inf", "rho")])
def test_fit_pin_outside_its_domain_exits_4(sim_dir, tmp_path, capsys, likelihood, pair, name):
    code = cli.main(["fit", "--in", os.path.join(sim_dir, "cohort.csv"),
                     "--likelihood", likelihood, "--fix", pair, "--out", str(tmp_path)])
    assert code == 4
    assert f"cannot fix {name}=" in capsys.readouterr().err


def test_location_filter_keeps_only_that_locations_cases(sim_dir, tmp_path):
    records = timeline.read_cohort_csv(os.path.join(sim_dir, "cohort.csv"))
    records = [dataclasses.replace(c, location="Beijing" if i % 3 else "Shanghai")
               for i, c in enumerate(records)]
    src = str(tmp_path / "cohort.csv")
    timeline.write_cohort_csv(records, src)
    assert cli.main(["fit", "--in", src, "--likelihood", "cond", "--location", "Shanghai",
                     "--out", str(tmp_path)]) == 0
    n_shanghai = sum(c.location == "Shanghai" for c in records)
    assert read_json(str(tmp_path), "fit.json")["n_cases"] == n_shanghai < len(records)


def test_location_filter_no_match_exits_3(tmp_path):
    rows = [{"case_id": "a-1", "B_int": 0, "E_int": 53, "S_int": 56,
             "location": "Beijing"},
            {"case_id": "a-2", "B_int": 41, "E_int": 51, "S_int": 52,
             "location": "Shanghai"}]
    src = tmp_path / "cohort.json"
    src.write_text(json.dumps(rows))
    code = cli.main(["fit", "--in", str(src), "--location", "Paris",
                     "--out", str(tmp_path)])
    assert code == 3


def test_json_cohort_missing_field_exits_2(tmp_path, capsys):
    rows = [{"case_id": "a-1", "B_int": 0, "E_int": 53, "S_int": 56},
            {"case_id": "a-2", "B_int": 41, "S_int": 52}]
    src = tmp_path / "cohort.json"
    src.write_text(json.dumps(rows))
    assert cli.main(["fit", "--in", str(src), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "a-2" in err and "E_int" in err


def test_json_cohort_malformed_exits_2(tmp_path, capsys):
    src = tmp_path / "cohort.json"
    src.write_text('[{"case_id": "a-1", "B_int": 0,')
    assert cli.main(["fit", "--in", str(src), "--out", str(tmp_path)]) == 2
    assert str(src) in capsys.readouterr().err


def test_json_cohort_bad_interval_exits_2_like_csv(tmp_path, capsys):
    rows = [{"case_id": "a-1", "B_int": 0, "E_int": 53, "S_int": 56},
            {"case_id": "bad-2", "B_int": 45, "E_int": 41, "S_int": 52}]
    src = tmp_path / "cohort.json"
    src.write_text(json.dumps(rows))
    assert cli.main(["fit", "--in", str(src), "--out", str(tmp_path)]) == 2
    assert "bad-2" in capsys.readouterr().err
    csv_src = tmp_path / "cohort.csv"
    csv_src.write_text("case_id,B_int,E_int,S_int\na-1,0,53,56\nbad-2,45,41,52\n")
    assert cli.main(["fit", "--in", str(csv_src), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("field, value", [
    ("B_int", "41.7"), ("S_int", "52.9"), ("confirmed_int", "true"),
    ("S_int", "Infinity"), ("S_int", "1e400")])
def test_json_cohort_day_that_is_not_whole_exits_2(tmp_path, capsys, field, value):
    """A JSON day is a whole number, as a CSV one is: int() would read 41.7
    as 41 and true as 1, and overflow on an infinite day."""
    row = {"case_id": "a-2", "B_int": 41, "E_int": 51, "S_int": 52, "confirmed_int": 55}
    text = json.dumps([{"case_id": "a-1", "B_int": 0, "E_int": 53, "S_int": 56}, row])
    src = tmp_path / "cohort.json"
    src.write_text(text.replace(f'"{field}": {json.dumps(row[field])}', f'"{field}": {value}'))
    assert cli.main(["fit", "--in", str(src), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "row 2 (case a-2)" in err[0] and f"{field} must be a whole day" in err[0]


@pytest.mark.parametrize("column", ["S_int", "confirmed_int"])
@pytest.mark.parametrize("command", [["fit"], ["mcmc", "--steps", "20", "--chains", "1"]])
def test_cohort_day_past_the_last_date_exits_2(tmp_path, capsys, command, column):
    """An onset or confirmation day must have a calendar date and fit the
    models' int64 day arrays: past date.max, the row is refused while the
    cohort is read, for every command alike."""
    days = {"S_int": 56, "confirmed_int": 58, column: 99999999999999999999}
    src = tmp_path / "cohort.csv"
    src.write_text("case_id,B_int,E_int,S_int,confirmed_int\na-1,0,53,56,58\n"
                   f"far-2,0,50,{days['S_int']},{days['confirmed_int']}\n")
    assert cli.main([*command, "--in", str(src), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "row 2 (case far-2)" in err[0] and column in err[0]


def test_json_and_csv_cohorts_load_the_same_records(tmp_path):
    """An integer string or an integral float is a whole JSON day."""
    rows = [{"case_id": "a-1", "B_int": 0, "E_int": 53, "S_int": 56},
            {"case_id": "a-2", "B_int": "41", "E_int": 51.0, "S_int": 52,
             "gender": "female", "age_group": "40-49"}]
    json_src = tmp_path / "cohort.json"
    json_src.write_text(json.dumps(rows))
    csv_src = tmp_path / "cohort.csv"
    csv_src.write_text("case_id,B_int,E_int,S_int,gender,age_group\n"
                       "a-1,0,53,56,,\na-2,41,51,52,female,40-49\n")
    from_json = cli._load_cohort(str(json_src))
    assert from_json == cli._load_cohort(str(csv_src))
    assert from_json[0].gender == from_json[0].age_group == "unknown"


def test_ci_bootstrap(sim_dir, tmp_path, capsys):
    out = str(tmp_path)
    code = cli.main(["ci", "--in", os.path.join(sim_dir, "cohort.csv"),
                     "--likelihood", "cond", "--param", "median",
                     "--method", "bootstrap", "--n-boot", "10",
                     "--boot-method", "percentile", "--seed", "2", "--out", out])
    assert code == 0
    assert "median_incubation bootstrap CI" in capsys.readouterr().out
    payload = read_json(out, "ci.json")
    assert payload["param"] == "median_incubation"
    ci = payload["ci"]
    assert ci["lo"] < payload["fit"]["display"]["median_incubation"] < ci["hi"]


def test_ci_profile_side_past_a_failed_refit_is_unbracketed(tmp_path):
    """On this cohort the truncated median profile is flat upward: its
    refits stop converging and then have no Gamma-shaped warm start.  That
    side ends unbracketed at the search limit instead of failing the run."""
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--n", "300", "--seed", "3", "--out", sim]) == 0
    out = str(tmp_path / "ci")
    assert cli.main(["ci", "--in", os.path.join(sim, "cohort.csv"), "--likelihood",
                     "cond-trunc", "--truncate-at", "50", "--param", "median",
                     "--out", out]) == 0
    payload = read_json(out, "ci.json")
    ci, point = payload["ci"], payload["fit"]["display"]["median_incubation"]
    assert ci["lower_bracketed"] and not ci["upper_bracketed"]
    assert ci["lo"] < point and ci["hi"] == pytest.approx(100 * point, rel=1e-12)


# The CPUs a command splits its work over by default: this process and one
# worker process per further CPU (timeline.usable_cpus).  A warning raised in
# a worker process is printed there, not to the stderr the test captures; so
# the tests that read stderr also run on one CPU, where all the work is done
# in the test's process.
DEFAULT_CPUS = timeline.usable_cpus()
WORKERS = pytest.mark.parametrize("n_cpus", [1, DEFAULT_CPUS],
                                  ids=["workers-1", "default-workers"])


@WORKERS
def test_ci_profile_on_a_flat_truncated_profile_warns_nothing(tmp_path, capsys, cpus, n_cpus):
    """The same profile: no refit hands the simplex a non-finite objective
    (a truncated term read as +inf once did), so SciPy raises no
    RuntimeWarning and stderr holds no warning line."""
    cpus(n_cpus)
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--n", "300", "--seed", "3", "--out", sim]) == 0
    assert cli.main(["ci", "--in", os.path.join(sim, "cohort.csv"), "--likelihood",
                     "cond-trunc", "--truncate-at", "50", "--param", "median",
                     "--out", str(tmp_path / "ci")]) == 0
    assert "warning" not in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--likelihood", "cond-trunc", "--truncate-at", "50", "--param", "median"],
    ["--likelihood", "uncond", "--param", "doubling-time", "--seed", "2"],
    ["--likelihood", "cond", "--param", "q95", "--method", "bootstrap", "--n-boot", "6"]],
    ids=["profile-one-side-unbracketed", "profile", "bootstrap"])
def test_ci_with_the_default_workers_writes_the_serial_ci_json(tmp_path, cpus, flags):
    """The default workers run the fit's restarts and the profile's sides
    or the bootstrap refits in worker processes; ci.json is the same as on
    one CPU, apart from the --out flag echoed in the provenance."""
    sim = str(tmp_path / "sim")
    assert cli.main(["simulate", "--n", "300", "--seed", "3", "--out", sim]) == 0
    payloads = []
    for n in (1, DEFAULT_CPUS):
        cpus(n)
        out = str(tmp_path / f"ci{len(payloads)}")
        assert cli.main(["ci", "--in", os.path.join(sim, "cohort.csv"), *flags,
                         "--out", out]) == 0
        payload = read_json(out, "ci.json")
        del payload["provenance"]["flags"]["out"]
        payloads.append(payload)
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("flags, code", [
    (["--likelihood", "cond", "--param", "q95"], 0),
    (["--likelihood", "cond", "--param", "rho", "--method", "bootstrap"], 4)],
    ids=["profile", "rho-on-cond-bootstrap"])
def test_ci_leaves_no_worker_process_behind(sim_dir, tmp_path, flags, code):
    assert cli.main(["ci", "--in", os.path.join(sim_dir, "cohort.csv"), *flags,
                     "--n-boot", "4", "--out", str(tmp_path)]) == code
    assert multiprocessing.active_children() == []


@WORKERS
def test_ci_fit_block_is_the_same_for_both_methods(sim_dir, tmp_path, capsys, cpus, n_cpus):
    """ci.json carries the interval once, at the top level; the fit block
    is the fit's fields for the profile and the bootstrap alike."""
    cpus(n_cpus)
    blocks = {}
    for method in ("profile", "bootstrap"):
        out = str(tmp_path / method)
        code = cli.main(["ci", "--in", os.path.join(sim_dir, "cohort.csv"),
                         "--likelihood", "cond", "--param", "q95",
                         "--method", method, "--n-boot", "4", "--out", out])
        assert code == 0
        payload = read_json(out, "ci.json")
        assert set(payload["ci"]) == {"lo", "hi", "level", "lower_bracketed",
                                      "upper_bracketed"}
        blocks[method] = payload["fit"]
    assert "ci" not in blocks["profile"]
    assert blocks["profile"] == blocks["bootstrap"]
    assert "warning" not in capsys.readouterr().err


@pytest.mark.parametrize("command, output", [
    (["fit"], "fit.json"), (["ci", "--param", "median"], "ci.json"), (["gof"], "gof.json"),
    (["plot-data", "--kind", "onset-fit"], None)], ids=["fit", "ci", "gof", "plot-data"])
def test_ci_warns_on_a_non_converged_fit(sim_dir, tmp_path, capsys, monkeypatch,
                                         command, output):
    """Every command that fits prints one warning line on stderr when the
    fit did not converge, and still writes its output."""
    real = inference.mle_fit

    def stuck(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), converged=False,
                                   message="boundary")

    monkeypatch.setattr(inference, "mle_fit", stuck)
    out = str(tmp_path)
    code = cli.main([*command, "--in", os.path.join(sim_dir, "cohort.csv"),
                     "--likelihood", "cond", "--out", out])
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning:") and "boundary" in err[0]
    if output is None:
        assert os.path.exists(os.path.join(out, "onset_fit.csv"))
    else:
        payload = read_json(out, output)
        assert payload.get("fit", payload)["converged"] is False  # fit.json is the fit


def test_ci_bootstrap_reflects_around_the_reported_fit(sim_dir, tmp_path):
    """The basic interval mirrors the percentile one around the fit in ci.json,
    also when --seed moves that fit's restarts."""
    payloads = {}
    for method in ("basic", "percentile"):
        out = str(tmp_path / method)
        code = cli.main(["ci", "--in", os.path.join(sim_dir, "cohort.csv"),
                         "--likelihood", "cond", "--param", "q95",
                         "--method", "bootstrap", "--n-boot", "8",
                         "--boot-method", method, "--seed", "5", "--out", out])
        assert code == 0
        payloads[method] = read_json(out, "ci.json")
    s_hat = payloads["basic"]["fit"]["display"]["q95_incubation"]
    basic, pct = payloads["basic"]["ci"], payloads["percentile"]["ci"]
    assert basic["lo"] == pytest.approx(2 * s_hat - pct["hi"], rel=1e-12)
    assert basic["hi"] == pytest.approx(2 * s_hat - pct["lo"], rel=1e-12)


def test_ci_bootstrap_rejects_rho_on_cond_fit(sim_dir, tmp_path, capsys):
    code = cli.main(["ci", "--in", os.path.join(sim_dir, "cohort.csv"),
                     "--likelihood", "cond", "--param", "rho",
                     "--method", "bootstrap", "--n-boot", "4", "--out", str(tmp_path)])
    assert code == 4
    assert "param must be one of" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bias-demo / gof
# ---------------------------------------------------------------------------

def test_bias_demo_rows_and_bands(sweep_dir):
    rows = read_json(sweep_dir, "sweep.json")["rows"]
    assert len(rows) == 9  # 3 cutoffs x 3 models
    assert {r["model"] for r in rows} == {"r0", "growth", "growth_trunc"}
    fitted = [r for r in rows if r["fitted"]]
    assert len(fitted) == 9
    assert all(isinstance(r["converged"], bool) and r["message"] for r in fitted)
    banded = [r for r in fitted if r["median_ci"] is not None]
    assert banded  # cells whose resamples all converged carry bands
    assert all(r["median_ci"]["lo"] <= r["median"] <= r["median_ci"]["hi"]
               for r in banded)
    header, body = read_csv(sweep_dir, "sweep.csv")
    assert header == ["date", "model", "quantile", "estimate", "lo", "hi"]
    assert len(body) == 18
    assert body[0][0] == "2020-01-27"  # epoch day 58


def test_bias_demo_sparse_cutoffs_are_reported_unfitted(lag_dir, tmp_path, capsys):
    out = str(tmp_path)
    code = cli.main(["bias-demo", "--in", os.path.join(lag_dir, "cohort.csv"),
                     "--from", "2020-01-23", "--to", "2020-02-18",
                     "--min-cases", "100000", "--out", out])
    assert code == 0
    assert "(0 fits)" in capsys.readouterr().out
    rows = read_json(out, "sweep.json")["rows"]
    assert len(rows) == 27 * 3
    assert all(not r["fitted"] and r["median"] is None for r in rows)


def test_bias_demo_reversed_range_exits_2(lag_dir, tmp_path):
    code = cli.main(["bias-demo", "--in", os.path.join(lag_dir, "cohort.csv"),
                     "--from", "60", "--to", "58", "--out", str(tmp_path)])
    assert code == 2


def test_gof_with_explicit_parameters(sim_dir, tmp_path, capsys):
    out = str(tmp_path)
    code = cli.main(["gof", "--in", os.path.join(sim_dir, "cohort.csv"),
                     "--growth-rate", "0.3", "--shape", "1.86", "--rate", "0.33",
                     "--out", out])
    assert code == 0
    assert "onset GOF" in capsys.readouterr().out
    payload = read_json(out, "gof.json")
    assert payload["fit"] == {"source": "flags"}
    assert 0.0 <= payload["gof"]["p_value"] <= 1.0
    assert payload["gof"]["dof"] == payload["gof"]["n_bins"] - 1


def test_library_warning_reaches_stderr_as_one_line(sim_dir, tmp_path, capsys):
    """A warning raised inside a subcommand prints as one "warning:" line,
    without the source line; the warning hook is restored afterwards."""
    hook = warnings.showwarning
    code = cli.main(["gof", "--in", os.path.join(sim_dir, "cohort.csv"),
                     "--growth-rate", "0", "--shape", "0.3", "--rate", "0.013",
                     "--out", str(tmp_path)])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "warning: marginal_s_density: approximation degrades for L = 54.0 "
        "<= 4(alpha+5)/(beta+r) = 1.63e+03"]
    assert captured.out.startswith("onset GOF")
    assert warnings.showwarning is hook


def test_gof_flag_combination_checked(sim_dir, tmp_path):
    code = cli.main(["gof", "--in", os.path.join(sim_dir, "cohort.csv"),
                     "--growth-rate", "0.3", "--out", str(tmp_path)])
    assert code == 2


def test_plot_data_onset_fit_flag_combination_checked(sim_dir, tmp_path, capsys):
    code = cli.main(["plot-data", "--kind", "onset-fit",
                     "--in", os.path.join(sim_dir, "cohort.csv"),
                     "--growth-rate", "0.3", "--shape", "1.86", "--out", str(tmp_path)])
    assert code == 2
    assert "--growth-rate needs --shape and --rate" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(str(tmp_path), "onset_fit.csv"))


def test_kde_grid_too_large_to_allocate_exits_4(sim_dir, tmp_path, capsys):
    """--grid-step 1e-12 asks for a grid of about 451 TiB, past the 128 TiB
    of an x86-64 address space, so NumPy refuses it without allocating."""
    assert cli.main(["plot-data", "--kind", "se-density", "--grid-step", "1e-12",
                     "--in", os.path.join(sim_dir, "cohort.csv"), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_gof_too_few_residents_exits_4(tmp_path, capsys):
    rows = [{"case_id": f"r-{i}", "B_int": 0, "E_int": 53, "S_int": 50 + i}
            for i in range(5)]
    src = tmp_path / "tiny.json"
    src.write_text(json.dumps(rows))
    code = cli.main(["gof", "--in", str(src), "--growth-rate", "0.3",
                     "--shape", "1.86", "--rate", "0.33", "--out", str(tmp_path)])
    assert code == 4
    assert "resident" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# mcmc
# ---------------------------------------------------------------------------

def test_mcmc_artifacts(mcmc_dir):
    for name in ("draws_chain0.csv", "draws_chain1.csv",
                 "diagnostics.json", "mcmc_summary.json", "posterior_pmf.csv"):
        assert os.path.exists(os.path.join(mcmc_dir, name))
    header, body = read_csv(mcmc_dir, "draws_chain0.csv")
    assert header[0] == "draw" and "r1" in header and "h_all_0" in header
    assert len(header) == 1 + 4 + 30
    assert len(body) == (1200 - 600) // 10
    h_cols = [i for i, name in enumerate(header) if name.startswith("h_all_")]
    total = sum(float(body[0][i]) for i in h_cols)
    assert total == pytest.approx(1.0, abs=1e-9)

    diag = read_json(mcmc_dir, "diagnostics.json")
    assert set(diag["psrf"]) == {"r1", "doubling_time", "mean_incubation", "p_ge_14"}
    assert all(v is None for v in diag["psrf"].values())  # 60 draws < 100
    assert "psrf_notes" in diag

    summary = read_json(mcmc_dir, "mcmc_summary.json")
    assert summary["n_cases"] == 120 and summary["chains"] == 2
    assert summary["draws_per_chain"] == 60
    assert "p_ge_14" in summary["summaries"]
    entry = summary["summaries"]["doubling_time"]
    assert entry["lo"] <= entry["mean"] <= entry["hi"]


def test_mcmc_stratified_psrf_is_per_stratum(tmp_path):
    """With 100 draws per chain every psrf is a number: one per growth
    functional, one per stratum for each incubation functional."""
    out = str(tmp_path)
    assert cli.main(["mcmc", "--prior-only", "--strata", "gender", "--steps", "2000",
                     "--chains", "2", "--seed", "8", "--out", out]) == 0
    diag = read_json(out, "diagnostics.json")
    assert diag["n_draws"] == 100
    assert set(diag["psrf"]) == {
        "r1", "doubling_time", "mean_incubation[male]", "mean_incubation[female]",
        "p_ge_14[male]", "p_ge_14[female]"}
    assert all(np.isfinite(v) for v in diag["psrf"].values())
    assert "psrf_notes" not in diag


def test_mcmc_posterior_pmf_pools_the_chains(sim_dir, tmp_path):
    """posterior_pmf.csv holds, per stratum in label order and per day, the
    mean and 95% band of the h draws pooled chain by chain."""
    src = str(tmp_path / "cohort.csv")
    cohort = timeline.read_cohort_csv(os.path.join(sim_dir, "cohort.csv"))
    timeline.write_cohort_csv([dataclasses.replace(c, gender=("male", "female")[i % 2])
                               for i, c in enumerate(cohort)], src)
    out = str(tmp_path / "mcmc")
    assert cli.main(["mcmc", "--in", src, "--strata", "gender", "--steps", "400",
                     "--chains", "3", "--seed", "2", "--out", out]) == 0
    header, body = read_csv(out, "posterior_pmf.csv")
    assert header == ["stratum", "days", "mean", "lo", "hi"]
    assert [(r[0], int(r[1])) for r in body] == [
        (label, k) for label in ("female", "male") for k in range(30)]
    pooled: dict[str, list[float]] = {}
    for chain in range(3):
        draws_header, draws = read_csv(out, f"draws_chain{chain}.csv")
        for i, name in enumerate(draws_header):
            pooled.setdefault(name, []).extend(float(row[i]) for row in draws)
    for label, k, mean, lo, hi in body:
        vals = np.asarray(pooled[f"h_{label}_{k}"])
        assert float(lo) <= float(mean) <= float(hi)
        assert [float(mean), float(lo), float(hi)] == [
            vals.mean(), *np.percentile(vals, [2.5, 97.5])]
    for label in ("female", "male"):
        assert sum(float(r[2]) for r in body if r[0] == label) == pytest.approx(1.0, abs=1e-9)


def test_mcmc_on_simulated_cohort_drops_infeasible_cases(tmp_path):
    """The simulator's default incubation law has a long tail: some cases
    have no infection day within the model's 30-day incubation support."""
    src, out = str(tmp_path / "sim"), str(tmp_path / "mcmc")
    assert cli.main(["simulate", "--n", "500", "--seed", "1", "--out", src]) == 0
    code = cli.main(["mcmc", "--in", os.path.join(src, "cohort.csv"),
                     "--steps", "40", "--chains", "2", "--out", out])
    assert code == 0
    summary = read_json(out, "mcmc_summary.json")
    dropped = summary["dropped"]
    assert dropped["outside_strata"] == 0 and dropped["no_feasible_infection_day"] >= 1
    assert summary["n_dropped"] == dropped["no_feasible_infection_day"]
    assert summary["n_cases"] + summary["n_dropped"] == 500


def test_mcmc_prior_only_needs_no_input(tmp_path):
    out = str(tmp_path)
    code = cli.main(["mcmc", "--prior-only", "--steps", "800", "--chains", "2",
                     "--seed", "6", "--out", out])
    assert code == 0
    summary = read_json(out, "mcmc_summary.json")
    assert summary["n_cases"] == 0 and summary["dropped"] == {}


def _outputs(out: str) -> dict:
    """Each file of an output directory by name: a JSON file's payload
    without the --out flag its provenance echoes, any other file's bytes."""
    files = {}
    for name in sorted(os.listdir(out)):
        if name.endswith(".json"):
            files[name] = read_json(out, name)
            del files[name]["provenance"]["flags"]["out"]
        else:
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
    return files


@pytest.mark.parametrize("command", [
    ["mcmc", "--steps", "240", "--chains", "5", "--thin", "4"],
    ["fit", "--likelihood", "cond", "--format", "table"]], ids=["mcmc", "fit"])
def test_worker_processes_write_the_serial_files(sim_dir, tmp_path, capsys, cpus, command):
    """mcmc's groups of chains (three uneven ones on 3 CPUs) and fit's
    restarts, run in worker processes on the default CPUs and on 3, write
    the files and print the lines of one CPU, apart from the --out flag
    echoed in the provenance; no worker outlives the command."""
    runs = []
    for n in (1, DEFAULT_CPUS, 3):
        cpus(n)
        out = str(tmp_path / f"out{len(runs)}")
        assert cli.main([*command, "--in", os.path.join(sim_dir, "cohort.csv"),
                         "--out", out]) == 0
        assert multiprocessing.active_children() == []
        runs.append((_outputs(out), capsys.readouterr().out.replace(out, "<out>")))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_mcmc_names_the_chain_without_a_start(sim_dir, tmp_path, capsys, monkeypatch, cpus,
                                              n_cpus):
    """Chains 2 and 3 of 4 find no start: each candidate's curve breaks the
    mass constraint.  Both CPU counts exit 4 naming chain 2 by its index in
    the run (on 2 CPUs it is the first chain of the second group), and no
    worker outlives the command."""
    cpus(n_cpus)
    init_state = bayes._init_state

    def no_start_from_chain_2(coords, config, rng, prior_only):
        u = init_state(coords, config, rng, prior_only)
        if rng.bit_generator.seed_seq.spawn_key[-1] >= 2:
            u[[s.name for s in coords.scalars].index("kappa")] = 50.0  # kappa = 1
        return u

    monkeypatch.setattr(bayes, "_init_state", no_start_from_chain_2)
    code = cli.main(["mcmc", "--in", os.path.join(sim_dir, "cohort.csv"), "--steps", "20",
                     "--chains", "4", "--out", str(tmp_path)])
    assert code == 4
    assert capsys.readouterr().err == "error: chain 2: could not find a valid initial state\n"
    assert multiprocessing.active_children() == []


def test_mcmc_without_input_exits_2(tmp_path, capsys):
    code = cli.main(["mcmc", "--steps", "400", "--out", str(tmp_path)])
    assert code == 2
    assert "--prior-only" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# plot-data
# ---------------------------------------------------------------------------

def test_plot_data_onset_fit(sim_dir, tmp_path):
    out = str(tmp_path)
    code = cli.main(["plot-data", "--kind", "onset-fit",
                     "--in", os.path.join(sim_dir, "cohort.csv"),
                     "--growth-rate", "0.3", "--shape", "1.86", "--rate", "0.33",
                     "--out", out])
    assert code == 0
    header, body = read_csv(out, "onset_fit.csv")
    assert header == ["day", "date", "observed", "expected"]
    cohort = timeline.read_cohort_csv(os.path.join(sim_dir, "cohort.csv"))
    n_resident = sum(c.B == 0.0 for c in cohort)
    assert sum(int(r[2]) for r in body) == n_resident
    assert sum(float(r[3]) for r in body) == pytest.approx(n_resident, rel=1e-6)
    days = [int(r[0]) for r in body]
    assert days == list(range(days[0], days[-1] + 1))


@pytest.mark.parametrize("kind", ["onset-fit", "se-density"])
def test_plot_data_location_no_match_exits_3(sim_dir, tmp_path, kind):
    code = cli.main(["plot-data", "--kind", kind,
                     "--in", os.path.join(sim_dir, "cohort.csv"),
                     "--growth-rate", "0.3", "--shape", "1.86", "--rate", "0.33",
                     "--location", "nowhere", "--out", str(tmp_path)])
    assert code == 3


@pytest.mark.parametrize("kind", ["sweep-bands", "posterior-pmf"])
def test_plot_data_has_no_second_producer_of_command_outputs(capsys, kind):
    """sweep.csv (bias-demo) and posterior_pmf.csv (mcmc) have one producer each."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["plot-data", "--kind", kind, "--in", "sweep.json"])
    assert exc.value.code == 2
    assert "argument --kind" in capsys.readouterr().err


def test_plot_data_se_density(sim_dir, tmp_path):
    out = str(tmp_path)
    code = cli.main(["plot-data", "--kind", "se-density",
                     "--in", os.path.join(sim_dir, "cohort.csv"),
                     "--strata", "none", "--out", out])
    assert code == 0
    header, body = read_csv(out, "se_density.csv")
    assert header == ["stratum", "x", "density"]
    assert all(r[0] == "all" for r in body)
    mass = 0.25 * sum(float(r[2]) for r in body)
    assert mass == pytest.approx(1.0, abs=0.05)


def test_plot_data_se_density_unlabeled_csv_pools_as_unknown(sim_dir, tmp_path):
    out = str(tmp_path)
    code = cli.main(["plot-data", "--kind", "se-density",
                     "--in", os.path.join(sim_dir, "cohort.csv"),
                     "--strata", "gender", "--out", out])
    assert code == 0
    _, body = read_csv(out, "se_density.csv")
    assert {r[0] for r in body} == {"unknown"}


def test_plot_data_se_density_unlabeled_json_pools_as_unknown(tmp_path):
    rows = [{"case_id": f"a-{i}", "B_int": 0, "E_int": 53, "S_int": 50 + i}
            for i in range(4)]
    src = tmp_path / "cohort.json"
    src.write_text(json.dumps(rows))
    code = cli.main(["plot-data", "--kind", "se-density", "--in", str(src),
                     "--strata", "gender", "--out", str(tmp_path)])
    assert code == 0
    _, body = read_csv(str(tmp_path), "se_density.csv")
    assert {r[0] for r in body} == {"unknown"}


def test_plot_data_se_density_quotes_a_label_holding_a_carriage_return(tmp_path):
    rows = [{"case_id": f"a-{i}", "B_int": 0, "E_int": 53, "S_int": 50 + i,
             "gender": "x\ry" if i % 2 else "male"} for i in range(4)]
    src = tmp_path / "cohort.json"
    src.write_text(json.dumps(rows))
    code = cli.main(["plot-data", "--kind", "se-density", "--in", str(src),
                     "--strata", "gender", "--out", str(tmp_path)])
    assert code == 0
    _, body = read_csv(str(tmp_path), "se_density.csv")
    assert body and all(len(r) == 3 for r in body)
    assert {r[0] for r in body} == {"male", "x\ry"}


# ---------------------------------------------------------------------------
# The README pipeline
# ---------------------------------------------------------------------------

def test_readme_pipeline(tmp_path):
    """The README's command-line walk-through, on a small simulated cohort:
    every step exits 0 on the previous steps' outputs."""
    work = str(tmp_path)
    cohort = os.path.join(work, "cohort.csv")
    steps = [
        ["simulate", "--n", "200", "--seed", "1", "--confirm-lag", "5"],
        ["fit", "--in", cohort, "--likelihood", "uncond", "--format", "table"],
        ["ci", "--in", cohort, "--likelihood", "uncond", "--param", "doubling-time"],
        ["gof", "--in", cohort, "--likelihood", "uncond"],
        ["bias-demo", "--in", cohort, "--from", "2020-02-10", "--to", "2020-02-11"],
        ["mcmc", "--in", cohort, "--steps", "200", "--chains", "2"],
        ["plot-data", "--kind", "onset-fit", "--in", cohort],
        ["plot-data", "--kind", "se-density", "--in", cohort],
    ]
    for argv in steps:
        assert cli.main(argv + ["--out", work]) == 0, argv
    assert sum(r["fitted"] for r in read_json(work, "sweep.json")["rows"]) == 6
    for name in ("onset_fit.csv", "sweep.csv", "posterior_pmf.csv", "se_density.csv"):
        assert len(read_csv(work, name)[1]) > 0


# ---------------------------------------------------------------------------
# Fuzzed input files (needs hypothesis)
# ---------------------------------------------------------------------------

#: What a fuzzed cell becomes: None deletes it, the rest are its CSV text.
FUZZ_CELLS = (None, "", "text", "99999999999999999999", "2.7", "-3", "inf", "1e400", "nan", "true")
#: A fuzzed cell's JSON text, where it differs from its CSV text.
_JSON_CELL = {"": '""', "text": '"text"', "inf": "Infinity", "nan": "NaN"}
#: Every command that reads a cohort file, each kept to a fraction of a second
#: on the fuzzed cohort below.
FUZZ_COMMANDS = (["fit"], ["gof"], ["plot-data", "--kind", "onset-fit"],
                 ["plot-data", "--kind", "se-density"],
                 ["bias-demo", "--from", "62", "--to", "62", "--min-cases", "10"],
                 ["mcmc", "--steps", "4", "--chains", "2"])


def _mutations(st, n_rows: int, columns):
    """One to three (row, column, cell) replacements."""
    return st.lists(st.tuples(st.integers(0, n_rows - 1), st.sampled_from(columns),
                              st.sampled_from(FUZZ_CELLS)), min_size=1, max_size=3)


def _mutate(rows: list[list], columns, mutations) -> list[list]:
    """Copies of rows with the mutations applied, a deleted cell as None."""
    rows = [list(row) for row in rows]
    for row, column, cell in mutations:
        rows[row][columns.index(column)] = cell
    return rows


def _exit_as_documented(capsys, argv) -> int:
    """cli.main(argv)'s exit code, after checking that it is one the CLI
    documents and that stderr has one error line exactly when it is not 0."""
    capsys.readouterr()
    code = cli.main(argv)
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 2, 3, 4), argv
    assert sum(line.startswith("error:") for line in err) == (code != 0), err
    return code


def test_fuzzed_raw_tables_exit_as_documented(tmp_path, capsys):
    """ingest on a raw table with cells deleted or replaced by text, a huge,
    fractional, negative, infinite, nan or boolean value."""
    hypothesis = pytest.importorskip("hypothesis")
    columns = RAW_HEADER.split(",")
    rows = [row.split(",") for row in RAW_ROWS]

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(mutations=_mutations(hypothesis.strategies, len(rows), columns))
    @hypothesis.example(mutations=[(0, "age", "inf")])
    def check(mutations):
        table = [",".join(c for c in row if c is not None)
                 for row in _mutate(rows, columns, mutations)]
        _exit_as_documented(capsys, ["ingest", "--in", write_raw(tmp_path / "raw.csv", table),
                                     "--out", str(tmp_path / "out")])

    check()


def test_fuzzed_cohort_files_exit_as_documented(tmp_path, capsys, cpus):
    """Every command that reads a cohort, on a valid CSV or JSON cohort with
    cells deleted or replaced as in the raw tables above.  A day that is not
    a whole number in range, in a row with no cell deleted (which would
    shift a CSV row), fails as the file is read, with exit 2."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cpus(1)
    base = tmp_path / "base"
    assert cli.main(["simulate", "--n", "60", "--seed", "1", "--confirm-lag", "5",
                     "--out", str(base)]) == 0
    with open(base / "cohort.csv", newline="", encoding="utf-8") as fh:
        columns, *csv_rows = csv.reader(fh)
    records = timeline.read_cohort_csv(base / "cohort.csv")
    json_rows = [[json.dumps(record[name]) for name in columns]
                 for record in map(dataclasses.asdict, records)]
    days = ("B_int", "E_int", "S_int", "confirmed_int")

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(fmt=st.sampled_from(["csv", "json"]),
                      mutations=_mutations(st, len(csv_rows), columns))
    @hypothesis.example(fmt="csv", mutations=[(1, "S_int", "99999999999999999999")])
    @hypothesis.example(fmt="json", mutations=[(1, "B_int", "2.7")])
    @hypothesis.example(fmt="json", mutations=[(1, "S_int", "12.9")])
    @hypothesis.example(fmt="json", mutations=[(1, "confirmed_int", "true")])
    @hypothesis.example(fmt="json", mutations=[(1, "S_int", "Infinity")])
    @hypothesis.example(fmt="json", mutations=[(1, "S_int", "1e400")])
    @hypothesis.example(fmt="json", mutations=[(0, "gender", "99999999999999999999")])
    def check(fmt, mutations):
        src = tmp_path / f"cohort.{fmt}"
        if fmt == "csv":
            table = [",".join(c for c in row if c is not None)
                     for row in [columns, *_mutate(csv_rows, columns, mutations)]]
            src.write_text("\n".join(table) + "\n", encoding="utf-8")
        else:
            objects = ["{" + ", ".join(f'"{name}": {_JSON_CELL.get(c, c)}'
                                       for name, c in zip(columns, row) if c is not None) + "}"
                       for row in _mutate(json_rows, columns, mutations)]
            src.write_text("[" + ", ".join(objects) + "]", encoding="utf-8")
        final = {(row, column): cell for row, column, cell in mutations}
        deleted = {row for (row, _), cell in final.items() if cell is None}
        bad_day = any(column in days and cell not in (None, "") and row not in deleted
                      for (row, column), cell in final.items())
        for command in FUZZ_COMMANDS:
            code = _exit_as_documented(capsys, [*command, "--in", str(src),
                                                "--out", str(tmp_path / "out")])
            assert code == 2 or not bad_day, (command, code)

    check()
