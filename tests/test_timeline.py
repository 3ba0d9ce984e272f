"""Tests for raw-table parsing, cohort assembly, and epoch-day arithmetic."""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import multiprocessing
import os
from datetime import date

import numpy as np
import pytest

from bets import timeline
from bets.timeline import (
    QUARANTINE_DAY,
    CaseRecord,
    CaseTableError,
    CohortRules,
    RawCase,
    build_cluster_context,
    build_cohort,
    classify_outside,
    from_epoch,
    parse_case_table,
    parse_date,
    to_epoch,
)

HEADER = ("case_id,residence,gender,age,known_contact,cluster,outside,"
          "begin_wuhan,end_wuhan,arrived,symptom,initial,confirmed,location")


def make_table(*rows: str) -> str:
    return "\n".join([HEADER, *rows]) + "\n"


# ---------------------------------------------------------------------------
# Epoch days and date parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d, n", [
    (date(2019, 11, 30), 0),
    (date(2019, 12, 1), 1),
    (date(2020, 1, 10), 41),
    (date(2020, 1, 20), 51),
    (date(2020, 1, 23), 54),
    (date(2020, 1, 31), 62),
    (date(2020, 2, 18), 80),
])
def test_epoch_day_reference_points(d, n):
    assert to_epoch(d) == n
    assert from_epoch(n) == d


def test_epoch_round_trip_and_bounds():
    for n in range(0, 130, 7):
        assert to_epoch(from_epoch(n)) == n
    with pytest.raises(ValueError):
        to_epoch(date(2019, 11, 29))
    with pytest.raises(ValueError):
        from_epoch(-1)
    assert timeline.QUARANTINE_DAY == 54
    assert timeline.QUARANTINE_DATE == from_epoch(54) == date(2020, 1, 23)


@pytest.mark.parametrize("text, expected", [
    ("2020-01-22", date(2020, 1, 22)),
    ("22-Jan", date(2020, 1, 22)),
    ("9-Feb", date(2020, 2, 9)),
    ("1/Jan", date(2020, 1, 1)),
    ("10 March", date(2020, 3, 10)),
    ("5-Dec", date(2019, 12, 5)),
    ("30-Nov", date(2019, 11, 30)),
])
def test_parse_date_forms(text, expected):
    assert parse_date(text) == expected


@pytest.mark.parametrize("text", ["", "NA", "n/a", "-", "?", "none", "unknown", None])
def test_parse_date_missing_markers(text):
    assert parse_date(text) is None


@pytest.mark.parametrize("text", ["Jan-22", "2020/01/22", "32-Jan", "foo",
                                  "20200122", "2020-W04-3"])
def test_parse_date_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_date(text)


# ---------------------------------------------------------------------------
# Raw-table parsing
# ---------------------------------------------------------------------------

def test_parse_case_table_happy_path():
    table = make_table(
        "w-1,Wuhan,M,34,yes,A,no,,22-Jan,22-Jan,23-Jan,25-Jan,28-Jan,Beijing",
        "v-2,Shanghai,F,61,no,,no,10-Jan,20-Jan,20-Jan,21-Jan,,24-Jan,Shanghai",
    )
    cases = parse_case_table(table)
    assert [c.case_id for c in cases] == ["w-1", "v-2"]
    one = cases[0]
    assert one.residence == "Wuhan"
    assert one.gender == "male"
    assert one.age == 34
    assert one.known_contact is True
    assert one.cluster == "A"
    assert one.begin_wuhan is None
    assert one.end_wuhan == date(2020, 1, 22)
    assert one.confirmed == date(2020, 1, 28)
    assert one.location == "Beijing"
    assert cases[1].gender == "female"
    assert cases[1].known_contact is False
    assert cases[1].cluster is None
    assert cases[1].initial is None


def test_parse_case_table_header_aliases_and_case():
    table = ("Case,Residence,Sex,AGE,Contact,Cluster,Outside,"
             "Begin of stay in Wuhan,End of stay in Wuhan,Arrival,"
             "Symptom onset,Initial symptom,Confirmation\n"
             "x-1,Wuhan,f,45,no,,no,,21-Jan,22-Jan,23-Jan,,25-Jan\n")
    cases = parse_case_table(table)
    assert cases[0].case_id == "x-1"
    assert cases[0].gender == "female"
    assert cases[0].end_wuhan == date(2020, 1, 21)
    assert cases[0].location is None  # optional column absent


def test_parse_case_table_semicolon_delimiter():
    table = make_table("a-1;Wuhan;m;30;no;;no;;20-Jan;21-Jan;22-Jan;;25-Jan;")
    cases = parse_case_table(table.replace(",", ";"), delimiter=";")
    assert cases[0].case_id == "a-1"


def test_parse_case_table_blank_rows_and_float_age():
    table = make_table(
        "a-1,Wuhan,m,41.0,no,,no,,20-Jan,21-Jan,22-Jan,,25-Jan,",
        ",,,,,,,,,,,,,",
    )
    cases = parse_case_table(table)
    assert len(cases) == 1
    assert cases[0].age == 41


def test_parse_case_table_missing_column_is_named():
    bad = HEADER.replace("confirmed,", "") + "\n"
    with pytest.raises(CaseTableError, match="confirmed"):
        parse_case_table(bad)


def test_parse_case_table_row_errors_carry_row_number():
    with pytest.raises(CaseTableError, match="row 2"):
        parse_case_table(make_table(
            "a-1,Wuhan,m,30,no,,no,,20-Jan,21-Jan,22-Jan,,25-Jan,",
            ",Wuhan,m,30,no,,no,,20-Jan,21-Jan,22-Jan,,25-Jan,",
        ))
    with pytest.raises(CaseTableError, match="row 1.*confirmed"):
        parse_case_table(make_table(
            "a-1,Wuhan,m,30,no,,no,,20-Jan,21-Jan,22-Jan,,not-a-date,"))
    with pytest.raises(CaseTableError, match="row 1: missing confirmed date"):
        parse_case_table(make_table("a-1,Wuhan,m,30,no,,no,,20-Jan,21-Jan,22-Jan,,,"))
    with pytest.raises(CaseTableError, match="empty table"):
        parse_case_table("")


def test_parse_case_table_reads_unusable_cells_as_their_defaults():
    """An unrecognized gender reads "unknown", an outside cell holding a
    missing marker "no", and an unparseable age None."""
    (case,) = parse_case_table(make_table(
        "a-1,Wuhan,x,thirty,no,,NA,,20-Jan,21-Jan,22-Jan,,25-Jan,"))
    assert (case.gender, case.outside, case.age) == ("unknown", "no", None)


def test_parse_case_table_unparseable_optional_dates_become_none():
    cases = parse_case_table(make_table(
        "a-1,Wuhan,m,30,no,,no,garbage,20-Jan,21-Jan,22-Jan,,25-Jan,"))
    assert cases[0].begin_wuhan is None


# ---------------------------------------------------------------------------
# Outside-infection classification
# ---------------------------------------------------------------------------

def _raw(**kwargs) -> RawCase:
    base = dict(case_id="c", confirmed=date(2020, 1, 28))
    base.update(kwargs)
    return RawCase(**base)


def test_classify_outside_no_stay_is_yes():
    assert classify_outside(_raw(), {}) == "yes"
    early = _raw(begin_wuhan=date(2019, 11, 1), end_wuhan=date(2019, 11, 20))
    assert classify_outside(early, {}) == "yes"


def test_classify_outside_symptoms_during_stay_is_no():
    case = _raw(begin_wuhan=date(2020, 1, 1), end_wuhan=date(2020, 1, 20),
                symptom=date(2020, 1, 15))
    assert classify_outside(case, {}) == "no"


def test_classify_outside_cluster_contact_is_likely():
    case = _raw(known_contact=True, cluster="fam-3",
                begin_wuhan=date(2020, 1, 1), end_wuhan=date(2020, 1, 10),
                symptom=date(2020, 1, 20))
    peer = _raw(case_id="p", cluster="fam-3", symptom=date(2020, 1, 12))
    ctx = build_cluster_context([case, peer])
    assert ctx["fam-3"] == date(2020, 1, 12)
    assert classify_outside(case, ctx) == "likely"
    # without an earlier onset in the cluster the default is "no"
    assert classify_outside(case, {"fam-3": date(2020, 1, 25)}) == "no"
    assert classify_outside(case, {}) == "no"


# ---------------------------------------------------------------------------
# CaseRecord and its sub-day offsets
# ---------------------------------------------------------------------------

def test_from_ints_offsets():
    rec = CaseRecord.from_ints("r", 0, 22, 25)
    assert rec.B == 0.0 and rec.is_resident
    assert rec.E == 21.75
    assert rec.S == 24.5
    vis = CaseRecord.from_ints("v", 3, 7, 9)
    assert vis.B == 2.25 and not vis.is_resident
    assert vis.E == 6.75
    assert vis.S == 8.5
    assert vis.B < vis.E and vis.S > vis.B


@pytest.mark.parametrize("b, e, s", [
    (5, 3, 9),     # end before begin
    (0, 60, 61),   # end after the horizon
    (-1, 3, 4),    # negative begin
    (5, 7, 4),     # onset before exposure start
    (0, 0, 3),     # zero-length resident interval
])
def test_from_ints_rejects_bad_intervals(b, e, s):
    with pytest.raises(ValueError):
        CaseRecord.from_ints("bad", b, e, s)


def test_from_ints_bounds_onset_and_confirmation_to_the_calendar():
    """Onset and confirmation days run from 0 to the epoch day of date.max,
    the days from_epoch turns into dates and int64 holds."""
    last = (date.max - timeline.EPOCH_ORIGIN).days
    edge = CaseRecord.from_ints("edge", 0, 3, last, confirmed_int=last)
    assert timeline.from_epoch(edge.S_int) == timeline.from_epoch(edge.confirmed_int) == date.max
    assert CaseRecord.from_ints("first", 0, 3, 4, confirmed_int=0).confirmed_int == 0
    for s, confirmed, name in ((last + 1, None, "S_int"), (4, last + 1, "confirmed_int"),
                               (4, -1, "confirmed_int"), (10**20, 4, "S_int")):
        with pytest.raises(ValueError, match=f"case far: need 0 <= {name} <= {last}, got"):
            CaseRecord.from_ints("far", 0, 3, s, confirmed_int=confirmed)


def test_age_groups():
    assert timeline._age_group(49) == "under50"
    assert timeline._age_group(50) == "over50"
    assert timeline._age_group(None) == "unknown"


# ---------------------------------------------------------------------------
# Cohort assembly
# ---------------------------------------------------------------------------

def test_build_cohort_keeps_and_converts():
    table = make_table(
        "w-1,Wuhan,m,34,no,,no,,22-Jan,22-Jan,25-Jan,,28-Jan,Beijing",
        "v-2,Shanghai,f,61,no,,no,10-Jan,20-Jan,20-Jan,21-Jan,,24-Jan,Shanghai",
    )
    cohort, report = build_cohort(parse_case_table(table))
    assert report.n_input == 2 and report.n_kept == 2
    assert report.excluded == {}
    w = cohort[0]
    assert (w.B_int, w.E_int, w.S_int) == (0, 53, 56)
    assert w.B == 0.0 and w.location == "Beijing"
    assert w.confirmed_int == 59
    v = cohort[1]
    assert (v.B_int, v.E_int, v.S_int) == (41, 51, 52)
    assert v.gender == "female" and v.age_group == "over50"


def test_build_cohort_imputations():
    table = make_table(
        # resident with no recorded begin: exposed from the epoch origin
        "w-1,Wuhan,m,30,no,,no,,20-Jan,21-Jan,22-Jan,,25-Jan,",
        # missing end of stay: imputed to the quarantine day
        "w-2,Wuhan,m,30,no,,no,,,22-Jan,25-Jan,,28-Jan,",
    )
    cohort, report = build_cohort(parse_case_table(table))
    assert report.n_kept == 2
    assert cohort[0].B_int == 0
    assert cohort[1].E_int == 54


def test_build_cohort_exclusion_rules_and_order():
    table = make_table(
        # outside yes: dropped first even though it also arrived late
        "o-1,Shanghai,m,30,no,,yes,,,10-Feb,12-Feb,,15-Feb,",
        # arrived after the cutoff
        "a-1,Wuhan,m,30,no,,no,,22-Jan,30-Jan,31-Jan,,3-Feb,",
        # no symptom onset recorded
        "s-1,Wuhan,m,30,no,,no,,20-Jan,21-Jan,,,25-Jan,",
        # visitor with unknown begin of stay
        "u-1,Shanghai,m,30,no,,no,,20-Jan,21-Jan,22-Jan,,25-Jan,",
        # onset before the stay begins: invalid interval
        "i-1,Shanghai,m,30,no,,no,15-Jan,20-Jan,21-Jan,10-Jan,,25-Jan,",
        # survivor
        "k-1,Wuhan,m,30,no,,no,,20-Jan,21-Jan,22-Jan,,25-Jan,",
    )
    cohort, report = build_cohort(parse_case_table(table))
    assert report.n_kept == 1 and cohort[0].case_id == "k-1"
    assert report.excluded == {
        "outside_not_kept": 1,
        "arrived_after_cutoff": 1,
        "missing_symptom": 1,
        "unknown_exposure_start": 1,
        "invalid_interval": 1,
    }
    # 5 cases survive the outside filter; one of them lacks an onset date
    assert report.missing_symptom_fraction == pytest.approx(1 / 5)


def test_build_cohort_reclassifies_outside_when_asked():
    # the row says "no" but records no Wuhan stay at all
    table = make_table("x-1,Shanghai,m,30,no,,no,,,22-Jan,23-Jan,,25-Jan,")
    cases = parse_case_table(table)
    kept_as_is, _ = build_cohort(cases)
    assert kept_as_is == []  # unknown exposure start, not outside
    _, report = build_cohort(cases, CohortRules(reclassify_outside=True))
    assert report.excluded == {"outside_not_kept": 1}


def test_build_cohort_keep_likely():
    table = make_table("l-1,Wuhan,m,30,no,,likely,,20-Jan,21-Jan,22-Jan,,25-Jan,")
    cohort, _ = build_cohort(parse_case_table(table))
    assert cohort == []
    cohort, _ = build_cohort(parse_case_table(table), CohortRules(keep_outside="likely"))
    assert len(cohort) == 1


# ---------------------------------------------------------------------------
# Cohort I/O
# ---------------------------------------------------------------------------

def _sample_records() -> list[CaseRecord]:
    return [
        CaseRecord.from_ints("w-1", 0, 53, 56, gender="male",
                             age_group="under50", confirmed_int=59,
                             location="Beijing"),
        CaseRecord.from_ints("v-2", 41, 51, 52, gender="female",
                             age_group="over50"),
    ]


def test_cohort_csv_round_trip(tmp_path):
    path = tmp_path / "cohort.csv"
    records = _sample_records()
    timeline.write_cohort_csv(records, path)
    assert timeline.read_cohort_csv(path) == records
    first = path.read_bytes()
    timeline.write_cohort_csv(records, path)
    assert path.read_bytes() == first  # deterministic bytes
    assert [p.name for p in tmp_path.iterdir()] == ["cohort.csv"]  # no temp litter


def test_csv_text_ends_only_a_carriage_return_row_in_crlf():
    rows = [[1, 2.5, "a,b"], ['q"', None, 3], ["x\ry", 0.1, "z"]]
    text = timeline.csv_text(["u", "v", "w"], rows)
    assert text.startswith('u,v,w\n1,2.5,"a,b"\n"q""",,3\n')
    assert text.endswith('"x\ry",0.1,z\r\n')
    assert list(csv.reader(io.StringIO(text, newline=""))) == [
        ["u", "v", "w"], ["1", "2.5", "a,b"], ['q"', "", "3"], ["x\ry", "0.1", "z"]]


def test_cohort_csv_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("case_id,B_int\nx,0\n")
    with pytest.raises(CaseTableError, match="lacks columns"):
        timeline.read_cohort_csv(path)
    path.write_text("case_id,B_int,E_int,S_int\nx,0,53,56\ny,0\n")  # short row
    with pytest.raises(CaseTableError, match="cohort row 2 .case y."):
        timeline.read_cohort_csv(path)


def test_cohort_json_structure(tmp_path):
    path = tmp_path / "cohort.json"
    timeline.write_cohort_json(_sample_records(), path)
    data = json.loads(path.read_text())
    assert [d["case_id"] for d in data] == ["w-1", "v-2"]
    assert data[0]["B"] == 0.0
    assert data[1]["confirmed_int"] is None
    assert timeline.read_cohort(path) == _sample_records()


@pytest.mark.parametrize("bad, match", [
    ({"B_int": 45, "E_int": 41}, "need 0 <= B_int <= E_int"),
    ({"S_int": "x"}, "invalid literal"),
    ({"confirmed_int": "soon"}, "invalid literal"),
])
def test_cohort_csv_and_json_reject_a_bad_row_alike(tmp_path, bad, match):
    rows = [{"case_id": "a-1", "B_int": 0, "E_int": 53, "S_int": 56},
            {"case_id": "a-2", "B_int": 41, "E_int": 51, "S_int": 52},
            {"case_id": "bad-3", "B_int": 0, "E_int": 53, "S_int": 56, **bad}]
    fields = ["case_id", "B_int", "E_int", "S_int", "confirmed_int"]
    csv_path = tmp_path / "cohort.csv"
    csv_path.write_text("\n".join([",".join(fields)] + [
        ",".join(str(r.get(f, "")) for f in fields) for r in rows]) + "\n")
    json_path = tmp_path / "cohort.json"
    json_path.write_text(json.dumps(rows))
    messages = []
    for path in (csv_path, json_path):
        with pytest.raises(CaseTableError, match=match) as exc:
            timeline.read_cohort(path)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("cohort row 3 (case bad-3): ")


def test_read_cohort_json_needs_a_list(tmp_path):
    path = tmp_path / "cohort.json"
    for text in ('{"rows": []}', '[{"case_id": "a-1", "B_int": 0, "E_int": 53, "S_int": 56}, 7]'):
        path.write_text(text)
        with pytest.raises(CaseTableError, match="not a list of case objects"):
            timeline.read_cohort(path)


def test_atomic_write_text(tmp_path):
    path = tmp_path / "out.txt"
    timeline.atomic_write_text(path, "one")
    timeline.atomic_write_text(path, "two")
    assert path.read_text() == "two"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_text_leaves_no_file_when_the_write_fails(tmp_path):
    """Text that UTF-8 cannot encode (a lone surrogate) raises, and neither
    the target nor the temporary file is left behind."""
    with pytest.raises(UnicodeEncodeError):
        timeline.atomic_write_text(tmp_path / "out.txt", "lone \ud800 surrogate")
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# Cohort file round trips (needs hypothesis)
# ---------------------------------------------------------------------------

def _record_strategy():
    """CaseRecords as the package builds them: labels from the parsers'
    vocabularies, a location that is absent or non-empty, free-text case IDs."""
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def record(draw):
        b = draw(st.integers(0, QUARANTINE_DAY))
        e = draw(st.integers(max(b, 1), QUARANTINE_DAY))
        s = draw(st.integers(max(b, 1), e + 200))
        return CaseRecord.from_ints(
            draw(st.text(min_size=1)), b, e, s,
            gender=draw(st.sampled_from(["male", "female", "unknown"])),
            age_group=draw(st.sampled_from(["under50", "over50", "unknown"])),
            confirmed_int=draw(st.one_of(st.none(), st.integers(0, 10**6))),
            location=draw(st.one_of(st.none(), st.text(min_size=1))))

    return st.lists(record(), max_size=6)


def test_cohort_files_round_trip(tmp_path):
    """CSV and JSON cohort files read back to equal CaseRecords."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(records=_record_strategy())
    def check(records):
        for name, write in (("c.csv", timeline.write_cohort_csv),
                            ("c.json", timeline.write_cohort_json)):
            path = tmp_path / name
            write(records, path)
            assert timeline.read_cohort(path) == records

    check()


# ---------------------------------------------------------------------------
# Distinct rows (needs hypothesis)
# ---------------------------------------------------------------------------

def test_distinct_rows_are_those_of_np_unique():
    """On 1-4 columns of small non-negative ints and floats with many repeats,
    in shuffled order: each column is its distinct rows gathered back, first[k]
    is row k's earliest case, the rows rise strictly in the order of the
    arguments, and the answer is np.unique(axis=0)'s."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def columns(draw):
        n = draw(st.integers(0, 40))
        cols = []
        for _ in range(draw(st.integers(1, 4))):
            value = draw(st.sampled_from([st.integers(0, 5), st.floats(0.0, 8.0)]))
            pool = draw(st.lists(value, min_size=1, max_size=3))
            cols.append(np.array(draw(st.lists(st.sampled_from(pool), min_size=n,
                                               max_size=n))))
        return cols

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(cols=columns())
    def check(cols):
        first, inverse = timeline.distinct_rows(*cols)
        assert all(np.array_equal(col[first][inverse], col) for col in cols)
        assert [int(np.flatnonzero(inverse == k)[0]) for k in range(first.size)] \
            == first.tolist()
        rows = list(zip(*(col[first].tolist() for col in cols)))
        assert all(a < b for a, b in zip(rows, rows[1:]))
        _, index, unique_inverse = np.unique(np.column_stack(cols), axis=0,
                                             return_index=True, return_inverse=True)
        assert np.array_equal(first, index)
        assert np.array_equal(inverse, unique_inverse.ravel())

    check()
    first, inverse = timeline.distinct_rows(np.array([]), np.array([], dtype=int))
    assert first.shape == inverse.shape == (0,)


# ---------------------------------------------------------------------------
# The process pool
# ---------------------------------------------------------------------------

def test_usable_cpus_reads_the_affinity_mask_or_else_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert timeline.usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert timeline.usable_cpus() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert timeline.usable_cpus() == 1


def test_parallel_map_applies_each_task_in_order(monkeypatch, cpus):
    """In a pool too, where this process computes the first share of the
    tasks and worker processes the rest, tasks of no arguments among them;
    one CPU, or one task, starts no pool."""
    tasks = [(2, 3), (3, 2), (5, 1)]
    cpus(2)
    assert timeline.parallel_map(pow, tasks) == [8, 9, 5]
    here, worker, same_worker = timeline.parallel_map(os.getpid, [()] * 3)
    assert here == os.getpid() != worker == same_worker

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert timeline.parallel_map(pow, [(4, 2)]) == [16]
    cpus(1)
    assert timeline.parallel_map(pow, tasks) == [8, 9, 5]


def test_parallel_map_raises_the_first_failing_task_and_joins_its_workers(cpus):
    cpus(2)
    with pytest.raises(ValueError, match="'x'"):
        timeline.parallel_map(int, [("1",), ("x",), ("y",)])
    assert multiprocessing.active_children() == []
    with pytest.raises(ValueError, match="'x'"):  # in this process's share
        timeline.parallel_map(int, [("x",), ("y",), ("z",)])
    assert multiprocessing.active_children() == []
