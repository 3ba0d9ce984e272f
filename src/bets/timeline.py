"""Case-table ingestion and the study timeline.

Everything in this module is cohort bookkeeping: reading the raw line-list
table, classifying whether a case could have been infected outside Wuhan,
applying the cohort inclusion rules, converting calendar dates to the
integer epoch-day scale used by the rest of the package (day 0 = November 30,
2019, so the travel quarantine of January 23, 2020 falls on day 54), and
reducing a cohort's columns to the distinct rows both likelihoods evaluate.
It also owns the names every layer shares: the study's days, the case labels
(GENDERS, AGE_GROUPS), the choices the command-line parser offers without
importing a model module (the likelihood kinds, KINDS, and the discrete
model's STRATA, GROWTH and DEPARTURE), the r = 0 switch (R_SWITCH) and
check_finite, the one "must be a finite number" check of every parameter.
And it owns parallel_map, the one process pool, which runs the fits'
restarts, the profile's sides, the bootstrap refits and the sampler's
groups of chains, and usable_cpus, the one count of its worker processes;
it imports multiprocessing only when it starts a pool.

Continuous event times carry fixed sub-day offsets so that recorded same-day
events stay strictly ordered: begin-of-stay sits at three quarters of a day
before the end of its recorded day, end-of-stay at one quarter, and symptom
onset at half.  A begin-of-stay recorded as 0 means "Wuhan resident" and is
kept at exactly 0.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import asdict, dataclass, field, fields
from datetime import date, timedelta
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "EPOCH_ORIGIN",
    "QUARANTINE_DAY",
    "QUARANTINE_DATE",
    "STAGE_BREAK_DAY",
    "GENDERS",
    "AGE_GROUPS",
    "KINDS",
    "STRATA",
    "GROWTH",
    "DEPARTURE",
    "R_SWITCH",
    "check_finite",
    "CaseTableError",
    "RawCase",
    "CaseRecord",
    "CohortRules",
    "ExclusionReport",
    "to_epoch",
    "from_epoch",
    "parse_date",
    "parse_case_table",
    "build_cluster_context",
    "classify_outside",
    "build_cohort",
    "csv_text",
    "write_cohort_csv",
    "read_cohort_csv",
    "write_cohort_json",
    "read_cohort",
    "write_json",
    "atomic_write_text",
    "distinct_rows",
]

#: Day 0 of the epoch-day scale.
EPOCH_ORIGIN = date(2019, 11, 30)

#: Epoch day of the Wuhan travel quarantine (January 23, 2020, QUARANTINE_DATE);
#: the horizon L.
QUARANTINE_DAY = 54
QUARANTINE_DATE = EPOCH_ORIGIN + timedelta(days=QUARANTINE_DAY)

#: The last epoch day a date holds (date.max), and a bound on the onset and
#: confirmation days: from_epoch and the int64 arrays of the models take them.
_LAST_DAY = (date.max - EPOCH_ORIGIN).days

#: Epoch day the second stage of two-stage growth starts (January 20, 2020).
STAGE_BREAK_DAY = 51

#: A case's known labels, in the order of a stratified fit's gap (first minus second).
GENDERS = ("male", "female")
AGE_GROUPS = ("under50", "over50")

#: The likelihood kinds of likelihood.case_terms, and how errors name them.
KINDS = {"cond": "conditional likelihood", "uncond": "unconditional likelihood",
         "cond_trunc": "truncated likelihood"}

#: The discrete model's stratifications (bayes.DiscreteConfig.strata): each
#: one's stratum labels, and the key that reads a case's label.
STRATA = {
    "none": (("all",), lambda c: "all"),
    "gender": (GENDERS, lambda c: c.gender),
    "age50": (AGE_GROUPS, lambda c: c.age_group),
}
#: The discrete model's epidemic curves: one exponent, or a second one after day l1.
GROWTH = ("single", "two_stage")
#: The discrete model's departure-day models: uniform hazard, or geometric
#: with a chunyun break.
DEPARTURE = ("uniform", "geometric")

#: |r| below this uses the exact r = 0 limiting forms.
R_SWITCH = 1e-8


def check_finite(values: Mapping[str, float | None], optional: Sequence[str] = ()) -> None:
    """ValueError naming the first of values that is not a finite number; a
    name in optional may also be None.  NaN fails no `<` check."""
    for name, value in values.items():
        if not (name in optional if value is None else math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number, got {value}")


class CaseTableError(ValueError):
    """Raised for unusable raw tables: bad headers or broken mandatory fields."""


def to_epoch(d: date) -> int:
    """Convert a calendar date to an epoch day (2019-11-30 -> 0).

    Raises ValueError for dates before the origin.
    """
    n = (d - EPOCH_ORIGIN).days
    if n < 0:
        raise ValueError(f"date {d.isoformat()} is before the epoch origin {EPOCH_ORIGIN.isoformat()}")
    return n


def from_epoch(n: int) -> date:
    """Inverse of :func:`to_epoch`."""
    if n < 0:
        raise ValueError(f"epoch day must be >= 0, got {n}")
    return EPOCH_ORIGIN + timedelta(days=int(n))


_MONTHS = {
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5, "jun": 6,
    "jul": 7, "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}
_ISO_DATE = re.compile(r"^[0-9]{4}-[0-9]{2}-[0-9]{2}$")
_DAY_MON = re.compile(r"^(\d{1,2})[-/ ]([A-Za-z]{3,})$")
_MISSING = {"", "na", "n/a", "nan", "none", "-", "?", "unknown"}


def parse_date(text: str | None) -> date | None:
    """Parse a date in ISO-8601 YYYY-MM-DD or day-month form ("22-Jan", "9-Feb").

    Day-month strings have their year inferred from the month: November and
    December belong to 2019, every other month to 2020.  Missing markers
    (empty, "NA", "-", ...) map to None; anything else unparseable raises
    ValueError.
    """
    if text is None:
        return None
    text = text.strip()
    if text.lower() in _MISSING:
        return None
    try:
        if _ISO_DATE.match(text):
            return date.fromisoformat(text)
    except ValueError:
        pass
    m = _DAY_MON.match(text)
    if m:
        day = int(m.group(1))
        mon = _MONTHS.get(m.group(2)[:3].lower())
        if mon is not None:
            year = 2019 if mon in (11, 12) else 2020
            return date(year, mon, day)
    raise ValueError(f"unparseable date: {text!r}")


@dataclass(frozen=True)
class RawCase:
    """One row of the raw line-list table, lightly normalized."""

    case_id: str
    residence: str = ""
    gender: str = "unknown"
    age: int | None = None
    known_contact: bool = False
    cluster: str | None = None
    outside: str = "no"
    begin_wuhan: date | None = None
    end_wuhan: date | None = None
    arrived: date | None = None
    symptom: date | None = None
    initial: date | None = None
    confirmed: date | None = None
    location: str | None = None  # reporting location; optional column


# Header-name normalization: lowercase, non-alphanumerics collapsed.
def _norm_header(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.strip().lower()).strip("_")


#: RawCase's fields name the raw table's columns; all but location are required.
_REQUIRED_COLUMNS = [f.name for f in fields(RawCase) if f.name != "location"]
_COLUMN_ALIASES = {
    **{f.name: f.name for f in fields(RawCase)},
    "case": "case_id",
    "id": "case_id",
    "sex": "gender",
    "contact": "known_contact",
    "begin_of_stay_in_wuhan": "begin_wuhan",
    "end_of_stay_in_wuhan": "end_wuhan",
    "arrival": "arrived",
    "symptom_onset": "symptom",
    "initial_symptom": "initial",
    "confirmation": "confirmed",
    "province": "location",
    "city": "location",
    "reported_in": "location",
}

_TRUE_STRINGS = {"yes", "y", "true", "1"}


def _parse_gender(text: str) -> str:
    t = text.strip().lower()
    for label in GENDERS:
        if t in (label, label[0]):
            return label
    return "unknown"


def _parse_outside(text: str) -> str:
    t = text.strip().lower()
    return "no" if t in _MISSING else t


def parse_case_table(stream, delimiter: str = ",") -> list[RawCase]:
    """Read a raw case table into RawCase rows.

    Parameters
    ----------
    stream : file-like or str
        Text stream (or a string) holding a delimited table whose header
        contains at least the canonical columns (case-insensitive; spaces and
        underscores interchangeable).
    delimiter : str
        Field delimiter, default comma.

    Raises
    ------
    CaseTableError
        If a required column is missing, or a mandatory field (case_id,
        confirmed) of some row cannot be parsed; row errors carry the
        1-based data-row number.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise CaseTableError("empty table: no header row") from None

    col_of: dict[str, int] = {}
    for i, name in enumerate(header):
        canon = _COLUMN_ALIASES.get(_norm_header(name))
        if canon is not None and canon not in col_of:
            col_of[canon] = i
    missing = [c for c in _REQUIRED_COLUMNS if c not in col_of]
    if missing:
        raise CaseTableError(f"missing column: {missing[0]}")

    def cell(row: Sequence[str], name: str) -> str:
        i = col_of.get(name)
        return row[i].strip() if i is not None and i < len(row) else ""

    cases: list[RawCase] = []
    for rownum, row in enumerate(reader, start=1):
        if not any(f.strip() for f in row):
            continue
        case_id = cell(row, "case_id")
        if not case_id:
            raise CaseTableError(f"row {rownum}: missing case_id")
        try:
            confirmed = parse_date(cell(row, "confirmed"))
        except ValueError as exc:
            raise CaseTableError(f"row {rownum}: bad confirmed date: {exc}") from None
        if confirmed is None:
            raise CaseTableError(f"row {rownum}: missing confirmed date")

        def maybe_date(name: str) -> date | None:
            try:
                return parse_date(cell(row, name))
            except ValueError:
                return None  # unparseable optional fields become absent

        age_text = cell(row, "age")
        try:
            age = int(float(age_text)) if age_text.lower() not in _MISSING else None
        except (ValueError, OverflowError):  # "inf" and "1e309" overflow int()
            age = None

        cases.append(RawCase(
            case_id=case_id,
            residence=cell(row, "residence"),
            gender=_parse_gender(cell(row, "gender")),
            age=age,
            known_contact=cell(row, "known_contact").lower() in _TRUE_STRINGS,
            cluster=cell(row, "cluster") or None,
            outside=_parse_outside(cell(row, "outside")),
            begin_wuhan=maybe_date("begin_wuhan"),
            end_wuhan=maybe_date("end_wuhan"),
            arrived=maybe_date("arrived"),
            symptom=maybe_date("symptom"),
            initial=maybe_date("initial"),
            confirmed=confirmed,
            location=cell(row, "location") or None,
        ))
    return cases


# ---------------------------------------------------------------------------
# Outside-infection classification
# ---------------------------------------------------------------------------

_EXPOSURE_WINDOW = (date(2019, 12, 1), QUARANTINE_DATE)


def _is_wuhan_resident(case: RawCase) -> bool:
    return case.residence.strip().lower() == "wuhan"


def _wuhan_stay(case: RawCase) -> tuple[date, date] | None:
    """Recorded (begin, end) of the Wuhan stay, with the standard imputations.

    Returns None when the row records no stay at all.
    """
    if case.begin_wuhan is None and case.end_wuhan is None and not _is_wuhan_resident(case):
        return None
    begin = case.begin_wuhan if case.begin_wuhan is not None else EPOCH_ORIGIN
    end = case.end_wuhan if case.end_wuhan is not None else QUARANTINE_DATE
    return begin, end


def build_cluster_context(cases: Iterable[RawCase]) -> dict[str, date]:
    """Map each cluster id to the earliest recorded symptom onset among members."""
    earliest: dict[str, date] = {}
    for c in cases:
        if c.cluster and c.symptom is not None:
            cur = earliest.get(c.cluster)
            if cur is None or c.symptom < cur:
                earliest[c.cluster] = c.symptom
    return earliest


def classify_outside(case: RawCase, cluster_context: Mapping[str, date]) -> str:
    """Classify whether the case was likely infected outside Wuhan.

    "yes": no recorded Wuhan stay intersecting Dec 1, 2019 - Jan 23, 2020.
    "likely": Wuhan-exposed but symptom-free during the stay, with a recorded
    contact in a cluster whose earliest onset precedes this case's onset.
    "no": everything else (insufficient information defaults here).
    """
    stay = _wuhan_stay(case)
    lo, hi = _EXPOSURE_WINDOW
    if stay is None or stay[1] < lo or stay[0] > hi:
        return "yes"
    symptoms_during_stay = case.symptom is not None and case.symptom <= stay[1]
    if symptoms_during_stay:
        return "no"
    if case.known_contact and case.cluster and case.symptom is not None:
        first = cluster_context.get(case.cluster)
        if first is not None and first < case.symptom:
            return "likely"
    return "no"


# ---------------------------------------------------------------------------
# Cohort construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaseRecord:
    """A cohort member on the epoch-day scale.

    B_int/E_int/S_int are the recorded (or imputed) integer epoch days of
    begin-of-stay, end-of-stay, and symptom onset; B/E/S carry the sub-day
    offsets that keep same-day events strictly ordered.  B_int == 0 marks a
    Wuhan resident and keeps B = 0 exactly.
    """

    case_id: str
    B_int: int
    E_int: int
    S_int: int
    B: float
    E: float
    S: float
    gender: str = "unknown"
    age_group: str = "unknown"
    confirmed_int: int | None = None
    location: str | None = None

    @classmethod
    def from_ints(cls, case_id: str, b_int: int, e_int: int, s_int: int,
                  gender: str = "unknown", age_group: str = "unknown",
                  confirmed_int: int | None = None, location: str | None = None) -> "CaseRecord":
        """Build a record from integer days, applying the sub-day offsets;
        ValueError naming the case when a day is out of range or out of order."""
        if not 0 <= b_int <= e_int <= QUARANTINE_DAY:
            raise ValueError(f"case {case_id}: need 0 <= B_int <= E_int <= "
                             f"{QUARANTINE_DAY}, got ({b_int}, {e_int})")
        for name, day in (("S_int", s_int), ("confirmed_int", confirmed_int)):
            if day is not None and not 0 <= day <= _LAST_DAY:
                raise ValueError(f"case {case_id}: need 0 <= {name} <= {_LAST_DAY}, got {day}")
        b = 0.0 if b_int == 0 else b_int - 0.75
        e = e_int - 0.25
        s = s_int - 0.5
        if not b < e:
            raise ValueError(f"case {case_id}: empty exposure interval (B={b}, E={e})")
        if not s > b:
            raise ValueError(f"case {case_id}: symptom onset S={s} not after exposure start B={b}")
        return cls(case_id=case_id, B_int=b_int, E_int=e_int, S_int=s_int,
                   B=b, E=e, S=s, gender=gender, age_group=age_group,
                   confirmed_int=confirmed_int, location=location)

    @property
    def is_resident(self) -> bool:
        return self.B_int == 0


#: Age (years) from which a case is in the older age group, AGE_GROUPS[1].
_AGE_CUT = 50


def _age_group(age: int | None) -> str:
    if age is None:
        return "unknown"
    return AGE_GROUPS[age >= _AGE_CUT]


@dataclass(frozen=True)
class CohortRules:
    """Inclusion rules applied by :func:`build_cohort`, in order."""

    keep_outside: str = "no"
    arrival_cutoff: date = QUARANTINE_DATE
    impute_end_to: date = QUARANTINE_DATE
    reclassify_outside: bool = False  # recompute `outside` from the three rules


@dataclass
class ExclusionReport:
    """Why raw rows did not make it into the cohort."""

    n_input: int = 0
    n_kept: int = 0
    excluded: dict[str, int] = field(default_factory=dict)
    missing_symptom_fraction: float | None = None


_EXCLUSION_ORDER = [
    "outside_not_kept",
    "arrived_after_cutoff",
    "missing_symptom",
    "unknown_exposure_start",
    "invalid_interval",
]


def build_cohort(cases: Sequence[RawCase],
                 rules: CohortRules | None = None) -> tuple[list[CaseRecord], ExclusionReport]:
    """Apply the inclusion rules and convert survivors to CaseRecords.

    Exclusion order: outside-filter, arrival-filter, symptom-filter, then
    conversion (unknown begin-of-stay for non-residents and ill-formed
    intervals).  Exclusions are counted, never raised.
    """
    rules = rules or CohortRules()
    report = ExclusionReport(n_input=len(cases))
    counts = {k: 0 for k in _EXCLUSION_ORDER}
    cohort: list[CaseRecord] = []

    context = build_cluster_context(cases) if rules.reclassify_outside else {}
    n_after_outside = 0
    for case in cases:
        outside = classify_outside(case, context) if rules.reclassify_outside else case.outside
        if outside != rules.keep_outside:
            counts["outside_not_kept"] += 1
            continue
        n_after_outside += 1
        if case.arrived is not None and case.arrived > rules.arrival_cutoff:
            counts["arrived_after_cutoff"] += 1
            continue
        if case.symptom is None:
            counts["missing_symptom"] += 1
            continue

        if case.begin_wuhan is not None:
            b_int = to_epoch(case.begin_wuhan) if case.begin_wuhan >= EPOCH_ORIGIN else 0
        elif _is_wuhan_resident(case):
            b_int = 0  # resident with unrecorded begin: exposed from the start
        else:
            counts["unknown_exposure_start"] += 1
            continue
        end = case.end_wuhan if case.end_wuhan is not None else rules.impute_end_to
        try:
            record = CaseRecord.from_ints(
                case.case_id, b_int, to_epoch(end), to_epoch(case.symptom),
                gender=case.gender, age_group=_age_group(case.age),
                confirmed_int=to_epoch(case.confirmed) if case.confirmed else None,
                location=case.location)
        except ValueError:
            counts["invalid_interval"] += 1
            continue
        cohort.append(record)

    report.excluded = {k: v for k, v in counts.items() if v > 0}
    report.n_kept = len(cohort)
    if n_after_outside:
        report.missing_symptom_fraction = counts["missing_symptom"] / n_after_outside
    return cohort, report


# ---------------------------------------------------------------------------
# Cohort I/O
# ---------------------------------------------------------------------------

#: The cohort table's columns: CaseRecord's fields, in order.
_COHORT_FIELDS = [f.name for f in fields(CaseRecord)]


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write text to path atomically (temp file + rename)."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _null_non_finite(obj):
    """obj with each non-finite float, which JSON cannot hold, as None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _null_non_finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_non_finite(value) for value in obj]
    return obj


def write_json(path: str | os.PathLike, obj) -> None:
    """Serialize obj to JSON deterministically (sorted keys) and atomically,
    writing each non-finite float as null."""
    text = json.dumps(_null_non_finite(obj), indent=2, sort_keys=True, allow_nan=False)
    atomic_write_text(path, text + "\n")


def _record_row(rec: CaseRecord) -> list[str]:
    """One cohort row: each field's str (a float's repr), "" for None."""
    values = (getattr(rec, k) for k in _COHORT_FIELDS)
    return ["" if v is None else str(v) for v in values]


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """The CSV text of a header and rows, each line ending in "\n".

    csv quotes only the characters of its line terminator, and a bare \r in a
    field would end the row on reading, so a row with a string field holding
    \r ends in "\r\n" instead, which quotes that field."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w_cr = csv.writer(buf, lineterminator="\r\n")
    for row in (header, *rows):
        (w_cr if any(isinstance(f, str) and "\r" in f for f in row) else w).writerow(row)
    return buf.getvalue()


def write_cohort_csv(records: Sequence[CaseRecord], path: str | os.PathLike) -> None:
    atomic_write_text(path, csv_text(_COHORT_FIELDS, [_record_row(r) for r in records]))


def _day(row: Mapping, name: str) -> int:
    """The whole day in a cohort row's field: an int, an integer string or
    an integral float; ValueError naming the field for a bool or a
    fractional or non-finite number, which int() would coerce or overflow."""
    value = row[name]
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be a whole day, got {value!r}")
    return int(value)


def _record_from_row(rownum: int, row: Mapping) -> CaseRecord:
    """The CaseRecord of one cohort row, a CSV row or a JSON object, whose
    labels are read as text as a CSV row's are; CaseTableError naming the
    row and the case when it is unusable."""
    try:
        return CaseRecord.from_ints(
            str(row["case_id"]), _day(row, "B_int"), _day(row, "E_int"), _day(row, "S_int"),
            gender=str(row.get("gender") or "unknown"),
            age_group=str(row.get("age_group") or "unknown"),
            confirmed_int=(None if row.get("confirmed_int") in (None, "")
                           else _day(row, "confirmed_int")),
            location=str(row.get("location") or "") or None)
    except (KeyError, TypeError, ValueError) as exc:
        what = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise CaseTableError(
            f"cohort row {rownum} (case {row.get('case_id', '?')}): {what}") from None


def read_cohort_csv(path: str | os.PathLike) -> list[CaseRecord]:
    """Read a cohort table written by :func:`write_cohort_csv`.

    Continuous B/E/S are recomputed from the integer days, so the offsets are
    always consistent regardless of how the file was produced.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        need = {"case_id", "B_int", "E_int", "S_int"}
        if reader.fieldnames is None or not need <= set(reader.fieldnames):
            raise CaseTableError(f"cohort file {path} lacks columns {sorted(need)}")
        return [_record_from_row(rownum, row) for rownum, row in enumerate(reader, start=1)]


def write_cohort_json(records: Sequence[CaseRecord], path: str | os.PathLike) -> None:
    write_json(path, [asdict(r) for r in records])


def read_cohort(path: str | os.PathLike) -> list[CaseRecord]:
    """Read a cohort file: JSON (a list of case objects, as written by
    :func:`write_cohort_json`) when the name ends in .json, else CSV.

    Both formats go through the same row parser, so a bad row raises the
    same CaseTableError either way.
    """
    if not os.fspath(path).endswith(".json"):
        return read_cohort_csv(path)
    with open(path, encoding="utf-8") as fh:
        try:
            rows = json.load(fh)
        except ValueError as exc:
            raise CaseTableError(f"cohort file {path} is not valid JSON: {exc}") from None
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise CaseTableError(f"cohort file {path} is not a list of case objects")
    return [_record_from_row(rownum, row) for rownum, row in enumerate(rows, start=1)]


def distinct_rows(*columns):
    """(first, inverse) of the rows of equal-length columns, compared bit for bit as
    floats and sorted by the first column, then the next (numerically when not
    negative): first[k] is the first case of row k, inverse[i] is case i's row."""
    keys = np.stack(columns[::-1], dtype=float).view(np.int64)
    order = np.lexsort(keys)
    new = np.ones(order.size, bool)
    np.any(np.diff(keys[:, order]) != 0, axis=0, out=new[1:])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, or os.cpu_count()
    where the platform has no affinity call.  The one count of worker
    processes: parallel_map and bayes.rwmh_run read it at each call, so
    `taskset -c 0 bets ...` runs everything in this process."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


#: The start method of parallel_map's workers: fork on Linux, the platform's
#: default elsewhere.
_START_METHOD = "fork" if sys.platform == "linux" else None

#: The (fn, tasks) of the pool a worker process serves, set by _serve.
_job: tuple | None = None


def _serve(fn, tasks: list[tuple]) -> None:
    """A pool worker's initializer: keep the pool's function and tasks."""
    global _job
    _job = fn, tasks


def _run(i: int):
    """fn(*tasks[i]) of the pool this worker serves."""
    fn, tasks = _job
    return fn(*tasks[i])


def parallel_map(fn, tasks: list[tuple]) -> list:
    """[fn(*task) for task in tasks] on n = min(usable_cpus(), len(tasks))
    processes: this one computes the first len(tasks) // n tasks while n - 1
    worker processes compute the rest.

    A worker computes a task as this process would, so the results are the
    same floats whatever n is, and the first task (in order) that raises
    raises here.  The pool is shut down, its processes joined, before this
    returns or raises.  n = 1 starts no process and imports nothing, and
    neither does a daemonic caller (a multiprocessing.Pool worker, which may
    start no children): both run every task here.  The results must
    pickle.  Computing a share here forks one process fewer and keeps that
    share in sight of the bench's tracer.

    fn and the tasks are handed to each worker once, as its initializer's
    arguments, and the pool maps over task indices: a forked worker inherits
    them without pickling, and a spawned one unpickles them once, so tasks
    that share an object (a fit's restarts share one objective, which holds
    the prepared rows) share it in the worker too.  Where workers are
    spawned, fn must be a module-level function and the tasks must pickle.

    The workers are forked on Linux, where a pool starts in about 10 ms,
    against about 0.5 s for spawn or forkserver (Python 3.14's Linux
    default), more than a fit's restarts or a profile side take.  Other
    platforms keep their default.  A fork copies only the calling thread:
    bets starts no thread of its own, though NumPy's BLAS may hold an idle
    pool (a 2-core sandbox counted 2 threads after `import bets.cli`).

    Left out of __all__, as usable_cpus is, so the bench's tracer
    (perfbench/), which wraps each layer's __all__, bills a pool's wait to
    the layer that called it, inference or bayes.
    """
    workers = min(usable_cpus(), len(tasks))
    if workers > 1:
        # imported here: the two take 15-25 ms on a 2-core Xeon, which every
        # command would pay at `import bets.cli`
        import multiprocessing
        if not multiprocessing.current_process().daemon:
            from concurrent.futures import ProcessPoolExecutor
            context = multiprocessing.get_context(_START_METHOD)
            first = len(tasks) // workers
            with ProcessPoolExecutor(max_workers=workers - 1, mp_context=context,
                                     initializer=_serve, initargs=(fn, tasks)) as pool:
                rest = pool.map(_run, range(first, len(tasks)),
                                chunksize=max(1, (len(tasks) - first) // (4 * workers)))
                return [fn(*task) for task in tasks[:first]] + list(rest)
    return [fn(*task) for task in tasks]
