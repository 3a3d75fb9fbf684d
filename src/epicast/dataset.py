"""Parsing, validation and summary of daily case-count CSV files.

The on-disk format is a UTF-8 CSV with a header row. Default column names
are ``date,tests,confirmed,deaths``; dates are ISO-8601 (YYYY-MM-DD) and an
empty cell means "missing". Series are kept gap-free: calendar gaps are
rejected unless the caller asks for gap filling, which inserts records with
all counts missing so that ``day_index`` stays aligned with calendar days.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field, replace
from datetime import date as Date, timedelta
from pathlib import Path

import numpy as np

from .errors import (
    AllMissingColumn,
    DuplicateDate,
    EmptyWindow,
    GapInDates,
    InputError,
    MalformedHeader,
    UnparseableDate,
)

COUNT_COLUMNS = ("tests", "confirmed", "deaths")


@dataclass(frozen=True)
class CsvSchema:
    """Maps the canonical column names onto the header names of a file."""

    date: str = "date"
    tests: str = "tests"
    confirmed: str = "confirmed"
    deaths: str = "deaths"


DEFAULT_SCHEMA = CsvSchema()


@dataclass(frozen=True)
class DailyRecord:
    """One dated observation. Counts are nonnegative ints or None (missing)."""

    date: Date
    day_index: int
    tests: int | None = None
    confirmed: int | None = None
    deaths: int | None = None

    def get(self, column: str) -> int | None:
        if column == "day_index":
            return self.day_index
        if column in COUNT_COLUMNS:
            return getattr(self, column)
        raise InputError(f"unknown column {column!r}")


@dataclass(frozen=True)
class CaseSeries:
    """An ordered, gap-free run of daily records."""

    records: tuple[DailyRecord, ...]
    source_label: str = ""

    def __len__(self) -> int:
        return len(self.records)

    @property
    def first_date(self) -> Date:
        return self.records[0].date

    @property
    def last_date(self) -> Date:
        return self.records[-1].date

    @property
    def last_day_index(self) -> int:
        return self.records[-1].day_index

    def column(self, name: str) -> list[int | None]:
        """All values of one column, missing entries as None."""
        return [r.get(name) for r in self.records]

    def present(self, name: str) -> list[float]:
        """Only the present values of one column, as floats."""
        return [float(v) for v in self.column(name) if v is not None]


@dataclass(frozen=True)
class SummaryStats:
    """Describe-style summary: count, mean, sample std and quartiles.

    ``std`` uses the sample convention (ddof=1); quartiles interpolate
    linearly between closest ranks. For an empty input only ``count`` is
    defined and every other field is None. A single observation leaves
    ``std`` undefined as well.
    """

    count: int
    mean: float | None = None
    std: float | None = None
    min: float | None = None
    q25: float | None = None
    q50: float | None = None
    q75: float | None = None
    max: float | None = None

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "25%": self.q25,
            "50%": self.q50,
            "75%": self.q75,
            "max": self.max,
        }


def _parse_count(cell: str) -> int | None:
    """A count cell parses to a nonnegative integer or is treated as missing.

    Anything else (text, negatives, fractional values) is recorded as
    missing rather than guessed at.
    """
    text = cell.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    if not math.isfinite(value) or value < 0 or value != int(value):
        return None
    return int(value)


def parse_date(text: str) -> Date:
    """A date written strictly as YYYY-MM-DD; any other form is a ValueError."""
    day = Date.fromisoformat(text)
    if day.isoformat() != text:
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return day


def horizon_dates(last: Date, horizon: int) -> list[Date]:
    """The ``horizon`` dates that follow ``last`` (none when horizon < 1);
    a horizon that runs past 9999-12-31 is an InputError."""
    if horizon < 1:
        return []
    try:
        last + timedelta(days=horizon)
    except OverflowError:
        raise InputError(
            f"a horizon of {horizon} days after {last.isoformat()} runs past "
            f"{Date.max.isoformat()}"
        ) from None
    return [last + timedelta(days=h) for h in range(1, horizon + 1)]


def read_text(path: str | Path) -> str:
    """A whole file as UTF-8 text; failing to open or decode it is an InputError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read {path}: {err}") from None


def parse_csv(
    text: str | bytes,
    schema: CsvSchema = DEFAULT_SCHEMA,
    *,
    fill_gaps: bool = False,
    source_label: str = "",
) -> CaseSeries:
    """Parse CSV text into a CaseSeries.

    Rows are sorted by date. Duplicate dates raise DuplicateDate and a
    malformed date cell raises UnparseableDate with its 1-based line number
    (the header is line 1). Calendar gaps raise GapInDates unless
    ``fill_gaps`` is set, in which case missing days are inserted with all
    counts missing. Bytes that are not UTF-8 and text the csv module
    cannot split into rows raise InputError.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as err:
            raise InputError(f"input is not UTF-8 text: {err}") from None
    try:
        table = list(csv.reader(io.StringIO(text)))
    except csv.Error as err:
        raise InputError(f"malformed CSV: {err}") from None
    if not table:
        raise MalformedHeader("input has no header row")
    header = [h.strip() for h in table[0]]
    required = {
        "date": schema.date,
        "tests": schema.tests,
        "confirmed": schema.confirmed,
        "deaths": schema.deaths,
    }
    missing_cols = [name for name in required.values() if name not in header]
    if missing_cols:
        raise MalformedHeader(f"missing required columns: {missing_cols}")
    pos = {key: header.index(name) for key, name in required.items()}

    rows: list[tuple[Date, int | None, int | None, int | None]] = []
    seen: set[Date] = set()
    for line_no, row in enumerate(table[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        raw_date = row[pos["date"]].strip() if pos["date"] < len(row) else ""
        try:
            day = parse_date(raw_date)
        except ValueError:
            raise UnparseableDate(
                f"line {line_no}: cannot parse date {raw_date!r}", line=line_no
            ) from None
        if day in seen:
            raise DuplicateDate(f"line {line_no}: duplicate date {day.isoformat()}")
        seen.add(day)

        def cell(key: str) -> int | None:
            idx = pos[key]
            return _parse_count(row[idx]) if idx < len(row) else None

        rows.append((day, cell("tests"), cell("confirmed"), cell("deaths")))

    rows.sort(key=lambda r: r[0])
    if rows and not fill_gaps:
        for (a, *_), (b, *_) in zip(rows, rows[1:]):
            if (b - a).days != 1:
                raise GapInDates(
                    f"gap between {a.isoformat()} and {b.isoformat()}; "
                    "pre-fill the file or pass fill_gaps=True"
                )

    records: list[DailyRecord] = []
    if rows:
        first = rows[0][0]
        by_date = {r[0]: r for r in rows}
        span = (rows[-1][0] - first).days
        for offset in range(span + 1):
            day = first + timedelta(days=offset)
            if day in by_date:
                _, tests, confirmed, deaths = by_date[day]
            else:
                tests = confirmed = deaths = None
            records.append(
                DailyRecord(
                    date=day,
                    day_index=offset,
                    tests=tests,
                    confirmed=confirmed,
                    deaths=deaths,
                )
            )
    return CaseSeries(records=tuple(records), source_label=source_label)


def serialize_csv(series: CaseSeries, schema: CsvSchema = DEFAULT_SCHEMA) -> str:
    """Render a series back to CSV text in the same schema (missing = empty)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([schema.date, schema.tests, schema.confirmed, schema.deaths])
    for r in series.records:
        writer.writerow(
            [
                r.date.isoformat(),
                "" if r.tests is None else r.tests,
                "" if r.confirmed is None else r.confirmed,
                "" if r.deaths is None else r.deaths,
            ]
        )
    return out.getvalue()


def summarize(values: list[float] | np.ndarray) -> SummaryStats:
    """Describe-style summary of a list of reals (empty input allowed)."""
    arr = np.asarray(list(values), dtype=float)
    n = arr.size
    if n == 0:
        return SummaryStats(count=0)
    q25, q50, q75 = np.percentile(arr, [25, 50, 75])
    return SummaryStats(
        count=n,
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if n > 1 else None,
        min=float(arr.min()),
        q25=float(q25),
        q50=float(q50),
        q75=float(q75),
        max=float(arr.max()),
    )


def summarize_series(series: CaseSeries) -> dict[str, SummaryStats]:
    """Per-column summaries; count columns use present values only."""
    out = {"day_index": summarize([float(r.day_index) for r in series.records])}
    for col in COUNT_COLUMNS:
        out[col] = summarize(series.present(col))
    return out


def window(series: CaseSeries, start: Date, end: Date) -> CaseSeries:
    """Records with start <= date <= end, with day_index re-based to 0."""
    if start > end:
        raise InputError(f"window start {start} is after end {end}")
    kept = [r for r in series.records if start <= r.date <= end]
    if not kept:
        raise EmptyWindow(
            f"no records between {start.isoformat()} and {end.isoformat()}"
        )
    base = kept[0].date
    rebased = tuple(
        replace(r, day_index=(r.date - base).days) for r in kept
    )
    label = f"{series.source_label}[{kept[0].date.isoformat()}..{kept[-1].date.isoformat()}]"
    return CaseSeries(records=rebased, source_label=label)


def impute_missing(series: CaseSeries, policy: str = "mean") -> CaseSeries:
    """Fill every missing count so no column has holes.

    ``mean`` inserts the column mean of present values, rounded half away
    from zero so counts stay integral. ``forward-fill`` carries the last
    present value; leading missings fall back to the first present value.
    """
    if policy not in ("mean", "forward-fill"):
        raise InputError(f"unknown imputation policy {policy!r}")
    filled: dict[str, list[int]] = {}
    for col in COUNT_COLUMNS:
        values = series.column(col)
        present = [v for v in values if v is not None]
        if not present:
            raise AllMissingColumn(col)
        if policy == "mean":
            mean = sum(present) / len(present)
            fallback = int(math.floor(mean + 0.5))
            filled[col] = [v if v is not None else fallback for v in values]
        else:
            out: list[int] = []
            last: int | None = None
            for v in values:
                if v is not None:
                    last = v
                out.append(last if last is not None else present[0])
            filled[col] = out
    records = tuple(
        replace(
            r,
            tests=filled["tests"][i],
            confirmed=filled["confirmed"][i],
            deaths=filled["deaths"][i],
        )
        for i, r in enumerate(series.records)
    )
    return CaseSeries(records=records, source_label=series.source_label)


def fingerprint(series: CaseSeries) -> dict:
    """Row count plus a sha256 per column; identifies a dataset in reports."""
    cols = {}
    for name in ("date",) + COUNT_COLUMNS:
        if name == "date":
            text = ",".join(r.date.isoformat() for r in series.records)
        else:
            text = ",".join(
                "NA" if v is None else str(v) for v in series.column(name)
            )
        cols[name] = hashlib.sha256(text.encode()).hexdigest()
    return {"rows": len(series), "columns": cols}
