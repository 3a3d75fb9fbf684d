"""Parsing, validation and summary of daily case-count CSV files.

The on-disk format is a UTF-8 CSV with a header row. Default column names
are ``date,tests,confirmed,deaths``; dates are ISO-8601 (YYYY-MM-DD) and an
empty cell means "missing". Series are kept gap-free: calendar gaps are
rejected unless the caller asks for gap filling, which inserts rows with
all counts missing, so a row's day_index is its number of days since the
first date.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import asdict, dataclass, field
from datetime import date as Date, timedelta
from pathlib import Path

import numpy as np

from .errors import InputError

COUNT_COLUMNS = ("tests", "confirmed", "deaths")
NUMERIC_COLUMNS = ("day_index",) + COUNT_COLUMNS
IMPUTE_POLICIES = ("mean", "forward-fill")


@dataclass(frozen=True)
class CsvSchema:
    """Maps the canonical column names onto the header names of a file."""

    date: str = field(default="date", metadata={"flag": "--date-column"})
    tests: str = field(default="tests", metadata={"flag": "--tests-column"})
    confirmed: str = field(default="confirmed", metadata={"flag": "--confirmed-column"})
    deaths: str = field(default="deaths", metadata={"flag": "--deaths-column"})


DEFAULT_SCHEMA = CsvSchema()


@dataclass(frozen=True)
class CaseSeries:
    """A gap-free daily series: row i is dated ``first_date`` + i days, its
    day_index is i, and each count column holds one nonnegative int or
    None (missing) per row."""

    first_date: Date | None = None
    tests: tuple[int | None, ...] = ()
    confirmed: tuple[int | None, ...] = ()
    deaths: tuple[int | None, ...] = ()
    source_label: str = ""

    def __post_init__(self) -> None:
        for col in COUNT_COLUMNS:
            object.__setattr__(self, col, tuple(getattr(self, col)))
        if not len(self.tests) == len(self.confirmed) == len(self.deaths):
            raise InputError(
                "count columns differ in length: "
                + ", ".join(f"{col} {len(getattr(self, col))}" for col in COUNT_COLUMNS)
            )
        if self.tests and self.first_date is None:
            raise InputError("a series with rows needs a first_date")

    def __len__(self) -> int:
        return len(self.tests)

    @property
    def dates(self) -> list[Date]:
        return [self.first_date + timedelta(days=i) for i in range(len(self))]

    @property
    def last_date(self) -> Date:
        return self.first_date + timedelta(days=self.last_day_index)

    @property
    def last_day_index(self) -> int:
        return len(self) - 1

    def column(self, name: str) -> tuple[int | None, ...]:
        """All values of one column (day_index or a count column), missing
        entries as None."""
        if name == "day_index":
            return tuple(range(len(self)))
        if name in COUNT_COLUMNS:
            return getattr(self, name)
        raise InputError(f"unknown column {name!r}")


@dataclass(frozen=True)
class SummaryStats:
    """Describe-style summary: count, mean, sample std and quartiles.

    ``std`` uses the sample convention (ddof=1); quartiles interpolate
    linearly between closest ranks. For an empty input only ``count`` is
    defined and every other field is None. A single observation leaves
    ``std`` undefined as well. Reports key the quartiles "25%", "50%" and
    "75%".
    """

    count: int
    mean: float | None = None
    std: float | None = None
    min: float | None = None
    q25: float | None = field(default=None, metadata={"key": "25%"})
    q50: float | None = field(default=None, metadata={"key": "50%"})
    q75: float | None = field(default=None, metadata={"key": "75%"})
    max: float | None = None


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
    text: str,
    schema: CsvSchema = DEFAULT_SCHEMA,
    *,
    fill_gaps: bool = False,
    source_label: str = "",
) -> CaseSeries:
    """Parse CSV text into a CaseSeries.

    Rows are sorted by date. Every rejection raises InputError: a missing
    header or required column, a duplicate or malformed date cell (the
    message starts with its 1-based line number; the header is line 1)
    and text the csv module cannot split into rows. Calendar gaps are
    rejected too unless ``fill_gaps`` is set, in which case missing days
    are inserted with all counts missing.
    """
    try:
        table = list(csv.reader(io.StringIO(text)))
    except csv.Error as err:
        raise InputError(f"malformed CSV: {err}") from None
    if not table:
        raise InputError("input has no header row")
    header = [h.strip() for h in table[0]]
    required = asdict(schema)  # canonical name -> header name, in field order
    missing_cols = [name for name in required.values() if name not in header]
    if missing_cols:
        raise InputError(f"missing required columns: {missing_cols}")
    pos = {key: header.index(name) for key, name in required.items()}

    counts: dict[Date, tuple[int | None, int | None, int | None]] = {}
    for line_no, row in enumerate(table[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        raw_date = row[pos["date"]].strip() if pos["date"] < len(row) else ""
        try:
            day = parse_date(raw_date)
        except ValueError:
            raise InputError(
                f"line {line_no}: cannot parse date {raw_date!r}"
            ) from None
        if day in counts:
            raise InputError(f"line {line_no}: duplicate date {day.isoformat()}")

        def cell(key: str) -> int | None:
            idx = pos[key]
            return _parse_count(row[idx]) if idx < len(row) else None

        counts[day] = (cell("tests"), cell("confirmed"), cell("deaths"))

    days = sorted(counts)
    if not fill_gaps:
        for a, b in zip(days, days[1:]):
            if (b - a).days != 1:
                raise InputError(
                    f"gap between {a.isoformat()} and {b.isoformat()}; "
                    "pre-fill the file or pass fill_gaps=True"
                )
    if not days:
        return CaseSeries(source_label=source_label)
    first = days[0]
    missing = (None, None, None)
    rows = [
        counts.get(first + timedelta(days=i), missing)
        for i in range((days[-1] - first).days + 1)
    ]
    return CaseSeries(first, *zip(*rows), source_label=source_label)


def serialize_csv(series: CaseSeries, schema: CsvSchema = DEFAULT_SCHEMA) -> str:
    """Render a series back to CSV text in the same schema (missing = empty)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([schema.date, schema.tests, schema.confirmed, schema.deaths])
    rows = zip(series.dates, series.tests, series.confirmed, series.deaths)
    for day, *counts in rows:
        writer.writerow([day.isoformat(), *("" if v is None else v for v in counts)])
    return out.getvalue()


def summarize(values: list[float] | np.ndarray) -> SummaryStats:
    """Describe-style summary of a list of reals (empty input allowed)."""
    arr = np.asarray(list(values), dtype=float)
    n = arr.size
    if n == 0:
        return SummaryStats(count=0)
    # Counts near the float limit overflow to inf here, which the report
    # writer rejects as a numeric failure.
    with np.errstate(over="ignore", invalid="ignore"):
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
    return {
        col: summarize([float(v) for v in series.column(col) if v is not None])
        for col in NUMERIC_COLUMNS
    }


def window(series: CaseSeries, start: Date, end: Date) -> CaseSeries:
    """The rows with start <= date <= end, day_index re-based to 0."""
    if start > end:
        raise InputError(f"window start {start} is after end {end}")
    lo = hi = 0
    if len(series):
        lo = max((start - series.first_date).days, 0)
        hi = min((end - series.first_date).days + 1, len(series))
    if lo >= hi:
        raise InputError(
            f"no rows between {start.isoformat()} and {end.isoformat()}"
        )
    first = series.first_date + timedelta(days=lo)
    last = series.first_date + timedelta(days=hi - 1)
    return CaseSeries(
        first,
        *(series.column(col)[lo:hi] for col in COUNT_COLUMNS),
        source_label=f"{series.source_label}[{first.isoformat()}..{last.isoformat()}]",
    )


def impute_missing(series: CaseSeries, policy: str = "mean") -> CaseSeries:
    """Fill every missing count so no column has holes.

    ``mean`` inserts the column mean of present values, rounded half away
    from zero so counts stay integral. ``forward-fill`` carries the last
    present value; leading missings fall back to the first present value.
    """
    if policy not in IMPUTE_POLICIES:
        raise InputError(f"unknown imputation policy {policy!r}")
    filled: list[list[int]] = []
    for col in COUNT_COLUMNS:
        values = series.column(col)
        present = [v for v in values if v is not None]
        if not present:
            raise InputError(f"column {col!r} has no present values")
        if policy == "mean":
            mean = sum(present) / len(present)
            fallback = int(math.floor(mean + 0.5))
            filled.append([v if v is not None else fallback for v in values])
        else:
            out: list[int] = []
            last: int | None = None
            for v in values:
                if v is not None:
                    last = v
                out.append(last if last is not None else present[0])
            filled.append(out)
    return CaseSeries(series.first_date, *filled, source_label=series.source_label)


def fingerprint(series: CaseSeries) -> dict:
    """Row count plus a sha256 per column; identifies a dataset in reports."""
    cells = {"date": [d.isoformat() for d in series.dates]}
    for name in COUNT_COLUMNS:
        cells[name] = ["NA" if v is None else str(v) for v in series.column(name)]
    cols = {
        name: hashlib.sha256(",".join(values).encode()).hexdigest()
        for name, values in cells.items()
    }
    return {"rows": len(series), "columns": cols}
