import math
from datetime import date as Date

import numpy as np
import pytest

from epicast import (
    CaseSeries,
    CsvSchema,
    fingerprint,
    impute_missing,
    parse_csv,
    serialize_csv,
    summarize,
    window,
)
from epicast.errors import (
    AllMissingColumn,
    DuplicateDate,
    EmptyWindow,
    GapInDates,
    InputError,
    MalformedHeader,
    UnparseableDate,
)

GOOD = """date,tests,confirmed,deaths
2021-01-01,100,10,1
2021-01-02,110,12,0
2021-01-03,120,15,2
2021-01-04,130,20,3
"""


def oracle_stats(values):
    """Pure-python describe: sample std, linear-interpolation quartiles."""
    n = len(values)
    mean = sum(values) / n
    std = (
        math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1)) if n > 1 else None
    )
    s = sorted(values)

    def quartile(q):
        pos = q * (n - 1)
        lo = int(math.floor(pos))
        frac = pos - lo
        if lo + 1 < n:
            return s[lo] + (s[lo + 1] - s[lo]) * frac
        return s[lo]

    return {
        "count": n,
        "mean": mean,
        "std": std,
        "min": s[0],
        "25%": quartile(0.25),
        "50%": quartile(0.50),
        "75%": quartile(0.75),
        "max": s[-1],
    }


class TestCaseSeries:
    def test_rows_are_days_since_the_first_date(self):
        series = CaseSeries(Date(2021, 2, 27), (1, 2, 3), (4, None, 6), (7, 8, 9))
        assert len(series) == 3
        assert series.dates == [Date(2021, 2, 27), Date(2021, 2, 28), Date(2021, 3, 1)]
        assert series.last_date == Date(2021, 3, 1)
        assert series.last_day_index == 2
        assert series.column("day_index") == (0, 1, 2)
        assert series.column("confirmed") == (4, None, 6)

    def test_columns_are_kept_as_tuples(self):
        series = CaseSeries(Date(2021, 1, 1), [1], [2], [3])
        assert series == CaseSeries(Date(2021, 1, 1), (1,), (2,), (3,))
        assert isinstance(series.tests, tuple)

    def test_empty_series(self):
        series = CaseSeries()
        assert len(series) == 0
        assert series.dates == []
        assert series.column("day_index") == ()

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(InputError, match="differ in length"):
            CaseSeries(Date(2021, 1, 1), (1, 2), (3, 4), (5,))

    def test_rows_without_a_first_date_rejected(self):
        with pytest.raises(InputError, match="first_date"):
            CaseSeries(None, (1,), (2,), (3,))

    def test_unknown_column_rejected(self):
        with pytest.raises(InputError, match="unknown column"):
            parse_csv(GOOD).column("date")


class TestParseCsv:
    def test_happy_path(self):
        series = parse_csv(GOOD)
        assert len(series) == 4
        assert series.first_date == Date(2021, 1, 1)
        assert series.column("day_index") == (0, 1, 2, 3)
        assert (series.tests[0], series.confirmed[0], series.deaths[0]) == (100, 10, 1)
        assert series.last_date == Date(2021, 1, 4)

    def test_rows_sorted_by_date(self):
        shuffled = (
            "date,tests,confirmed,deaths\n"
            "2021-01-03,120,15,2\n"
            "2021-01-01,100,10,1\n"
            "2021-01-02,110,12,0\n"
        )
        series = parse_csv(shuffled)
        assert [d.day for d in series.dates] == [1, 2, 3]
        assert series.column("day_index") == (0, 1, 2)
        # each row's counts move with its date
        assert series.tests == (100, 110, 120)
        assert series.confirmed == (10, 12, 15)
        assert series.deaths == (1, 0, 2)

    def test_missing_cells_are_none(self):
        text = "date,tests,confirmed,deaths\n2021-01-01,,10,\n2021-01-02,5,11,1\n"
        series = parse_csv(text)
        assert series.tests[0] is None
        assert series.deaths[0] is None
        assert series.confirmed[0] == 10

    def test_negative_and_fractional_and_text_become_missing(self):
        text = (
            "date,tests,confirmed,deaths\n"
            "2021-01-01,-4,3.5,oops\n"
            "2021-01-02,5,11,1\n"
        )
        series = parse_csv(text)
        assert (series.tests[0], series.confirmed[0], series.deaths[0]) == (None,) * 3

    def test_duplicate_date_rejected(self):
        text = "date,tests,confirmed,deaths\n2021-01-01,1,1,1\n2021-01-01,2,2,2\n"
        with pytest.raises(DuplicateDate):
            parse_csv(text)

    def test_unparseable_date_reports_line(self):
        text = "date,tests,confirmed,deaths\n2021-01-01,1,1,1\nnot-a-date,2,2,2\n"
        with pytest.raises(UnparseableDate) as exc:
            parse_csv(text)
        assert exc.value.line == 3
        assert "line 3" in str(exc.value)

    @pytest.mark.parametrize("cell", ["20210102", "2021-W01-5"])
    def test_only_yyyy_mm_dd_dates(self, cell):
        text = f"date,tests,confirmed,deaths\n2021-01-01,1,1,1\n{cell},2,2,2\n"
        with pytest.raises(UnparseableDate) as exc:
            parse_csv(text)
        assert exc.value.line == 3
        assert "line 3" in str(exc.value)

    def test_gap_rejected_without_fill(self):
        text = "date,tests,confirmed,deaths\n2021-01-01,1,1,1\n2021-01-03,2,2,2\n"
        with pytest.raises(GapInDates):
            parse_csv(text)

    def test_gap_filled_on_request(self):
        text = "date,tests,confirmed,deaths\n2021-01-01,1,1,1\n2021-01-03,2,2,2\n"
        series = parse_csv(text, fill_gaps=True)
        assert len(series) == 3
        assert series.dates[1] == Date(2021, 1, 2)
        assert (series.tests[1], series.confirmed[1], series.deaths[1]) == (None,) * 3
        assert series.tests[2] == 2

    def test_missing_header_column(self):
        with pytest.raises(MalformedHeader):
            parse_csv("date,tests,confirmed\n2021-01-01,1,1\n")

    def test_empty_input(self):
        with pytest.raises(MalformedHeader):
            parse_csv("")

    def test_header_only_gives_empty_series(self):
        series = parse_csv("date,tests,confirmed,deaths\n")
        assert len(series) == 0

    def test_custom_schema(self):
        text = "Day,Tested,Cases,Died\n2021-01-01,9,8,7\n"
        schema = CsvSchema(date="Day", tests="Tested", confirmed="Cases", deaths="Died")
        series = parse_csv(text, schema)
        assert (series.tests, series.confirmed, series.deaths) == ((9,), (8,), (7,))

    def test_serialize_round_trip(self):
        series = parse_csv(GOOD)
        assert parse_csv(serialize_csv(series)) == series

    def test_round_trip_preserves_missing(self):
        text = "date,tests,confirmed,deaths\n2021-01-01,,10,\n2021-01-02,5,11,1\n"
        series = parse_csv(text)
        again = parse_csv(serialize_csv(series))
        assert again == series


class TestSummarize:
    def test_hand_case(self):
        # values 1..4: mean 2.5, sample std sqrt(5/3), quartiles by
        # linear interpolation between closest ranks
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.std == pytest.approx(math.sqrt(5.0 / 3.0))
        assert s.q25 == pytest.approx(1.75)
        assert s.q50 == pytest.approx(2.5)
        assert s.q75 == pytest.approx(3.25)
        assert (s.min, s.max) == (1.0, 4.0)

    def test_empty(self):
        s = summarize([])
        assert s.count == 0
        assert s.mean is None and s.std is None and s.q50 is None

    def test_single_value_has_no_std(self):
        s = summarize([7.0])
        assert s.count == 1
        assert s.std is None
        assert s.mean == 7.0 and s.min == 7.0 and s.max == 7.0

    def test_matches_pure_python_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 40))
            values = rng.normal(50.0, 20.0, size=n).tolist()
            got = summarize(values).as_dict()
            want = oracle_stats(values)
            for key, expected in want.items():
                assert got[key] == pytest.approx(expected, abs=1e-9), key


class TestWindow:
    def test_rebases_day_index(self):
        series = parse_csv(GOOD)
        part = window(series, Date(2021, 1, 2), Date(2021, 1, 3))
        assert len(part) == 2
        assert part.first_date == Date(2021, 1, 2)
        assert part.column("day_index") == (0, 1)
        assert part.confirmed == (12, 15)

    def test_empty_window(self):
        series = parse_csv(GOOD)
        with pytest.raises(EmptyWindow):
            window(series, Date(2022, 1, 1), Date(2022, 2, 1))

    def test_inverted_window(self):
        series = parse_csv(GOOD)
        with pytest.raises(InputError):
            window(series, Date(2021, 1, 3), Date(2021, 1, 1))

    def test_full_span_is_identity_on_values(self):
        series = parse_csv(GOOD)
        part = window(series, series.first_date, series.last_date)
        for col in ("day_index", "tests", "confirmed", "deaths"):
            assert part.column(col) == series.column(col)


class TestImpute:
    def test_mean_rounds_half_away_from_zero(self):
        # tests column mean of (1, 2) = 1.5 -> fills as 2
        text = "date,tests,confirmed,deaths\n2021-01-01,1,5,0\n2021-01-02,,5,0\n2021-01-03,2,5,0\n"
        series = impute_missing(parse_csv(text), "mean")
        assert series.tests[1] == 2

    def test_mean_preserves_present_values(self):
        text = "date,tests,confirmed,deaths\n2021-01-01,1,5,0\n2021-01-02,,5,0\n2021-01-03,2,5,0\n"
        series = impute_missing(parse_csv(text), "mean")
        assert series.tests[0] == 1
        assert series.tests[2] == 2

    def test_forward_fill(self):
        text = "date,tests,confirmed,deaths\n2021-01-01,,5,0\n2021-01-02,3,5,0\n2021-01-03,,5,0\n"
        series = impute_missing(parse_csv(text), "forward-fill")
        # leading missing falls back to first present value
        assert series.tests == (3, 3, 3)

    def test_all_missing_column(self):
        text = "date,tests,confirmed,deaths\n2021-01-01,1,5,\n2021-01-02,1,5,\n"
        with pytest.raises(AllMissingColumn):
            impute_missing(parse_csv(text), "mean")

    def test_unknown_policy(self):
        with pytest.raises(InputError):
            impute_missing(parse_csv(GOOD), "median")

    def test_integrality_invariant(self, series):
        filled = impute_missing(series, "mean")
        for col in ("tests", "confirmed", "deaths"):
            assert all(isinstance(v, int) for v in filled.column(col))


class TestFingerprint:
    def test_shape(self, series):
        fp = fingerprint(series)
        assert fp["rows"] == len(series)
        assert set(fp["columns"]) == {"date", "tests", "confirmed", "deaths"}
        for digest in fp["columns"].values():
            assert len(digest) == 64

    def test_sensitive_to_values(self):
        a = parse_csv(GOOD)
        changed = GOOD.replace("120,15,2", "120,16,2")
        b = parse_csv(changed)
        fa, fb = fingerprint(a), fingerprint(b)
        assert fa["columns"]["confirmed"] != fb["columns"]["confirmed"]
        assert fa["columns"]["tests"] == fb["columns"]["tests"]

    def test_stable(self, series):
        assert fingerprint(series) == fingerprint(series)
