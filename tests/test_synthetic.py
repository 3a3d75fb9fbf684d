import dataclasses
from datetime import date as Date

import numpy as np

from epicast import SyntheticSpec, parse_csv, serialize_csv, synthetic_epidemic


class TestSyntheticEpidemic:
    def test_default_shape(self, series):
        assert len(series) == 520
        assert series.first_date == Date(2020, 3, 1)
        assert series.column("day_index")[0] == 0
        assert series.last_day_index == 519
        assert series.source_label == "synthetic(seed=11)"

    def test_counts_are_nonnegative_ints(self, series):
        for col in ("tests", "confirmed", "deaths"):
            for v in series.column(col):
                assert isinstance(v, int)
                assert v >= 0

    def test_seed_determinism(self):
        assert synthetic_epidemic() == synthetic_epidemic()
        other = synthetic_epidemic(SyntheticSpec(seed=12))
        for col in ("tests", "confirmed", "deaths"):
            assert other.column(col) != synthetic_epidemic().column(col)

    def test_s_curve_reaches_plateau(self, series):
        confirmed = np.array(series.confirmed, dtype=float)
        head = confirmed[:30].mean()
        tail = confirmed[-30:].mean()
        assert head < 50.0  # baseline region
        assert 0.9 * 9000.0 < tail < 1.1 * 9000.0
        # rising phase sits between the two levels
        mid = confirmed[380:400].mean()
        assert head < mid < tail

    def test_deaths_track_cases_at_cfr_scale(self, series):
        confirmed = np.array(series.confirmed, dtype=float)
        deaths = np.array(series.deaths, dtype=float)
        ratio = deaths[-30:].mean() / confirmed[-30:].mean()
        assert abs(ratio - 0.018) < 0.003

    def test_round_trips_through_csv(self, series):
        again = parse_csv(serialize_csv(series))
        assert again == dataclasses.replace(series, source_label="")

    def test_spec_days_override(self):
        short = synthetic_epidemic(SyntheticSpec(days=10))
        assert len(short) == 10
        assert short.last_date == Date(2020, 3, 10)
