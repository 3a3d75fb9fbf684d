import dataclasses
import json
import threading
from datetime import date as Date, timedelta

import numpy as np
import pytest

from epicast import (
    GridCell,
    KernelSpec,
    LinRegConfig,
    MlpConfig,
    RegressorSlot,
    ScoreTable,
    SplitSpec,
    SvrConfig,
    SyntheticSpec,
    compare_models,
    default_grid,
    parse_csv,
    run_grid,
    select_best,
    synthetic_epidemic,
)
from epicast import harness
from epicast.errors import EpicastError, InputError, NoValidCell
from epicast.models import model_to_dict, plain, predict_raw, train_on_split
from epicast.preprocess import build_supervised, split_indices, standardized_split


def linear_series(days=120, slope=3, start_value=50):
    lines = ["date,tests,confirmed,deaths"]
    d0 = Date(2021, 1, 1)
    for i in range(days):
        lines.append(
            f"{(d0 + timedelta(days=i)).isoformat()},100,{start_value + slope * i},1"
        )
    return parse_csv("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def short_series():
    # A 60-day wave keeps a full grid to about a second.
    return synthetic_epidemic(SyntheticSpec(days=60, midpoint=30.0, width=6.0))


def cell(table, family, slot, target):
    """The one cell of ``table`` at (family, slot, target); KeyError if none."""
    for c in table.cells:
        if (c.family, c.slot, c.target) == (family, slot, target):
            return c
    raise KeyError((family, slot, target))


def cell_stub(family, slot, target, r2, *, flagged=False, reason=None):
    return GridCell(
        slot=slot, family=family, target=target, r2=r2, mse=0.0,
        flagged=flagged, flag_reason=reason, config={},
    )


class TestDefaultGrid:
    def test_fifteen_slots_five_per_family(self):
        slots = default_grid()
        assert len(slots) == 15
        by_family = {}
        for s in slots:
            by_family.setdefault(s.model_family, []).append(s.slot)
        assert by_family == {
            "svr": [1, 2, 3, 4, 5],
            "mlp": [1, 2, 3, 4, 5],
            "linreg": [1, 2, 3, 4, 5],
        }

    def test_svr_kernel_sweep(self):
        kernels = {
            s.slot: s.config.kernel for s in default_grid() if s.model_family == "svr"
        }
        assert kernels[1].kind == "rbf"
        assert (kernels[2].kind, kernels[2].degree) == ("poly", 5)
        assert kernels[3].kind == "linear"
        assert (kernels[4].kind, kernels[4].degree) == ("poly", 2)
        assert (kernels[5].kind, kernels[5].degree) == ("poly", 7)

    def test_mlp_slot_settings(self):
        mlps = {s.slot: s.config for s in default_grid() if s.model_family == "mlp"}
        assert (mlps[1].activation, mlps[1].optimizer, mlps[1].max_iterations) == (
            "tanh", "lbfgs", 1000,
        )
        assert mlps[2].max_iterations == 5000
        assert mlps[3].max_iterations == 10000
        assert mlps[4].activation == "relu"
        assert mlps[5].optimizer == "sgd"
        assert all(m.hidden_layers == 2 and m.neurons_per_layer == 16 for m in mlps.values())

    def test_linreg_learning_rate_sweep(self):
        pairs = {
            s.slot: (s.config.learning_rate, s.config.iterations)
            for s in default_grid()
            if s.model_family == "linreg"
        }
        assert pairs == {
            1: (0.5, 2500), 2: (0.1, 3000), 3: (0.01, 3500),
            4: (0.001, 5000), 5: (0.0001, 10000),
        }

    def test_shape_and_seed_overrides(self):
        slots = default_grid(mlp_hidden_layers=3, mlp_neurons=4, seed=9)
        mlps = [s.config for s in slots if s.model_family == "mlp"]
        assert all(m.hidden_layers == 3 and m.neurons_per_layer == 4 for m in mlps)
        assert all(m.seed == 9 for m in mlps)


class TestRunGrid:
    def test_thirty_cells_in_fixed_order(self, grid_table):
        assert len(grid_table.cells) == 30
        keys = [(c.family, c.slot, c.target) for c in grid_table.cells]
        assert keys == sorted(keys)
        assert len(set(keys)) == 30

    def test_cell_lookup(self, grid_table):
        found = cell(grid_table, "mlp", 1, "confirmed")
        assert found.family == "mlp" and found.slot == 1
        with pytest.raises(KeyError):
            cell(grid_table, "mlp", 6, "confirmed")

    def test_flag_discipline(self, grid_table):
        for c in grid_table.cells:
            if not c.flagged:
                assert c.r2 is not None and c.mse is not None
                assert c.flag_reason is None
            elif c.flag_reason == "not_converged":
                # budget ran out but the best iterate was scored anyway
                assert c.r2 is not None and c.mse is not None
            else:
                assert c.r2 is None and c.mse is None

    def test_metadata_records_run_inputs(self, grid_table, series):
        md = plain(grid_table.metadata)
        assert md["split"]["mode"] == "chronological"
        assert md["standardized"] is True
        assert md["targets"] == ["confirmed", "deaths"]
        assert md["source_label"] == series.source_label
        assert "rows" in md["dataset"]

    def test_deterministic(self, grid_table, series, chrono_split):
        again = run_grid(series, chrono_split)
        assert again.cells == grid_table.cells

    def test_each_target_is_prepared_once(
        self, short_series, chrono_split, monkeypatch
    ):
        calls = []
        build = harness.build_supervised

        def counting(*args, **kwargs):
            calls.append(args[2])
            return build(*args, **kwargs)

        monkeypatch.setattr(harness, "build_supervised", counting)
        table = run_grid(short_series, chrono_split)
        assert len(table.cells) == 30
        assert sorted(calls) == ["confirmed", "deaths"]

    def test_failed_preparation_flags_the_targets_cells(
        self, short_series, chrono_split
    ):
        flat = dataclasses.replace(short_series, deaths=(0,) * len(short_series))
        slots = [
            RegressorSlot(1, "svr", SvrConfig()),
            RegressorSlot(1, "linreg", LinRegConfig(0.1, 3000)),
        ]
        table = run_grid(flat, chrono_split, slots)
        for c in table.cells:
            constant = (c.flag_reason or "").startswith("ConstantTarget: ")
            assert constant == (c.target == "deaths")
            assert (c.r2 is None) == constant

    def test_diverging_linreg_cell_does_not_kill_the_grid(self, series, chrono_split):
        slots = [
            RegressorSlot(1, "linreg", LinRegConfig(2.0, 2500)),  # overshoots
            RegressorSlot(2, "linreg", LinRegConfig(0.1, 3000)),
        ]
        table = run_grid(series, chrono_split, slots)
        assert len(table.cells) == 4
        hot = cell(table, "linreg", 1, "confirmed")
        assert hot.flagged
        assert hot.flag_reason.startswith("NonFiniteObjective")
        assert hot.r2 is None
        assert not cell(table, "linreg", 2, "confirmed").flagged

    def test_as_dict_layout(self, grid_table, grid_reports):
        # the grid command writes the table of the same series and split
        doc = json.loads((grid_reports / "scoretable.json").read_text())
        assert set(doc) == {"cells", "metadata", "reference_best_r2", "manifest"}
        assert doc["cells"] == plain(grid_table.cells)
        assert len(doc["cells"]) == 30
        assert set(doc["reference_best_r2"]) == {"mlp", "svr", "linreg"}


def tiny_mlp(optimizer="lbfgs", budget=1000, **overrides):
    return MlpConfig(
        hidden_layers=1, neurons_per_layer=4, optimizer=optimizer,
        max_iterations=budget, **overrides,
    )


def fit_text(fit):
    """A cell's fit as bytes to compare: the model document, or the error."""
    if isinstance(fit, EpicastError):
        return f"{type(fit).__name__}: {fit}"
    return json.dumps(model_to_dict(fit))


class TestBudgetOnlySlotsShareOneFit:
    """run_grid equals every slot run on its own through _run_cell, byte for
    byte, while it fits each early-stopped MLP trajectory once per target."""

    @staticmethod
    def grid_and_fit_count(series, spec, slots, monkeypatch):
        fits = []
        fit = harness.train_on_split

        def spy(*args):
            fits.append(args[0])
            return fit(*args)

        monkeypatch.setattr(harness, "train_on_split", spy)
        table = run_grid(series, spec, slots)
        monkeypatch.undo()
        return table, len(fits)

    @staticmethod
    def assert_equals_each_slot_alone(table, series, spec, slots):
        runs = [
            harness._run_cell(harness._prepare(series, spec, t), slot, t)
            for slot in slots
            for t in harness.GRID_TARGETS
        ]
        alone = ScoreTable(
            cells=tuple(sorted(
                (c for c, _ in runs), key=lambda c: (c.family, c.slot, c.target)
            )),
            metadata=table.metadata,
        )
        assert json.dumps(plain(table.cells)) == json.dumps(plain(alone.cells))
        assert {key: fit_text(fit) for key, fit in table.fits.items()} == {
            (c.family, c.slot, c.target): fit_text(fit) for c, fit in runs
        }

    @pytest.mark.parametrize("seed", [0, 11])
    def test_default_grid(self, series, seed, monkeypatch):
        # MLP slots 1-3 differ only in budget and stall long before 1000
        # iterations, so slots 2 and 3 take slot 1's fits.
        spec = SplitSpec(mode="chronological", train_fraction=0.8, seed=seed)
        slots = default_grid(seed=seed)
        table, fitted = self.grid_and_fit_count(series, spec, slots, monkeypatch)
        assert fitted == 26
        self.assert_equals_each_slot_alone(table, series, spec, slots)
        for target in harness.GRID_TARGETS:
            meta = [table.fits[("mlp", s, target)].train_meta for s in (1, 2, 3)]
            assert meta[0]["status"] == "stalled"
            assert meta[0] == meta[1] == meta[2] and meta[1] is not meta[0]

    @pytest.mark.parametrize(
        "configs, fitted",
        [
            # budget 3 runs out, so 1000 refits; 1000 stalls and 2000 shares it
            ([tiny_mlp(budget=3), tiny_mlp(budget=1000), tiny_mlp(budget=2000)], 4),
            # descending budgets: nothing comes before a smaller budget
            ([tiny_mlp(budget=2000), tiny_mlp(budget=1000), tiny_mlp(budget=500)], 6),
            # a stalling sgd pair shares one fit
            ([tiny_mlp("sgd", 500, learning_rate=0.1, tolerance=1e-3),
              tiny_mlp("sgd", 1000, learning_rate=0.1, tolerance=1e-3)], 2),
            # an sgd pair whose smaller budget runs out fits twice
            ([tiny_mlp("sgd", 20), tiny_mlp("sgd", 40)], 4),
            # the other settings are part of the trajectory
            ([tiny_mlp(budget=1000), tiny_mlp(budget=2000, seed=1),
              tiny_mlp(budget=2000, activation="relu")], 6),
        ],
        ids=["exhausted-then-shared", "descending", "sgd-stalls", "sgd-exhausted",
             "other-settings"],
    )
    def test_custom_slots(self, short_series, chrono_split, configs, fitted, monkeypatch):
        slots = [RegressorSlot(i, "mlp", c) for i, c in enumerate(configs, start=1)]
        table, count = self.grid_and_fit_count(
            short_series, chrono_split, slots, monkeypatch
        )
        assert count == fitted
        self.assert_equals_each_slot_alone(table, short_series, chrono_split, slots)


def allow_concurrent_targets(monkeypatch, rows, cpus=2):
    """Let run_grid fit targets concurrently from ``rows`` train rows, as if
    OpenBLAS ran one thread and the process could use ``cpus`` CPUs."""
    monkeypatch.setattr(harness, "CONCURRENT_ROWS", rows)
    monkeypatch.setattr(harness, "BLAS_PINNED", True)
    monkeypatch.setattr(
        harness.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
    )


class TestConcurrentTargets:
    def test_table_equals_the_serial_table(
        self, short_series, chrono_split, monkeypatch
    ):
        slots = default_grid(seed=chrono_split.seed)
        serial = run_grid(short_series, chrono_split, slots)
        threads = {target: set() for target in harness.GRID_TARGETS}
        fit = harness.train_on_split

        def spy(*args):
            threads[args[4]].add(threading.get_ident())
            return fit(*args)

        allow_concurrent_targets(monkeypatch, rows=1)
        monkeypatch.setattr(harness, "train_on_split", spy)
        table = run_grid(short_series, chrono_split, slots)
        # each target's cells on one thread of their own, not the caller's
        assert [len(ids) for ids in threads.values()] == [1, 1]
        ids = set.union(*threads.values())
        assert len(ids) == 2 and threading.get_ident() not in ids
        assert json.dumps(plain(table.cells)) == json.dumps(plain(serial.cells))
        assert table.metadata == serial.metadata
        # same keys in the same order, and the same fits with their train_meta
        assert list(table.fits) == list(serial.fits)
        assert [fit_text(f) for f in table.fits.values()] == [
            fit_text(f) for f in serial.fits.values()
        ]

    @pytest.mark.parametrize(
        "rows, pinned, cpus, concurrent",
        [
            (0, True, 2, True),
            (1, True, 2, False),  # a train half one row short
            (0, False, 2, False),
            (0, True, 1, False),
        ],
        ids=["all-met", "too-few-rows", "blas-not-pinned", "one-cpu"],
    )
    def test_decision(
        self, short_series, chrono_split, monkeypatch, rows, pinned, cpus, concurrent
    ):
        prepared = [harness._prepare(short_series, chrono_split, t) for t in harness.GRID_TARGETS]
        allow_concurrent_targets(
            monkeypatch, rows=len(prepared[0].train) + rows, cpus=cpus
        )
        monkeypatch.setattr(harness, "BLAS_PINNED", pinned)
        assert harness._fit_targets_concurrently(prepared) is concurrent

    @pytest.mark.parametrize("cpus, concurrent", [(1, False), (4, True)])
    def test_decision_without_cpu_affinity(
        self, short_series, chrono_split, monkeypatch, cpus, concurrent
    ):
        prepared = [harness._prepare(short_series, chrono_split, t) for t in harness.GRID_TARGETS]
        allow_concurrent_targets(monkeypatch, rows=1)
        monkeypatch.delattr(harness.os, "sched_getaffinity")
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        assert harness._fit_targets_concurrently(prepared) is concurrent

    def test_a_failed_split_keeps_the_serial_loop(self, monkeypatch):
        prepared = [InputError("no rows"), InputError("no rows")]
        allow_concurrent_targets(monkeypatch, rows=0)
        assert not harness._fit_targets_concurrently(prepared)


class TestSelectBest:
    @pytest.mark.parametrize("family", ["mlp", "svr", "linreg"])
    def test_matches_hand_recomputation(self, grid_table, family):
        by_slot = {}
        for c in grid_table.family_cells(family):
            if not c.flagged:
                by_slot.setdefault(c.slot, []).append(c.r2)
        expected = sorted(
            ((-float(np.mean(v)), slot) for slot, v in by_slot.items())
        )[0][1]
        best = select_best(grid_table, family)
        assert best.slot == expected
        assert best.model_family == family

    def test_tie_breaks_to_lower_slot(self):
        table = ScoreTable(
            cells=(
                cell_stub("linreg", 1, "confirmed", 0.9),
                cell_stub("linreg", 2, "confirmed", 0.9),
            ),
            metadata={},
        )
        assert select_best(table, "linreg").slot == 1

    def test_flagged_cells_do_not_count(self):
        table = ScoreTable(
            cells=(
                cell_stub("linreg", 1, "confirmed", 0.99, flagged=True, reason="boom"),
                cell_stub("linreg", 2, "confirmed", 0.5),
            ),
            metadata={},
        )
        assert select_best(table, "linreg").slot == 2

    def test_mean_over_targets(self):
        table = ScoreTable(
            cells=(
                cell_stub("linreg", 1, "confirmed", 1.0),
                cell_stub("linreg", 1, "deaths", 0.0),
                cell_stub("linreg", 2, "confirmed", 0.6),
                cell_stub("linreg", 2, "deaths", 0.6),
            ),
            metadata={},
        )
        assert select_best(table, "linreg").slot == 2  # mean 0.6 beats 0.5

    def test_all_flagged_raises(self):
        table = ScoreTable(
            cells=(cell_stub("svr", 1, "confirmed", None, flagged=True, reason="x"),),
            metadata={},
        )
        with pytest.raises(NoValidCell):
            select_best(table, "svr")

    def test_reconstructed_slot_reproduces_its_cell(self, grid_table, series, chrono_split):
        best = select_best(grid_table, "linreg")
        rerun = run_grid(series, chrono_split, [best])
        for target in ("confirmed", "deaths"):
            assert cell(rerun, "linreg", best.slot, target).r2 == cell(
                grid_table, "linreg", best.slot, target
            ).r2


@pytest.fixture(scope="module")
def best_slots():
    return {
        "mlp": RegressorSlot(1, "mlp", MlpConfig(
            hidden_layers=2, neurons_per_layer=16, max_iterations=1000, seed=0,
        )),
        "svr": RegressorSlot(1, "svr", SvrConfig(kernel=KernelSpec(kind="rbf"))),
        "linreg": RegressorSlot(1, "linreg", LinRegConfig()),
    }


def compare(series, spec, best_slots, target="confirmed", horizon=0):
    """compare_models over a grid of just the given best slots."""
    table = run_grid(series, spec, list(best_slots.values()))
    return compare_models(series, table, best_slots, target, horizon)


class TestCompareModels:
    def test_axis_covers_test_span(self, best_slots):
        series = linear_series()
        spec = SplitSpec(mode="chronological", train_fraction=0.8, seed=0)
        report = compare(series, spec, best_slots)
        assert len(report.dates) == 24  # 120 rows, test fifth
        assert report.dates[0] == Date(2021, 1, 1) + timedelta(days=96)
        assert report.dates[-1] == series.last_date
        assert all(v is not None for v in report.observed)
        assert set(report.predicted) == {"mlp", "svr", "linreg"}
        for values in report.predicted.values():
            assert len(values) == 24
            assert np.all(np.isfinite(values))

    def test_horizon_extends_axis_with_null_observed(self, best_slots):
        series = linear_series()
        spec = SplitSpec(mode="chronological", train_fraction=0.8, seed=0)
        report = compare(series, spec, best_slots, horizon=30)
        assert len(report.dates) == 24 + 30
        assert report.dates[-1] == series.last_date + timedelta(days=30)
        assert all(v is None for v in report.observed[24:])
        assert all(len(v) == 54 for v in report.predicted.values())

    def test_families_recover_linear_truth_on_shuffled_split(self, best_slots):
        series = linear_series()
        spec = SplitSpec(mode="shuffled", train_fraction=0.8, seed=3)
        report = compare(series, spec, best_slots)
        obs = np.asarray(report.observed, dtype=float)
        denom = float(np.sum((obs - obs.mean()) ** 2))
        for family, values in report.predicted.items():
            resid = float(np.sum((obs - np.asarray(values)) ** 2))
            assert 1.0 - resid / denom > 0.95, family

    def test_shuffled_axis_starts_at_earliest_test_row(self, best_slots):
        series = linear_series(days=50)
        spec = SplitSpec(mode="shuffled", train_fraction=0.8, seed=3)
        report = compare(series, spec, best_slots)
        order = np.random.default_rng(3).permutation(50)
        first = int(np.min(order[40:]))
        assert report.dates[0] == Date(2021, 1, 1) + timedelta(days=first)
        assert len(report.dates) == 50 - first

    def test_negative_horizon_rejected(self, best_slots):
        spec = SplitSpec(mode="chronological", train_fraction=0.8, seed=0)
        with pytest.raises(InputError, match="horizon"):
            compare(linear_series(days=60), spec, best_slots, horizon=-1)

    def test_metadata_lists_slots_and_configs(self, best_slots):
        series = linear_series(days=60)
        spec = SplitSpec(mode="chronological", train_fraction=0.8, seed=0)
        report = compare(series, spec, best_slots)
        assert report.metadata["slots"] == {"mlp": 1, "svr": 1, "linreg": 1}
        assert plain(report.metadata)["configs"]["svr"]["kernel"]["kind"] == "rbf"
        assert report.metadata["horizon"] == 0

    @pytest.mark.parametrize("target", ["confirmed", "deaths"])
    def test_predictions_equal_a_fresh_refit_of_the_best_slot(
        self, grid_table, series, chrono_split, target
    ):
        best = {f: select_best(grid_table, f) for f in ("mlp", "svr", "linreg")}
        report = compare_models(series, grid_table, best, target)
        data = build_supervised(series, ("day_index",), target)
        std = standardized_split(data, chrono_split)
        _, test_rows = split_indices(len(data), chrono_split)
        x = np.asarray(
            series.column("day_index")[int(np.min(test_rows)):], dtype=float
        )[:, None]
        for family, slot in best.items():
            model, _ = train_on_split(family, slot.config, std, ("day_index",), target)
            refit = tuple(float(v) for v in predict_raw(model, x))
            assert report.predicted[family] == refit, family

    def test_as_dict_round_trip_types(self, best_slots):
        series = linear_series(days=60)
        spec = SplitSpec(mode="chronological", train_fraction=0.8, seed=0)
        doc = plain(compare(series, spec, best_slots, horizon=2))
        assert doc["target"] == "confirmed"
        assert isinstance(doc["dates"][0], str)
        assert doc["observed"][-1] is None
        assert isinstance(doc["predicted"]["mlp"][0], float)
