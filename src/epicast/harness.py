"""Experiment harness: the 5-regressor-per-family grid, best-slot
selection, and cross-family comparison series.

Grid cells are isolated jobs: a diverging or non-converging fit becomes a
flagged cell in the table instead of aborting the run, so the grid is
always total. Identical seed and data give an identical table. MLP slots
that differ only in their iteration budget share one fit per target when
the fit stops before its budget: the optimizers read the budget only to
stop, so every larger budget would take the same steps.

The two targets share nothing but the day-index column, so on long series
each target's cells run on a thread of their own (``_fit_targets_concurrently``
says when).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from datetime import date as Date

import numpy as np

from .dataset import CaseSeries, fingerprint, horizon_dates
from .errors import EpicastError, InputError, NoValidCell
from .linear import LinRegConfig
from .mlp import MlpConfig
from .models import FamilyConfig, TrainedModel, predict_raw, train_on_split
from .preprocess import (
    SplitSpec,
    StandardizedSplit,
    build_supervised,
    split_indices,
    standardized_split,
)
from .svr import KernelSpec, SvrConfig

GRID_TARGETS = ("confirmed", "deaths")

# Train rows from which each target's cells run on a thread of their own.
# Numpy releases the GIL in BLAS calls, not in the per-iteration Python of
# the solvers, which the smaller fits spend most of their time in: two
# threads lost at 832 rows, broke even at 1664 and won at 4160 (2 CPUs).
CONCURRENT_ROWS = 2048

# OpenBLAS reads its thread count from the environment once, when numpy
# loads it, and numpy is loaded by the time this module is (above). Two
# fitting threads gain only over a one-thread BLAS: over two BLAS threads
# each, they were slower than one fit at a time.
BLAS_PINNED = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS")) == "1"

# External benchmark bests (infected/confirmed target, deaths target) shown
# in report footers for orientation; they are display references, not
# acceptance thresholds.
REFERENCE_BEST_R2 = {
    "mlp": {"confirmed": 0.9182, "deaths": 0.9341},
    "svr": {"confirmed": 0.8413, "deaths": 0.8701},
    "linreg": {"confirmed": 0.7996, "deaths": 0.8090},
}


@dataclass(frozen=True)
class RegressorSlot:
    """One numbered configuration of one model family."""

    slot: int
    model_family: str
    config: FamilyConfig


@dataclass(frozen=True)
class GridCell:
    """Outcome of one slot on one target.

    flagged cells are failures (exception: scores None) or non-converged
    fits (scores present, reason "not_converged"); either way the grid
    completed. Unflagged cells always carry scores. config is the slot's
    own config object, which select_best hands back as the winning slot's.
    """

    slot: int
    family: str
    target: str
    r2: float | None
    mse: float | None
    flagged: bool
    flag_reason: str | None
    config: FamilyConfig


@dataclass(frozen=True)
class ScoreTable:
    """``fits`` maps (family, slot, target) to the model the cell scored or
    the error that flagged it; reports leave it out."""

    cells: tuple[GridCell, ...]
    metadata: dict
    fits: dict[tuple[str, int, str], TrainedModel | EpicastError] = field(
        default_factory=dict, compare=False, repr=False
    )

    def family_cells(self, family: str) -> list[GridCell]:
        return [c for c in self.cells if c.family == family]


def default_grid(
    *,
    mlp_hidden_layers: int = MlpConfig.hidden_layers,
    mlp_neurons: int = MlpConfig.neurons_per_layer,
    seed: int = 0,
) -> list[RegressorSlot]:
    """The fixed 15-slot grid: 5 configurations for each family.

    SVR slots sweep kernels, MLP slots sweep optimizer/activation/budget,
    linreg slots sweep the learning-rate/iteration trade-off. Depth and
    width of the MLP slots default to MlpConfig's shallow, trainable 2x16.
    """

    def mlp(activation: str, optimizer: str, iters: int) -> MlpConfig:
        return MlpConfig(
            hidden_layers=mlp_hidden_layers,
            neurons_per_layer=mlp_neurons,
            activation=activation,
            optimizer=optimizer,
            max_iterations=iters,
            seed=seed,
        )

    slots: list[RegressorSlot] = []
    kernels = [
        KernelSpec(kind="rbf"),
        KernelSpec(kind="poly", degree=5),
        KernelSpec(kind="linear"),
        KernelSpec(kind="poly", degree=2),
        KernelSpec(kind="poly", degree=7),
    ]
    for i, k in enumerate(kernels, start=1):
        slots.append(RegressorSlot(i, "svr", SvrConfig(kernel=k)))
    slots.append(RegressorSlot(1, "mlp", mlp("tanh", "lbfgs", 1000)))
    slots.append(RegressorSlot(2, "mlp", mlp("tanh", "lbfgs", 5000)))
    slots.append(RegressorSlot(3, "mlp", mlp("tanh", "lbfgs", 10000)))
    slots.append(RegressorSlot(4, "mlp", mlp("relu", "lbfgs", 1000)))
    slots.append(RegressorSlot(5, "mlp", mlp("tanh", "sgd", 1000)))
    for i, (lr, iters) in enumerate(
        [(0.5, 2500), (0.1, 3000), (0.01, 3500), (0.001, 5000), (0.0001, 10000)],
        start=1,
    ):
        slots.append(RegressorSlot(i, "linreg", LinRegConfig(lr, iters)))
    return slots


def _prepare(
    series: CaseSeries, split_spec: SplitSpec, target: str
) -> StandardizedSplit | EpicastError:
    """The target's standardized split, or the error that prevented it."""
    try:
        data = build_supervised(series, ("day_index",), target)
        return standardized_split(data, split_spec)
    except EpicastError as err:
        return err.with_traceback(None)


def _run_cell(
    std: StandardizedSplit | EpicastError, slot: RegressorSlot, target: str
) -> tuple[GridCell, TrainedModel | EpicastError]:
    r2 = mse = None
    fit = std
    if not isinstance(std, EpicastError):
        try:
            fit, result = train_on_split(
                slot.model_family, slot.config, std, ("day_index",), target
            )
            r2, mse = result.r2, result.mse
        except EpicastError as err:
            # The table outlives the fit; a kept traceback would keep the
            # failed fit's frames, and a Gram matrix with them, alive too.
            fit = err.with_traceback(None)
    if isinstance(fit, EpicastError):
        flag_reason = f"{type(fit).__name__}: {fit}"
    else:
        flag_reason = None if fit.converged else "not_converged"
    cell = GridCell(
        slot=slot.slot,
        family=slot.model_family,
        target=target,
        r2=r2,
        mse=mse,
        flagged=flag_reason is not None,
        flag_reason=flag_reason,
        config=slot.config,
    )
    return cell, fit


# MLP config with its budget erased -> (budget, cell, fit) of the
# smallest-budget fit of that trajectory on one target that stopped before
# its budget
EarlyStops = dict[MlpConfig, tuple[int, GridCell, TrainedModel]]


def _run_shared(
    early: EarlyStops,
    std: StandardizedSplit | EpicastError,
    slot: RegressorSlot,
    target: str,
) -> tuple[GridCell, TrainedModel | EpicastError]:
    """_run_cell, except that an MLP slot whose trajectory is in ``early``,
    the table of target's fits, under a budget no larger than its own takes
    that cell and fit."""
    if slot.model_family != "mlp":
        return _run_cell(std, slot, target)
    budget = slot.config.max_iterations
    key = dataclasses.replace(slot.config, max_iterations=1)
    if key in early and early[key][0] <= budget:
        _, cell, fit = early[key]
        return (
            dataclasses.replace(cell, slot=slot.slot, config=slot.config),
            dataclasses.replace(fit, config=slot.config, train_meta=dict(fit.train_meta)),
        )
    cell, fit = _run_cell(std, slot, target)
    if isinstance(fit, TrainedModel) and fit.train_meta["status"] != "max_iterations":
        early[key] = budget, cell, fit
    return cell, fit


def _fit_targets_concurrently(prepared: list[StandardizedSplit | EpicastError]) -> bool:
    """Whether run_grid fits each target's cells on a thread of their own:
    only if every target's train half has at least CONCURRENT_ROWS rows,
    OpenBLAS runs one thread (BLAS_PINNED) and the process may use at
    least two CPUs."""
    usable = getattr(os, "sched_getaffinity", None)  # the CPUs this process may use
    cpus = len(usable(0)) if usable else os.cpu_count() or 1
    return (
        all(isinstance(p, StandardizedSplit) and len(p.train) >= CONCURRENT_ROWS for p in prepared)
        and BLAS_PINNED
        and cpus >= 2
    )


def run_grid(
    series: CaseSeries,
    split_spec: SplitSpec,
    slots: list[RegressorSlot] | None = None,
) -> ScoreTable:
    """Fit and score every slot on every target in GRID_TARGETS.

    The series must be imputed (no missing values in used columns). Each
    target's split is built once; if that fails, every cell of the target
    is flagged. The cells run in order on the calling thread, one fit at a
    time, unless ``_fit_targets_concurrently`` holds: then each target's
    cells run in order on a thread of their own. Either way the output is
    the same and sorted by (family, slot, target). The table keeps every
    cell's fit for ``compare_models``.

    An MLP fit that stops before its budget (any status but
    "max_iterations") took the steps every larger budget would take, so a
    later MLP slot on the same target whose config differs only in a
    budget at least as large takes that cell and fit under its own slot
    and config instead of fitting again. Every other cell is fitted,
    including one whose fit ran out its budget or raised. SVR and linreg
    slots always fit: the default grid has no budget-only variants of them.
    """
    if slots is None:
        slots = default_grid(seed=split_spec.seed)
    prepared = {t: _prepare(series, split_spec, t) for t in GRID_TARGETS}
    early: dict[str, EarlyStops] = {t: {} for t in GRID_TARGETS}

    def run(slot: RegressorSlot, target: str):
        return _run_shared(early[target], prepared[target], slot, target)

    if _fit_targets_concurrently(list(prepared.values())):
        from concurrent.futures import ThreadPoolExecutor  # paid only on this path

        with ThreadPoolExecutor(len(GRID_TARGETS)) as pool:
            by_target = pool.map(lambda t: [run(slot, t) for slot in slots], GRID_TARGETS)
            runs = [r for slot_runs in zip(*by_target) for r in slot_runs]
    else:
        runs = [run(slot, t) for slot in slots for t in GRID_TARGETS]
    cells = sorted((c for c, _ in runs), key=lambda c: (c.family, c.slot, c.target))
    metadata = {
        "split": split_spec,
        "seed": split_spec.seed,
        "targets": list(GRID_TARGETS),
        "standardized": True,  # every cell fits on standardized data
        "dataset": fingerprint(series),
        "source_label": series.source_label,
    }
    fits = {(c.family, c.slot, c.target): fit for c, fit in runs}
    return ScoreTable(cells=tuple(cells), metadata=metadata, fits=fits)


def select_best(table: ScoreTable, family: str) -> RegressorSlot:
    """Slot with the highest mean R2 over unflagged target cells.

    Ties break toward the lower slot number; a family with no unflagged
    cell at all raises NoValidCell.
    """
    by_slot: dict[int, list[GridCell]] = {}
    for c in table.family_cells(family):
        if not c.flagged and c.r2 is not None:
            by_slot.setdefault(c.slot, []).append(c)
    if not by_slot:
        raise NoValidCell(f"every {family} cell is flagged")
    scored = [
        (float(np.mean([c.r2 for c in cells])), slot)
        for slot, cells in by_slot.items()
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    best_slot = scored[0][1]
    config = by_slot[best_slot][0].config
    return RegressorSlot(slot=best_slot, model_family=family, config=config)


@dataclass(frozen=True)
class ComparisonReport:
    """Observed vs per-family predictions on one shared date axis.

    The axis runs from the earliest test-row date through the end of the
    series plus the horizon; observed is None past the last observation.
    Predictions are real-valued (plot material, not count reports).
    """

    target: str
    dates: tuple[Date, ...]
    observed: tuple[int | None, ...]
    predicted: dict[str, tuple[float, ...]]
    metadata: dict


def compare_models(
    series: CaseSeries,
    table: ScoreTable,
    best_slots: dict[str, RegressorSlot],
    target: str,
    horizon: int = 0,
) -> ComparisonReport:
    """Predict with each family's best-slot fit from the grid on one axis.

    ``table`` is the grid ``run_grid`` fitted on ``series``; every family's
    model is the one its cell on ``target`` scored, trained on the same
    standardized train half. A cell whose split or fit failed re-raises
    that error. Predictions cover the test span (earliest test date to
    series end) plus `horizon` days past the last observation; a negative
    `horizon`, or one that runs past 9999-12-31, is an InputError.
    """
    if horizon < 0:
        raise InputError(f"horizon must be non-negative, got {horizon}")
    models = {}
    for family, slot in best_slots.items():
        models[family] = table.fits[(family, slot.slot, target)]
        if isinstance(models[family], EpicastError):
            raise models[family]
    _, test_rows = split_indices(len(series), table.metadata["split"])
    first = int(np.min(test_rows))
    dates = series.dates[first:] + horizon_dates(series.last_date, horizon)
    observed = series.column(target)[first:] + (None,) * horizon
    day_indices = range(first, len(series) + horizon)

    x_future = np.asarray(day_indices, dtype=float)[:, None]
    predicted = {
        family: tuple(float(v) for v in predict_raw(model, x_future))
        for family, model in models.items()
    }
    metadata = {
        "split": table.metadata["split"],
        "horizon": horizon,
        "slots": {f: s.slot for f, s in best_slots.items()},
        "configs": {f: s.config for f, s in best_slots.items()},
        "dataset": table.metadata["dataset"],
        "reference_best_r2": REFERENCE_BEST_R2,
    }
    return ComparisonReport(
        target=target,
        dates=tuple(dates),
        observed=tuple(observed),
        predicted=predicted,
        metadata=metadata,
    )
