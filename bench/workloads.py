"""The benchmark's workloads: the synthetic CSV each one generates from its
seed, and the CLI commands one round of it runs.

Why each workload exists is recorded in BENCHMARK.json. All commands run
from one working directory with relative paths, so their
argv, and with it the deterministic part of every report, is the same in
every round and in every run with the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

CSV = "input.csv"
FAMILIES = ("mlp", "svr", "linreg")
HORIZON = "30"

# Spans the traced run must record on every workload.
COMMON_SPANS = frozenset(
    {
        "dataset.parse",
        "dataset.impute",
        "dataset.fingerprint",
        "preprocess.build",
        "preprocess.split",
        "svr.fit",
        "svr.gram",
        "mlp.fit",
        "mlp.loss_and_gradient",
        "optimizers.lbfgs",
        "linear.fit",
        "models.train",
        "models.predict",
    }
)


@dataclass(frozen=True)
class Step:
    """One CLI command of a round."""

    name: str  # unique within a round; also names its output directory
    metric: str  # the per-command timing it is reported under
    argv: tuple[str, ...]
    reports: tuple[tuple[str, str], ...]  # (JSON file in out_dir, schema file)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def out_dir(self) -> str:
        return f"out/{self.name}"

    def full_argv(self) -> list[str]:
        return [*self.argv, "--out-dir", self.out_dir]


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # SyntheticSpec fields besides the seed
    steps: tuple[Step, ...]
    required_spans: frozenset[str]


def _grid_step(*extra: str) -> Step:
    return Step(
        "grid", "grid_s", ("grid", CSV, *extra), (("scoretable.json", "scoretable.schema.json"),)
    )


def _commands_round() -> tuple[Step, ...]:
    steps = [Step("stats", "stats_s", ("stats", CSV), (("stats.json", "stats.schema.json"),))]
    models = {}
    for family in FAMILIES:
        model_file = f"model_{family}_confirmed.json"
        step = Step(
            f"train_{family}",
            "train_s",
            ("train", CSV, "--model", family),
            (
                ("train_eval.json", "train_eval.schema.json"),
                (model_file, "model.schema.json"),
            ),
        )
        models[family] = f"{step.out_dir}/{model_file}"
        steps.append(step)
    for family in FAMILIES:
        steps.append(
            Step(
                f"eval_{family}",
                "eval_s",
                ("eval", models[family], CSV),
                (("eval.json", "eval.schema.json"),),
            )
        )
        steps.append(
            Step(
                f"forecast_{family}",
                "forecast_s",
                ("forecast", models[family], "--csv", CSV, "--horizon", HORIZON),
                (("forecast.json", "forecast.schema.json"),),
            )
        )
    steps.append(
        Step("scenario", "scenario_s", ("scenario", CSV), (("scenario.json", "scenario.schema.json"),))
    )
    return tuple(steps)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-520",
            {},
            (
                _grid_step(),
                Step(
                    "compare",
                    "compare_s",
                    ("compare", CSV, "--horizon", HORIZON),
                    (("comparison.json", "comparison.schema.json"),),
                ),
            ),
            COMMON_SPANS
            | {"optimizers.sgd", "harness.run_grid", "harness.select_best", "harness.compare"},
        ),
        Workload(
            "grid-5200",
            {"days": 5200, "midpoint": 3900.0, "width": 450.0},
            (_grid_step("--workers", "2"),),
            COMMON_SPANS | {"optimizers.sgd", "harness.run_grid"},
        ),
        Workload(
            "commands-520",
            {},
            _commands_round(),
            COMMON_SPANS
            | {
                "dataset.summarize",
                "models.save",
                "models.load",
                "forecast.forecast",
                "forecast.scenario",
            },
        ),
    )
}
