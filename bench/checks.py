"""Output checks behind ``failed``: every report a command writes must
match its JSON Schema and the shape its command promises, and must repeat
byte for byte, apart from manifest timestamps, whenever the same command
runs again on the same input."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from jsonschema import Draft202012Validator, ValidationError
from referencing import Registry, Resource

from workloads import FAMILIES, HORIZON, Step

GRID_TARGETS = ("confirmed", "deaths")
GRID_ORDER = [(f, s, t) for f in sorted(FAMILIES) for s in range(1, 6) for t in GRID_TARGETS]


class CheckFailed(Exception):
    pass


def _check_forecast_rows(predictions: list) -> None:
    if len(predictions) != int(HORIZON):
        raise CheckFailed(f"{len(predictions)} forecast rows, expected {HORIZON}")
    for row in predictions:
        value = row["predicted"]
        if type(value) is not int or value < 0:
            raise CheckFailed(f"forecast value {value!r} is not a non-negative integer")


def _check_grid(doc: dict) -> None:
    order = [(c["family"], c["slot"], c["target"]) for c in doc["cells"]]
    if order != GRID_ORDER:
        raise CheckFailed("scoretable cells are not the 30 (family, slot, target) in order")


def _check_compare(doc: dict) -> None:
    n = len(doc["dates"])
    if len(doc["observed"]) != n or any(len(v) != n for v in doc["predicted"].values()):
        raise CheckFailed("comparison series differ in length from the date axis")
    if any(v is not None for v in doc["observed"][n - int(HORIZON) :]):
        raise CheckFailed("comparison horizon days carry observations")


SHAPES = {
    "grid": lambda docs: _check_grid(docs["scoretable.json"]),
    "compare": lambda docs: _check_compare(docs["comparison.json"]),
    "forecast": lambda docs: _check_forecast_rows(docs["forecast.json"]["predictions"]),
    "scenario": lambda docs: [
        _check_forecast_rows(t["forecast"]["predictions"])
        for t in docs["scenario.json"]["targets"].values()
    ],
}


def payload_digest(out_dir: Path) -> str:
    """sha256 over every file a command wrote, JSON with its manifest
    timestamps stripped and keys sorted, other files as written."""
    from epicast.manifest import strip_timestamps

    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            doc = strip_timestamps(json.loads(data))
            data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        digest.update(path.name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


class OutputChecker:
    """Checks each step's outputs; remembers each step's first digest."""

    def __init__(self, schema_dir: Path) -> None:
        self._schema_dir = schema_dir
        common = json.loads((schema_dir / "common.json").read_text(encoding="utf-8"))
        self._registry = Resource.from_contents(common) @ Registry()
        self._validators: dict[str, Draft202012Validator] = {}
        self.digests: dict[str, str] = {}

    def _validator(self, schema: str) -> Draft202012Validator:
        if schema not in self._validators:
            doc = json.loads((self._schema_dir / schema).read_text(encoding="utf-8"))
            self._validators[schema] = Draft202012Validator(doc, registry=self._registry)
        return self._validators[schema]

    def check(self, step: Step, workdir: Path) -> tuple[str | None, dict]:
        """(None, reports) when the step's outputs pass, else (reason, {})."""
        out = workdir / step.out_dir
        try:
            docs = {}
            for filename, schema in step.reports:
                docs[filename] = json.loads((out / filename).read_text(encoding="utf-8"))
                self._validator(schema).validate(docs[filename])
            SHAPES.get(step.command, lambda _: None)(docs)
            digest = payload_digest(out)
        except (OSError, ValueError, KeyError, TypeError, ValidationError, CheckFailed) as err:
            return f"{type(err).__name__}: {str(err).splitlines()[0]}", {}
        if self.digests.setdefault(step.name, digest) != digest:
            return "deterministic payload differs from this step's first run", {}
        return None, docs

    def combined_digest(self) -> str:
        """One sha256 over every step's payload digest, in step-name order."""
        lines = "".join(f"{name} {d}\n" for name, d in sorted(self.digests.items()))
        return hashlib.sha256(lines.encode()).hexdigest()


def grid_quality(scoretable: dict) -> dict:
    """Flagged cells and, per family, the mean R2 of the slot that the
    program's own select_best picks (None when every cell is flagged)."""
    from epicast.errors import NoValidCell
    from epicast.harness import GridCell, ScoreTable, select_best

    table = ScoreTable(tuple(GridCell(**c) for c in scoretable["cells"]), {})
    quality: dict = {"flagged_cells": sum(c.flagged for c in table.cells)}
    for family in FAMILIES:
        try:
            slot = select_best(table, family).slot
        except NoValidCell:
            quality[f"best_r2.{family}"] = None
            continue
        r2 = [c.r2 for c in table.family_cells(family) if c.slot == slot and not c.flagged]
        quality[f"best_r2.{family}"] = sum(r2) / len(r2)
    return quality
