"""Benchmark of the epicast CLI.

    python3 bench/run.py --workload paper-520 --seed 1 --seconds 40 --trace 0

Generates the workload's synthetic CSV from --seed, then runs rounds of the
workload's CLI commands for about --seconds (at least one round), checking
every report each command writes. One closed-loop client: each command
starts when the previous one has ended.

--trace 0 runs every command in a fresh interpreter, as a user's shell
would, and reports the end-to-end metrics. --trace 1 runs the same rounds
in-process through ``epicast.cli.main``, alternating untraced rounds with
rounds whose layer calls are wrapped in spans, and reports the per-layer
metrics and the tracing overhead. The metric names and units are those in
BENCHMARK.json; the last line of output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from checks import OutputChecker, grid_quality
from envinfo import environment, steal_seconds
from runner import measure_setup, reference_probe, run_inprocess, run_subprocess
from timing import tail
from tracing import Profile, Tracer, installed, missing_spans
from workloads import CSV, WORKLOADS, Step, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMAS = ROOT / "docs" / "schemas"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
SETUP_PER_ROUND = 3
PROBES_PER_ROUND = 2


@dataclass
class Tally:
    """What one run's rounds did: command timings, failures, peak memory."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    seconds: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    rounds: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    cpu_seconds: float = 0.0
    quality: dict | None = None

    def commands(self) -> list[float]:
        return [s for samples in self.seconds.values() for s in samples]


def run_round(workload: Workload, workdir: Path, execute, checker, tally: Tally) -> float:
    """Run every step once; a failing step is counted, never raised."""
    start = time.perf_counter()
    for step in workload.steps:
        shutil.rmtree(workdir / step.out_dir, ignore_errors=True)
        result = execute(step)
        tally.attempted += 1
        tally.seconds[step.metric].append(result.seconds)
        if result.peak_rss_mb is not None:
            tally.peak_rss_mb = max(tally.peak_rss_mb, result.peak_rss_mb)
            tally.cpu_seconds += result.cpu_seconds
        if result.returncode != 0:
            lines = result.stderr.strip().splitlines() or [""]
            reason, docs = f"exit {result.returncode}: {lines[-1][:200]}", {}
        else:
            reason, docs = checker.check(step, workdir)
        if reason is not None:
            tally.failed += 1
            tally.failures.append(f"{step.name}: {reason}")
        elif step.command == "grid" and tally.quality is None:
            tally.quality = grid_quality(docs["scoretable.json"])
    return time.perf_counter() - start


def write_input(workload: Workload, seed: int, workdir: Path) -> dict:
    from epicast.dataset import serialize_csv
    from epicast.harness import default_grid
    from epicast.preprocess import SplitSpec, build_supervised, split
    from epicast.synthetic import SyntheticSpec, synthetic_epidemic

    series = synthetic_epidemic(SyntheticSpec(seed=seed, **workload.spec))
    text = serialize_csv(series)
    (workdir / CSV).write_text(text, encoding="utf-8")
    train, _ = split(build_supervised(series, ("day_index",), "confirmed"), SplitSpec())
    n = len(train.y)
    kernels = [s.config.kernel for s in default_grid() if s.model_family == "svr"]
    return {
        "workload": workload.name,
        "seed": seed,
        "input_rows": len(series),
        "training_rows": n,
        "csv_bytes": len(text.encode("utf-8")),
        "gram_bytes_per_kernel": {
            (f"poly{k.degree}" if k.kind == "poly" else k.kind): n * n * 8 for k in kernels
        },
    }


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir()) if path.is_dir() else 0


def untraced(workload: Workload, workdir: Path, seconds: float, checker) -> tuple[Tally, dict]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    measure_setup(env, str(workdir), 1)  # writes the bytecode caches users keep
    setup: list[float] = []
    probes: list[float] = []
    tally = Tally()
    steal_before = steal_seconds()
    start = time.perf_counter()
    while True:
        # Set-up and probe samples are spread over the run, not taken in one
        # burst, so a slow spell of the machine weighs on them as on rounds.
        setup += measure_setup(env, str(workdir), SETUP_PER_ROUND)
        probes += [reference_probe() for _ in range(PROBES_PER_ROUND)]
        tally.rounds.append(
            run_round(
                workload,
                workdir,
                lambda step: run_subprocess(step.full_argv(), str(workdir), env),
                checker,
                tally,
            )
        )
        if time.perf_counter() - start + median(tally.rounds) > seconds:
            break
    setup += measure_setup(env, str(workdir), SETUP_PER_ROUND)
    probes += [reference_probe() for _ in range(PROBES_PER_ROUND)]
    elapsed = time.perf_counter() - start
    print_timings(tally, setup)
    print(f"  reference probe        {median(probes):10.4f} s   n={len(probes)}")
    print(f"  cpu_s per round        {tally.cpu_seconds / len(tally.rounds):10.4f} s (user + system of the commands)")
    steal_after = steal_seconds()
    if steal_before is not None and steal_after is not None:
        # Steal inflates wall times, not CPU times; report it so noisy runs show.
        print(f"host steal: {steal_after - steal_before:.2f} s of {elapsed:.1f} s x {os.cpu_count()} processors")
    return tally, {
        "setup_s": median(setup),
        "round_probes": median(tally.rounds) / median(probes),
        "peak_rss_mb": tally.peak_rss_mb,
    }


def traced(workload: Workload, workdir: Path, seconds: float, checker) -> tuple[Tally, dict]:
    tracer = Tracer()
    tally = Tally()
    plain, wrapped = [], []

    def plain_step(step: Step):
        return run_inprocess(step.full_argv())

    def traced_step(step: Step):
        with tracer.span(f"cli.{step.command}", step=step.name) as span:
            result = run_inprocess(step.full_argv())
        span.attrs["report_bytes"] = _dir_bytes(workdir / step.out_dir)
        return result

    def traced_round() -> float:
        tracer.round += 1
        with installed(tracer):
            return run_round(workload, workdir, traced_step, checker, tally)

    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        start = time.perf_counter()
        while True:
            # Alternate which side runs first so warm-up favours neither.
            if len(plain) % 2 == 0:
                plain.append(run_round(workload, workdir, plain_step, checker, tally))
                wrapped.append(traced_round())
            else:
                wrapped.append(traced_round())
                plain.append(run_round(workload, workdir, plain_step, checker, tally))
            if time.perf_counter() - start + plain[-1] + wrapped[-1] > seconds:
                break
    finally:
        os.chdir(cwd)

    missing = missing_spans(tracer.spans, workload.required_spans)
    if missing:
        raise SystemExit(
            f"bench: wrapped functions recorded no calls on {workload.name}: "
            f"{', '.join(missing)}; a call site in tracing.WRAP_POINTS has moved"
        )
    spans_file = WORK / f"{workdir.name}.spans.jsonl"
    tracer.dump(spans_file)
    profile = Profile(tracer.spans, len(wrapped))
    metrics = profile.layer_metrics()
    metrics["trace.overhead"] = median(wrapped) / median(plain) - 1.0
    print(f"rounds: {len(plain)} untraced, {len(wrapped)} traced, "
          f"median {median(plain):.4f} s vs {median(wrapped):.4f} s "
          f"(tracing overhead {100 * metrics['trace.overhead']:+.2f}%), "
          f"{len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}")
    print("workload-specific layer metrics:")
    for name, value in profile.workload_metrics().items():
        print(f"  {name:28s} {value:14.4f}")
    print_cells(profile)
    return tally, metrics


def print_timings(tally: Tally, setup: list[float]) -> None:
    print("end-to-end timings (median, tail, samples):")
    rows = [("setup_s", setup), ("round_s", tally.rounds), *sorted(tally.seconds.items()),
            ("cmd_s (all commands)", tally.commands())]
    for name, samples in rows:
        label, value = tail(samples)
        print(f"  {name:22s} {median(samples):10.4f} s   {label} {value:.4f} s   n={len(samples)}")
    print(f"  peak_rss_mb            {tally.peak_rss_mb:10.1f} MB (largest command, process tree summed)")


def print_cells(profile) -> None:
    from epicast.harness import default_grid

    grids = [
        g for g in profile.by_name["harness.run_grid"]
        if g.round == 1 and profile.parent_name(g) == "cli.grid"
    ]
    if not grids:
        return
    slots = default_grid()

    def slot_of(family, config):
        return next((s.slot for s in slots if s.model_family == family and s.config == config), None)

    print("grid cells (first traced round):")
    print("  family slot target     status                  iters  evals    SVs    fit_ms")
    for row in profile.cell_table(grids[0], slot_of):
        print("  {family:6s} {slot!s:4s} {target:10s} {status!s:22s} {iterations!s:>6s} "
              "{evals!s:>6s} {support_vectors!s:>6s} {fit_ms:9.2f}".format(**row))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "epicast" / "cli.py", SCHEMAS / "common.json", SPEC) if not p.is_file()]
    if missing:
        print(f"bench: not a checkout of epicast, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = write_input(workload, args.seed, workdir)
        print("environment:", json.dumps({**environment(), **inputs}))
        checker = OutputChecker(SCHEMAS)
        run = traced if args.trace else untraced
        tally, metrics = run(workload, workdir, args.seconds, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tally.quality:
        print("grid quality:", json.dumps(tally.quality))
    print(f"failed_ops: {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f}")
    for failure in tally.failures[:10]:
        print(f"  failed {failure}")
    print(f"payload_sha256: {checker.combined_digest()}")
    if set(metrics) != set(units):
        raise SystemExit(f"bench: metrics {sorted(set(metrics) ^ set(units))} disagree with {SPEC.name}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
