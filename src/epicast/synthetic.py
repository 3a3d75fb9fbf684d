"""Seeded synthetic epidemic series for demos, tests and acceptance runs.

One wave of logistic growth in daily confirmed cases, deaths following at
a lagged case-fatality fraction, and a testing-volume column riding the
same wave. Multiplicative lognormal-ish noise (1 + eps) keeps counts
nonnegative before rounding. Fully determined by the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date as Date

import numpy as np

from .dataset import CaseSeries


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape constants for the generated wave.

    Defaults are tuned so that a chronological 80/20 split puts the
    decelerating top of the wave in the test segment: a saturating model
    can track it, a straight line cannot.
    """

    days: int = 520
    seed: int = 11
    start: Date = Date(2020, 3, 1)
    plateau: float = 9000.0  # daily confirmed cases at saturation
    midpoint: float = 390.0  # day index of fastest growth
    width: float = 45.0  # logistic time constant, days
    baseline: float = 25.0  # imported-case floor before the wave
    cfr: float = 0.018  # deaths per confirmed case
    death_lag: int = 7  # days from confirmation to death
    tests_per_case: float = 9.0
    tests_floor: float = 800.0
    noise: float = 0.02  # multiplicative noise scale


def _logistic(t: np.ndarray, plateau: float, midpoint: float, width: float) -> np.ndarray:
    return plateau / (1.0 + np.exp(-(t - midpoint) / width))


def synthetic_epidemic(spec: SyntheticSpec = SyntheticSpec()) -> CaseSeries:
    """Generate the series; same spec (incl. seed) gives the same counts."""
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.days, dtype=float)
    confirmed_clean = spec.baseline + _logistic(t, spec.plateau, spec.midpoint, spec.width)
    deaths_clean = spec.cfr * (
        spec.baseline
        + _logistic(t - spec.death_lag, spec.plateau, spec.midpoint, spec.width)
    )
    tests_clean = spec.tests_floor + spec.tests_per_case * confirmed_clean

    def noisy(clean: np.ndarray) -> np.ndarray:
        eps = rng.standard_normal(spec.days) * spec.noise
        return np.maximum(clean * (1.0 + eps), 0.0)

    confirmed = np.floor(noisy(confirmed_clean) + 0.5).astype(int)
    deaths = np.floor(noisy(deaths_clean) + 0.5).astype(int)
    tests = np.floor(noisy(tests_clean) + 0.5).astype(int)

    return CaseSeries(
        spec.start,
        tests.tolist(),
        confirmed.tolist(),
        deaths.tolist(),
        source_label=f"synthetic(seed={spec.seed})",
    )
