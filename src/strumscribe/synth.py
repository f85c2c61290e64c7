"""Synthetic ground-truth songs for oracle tests and benchmark corpora.

A song is a Markov walk over the vocabulary: each new instance repeats the
previous pattern with probability 1 - switch_prob (when it still fits the
remaining measures) or switches to a uniformly random other pattern. Bar
lines follow the active pattern's time signature at a fixed tempo. Observed
strums are the written-out nominal strums with per-strum Gaussian timing
jitter, random deletions, and uniformly placed spurious extras. Everything
is a pure function of the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import numpy as np
from .decoder import Transcription, TranscriptionEntry
from .timeline import MIN_STRUM_GAP_SEC, BarlineTrack, StrumSequence
from .vocabulary import RhythmicPattern, Vocabulary


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic song.

    sigma_norm is the timing jitter standard deviation in measure-fraction
    units; switch_prob is the per-instance probability of changing pattern;
    miss_rate and spurious_rate simulate detector noise.
    """

    seed: int
    vocab: Vocabulary
    measures: int = 32
    tempo_bpm: float = 120.0
    sigma_norm: float = 0.0
    switch_prob: float = 0.0
    miss_rate: float = 0.0
    spurious_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("tempo_bpm", "sigma_norm"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.tempo_bpm > 0:
            raise ValueError(f"tempo_bpm must be > 0, got {self.tempo_bpm}")
        if self.measures < 1:
            raise ValueError("need at least one measure")
        if self.sigma_norm < 0:
            raise ValueError(f"sigma_norm must be >= 0, got {self.sigma_norm}")
        for name in ("switch_prob", "miss_rate", "spurious_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if len(self.vocab) == 0:
            raise ValueError("vocabulary must not be empty")


@dataclass(frozen=True)
class SynthSong:
    """One generated song: its true transcription, bar lines, the nominal
    (written) strums, and the noisy observed strums."""

    ground_truth: Transcription
    barlines: BarlineTrack
    nominal: StrumSequence
    observed: StrumSequence


def _measure_duration(pattern: RhythmicPattern, tempo_bpm: float) -> float:
    signature = pattern.time_signature
    quarter = 60.0 / tempo_bpm
    return signature.numerator * quarter * (4.0 / signature.denominator)


def _sample_instances(spec: SynthSpec, rng: np.random.Generator) -> list[RhythmicPattern]:
    patterns = spec.vocab.patterns
    instances: list[RhythmicPattern] = []
    remaining = spec.measures
    current: RhythmicPattern | None = None
    while remaining > 0:
        fitting = [p for p in patterns if p.measures <= remaining]
        choice: RhythmicPattern
        if current is not None and current.measures <= remaining and rng.random() >= spec.switch_prob:
            choice = current
        else:
            candidates = [p for p in fitting if p is not current] or fitting
            choice = candidates[int(rng.integers(len(candidates)))]
        instances.append(choice)
        remaining -= choice.measures
        current = choice
    return instances


def generate_song(spec: SynthSpec) -> SynthSong:
    """Generate one synthetic song, fully determined by spec.seed."""
    rng = np.random.default_rng(spec.seed)
    instances = _sample_instances(spec, rng)

    entries: list[TranscriptionEntry] = []
    bar_times = [0.0]
    nominal: list[float] = []
    nominal_measure: list[int] = []
    measure = 0
    for pattern in instances:
        duration = _measure_duration(pattern, spec.tempo_bpm)
        for phase in range(pattern.measures):
            start = bar_times[-1]
            entries.append(
                TranscriptionEntry(measure, pattern.id, phase, pattern.time_signature)
            )
            for position in pattern.onsets[phase]:
                nominal.append(start + position * duration)
                nominal_measure.append(measure)
            bar_times.append(start + duration)
            measure += 1

    bars = BarlineTrack(tuple(bar_times))
    ground_truth = Transcription(tuple(entries), total_cost=0.0)
    nominal_seq = StrumSequence(tuple(nominal))

    observed = []
    durations = np.diff(bar_times)
    for t, m in zip(nominal, nominal_measure):
        duration = durations[m]
        jitter = rng.normal(0.0, spec.sigma_norm) if spec.sigma_norm > 0 else 0.0
        jitter = float(np.clip(jitter, -3.0 * spec.sigma_norm, 3.0 * spec.sigma_norm))
        played = t + jitter * duration
        # keep jittered strums inside their source measure
        low = bar_times[m]
        high = bar_times[m + 1] - 1e-6 * duration
        observed.append(min(max(played, low), high))

    if spec.miss_rate > 0 and observed:
        keep = rng.random(len(observed)) >= spec.miss_rate
        observed = [t for t, k in zip(observed, keep) if k]
    n_spurious = int(rng.binomial(len(nominal), spec.spurious_rate)) if spec.spurious_rate > 0 else 0
    if n_spurious:
        observed.extend(rng.uniform(bar_times[0], bar_times[-1], n_spurious).tolist())

    observed.sort()
    deduped: list[float] = []
    for t in observed:
        if not deduped or t - deduped[-1] >= MIN_STRUM_GAP_SEC:
            deduped.append(t)
    return SynthSong(ground_truth, bars, nominal_seq, StrumSequence(tuple(deduped)))
