"""Mapping between absolute time (seconds) and the measure grid.

Bar lines delimit measures as half-open intervals [times[m], times[m+1]).
Strums are normalized into per-measure position vectors in [0, 1), which is
the space all pattern matching operates in.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from typing import Sequence

MIN_STRUM_GAP_SEC = 1e-3


def _check_finite(values: Sequence[float], label: str) -> None:
    if any(not math.isfinite(v) for v in values):
        raise ValueError(f"{label} must be finite")


@dataclass(frozen=True)
class BarlineTrack:
    """Strictly ascending bar-line times in seconds; measure m spans
    [times_sec[m], times_sec[m+1])."""

    times_sec: tuple[float, ...]

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times_sec)
        object.__setattr__(self, "times_sec", times)
        _check_finite(times, "bar-line times")
        if len(times) < 2:
            raise ValueError("a bar-line track needs at least 2 times")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("bar-line times must be strictly ascending")

    @property
    def measure_count(self) -> int:
        return len(self.times_sec) - 1


@dataclass(frozen=True)
class StrumSequence:
    """Ascending strum onset times in seconds. Two strums closer than 1 ms
    count as duplicates and are rejected."""

    times_sec: tuple[float, ...]

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times_sec)
        object.__setattr__(self, "times_sec", times)
        _check_finite(times, "strum times")
        for a, b in zip(times, times[1:]):
            if b < a:
                raise ValueError("strum times must be non-decreasing")
            # small slack so a gap of exactly 1 ms in decimal survives float rounding
            if b - a < MIN_STRUM_GAP_SEC - 1e-9:
                raise ValueError(f"duplicate strums within 1 ms: {a} and {b}")

    def __len__(self) -> int:
        return len(self.times_sec)


@dataclass(frozen=True)
class MeasureStrums:
    """Observed strum positions within one measure, as fractions in [0, 1)."""

    measure_index: int
    positions: tuple[float, ...]

    def __post_init__(self) -> None:
        positions = tuple(float(p) for p in self.positions)
        object.__setattr__(self, "positions", positions)
        if self.measure_index < 0:
            raise ValueError("measure_index must be >= 0")
        for p in positions:
            if not 0.0 <= p < 1.0:
                raise ValueError(f"position {p!r} outside [0, 1)")
        if any(b < a for a, b in zip(positions, positions[1:])):
            raise ValueError("positions must be ascending")


def bin_strums(strums: StrumSequence, bars: BarlineTrack) -> tuple[list[MeasureStrums], int]:
    """Assign each strum to its measure and normalize to a fraction of it.

    Strums before the first bar line or at/after the last one are discarded;
    the discarded count is returned alongside one MeasureStrums per measure.
    """
    times = bars.times_sec
    per_measure: list[list[float]] = [[] for _ in range(bars.measure_count)]
    discarded = 0
    for t in strums.times_sec:
        m = bisect.bisect_right(times, t) - 1
        if m < 0 or m >= bars.measure_count:
            discarded += 1
            continue
        position = (t - times[m]) / (times[m + 1] - times[m])
        # float rounding can push a strum just below a bar line onto 1.0
        if position >= 1.0:
            position = math.nextafter(1.0, 0.0)
        per_measure[m].append(position)
    return (
        [MeasureStrums(m, tuple(ps)) for m, ps in enumerate(per_measure)],
        discarded,
    )


def _load_times(text: str, key: str) -> tuple[float, ...]:
    """The numbers listed under the one key of a JSON object text. The
    strum and bar-line codecs below take and return text; `cli` reads and
    writes their files."""
    # integers parse as floats, so one too large for a float reads as inf
    payload = json.loads(text, parse_int=float)
    if not isinstance(payload, dict) or set(payload) != {key}:
        raise ValueError(f'JSON must be an object with a single "{key}" key')
    values = payload[key]
    if not isinstance(values, list) or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in values
    ):
        raise ValueError(f"{key!r} must be a list of numbers")
    return tuple(values)


def load_strums(text: str) -> StrumSequence:
    return StrumSequence(_load_times(text, "strums_sec"))


def save_strums(strums: StrumSequence) -> str:
    return json.dumps({"strums_sec": list(strums.times_sec)}, sort_keys=True) + "\n"


def load_barlines(text: str) -> BarlineTrack:
    return BarlineTrack(_load_times(text, "barlines_sec"))


def save_barlines(bars: BarlineTrack) -> str:
    return json.dumps({"barlines_sec": list(bars.times_sec)}, sort_keys=True) + "\n"
