"""Cleanup of noisy downbeat estimates into a stable bar-line sequence.

Neural downbeat trackers occasionally emit spurious bar lines mid-measure or
skip one entirely, which doubles or halves the apparent measure length. Under
a steady-tempo assumption this module repairs such tracks with two edits:
deleting individual estimates, and subdividing the span between two kept
estimates into k equal measures. A dynamic program picks the edit sequence
minimizing

    deletion_penalty * (estimates dropped from the track)
  + insertion_penalty * (bar lines invented by subdivision)
  + tempo_change_penalty * sum over consecutive output measures of
        max(0, |len_m - len_{m-1}| / len_{m-1} - 0.05)

A dropped estimate within snap_tolerance_sec of a kept one counts as a match
rather than a deletion, so near-duplicate detector output is removed for
free. Charging insertions matters: without it, one spurious estimate near a
measure's midpoint would let the whole track reinterpret at doubled tempo at
zero cost. The 5% band leaves natural tempo drift unpenalized. The first and
last estimates are always kept. Remaining cost ties prefer fewer inserted
lines, then fewer deletions, so an already-steady track passes through
unchanged rather than being uniformly subdivided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .timeline import BarlineTrack

TEMPO_FREE_BAND = 0.05
DISCONTINUITY_THRESHOLD = 0.35


@dataclass(frozen=True)
class PostprocConfig:
    """Edit penalties and search bounds for bar-line cleanup.

    `lookahead` caps how far ahead the next kept estimate may be, i.e. at
    most lookahead - 1 consecutive estimates can be deleted in one span.
    """

    subdivision_factors: tuple[int, ...] = (1, 2, 3, 4)
    deletion_penalty: float = 1.0
    insertion_penalty: float = 1.0
    tempo_change_penalty: float = 8.0
    snap_tolerance_sec: float = 0.07
    lookahead: int = 4

    def __post_init__(self) -> None:
        factors = tuple(sorted(set(int(f) for f in self.subdivision_factors)))
        object.__setattr__(self, "subdivision_factors", factors)
        if not factors or factors[0] < 1:
            raise ValueError("subdivision factors must be integers >= 1")
        for name in ("deletion_penalty", "insertion_penalty", "tempo_change_penalty"):
            if not getattr(self, name) >= 0:  # NaN compares false
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.snap_tolerance_sec > 0:
            raise ValueError("snap tolerance must be > 0")
        if self.lookahead < 1:
            raise ValueError("lookahead must be >= 1")


def tempo_step_cost(prev_len: float, cur_len: float, cfg: PostprocConfig) -> float:
    """Smoothness penalty between two consecutive measure lengths."""
    change = abs(cur_len - prev_len) / prev_len
    return cfg.tempo_change_penalty * max(0.0, change - TEMPO_FREE_BAND)


def span_deletions(times: Sequence[float], j: int, i: int, cfg: PostprocConfig) -> int:
    """Dropped estimates strictly between kept estimates j and i, not counting
    near-duplicates of the kept endpoints."""
    a, b = times[j], times[i]
    return sum(1 for e in times[j + 1 : i] if min(e - a, b - e) > cfg.snap_tolerance_sec)


def postprocess_barlines(raw: BarlineTrack, cfg: PostprocConfig | None = None) -> BarlineTrack:
    """Repair a noisy bar-line track; see the module docstring for the model."""
    track, _ = postprocess_barlines_with_cost(raw, cfg)
    return track


def postprocess_barlines_with_cost(
    raw: BarlineTrack, cfg: PostprocConfig | None = None
) -> tuple[BarlineTrack, float]:
    """postprocess_barlines plus the objective value the DP achieved.

    The DP keeps one layer per estimate index i, mapping each incoming
    measure length to its best (cost, inserted, deleted) tuple, the parent
    (kept index, length) and the subdivision factor of the span ending at i.
    Lengths are carried as exact values, so only lengths reachable through
    some (previous kept, factor) choice ever appear. Ties keep the first
    candidate in layer order, then factor order. All arithmetic is on the
    track's own Python floats.
    """
    cfg = cfg or PostprocConfig()
    times = raw.times_sec
    last = len(times) - 1

    # layers[i][incoming_len] = (cost_tuple, parent (j, incoming_len), factor)
    # cost_tuple = (cost, inserted, deleted), compared lexicographically
    layers: list[dict[float, tuple]] = [{} for _ in range(last + 1)]
    layers[0][0.0] = ((0.0, 0, 0), None, 0)
    for j in range(last):
        for i in range(j + 1, min(j + cfg.lookahead, last) + 1):
            step_deleted = span_deletions(times, j, i, cfg)
            steps = [
                (k, (times[i] - times[j]) / k,
                 cfg.deletion_penalty * step_deleted + cfg.insertion_penalty * (k - 1))
                for k in cfg.subdivision_factors
            ]
            target = layers[i]
            for incoming, ((cost, inserted, deleted), _, _) in layers[j].items():
                for k, length, step_cost in steps:
                    if incoming > 0.0:
                        step_cost += tempo_step_cost(incoming, length, cfg)
                    new_cost = (cost + step_cost, inserted + k - 1, deleted + step_deleted)
                    known = target.get(length)
                    if known is None or new_cost < known[0]:
                        target[length] = (new_cost, (j, incoming), k)

    final = layers[last]
    best = min(final, key=lambda length: final[length][0])

    # walk parents to recover kept estimates and their subdivision factors
    spans: list[tuple[int, int]] = []  # (kept index, factor of the span ending there)
    key: tuple[int, float] | None = (last, best)
    while key is not None:
        i, length = key
        _, key, k = layers[i][length]
        spans.append((i, k))
    spans.reverse()

    output: list[float] = [times[0]]
    for (j, _), (i, k) in zip(spans, spans[1:]):
        a, b = times[j], times[i]
        output.extend(a + step * (b - a) / k for step in range(1, k))
        output.append(b)
    return BarlineTrack(tuple(output)), final[best][0][0]


def discontinuity_rate(bars: BarlineTrack) -> float:
    """Fraction of measures whose length jumps more than 35% from the
    previous measure's length."""
    lengths = np.diff(np.asarray(bars.times_sec))
    if len(lengths) < 2:
        return 0.0
    jumps = np.abs(np.diff(lengths)) / lengths[:-1]
    return float(np.count_nonzero(jumps > DISCONTINUITY_THRESHOLD)) / len(lengths)
