"""Output checks of the strumscribe benchmark, independent of the package.

`scalar_total_cost` re-derives a transcription's cost from the input files
with plain Python: per-measure two-way squared mismatch over 2 sigma^2, plus
the change penalties at every instance boundary. `match_count` is the
maximum one-to-one matching of two ascending event lists within a tolerance.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math

# The decoder defaults the benchmark runs with (it passes no config flags).
TIMING_SIGMA = 0.03
PATTERN_CHANGE_PENALTY = 2.0
TIMESIG_CHANGE_PENALTY = 6.0
COST_RTOL = 1e-9


def digest(blobs: list[bytes]) -> str:
    """SHA-256 over length-prefixed blobs, so that no two lists collide."""
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


def bin_positions(strums: list[float], bars: list[float]) -> list[list[float]]:
    """Per-measure strum positions as fractions of the measure; strums
    outside [bars[0], bars[-1]) are dropped."""
    measures: list[list[float]] = [[] for _ in range(len(bars) - 1)]
    for t in strums:
        m = bisect.bisect_right(bars, t) - 1
        if 0 <= m < len(measures):
            position = (t - bars[m]) / (bars[m + 1] - bars[m])
            measures[m].append(min(position, math.nextafter(1.0, 0.0)))
    return measures


def _mismatch(strums: list[float], onsets: list[float]) -> float:
    to_onset = sum(min((s - r) ** 2 for r in onsets) for s in strums)
    to_strum = sum(min((r - s) ** 2 for s in strums) for r in onsets)
    return to_onset + to_strum


def scalar_total_cost(transcription: dict, measures: list[list[float]], vocab: dict) -> float:
    """Cost of `transcription` (the program's JSON) against binned strums.

    Raises ValueError when the transcription is not a valid tiling of the
    measures or uses an impossible emission (silence against strums).
    """
    patterns = {p["id"]: p for p in vocab["patterns"]}
    entries = transcription["measures"]
    if len(entries) != len(measures):
        raise ValueError(f"{len(entries)} measures transcribed, {len(measures)} expected")
    denom = 2.0 * TIMING_SIGMA * TIMING_SIGMA
    total, previous = 0.0, None
    for m, entry in enumerate(entries):
        pid, phase = entry["pattern_id"], entry["phase"]
        if entry["index"] != m:
            raise ValueError(f"measure {m} has index {entry['index']}")
        if pid.startswith("EMPTY_"):
            numerator, denominator = pid.split("_")[1:]
            pattern = {"id": pid, "time_signature": f"{numerator}/{denominator}", "onsets": [[]]}
        elif pid in patterns:
            pattern = patterns[pid]
        else:
            raise ValueError(f"measure {m}: unknown pattern {pid!r}")
        if entry["time_signature"] != pattern["time_signature"]:
            raise ValueError(f"measure {m}: time signature {entry['time_signature']}")
        if not 0 <= phase < len(pattern["onsets"]):
            raise ValueError(f"measure {m}: phase {phase} of {pid!r}")
        if phase == 1 and (m == 0 or entries[m - 1]["pattern_id"] != pid or entries[m - 1]["phase"] != 0):
            raise ValueError(f"measure {m}: phase 1 without its phase 0")
        if phase == 0 and m + len(pattern["onsets"]) > len(entries):
            raise ValueError(f"measure {m}: {pid!r} runs past the last measure")
        strums, onsets = measures[m], pattern["onsets"][phase]
        if bool(strums) != bool(onsets):
            raise ValueError(f"measure {m}: forbidden emission for {pid!r}")
        if strums:
            total += _mismatch(strums, onsets) / denom
        if phase == 0:
            if previous is not None and previous["id"] != pid:
                total += PATTERN_CHANGE_PENALTY
                if previous["time_signature"] != pattern["time_signature"]:
                    total += TIMESIG_CHANGE_PENALTY
            previous = pattern
    return total


def cost_matches(transcription: dict, measures: list[list[float]], vocab: dict) -> bool:
    try:
        expected = scalar_total_cost(transcription, measures, vocab)
    except (ValueError, KeyError, TypeError):
        return False
    got = transcription["total_cost"]
    return math.isclose(got, expected, rel_tol=COST_RTOL, abs_tol=COST_RTOL)


def match_count(reference: list[float], estimate: list[float], tolerance: float) -> int:
    """Maximum number of pairs |r - e| <= tolerance, each event used once.

    All windows have the same width, so taking references in order and
    giving each the earliest unused estimate inside its window is optimal.
    """
    matched, j = 0, 0
    for r in reference:
        while j < len(estimate) and r - estimate[j] > tolerance:
            j += 1
        if j < len(estimate) and abs(estimate[j] - r) <= tolerance:
            matched += 1
            j += 1
    return matched


def f1_score(reference: list[float], estimate: list[float], tolerance: float) -> float:
    if not reference and not estimate:
        return 1.0
    return 2.0 * match_count(reference, estimate, tolerance) / (len(reference) + len(estimate))


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)
