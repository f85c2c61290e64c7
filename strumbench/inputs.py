"""Seeded input generators for the strumscribe benchmark.

Everything here is a pure function of (workload, seed): the same pair always
writes byte-identical files. The generators share no code with the package
under test, so a change to `strumscribe.synth` cannot move the benchmark's
inputs. The program only ever sees the files written by `write_workload`.

Songs are Markov walks over a vocabulary (repeat the current pattern with
probability 1 - switch_prob, else jump to a uniformly random other one),
played at a fixed tempo with Gaussian timing jitter. Audio songs are rendered as a train of decaying noise bursts
("plucks") at the observed strum times; their raw bar-line track drops some
true lines and adds spurious mid-measure ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

WORKLOADS = ("pipeline_audio", "decode_bigvocab")
_WORKLOAD_CODES = {name: code for code, name in enumerate(WORKLOADS)}

SAMPLE_RATE = 22050
TEMPO_BPM = 120.0
MIN_GAP_SEC = 1.5e-3  # the package rejects strums closer than 1 ms

# The small vocabulary: 4/4 and 3/4, one 2-measure pattern, and three 3/4
# patterns whose onsets fall off the 16-slot render grid (lossy renders).
SMALL_PATTERNS = (
    ("QUARTERS", "4/4", [[0.0, 0.25, 0.5, 0.75]]),
    ("BACKBEAT", "4/4", [[0.0, 0.375, 0.5, 0.875]]),
    ("HALF", "4/4", [[0.0, 0.5]]),
    ("SYNCOPATED", "4/4", [[0.0, 0.1875, 0.375, 0.5, 0.75]]),
    ("TWOBAR", "4/4", [[0.0, 0.5, 0.75], [0.0, 0.25, 0.5]]),
    ("WALTZ", "3/4", [[0.0, 1 / 3, 2 / 3]]),
    ("WALTZ_SPARSE", "3/4", [[0.0, 2 / 3]]),
    ("WALTZ_LILT", "3/4", [[0.0, 0.5, 5 / 6]]),
)


@dataclass(frozen=True)
class SongShape:
    """Generator parameters of one workload's songs."""

    measures: int
    sigma_norm: float
    switch_prob: float


@dataclass(frozen=True)
class WorkloadSpec:
    pool: int  # distinct songs; the timed loop cycles through them
    song: SongShape
    big_vocab: bool = False
    audio: bool = False


SPECS = {
    "pipeline_audio": WorkloadSpec(
        pool=36, song=SongShape(measures=80, sigma_norm=0.01, switch_prob=0.2), audio=True
    ),
    "decode_bigvocab": WorkloadSpec(
        pool=24, song=SongShape(measures=300, sigma_norm=0.02, switch_prob=0.2), big_vocab=True
    ),
}


def _rng(seed: int, workload: str, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, _WORKLOAD_CODES[workload], *stream])


def _pattern(pattern_id: str, signature: str, onsets: list[list[float]]) -> dict:
    return {
        "id": pattern_id,
        "time_signature": signature,
        "measures": len(onsets),
        "onsets": [list(m) for m in onsets],
    }


def small_vocabulary() -> dict:
    return {"patterns": [_pattern(*p) for p in SMALL_PATTERNS]}


def big_vocabulary(rng: np.random.Generator, size: int = 1000) -> dict:
    """The c10 recipe grown around the small vocabulary, whose patterns the
    songs are played from: distinct random 16th-grid one-measure patterns in
    4/4 and 3/4 up to `size` patterns, plus two 2-measure patterns."""
    patterns = [_pattern(*p) for p in SMALL_PATTERNS]
    seen = {(p["time_signature"], tuple(p["onsets"][0])) for p in patterns}
    signatures = ("4/4", "3/4")
    while len(patterns) < size - 2:
        count = int(rng.integers(1, 9))
        grid = tuple(sorted(float(x) for x in rng.choice(16, size=count, replace=False) / 16))
        signature = signatures[int(rng.integers(2))]
        if (signature, grid) in seen:
            continue
        seen.add((signature, grid))
        patterns.append(_pattern(f"P{len(patterns)}", signature, [list(grid)]))
    patterns.append(_pattern("T1", "4/4", [[0.0, 0.5], [0.25, 0.75]]))
    patterns.append(_pattern("T2", "3/4", [[0.0], [0.5]]))
    return {"patterns": patterns}


def _measure_seconds(signature: str) -> float:
    numerator, denominator = (int(x) for x in signature.split("/"))
    return numerator * (60.0 / TEMPO_BPM) * (4.0 / denominator)


def make_song(rng: np.random.Generator, patterns: list[dict], shape: SongShape) -> dict:
    """One song: bar lines, nominal (written) strums and observed (played)
    strums, all in seconds."""
    instances: list[dict] = []
    remaining, current = shape.measures, None
    while remaining > 0:
        fitting = [p for p in patterns if p["measures"] <= remaining]
        if current is not None and current["measures"] <= remaining and rng.random() >= shape.switch_prob:
            choice = current
        else:
            candidates = [p for p in fitting if p is not current] or fitting
            choice = candidates[int(rng.integers(len(candidates)))]
        instances.append(choice)
        remaining -= choice["measures"]
        current = choice

    bars, nominal, owner = [0.0], [], []
    for pattern in instances:
        duration = _measure_seconds(pattern["time_signature"])
        for onsets in pattern["onsets"]:
            start = bars[-1]
            for position in onsets:
                nominal.append(start + position * duration)
                owner.append(len(bars) - 1)
            bars.append(start + duration)

    observed = []
    sigma = shape.sigma_norm
    for t, m in zip(nominal, owner):
        duration = bars[m + 1] - bars[m]
        jitter = float(np.clip(rng.normal(0.0, sigma), -3 * sigma, 3 * sigma)) if sigma else 0.0
        observed.append(min(max(t + jitter * duration, bars[m]), bars[m + 1] - 1e-6 * duration))
    observed.sort()
    deduped: list[float] = []
    for t in observed:
        if not deduped or t - deduped[-1] >= MIN_GAP_SEC:
            deduped.append(t)
    return {"barlines": bars, "nominal": nominal, "observed": deduped}


def corrupt_barlines(
    rng: np.random.Generator, bars: list[float], drop_rate: float = 0.05, spurious_rate: float = 0.10
) -> list[float]:
    """A raw downbeat track: interior lines dropped at `drop_rate`, and a
    spurious line near the middle of a measure at `spurious_rate`."""
    raw = [bars[0]]
    for m in range(len(bars) - 1):
        start, end = bars[m], bars[m + 1]
        if rng.random() < spurious_rate:
            raw.append(start + (end - start) * float(rng.uniform(0.4, 0.6)))
        if m + 1 == len(bars) - 1 or rng.random() >= drop_rate:
            raw.append(end)
    return raw


def pluck_train(rng: np.random.Generator, times: list[float], tail_sec: float = 1.0) -> np.ndarray:
    """16-bit PCM: exponentially decaying noise bursts starting at `times`."""
    total = int((max(times) + tail_sec) * SAMPLE_RATE)
    samples = np.zeros(total)
    length = int(0.25 * SAMPLE_RATE)
    envelope = np.exp(-np.arange(length) / (0.03 * SAMPLE_RATE))
    for t in times:
        start = int(t * SAMPLE_RATE)
        end = min(start + length, total)
        samples[start:end] += 0.4 * rng.standard_normal(length)[: end - start] * envelope[: end - start]
    return (np.clip(samples, -1.0, 32767 / 32768) * 32768).astype(np.int16)


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, sort_keys=True)
        fp.write("\n")


def write_workload(workload: str, seed: int, root: Path) -> dict:
    """Generate every input of `workload` under `root`; return the manifest
    the worker reads (file paths plus the truth each check needs)."""
    spec = SPECS[workload]
    root.mkdir(parents=True, exist_ok=True)
    small = small_vocabulary()
    vocab = big_vocabulary(_rng(seed, workload, 0)) if spec.big_vocab else small
    vocab_path = root / "vocab.json"
    _write_json(vocab_path, vocab)

    songs = []
    for index in range(spec.pool):
        rng = _rng(seed, workload, 1, index)
        song = make_song(rng, small["patterns"], spec.song)
        song_dir = root / f"song{index:03d}"
        song_dir.mkdir(exist_ok=True)
        record = {
            "id": f"song{index:03d}",
            "measures": spec.song.measures,
            "barlines": str(song_dir / "barlines.json"),
            "nominal": str(song_dir / "nominal.json"),
            "strums": str(song_dir / "strums.json"),
            "true_barlines": song["barlines"],
            "true_plucks": song["observed"],
        }
        _write_json(song_dir / "barlines.json", {"barlines_sec": song["barlines"]})
        _write_json(song_dir / "nominal.json", {"strums_sec": song["nominal"]})
        _write_json(song_dir / "strums.json", {"strums_sec": song["observed"]})
        if spec.audio:
            raw = corrupt_barlines(rng, song["barlines"])
            record["raw_barlines"] = str(song_dir / "raw_barlines.json")
            record["audio"] = str(song_dir / "audio.wav")
            _write_json(song_dir / "raw_barlines.json", {"barlines_sec": raw})
            wavfile.write(record["audio"], SAMPLE_RATE, pluck_train(rng, song["observed"]))
        songs.append(record)
    return {"workload": workload, "seed": seed, "vocab": str(vocab_path), "songs": songs}
