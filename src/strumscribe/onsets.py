"""Baseline strum-onset detector for isolated-guitar audio.

Classic spectral-flux recipe: short-time Fourier magnitudes are pooled into
mel bands, log-compressed, and differenced over time; the positive part
summed across bands is the onset-strength envelope. Onsets are picked as
local envelope maxima that clear a moving-average threshold and respect a
minimum inter-onset gap. This targets isolated or well-separated guitar
recordings; it makes no attempt at polyphonic mixtures.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.ndimage
from scipy.io import wavfile

from .timeline import StrumSequence


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be > 0")
        if samples.ndim != 1:
            raise ValueError("samples must be mono (1-D)")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")


@dataclass(frozen=True)
class OnsetConfig:
    """Envelope and peak-picking parameters.

    Window sizes are in frames. delta is the threshold above the local
    moving average of the envelope. Defaults were fixed on synthetic pluck
    trains; tune_peak_picking() re-fits them to a labeled set.
    """

    frame_size: int = 2048
    hop_size: int = 512
    n_mels: int = 128
    fmin_hz: float = 30.0
    fmax_hz: float = 11025.0
    log_compression: float = 1000.0
    delta: float = 10.0
    pre_max: int = 3
    post_max: int = 3
    pre_avg: int = 8
    post_avg: int = 8
    min_gap_sec: float = 0.05

    def __post_init__(self) -> None:
        if self.hop_size > self.frame_size:
            raise ValueError("hop_size must be <= frame_size")
        if min(self.frame_size, self.hop_size, self.n_mels) < 1:
            raise ValueError("frame_size, hop_size, n_mels must be >= 1")
        if min(self.pre_max, self.post_max, self.pre_avg, self.post_avg) < 1:
            raise ValueError("peak-picking windows must be >= 1")
        if self.min_gap_sec < 0:
            raise ValueError("min_gap_sec must be >= 0")
        if not 0 < self.fmin_hz < self.fmax_hz:
            raise ValueError("need 0 < fmin_hz < fmax_hz")


def load_wav(path: str) -> AudioBuffer:
    """Read a PCM WAV file (16/24-bit int or 32-bit float); multichannel
    audio is mixed down by channel averaging. A file that cannot be opened
    raises OSError; one that is not a readable WAV raises ValueError."""
    try:
        sample_rate, data = wavfile.read(path)
    except OSError:
        raise
    except Exception as exc:
        # scipy's parser fails on a malformed header with whatever it trips
        # on (struct.error, ZeroDivisionError, ValueError, ...)
        raise ValueError(f"cannot read WAV file {path!r}: {exc}") from exc
    if data.dtype == np.int16:
        samples = data / 32768.0
    elif data.dtype == np.int32:
        samples = data / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(float)
    else:
        raise ValueError(f"unsupported WAV sample format: {data.dtype}")
    if samples.ndim > 1:
        samples = samples.mean(axis=1)
    return AudioBuffer(samples, int(sample_rate))


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def _mel_filterbank(sample_rate: int, n_fft: int, cfg: OnsetConfig) -> np.ndarray:
    """Triangular mel filters, shape (n_mels, n_fft // 2 + 1)."""
    fmax = min(cfg.fmax_hz, sample_rate / 2.0)
    edges_hz = _mel_to_hz(np.linspace(_hz_to_mel(cfg.fmin_hz), _hz_to_mel(fmax), cfg.n_mels + 2))
    bin_freqs = np.fft.rfftfreq(n_fft, 1.0 / sample_rate)
    bank = np.zeros((cfg.n_mels, len(bin_freqs)))
    for band in range(cfg.n_mels):
        lower, center, upper = edges_hz[band : band + 3]
        rising = (bin_freqs - lower) / max(center - lower, 1e-12)
        falling = (upper - bin_freqs) / max(upper - center, 1e-12)
        bank[band] = np.clip(np.minimum(rising, falling), 0.0, 1.0)
    return bank


# frames per block of STFT magnitudes in onset_strength
_MAGNITUDE_BLOCK_FRAMES = 256


def onset_strength(audio: AudioBuffer, cfg: OnsetConfig | None = None) -> np.ndarray:
    """Per-frame onset-strength envelope (non-negative, first frame 0).

    Frame t is timestamped by the newest hop it covers: its analysis window
    spans [t*hop - (frame - hop), t*hop + hop). Energy arriving during hop t
    therefore raises the envelope at index t, which keeps attack times
    aligned with the t*hop/sample_rate convention used by pick_peaks.

    The STFT magnitudes are filled in blocks of _MAGNITUDE_BLOCK_FRAMES
    frames, so the windowed frames and the complex spectrum never exist for
    the whole song at once. Windowing, rfft along a row and abs each act on
    one frame alone, so the magnitude matrix is bit-for-bit the whole-array
    one. The mel projection stays one matrix product over all frames:
    BLAS can give a row different bits depending on how many rows the
    product has, so a blocked product could move a peak pick.
    """
    cfg = cfg or OnsetConfig()
    samples = audio.samples
    if len(samples) < cfg.frame_size:
        raise ValueError(f"audio shorter than one frame ({cfg.frame_size} samples)")
    nyquist = audio.sample_rate / 2.0
    if cfg.fmin_hz >= nyquist:
        raise ValueError(
            f"onsets.fmin_hz ({cfg.fmin_hz:g} Hz) must be below the audio's "
            f"Nyquist frequency ({nyquist:g} Hz)"
        )
    left = cfg.frame_size - cfg.hop_size
    padded = np.concatenate([np.zeros(left), samples, np.zeros(cfg.hop_size)])
    n_frames = 1 + (len(padded) - cfg.frame_size) // cfg.hop_size
    window = np.hanning(cfg.frame_size)
    frames = np.lib.stride_tricks.sliding_window_view(padded, cfg.frame_size)[
        :: cfg.hop_size
    ][:n_frames]
    spectra = np.empty((n_frames, cfg.frame_size // 2 + 1))
    for start in range(0, n_frames, _MAGNITUDE_BLOCK_FRAMES):
        block = slice(start, start + _MAGNITUDE_BLOCK_FRAMES)
        np.abs(np.fft.rfft(frames[block] * window, axis=1), out=spectra[block])
    mel = spectra @ _mel_filterbank(audio.sample_rate, cfg.frame_size, cfg).T
    # floor relative to the signal peak: spectral-leakage bins oscillate by
    # orders of magnitude and would otherwise dominate the log-scale flux
    floor = mel.max() * 1e-4
    log_mel = np.log1p(cfg.log_compression * (mel + floor))
    flux = np.maximum(np.diff(log_mel, axis=0), 0.0).sum(axis=1)
    return np.concatenate(([0.0], flux))


def _clipped_moving_mean(x: np.ndarray, before: int, after: int) -> np.ndarray:
    """Mean of x over [t - before, t + after], clipped at the array edges."""
    cumulative = np.concatenate(([0.0], np.cumsum(x)))
    n = len(x)
    lo = np.maximum(np.arange(n) - before, 0)
    hi = np.minimum(np.arange(n) + after + 1, n)
    return (cumulative[hi] - cumulative[lo]) / (hi - lo)


def pick_peaks(
    envelope: np.ndarray, sample_rate: int, cfg: OnsetConfig | None = None
) -> StrumSequence:
    """Select onset times from an onset-strength envelope.

    A frame is an onset when it is the maximum of its local window, exceeds
    the local moving average by delta, and arrives at least min_gap_sec
    after the previously accepted onset.
    """
    cfg = cfg or OnsetConfig()
    envelope = np.asarray(envelope, dtype=float)
    if envelope.size == 0:
        return StrumSequence(())
    size = cfg.pre_max + cfg.post_max + 1
    local_max = scipy.ndimage.maximum_filter1d(
        envelope,
        size=size,
        origin=size // 2 - cfg.pre_max,
        mode="constant",
        cval=-np.inf,
    )
    local_mean = _clipped_moving_mean(envelope, cfg.pre_avg, cfg.post_avg)
    candidates = np.flatnonzero((envelope >= local_max) & (envelope >= local_mean + cfg.delta))
    gap_frames = cfg.min_gap_sec * sample_rate / cfg.hop_size
    picked: list[int] = []
    for frame in candidates:
        if not picked or frame - picked[-1] >= gap_frames:
            picked.append(int(frame))
    return StrumSequence(tuple(frame * cfg.hop_size / sample_rate for frame in picked))


def detect_onsets(audio: AudioBuffer, cfg: OnsetConfig | None = None) -> StrumSequence:
    """Full pipeline: envelope plus peak picking."""
    cfg = cfg or OnsetConfig()
    return pick_peaks(onset_strength(audio, cfg), audio.sample_rate, cfg)


def tune_peak_picking(
    labeled: Sequence[tuple[AudioBuffer, Sequence[float]]],
    n_trials: int = 100,
    seed: int = 0,
    tolerance_sec: float = 0.05,
    base: OnsetConfig | None = None,
) -> OnsetConfig:
    """Random-search the peak-picking parameters (delta, windows, gap) to
    maximize mean onset F1 over a labeled set. Envelope parameters stay
    fixed, so envelopes are computed once."""
    from .metrics import match_events

    base = base or OnsetConfig()
    rng = np.random.default_rng(seed)
    envelopes = [(onset_strength(audio, base), audio.sample_rate, ref) for audio, ref in labeled]

    def score(cfg: OnsetConfig) -> float:
        f1s = []
        for envelope, sample_rate, reference in envelopes:
            detected = pick_peaks(envelope, sample_rate, cfg)
            f1s.append(match_events(sorted(reference), detected.times_sec, tolerance_sec).f1)
        return float(np.mean(f1s)) if f1s else 0.0

    best_cfg, best_f1 = base, score(base)
    for _ in range(n_trials):
        trial = dataclasses.replace(
            base,
            delta=float(10.0 ** rng.uniform(-2.0, 1.5)),
            pre_max=int(rng.integers(1, 10)),
            post_max=int(rng.integers(1, 10)),
            pre_avg=int(rng.integers(1, 25)),
            post_avg=int(rng.integers(1, 25)),
            min_gap_sec=float(rng.uniform(0.01, 0.12)),
        )
        f1 = score(trial)
        if f1 > best_f1:
            best_cfg, best_f1 = trial, f1
    return best_cfg
