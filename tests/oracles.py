"""Independent brute-force oracles the fast implementations are checked against.

Everything here shares no code path with the library internals it verifies:
exhaustive recursion and naive arithmetic in plain Python, plus the dense
numpy emission tables that the library's onset-alphabet lookup must
reproduce bit for bit, the whole-array onset envelope that the library's
blocked STFT must reproduce bit for bit, and the scipy peak-picking window
and WAV reader that the library's numpy-only ones replace.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.ndimage
from scipy.io import wavfile

from strumscribe.onsets import AudioBuffer, OnsetConfig, _mel_filterbank


def nearest_sq(x, ys):
    return min((x - y) ** 2 for y in ys)


def two_way_mismatch(observed, onsets):
    """Naive evaluation of the two-way mismatch sum."""
    if not observed and not onsets:
        return 0.0
    return sum(nearest_sq(s, onsets) for s in observed) + sum(
        nearest_sq(r, observed) for r in onsets
    )


def half_cost(observed, onsets, cfg):
    """Per-measure emission contribution, or None when forbidden."""
    if not observed and not onsets:
        return 0.0
    if not observed or not onsets:
        return None
    return two_way_mismatch(observed, onsets) / (2.0 * cfg.timing_sigma**2)


def transition(prev, cur, cfg):
    if prev.id == cur.id:
        return 0.0
    if prev.time_signature == cur.time_signature:
        return cfg.pattern_change_penalty
    return cfg.pattern_change_penalty + cfg.timesig_change_penalty


def dense_contribution_tables(measures, vocab, cfg):
    """Reference emission tables from one dense pattern x strum x onset
    distance block per measure. The library's alphabet lookup must match
    these tables bit for bit (`tobytes()` equality), not just to a tolerance.
    """
    patterns = vocab.patterns
    n_measures, n_patterns = len(measures), len(patterns)
    denom = 2.0 * cfg.timing_sigma * cfg.timing_sigma

    tables = []
    for half in (0, 1):
        halves = [p.onsets[half] if half < p.measures else None for p in patterns]
        lengths = np.array([-1 if h is None else len(h) for h in halves])
        max_len = max(1, int(lengths.max(initial=0)))
        onset_grid = np.full((n_patterns, max_len), np.nan)
        for i, h in enumerate(halves):
            if h:
                onset_grid[i, : len(h)] = h
        pad = np.arange(max_len)[None, :] >= lengths[:, None]

        table = np.full((n_measures, n_patterns), np.inf)
        has_onsets = lengths > 0
        silent_half = lengths == 0
        for m, strums in enumerate(measures):
            s = np.asarray(strums.positions)
            if s.size == 0:
                table[m, silent_half] = 0.0
                continue
            distances = np.abs(s[None, :, None] - onset_grid[:, None, :])
            distances[np.broadcast_to(pad[:, None, :], distances.shape)] = np.inf
            to_pattern = distances.min(axis=2)
            from_pattern = np.where(pad, 0.0, distances.min(axis=1))
            mismatch = np.sum(to_pattern**2, axis=1) + np.sum(from_pattern**2, axis=1)
            table[m, has_onsets] = mismatch[has_onsets] / denom
        tables.append(table)
    return tables[0], tables[1]


def dense_onset_strength(audio, cfg=None):
    """Reference onset envelope from one whole-song windowed copy, complex
    spectrum and magnitude matrix. The library's blocked magnitudes must
    give this envelope bit for bit (`tobytes()` equality). Only the mel
    filterbank is shared with the library."""
    cfg = cfg or OnsetConfig()
    samples = audio.samples
    if len(samples) < cfg.frame_size:
        raise ValueError(f"audio shorter than one frame ({cfg.frame_size} samples)")
    left = cfg.frame_size - cfg.hop_size
    padded = np.concatenate([np.zeros(left), samples, np.zeros(cfg.hop_size)])
    n_frames = 1 + (len(padded) - cfg.frame_size) // cfg.hop_size
    window = np.hanning(cfg.frame_size)
    frames = np.lib.stride_tricks.sliding_window_view(padded, cfg.frame_size)[
        :: cfg.hop_size
    ][:n_frames]
    spectra = np.abs(np.fft.rfft(frames * window, axis=1))
    mel = spectra @ _mel_filterbank(audio.sample_rate, cfg.frame_size, cfg).T
    # floor relative to the signal peak: spectral-leakage bins oscillate by
    # orders of magnitude and would otherwise dominate the log-scale flux
    floor = mel.max() * 1e-4
    log_mel = np.log1p(cfg.log_compression * (mel + floor))
    flux = np.maximum(np.diff(log_mel, axis=0), 0.0).sum(axis=1)
    return np.concatenate(([0.0], flux))


def scipy_local_max(envelope, pre_max, post_max):
    """pick_peaks' local-max window as scipy.ndimage computed it before the
    library moved to a numpy-only sliding-window max."""
    size = pre_max + post_max + 1
    return scipy.ndimage.maximum_filter1d(
        envelope,
        size=size,
        origin=size // 2 - pre_max,
        mode="constant",
        cval=-np.inf,
    )


def scipy_read_wav(path):
    """load_wav as it was when it read through scipy.io.wavfile. The
    library's own RIFF reader must accept exactly the files this accepts
    and give the same samples bit for bit."""
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


def enumerate_decode(measures, vocab, cfg):
    """Exhaustive search over all pattern tilings.

    Returns (total_cost, [(pattern_id, phase), ...]) for the tiling that is
    minimal under (cost, number of pattern changes, lexicographic per-measure
    index sequence) -- the decoder's documented tie-break. Costs accumulate
    in measure order with the transition added before each instance's
    emissions, mirroring the decoder's summation order so that exact ties
    compare identically. Returns None when no tiling is feasible.
    """
    positions = [list(m.positions) for m in measures]
    n = len(positions)
    patterns = list(vocab.patterns)
    best: list = [None]  # [(cost, switches, index_seq, labels)]

    def recurse(m, prev, cum, switches, index_seq, labels):
        if best[0] is not None and cum > best[0][0]:
            return
        if m == n:
            key = (cum, switches, tuple(index_seq))
            if best[0] is None or key < best[0][:3]:
                best[0] = (cum, switches, tuple(index_seq), list(labels))
            return
        for idx, pattern in enumerate(patterns):
            if m + pattern.measures > n:
                continue
            cost = cum
            if prev is not None:
                cost = cost + transition(prev, pattern, cfg)
            step_switches = switches + (1 if prev is not None and prev.id != pattern.id else 0)
            feasible = True
            for phase in range(pattern.measures):
                contribution = half_cost(positions[m + phase], list(pattern.onsets[phase]), cfg)
                if contribution is None:
                    feasible = False
                    break
                cost = cost + contribution
            if not feasible:
                continue
            index_seq.extend([idx] * pattern.measures)
            labels.extend((pattern.id, phase) for phase in range(pattern.measures))
            recurse(m + pattern.measures, pattern, cost, step_switches, index_seq, labels)
            del index_seq[-pattern.measures :]
            del labels[-pattern.measures :]

    recurse(0, None, 0.0, 0, [], [])
    if best[0] is None:
        return None
    return best[0][0], best[0][3]


def brute_max_matching(reference, estimate, tolerance):
    """Maximum one-to-one matching size by exhaustive search."""
    reference = tuple(reference)
    estimate = tuple(estimate)

    @lru_cache(maxsize=None)
    def recurse(i, used):
        if i == len(reference):
            return 0
        size = recurse(i + 1, used)
        for j, e in enumerate(estimate):
            if not used & (1 << j) and abs(reference[i] - e) <= tolerance:
                size = max(size, 1 + recurse(i + 1, used | (1 << j)))
        return size

    return recurse(0, 0)


def brute_barline_cost(times, cfg, free_band=0.05):
    """Minimum cleanup cost by enumerating every keep-subset and factor
    assignment, scoring the resulting measure-length sequence directly."""
    times = list(times)
    n = len(times)
    best = [float("inf")]

    def span_cost(j, i, k):
        a, b = times[j], times[i]
        deleted = sum(
            1
            for e in times[j + 1 : i]
            if abs(e - a) > cfg.snap_tolerance_sec and abs(e - b) > cfg.snap_tolerance_sec
        )
        return deleted, [(b - a) / k] * k

    def recurse(j, lengths, deleted, inserted):
        if j == n - 1:
            cost = cfg.deletion_penalty * deleted + cfg.insertion_penalty * inserted
            for prev, cur in zip(lengths, lengths[1:]):
                cost += cfg.tempo_change_penalty * max(0.0, abs(cur - prev) / prev - free_band)
            best[0] = min(best[0], cost)
            return
        for i in range(j + 1, min(j + cfg.lookahead, n - 1) + 1):
            for k in cfg.subdivision_factors:
                extra_deleted, extra_lengths = span_cost(j, i, k)
                recurse(i, lengths + extra_lengths, deleted + extra_deleted, inserted + k - 1)

    recurse(0, [], 0, 0)
    return best[0]
