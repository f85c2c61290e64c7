"""Independent brute-force oracles the fast implementations are checked against.

Everything here shares no code path with the library internals it verifies:
exhaustive recursion and naive arithmetic in plain Python, plus the dense
numpy emission tables that the library's onset-alphabet lookup must
reproduce bit for bit, the whole-song mono signal and onset envelope that
the library's span-by-span conversion and blocked STFT and mel products
must reproduce bit for bit, the lexsort
Viterbi pass that the library's per-group champion relaxation must
reproduce bit for bit, the scipy peak-picking window and WAV reader that
the library's numpy-only ones replace, the per-record transcription
reader whose errors the library's must keep word for word, the bar-line
DP on numpy scalars whose times and cost the library's DP on Python floats
must reproduce exactly (it shares only the span helpers), the strum
binning on numpy scalars whose positions and discarded count the
library's binning on Python floats must reproduce exactly, the
measure-length discontinuity rate on numpy arrays that the library's rate
on Python floats must reproduce exactly, the per-band
mel filter bank loop whose bank the library's one broadcast must
reproduce bit for bit (it shares only the Hz and mel conversions), and the indented `json.dump` transcription writer
whose bytes the library's writer must reproduce exactly.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from typing import Sequence

import numpy as np
import scipy.ndimage
from scipy.io import wavfile

from strumscribe.barlines import (
    DISCONTINUITY_THRESHOLD,
    PostprocConfig,
    span_deletions,
    tempo_step_cost,
)
from strumscribe.decoder import Transcription, TranscriptionEntry
from strumscribe.likelihood import DecoderConfig, contribution_tables
from strumscribe.onsets import AudioBuffer, OnsetConfig, _hz_to_mel, _mel_filterbank, _mel_to_hz
from strumscribe.timeline import BarlineTrack, MeasureStrums, StrumSequence
from strumscribe.vocabulary import TimeSignature, Vocabulary


def nearest_sq(x, ys):
    """The least squared distance from x to ys, squared as a product: `**`
    goes through libm's pow, which can round one ulp away from x * x."""
    return min((x - y) * (x - y) for y in ys)


def two_way_mismatch(observed, onsets):
    """Naive evaluation of the two-way mismatch sum: the strums' terms and
    the onsets' terms, each added left to right, then the two sums. That is
    the library's order for fewer than 8 terms a side; sum() would not do,
    as from Python 3.12 it compensates float sums."""
    if not observed and not onsets:
        return 0.0
    to_onsets = from_onsets = 0.0
    for s in observed:
        to_onsets += nearest_sq(s, onsets)
    for r in onsets:
        from_onsets += nearest_sq(r, observed)
    return to_onsets + from_onsets


def half_cost(observed, onsets, cfg):
    """Per-measure emission contribution, or None when forbidden."""
    if not observed and not onsets:
        return 0.0
    if not observed or not onsets:
        return None
    return two_way_mismatch(observed, onsets) / (2.0 * cfg.timing_sigma * cfg.timing_sigma)


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


def mono_signal(audio):
    """The float64 mono signal of an AudioBuffer, built whole: its samples
    as stored divided by their full scale into float64, then the mean over
    channels. These are the numpy operations the library applies to one
    span at a time, so its signal must give these bits exactly."""
    pcm = audio.pcm[:]
    signal = np.divide(pcm, audio.full_scale, out=np.empty(pcm.shape))
    return signal.mean(axis=1) if signal.ndim > 1 else signal


def dense_onset_strength(audio, cfg=None):
    """Reference onset envelope from one whole-song padded copy, windowed
    copy, complex spectrum and magnitude matrix, one mel product over all
    frames, and out-of-place log and flux. The library's blocked magnitudes
    and blocked mel products must give this envelope bit for bit
    (`tobytes()` equality). Only the mel filterbank is shared with the
    library."""
    cfg = cfg or OnsetConfig()
    samples = mono_signal(audio)
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


def looped_mel_filterbank(sample_rate, n_fft, cfg):
    """Triangular mel filters built one band at a time, shape
    (n_mels, n_fft // 2 + 1). The library's one broadcast over bands must
    give this bank bit for bit (`tobytes()` equality)."""
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


def indented_save_transcription(transcription, fp):
    """Reference transcription writer: CPython's indented `json.dump`. The
    library's writer must give the same text, character for character."""
    json.dump(transcription.to_dict(), fp, indent=2, sort_keys=True)
    fp.write("\n")


_ENTRY_FIELDS = {"index": int, "pattern_id": str, "phase": int, "time_signature": str}


def _entry_from_record(i, rec):
    where = f"transcription measures[{i}]"
    if not isinstance(rec, dict):
        raise ValueError(f"{where} must be an object, got {rec!r}")
    for key, kind in _ENTRY_FIELDS.items():
        if key not in rec:
            raise ValueError(f"{where} is missing {key!r}")
        if isinstance(rec[key], bool) or not isinstance(rec[key], kind):
            article = "an integer" if kind is int else "a string"
            raise ValueError(f"{where}.{key} must be {article}, got {rec[key]!r}")
    return TranscriptionEntry(
        measure_index=rec["index"],
        pattern_id=rec["pattern_id"],
        phase=rec["phase"],
        time_signature=TimeSignature.parse(rec["time_signature"]),
    )


def per_record_transcription_from_dict(payload):
    """Transcription.from_dict as it was when every record formatted its
    error prefix and parsed its time signature. The library's reader must
    accept exactly what this accepts, and fail with the same message."""
    if not isinstance(payload, dict) or set(payload) != {"total_cost", "measures"}:
        raise ValueError('transcription JSON needs exactly "total_cost" and "measures"')
    total_cost = payload["total_cost"]
    if isinstance(total_cost, bool) or not isinstance(total_cost, (int, float)):
        raise ValueError(f"transcription total_cost must be a number, got {total_cost!r}")
    try:
        total_cost = float(total_cost)
    except OverflowError:
        raise ValueError("transcription total_cost is out of range") from None
    records = payload["measures"]
    if not isinstance(records, list):
        raise ValueError(f"transcription measures must be a list, got {records!r}")
    return Transcription(tuple(_entry_from_record(i, rec) for i, rec in enumerate(records)),
                         total_cost)


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
    return AudioBuffer(samples, 1.0, int(sample_rate))


def enumerate_decode(measures, vocab, cfg):
    """Exhaustive search over all pattern tilings.

    Returns (total_cost, [(pattern_id, phase), ...]) for the tiling that is
    minimal under (cost, number of pattern changes, lexicographic per-measure
    index sequence). Its cost and change count are the decoder's; its last
    key is not: when two tilings tie on both, the decoder reads back from the
    last measure and prefers repeats (see the decoder module docstring), so
    the two can pick different tilings. Costs accumulate in measure order
    with the transition added before each instance's emissions, mirroring
    the decoder's summation order so that exact ties compare identically.
    Returns None when no tiling is feasible.
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


def _better(cost_a, sw_a, bit_a, idx_a, cost_b, sw_b, bit_b, idx_b):
    """Elementwise: does key A = (cost, switches, stay-bit, index) beat key B?"""
    cost_eq = cost_a == cost_b
    sw_eq = cost_eq & (sw_a == sw_b)
    bit_eq = sw_eq & (bit_a == bit_b)
    return (
        (cost_a < cost_b)
        | (cost_eq & (sw_a < sw_b))
        | (sw_eq & (bit_a < bit_b))
        | (bit_eq & (idx_a < idx_b))
    )


def _group_top2(cost, sw, members):
    """Best and runner-up of a group by (cost, switches, index); inf-padded."""
    order = members[np.lexsort((members, sw[members], cost[members]))]
    best = order[0]
    second = order[1] if len(order) > 1 else -1
    return best, second


def _relax_entry(prev_cost, prev_sw, sig_codes, pattern_index, c1, c2):
    """Best way to enter a new pattern instance, given the costs of ending
    the previous instance at the preceding measure.

    Exploits the transition structure (0 to repeat, c1 for a same-signature
    change, c1+c2 across signatures): only each signature group's two best
    end states and the two best groups overall can ever be optimal
    predecessors.
    """
    n = len(prev_cost)
    n_groups = int(sig_codes.max()) + 1
    group_best = np.full(n_groups, -1, dtype=np.int64)
    group_second = np.full(n_groups, -1, dtype=np.int64)
    for g in range(n_groups):
        members = np.flatnonzero(sig_codes == g)
        if members.size:
            group_best[g], group_second[g] = _group_top2(prev_cost, prev_sw, members)

    def stats(state_idx):
        valid = state_idx >= 0
        safe = np.where(valid, state_idx, 0)
        cost = np.where(valid, prev_cost[safe], np.inf)
        sw = np.where(valid, prev_sw[safe], 0)
        return cost, sw, np.where(valid, state_idx, -1)

    # champion group and runner-up group, ordered by their champions' keys
    gb_cost, gb_sw, gb_idx = stats(group_best)
    group_order = np.lexsort((gb_idx, gb_sw, gb_cost))
    top_g = group_order[0] if n_groups else -1
    next_g = group_order[1] if n_groups > 1 else -1

    # candidate 1: repeat the same pattern (no transition cost)
    best_cost = prev_cost.copy()
    best_sw = prev_sw.copy()
    best_bit = np.zeros(n, dtype=np.int64)
    best_prev = pattern_index.copy()

    # candidate 2: switch within the same signature group
    own_g = sig_codes
    champ = group_best[own_g]
    use_second = champ == pattern_index
    same_idx = np.where(use_second, group_second[own_g], champ)
    same_cost, same_sw, same_idx = stats(same_idx)
    cand_cost = same_cost + c1
    cand_sw = same_sw + 1
    take = _better(cand_cost, cand_sw, 1, same_idx, best_cost, best_sw, best_bit, best_prev)
    best_cost = np.where(take, cand_cost, best_cost)
    best_sw = np.where(take, cand_sw, best_sw)
    best_bit = np.where(take, 1, best_bit)
    best_prev = np.where(take, same_idx, best_prev)

    # candidate 3: switch across signature groups
    if n_groups > 1:
        other_g = np.where(own_g == top_g, next_g, top_g)
        other_idx = group_best[other_g]
        other_cost, other_sw, other_idx = stats(other_idx)
        cand_cost = other_cost + (c1 + c2)
        cand_sw = other_sw + 1
        take = _better(cand_cost, cand_sw, 1, other_idx, best_cost, best_sw, best_bit, best_prev)
        best_cost = np.where(take, cand_cost, best_cost)
        best_sw = np.where(take, cand_sw, best_sw)
        best_prev = np.where(take, other_idx, best_prev)

    return best_cost, best_sw, best_prev


def lexsort_decode(
    measures: Sequence[MeasureStrums],
    vocab: Vocabulary,
    cfg: DecoderConfig | None = None,
) -> Transcription:
    """`strumscribe.decode` as it was before its relaxation moved to
    per-group champion scalars: each measure lexsorts every signature group
    and compares full-width candidate keys. The library's decode must give
    the same transcription and a bit-identical total_cost."""
    cfg = cfg or DecoderConfig()
    n_measures = len(measures)
    if n_measures == 0:
        raise ValueError("cannot decode an empty measure list")
    patterns = vocab.patterns
    if not patterns:
        raise ValueError("cannot decode with an empty vocabulary")

    n = len(patterns)
    pattern_index = np.arange(n, dtype=np.int64)
    spans = np.array([p.measures for p in patterns], dtype=np.int64)
    sig_ids: dict[TimeSignature, int] = {}
    sig_codes = np.array(
        [sig_ids.setdefault(p.time_signature, len(sig_ids)) for p in patterns],
        dtype=np.int64,
    )
    is_one = spans == 1
    is_two = spans == 2
    first, narrow = contribution_tables(measures, vocab, cfg)
    # the library's second table holds the 2-measure patterns' columns
    # only; widened back, every other column is np.inf
    second = np.full(first.shape, np.inf)
    second[:, is_two] = narrow
    c1 = cfg.pattern_change_penalty
    c2 = cfg.timesig_change_penalty

    # end_cost/end_sw: best tiling of measures[0..m] whose last instance is
    # pattern p ending exactly at measure m, one row rolled forward per
    # measure; end_prev[m, p] keeps every row's backpointer for the backtrack
    end_cost = np.full(n, np.inf)
    end_sw = np.zeros(n, dtype=np.int64)
    end_prev = np.full((n_measures, n), -1, dtype=np.int32)
    start_before = None  # entry stats of the previous measure, for 2-measure spans

    for m in range(n_measures):
        if m == 0:
            s_cost = np.zeros(n)
            s_sw = np.zeros(n, dtype=np.int64)
            s_prev = np.full(n, -1, dtype=np.int64)
        else:
            s_cost, s_sw, s_prev = _relax_entry(end_cost, end_sw, sig_codes, pattern_index, c1, c2)
        cand = s_cost + first[m]
        end_cost[is_one] = cand[is_one]
        end_sw[is_one] = s_sw[is_one]
        end_prev[m, is_one] = s_prev[is_one]
        if m >= 1:
            p_cost, p_sw, p_prev = start_before
            cand2 = (p_cost + first[m - 1]) + second[m]
            end_cost[is_two] = cand2[is_two]
            end_sw[is_two] = p_sw[is_two]
            end_prev[m, is_two] = p_prev[is_two]
        start_before = (s_cost, s_sw, s_prev)

    if not np.isfinite(end_cost).any():
        raise ValueError("no feasible pattern assignment covers all measures")
    best = int(np.lexsort((pattern_index, end_sw, end_cost))[0])
    total_cost = float(end_cost[best])

    entries: list[TranscriptionEntry | None] = [None] * n_measures
    m, p = n_measures - 1, best
    while m >= 0:
        span = int(spans[p])
        start = m - span + 1
        pat = patterns[p]
        for phase in range(span):
            entries[start + phase] = TranscriptionEntry(
                start + phase, pat.id, phase, pat.time_signature
            )
        p_prev = int(end_prev[m, p])
        m, p = start - 1, p_prev
    return Transcription(tuple(entries), total_cost)  # type: ignore[arg-type]


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
    assignment, scoring the resulting measure-length sequence directly.

    A path is abandoned once its partial cost, summed in the complete
    cost's order with the counts so far, reaches the best complete cost:
    every term is >= 0, and float addition and multiplication by a
    nonnegative penalty are monotone, so no completion of that path costs
    less, and the minimum is the same float as with no path abandoned."""
    times = list(times)
    n = len(times)
    best = [float("inf")]

    def path_cost(lengths, deleted, inserted):
        cost = cfg.deletion_penalty * deleted + cfg.insertion_penalty * inserted
        for prev, cur in zip(lengths, lengths[1:]):
            cost += cfg.tempo_change_penalty * max(0.0, abs(cur - prev) / prev - free_band)
        return cost

    def span_cost(j, i, k):
        a, b = times[j], times[i]
        deleted = sum(
            1
            for e in times[j + 1 : i]
            if abs(e - a) > cfg.snap_tolerance_sec and abs(e - b) > cfg.snap_tolerance_sec
        )
        return deleted, [(b - a) / k] * k

    def recurse(j, lengths, deleted, inserted):
        cost = path_cost(lengths, deleted, inserted)
        if cost >= best[0]:
            return
        if j == n - 1:
            best[0] = min(best[0], cost)
            return
        for i in range(j + 1, min(j + cfg.lookahead, n - 1) + 1):
            for k in cfg.subdivision_factors:
                extra_deleted, extra_lengths = span_cost(j, i, k)
                recurse(i, lengths + extra_lengths, deleted + extra_deleted, inserted + k - 1)

    recurse(0, [], 0, 0)
    return best[0]


def numpy_postprocess_barlines_with_cost(
    raw: BarlineTrack, cfg: PostprocConfig | None = None
) -> tuple[BarlineTrack, float]:
    """postprocess_barlines_with_cost as it was when the DP ran on numpy
    float64 scalars. The library's DP on the track's own Python floats must
    give the same cleaned times and the same cost (`==`, ties included).

    The DP keeps one layer per estimate index i, mapping each incoming
    measure length to its best (cost, inserted, deleted) tuple, the parent
    (kept index, length) and the subdivision factor of the span ending at i.
    Lengths are carried as exact values, so only lengths reachable through
    some (previous kept, factor) choice ever appear. Ties keep the first
    candidate in layer order, then factor order.
    """
    cfg = cfg or PostprocConfig()
    times = np.asarray(raw.times_sec, dtype=float)
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


def numpy_bin_strums(strums: StrumSequence, bars: BarlineTrack) -> tuple[list[MeasureStrums], int]:
    """bin_strums as it was when it searched and divided on numpy float64
    scalars. The library's binning on the tracks' own Python floats must
    give the same positions and discarded count (`==`)."""
    times = np.asarray(bars.times_sec)
    durations = np.diff(times)
    per_measure: list[list[float]] = [[] for _ in range(bars.measure_count)]
    discarded = 0
    for t in strums.times_sec:
        m = int(np.searchsorted(times, t, side="right")) - 1
        if m < 0 or m >= bars.measure_count:
            discarded += 1
            continue
        position = (t - times[m]) / durations[m]
        # float rounding can push a strum just below a bar line onto 1.0
        if position >= 1.0:
            position = math.nextafter(1.0, 0.0)
        per_measure[m].append(float(position))
    return (
        [MeasureStrums(m, tuple(ps)) for m, ps in enumerate(per_measure)],
        discarded,
    )


def numpy_discontinuity_rate(bars: BarlineTrack) -> float:
    """discontinuity_rate as it was on numpy arrays. The library's rate on
    the track's own Python floats must equal it (`==`)."""
    lengths = np.diff(np.asarray(bars.times_sec))
    if len(lengths) < 2:
        return 0.0
    jumps = np.abs(np.diff(lengths)) / lengths[:-1]
    return float(np.count_nonzero(jumps > DISCONTINUITY_THRESHOLD)) / len(lengths)
