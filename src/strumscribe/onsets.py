"""Baseline strum-onset detector for isolated-guitar audio.

Classic spectral-flux recipe: short-time Fourier magnitudes are pooled into
mel bands, log-compressed, and differenced over time; the positive part
summed across bands is the onset-strength envelope. Onsets are picked as
local envelope maxima that clear a moving-average threshold and respect a
minimum inter-onset gap. This targets isolated or well-separated guitar
recordings; it makes no attempt at polyphonic mixtures.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

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
    trains.
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
        if not self.min_gap_sec >= 0:  # NaN compares false
            raise ValueError(f"min_gap_sec must be >= 0, got {self.min_gap_sec}")
        for name in ("delta", "log_compression"):
            if np.isnan(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got nan")
        if not 0 < self.fmin_hz < self.fmax_hz:
            raise ValueError("need 0 < fmin_hz < fmax_hz")


# WAVE format tags: integer PCM, IEEE float, and WAVE_FORMAT_EXTENSIBLE,
# whose sub-format GUID ends in _GUID_TAIL and starts with one of the others
_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _unpack(fp: BinaryIO, fmt: str) -> tuple:
    size = struct.calcsize(fmt)
    raw = fp.read(size)
    if len(raw) != size:
        raise ValueError("unexpected end of file")
    return struct.unpack(fmt, raw)


def _read_fmt_chunk(fp: BinaryIO) -> tuple[int, int, int, int, int]:
    """(format tag, channels, sample rate, block align, bits per sample)."""
    (size,) = _unpack(fp, "<I")
    if size < 16:
        raise ValueError(f"fmt chunk of {size} bytes is shorter than 16")
    tag, channels, rate, byte_rate, block_align, bits = _unpack(fp, "<HHIIHH")
    consumed = 16
    if tag == _EXTENSIBLE and size >= 18:
        (extension_size,) = _unpack(fp, "<H")
        if extension_size < 22:
            raise ValueError("WAVE_FORMAT_EXTENSIBLE extension is shorter than 22 bytes")
        guid = fp.read(22)[6:]
        consumed += 24
        if guid.endswith(_GUID_TAIL):
            (tag,) = struct.unpack("<I", guid[:4])
    if tag not in (_PCM, _IEEE_FLOAT):
        raise ValueError(f"unsupported WAV format tag {tag:#06x}")
    if size > consumed:
        fp.read(size - consumed)
    fp.seek(size % 2, io.SEEK_CUR)
    if tag == _PCM and byte_rate != rate * block_align:
        raise ValueError(
            f"byte rate {byte_rate} is not sample rate {rate} times block align {block_align}"
        )
    return tag, channels, rate, block_align, bits


def _read_data_chunk(fp: BinaryIO, fmt: tuple, rf64_size: int | None) -> np.ndarray:
    """The chunk's samples as stored, frames x channels when multichannel.
    Integer samples of 3, 5, 6 or 7 bytes are left-justified into int32 or
    int64; 8-bit and smaller PCM is unsigned."""
    tag, channels, _, block_align, bits = fmt
    if rf64_size is None:
        (size,) = _unpack(fp, "<I")
    else:
        size = rf64_size
        fp.read(4)
    if channels == 0 or block_align < channels:
        raise ValueError(f"block align {block_align} leaves no bytes per sample "
                         f"for {channels} channel(s)")
    width = block_align // channels
    if tag == _PCM and width in (3, 5, 6, 7) and not 1 <= bits <= 8:
        raw = fp.read(size)
        if len(raw) % width:
            raise ValueError(f"data chunk is not a whole number of {width}-byte samples")
        itemsize = 4 if width == 3 else 8
        wide = np.zeros((len(raw) // width, itemsize), np.uint8)
        wide[:, itemsize - width :] = np.frombuffer(raw, np.uint8).reshape(-1, width)
        data = wide.view(f"<i{itemsize}").reshape(-1)
    else:
        if tag == _PCM and 1 <= bits <= 8:
            name = "u1"
        elif tag == _PCM and bits <= 64:
            name = f"<i{width}"
        elif tag == _IEEE_FLOAT and bits in (32, 64):
            name = f"<f{width}"
        else:
            raise ValueError(f"unsupported bit depth {bits}")
        try:
            dtype = np.dtype(name)
        except TypeError:
            raise ValueError(f"unsupported {width}-byte sample width") from None
        raw = fp.read(size // width * dtype.itemsize)
        data = np.frombuffer(raw, dtype, count=len(raw) // dtype.itemsize)
    fp.seek(size % 2, io.SEEK_CUR)
    return data.reshape(-1, channels) if channels > 1 else data


def _read_wav(fp: BinaryIO) -> tuple[int, np.ndarray]:
    """Sample rate and samples of a little-endian RIFF or RF64 WAV stream.

    Chunks are read in file order: the last fmt and data chunks win, other
    chunks are skipped over their pad byte, and a file cut short after a
    data chunk keeps the samples read.
    """
    signature = fp.read(4)
    rf64_size = None
    if signature == b"RIFF":
        (riff_size,) = _unpack(fp, "<I")
        form = fp.read(4)
    elif signature == b"RF64":
        # the RIFF and data sizes are 64-bit fields of a ds64 chunk
        fp.read(4)
        form = fp.read(4)
        if fp.read(4) != b"ds64":
            raise ValueError("RF64 file has no ds64 chunk")
        ds64_size, riff_size, rf64_size = _unpack(fp, "<IQQ")
        fp.seek(ds64_size - 16, io.SEEK_CUR)
    elif signature == b"RIFX":
        raise ValueError("big-endian RIFX files are not supported")
    else:
        raise ValueError(f"not a RIFF file (starts with {signature!r})")
    if form != b"WAVE":
        raise ValueError(f"RIFF form type is {form!r}, not b'WAVE'")
    fmt = data = None
    while fp.tell() < riff_size + 8:
        chunk_id = fp.read(4)
        if len(chunk_id) < 4:
            if data is None:
                raise ValueError("file ends before a data chunk")
            break
        if chunk_id == b"fmt ":
            fmt = _read_fmt_chunk(fp)
        elif chunk_id == b"data":
            if fmt is None:
                raise ValueError("data chunk before the fmt chunk")
            data = _read_data_chunk(fp, fmt, rf64_size)
        else:
            size_field = fp.read(4)
            if len(size_field) == 4:
                (size,) = struct.unpack("<I", size_field)
                fp.seek(size + size % 2, io.SEEK_CUR)
            elif size_field:
                raise ValueError("unexpected end of file")
    if data is None:
        raise ValueError("no data chunk")
    return fmt[2], data


def load_wav(path: str) -> AudioBuffer:
    """Read a WAV file as mono audio in [-1, 1].

    Accepted: little-endian RIFF (or RF64) WAV with a plain or
    WAVE_FORMAT_EXTENSIBLE header and any channel count (mixed down by
    averaging), holding integer PCM in 2-, 3- or 4-byte samples or IEEE
    float in 4- or 8-byte samples. WAV keeps samples left-justified in their
    container and 3-byte samples are widened to 32 bits at the left, so a
    12-bit or 20-bit file scales to [-1, 1] too. Rejected: 8-bit and 64-bit
    PCM, compressed formats and big-endian RIFX. A file that cannot be
    opened raises OSError; any other failure raises ValueError naming the
    file.
    """
    # read from memory: a header can claim a chunk far longer than the file,
    # and a read from memory returns what there is without allocating more
    with open(path, "rb") as fp:
        content = fp.read()
    try:
        sample_rate, data = _read_wav(io.BytesIO(content))
        if data.dtype == np.int16:
            samples = data / 32768.0
        elif data.dtype == np.int32:
            samples = data / 2147483648.0
        elif data.dtype in (np.float32, np.float64):
            samples = data.astype(float)
        else:
            raise ValueError(f"unsupported sample format {data.dtype}")
        if samples.ndim > 1:
            samples = samples.mean(axis=1)
        return AudioBuffer(samples, int(sample_rate))
    except (ValueError, OverflowError) as exc:
        # OverflowError: an RF64 data size too large to be a read length
        raise ValueError(f"cannot read WAV file {path!r}: {exc}") from None


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


# frames per block of STFT magnitudes, and rows per mel product, in
# onset_strength
_MAGNITUDE_BLOCK_FRAMES = 256
# mel products are blocked only for a band count that is a multiple of this.
# On OpenBLAS 0.3.31 (Haswell kernels), 256-row products gave the bits of
# the whole-song product for every multiple of 8 bands tried, and other
# bits for 1-4 bands and for every count above 192 that is not a multiple
# of 8, at most song lengths
_BLAS_TILE_COLUMNS = 8


def _frames(samples: np.ndarray, first: int, count: int, frame: int, hop: int) -> np.ndarray:
    """Analysis frames first .. first + count - 1 as rows of a strided view,
    zero-filled where they run past either end of the samples."""
    lo = first * hop - (frame - hop)
    span = (count - 1) * hop + frame
    if 0 <= lo and lo + span <= len(samples):
        chunk = samples[lo : lo + span]
    else:
        chunk = np.zeros(span)
        inside = slice(max(lo, 0), min(lo + span, len(samples)))
        chunk[inside.start - lo : inside.stop - lo] = samples[inside]
    return np.lib.stride_tricks.sliding_window_view(chunk, frame)[::hop]


def onset_strength(audio: AudioBuffer, cfg: OnsetConfig | None = None) -> np.ndarray:
    """Per-frame onset-strength envelope (non-negative, first frame 0).

    Frame t is timestamped by the newest hop it covers: its analysis window
    spans [t*hop - (frame - hop), t*hop + hop). Energy arriving during hop t
    therefore raises the envelope at index t, which keeps attack times
    aligned with the t*hop/sample_rate convention used by pick_peaks.

    The envelope is bit for bit the one from a single whole-song
    spectrogram and one whole-song mel product, without either existing.
    STFT magnitudes are taken _MAGNITUDE_BLOCK_FRAMES frames at a time, each
    block's frames cut from the samples (zero-filled past either end);
    windowing, rfft along a row and abs act on one frame alone, so any
    blocking gives the same magnitudes. BLAS can give a row of a product
    different bits depending on how many rows the product has, so every mel
    product has the same row count, min(n_frames, _MAGNITUDE_BLOCK_FRAMES):
    the last block is the song's final frames and recomputes, with the same
    values, the rows it shares with the block before it. For some band
    counts the bits also depend on the whole song's row count, so unless
    n_mels is a multiple of _BLAS_TILE_COLUMNS the projection stays one
    product over all frames. The log compression and the flux then work in
    place on the mel matrix and one difference buffer.

    Live at once, besides the caller's samples: the n_frames x n_mels mel
    matrix, the magnitudes of one product's rows, and either one block's
    frames, windowed frames and complex spectrum, or one (n_frames - 1) x
    n_mels difference buffer. With a band count that is a multiple of
    _BLAS_TILE_COLUMNS, no array scales as frames x frequency bins.
    """
    cfg = cfg or OnsetConfig()
    samples = audio.samples
    frame, hop = cfg.frame_size, cfg.hop_size
    if len(samples) < frame:
        raise ValueError(f"audio shorter than one frame ({frame} samples)")
    nyquist = audio.sample_rate / 2.0
    if cfg.fmin_hz >= nyquist:
        raise ValueError(
            f"onsets.fmin_hz ({cfg.fmin_hz:g} Hz) must be below the audio's "
            f"Nyquist frequency ({nyquist:g} Hz)"
        )
    n_frames = 1 + len(samples) // hop
    if cfg.n_mels % _BLAS_TILE_COLUMNS:
        rows = n_frames
    else:
        rows = min(n_frames, _MAGNITUDE_BLOCK_FRAMES)
    window = np.hanning(frame)
    bank_t = _mel_filterbank(audio.sample_rate, frame, cfg).T
    magnitudes = np.empty((rows, frame // 2 + 1))
    mel = np.empty((n_frames, cfg.n_mels))
    for start in (*range(0, n_frames - rows, rows), n_frames - rows):
        for sub in range(0, rows, _MAGNITUDE_BLOCK_FRAMES):
            count = min(_MAGNITUDE_BLOCK_FRAMES, rows - sub)
            frames = _frames(samples, start + sub, count, frame, hop)
            np.abs(np.fft.rfft(frames * window, axis=1), out=magnitudes[sub : sub + count])
        np.matmul(magnitudes, bank_t, out=mel[start : start + rows])
    # floor relative to the signal peak: spectral-leakage bins oscillate by
    # orders of magnitude and would otherwise dominate the log-scale flux
    floor = mel.max() * 1e-4
    mel += floor
    mel *= cfg.log_compression
    np.log1p(mel, out=mel)
    flux = np.subtract(mel[1:], mel[:-1])
    np.maximum(flux, 0.0, out=flux)
    return np.concatenate(([0.0], flux.sum(axis=1)))


def _clipped_moving_mean(x: np.ndarray, before: int, after: int) -> np.ndarray:
    """Mean of x over [t - before, t + after], clipped at the array edges."""
    cumulative = np.concatenate(([0.0], np.cumsum(x)))
    n = len(x)
    lo = np.maximum(np.arange(n) - before, 0)
    hi = np.minimum(np.arange(n) + after + 1, n)
    return (cumulative[hi] - cumulative[lo]) / (hi - lo)


def _window_max(x: np.ndarray, before: int, after: int) -> np.ndarray:
    """Max of x over [t - before, t + after], clipped at the array edges."""
    padded = np.concatenate((np.full(before, -np.inf), x, np.full(after, -np.inf)))
    return np.lib.stride_tricks.sliding_window_view(padded, before + after + 1).max(axis=1)


def pick_peaks(
    envelope: np.ndarray, sample_rate: int, cfg: OnsetConfig | None = None
) -> StrumSequence:
    """Select onset times from an onset-strength envelope.

    A frame t is an onset when it is the maximum of its local window
    [t - pre_max, t + post_max], exceeds the moving average over
    [t - pre_avg, t + post_avg] by delta, and arrives at least min_gap_sec
    after the previously accepted onset.
    """
    cfg = cfg or OnsetConfig()
    envelope = np.asarray(envelope, dtype=float)
    if envelope.size == 0:
        return StrumSequence(())
    local_max = _window_max(envelope, cfg.pre_max, cfg.post_max)
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

