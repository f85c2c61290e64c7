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
import sys
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .timeline import StrumSequence


@dataclass(frozen=True, init=False, eq=False)
class AudioBuffer:
    """Audio whose signal is pcm / full_scale, channels averaged.

    `pcm` holds the samples as stored: int16, int32 or float, one column
    per channel when there is more than one. `load_wav` keeps a file's
    samples this way, as a view into the file's bytes, and `samples`
    builds the float64 mono signal in [-1, 1] on demand, so a loaded song
    is held once, as its PCM. `AudioBuffer(samples, sample_rate)` takes
    that mono signal itself, with full scale 1.0.
    """

    pcm: np.ndarray
    full_scale: float
    sample_rate: int

    def __init__(self, samples, sample_rate: int) -> None:
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1:
            raise ValueError("samples must be mono (1-D)")
        self._store(samples, 1.0, sample_rate)

    @classmethod
    def _from_pcm(cls, pcm: np.ndarray, full_scale: float, sample_rate: int) -> AudioBuffer:
        audio = cls.__new__(cls)
        audio._store(pcm, full_scale, sample_rate)
        return audio

    def _store(self, pcm: np.ndarray, full_scale: float, sample_rate: int) -> None:
        if sample_rate <= 0:
            raise ValueError("sample rate must be > 0")
        # integer PCM is finite by construction
        if pcm.dtype.kind == "f" and not np.all(np.isfinite(pcm)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "pcm", pcm)
        object.__setattr__(self, "full_scale", full_scale)
        object.__setattr__(self, "sample_rate", sample_rate)

    @property
    def samples(self) -> np.ndarray:
        """The float64 mono signal, built anew on each access."""
        signal = np.empty(len(self.pcm))
        self._signal_into(0, len(self.pcm), signal)
        return signal

    def _signal_into(self, lo: int, hi: int, out: np.ndarray,
                     channels: np.ndarray | None = None) -> None:
        """Write the signal of samples lo .. hi - 1 into out, through the
        float64 frames x channels buffer `channels` when there is more than
        one channel (a new array when it is None)."""
        pcm = self.pcm[lo:hi]
        if pcm.ndim == 1:
            np.divide(pcm, self.full_scale, out=out)
        else:
            scaled = np.divide(pcm, self.full_scale,
                               out=None if channels is None else channels[: hi - lo])
            np.mean(scaled, axis=1, out=out)


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


def _read_data_chunk(fp: io.BytesIO, content: bytes, fmt: tuple,
                     rf64_size: int | None) -> np.ndarray:
    """The chunk's samples as stored, frames x channels when multichannel,
    read from fp, the stream over `content`. Samples of 1, 2, 4 or 8 bytes
    are a read-only view into `content`; integer samples of 3, 5, 6 or 7
    bytes are left-justified into a new int32 or int64 array. 8-bit and
    smaller PCM is unsigned. The stream resumes after the whole samples
    read and the chunk's pad byte."""
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
        length = size // width * dtype.itemsize
        if length > sys.maxsize:
            raise ValueError(f"data chunk of {size} bytes is too long to read")
        start = min(fp.tell(), len(content))
        length = min(length, len(content) - start)
        data = np.frombuffer(content, dtype, count=length // dtype.itemsize, offset=start)
        fp.seek(start + length)
    fp.seek(size % 2, io.SEEK_CUR)
    return data.reshape(-1, channels) if channels > 1 else data


def _read_wav(content: bytes) -> tuple[int, np.ndarray]:
    """Sample rate and samples of a little-endian RIFF or RF64 WAV file's
    bytes.

    Chunks are read in file order: the last fmt and data chunks win, other
    chunks are skipped over their pad byte, and a file cut short after a
    data chunk keeps the samples read.
    """
    fp = io.BytesIO(content)
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
            data = _read_data_chunk(fp, content, fmt, rf64_size)
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


# the value that maps a stored sample dtype to [-1, 1]
_FULL_SCALE = {"<i2": 32768.0, "<i4": 2147483648.0, "<f4": 1.0, "<f8": 1.0}


def load_wav(path: str) -> AudioBuffer:
    """Read a WAV file as audio whose `samples` are mono in [-1, 1].

    The buffer holds the file's samples as stored, a view into the file's
    bytes, so a loaded song costs about the file's size; the float64
    signal is built only on request. Accepted: little-endian RIFF (or RF64)
    WAV with a plain or WAVE_FORMAT_EXTENSIBLE header and any channel count
    (mixed down by averaging), holding integer PCM in 2-, 3- or 4-byte
    samples or IEEE float in 4- or 8-byte samples. WAV keeps samples
    left-justified in their container and 3-byte samples are widened to 32
    bits at the left (into a new array), so a 12-bit or 20-bit file scales
    to [-1, 1] too. Rejected: 8-bit and 64-bit PCM, compressed formats and
    big-endian RIFX. A file that cannot be opened raises OSError; any other
    failure raises ValueError naming the file.
    """
    # read from memory: a header can claim a chunk far longer than the file,
    # and a read from memory returns what there is without allocating more
    with open(path, "rb") as fp:
        content = fp.read()
    try:
        sample_rate, data = _read_wav(content)
        full_scale = _FULL_SCALE.get(data.dtype.str)
        if full_scale is None:
            raise ValueError(f"unsupported sample format {data.dtype}")
        return AudioBuffer._from_pcm(data, full_scale, int(sample_rate))
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


# frames per block of STFT magnitudes and of flux, and rows per mel
# product, in onset_strength
_MAGNITUDE_BLOCK_FRAMES = 256
# mel products are blocked only for a band count that is a multiple of this.
# On OpenBLAS 0.3.31 (Haswell kernels), 256-row products gave the bits of
# the whole-song product for every multiple of 8 bands tried, and other
# bits for 1-4 bands and for every count above 192 that is not a multiple
# of 8, at most song lengths
_BLAS_TILE_COLUMNS = 8


def _frames(audio: AudioBuffer, first: int, count: int, frame: int, hop: int,
            signal: np.ndarray, channels: np.ndarray | None) -> np.ndarray:
    """Analysis frames first .. first + count - 1 as rows of a strided view
    into `signal`, which is filled with the audio's signal over the span
    they cover, zero where it runs past either end. `channels` is the
    scratch buffer of AudioBuffer._signal_into."""
    lo = first * hop - (frame - hop)
    span = signal[: (count - 1) * hop + frame]
    inside = slice(max(lo, 0), min(lo + len(span), len(audio.pcm)))
    span[: inside.start - lo] = 0.0
    span[inside.stop - lo :] = 0.0
    audio._signal_into(inside.start, inside.stop, span[inside.start - lo : inside.stop - lo],
                       channels)
    return np.lib.stride_tricks.sliding_window_view(span, frame)[::hop]


def onset_strength(audio: AudioBuffer, cfg: OnsetConfig | None = None) -> np.ndarray:
    """Per-frame onset-strength envelope (non-negative, first frame 0).

    Frame t is timestamped by the newest hop it covers: its analysis window
    spans [t*hop - (frame - hop), t*hop + hop). Energy arriving during hop t
    therefore raises the envelope at index t, which keeps attack times
    aligned with the t*hop/sample_rate convention used by pick_peaks.

    The envelope is bit for bit the one from a single whole-song
    spectrogram and one whole-song mel product of `audio.samples`, without
    any of the three existing. STFT magnitudes are taken
    _MAGNITUDE_BLOCK_FRAMES frames at a time. Each block's span of samples
    is converted from the stored PCM into one float64 buffer made once per
    call (pcm / full_scale, then the mean over channels: per sample the
    operations that build `audio.samples`) and zero-filled past either end;
    windowing, rfft along a row and abs act on one frame alone, so any
    blocking gives the same magnitudes. BLAS can give a row of a product
    different bits depending on how many rows the product has, so every mel
    product has the same row count, min(n_frames, _MAGNITUDE_BLOCK_FRAMES):
    the last block is the song's final frames and recomputes, with the same
    values, the rows it shares with the block before it. For some band
    counts the bits also depend on the whole song's row count, so unless
    n_mels is a multiple of _BLAS_TILE_COLUMNS the projection stays one
    product over all frames. The log compression works in place on the mel
    matrix, and the flux of each block of frames is summed straight into
    the envelope, one row per frame as in a whole-song sum.

    Live at once, besides the caller's PCM: the n_frames x n_mels mel
    matrix, and either the magnitudes of one product's rows, one block's
    float64 span of samples (with its frames x channels copy when there is
    more than one channel), windowed frames and complex spectrum, or the
    envelope and one block's flux. No float64 copy of the song is made,
    and with a band count that is a multiple of _BLAS_TILE_COLUMNS no array
    scales as frames x frequency bins.
    """
    cfg = cfg or OnsetConfig()
    frame, hop = cfg.frame_size, cfg.hop_size
    n_samples = len(audio.pcm)
    if n_samples < frame:
        raise ValueError(f"audio shorter than one frame ({frame} samples)")
    nyquist = audio.sample_rate / 2.0
    if cfg.fmin_hz >= nyquist:
        raise ValueError(
            f"onsets.fmin_hz ({cfg.fmin_hz:g} Hz) must be below the audio's "
            f"Nyquist frequency ({nyquist:g} Hz)"
        )
    n_frames = 1 + n_samples // hop
    if cfg.n_mels % _BLAS_TILE_COLUMNS:
        rows = n_frames
    else:
        rows = min(n_frames, _MAGNITUDE_BLOCK_FRAMES)
    block = min(rows, _MAGNITUDE_BLOCK_FRAMES)
    window = np.hanning(frame)
    bank_t = _mel_filterbank(audio.sample_rate, frame, cfg).T
    signal = np.empty((block - 1) * hop + frame)
    channels = None if audio.pcm.ndim == 1 else np.empty((len(signal), audio.pcm.shape[1]))
    magnitudes = np.empty((rows, frame // 2 + 1))
    mel = np.empty((n_frames, cfg.n_mels))
    for start in (*range(0, n_frames - rows, rows), n_frames - rows):
        for sub in range(0, rows, block):
            count = min(block, rows - sub)
            frames = _frames(audio, start + sub, count, frame, hop, signal, channels)
            np.abs(np.fft.rfft(frames * window, axis=1), out=magnitudes[sub : sub + count])
        np.matmul(magnitudes, bank_t, out=mel[start : start + rows])
    del signal, channels, magnitudes
    # floor relative to the signal peak: spectral-leakage bins oscillate by
    # orders of magnitude and would otherwise dominate the log-scale flux
    floor = mel.max() * 1e-4
    mel += floor
    mel *= cfg.log_compression
    np.log1p(mel, out=mel)
    envelope = np.zeros(n_frames)
    flux = np.empty((min(n_frames - 1, _MAGNITUDE_BLOCK_FRAMES), cfg.n_mels))
    for lo in range(1, n_frames, len(flux)):
        hi = min(lo + len(flux), n_frames)
        diff = flux[: hi - lo]
        np.subtract(mel[lo:hi], mel[lo - 1 : hi - 1], out=diff)
        np.maximum(diff, 0.0, out=diff)
        diff.sum(axis=1, out=envelope[lo:hi])
    return envelope


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

