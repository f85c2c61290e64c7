"""Baseline strum-onset detector for isolated-guitar audio.

Classic spectral-flux recipe: short-time Fourier magnitudes are pooled into
mel bands, log-compressed, and differenced over time; the positive part
summed across bands is the onset-strength envelope. Onsets are picked as
local envelope maxima that clear a moving-average threshold and respect a
minimum inter-onset gap. This targets isolated or well-separated guitar
recordings; it makes no attempt at polyphonic mixtures.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
import sys
import weakref
from dataclasses import dataclass

from ._lazy import numpy as np
from .config import OnsetConfig
from .timeline import StrumSequence


@dataclass(frozen=True, eq=False)
class AudioBuffer:
    """Audio whose signal is pcm / full_scale, channels averaged.

    `pcm` holds the samples as stored, int16, int32 or float, one column
    per channel when there is more than one: an array, or for a file that
    `load_wav` read, the file's data chunk itself, whose slices are read
    when they are taken (see _StoredSamples). `onset_strength` converts
    one span of samples at a time into the float64 mono signal in
    [-1, 1], so a loaded song is never held in memory. A mono float
    signal `x` is `AudioBuffer(x, 1.0, sample_rate)`.
    """

    pcm: np.ndarray | _StoredSamples
    full_scale: float
    sample_rate: int

    def __post_init__(self) -> None:
        pcm = self.pcm
        if pcm.ndim not in (1, 2) or 0 in pcm.shape[1:]:
            raise ValueError("samples must be 1-D, or 2-D with one column per channel")
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be > 0")
        # integer PCM is finite by construction; float PCM is scanned a
        # block of rows at a time
        if pcm.dtype.kind == "f":
            step = max(1, _SCAN_SAMPLES // math.prod(pcm.shape[1:]))
            for lo in range(0, len(pcm), step):
                if not np.isfinite(pcm[lo : lo + step]).all():
                    raise ValueError("samples must be finite")

    def _signal_into(self, lo: int, hi: int, out: np.ndarray, channels: np.ndarray | None) -> None:
        """Write the signal of samples lo .. hi - 1 into out, through the
        float64 frames x channels buffer `channels` when there is more than
        one channel."""
        pcm = self.pcm[lo:hi]
        if pcm.ndim == 1:
            np.divide(pcm, self.full_scale, out=out)
        else:
            scaled = np.divide(pcm, self.full_scale, out=channels[: hi - lo])
            np.mean(scaled, axis=1, out=out)


# samples per block of the finite check of float PCM
_SCAN_SAMPLES = 1 << 16


# WAVE format tags: integer PCM, IEEE float, and WAVE_FORMAT_EXTENSIBLE,
# whose sub-format GUID ends in _GUID_TAIL and starts with one of the others
_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"

# The sample formats load_wav reads: (format tag, bytes per sample) -> the
# dtype they are read into (3-byte samples widened at the left), named so
# that importing this module loads no numpy, and the full scale of [-1, 1].
_SAMPLE_FORMATS = {
    (_PCM, 2): ("<i2", 32768.0),
    (_PCM, 3): ("<i4", 2147483648.0),
    (_PCM, 4): ("<i4", 2147483648.0),
    (_IEEE_FLOAT, 4): ("<f4", 1.0),
    (_IEEE_FLOAT, 8): ("<f8", 1.0),
}


def _mapped(nbytes: int):
    """A zeroed buffer of `nbytes` in an anonymous memory map of its own,
    unmapped once nothing refers to it.

    The one song-sized buffer, the mel matrix, comes from here and not from
    malloc. glibc serves such a block by mmap too, but freeing it raises
    malloc's mmap threshold to the block's size, so later song-sized
    blocks come from the heap, whose free top is given back only beyond
    twice that size: how much of the heap then stays resident hangs on
    what else the process allocated, and in which order (in a client that
    runs one song after another, even on when numpy was imported).
    """
    return mmap.mmap(-1, nbytes)


class _OpenFile:
    """The bytes of an open file, read by position.

    `len` is the file's size when it was opened, and `content[a:b]` reads
    the bytes a .. b - 1 (clipped to that size) with one pread, as the
    bytes of a buffer in memory would be sliced, except that a file that
    has since shrunk gives fewer. The file is closed when this view is
    collected.
    """

    def __init__(self, fp, size: int) -> None:
        self._fd = fp.fileno()
        self._size = size
        weakref.finalize(self, fp.close)

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, key: slice) -> bytes:
        start, stop, _ = key.indices(self._size)
        return os.pread(self._fd, max(stop - start, 0), start)


class _ShortRead(ValueError):
    """A WAV file turned out shorter than when it was loaded."""


class _StoredSamples:
    """A WAV data chunk's samples as stored, read as they are sliced.

    `samples[lo:hi]` reads rows lo .. hi - 1 from `content` (an _OpenFile,
    or the bytes of a file read whole) and returns them as an array of
    `dtype`, frames x channels when there is more than one channel; 3-byte
    samples are left-justified into int32 as they are read. `len`,
    `dtype`, `ndim` and `shape` are those of the whole chunk as an array.
    Slices are contiguous: a step is ignored.
    """

    def __init__(self, path: str, content, start: int, frames: int, dtype: str,
                 width: int, channels: int) -> None:
        self._path, self._content, self._start = path, content, start
        self._width, self._channels = width, channels
        self.dtype = np.dtype(dtype)
        self.shape = (frames, channels) if channels > 1 else (frames,)
        self.ndim = len(self.shape)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, rows: slice) -> np.ndarray:
        lo, hi, _ = rows.indices(len(self))
        row = self._width * self._channels
        at, size = self._start + lo * row, max(hi - lo, 0) * row
        raw = self._content[at : at + size]
        if len(raw) < size:
            raise _ShortRead(f"cannot read WAV file {self._path!r}: it is shorter than when it "
                             f"was loaded ({len(raw)} of {size} bytes at byte {at})")
        itemsize = self.dtype.itemsize
        if self._width == itemsize:
            data = np.frombuffer(raw, self.dtype)
        else:
            wide = np.zeros((size // self._width, itemsize), np.uint8)
            wide[:, itemsize - self._width :] = np.frombuffer(raw, np.uint8).reshape(-1, self._width)
            data = wide.view(self.dtype).reshape(-1)
        return data.reshape(-1, self._channels) if self._channels > 1 else data


def _unpack(fmt: str, content, offset: int) -> tuple:
    """struct.unpack of the bytes at `offset`, raising ValueError when the
    file ends first."""
    size = struct.calcsize(fmt)
    field = content[offset : offset + size]
    if len(field) < size:
        raise ValueError("unexpected end of file")
    return struct.unpack(fmt, field)


def _read_fmt_chunk(content, offset: int) -> tuple[tuple, int]:
    """(format tag, channels, sample rate, block align, bits per sample) of
    the fmt chunk whose size field is at `offset`, and the offset after it.

    The header reads 16 bytes after the size field, 40 when it reads a
    WAVE_FORMAT_EXTENSIBLE extension, even past a shorter chunk's end; the
    chunk resumes after the greater of that and its size, but not past the
    end of the file, and then after its pad byte."""
    (size,) = _unpack("<I", content, offset)
    if size < 16:
        raise ValueError(f"fmt chunk of {size} bytes is shorter than 16")
    tag, channels, rate, byte_rate, block_align, bits = _unpack("<HHIIHH", content, offset + 4)
    consumed = 16
    if tag == _EXTENSIBLE and size >= 18:
        (extension_size,) = _unpack("<H", content, offset + 20)
        if extension_size < 22:
            raise ValueError("WAVE_FORMAT_EXTENSIBLE extension is shorter than 22 bytes")
        guid = bytes(content[offset + 28 : offset + 44])
        consumed = 40
        if guid.endswith(_GUID_TAIL):
            (tag,) = struct.unpack("<I", guid[:4])
    if tag not in (_PCM, _IEEE_FLOAT):
        raise ValueError(f"unsupported WAV format tag {tag:#06x}")
    if tag == _PCM and byte_rate != rate * block_align:
        raise ValueError(
            f"byte rate {byte_rate} is not sample rate {rate} times block align {block_align}"
        )
    end = min(offset + 4 + max(size, consumed), len(content)) + size % 2
    return (tag, channels, rate, block_align, bits), end


def _read_data_chunk(content, offset: int, fmt: tuple,
                     rf64_size: int | None) -> tuple[tuple, int]:
    """The layout of the data chunk whose size field is at `offset`, and
    the offset after it.

    The layout is where the samples start, the frames they hold, their
    entry in _SAMPLE_FORMATS (None for a format load_wav rejects), their
    width in the file and the channel count. A chunk in a format that
    load_wav rejects is walked all the same, so that a later fmt and data
    chunk can still win: 8-bit and smaller PCM is one unsigned byte per
    sample whatever its container, integer samples of 3, 5, 6 or 7 bytes
    are read whole, and other samples are read back to back whatever the
    block align. An RF64 file's size comes from its ds64 chunk. The
    samples stop at the end of the file, and the chunk resumes after the
    whole samples read and its pad byte, not after its size."""
    tag, channels, _, block_align, bits = fmt
    if rf64_size is None:
        (size,) = _unpack("<I", content, offset)
    else:
        size = rf64_size
    if channels == 0 or block_align < channels:
        raise ValueError(f"block align {block_align} leaves no bytes per sample "
                         f"for {channels} channel(s)")
    width = block_align // channels
    start = min(offset + 4, len(content))
    if tag == _PCM and width in (3, 5, 6, 7) and not 1 <= bits <= 8:
        length = min(size, len(content) - start)
        if length % width:
            raise ValueError(f"data chunk is not a whole number of {width}-byte samples")
    else:
        if tag == _PCM and 1 <= bits <= 8:
            length, width = size // width, 1
        elif tag == _PCM and bits > 64 or tag == _IEEE_FLOAT and bits not in (32, 64):
            raise ValueError(f"unsupported bit depth {bits}")
        # the widths of numpy's integer and float types (16: x86-64's long double)
        elif width not in ((1, 2, 4, 8) if tag == _PCM else (2, 4, 8, 16)):
            raise ValueError(f"unsupported {width}-byte sample width")
        else:
            length = size // width * width
        if length > sys.maxsize:
            raise ValueError(f"data chunk of {size} bytes is too long to read")
        length = min(length, len(content) - start)
    count = length // width
    if count % channels:
        raise ValueError(f"data chunk holds {count} samples, not a whole number of "
                         f"{channels}-channel frames")
    layout = (start, count // channels, _SAMPLE_FORMATS.get((tag, width)), width, channels)
    return layout, start + length + size % 2


def _read_wav(content) -> tuple[int, tuple]:
    """Sample rate and data chunk layout (see _read_data_chunk) of a
    little-endian RIFF or RF64 WAV file's bytes.

    Chunks are read in file order, each at the offset where the one
    before it resumes: the last fmt and data chunks win, and a file cut
    short after a data chunk keeps the samples read. A read stops at the
    end of the file; a skip does not: other chunks are skipped over their
    size and pad byte, and an RF64 file's ds64 chunk over its size alone,
    an unsigned field, so the offset never goes below 0.
    """
    signature = bytes(content[:4])
    rf64_size = None
    if signature == b"RIFF":
        (riff_size,) = _unpack("<I", content, 4)
        offset = 12
    elif signature == b"RF64":
        # the RIFF and data sizes are 64-bit fields of a ds64 chunk
        if content[12:16] != b"ds64":
            raise ValueError("RF64 file has no ds64 chunk")
        ds64_size, riff_size, rf64_size = _unpack("<IQQ", content, 16)
        offset = 20 + ds64_size
    elif signature == b"RIFX":
        raise ValueError("big-endian RIFX files are not supported")
    else:
        raise ValueError(f"not a RIFF file (starts with {signature!r})")
    form = bytes(content[8:12])
    if form != b"WAVE":
        raise ValueError(f"RIFF form type is {form!r}, not b'WAVE'")
    fmt = layout = None
    while offset < riff_size + 8:
        chunk_id = content[offset : offset + 4]
        if len(chunk_id) < 4:
            if layout is None:
                raise ValueError("file ends before a data chunk")
            break
        if chunk_id == b"fmt ":
            fmt, offset = _read_fmt_chunk(content, offset + 4)
        elif chunk_id == b"data":
            if fmt is None:
                raise ValueError("data chunk before the fmt chunk")
            layout, offset = _read_data_chunk(content, offset + 4, fmt, rf64_size)
        elif offset + 4 < len(content):
            (size,) = _unpack("<I", content, offset + 4)
            offset += 8 + size + size % 2
        else:  # the file ends after the chunk id
            offset += 4
    if layout is None:
        raise ValueError("no data chunk")
    return fmt[2], layout


def load_wav(path: str) -> AudioBuffer:
    """Read a WAV file as audio: its samples as stored (see AudioBuffer).

    Only the chunk headers are read here: the buffer keeps the file open,
    and its samples are read from the file as they are used, so a loaded
    song costs no memory for its samples. The file is closed once the
    buffer is collected, or at once when loading fails. A pipe, which
    cannot be read by position, is read whole, and its samples are kept
    as stored in those bytes. Accepted: little-endian RIFF (or RF64) WAV
    with a plain or WAVE_FORMAT_EXTENSIBLE header and any channel count
    (mixed down by averaging), holding the formats of _SAMPLE_FORMATS:
    integer PCM in 2-, 3- or 4-byte samples or IEEE float in 4- or 8-byte
    samples, all of them finite. WAV keeps samples left-justified in their
    container and 3-byte samples are widened to 32 bits at the left as
    they are read, so a 12-bit or 20-bit file scales to [-1, 1] too.
    Rejected: 8-bit and 64-bit PCM, compressed formats and big-endian
    RIFX. A file that cannot be opened raises OSError; any other
    failure raises ValueError naming the file, and so does a read of the
    samples that finds the file shorter than it was when loaded.
    """
    fp = open(path, "rb")
    try:
        # a header can claim a chunk far longer than the file; a read by
        # position, like a read from memory, returns what there is
        size = os.fstat(fp.fileno()).st_size
        if size:
            content = _OpenFile(fp, size)
        else:  # empty, or a pipe, which reports no size: read it whole
            with fp:
                content = memoryview(fp.read())
        try:
            sample_rate, (start, frames, sample_format, width, channels) = _read_wav(content)
            if sample_format is None:
                raise ValueError("unsupported sample format: only PCM of 2, 3 or 4 bytes and "
                                 "float of 4 or 8 bytes per sample are read")
            dtype, full_scale = sample_format
            pcm = _StoredSamples(path, content, start, frames, dtype, width, channels)
            return AudioBuffer(pcm, full_scale, int(sample_rate))
        except _ShortRead:
            raise
        except (ValueError, OverflowError) as exc:
            # OverflowError: an RF64 data size too large to be a read length
            raise ValueError(f"cannot read WAV file {path!r}: {exc}") from None
    except BaseException:
        fp.close()
        raise


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def _mel_filterbank(sample_rate: int, n_fft: int, cfg: OnsetConfig) -> np.ndarray:
    """Triangular mel filters, shape (n_mels, n_fft // 2 + 1)."""
    fmax = min(cfg.fmax_hz, sample_rate / 2.0)
    edges_hz = _mel_to_hz(np.linspace(_hz_to_mel(cfg.fmin_hz), _hz_to_mel(fmax), cfg.n_mels + 2))
    bin_freqs = np.fft.rfftfreq(n_fft, 1.0 / sample_rate)
    # one row per band: each band's lower, center and upper edge as a column
    lower, center, upper = (edges_hz[k : k + cfg.n_mels, None] for k in range(3))
    rising = (bin_freqs - lower) / np.maximum(center - lower, 1e-12)
    falling = (upper - bin_freqs) / np.maximum(upper - center, 1e-12)
    return np.clip(np.minimum(rising, falling), 0.0, 1.0)


# rows per mel product and frames per block of flux in onset_strength
_MAGNITUDE_BLOCK_FRAMES = 256
# frames per batch of windowing, rfft and abs in onset_strength
_STFT_BLOCK_FRAMES = 32
# mel products are blocked only for a band count that is a multiple of this.
# On OpenBLAS 0.3.31 (Haswell kernels), 256-row products gave the bits of
# the whole-song product for every multiple of 8 bands tried, and other
# bits for 1-4 bands and for every count above 192 that is not a multiple
# of 8, at most song lengths
_BLAS_TILE_COLUMNS = 8


def _frames(audio: AudioBuffer, first: int, count: int, frame: int, hop: int,
            signal: np.ndarray, channels: np.ndarray | None) -> np.ndarray:
    """Analysis frames first .. first + count - 1 as rows of a read-only
    strided view into `signal`, which is filled with the audio's signal
    over the span they cover, zero where it runs past either end.
    `channels` is the scratch buffer of AudioBuffer._signal_into."""
    lo = first * hop - (frame - hop)
    span = signal[: (count - 1) * hop + frame]
    inside = slice(max(lo, 0), min(lo + len(span), len(audio.pcm)))
    span[: inside.start - lo] = 0.0
    span[inside.stop - lo :] = 0.0
    audio._signal_into(inside.start, inside.stop, span[inside.start - lo : inside.stop - lo],
                       channels)
    # as_strided builds the view in about a third of sliding_window_view's
    # time, which is paid once per batch
    step = span.strides[0]
    return np.lib.stride_tricks.as_strided(span, (count, frame), (hop * step, step),
                                           writeable=False)


def onset_strength(audio: AudioBuffer, cfg: OnsetConfig | None = None) -> np.ndarray:
    """Per-frame onset-strength envelope (non-negative, first frame 0).

    Frame t is timestamped by the newest hop it covers: its analysis window
    spans [t*hop - (frame - hop), t*hop + hop). Energy arriving during hop t
    therefore raises the envelope at index t, which keeps attack times
    aligned with the t*hop/sample_rate convention used by pick_peaks.

    The envelope is bit for bit the one from a single whole-song
    spectrogram and one whole-song mel product of the audio's float64 mono
    signal, without any of the three existing. BLAS can give a row of a product different
    bits depending on how many rows the product has, so every mel product
    has the same row count, min(n_frames, _MAGNITUDE_BLOCK_FRAMES): the
    last block is the song's final frames and recomputes, with the same
    values, the rows it shares with the block before it. For some band
    counts the bits also depend on the whole song's row count, so unless
    n_mels is a multiple of _BLAS_TILE_COLUMNS the projection stays one
    product over all frames. A product's magnitudes are filled
    _STFT_BLOCK_FRAMES frames at a time, each batch into its own rows.
    A batch's span of samples is read from the stored PCM (from the file,
    for a buffer that load_wav made), converted into one float64 buffer
    made once per call (pcm / full_scale, then the mean over channels, per
    sample the operations that build the whole signal) and zero-filled past
    either end, and its frames are windowed into a second such buffer;
    windowing, rfft along a row and abs act on one frame alone, so any
    batching gives the same magnitudes. The log compression
    works in place on the mel matrix, and the flux of each block of frames
    is summed straight into the envelope, one row per frame as in a
    whole-song sum.

    Live at once, besides the caller's PCM when it is an array: the n_mels
    x frequency bins filter bank, the n_frames x n_mels mel matrix, and
    either the magnitudes of one product's rows together with one batch's
    span of samples as stored and as float64 (with its frames x channels
    copy when there is more than one channel), windowed frames and complex
    spectrum, or the envelope and one block's flux. No float64 copy of the
    song is made, and with a band count that is a multiple of
    _BLAS_TILE_COLUMNS no array scales as frames x frequency bins.
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
    batch = min(rows, _STFT_BLOCK_FRAMES)
    window = np.hanning(frame)
    bank_t = _mel_filterbank(audio.sample_rate, frame, cfg).T
    signal = np.empty((batch - 1) * hop + frame)
    channels = None if audio.pcm.ndim == 1 else np.empty((len(signal), audio.pcm.shape[1]))
    windowed = np.empty((batch, frame))
    magnitudes = np.empty((rows, frame // 2 + 1))
    mel = np.ndarray((n_frames, cfg.n_mels), buffer=_mapped(n_frames * cfg.n_mels * 8))
    for start in (*range(0, n_frames - rows, rows), n_frames - rows):
        for sub in range(0, rows, batch):
            count = min(batch, rows - sub)
            frames = _frames(audio, start + sub, count, frame, hop, signal, channels)
            np.multiply(frames, window, out=windowed[:count])
            np.abs(np.fft.rfft(windowed[:count], axis=1), out=magnitudes[sub : sub + count])
        np.matmul(magnitudes, bank_t, out=mel[start : start + rows])
    del signal, channels, windowed, magnitudes
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

