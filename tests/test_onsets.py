import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strumscribe import (
    AudioBuffer,
    OnsetConfig,
    detect_onsets,
    load_wav,
    match_events,
    onset_strength,
    pick_peaks,
)
from strumscribe.onsets import _BLAS_TILE_COLUMNS, _MAGNITUDE_BLOCK_FRAMES, _window_max

from oracles import dense_onset_strength, scipy_local_max, scipy_read_wav

SR = 44100
HOP = 512
BLOCK = _MAGNITUDE_BLOCK_FRAMES


def pluck_train(times, sr=SR, decay=0.03, seed=0, amp=0.5, tail=1.0):
    """Exponentially decaying noise bursts at the given onset times."""
    rng = np.random.default_rng(seed)
    total = int((max(times) + tail) * sr)
    samples = np.zeros(total)
    for t in times:
        start = int(t * sr)
        length = int(0.25 * sr)
        burst = rng.standard_normal(length) * np.exp(-np.arange(length) / (decay * sr))
        end = min(start + length, total)
        samples[start:end] += amp * burst[: end - start]
    return AudioBuffer(samples, sr)


@pytest.fixture(scope="module")
def pluck_fixture():
    rng = np.random.default_rng(42)
    times = np.sort(np.arange(30) * 0.5 + 0.2 + rng.uniform(-0.02, 0.02, 30))
    return times, pluck_train(times, seed=7)


@pytest.mark.parametrize("field", ["delta", "min_gap_sec", "log_compression"])
def test_onset_config_rejects_nan(field):
    with pytest.raises(ValueError, match=f"^{field} "):
        OnsetConfig(**{field: np.nan})


class TestOnsetStrength:
    def test_silence_is_all_zero(self):
        env = onset_strength(AudioBuffer(np.zeros(SR), SR))
        assert env.min() == env.max() == 0.0

    def test_too_short_audio(self):
        with pytest.raises(ValueError):
            onset_strength(AudioBuffer(np.zeros(100), SR))

    def test_envelope_non_negative_and_frame_count(self):
        audio = pluck_train([0.3, 0.8], seed=1)
        env = onset_strength(audio)
        assert env.min() >= 0.0
        assert len(env) == 1 + len(audio.samples) // HOP

    def test_click_localized_within_one_frame(self):
        for position in (0.1, 0.3, 0.55, 0.71, 0.9):
            samples = np.zeros(SR)
            k = int(position * SR)
            samples[k] = 1.0
            env = onset_strength(AudioBuffer(samples, SR))
            assert abs(int(env.argmax()) - k / HOP) <= 1.0

    @pytest.mark.parametrize("sample_rate", [40, 60])
    def test_fmin_at_or_above_nyquist_rejected(self, sample_rate):
        audio = AudioBuffer(np.zeros(200 * sample_rate), sample_rate)
        with pytest.raises(ValueError, match=rf"onsets\.fmin_hz.*Nyquist.*\({sample_rate // 2} Hz\)"):
            onset_strength(audio)

    def test_steady_sine_quiet_after_attack(self):
        sine = AudioBuffer(0.5 * np.sin(2 * np.pi * 440 * np.arange(SR) / SR), SR)
        env = onset_strength(sine)
        attack = env[:8].max()
        # the final frames see the test signal's hard cutoff, which is a
        # genuine transient; steady state is everything in between
        steady = env[8:-4].max()
        assert steady < 0.05 * attack


@st.composite
def envelope_cases(draw):
    """(cfg, n_samples, sample_rate, signal kind, seed) with a frame count
    on, around or away from the magnitude block size. The envelope has
    1 + n_samples // hop frames and n_samples >= frame_size, so it always
    has at least 2; the hop is drawn large enough to reach the count."""
    frame = draw(st.integers(64, 4096))
    n_frames = draw(
        st.sampled_from([2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
        | st.integers(2, 2 * BLOCK + 1)
    )
    hop = draw(st.integers(-(-(frame + 1) // n_frames), frame))
    n_samples = draw(st.integers(max(frame, (n_frames - 1) * hop), n_frames * hop - 1))
    sample_rate = draw(st.sampled_from([8000, 22050, 44100]))
    nyquist = sample_rate / 2.0
    fmin = draw(st.floats(1.0, nyquist, exclude_max=True))
    fmax = draw(st.floats(fmin, 2.0 * nyquist, exclude_min=True))
    cfg = OnsetConfig(frame_size=frame, hop_size=hop, n_mels=draw(st.integers(1, 200)),
                      fmin_hz=fmin, fmax_hz=fmax)
    kind = draw(st.sampled_from(["noise", "clicks", "silence"]))
    return cfg, n_samples, sample_rate, kind, draw(st.integers(0, 2**32 - 1))


def make_signal(n_samples, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "noise":
        return rng.standard_normal(n_samples) * rng.uniform(0.01, 0.5)
    samples = np.zeros(n_samples)
    if kind == "clicks":
        samples[rng.integers(0, n_samples, 1 + n_samples // 4096)] = rng.uniform(-1, 1)
    return samples


def traced_peak(fn, *args):
    """Peak traced allocation of fn(*args), in bytes."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_bit_exact(audio, cfg):
    got = onset_strength(audio, cfg)
    want = dense_onset_strength(audio, cfg)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestBlockedMagnitudes:
    @settings(max_examples=60, deadline=None)
    @given(envelope_cases())
    @example(case=(OnsetConfig(), BLOCK * HOP - 1, SR, "noise", 0))
    @example(case=(OnsetConfig(), (BLOCK - 2) * HOP, SR, "noise", 1))
    @example(case=(OnsetConfig(), BLOCK * HOP, 22050, "clicks", 2))
    @example(case=(OnsetConfig(), 2 * BLOCK * HOP, 8000, "noise", 3))
    @example(case=(OnsetConfig(frame_size=64, hop_size=64), 64, 44100, "noise", 4))
    # the last block overlaps the one before it by all but 1, 2 and
    # BLOCK - 1 rows
    @example(case=(OnsetConfig(), BLOCK * HOP + 7, SR, "noise", 5))
    @example(case=(OnsetConfig(), (BLOCK + 1) * HOP, SR, "clicks", 6))
    @example(case=(OnsetConfig(), (2 * BLOCK - 2) * HOP, 22050, "noise", 7))
    @example(case=(OnsetConfig(n_mels=1), (BLOCK + 1) * HOP, SR, "noise", 8))
    @example(case=(OnsetConfig(n_mels=2), (2 * BLOCK - 2) * HOP, 8000, "noise", 9))
    @example(case=(OnsetConfig(frame_size=64, hop_size=64), (2 * BLOCK - 2) * 64 + 5, 44100,
                   "noise", 10))
    @example(case=(OnsetConfig(n_mels=196), (2 * BLOCK - 2) * HOP, SR, "noise", 11))
    def test_bit_exact_against_dense(self, case):
        cfg, n_samples, sample_rate, kind, seed = case
        audio = AudioBuffer(make_signal(n_samples, kind, seed), sample_rate)
        assert_bit_exact(audio, cfg)

    def test_bit_exact_at_bench_size(self):
        # 140 s of 22.05 kHz strumming, the length of a long benchmark song
        rng = np.random.default_rng(140)
        times = np.cumsum(rng.uniform(0.12, 0.6, 400))
        times = times[times < 139.0]
        audio = pluck_train(times.tolist(), sr=22050, seed=140, tail=140.0 - times[-1])
        assert len(audio.samples) == 140 * 22050
        assert_bit_exact(audio, OnsetConfig())

    def test_peak_memory_below_dense(self):
        audio = AudioBuffer(make_signal(60 * 22050, "noise", 60), 22050)
        assert traced_peak(onset_strength, audio) < 0.6 * traced_peak(dense_onset_strength, audio)

    @pytest.mark.parametrize("n_mels", [128, 8, 2, 196])
    @pytest.mark.parametrize("n_frames", [5, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 3 * BLOCK - 5])
    def test_every_mel_product_has_the_same_row_count(self, monkeypatch, n_frames, n_mels):
        rows = []
        matmul = np.matmul

        def counted_matmul(a, b, *args, **kwargs):
            rows.append(len(a))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted_matmul)
        audio = AudioBuffer(make_signal((n_frames - 1) * HOP, "noise", n_frames), SR)
        onset_strength(audio, OnsetConfig(n_mels=n_mels))
        # a band count with a partial BLAS tile keeps one whole-song product
        height = n_frames if n_mels % _BLAS_TILE_COLUMNS else min(n_frames, BLOCK)
        assert rows == [height] * -(-n_frames // height)

    def test_peak_memory_bounded(self):
        # 140 s is a long benchmark song, 600 s a long take of a whole song
        def song(seconds):
            return AudioBuffer(np.random.default_rng(seconds).uniform(-0.5, 0.5, seconds * 22050),
                               22050)

        at_140 = traced_peak(onset_strength, song(140))
        assert at_140 < 0.25 * traced_peak(dense_onset_strength, song(140))
        mel_growth = (600 * 22050 // HOP - 140 * 22050 // HOP) * OnsetConfig().n_mels * 8
        assert traced_peak(onset_strength, song(600)) - at_140 < 2.5 * mel_growth


class TestPcmMemory:
    """load_wav keeps the file's PCM, and the envelope converts it one block
    at a time: a float64 copy of a 16-bit song alone is 4x the file."""

    def test_detect_onsets_peak_on_a_long_mono_song(self, tmp_path):
        # 140 s of 22.05 kHz 16-bit mono, a long benchmark song: the file's
        # bytes, the mel matrix (about the file's size again) and one
        # block's buffers
        pcm = (np.random.default_rng(140).uniform(-0.5, 0.5, 140 * 22050) * 32767).astype("<i2")
        path = tmp_path / "mono.wav"
        path.write_bytes(riff(fmt_chunk(rate=22050), chunk(b"data", pcm.tobytes())))
        del pcm
        peak = traced_peak(lambda: detect_onsets(load_wav(str(path))))
        assert peak < 4.5 * path.stat().st_size

    def test_load_wav_peak_on_a_stereo_song(self, tmp_path):
        pcm = (np.random.default_rng(60).uniform(-0.5, 0.5, (60 * SR, 2)) * 32767).astype("<i2")
        path = tmp_path / "stereo.wav"
        path.write_bytes(riff(fmt_chunk(channels=2), chunk(b"data", pcm.tobytes())))
        del pcm
        assert traced_peak(load_wav, str(path)) < 1.5 * path.stat().st_size


class TestPickPeaks:
    def test_monotone_envelope_no_interior_peaks(self):
        env = np.linspace(0.0, 100.0, 200)
        detected = pick_peaks(env, SR, OnsetConfig())
        assert all(t > (len(env) - 20) * HOP / SR for t in detected.times_sec)

    def test_min_gap_merges_close_onsets(self):
        samples = np.zeros(SR)
        for t in (0.3, 0.32):
            samples[int(t * SR)] = 1.0
        detected = detect_onsets(AudioBuffer(samples, SR))
        assert len(detected) == 1

    def test_empty_envelope(self):
        assert len(pick_peaks(np.array([]), SR, OnsetConfig())) == 0

    def test_output_respects_min_gap(self, pluck_fixture):
        _, audio = pluck_fixture
        cfg = OnsetConfig()
        detected = detect_onsets(audio, cfg)
        gaps = np.diff(detected.times_sec)
        assert (gaps >= cfg.min_gap_sec - 1e-9).all()

    def test_pluck_train_perfect_f1(self, pluck_fixture):
        times, audio = pluck_fixture
        detected = detect_onsets(audio)
        result = match_events(times.tolist(), detected.times_sec, 0.05)
        assert result.f1 == 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        # few distinct levels, so windows often hold ties
        envelope=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.25]), min_size=1, max_size=40),
        pre=st.integers(1, 9),
        post=st.integers(1, 9),
    )
    def test_window_max_is_brute_force_max(self, envelope, pre, post):
        env = np.asarray(envelope)
        got = _window_max(env, pre, post)
        want = np.array([env[max(0, t - pre) : t + post + 1].max() for t in range(len(env))])
        assert got.tobytes() == want.tobytes()
        if pre == post:
            assert got.tobytes() == scipy_local_max(env, pre, post).tobytes()

    @pytest.mark.parametrize("pre_max, post_max", [(1, 4), (4, 1), (2, 5), (3, 3)])
    def test_impulse_suppresses_pre_max_before_and_post_max_after(self, pre_max, post_max):
        # a frame is no local max while the big impulse at frame 20 lies
        # within pre_max frames before it or post_max frames after it
        env = np.ones(41)
        env[20] = 100.0
        cfg = OnsetConfig(pre_max=pre_max, post_max=post_max, delta=-1e3, min_gap_sec=0.0)
        picked = np.round(np.asarray(pick_peaks(env, SR, cfg).times_sec) * SR / HOP).astype(int)
        suppressed = set(range(20 - post_max, 20)) | set(range(21, 21 + pre_max))
        assert set(picked) == set(range(41)) - suppressed


class TestRobustness:
    def test_amplitude_scaling_moves_onsets_at_most_one_hop(self, pluck_fixture):
        _, audio = pluck_fixture
        reference = detect_onsets(audio)
        for k in (0.5, 2.0):
            scaled = detect_onsets(AudioBuffer(audio.samples * k, SR))
            assert len(scaled) == len(reference)
            assert np.allclose(
                scaled.times_sec, reference.times_sec, atol=HOP / SR + 1e-9
            )

    def test_shift_by_whole_hops_is_exact(self, pluck_fixture):
        _, audio = pluck_fixture
        reference = detect_onsets(audio)
        n = 7
        shifted = AudioBuffer(np.concatenate([np.zeros(n * HOP), audio.samples]), SR)
        detected = detect_onsets(shifted)
        assert np.allclose(
            detected.times_sec,
            np.asarray(reference.times_sec) + n * HOP / SR,
            atol=1e-9,
        )


# the last 12 bytes of a WAVE_FORMAT_EXTENSIBLE sub-format GUID
GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def chunk(chunk_id, body, size=None):
    """A RIFF chunk with its pad byte; `size` overrides the size field."""
    size = len(body) if size is None else size
    return chunk_id + struct.pack("<I", size) + body + b"\0" * (len(body) % 2)


def fmt_chunk(tag=1, channels=1, rate=SR, width=2, bits=None, extension=b""):
    block_align = channels * width
    bits = 8 * width if bits is None else bits
    body = struct.pack("<HHIIHH", tag, channels, rate, rate * block_align, block_align, bits)
    return chunk(b"fmt ", body + extension)


def extensible(sub_format, valid_bits):
    """The 24 bytes a WAVE_FORMAT_EXTENSIBLE fmt chunk adds."""
    return struct.pack("<HHII", 22, valid_bits, 0, sub_format) + GUID_TAIL


def riff(*chunks, signature=b"RIFF"):
    body = b"WAVE" + b"".join(chunks)
    return signature + struct.pack("<I", len(body)) + body


def rf64(fmt, samples):
    """An RF64 file: its RIFF and data sizes live in a 36-byte ds64 chunk."""
    data = chunk(b"data", samples, size=0xFFFFFFFF)
    riff_size = len(b"WAVE") + 36 + len(fmt) + len(data)
    ds64 = chunk(b"ds64", struct.pack("<QQQI", riff_size, len(samples), 0, 0))
    return b"RF64" + b"\xff" * 4 + b"WAVE" + ds64 + fmt + data


WAV_FAULTS = [
    "rifx", "byte_rate", "unsigned_8bit", "int64", "bits_65", "adpcm_tag", "unknown_sub_format",
    "short_extension", "zero_channels", "narrow_block_align", "short_fmt", "no_fmt", "no_data",
    "data_first", "second_data", "data_size_plus_1", "data_size_minus_1", "riff_size_short",
    "riff_size_long", "truncated", "chunk_after_data", "foreign_guid", "bits_8", "second_fmt",
]


def scipy_or_none(path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return scipy_read_wav(path)
        except ValueError:
            return None


def load_or_none(path):
    try:
        return load_wav(path)
    except ValueError:
        return None


def parity_case(name, tmp_path):
    from scipy.io import wavfile

    rng = np.random.default_rng(3)
    signal = np.sin(2 * np.pi * 220 * np.arange(1000) / SR) * 0.4
    noise = rng.integers(0, 256, 6000, dtype=np.uint8).tobytes()
    path = tmp_path / f"{name}.wav"
    if name in ("int16", "int32", "float32", "float64", "stereo"):
        dtype = {"stereo": np.int16}.get(name, name)
        data = signal if name != "stereo" else np.stack([signal, -0.5 * signal], axis=1)
        if np.dtype(dtype).kind == "i":
            data = (data * np.iinfo(dtype).max).astype(dtype)
        wavfile.write(path, SR, data.astype(dtype))
        return path
    if name == "int24":
        wav = riff(fmt_chunk(width=3), chunk(b"data", noise[:3000]))
    elif name == "extensible":
        fmt = fmt_chunk(0xFFFE, channels=2, width=3, extension=extensible(1, 24))
        wav = riff(fmt, chunk(b"data", noise))
    elif name == "extensible_float":
        fmt = fmt_chunk(0xFFFE, channels=1, width=4, extension=extensible(3, 32))
        wav = riff(fmt, chunk(b"data", signal.astype("<f4").tobytes()))
    elif name == "12bit_in_16":
        twelve = (rng.integers(-2048, 2048, 1000) << 4).astype("<i2").tobytes()
        wav = riff(fmt_chunk(width=2, bits=12), chunk(b"data", twelve))
    elif name == "list_and_odd_chunk":
        wav = riff(fmt_chunk(), chunk(b"LIST", b"INFOISFT\x03\x00\x00\x00ab\x00"),
                   chunk(b"odd ", b"x"), chunk(b"data", noise[:2000]))
    else:
        wav = rf64(fmt_chunk(channels=2), noise[:4000])
    path.write_bytes(wav)
    return path


PARITY_CASES = ["int16", "int24", "int32", "float32", "float64", "stereo", "extensible",
                "extensible_float", "12bit_in_16", "list_and_odd_chunk", "rf64"]


class TestWavIO:
    # scipy warns about the chunks it skips
    @pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
    @pytest.mark.parametrize("name", PARITY_CASES)
    def test_samples_match_scipy(self, tmp_path, name):
        path = str(parity_case(name, tmp_path))
        want = scipy_read_wav(path)
        got = load_wav(path)
        assert got.sample_rate == want.sample_rate
        assert len(got.samples) >= 1000
        assert got.samples.tobytes() == want.samples.tobytes()

    @pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
    @pytest.mark.parametrize("name", PARITY_CASES)
    def test_envelope_from_pcm_matches_float_signal(self, tmp_path, name):
        # 501 frames: two blocks that overlap, each span converted from the
        # stored PCM and zero-filled past either end of the song
        cfg = OnsetConfig(frame_size=64, hop_size=2, n_mels=16)
        audio = load_wav(str(parity_case(name, tmp_path)))
        assert audio.pcm.dtype.kind == ("f" if "float" in name else "i")
        want = onset_strength(AudioBuffer(audio.samples, audio.sample_rate), cfg)
        assert onset_strength(audio, cfg).tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
    @pytest.mark.parametrize("after", [chunk(b"LIST", b"INFOISFT\x03\x00\x00\x00ab\x00"),
                                       chunk(b"data", b"\x10\x20" * 300)])
    def test_resume_after_odd_data_chunk_matches_scipy(self, tmp_path, after):
        # after a data chunk the reader resumes at its start plus the whole
        # samples read plus the pad byte, as scipy does: with 2001 bytes of
        # int16 that is one byte short of the next chunk
        noise = np.random.default_rng(4).integers(0, 256, 2001, dtype=np.uint8).tobytes()
        path = tmp_path / "odd.wav"
        path.write_bytes(riff(fmt_chunk(), chunk(b"data", noise), after))
        want, got = scipy_or_none(str(path)), load_or_none(str(path))
        assert (got is None) == (want is None)
        if got is not None:
            assert len(got.samples) == 1000
            assert got.samples.tobytes() == want.samples.tobytes()

    @settings(max_examples=500, deadline=None)
    @given(
        kind=st.sampled_from([(1, 2), (1, 3), (1, 4), (3, 4), (3, 8)]),
        extensible_header=st.booleans(),
        channels=st.integers(1, 3),
        rate=st.sampled_from([8000, SR]),
        frames=st.integers(0, 12),
        junk=st.sampled_from([None, b"a", b"abcd"]),
        faults=st.lists(st.sampled_from(WAV_FAULTS), max_size=2, unique=True),
        cut=st.integers(0, 300),
        seed=st.integers(0, 2**16),
    )
    # 8-bit samples in a 3-byte container are unsigned, not left-justified
    @example(kind=(1, 3), extensible_header=False, channels=1, rate=SR, frames=4, junk=None,
             faults=["bits_8"], cut=0, seed=0)
    def test_accepts_exactly_what_scipy_accepts(
        self, tmp_path_factory, kind, extensible_header, channels, rate, frames, junk, faults,
        cut, seed,
    ):
        # a valid file, then up to two faults; scipy is the judge of each
        tag, width = kind
        bits = 8 * width
        rng = np.random.default_rng(seed)
        if "unsigned_8bit" in faults:
            tag, width, bits = 1, 1, 8
        if "int64" in faults:
            tag, width, bits = 1, 8, 64
        if "bits_65" in faults:
            bits = 65
        if "bits_8" in faults:
            bits = 8
        if "zero_channels" in faults:
            channels = 0
        if tag == 3:
            payload = (rng.standard_normal(frames * channels) * 0.3).astype(f"<f{width}")
            payload = payload.tobytes()
        else:
            payload = rng.integers(0, 256, frames * channels * width, dtype=np.uint8).tobytes()
        block_align = max(channels * width - ("narrow_block_align" in faults) * (channels + 1), 0)
        byte_rate = rate * block_align + ("byte_rate" in faults)
        header_tag = 2 if "adpcm_tag" in faults else tag
        extension = b""
        if extensible_header or {"unknown_sub_format", "short_extension", "foreign_guid"} & set(
            faults
        ):
            sub_format = 2 if "unknown_sub_format" in faults else header_tag
            extension = extensible(sub_format, bits)
            if "short_extension" in faults:
                extension = struct.pack("<H", 21) + extension[2:]
            if "foreign_guid" in faults:
                extension = extension[:-1] + b"\x72"
            header_tag = 0xFFFE
        fields = struct.pack("<HHIIHH", header_tag, channels, rate, byte_rate, block_align, bits)
        fmt = chunk(b"fmt ", fields[:14] if "short_fmt" in faults else fields + extension)
        size = len(payload) + ("data_size_plus_1" in faults) - ("data_size_minus_1" in faults)
        data = chunk(b"data", payload, size=max(size, 0))
        blocks = [fmt] + ([chunk(b"LIST", junk)] if junk is not None else []) + [data]
        if "no_fmt" in faults:
            blocks.remove(fmt)
        if "no_data" in faults:
            blocks.remove(data)
        if "data_first" in faults:
            blocks.reverse()
        if "second_data" in faults:
            blocks.append(chunk(b"data", payload[: len(payload) // 2]))
        if "chunk_after_data" in faults:
            blocks.append(chunk(b"cue ", b"xyz"))
        if "second_fmt" in faults:
            blocks.append(fmt)
        wav = riff(*blocks, signature=b"RIFX" if "rifx" in faults else b"RIFF")
        riff_size = struct.unpack("<I", wav[4:8])[0]
        riff_size += 40 * ("riff_size_long" in faults) - 30 * ("riff_size_short" in faults)
        wav = wav[:4] + struct.pack("<I", max(riff_size, 0)) + wav[8:]
        if "truncated" in faults:
            wav = wav[: cut % (len(wav) + 1)]
        path = tmp_path_factory.mktemp("wav") / "f.wav"
        path.write_bytes(wav)
        want, got = scipy_or_none(str(path)), load_or_none(str(path))
        assert (got is None) == (want is None)
        if got is not None:
            assert got.sample_rate == want.sample_rate
            assert got.samples.tobytes() == want.samples.tobytes()

    def write_wav_24bit(self, path, samples, sr):
        data = b"".join(
            struct.pack("<i", int(np.clip(s, -1, 1) * 8388607) << 8)[1:4] for s in samples
        )
        with open(path, "wb") as fp:
            fp.write(b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE")
            fp.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, sr, sr * 3, 3, 24))
            fp.write(b"data" + struct.pack("<I", len(data)) + data)

    def test_int16_round_trip(self, tmp_path):
        from scipy.io import wavfile

        samples = (np.sin(2 * np.pi * 220 * np.arange(4096) / SR) * 0.4 * 32767).astype(np.int16)
        path = tmp_path / "a.wav"
        wavfile.write(path, SR, samples)
        audio = load_wav(str(path))
        assert audio.sample_rate == SR
        assert np.allclose(audio.samples, samples / 32768.0)

    def test_float32_round_trip(self, tmp_path):
        from scipy.io import wavfile

        samples = np.sin(2 * np.pi * 220 * np.arange(4096) / SR).astype(np.float32) * 0.4
        path = tmp_path / "f.wav"
        wavfile.write(path, SR, samples)
        audio = load_wav(str(path))
        assert np.allclose(audio.samples, samples, atol=1e-7)

    def test_24bit_read(self, tmp_path):
        samples = np.sin(2 * np.pi * 220 * np.arange(1024) / SR) * 0.4
        path = tmp_path / "b.wav"
        self.write_wav_24bit(path, samples, SR)
        audio = load_wav(str(path))
        assert audio.sample_rate == SR
        assert np.allclose(audio.samples, samples, atol=1e-6)

    def test_stereo_mixdown(self, tmp_path):
        from scipy.io import wavfile

        left = np.ones(2048, dtype=np.float32) * 0.5
        right = np.zeros(2048, dtype=np.float32)
        path = tmp_path / "s.wav"
        wavfile.write(path, SR, np.stack([left, right], axis=1))
        audio = load_wav(str(path))
        assert np.allclose(audio.samples, 0.25)

    def test_unsupported_dtype_rejected(self, tmp_path):
        from scipy.io import wavfile

        path = tmp_path / "u.wav"
        wavfile.write(path, SR, (np.zeros(1024) + 128).astype(np.uint8))
        with pytest.raises(ValueError):
            load_wav(str(path))

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_wav("/nonexistent/file.wav")

