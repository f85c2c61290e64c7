import struct
import tracemalloc

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
from strumscribe.onsets import _MAGNITUDE_BLOCK_FRAMES, tune_peak_picking

from oracles import dense_onset_strength

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

        def traced_peak(fn):
            tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                fn(audio)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(onset_strength) < 0.6 * traced_peak(dense_onset_strength)


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


class TestWavIO:
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


class TestTuner:
    def test_tuner_improves_or_matches_bad_start(self):
        rng = np.random.default_rng(0)
        labeled = []
        for seed in range(3):
            times = np.sort(np.arange(8) * 0.5 + 0.25 + rng.uniform(-0.02, 0.02, 8))
            labeled.append((pluck_train(times, seed=seed), times.tolist()))
        bad = OnsetConfig(delta=0.01, pre_avg=2, post_avg=2)
        tuned = tune_peak_picking(labeled, n_trials=25, seed=1, base=bad)

        def mean_f1(cfg):
            scores = []
            for audio, ref in labeled:
                detected = pick_peaks(onset_strength(audio, cfg), audio.sample_rate, cfg)
                scores.append(match_events(ref, detected.times_sec, 0.05).f1)
            return np.mean(scores)

        assert mean_f1(tuned) >= mean_f1(bad)
        assert mean_f1(tuned) > 0.9
