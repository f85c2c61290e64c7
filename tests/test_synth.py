import numpy as np
import pytest

from strumscribe import DecoderConfig, SynthSpec, bin_strums, decode, generate_song, reconstruct_strums

from conftest import make_vocab


@pytest.fixture
def synth_vocab():
    return make_vocab(
        ("QUARTERS", "4/4", [0.0, 0.25, 0.5, 0.75]),
        ("HALVES", "4/4", [0.0, 0.5]),
        ("WALTZ", "3/4", [0.0, 1 / 3, 2 / 3]),
        ("TWOBAR", "4/4", [0.0, 0.5, 0.75], [0.0, 0.25, 0.5]),
    )


class TestSpecValidation:
    def test_rates_range(self, synth_vocab):
        with pytest.raises(ValueError):
            SynthSpec(seed=0, vocab=synth_vocab, miss_rate=1.0)
        with pytest.raises(ValueError):
            SynthSpec(seed=0, vocab=synth_vocab, switch_prob=-0.1)
        with pytest.raises(ValueError):
            SynthSpec(seed=0, vocab=synth_vocab, tempo_bpm=0.0)
        with pytest.raises(ValueError):
            SynthSpec(seed=0, vocab=synth_vocab, measures=0)

    @pytest.mark.parametrize("field", ["tempo_bpm", "sigma_norm"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected_naming_the_field(self, synth_vocab, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SynthSpec(seed=0, vocab=synth_vocab, **{field: value})


class TestGenerateSong:
    def test_clean_song_observed_equals_nominal(self, synth_vocab):
        song = generate_song(SynthSpec(seed=3, vocab=synth_vocab, measures=16, switch_prob=0.3))
        assert song.observed == song.nominal

    def test_no_switching_single_pattern(self, synth_vocab):
        song = generate_song(SynthSpec(seed=5, vocab=synth_vocab, measures=12, switch_prob=0.0))
        ids = {e.pattern_id for e in song.ground_truth.entries}
        assert len(ids) == 1

    def test_deterministic(self, synth_vocab):
        spec = SynthSpec(
            seed=42, vocab=synth_vocab, measures=24, sigma_norm=0.02,
            switch_prob=0.2, miss_rate=0.05, spurious_rate=0.05,
        )
        assert generate_song(spec) == generate_song(spec)

    def test_different_seeds_differ(self, synth_vocab):
        base = dict(vocab=synth_vocab, measures=24, sigma_norm=0.02, switch_prob=0.2)
        a = generate_song(SynthSpec(seed=1, **base))
        b = generate_song(SynthSpec(seed=2, **base))
        assert a != b

    def test_ground_truth_covers_all_measures(self, synth_vocab):
        song = generate_song(SynthSpec(seed=9, vocab=synth_vocab, measures=17, switch_prob=0.4))
        assert len(song.ground_truth.entries) == 17
        assert song.barlines.measure_count == 17

    def test_reconstruction_matches_nominal(self, synth_vocab):
        song = generate_song(SynthSpec(seed=11, vocab=synth_vocab, measures=20, switch_prob=0.5))
        rebuilt = reconstruct_strums(song.ground_truth, song.barlines, synth_vocab)
        assert rebuilt.times_sec == pytest.approx(song.nominal.times_sec, abs=1e-12)

    def test_measure_duration_follows_signature(self, synth_vocab):
        song = generate_song(
            SynthSpec(seed=13, vocab=synth_vocab, measures=30, tempo_bpm=120.0, switch_prob=0.5)
        )
        durations = np.diff(song.barlines.times_sec)
        for entry, duration in zip(song.ground_truth.entries, durations):
            expected = 2.0 if str(entry.time_signature) == "4/4" else 1.5
            assert duration == pytest.approx(expected)

    def test_jitter_stays_in_measure(self, synth_vocab):
        song = generate_song(
            SynthSpec(seed=17, vocab=synth_vocab, measures=40, sigma_norm=0.1, switch_prob=0.2)
        )
        times = np.asarray(song.barlines.times_sec)
        for t in song.observed.times_sec:
            m = np.searchsorted(times, t, side="right") - 1
            assert 0 <= m < song.barlines.measure_count

    def test_miss_rate_reduces_count(self, synth_vocab):
        base = dict(vocab=synth_vocab, measures=40, switch_prob=0.2)
        full = generate_song(SynthSpec(seed=19, **base))
        thinned = generate_song(SynthSpec(seed=19, miss_rate=0.5, **base))
        assert len(thinned.observed) < len(full.observed)

    def test_spurious_rate_adds_strums(self, synth_vocab):
        base = dict(vocab=synth_vocab, measures=40, switch_prob=0.2)
        clean = generate_song(SynthSpec(seed=23, **base))
        noisy = generate_song(SynthSpec(seed=23, spurious_rate=0.3, **base))
        assert len(noisy.observed) > len(clean.observed)

    def test_empirical_jitter_std(self):
        # onsets kept away from measure edges so boundary clipping never fires
        vocab = make_vocab(("MID", "4/4", [0.2, 0.4, 0.6, 0.8]))
        sigma = 0.02
        deviations = []
        for seed in range(40):
            song = generate_song(
                SynthSpec(seed=seed, vocab=vocab, measures=300, sigma_norm=sigma)
            )
            durations = np.diff(song.barlines.times_sec)
            times = np.asarray(song.barlines.times_sec)
            for nominal, observed in zip(song.nominal.times_sec, song.observed.times_sec):
                m = int(np.searchsorted(times, nominal, side="right")) - 1
                deviations.append((observed - nominal) / durations[m])
        assert len(deviations) >= 10_000
        measured = np.std(deviations)
        assert abs(measured - sigma) / sigma < 0.05

    def test_noiseless_decode_recovers_sequence(self):
        # single signature: the silent pattern is unique, so the ground-truth
        # labels are the only zero-cost assignment
        vocab = make_vocab(
            ("QUARTERS", "4/4", [0.0, 0.25, 0.5, 0.75]),
            ("HALVES", "4/4", [0.0, 0.5]),
            ("OFFBEAT", "4/4", [0.0, 0.375, 0.625, 0.875]),
            ("TWOBAR", "4/4", [0.0, 0.5, 0.75], [0.0, 0.25, 0.5]),
        )
        spec = SynthSpec(seed=29, vocab=vocab, measures=24, switch_prob=0.3)
        song = generate_song(spec)
        measures, discarded = bin_strums(song.observed, song.barlines)
        assert discarded == 0
        decoded = decode(measures, vocab, DecoderConfig())
        assert [(e.pattern_id, e.phase) for e in decoded.entries] == [
            (e.pattern_id, e.phase) for e in song.ground_truth.entries
        ]
