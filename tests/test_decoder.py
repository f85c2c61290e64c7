import io

import numpy as np
import pytest

from strumscribe import (
    BarlineTrack,
    DecoderConfig,
    MeasureStrums,
    Transcription,
    TranscriptionEntry,
    TimeSignature,
    Vocabulary,
    bin_strums,
    decode,
    reconstruct_strums,
)
from strumscribe.decoder import load_transcription, save_transcription

from conftest import make_pattern, make_vocab
from oracles import enumerate_decode, half_cost, transition


def measures_from(*position_lists):
    return [MeasureStrums(i, tuple(ps)) for i, ps in enumerate(position_lists)]


def random_instance(rng, max_measures=8, sigma_choices=(0.03, 0.1, 0.5)):
    """A random decode problem: small vocabulary (one 2-measure pattern,
    empties included) plus measures drawn from it with optional noise."""
    signatures = ["4/4", "3/4"]
    patterns = []
    n_one = int(rng.integers(2, 4))
    for i in range(n_one):
        size = int(rng.integers(1, 5))
        grid = rng.choice(16, size=size, replace=False)
        patterns.append(
            make_pattern(f"P{i}", signatures[int(rng.integers(2))], sorted(grid / 16))
        )
    halves = [sorted(rng.choice(16, size=2, replace=False) / 16) for _ in range(2)]
    patterns.append(make_pattern("TWO", signatures[int(rng.integers(2))], *halves))
    vocab = Vocabulary.build(patterns)
    cfg = DecoderConfig(
        timing_sigma=float(rng.choice(sigma_choices)),
        pattern_change_penalty=float(rng.choice([0.0, 0.5, 2.0])),
        timesig_change_penalty=float(rng.choice([0.0, 1.0, 6.0])),
    )
    n_measures = int(rng.integers(1, max_measures + 1))
    measures = []
    for m in range(n_measures):
        if rng.random() < 0.2:
            measures.append(MeasureStrums(m, ()))
            continue
        source = vocab.patterns[int(rng.integers(len(vocab)))]
        base = list(source.onsets[int(rng.integers(source.measures))])
        jitter = rng.normal(0, 0.02, size=len(base))
        noisy = sorted(set(min(max(p + j, 0.0), 0.999) for p, j in zip(base, jitter)))
        measures.append(MeasureStrums(m, tuple(noisy)))
    return measures, vocab, cfg


class TestDecodeExamples:
    def test_exact_three_measures(self):
        vocab = make_vocab(("A", "4/4", [0.0, 0.5]), ("B", "3/4", [0.0, 1 / 3, 2 / 3]))
        cfg = DecoderConfig(pattern_change_penalty=2.0, timesig_change_penalty=6.0)
        measures = measures_from([0.0, 0.5], [0.0, 0.5], [0.0, 1 / 3, 2 / 3])
        result = decode(measures, vocab, cfg)
        assert result.pattern_ids() == ["A", "A", "B"]
        assert result.total_cost == pytest.approx(
            cfg.pattern_change_penalty + cfg.timesig_change_penalty
        )

    def test_all_empty_measures(self):
        vocab = make_vocab(("A", "4/4", [0.0, 0.5]))
        result = decode(measures_from((), (), ()), vocab, DecoderConfig())
        assert result.pattern_ids() == ["EMPTY_4_4"] * 3
        assert result.total_cost == 0.0

    def test_two_measure_pattern_cannot_start_at_final_measure(self):
        vocab = make_vocab(
            ("TWO", "4/4", [0.0, 0.5], [0.25, 0.75]),
            ("ONE", "4/4", [0.0, 0.5]),
        )
        result = decode(measures_from([0.0, 0.5]), vocab, DecoderConfig())
        assert result.pattern_ids() == ["ONE"]

    def test_two_measure_pattern_wins_over_pair(self):
        vocab = make_vocab(
            ("TWO", "4/4", [0.0, 0.5, 0.75], [0.0, 0.25]),
            ("X", "4/4", [0.0, 0.5, 0.75]),
            ("Y", "4/4", [0.0, 0.25]),
        )
        cfg = DecoderConfig(pattern_change_penalty=1.0)
        result = decode(measures_from([0.0, 0.5, 0.75], [0.0, 0.25]), vocab, cfg)
        assert [(e.pattern_id, e.phase) for e in result.entries] == [("TWO", 0), ("TWO", 1)]
        assert result.total_cost == 0.0

    def test_empty_measure_list_rejected(self):
        with pytest.raises(ValueError):
            decode([], make_vocab(("A", "4/4", [0.0])), DecoderConfig())

    def test_infeasible_raises(self):
        # only 2-measure non-empty patterns: a 1-measure played song has no cover
        vocab = make_vocab(("TWO", "4/4", [0.0], [0.5]))
        with pytest.raises(ValueError):
            decode(measures_from([0.0]), vocab, DecoderConfig())


class TestOracleEquivalence:
    def test_small_random_instances(self):
        rng = np.random.default_rng(1234)
        for _ in range(40):
            measures, vocab, cfg = random_instance(rng, max_measures=6)
            expected = enumerate_decode(measures, vocab, cfg)
            result = decode(measures, vocab, cfg)
            assert expected is not None
            assert result.total_cost == pytest.approx(expected[0], abs=1e-9)
            assert [(e.pattern_id, e.phase) for e in result.entries] == expected[1]

    def test_tie_breaks_prefer_stay_then_index(self):
        # two identical-cost empties: constant run of the lower-index one wins
        vocab = make_vocab(("A", "4/4", [0.0]), ("B", "3/4", [0.0]))
        result = decode(measures_from((), (), ()), vocab, DecoderConfig())
        assert result.pattern_ids() == ["EMPTY_4_4"] * 3


class TestDecodeProperties:
    def test_determinism(self):
        rng = np.random.default_rng(7)
        measures, vocab, cfg = random_instance(rng)
        first = decode(measures, vocab, cfg)
        second = decode(measures, vocab, cfg)
        assert first == second

    def test_switch_monotonicity(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            measures, vocab, _ = random_instance(rng, max_measures=7)
            counts = []
            for c1 in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
                cfg = DecoderConfig(pattern_change_penalty=c1, timesig_change_penalty=1.0)
                result = decode(measures, vocab, cfg)
                ids = [e.pattern_id for e in result.entries if e.phase == 0]
                counts.append(sum(1 for a, b in zip(ids, ids[1:]) if a != b))
            assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_cost_decomposition(self, basic_vocab):
        rng = np.random.default_rng(5)
        measures, vocab, cfg = random_instance(rng, max_measures=8)
        result = decode(measures, vocab, cfg)
        total = 0.0
        previous = None
        i = 0
        while i < len(result.entries):
            pattern = vocab.by_id(result.entries[i].pattern_id)
            span = pattern.measures
            for phase in range(span):
                observed = list(measures[i + phase].positions)
                total += half_cost(observed, list(pattern.onsets[phase]), cfg)
            if previous is not None:
                total += transition(previous, pattern, cfg)
            previous = pattern
            i += span
        assert total == pytest.approx(result.total_cost, abs=1e-9)

    def test_noiseless_round_trip(self, basic_vocab):
        bars = BarlineTrack(tuple(2.0 * i for i in range(6)))
        nominal = []
        layout = ["QUARTERS", "QUARTERS", "TWOBAR", "HALVES"]
        measure = 0
        for pid in layout:
            pattern = basic_vocab.by_id(pid)
            for phase in range(pattern.measures):
                start = bars.times_sec[measure]
                nominal.extend(start + 2.0 * p for p in pattern.onsets[phase])
                measure += 1
        from strumscribe import StrumSequence

        strums = StrumSequence(tuple(nominal))
        measures, _ = bin_strums(strums, bars)
        result = decode(measures, basic_vocab, DecoderConfig())
        assert result.pattern_ids() == ["QUARTERS", "QUARTERS", "TWOBAR", "TWOBAR", "HALVES"]
        assert reconstruct_strums(result, bars, basic_vocab).times_sec == pytest.approx(
            strums.times_sec
        )


class TestReconstructStrums:
    def test_single_measure(self):
        vocab = make_vocab(("A", "4/4", [0.0, 0.5]))
        t = Transcription(
            (TranscriptionEntry(0, "A", 0, TimeSignature(4, 4)),), total_cost=0.0
        )
        assert reconstruct_strums(t, BarlineTrack((1.0, 3.0)), vocab).times_sec == (1.0, 2.0)

    def test_empty_measures_emit_nothing(self):
        vocab = make_vocab(("A", "4/4", [0.0, 0.5]))
        t = Transcription(
            (TranscriptionEntry(0, "EMPTY_4_4", 0, TimeSignature(4, 4)),), total_cost=0.0
        )
        assert reconstruct_strums(t, BarlineTrack((0.0, 2.0)), vocab).times_sec == ()

    def test_two_measure_pattern(self):
        vocab = make_vocab(("TWO", "4/4", [0.0], [0.5]))
        t = Transcription(
            (
                TranscriptionEntry(0, "TWO", 0, TimeSignature(4, 4)),
                TranscriptionEntry(1, "TWO", 1, TimeSignature(4, 4)),
            ),
            total_cost=0.0,
        )
        assert reconstruct_strums(t, BarlineTrack((0.0, 2.0, 4.0)), vocab).times_sec == (0.0, 3.0)

    def test_measure_count_mismatch(self):
        vocab = make_vocab(("A", "4/4", [0.0]))
        t = Transcription(
            (TranscriptionEntry(0, "A", 0, TimeSignature(4, 4)),), total_cost=0.0
        )
        with pytest.raises(ValueError):
            reconstruct_strums(t, BarlineTrack((0.0, 2.0, 4.0)), vocab)


class TestTranscriptionType:
    def test_phase_one_must_follow_phase_zero(self):
        with pytest.raises(ValueError):
            Transcription(
                (TranscriptionEntry(0, "A", 1, TimeSignature(4, 4)),), total_cost=0.0
            )
        with pytest.raises(ValueError):
            Transcription(
                (
                    TranscriptionEntry(0, "A", 0, TimeSignature(4, 4)),
                    TranscriptionEntry(1, "B", 1, TimeSignature(4, 4)),
                ),
                total_cost=0.0,
            )

    def test_measure_indices_must_be_dense(self):
        with pytest.raises(ValueError):
            Transcription(
                (TranscriptionEntry(3, "A", 0, TimeSignature(4, 4)),), total_cost=0.0
            )

    def test_json_round_trip(self, basic_vocab):
        rng = np.random.default_rng(11)
        measures, vocab, cfg = random_instance(rng)
        result = decode(measures, vocab, cfg)
        buffer = io.StringIO()
        save_transcription(result, buffer)
        assert load_transcription(io.StringIO(buffer.getvalue())) == result
