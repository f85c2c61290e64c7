import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from strumscribe import (
    BarlineTrack,
    DecoderConfig,
    StrumSequence,
    TimeSignature,
    Transcription,
    TranscriptionEntry,
    bin_strums,
    decode,
    evaluate_transcription,
    match_events,
    pattern_discontinuity,
    reconstruct_strums,
    timesig_discontinuity,
)
from strumscribe.metrics import MatchResult, aggregate_reports

from conftest import make_vocab
from oracles import brute_max_matching

event_lists = st.lists(
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False), max_size=10
).map(lambda xs: sorted(set(round(x, 2) for x in xs)))


def entries_from_ids(ids, sig="4/4"):
    signature = TimeSignature.parse(sig)
    return tuple(
        TranscriptionEntry(i, pattern_id, 0, signature) for i, pattern_id in enumerate(ids)
    )


class TestMatchEvents:
    def test_partial_match(self):
        result = match_events([1.0, 2.0], [1.03, 2.2], 0.05)
        assert (result.true_positives, result.false_positives, result.false_negatives) == (1, 1, 1)
        assert result.precision == result.recall == result.f1 == 0.5

    def test_identical_lists(self):
        result = match_events([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 0.05)
        assert result.precision == result.recall == result.f1 == 1.0

    def test_one_to_one_constraint(self):
        result = match_events([1.0, 1.08], [1.04], 0.05)
        assert result.true_positives == 1
        assert result.f1 == pytest.approx(2 / 3)

    def test_maximum_not_greedy(self):
        # matching 1.0 -> 1.04 would strand 1.06; the maximum pairs 1.0 -> 0.98
        result = match_events([1.0, 1.06], [0.98, 1.04], 0.05)
        assert result.true_positives == 2

    def test_empty_sides(self):
        assert match_events([], [], 0.05).f1 == 1.0
        assert match_events([1.0], [], 0.05).false_negatives == 1
        assert match_events([], [1.0], 0.05).false_positives == 1

    def test_tolerance_inclusive(self):
        # dyadic values so the boundary is exact in floats
        assert match_events([1.0], [1.0625], 0.0625).true_positives == 1

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            match_events([2.0, 1.0], [], 0.05)
        with pytest.raises(ValueError):
            match_events([], [2.0, 1.0], 0.05)

    @given(ref=event_lists, est=event_lists, tol=st.sampled_from([0.03, 0.05, 0.1, 0.5]))
    # pairs exactly at the tolerance, where r - tol rounds above the estimate
    @example(ref=[0.07], est=[0.02], tol=0.05)
    @example(ref=[0.28], est=[0.08], tol=0.2)
    @example(ref=[0.04], est=[0.01], tol=0.03)
    @example(ref=[0.43], est=[0.93], tol=0.5)
    @example(
        ref=[0.26, 0.67, 0.79, 1.13, 1.53, 1.73, 1.78, 1.86, 2.98],
        est=[0.11, 0.21, 0.29, 0.99, 1.45, 1.97, 2.42, 2.44, 2.56, 2.66, 2.74],
        tol=0.5,
    )
    def test_matches_brute_force(self, ref, est, tol):
        result = match_events(ref, est, tol)
        assert result.true_positives == brute_max_matching(ref, est, tol)

    @given(ref=event_lists, est=event_lists)
    def test_swap_duality(self, ref, est):
        forward = match_events(ref, est, 0.1)
        backward = match_events(est, ref, 0.1)
        assert forward.precision == backward.recall
        assert forward.recall == backward.precision
        assert forward.f1 == pytest.approx(backward.f1)

    @given(ref=event_lists, est=event_lists)
    def test_tolerance_monotonicity(self, ref, est):
        tps = [match_events(ref, est, tol).true_positives for tol in (0.01, 0.05, 0.2, 1.0)]
        assert all(b >= a for a, b in zip(tps, tps[1:]))

    def test_tp_bounded(self):
        result = match_events([1.0, 2.0, 3.0], [1.0], 1.0)
        assert result.true_positives <= 1


class TestMatchResult:
    def test_zero_counts_conventions(self):
        empty = MatchResult.from_counts(0, 0, 0)
        assert empty.precision == empty.recall == 1.0
        nothing = MatchResult.from_counts(0, 5, 5)
        assert nothing.precision == nothing.recall == 0.0
        assert nothing.f1 == 0.0


class TestDiscontinuities:
    def test_pattern_quarter(self):
        t = Transcription(entries_from_ids(["A", "A", "B", "B"]), 0.0)
        assert pattern_discontinuity(t) == 0.25

    def test_pattern_constant(self):
        t = Transcription(entries_from_ids(["A"] * 6), 0.0)
        assert pattern_discontinuity(t) == 0.0

    def test_rate_implies_run_length(self):
        # 6 changes over 25 measures: patterns persist for about 4.2 bars
        ids = []
        for block, size in enumerate([4, 4, 4, 4, 3, 3, 3]):
            ids.extend([f"P{block}"] * size)
        assert len(ids) == 25
        t = Transcription(entries_from_ids(ids), 0.0)
        rate = pattern_discontinuity(t)
        assert rate == pytest.approx(6 / 25)
        assert 1.0 / rate == pytest.approx(4.2, abs=0.1)

    def test_two_measure_phase_not_a_change(self):
        sig = TimeSignature(4, 4)
        entries = (
            TranscriptionEntry(0, "TWO", 0, sig),
            TranscriptionEntry(1, "TWO", 1, sig),
            TranscriptionEntry(2, "TWO", 0, sig),
            TranscriptionEntry(3, "TWO", 1, sig),
        )
        assert pattern_discontinuity(Transcription(entries, 0.0)) == 0.0

    def test_timesig_quarter(self):
        entries = tuple(
            TranscriptionEntry(i, pid, 0, TimeSignature.parse(sig))
            for i, (pid, sig) in enumerate(
                [("A", "4/4"), ("A", "4/4"), ("B", "3/4"), ("B", "3/4")]
            )
        )
        assert timesig_discontinuity(Transcription(entries, 0.0)) == 0.25

    def test_timesig_constant(self):
        t = Transcription(entries_from_ids(["A", "B", "A"]), 0.0)
        assert timesig_discontinuity(t) == 0.0

    def test_timesig_alternating(self):
        entries = tuple(
            TranscriptionEntry(i, "P", 0, TimeSignature.parse(sig))
            for i, sig in enumerate(["4/4", "3/4", "4/4", "3/4"])
        )
        assert timesig_discontinuity(Transcription(entries, 0.0)) == 0.75


class TestEvaluateTranscription:
    def test_perfect_reconstruction(self):
        vocab = make_vocab(("A", "4/4", [0.0, 0.5]))
        bars = BarlineTrack((0.0, 2.0, 4.0))
        truth = StrumSequence((0.0, 1.0, 2.0, 3.0))
        measures, _ = bin_strums(truth, bars)
        transcription = decode(measures, vocab, DecoderConfig())
        report = evaluate_transcription(transcription, bars, vocab, truth, 0.05)
        assert report.strum_match.f1 == 1.0
        assert report.pattern_disc == 0.0
        assert report.timesig_disc == 0.0
        assert report.measure_disc == 0.0

    def test_very_short_measure_scored(self):
        # A, A writes out strums 0.75 ms apart in the 1.5 ms first measure:
        # nominal strums are scored as they are, not through the detector's
        # 1 ms duplicate rule that reconstruct_strums applies
        vocab = make_vocab(("A", "4/4", [0.0, 0.5]))
        bars = BarlineTrack((0.0, 0.0015, 2.0))
        truth = StrumSequence((0.0, 0.5, 1.5))
        measures, _ = bin_strums(truth, bars)
        transcription = decode(measures, vocab, DecoderConfig())
        assert [e.pattern_id for e in transcription.entries] == ["A", "A"]
        with pytest.raises(ValueError, match="duplicate strums within 1 ms"):
            reconstruct_strums(transcription, bars, vocab)
        report = evaluate_transcription(transcription, bars, vocab, truth, 0.05)
        match = report.strum_match
        # written out: 0.0, 0.00075, 0.0015 and 1.00075, of which only 0.0
        # lies within 50 ms of a true strum
        assert (match.true_positives, match.false_positives, match.false_negatives) == (1, 3, 2)

    def test_report_dict_keys(self):
        vocab = make_vocab(("A", "4/4", [0.0]))
        bars = BarlineTrack((0.0, 2.0))
        truth = StrumSequence((0.0,))
        measures, _ = bin_strums(truth, bars)
        report = evaluate_transcription(
            decode(measures, vocab, DecoderConfig()), bars, vocab, truth
        )
        assert set(report.to_dict()) == {
            "f1",
            "precision",
            "recall",
            "true_positives",
            "false_positives",
            "false_negatives",
            "pattern_disc",
            "timesig_disc",
            "measure_disc",
        }


def make_report(tp, fp, fn, pattern_disc=0.2):
    from strumscribe.metrics import TranscriptionReport

    return TranscriptionReport(
        strum_match=MatchResult.from_counts(tp, fp, fn),
        pattern_disc=pattern_disc,
        timesig_disc=0.0,
        measure_disc=0.0,
    )


class TestAggregate:
    def test_mean_and_sem(self):
        # F1 values 1.0 and 0.5
        reports = [make_report(4, 0, 0), make_report(2, 2, 2)]
        aggregate = aggregate_reports(reports)
        assert aggregate["f1"]["mean"] == pytest.approx(0.75)
        expected_sem = np.std([1.0, 0.5], ddof=1) / np.sqrt(2)
        assert aggregate["f1"]["sem"] == pytest.approx(expected_sem)
        assert aggregate["pattern_disc"]["sem"] == 0.0

    def test_single_report_sem_zero(self):
        assert aggregate_reports([make_report(9, 1, 1)])["f1"]["sem"] == 0.0
