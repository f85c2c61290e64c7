"""Evaluation metrics: tolerance-based event matching and readability rates.

Event matching counts the maximum number of one-to-one pairs of a reference
and an estimated event whose times differ by at most the tolerance. Both
lists are ascending and every tolerance window has the same width, so one
sweep that pairs each reference with the earliest estimate still inside its
window is exact: an estimate too early for one reference is too early for
every later one, and taking the earliest never costs a later reference its
match. This differs from nearest-first greedy matching, which can undercount.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ._lazy import numpy as np
from .barlines import discontinuity_rate
from .decoder import Transcription, nominal_times
from .timeline import BarlineTrack, StrumSequence
from .vocabulary import Vocabulary


@dataclass(frozen=True)
class MatchResult:
    true_positives: int
    false_positives: int
    false_negatives: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "MatchResult":
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return cls(tp, fp, fn, precision, recall, f1)


def match_events(
    reference: Sequence[float], estimate: Sequence[float], tolerance_sec: float
) -> MatchResult:
    """Match reference against estimated event times within a tolerance.

    Counts the maximum number of one-to-one pairs with |t_ref - t_est| <=
    tolerance_sec; unmatched estimates are false positives, unmatched
    references false negatives.
    """
    if not tolerance_sec > 0:
        raise ValueError("tolerance must be > 0")
    reference = list(reference)
    estimate = list(estimate)
    if any(b < a for a, b in zip(reference, reference[1:])):
        raise ValueError("reference events must be ascending")
    if any(b < a for a, b in zip(estimate, estimate[1:])):
        raise ValueError("estimated events must be ascending")
    tp = i = j = 0
    while i < len(reference) and j < len(estimate):
        gap = estimate[j] - reference[i]
        if gap < -tolerance_sec:
            j += 1
        elif gap > tolerance_sec:
            i += 1
        else:
            tp += 1
            i += 1
            j += 1
    return MatchResult.from_counts(tp, len(estimate) - tp, len(reference) - tp)


def pattern_discontinuity(transcription: Transcription) -> float:
    """Pattern changes per measure: the number of pattern-instance starts
    whose pattern differs from the previous instance's, divided by the total
    measure count. Phase-1 measures never count as changes."""
    starts = [e.pattern_id for e in transcription.entries if e.phase == 0]
    changes = sum(1 for a, b in zip(starts, starts[1:]) if a != b)
    return changes / len(transcription.entries)


def timesig_discontinuity(transcription: Transcription) -> float:
    """Time-signature changes per measure."""
    signatures = [e.time_signature for e in transcription.entries]
    changes = sum(1 for a, b in zip(signatures, signatures[1:]) if a != b)
    return changes / len(transcription.entries)


@dataclass(frozen=True)
class TranscriptionReport:
    """Accuracy and readability summary for one transcribed song."""

    strum_match: MatchResult
    pattern_disc: float
    timesig_disc: float
    measure_disc: float

    def to_dict(self) -> dict:
        return {
            "f1": self.strum_match.f1,
            "precision": self.strum_match.precision,
            "recall": self.strum_match.recall,
            "true_positives": self.strum_match.true_positives,
            "false_positives": self.strum_match.false_positives,
            "false_negatives": self.strum_match.false_negatives,
            "pattern_disc": self.pattern_disc,
            "timesig_disc": self.timesig_disc,
            "measure_disc": self.measure_disc,
        }


def evaluate_transcription(
    transcription: Transcription,
    bars: BarlineTrack,
    vocab: Vocabulary,
    ground_truth_strums: StrumSequence,
    tolerance_sec: float = 0.05,
) -> TranscriptionReport:
    """Score a transcription by writing its patterns back out as strums and
    matching them against ground truth, alongside the discontinuity rates."""
    written_out = nominal_times(transcription, bars, vocab)
    return TranscriptionReport(
        strum_match=match_events(ground_truth_strums.times_sec, written_out, tolerance_sec),
        pattern_disc=pattern_discontinuity(transcription),
        timesig_disc=timesig_discontinuity(transcription),
        measure_disc=discontinuity_rate(bars),
    )


_AGGREGATE_KEYS = ("f1", "precision", "recall", "pattern_disc", "timesig_disc", "measure_disc")


def aggregate_reports(reports: Sequence[TranscriptionReport]) -> dict:
    """Mean and standard error of the mean for each metric across songs."""
    if not reports:
        raise ValueError("nothing to aggregate")
    out = {}
    for key in _AGGREGATE_KEYS:
        values = np.array([report.to_dict()[key] for report in reports], dtype=float)
        sem = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
        out[key] = {"mean": float(values.mean()), "sem": sem}
    return out
