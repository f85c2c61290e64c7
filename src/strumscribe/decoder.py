"""Minimum-cost rhythmic-pattern sequence search over the measure grid.

The decoder assigns every measure to a pattern instance so that pattern
instances tile the song without gaps: a 1-measure pattern occupies one
measure, a 2-measure pattern occupies two consecutive measures (phases 0 and
1). The optimal tiling minimizes the sum of emission costs plus a transition
penalty at each boundary between consecutive instances; no penalty is charged
before the first instance, and a 2-measure instance cannot start at the final
measure.

Cost ties are broken deterministically: among minimum-cost tilings, the one
with the fewest pattern changes wins, and remaining ties go to the
lexicographically smallest per-measure sequence of vocabulary indices. The
implementation is a first-order Viterbi pass over (pattern, phase) states,
with per-time-signature group minima so each step costs O(patterns) instead
of O(patterns^2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .likelihood import DecoderConfig, contribution_tables
from .timeline import BarlineTrack, MeasureStrums, StrumSequence
from .vocabulary import TimeSignature, Vocabulary


@dataclass(frozen=True)
class TranscriptionEntry:
    """One measure's assignment: which pattern, and which measure of it."""

    measure_index: int
    pattern_id: str
    phase: int
    time_signature: TimeSignature


@dataclass(frozen=True)
class Transcription:
    """Per-measure pattern assignment covering a whole song."""

    entries: tuple[TranscriptionEntry, ...]
    total_cost: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("a transcription needs at least one measure")
        for i, entry in enumerate(self.entries):
            if entry.measure_index != i:
                raise ValueError(f"entry {i} has measure_index {entry.measure_index}")
            if entry.phase not in (0, 1):
                raise ValueError(f"entry {i} has phase {entry.phase}")
            if entry.phase == 1:
                prev = self.entries[i - 1] if i else None
                if prev is None or prev.phase != 0 or prev.pattern_id != entry.pattern_id:
                    raise ValueError(
                        f"entry {i}: phase 1 must directly follow phase 0 of the same pattern"
                    )

    def pattern_ids(self) -> list[str]:
        return [e.pattern_id for e in self.entries]

    def to_dict(self) -> dict:
        return {
            "total_cost": self.total_cost,
            "measures": [
                {
                    "index": e.measure_index,
                    "pattern_id": e.pattern_id,
                    "phase": e.phase,
                    "time_signature": str(e.time_signature),
                }
                for e in self.entries
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Transcription":
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
        return cls(tuple(_entry_from_record(i, rec) for i, rec in enumerate(records)), total_cost)


# the JSON type of each field of a transcription's measure record
_ENTRY_FIELDS = {"index": int, "pattern_id": str, "phase": int, "time_signature": str}


def _entry_from_record(i: int, rec) -> TranscriptionEntry:
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


def load_transcription(source: IO) -> Transcription:
    return Transcription.from_dict(json.load(source))


def save_transcription(transcription: Transcription, fp: IO[str]) -> None:
    json.dump(transcription.to_dict(), fp, indent=2, sort_keys=True)
    fp.write("\n")


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


def decode(
    measures: Sequence[MeasureStrums],
    vocab: Vocabulary,
    cfg: DecoderConfig | None = None,
) -> Transcription:
    """Find the minimum-cost pattern tiling of the given measures."""
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
    first, second = contribution_tables(measures, vocab, cfg)
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


def reconstruct_strums(
    transcription: Transcription, bars: BarlineTrack, vocab: Vocabulary
) -> StrumSequence:
    """Write the decoded patterns back out as nominal strum times."""
    if len(transcription.entries) != bars.measure_count:
        raise ValueError(
            f"transcription covers {len(transcription.entries)} measures, "
            f"bar-line track has {bars.measure_count}"
        )
    times: list[float] = []
    for entry in transcription.entries:
        pattern = vocab.by_id(entry.pattern_id)
        if entry.phase >= pattern.measures:
            raise ValueError(
                f"measure {entry.measure_index}: phase {entry.phase} invalid for "
                f"{pattern.measures}-measure pattern {pattern.id!r}"
            )
        start = bars.times_sec[entry.measure_index]
        duration = bars.times_sec[entry.measure_index + 1] - start
        times.extend(start + position * duration for position in pattern.onsets[entry.phase])
    return StrumSequence(tuple(sorted(times)))
