"""Minimum-cost rhythmic-pattern sequence search over the measure grid.

The decoder assigns every measure to a pattern instance so that pattern
instances tile the song without gaps: a 1-measure pattern occupies one
measure, a 2-measure pattern occupies two consecutive measures (phases 0 and
1). The optimal tiling minimizes the sum of emission costs plus a transition
penalty at each boundary between consecutive instances; no penalty is charged
before the first instance, and a 2-measure instance cannot start at the final
measure.

Cost ties are broken deterministically: among minimum-cost tilings, those
with the fewest pattern changes remain, and the rest is settled reading
backwards from the last measure. The last instance takes the lowest
vocabulary index; each earlier instance repeats the pattern of the instance
that follows it when that ties, and otherwise takes the lowest index. This
is not the lexicographically smallest per-measure index sequence: with
A = [0.0] and B = [0.5] in 4/4, measures (0.0), (0.0, 0.5), (0.5) decode to
A, B, B, not to A, A, B at the same cost and change count.

The rule settles exact ties of the forward pass, which compares partial
sums at each measure: where two tilings meet, the one with the lower
(cost so far, changes) key is kept, even if the two totals round equal
once the later emissions are added. With P0 = 4/4 (0, 1/16, 3/16) and
P1 = 3/4 (3/4), measures (0.7095379170839322), (), (1e-06) and
`DecoderConfig(0.1, 0.5, 1.0)` decode to P1, EMPTY_3_4, P0: into P0,
(a + 0.5) + 1.5 is one ulp below (a + 1.5) + 0.5, although the backward
rule alone would take EMPTY_4_4 at the same total cost and change count.

The implementation is a first-order Viterbi pass over (pattern, phase)
states. Each state carries one complex key, cost + 1j * switches: numpy
orders complex numbers by the real part first and then the imaginary part
in np.less, np.minimum and argmin, which is the (cost, switches) order,
and argmin takes the first of equal keys, which breaks the index tie. A
transition costs nothing for a repeat, c1 within a time-signature group
and c1+c2 across groups, so at each measure only one state per group can
be a switch predecessor: its champion, the member with the smallest (key,
index), found by one argmin over the group. Each group's switch key is
resolved on these champions as Python scalars, read with ndarray.item; a
measure's step is then one gather of these keys over the states, one
np.less that writes the switch bits into the block's bit rows, one
np.minimum with the repeat, one add of the emission row, and one argmin
per group. Each step thus costs O(patterns) with a fixed number of numpy
calls instead of O(patterns^2). This is exact, not an approximation: the
key order is total, so the minimum does not depend on the order in which
candidates are compared, and each candidate's cost is the same
floating-point expression (`cost + c1`, `cost + (c1 + c2)`) as in a full
pairwise relaxation. The per-vocabulary state (signature groups,
spans) is built once per vocabulary, with the emission tables' lookups
(`likelihood.compiled`).

No table the size of the song is held. The emission tables are made a
block of about _BLOCK_CELLS (measures x patterns) cells at a time, each
dropped before the next is made, and the pass reads each row once; a
2-measure instance ending at a block's first measure takes its first
half's emission from the row carried over from the block before. For the
backtrack the pass keeps one bit per (measure, pattern), packed once per
block, set where the instance of that pattern entered at that measure
switched, and each signature group's switch source per measure. An
instance that starts at measure 0 has no predecessor; one that starts
later follows its group's source when its bit is set, and an instance of
its own pattern when not. That is the predecessor the pass chose, by
construction: a state switches exactly when its predecessor is not
itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Sequence

from ._lazy import numpy as np
from .likelihood import DecoderConfig, compiled, contribution_tables
from .timeline import BarlineTrack, MeasureStrums, StrumSequence
from .vocabulary import TimeSignature, Vocabulary

# (measures x patterns) cells of the emission tables made at a time
_BLOCK_CELLS = 1 << 17


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
        entries = tuple(_entry_from_record(i, rec) for i, rec in enumerate(records))
        return cls(entries, total_cost)


# the JSON type of each field of a transcription's measure record
_ENTRY_FIELDS = {"index": int, "pattern_id": str, "phase": int, "time_signature": str}


def _check_record(i: int, rec) -> None:
    """Raise for the first missing or mistyped field of measure record i,
    in _ENTRY_FIELDS order."""
    where = f"transcription measures[{i}]"
    if not isinstance(rec, dict):
        raise ValueError(f"{where} must be an object, got {rec!r}")
    for key, kind in _ENTRY_FIELDS.items():
        if key not in rec:
            raise ValueError(f"{where} is missing {key!r}")
        if isinstance(rec[key], bool) or not isinstance(rec[key], kind):
            article = "an integer" if kind is int else "a string"
            raise ValueError(f"{where}.{key} must be {article}, got {rec[key]!r}")


def _entry_from_record(i: int, rec) -> TranscriptionEntry:
    """Measure record i as a TranscriptionEntry."""
    # the plain JSON types pass without a look at each field; anything else,
    # a subclass included, goes through the full check
    if not (
        type(rec) is dict
        and type(rec.get("index")) is int
        and type(rec.get("pattern_id")) is str
        and type(rec.get("phase")) is int
        and type(rec.get("time_signature")) is str
    ):
        _check_record(i, rec)
    return TranscriptionEntry(
        measure_index=rec["index"],
        pattern_id=rec["pattern_id"],
        phase=rec["phase"],
        time_signature=TimeSignature.parse(rec["time_signature"]),
    )


def load_transcription(source: IO) -> Transcription:
    return Transcription.from_dict(json.load(source))


# one measure record as json.dump(..., indent=2, sort_keys=True) lays it out
_RECORD = ('    {\n      "index": %s,\n      "pattern_id": %s,\n      "phase": %s,\n'
           '      "time_signature": %s\n    }')


def save_transcription(transcription: Transcription, fp: IO[str]) -> None:
    """Write `transcription.to_dict()` as `json.dump(..., indent=2,
    sort_keys=True)` and a newline would, byte for byte.

    `indent` would select the pure-Python encoder, so the fixed schema is
    laid out here and the values are encoded by the C encoder
    (`json.dumps`): the measure indices and phases as one list each, which
    splits back at ", " because no number's text holds one, and each
    distinct pattern id and time signature once.
    """
    entries = transcription.entries
    index = json.dumps([e.measure_index for e in entries])[1:-1].split(", ")
    phase = json.dumps([e.phase for e in entries])[1:-1].split(", ")
    ids = {pid: json.dumps(pid) for pid in {e.pattern_id for e in entries}}
    signatures = {t: json.dumps(str(t)) for t in {e.time_signature for e in entries}}
    records = ",\n".join([
        _RECORD % (i, ids[e.pattern_id], p, signatures[e.time_signature])
        for i, p, e in zip(index, phase, entries)
    ])
    fp.write('{\n  "measures": [\n%s\n  ],\n  "total_cost": %s\n}\n'
             % (records, json.dumps(transcription.total_cost)))


def _enter(end, champions, sig_codes, c1, c2, switched):
    """Best way to enter a new pattern instance, given the keys `end` of
    ending the previous instance at the preceding measure and each
    signature group's champion: its member with the smallest (key, index).
    Writes into the bool row `switched` which states switched, and returns
    the entry keys and each group's switch source: a state's predecessor is
    its group's source if it switched, and itself if it repeated.

    A key is cost + 1j * switches. Repeating the pattern costs nothing and
    wins ties; a switch costs c1 within the group and c1+c2 across groups.
    A state's best switch within its group is from the champion, and across
    groups from the champion of the best group other than its own, so every
    state of a group shares one switch key: the smaller of the two. The
    champion's switch from itself never beats its repeat (cost + c1 >=
    cost, and at equal cost it has one more switch), so the shared key is
    exact for the champion too.
    """
    keys = [(k.real, k.imag, b) for b in champions for k in (end.item(b),)]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    switch, sources = [], []
    for g, (cost, switches, b) in enumerate(keys):
        key = (cost + c1, switches + 1, b)
        if len(keys) > 1:
            other_cost, other_switches, o = keys[order[1] if g == order[0] else order[0]]
            key = min(key, (other_cost + (c1 + c2), other_switches + 1, o))
        switch.append(complex(key[0], key[1]))
        sources.append(key[2])
    offer = np.array(switch)[sig_codes]
    np.less(offer, end, out=switched)
    return np.minimum(end, offer, out=offer), sources


def decode(
    measures: Sequence[MeasureStrums],
    vocab: Vocabulary,
    cfg: DecoderConfig | None = None,
) -> Transcription:
    """Find the minimum-cost pattern tiling of the given measures. Raises
    ValueError naming the first measure that no feasible tiling of a song
    prefix covers when the whole song has no feasible tiling."""
    cfg = cfg or DecoderConfig()
    n_measures = len(measures)
    if n_measures == 0:
        raise ValueError("cannot decode an empty measure list")
    patterns = vocab.patterns
    if not patterns:
        raise ValueError("cannot decode with an empty vocabulary")

    n = len(patterns)
    _, spans, multi, sig_codes, members = compiled(vocab)
    c1 = cfg.pattern_change_penalty
    c2 = cfg.timesig_change_penalty

    # end: the key of the best tiling of measures[0..m] whose last instance
    # is pattern p ending exactly at measure m, one row rolled forward per
    # measure. A 2-measure instance ending at m was entered at m - 1: on the
    # 2-measure columns, enter holds that entry and first_before its first
    # half's emission. switched[m] packs, 8 states a byte, which states
    # switched on entering at m (bits holds a block's rows until they are
    # packed), and sources[m] holds each signature group's switch source
    # there.
    switched = np.zeros((n_measures, (n + 7) // 8), dtype=np.uint8)
    sources = np.zeros((n_measures, len(members)), dtype=np.int64)
    live = []  # does any feasible tiling of measures[0..m] end at m?
    per_block = max(1, _BLOCK_CELLS // n)
    bits = np.zeros((min(per_block, n_measures), n), dtype=bool)
    for block_start in range(0, n_measures, per_block):
        # the last block's tables go before the next is made
        first = second = first_multi = None
        first, second = contribution_tables(
            measures[block_start : block_start + per_block], vocab, cfg
        )
        first_multi = first[:, multi]
        for row in range(len(first)):
            m = block_start + row
            if m == 0:
                entry = np.zeros(n, dtype=complex)
                two = np.inf
            else:
                entry, sources[m] = _enter(end, champions, sig_codes, c1, c2, bits[row])
                two = (enter + first_before) + second[row]
            enter, first_before = entry[multi], first_multi[row]
            end = entry + first[row]
            end[multi] = two
            champions = [int(g[end[g].argmin()]) for g in members]
            live.append(min(end.item(b).real for b in champions) < np.inf)
        rows = len(first)
        switched[block_start : block_start + rows] = np.packbits(bits[:rows], axis=1)

    if not live[-1]:
        # measure m is covered by an instance ending at m or, as phase 0, at m+1
        m = next(m for m in range(n_measures) if not any(live[m : m + 2]))
        raise ValueError(f"no feasible pattern assignment: measure {m} cannot be covered")
    best = int(end.argmin())
    total_cost = float(end[best].real)

    entries: list[TranscriptionEntry | None] = [None] * n_measures
    m, p = n_measures - 1, best
    while m >= 0:
        start = m - spans[p] + 1
        pat = patterns[p]
        for phase in range(spans[p]):
            entries[start + phase] = TranscriptionEntry(
                start + phase, pat.id, phase, pat.time_signature
            )
        if start > 0 and switched[start, p >> 3] & (0x80 >> (p & 7)):
            p = int(sources[start, sig_codes[p]])
        m = start - 1
    return Transcription(tuple(entries), total_cost)  # type: ignore[arg-type]


def reconstruct_strums(
    transcription: Transcription, bars: BarlineTrack, vocab: Vocabulary
) -> StrumSequence:
    """Write the decoded patterns back out as nominal strum times. Two of
    them within 1 ms of each other, as a very short measure can give, are
    rejected as duplicates (StrumSequence); `nominal_times` keeps them."""
    return StrumSequence(nominal_times(transcription, bars, vocab))


def nominal_times(
    transcription: Transcription, bars: BarlineTrack, vocab: Vocabulary
) -> tuple[float, ...]:
    """The decoded patterns written out as strum times, in ascending order."""
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
    return tuple(sorted(times))
