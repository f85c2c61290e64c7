"""Rhythmic pattern vocabulary: domain types, validation, and file loading.

A vocabulary is an ordered list of expert-curated strumming patterns. Each
pattern spans 1 or 2 measures and stores its onsets as fractions of a measure
in [0, 1). Loading appends one onset-free "empty" pattern per time signature
so that silent measures can always be covered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Union

_POWER_OF_TWO_DENOMINATORS = (1, 2, 4, 8, 16, 32)


class VocabularyError(ValueError):
    """Invalid vocabulary file or pattern definition."""


@dataclass(frozen=True)
class TimeSignature:
    """Meter label such as 4/4 or 6/8. Equality is componentwise: 6/8 != 3/4."""

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if not isinstance(self.numerator, int) or isinstance(self.numerator, bool) or self.numerator < 1:
            raise VocabularyError(
                f"time signature numerator must be a positive integer, got {self.numerator!r}"
            )
        if self.denominator not in _POWER_OF_TWO_DENOMINATORS:
            raise VocabularyError(
                f"time signature denominator must be one of {_POWER_OF_TWO_DENOMINATORS}, "
                f"got {self.denominator!r}"
            )

    @classmethod
    def parse(cls, text: str) -> TimeSignature:
        """Parse an 'N/D' string."""
        try:
            num_text, den_text = text.strip().split("/")
            numerator, denominator = int(num_text), int(den_text)
        except (ValueError, AttributeError) as exc:
            raise VocabularyError(f"cannot parse time signature {text!r}") from exc
        return cls(numerator, denominator)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


@dataclass(frozen=True)
class RhythmicPattern:
    """A 1- or 2-measure template of strum positions.

    `onsets` holds one position list per measure; positions are fractions of
    the measure in [0, 1), strictly ascending within each measure. A pattern
    with no onsets at all represents a silent measure; `is_empty` says so
    and is set once, at construction.
    """

    id: str
    time_signature: TimeSignature
    onsets: tuple[tuple[float, ...], ...]
    name: str | None = None
    is_empty: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise VocabularyError(f"pattern id must be a non-empty string, got {self.id!r}")
        normalized = tuple(tuple(map(float, measure)) for measure in self.onsets)
        object.__setattr__(self, "onsets", normalized)
        object.__setattr__(self, "is_empty", not any(normalized))
        if len(normalized) not in (1, 2):
            raise VocabularyError(f"pattern {self.id!r}: measures must be 1 or 2, got {len(normalized)}")
        for positions in normalized:
            for p in positions:
                if not 0.0 <= p < 1.0:
                    raise VocabularyError(f"pattern {self.id!r}: position {p!r} outside [0, 1)")
            if any(b <= a for a, b in zip(positions, positions[1:])):
                raise VocabularyError(f"pattern {self.id!r}: positions must be strictly ascending")

    @property
    def measures(self) -> int:
        return len(self.onsets)


def empty_pattern(signature: TimeSignature) -> RhythmicPattern:
    """The auto-generated silent pattern for one time signature."""
    return RhythmicPattern(
        id=f"EMPTY_{signature.numerator}_{signature.denominator}",
        time_signature=signature,
        onsets=((),),
    )


@dataclass(frozen=True)
class Vocabulary:
    """Ordered, validated collection of rhythmic patterns.

    Immutable after construction; safe to share across workers. Use
    Vocabulary.build() or load_vocabulary() rather than the raw constructor
    so missing empty patterns get appended.
    """

    patterns: tuple[RhythmicPattern, ...]
    _by_id: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "patterns", tuple(self.patterns))
        by_id: dict[str, RhythmicPattern] = {}
        seen_shapes: set[tuple] = set()
        empties_by_sig: dict[TimeSignature, int] = {}
        for pattern in self.patterns:
            if pattern.id in by_id:
                raise VocabularyError(f"duplicate pattern id {pattern.id!r}")
            by_id[pattern.id] = pattern
            if pattern.is_empty:
                empties_by_sig[pattern.time_signature] = empties_by_sig.get(pattern.time_signature, 0) + 1
            else:
                shape = (pattern.time_signature, pattern.onsets)
                if shape in seen_shapes:
                    raise VocabularyError(
                        f"pattern {pattern.id!r} duplicates another pattern with the same "
                        f"time signature and onsets"
                    )
                seen_shapes.add(shape)
        for signature in self._signatures_of_nonempty():
            if empties_by_sig.get(signature, 0) != 1:
                raise VocabularyError(
                    f"vocabulary needs exactly one empty pattern for {signature}; "
                    f"use Vocabulary.build() to append them"
                )
        for signature, count in empties_by_sig.items():
            if count > 1:
                raise VocabularyError(f"more than one empty pattern for {signature}")
        object.__setattr__(self, "_by_id", by_id)

    def _signatures_of_nonempty(self) -> list[TimeSignature]:
        seen: list[TimeSignature] = []
        for pattern in self.patterns:
            if not pattern.is_empty and pattern.time_signature not in seen:
                seen.append(pattern.time_signature)
        return seen

    @classmethod
    def build(cls, patterns: Iterable[RhythmicPattern]) -> Vocabulary:
        """Construct a vocabulary, appending empty patterns for any time
        signature that lacks one. Original pattern order is preserved."""
        patterns = list(patterns)
        covered = {p.time_signature for p in patterns if p.is_empty}
        for signature in dict.fromkeys(p.time_signature for p in patterns if not p.is_empty):
            if signature not in covered:
                patterns.append(empty_pattern(signature))
        return cls(tuple(patterns))

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self) -> Iterator[RhythmicPattern]:
        return iter(self.patterns)

    def by_id(self, pattern_id: str) -> RhythmicPattern:
        try:
            return self._by_id[pattern_id]
        except KeyError:
            raise VocabularyError(f"unknown pattern id {pattern_id!r}") from None

    def to_dict(self) -> dict:
        records = []
        for p in self.patterns:
            record: dict = {
                "id": p.id,
                "time_signature": str(p.time_signature),
                "measures": p.measures,
                "onsets": [list(measure) for measure in p.onsets],
            }
            if p.name is not None:
                record["name"] = p.name
            records.append(record)
        return {"patterns": records}


_PATTERN_KEYS = {"id", "name", "time_signature", "measures", "onsets"}


def _position(pattern_id, measure: int, index: int, value) -> float:
    """One JSON onset position as a float: an int or a float, not a bool."""
    where = f"pattern {pattern_id!r}: onsets[{measure}][{index}]"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise VocabularyError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise VocabularyError(f"{where} is out of range") from None


def _positions(pattern_id, measure: int, values: list) -> list:
    """One measure of JSON onset positions. A list of floats is passed on as
    it is, for RhythmicPattern to convert once; anything else is read one
    position at a time."""
    if set(map(type, values)) <= {float}:
        return values
    return [_position(pattern_id, measure, i, p) for i, p in enumerate(values)]


def _pattern_from_record(record: dict) -> RhythmicPattern:
    if not isinstance(record, dict):
        raise VocabularyError(f"pattern record must be an object, got {type(record).__name__}")
    unknown = set(record) - _PATTERN_KEYS
    if unknown:
        raise VocabularyError(f"unknown pattern keys: {sorted(unknown)}")
    for key in ("id", "time_signature", "measures", "onsets"):
        if key not in record:
            raise VocabularyError(f"pattern record missing {key!r}")
    where = f"pattern {record.get('id')!r}"
    measures = record["measures"]
    if isinstance(measures, bool) or not isinstance(measures, int):
        raise VocabularyError(f"{where}: measures must be an integer, got {measures!r}")
    if "name" in record and not isinstance(record["name"], str):
        raise VocabularyError(f"{where}: name must be a string, got {record['name']!r}")
    onsets = record["onsets"]
    if not isinstance(onsets, list) or not all(isinstance(m, list) for m in onsets):
        raise VocabularyError(f"{where}: onsets must be a list of lists")
    pattern = RhythmicPattern(
        id=record["id"],
        time_signature=TimeSignature.parse(record["time_signature"]),
        onsets=[_positions(record.get("id"), m, measure) for m, measure in enumerate(onsets)],
        name=record.get("name"),
    )
    if measures != pattern.measures:
        raise VocabularyError(
            f"pattern {pattern.id!r}: measures field is {measures} "
            f"but onsets define {pattern.measures} measure(s)"
        )
    return pattern


def load_vocabulary(source: Union[IO[bytes], IO[str], str, bytes]) -> Vocabulary:
    """Load and validate a vocabulary from a JSON stream or string.

    Empty patterns (ids EMPTY_<num>_<den>) are appended for every time
    signature that appears on a non-empty pattern and has no empty pattern
    in the file already.
    """
    try:
        if isinstance(source, (str, bytes)):
            payload = json.loads(source)
        else:
            payload = json.load(source)
    except json.JSONDecodeError as exc:
        raise VocabularyError(f"vocabulary is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or set(payload) != {"patterns"}:
        raise VocabularyError('vocabulary JSON must be an object with a single "patterns" key')
    if not isinstance(payload["patterns"], list):
        raise VocabularyError('"patterns" must be a list')
    return Vocabulary.build(_pattern_from_record(r) for r in payload["patterns"])


def dump_vocabulary(vocab: Vocabulary, fp: IO[str]) -> None:
    json.dump(vocab.to_dict(), fp, indent=2, sort_keys=True)
    fp.write("\n")
